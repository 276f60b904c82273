"""Faults that ``power_sums_M*`` catches, by the closed form and by the direct sums.

``power_sums_M1`` and ``_M2`` compare the two polygons' cyclic averages at each
point from the closed form in (n, R, |M O|), in O(n).  They once compared the
direct power sums of the squared vertex distances, in O(n^2).  This file is the
evidence that the replacement fails the same documents.

The corpus: ``random.Random(3)``, the kinds ``pair``, ``shared_vertex`` and
``bottema``, 10 documents at each n = 3..12.  Each document is solved, then one
fault is injected into what the solve built, and the checks at the labelled
points run on it (``runner._labelled``: power sums, alignment, matching and
cosine model).  A fault moves both points by delta R (R the larger
circumradius), or changes the second polygon: its radius times (1 + delta), its
centroid moved by delta R, or its phase plus delta.  A document fails when one
of its checks fails, once with the report's ``power_sums_M*`` and once with
``compare_power_sums`` on the direct sums in its place.

Run as a script, it prints the matrix per fault and delta as a Markdown table:
documents, how many fail with each check, and how many fail on
``power_sums_M*`` alone.  It exits 1 when the two checks fail different
documents at a delta the tests assert on.

    PYTHONPATH=src python tests/test_power_sum_faults.py
"""

from __future__ import annotations

import math
import random
import sys
from functools import cache

import pytest

from equigon.equalizer import EqualDistanceSolution, PairCase
from equigon.geom import Point
from equigon.polygon import RegularPolygon
from equigon.power_sums import compare_cyclic_averages, compare_power_sums, distances_squared
from equigon.runner import Report, _labelled, solve_scenario
from equigon.sampling import random_scenario
from equigon.scenario import ScenarioKind

KINDS = (ScenarioKind.PAIR, ScenarioKind.SHARED_VERTEX, ScenarioKind.BOTTEMA)
FAULTS = ("point", "radius", "centroid", "phase")
DELTAS = (1e-9, 3e-9, 1e-8, 1e-6)
ASSERTED = (3e-9, 1e-8, 1e-6)  # 1e-9 is the tolerance itself, where single documents may differ
DIRECTION = Point(0.6, 0.8)


@cache
def corpus() -> tuple[Report, ...]:
    """The solved documents that have labelled points, 10 of each kind at each n = 3..12."""
    rng, solved = random.Random(3), []
    for kind in KINDS:
        for n in range(3, 13):
            for _ in range(10):
                solved.append(solve_scenario(random_scenario(kind, n, rng)))
    return tuple(report for report in solved if report.points)


def polygons(report: Report) -> tuple[RegularPolygon, RegularPolygon]:
    geometry = report.geometry
    return (geometry[0], geometry[1]) if isinstance(geometry, tuple) else (geometry.poly1, geometry.poly2)


def faulted(report: Report, fault: str, delta: float):
    """The first polygon, the faulted second polygon and the faulted labelled points."""
    first, second = polygons(report)
    span = delta * max(first.circumradius, second.circumradius)
    points = tuple(point for _, point in report.points)
    if fault == "point":
        return first, second, tuple(point + DIRECTION * span for point in points)
    n, centroid, radius, phase, orient = second.n, second.centroid, second.circumradius, second.phase, second.orientation
    if fault == "radius":
        radius *= 1 + delta
    elif fault == "centroid":
        centroid = centroid + DIRECTION * span
    else:
        phase += delta
    return first, RegularPolygon(n, centroid, radius, phase, orient), points


def verdicts(report: Report, fault: str, delta: float) -> tuple[bool, bool, bool, bool]:
    """Whether the document fails with the closed-form and with the direct-sum check, and
    whether each fails on ``power_sums_M*`` alone."""
    first, second, points = faulted(report, fault, delta)
    m1_kind = None if isinstance(report.geometry, tuple) else report.geometry.m1_kind
    out, tol = Report(report.scenario), report.scenario.tolerance
    solution = EqualDistanceSolution(PairCase(report.classification), points, report.coincident)
    _labelled(out, first, second, solution, tol, m1_kind)()
    others = any(not check.ok for check in out.checks if not check.name.startswith("power_sums"))
    closed = any(not check.ok for check in out.checks if check.name.startswith("power_sums"))
    summed = any(not compare_power_sums(distances_squared(first, point), distances_squared(second, point), tol).ok
                 for point in points)
    return others or closed, others or summed, closed and not others, summed and not others


@cache
def matrix() -> tuple[tuple[str, float, int, int, int, int, int, int], ...]:
    """Per fault and delta: documents, failing with each check, failing on it alone, and
    the documents whose verdict differs between the two."""
    rows = []
    for fault in FAULTS:
        for delta in DELTAS:
            counts = [verdicts(report, fault, delta) for report in corpus()]
            differ = sum(closed != summed for closed, summed, _, _ in counts)
            rows.append((fault, delta, len(counts), *map(sum, zip(*counts)), differ))
    return tuple(rows)


def test_corpus_has_every_kind():
    kinds = {report.scenario.kind for report in corpus()}
    assert kinds == set(KINDS) and len(corpus()) >= 250


@pytest.mark.parametrize("delta", ASSERTED)
@pytest.mark.parametrize("fault", FAULTS)
def test_closed_form_fails_the_documents_the_direct_sums_fail(fault, delta):
    for row in matrix():
        if row[:2] == (fault, delta):
            assert row[-1] == 0, row
            assert row[3] > 0, row  # the fault is seen at all


def test_closed_form_catches_some_fault_alone():
    # ROADMAP item 21's question for power_sums_M*: it catches faults no other check
    # at the point catches, so it stays.
    assert any(row[5] > 0 for row in matrix())


def test_point_off_the_swapped_circles_fails_linearly():
    # Negative control: |M O1| = R2 (1 + eps) takes M1 off the circle about O1
    # where the averages agree, so the gap grows with eps, linearly.  Its slope is
    # at least 0.08 on this corpus, so every document fails from eps = 1e-7 on.
    for report in corpus():
        first, second = polygons(report)
        m1 = report.points[0][1]
        out_of_circle = m1 - first.centroid
        residuals = []
        for eps in (1e-8, 1e-7, 1e-6):
            point = first.centroid + out_of_circle * (second.circumradius * (1 + eps) / out_of_circle.norm())
            check = compare_cyclic_averages(first, second, point, report.scenario.tolerance, "power_sums_M1")
            assert eps < 1e-7 or not check.ok, (report.scenario, eps, check)
            residuals.append(check.residual)
        assert all(math.isclose(b / a, 10.0, rel_tol=0.01) for a, b in zip(residuals, residuals[1:])), residuals


def table() -> str:
    lines = ["| fault | delta | documents | fail, closed form | fail, direct sums | alone, closed form "
             "| alone, direct sums | verdicts differ |", "|---|---|---|---|---|---|---|---|"]
    lines += ["| " + " | ".join([fault, f"{delta:g}", *map(str, counts)]) + " |" for fault, delta, *counts in matrix()]
    return "\n".join(lines)


if __name__ == "__main__":
    print("power_sums_M* fault matrix (tests/test_power_sum_faults.py)\n")
    print(table())
    sys.exit(any(row[-1] for row in matrix() if row[1] in ASSERTED))
