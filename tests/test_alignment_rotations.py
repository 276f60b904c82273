"""``alignment_multiset_M*`` judges one rotation where two were judged before.

``align_rotation`` turns the second polygon two ways, so that vertex 1 sits
at the angle of M about O2 minus or plus phi1.  The reflection across the
line O2 M fixes M and maps one rotation's vertex set onto the other's, so the
two squared-distance multisets at M are equal at any point M, not only at the
equal-distance points.  ``verify_alignment`` therefore judges the rotation
nearer to the second polygon's own phase, and the other one only where the
nearer one fails.  ``alignment_by_both_rotations`` below is the check as it
was, judging both rotations and keeping the better: it is the oracle here.
Every verdict must be the oracle's, and wherever the oracle fails, the check
must be the oracle's byte for byte.  Where both pass, only the residual and
the tolerance may differ: they are the nearer rotation's.

The inputs: seeded ``pair``, ``shared_vertex`` and ``bottema`` documents at
n = 3..12, 64 and 256, as drawn and moved by T (1, 0.7) for T = 1e5, 1e7 and
1e9; and every fault of ``tests/test_power_sum_faults.py`` at each of its
deltas, on its corpus.

Run as a script, it prints the fault matrix per fault and delta as a Markdown
table: documents, how many fail with each check, and how many differ, then
the same counts on the seeded and moved documents.  It exits 1 on any
difference.

    PYTHONPATH=src python tests/test_alignment_rotations.py
"""

from __future__ import annotations

import dataclasses
import math
import random
import sys
from functools import cache
from operator import sub

import pytest
from hypothesis import given, strategies as st

from equigon.checks import CheckResult
from equigon.equalizer import align_rotation, verify_alignment
from equigon.geom import GeometryError, Point, Tolerance
from equigon.polygon import RegularPolygon
from equigon.power_sums import distances_squared, multisets_equal
from equigon.runner import Report, solve_scenario
from equigon.sampling import random_scenario
from test_power_sum_faults import DELTAS, FAULTS, KINDS, corpus, faulted, polygons

SIZES = (*range(3, 13), 64, 256)
SHIFTS = (0.0, 1e5, 1e7, 1e9)
# Pure relative: at every scale 2**k the bound is the same share of the largest squared distance.
RELATIVE = Tolerance(rel=1e-9, abs=1e-300)


def alignment_by_both_rotations(first: RegularPolygon, second: RegularPolygon, point: Point,
                                near: tuple[float, ...], tol: Tolerance, name: str) -> CheckResult:
    """The alignment check judging both of ``align_rotation``'s rotations: a
    passing one, else the one with the smaller residual, the first on a tie."""
    candidates = align_rotation(first, second, point)
    step = math.tau / first.n
    offset = min(min(turn, step - turn) for turn in ((second.phase - c.phase) % step for c in candidates))
    detail = f"phase offset {offset:.3e} rad"
    ordered = sorted(near)
    return min((multisets_equal(ordered, distances_squared(candidate, point), tol, name, detail)
                for candidate in candidates), key=lambda match: (not match.ok, match.residual))


def exact(check: CheckResult) -> tuple:
    """Every field of the check, its floats as hex: equal iff the reports print the same bytes."""
    return (check.name, check.ok, check.residual.hex(), check.tolerance.hex(), check.vacuous, check.detail)


def both(first: RegularPolygon, second: RegularPolygon, points, tol: Tolerance):
    """The check and the oracle's at each point, named as the report names them."""
    for label, point in zip(("M1", "M2"), points):
        near = distances_squared(first, point)
        name = f"alignment_multiset_{label}"
        yield (verify_alignment(first, second, point, near, tol, name),
               alignment_by_both_rotations(first, second, point, near, tol, name))


def differ(check: CheckResult, oracle: CheckResult) -> bool:
    """Whether the check is not the oracle's: another verdict, detail or name anywhere,
    and any other byte where the oracle fails."""
    if not oracle.ok:
        return exact(check) != exact(oracle)
    return (check.name, check.ok, check.vacuous, check.detail) != (oracle.name, oracle.ok, oracle.vacuous,
                                                                   oracle.detail)


def moved(scenario, shift: float):
    """The scenario with every point of its document moved by shift (1, 0.7)."""
    config, by = scenario.config, Point(shift, 0.7 * shift)
    changes = {f.name: getattr(config, f.name) + by for f in dataclasses.fields(config)
               if isinstance(getattr(config, f.name), Point)}
    return dataclasses.replace(scenario, config=dataclasses.replace(config, **changes))


def solved(scenario) -> Report | None:
    """The scenario solved, when it builds and has labelled points."""
    try:
        report = solve_scenario(scenario)
    except (GeometryError, ArithmeticError):
        return None
    return report if report.points else None


@cache
def documents() -> tuple[tuple[float, Report], ...]:
    """Seeded documents with labelled points, three at each n = 3..12 and two at 64
    and 256 per kind, each solved as drawn and moved by every shift (where it
    still has points)."""
    rng, found = random.Random(54), []
    for kind in KINDS:
        for n in SIZES:
            wanted = 3 if n <= 12 else 2
            while wanted:
                scenario = random_scenario(kind, n, rng)
                if solved(scenario) is None:
                    continue
                wanted -= 1
                found += [(shift, report) for shift in SHIFTS
                          if (report := solved(moved(scenario, shift))) is not None]
    return tuple(found)


def tally(cases) -> tuple[int, int, int, int]:
    """Documents, failing with the check, failing with the oracle, and differing,
    from each document's list of (check, oracle) pairs."""
    counts = [(any(not c.ok for c, _ in pairs), any(not o.ok for _, o in pairs), any(differ(*p) for p in pairs))
              for pairs in cases]
    return (len(counts), *map(sum, zip(*counts)))


@cache
def fault_matrix() -> tuple[tuple[str, float, int, int, int, int], ...]:
    """Per fault and delta of the power-sum fault corpus: documents, failing with the
    check, failing with the oracle, and differing."""
    rows = []
    for fault in FAULTS:
        for delta in DELTAS:
            cases = []
            for report in corpus():
                first, second, points = faulted(report, fault, delta)
                cases.append(list(both(first, second, points, report.scenario.tolerance)))
            rows.append((fault, delta, *tally(cases)))
    return tuple(rows)


@cache
def shift_matrix() -> tuple[tuple[float, int, int, int, int], ...]:
    """Per shift of the seeded documents: documents, failing with the check, failing
    with the oracle, and differing."""
    rows = []
    for shift in SHIFTS:
        cases = [list(both(*polygons(report), [p for _, p in report.points], report.scenario.tolerance))
                 for at, report in documents() if at == shift]
        rows.append((shift, *tally(cases)))
    return tuple(rows)


def test_the_documents_cover_every_kind_size_and_shift():
    seen = {(report.scenario.kind, report.scenario.n, shift) for shift, report in documents()}
    assert {(kind, n) for kind, n, _ in seen} == {(kind, n) for kind in KINDS for n in SIZES}
    assert {shift for _, _, shift in seen} == set(SHIFTS)


@pytest.mark.parametrize("shift", SHIFTS)
def test_seeded_and_moved_documents_get_the_oracles_checks(shift):
    (row,) = [row for row in shift_matrix() if row[0] == shift]
    assert row[-1] == 0, row


def nearer_rotation_alone(first: RegularPolygon, second: RegularPolygon, point: Point,
                          near: tuple[float, ...], tol: Tolerance) -> CheckResult:
    """The comparison with the rotation nearer to ``second``'s phase, and no fallback."""
    candidates = align_rotation(first, second, point)
    step = math.tau / first.n
    offsets = [min(turn, step - turn) for turn in ((second.phase - c.phase) % step for c in candidates)]
    return multisets_equal(near, distances_squared(candidates[offsets[1] < offsets[0]], point), tol)


def test_moved_documents_fail_where_the_fallback_decides():
    # At 1e9 the oracle fails documents, so its failing checks are compared byte
    # for byte.  At 1e7 some points pass on the farther rotation alone, which a
    # check without the fallback would fail (ROADMAP item 22's row).
    assert any(row[3] > 0 for row in shift_matrix()), shift_matrix()
    rescued = 0
    for _, report in documents():
        first, second = polygons(report)
        tol = report.scenario.tolerance
        for _, point in report.points:
            near = distances_squared(first, point)
            check = verify_alignment(first, second, point, near, tol, "alignment_multiset")
            rescued += check.ok and not nearer_rotation_alone(first, second, point, near, tol).ok
    assert rescued > 0


@pytest.mark.parametrize("fault", FAULTS)
def test_faulted_documents_get_the_oracles_checks(fault):
    rows = [row for row in fault_matrix() if row[0] == fault]
    assert len(rows) == len(DELTAS)
    assert all(row[-1] == 0 for row in rows), rows


def test_the_faults_are_seen():
    # The point, radius and centroid faults take M off the swapped circles at
    # the larger deltas; a phase fault is invisible to alignment, which turns
    # the second polygon whatever its phase.
    failing = {fault for fault, delta, _, fails, _, _ in fault_matrix() if fails}
    assert failing == {"point", "radius", "centroid"}, fault_matrix()


lengths = st.floats(min_value=0.25, max_value=4.0)
coordinates = st.floats(min_value=-4.0, max_value=4.0)
angles = st.floats(min_value=-math.pi, max_value=math.pi)
orientations = st.sampled_from((1, -1))


@st.composite
def pairs_and_points(draw, reach):
    """Two polygons with n = 3..64 and a point at ``reach`` times the second
    circumradius from its centroid, every length scaled by 2**k."""
    n, scale = draw(st.integers(3, 64)), 2.0 ** draw(st.integers(-60, 60))
    first = RegularPolygon(n, Point(draw(coordinates) * scale, draw(coordinates) * scale), draw(lengths) * scale,
                           draw(angles), draw(orientations))
    radius = draw(lengths) * scale
    second = RegularPolygon(n, Point(draw(coordinates) * scale, draw(coordinates) * scale), radius,
                            draw(angles), draw(orientations))
    away, toward = draw(reach) * radius, draw(angles)
    return first, second, second.centroid + Point(math.cos(toward), math.sin(toward)) * away


@given(pairs_and_points(st.floats(min_value=0.0, max_value=4.0)))
def test_the_two_rotations_share_their_multiset_at_any_point(case):
    # The reflection across O2 M fixes M and swaps the two rotations' vertex
    # sets, wherever M is: at an equal-distance point or not.
    first, second, point = case
    one, other = align_rotation(first, second, point)
    check = multisets_equal(distances_squared(one, point), distances_squared(other, point), RELATIVE)
    assert check.ok, (case, check)


@given(pairs_and_points(st.floats(min_value=0.25, max_value=4.0)))
def test_a_third_of_a_step_off_fails_by_the_cosine_law(case):
    # Negative control: the first rotation turned by a third of 2 pi / n about
    # O2.  The law of cosines, |M V|^2 = R^2 + L^2 - 2 R L cos(angle at O2),
    # predicts both sorted lists from the vertices' angles alone, and the check's
    # residual is their largest gap, far above the bound.
    first, second, point = case
    one, _ = align_rotation(first, second, point)
    step = math.tau / one.n
    third = RegularPolygon(one.n, one.centroid, one.circumradius, one.phase + step / 3, one.orientation)
    check = multisets_equal(distances_squared(one, point), distances_squared(third, point), RELATIVE)
    radius, away = one.circumradius, point.distance(one.centroid)
    toward = math.atan2(point.y - one.centroid.y, point.x - one.centroid.x)

    def law(poly: RegularPolygon) -> list[float]:
        return sorted(radius * radius + away * away
                      - 2.0 * radius * away * math.cos(poly.phase + poly.orientation * k * step - toward)
                      for k in range(poly.n))

    predicted = max(map(abs, map(sub, law(one), law(third))))
    assert not check.ok, (case, check)
    assert math.isclose(check.residual, predicted, rel_tol=1e-6), (case, check, predicted)


def table() -> str:
    lines = ["| fault | delta | documents | fail, nearer rotation first | fail, both rotations | checks differ |",
             "|---|---|---|---|---|---|"]
    lines += ["| " + " | ".join([fault, f"{delta:g}", *map(str, counts)]) + " |"
              for fault, delta, *counts in fault_matrix()]
    lines += ["", "| shift T·(1, 0.7) | documents | fail, nearer rotation first | fail, both rotations "
              "| checks differ |", "|---|---|---|---|---|"]
    lines += ["| " + " | ".join([f"{shift:g}", *map(str, counts)]) + " |" for shift, *counts in shift_matrix()]
    return "\n".join(lines)


if __name__ == "__main__":
    print("alignment_multiset_M* fault matrix (tests/test_alignment_rotations.py)\n")
    print(table())
    sys.exit(any(row[-1] for row in fault_matrix() + shift_matrix()))
