"""Recorded defects, one strict xfail per row, each named by its ROADMAP item.

A row holds the documents that show the defect, the outcome they give today
and what they give once it is mended.  A row whose outcome moves away from
its record without being mended fails outright; a mended row passes, which
its strict xfail reports as a failure, so the change that mends a defect
turns its row into a plain test.

The rows print themselves as a Markdown table, ROADMAP's "Recorded
defects": one line per row with its pytest id, ROADMAP item, what it shows,
its recorded outcome and the outcome measured now (``as recorded`` when the
two agree).  The command exits 1 when a row moved from its record without
being mended:

    PYTHONPATH=src python tests/test_recorded_defects.py

A mended row leaves the table for a plain test: on the same 3e307 document
four checks once passed with residual 0 against a bound that overflowed to
infinity (``test_no_check_passes_against_an_infinite_bound``), and at 1e-300
the power sums once passed at residual 0 on sums that underflowed
(``test_cyclic_averages_at_1e_300_measure_a_residual``).

One more recorded defect is a strict xfail beside the code it tests:
``tests/test_scale.py::test_shared_vertex_at_1e154_solves_or_names_a_field``
(items 8 and 10).  The ``pair`` document at 1e-170, whose M1 = M2 sit on O2,
no longer passes: ``tests/test_scale.py::test_pair_at_1e_170_fails_its_cyclic_averages``
is a plain test, and so is the apex sweep far from the origin (item 22),
mended: ``tests/test_bottema.py::test_sweep_far_from_the_origin_passes``.
"""

import contextlib
import io
import json
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import pytest

from equigon.cli import main
from equigon.geom import Point
from equigon.runner import Report, run_scenario
from equigon.sampling import random_scenario
from equigon.scenario import ScenarioKind, parse_scenario

DATA = Path(__file__).resolve().parent / "data"


def exit_code(report: Report) -> int:
    """The exit code ``verify`` gives for the report."""
    return 2 if report.errors else 0 if report.overall_ok else 1


def verdict(report: Report) -> tuple[int, str | None, tuple[str, ...]]:
    """The exit code ``verify`` gives, the classification and the failing checks, by name less their index."""
    failing = sorted({check.name.rstrip("0123456789").rstrip("_") for check in report.checks if not check.ok})
    return exit_code(report), report.classification, tuple(failing)


def near_congruent_pairs() -> Counter:
    """50 ``pair`` documents whose radii are a relative 1e-9 apart, at the default tolerance."""
    rng, outcomes = random.Random(11), Counter()
    for i in range(50):
        scenario = random_scenario(ScenarioKind.PAIR, 3 + i % 10, rng)
        config = replace(scenario.config, r2=scenario.config.r1 * (1 + 1e-9))
        outcomes[verdict(run_scenario(replace(scenario, config=config)))] += 1
    return outcomes


def translated_shared_vertex() -> Counter:
    """The exit codes of 30 ``shared_vertex`` documents moved by 1e7 (1, 0.7)."""
    rng, shift, codes = random.Random(17), Point(1e7, 0.7e7), Counter()
    for i in range(30):
        scenario = random_scenario(ScenarioKind.SHARED_VERTEX, 3 + i % 10, rng)
        config = scenario.config
        config = replace(config, vertex=config.vertex + shift, centroid1=config.centroid1 + shift,
                         centroid2=config.centroid2 + shift)
        codes[verdict(run_scenario(replace(scenario, config=config)))[0]] += 1
    return codes


def same_side_sweep() -> tuple[tuple[str, str], ...]:
    """The apex sweep's checks, by name and detail, on a Bottema document with sides (+1, +1)."""
    document = json.loads((DATA / "bottema_same_side_n5.json").read_text())
    document["bottema"]["sweep_samples"] = 50
    report = run_scenario(parse_scenario(json.dumps(document)))
    return tuple((check.name, check.detail) for check in report.checks if check.name.startswith("apex_"))


def near_tangent_scan() -> Counter:
    """Item 2's δ scan at n = 7: ``pair`` documents with circles of radius 1 about
    (0, 0) and 2 about (3 - δ, 0), δ = k·1e-10 for k = 1..40, by exit code and
    failing checks."""
    outcomes = Counter()
    for k in range(1, 41):
        block = {"centroid1": [0.0, 0.0], "r1": 1.0, "phase1": 0.3, "orient1": 1,
                 "centroid2": [3.0 - k * 1e-10, 0.0], "r2": 2.0, "phase2": 1.1, "orient2": -1}
        report = run_scenario(parse_scenario(json.dumps({"kind": "pair", "n": 7, "seed": 0, "pair": block})))
        outcomes[exit_code(report), tuple(check.name for check in report.checks if not check.ok)] += 1
    return outcomes


def loose_sweep(kind: str, rel: str) -> Callable[[], str]:
    """The last line of ``sweep --kind KIND --n 3-12 --count 20 --seed 2 --tolerance-rel REL``."""
    def outcome() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main(["sweep", "--kind", kind, "--n", "3-12", "--count", "20", "--seed", "2", "--tolerance-rel", rel])
        return out.getvalue().splitlines()[-1]
    return outcome


def underflowed_shared_vertex() -> tuple[int, tuple[str, ...]]:
    """``shared_vertex_scaled_1e-300``'s exit code and the checks that pass at
    residual 0 against a subnormal bound: squared lengths near 1e-600 underflow to 0."""
    report = run_scenario(parse_scenario((DATA / "shared_vertex_scaled_1e-300.json").read_text()))
    return exit_code(report), tuple(check.name for check in report.checks
                                    if check.ok and check.residual == 0.0 and check.tolerance < sys.float_info.min)


# A shared_vertex document at about 3e307, whose solve reaches -inf.
HUGE_SHARED_VERTEX = {"kind": "shared_vertex", "n": 8, "seed": 0, "shared_vertex": {
    "vertex": [-7.683411484680132e307, -1.4642514669364687e308],
    "centroid1": [-4.703061680542385e307, -6.994731046187824e307],
    "centroid2": [-2.2979442950845886e307, -3.6922184456095567e307], "orient1": 1, "orient2": -1}}


def huge_shared_vertex() -> tuple[int, tuple[str, ...], tuple[str, ...]]:
    """The 3e307 document's exit code, its errors and its checks with NaN residuals."""
    report = run_scenario(parse_scenario(json.dumps(HUGE_SHARED_VERTEX)))
    return exit_code(report), tuple(report.errors), tuple(check.name for check in report.checks if math.isnan(check.residual))


@dataclass(frozen=True)
class Defect:
    item: int
    what: str
    outcome: Callable[[], Any]
    recorded: Any
    mended: Callable[[Any], bool]
    label: str = ""  # tells apart the rows of one item


DEFECTS = [
    Defect(14, "the tolerance decides structure: radii a relative 1e-9 apart are called congruent",
           near_congruent_pairs,
           Counter({(1, "congruent_distinct_centroids", ("locus_probe",)): 49,
                    (0, "congruent_distinct_centroids", ()): 1}),
           lambda got: all(code == 0 for code, _, _ in got)),
    Defect(22, "verdicts depend on where the figure sits: moved by 1e7, most documents fail",
           translated_shared_vertex,
           Counter({1: 21, 0: 9}),
           lambda got: set(got) == {0}),
    Defect(23, "the apex sweep ignores the document's sides and sweeps the exterior placement",
           same_side_sweep,
           (("apex_independence_spread", "50 apexes, exterior placement"), ("apex_independence_closed_form", "")),
           lambda got: not any("exterior placement" in detail for _, detail in got)),
    Defect(2, "near tangency: circles within the tolerance of touching are snapped to one point on the centre line",
           near_tangent_scan,
           Counter({(1, ("power_sums_M1",)): 22, (0, ()): 18}),
           lambda got: set(got) == {(0, ())}),
    Defect(14, "the tolerance decides structure: pair documents fail a sweep at rel 0.1",
           loose_sweep("pair", "0.1"),
           "sweep pair: FAIL (143/200 configurations)",
           lambda got: "PASS" in got, "pair-rel0.1"),
    Defect(14, "the tolerance decides structure: shared_vertex documents fail a sweep at rel 0.3",
           loose_sweep("shared_vertex", "0.3"),
           "sweep shared_vertex: FAIL (192/200 configurations)",
           lambda got: "PASS" in got, "shared_vertex-rel0.3"),
    Defect(10, "scale: at 1e-300 the squared lengths underflow to 0 and pass on nothing",
           underflowed_shared_vertex,
           (0, ("alignment_multiset_M1", "cosine_model_M1", "alignment_multiset_M2", "cosine_model_M2",
                "separation_perpendicular")),
           lambda got: got[0] != 0 or not got[1], "vacuous-1e-300"),
    Defect(10, "scale: at 3e307 four checks read NaN, then a Point error names no field",
           huge_shared_vertex,
           (2, ("GeometryError: coordinates must be finite, got (-5.290651423619267e+307, -inf)",),
            ("power_sums_M1", "matching_M1", "power_sums_M2", "separation_perpendicular")),
           lambda got: got[0] == 0 or (not got[2] and all("shared_vertex." in error for error in got[1])),
           "unnamed-error-3e307"),
]


def row_id(defect: Defect) -> str:
    """The row's pytest id: its item, then its label."""
    return f"item{defect.item}" + (defect.label and f"-{defect.label}")


def moved(defect: Defect, got: Any) -> bool:
    """Whether the outcome left the record without mending the defect."""
    return got != defect.recorded and not defect.mended(got)


@pytest.mark.parametrize("defect", [
    pytest.param(defect, id=row_id(defect), marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"ROADMAP item {defect.item}: {defect.what}"))
    for defect in DEFECTS
])
def test_recorded_defect(defect):
    got = defect.outcome()
    if moved(defect, got):
        pytest.fail(f"item {defect.item} moved from its record without being mended: {got!r}")
    assert defect.mended(got), f"item {defect.item} still shows: {got!r}"


def test_no_check_passes_against_an_infinite_bound():
    # Item 10, mended: the 3e307 document's alignment and cosine-model checks
    # measure residual 0 against bounds that overflowed to infinity, and fail.
    report = run_scenario(parse_scenario(json.dumps(HUGE_SHARED_VERTEX)))
    infinite = {check.name: check.ok for check in report.checks if math.isinf(check.tolerance)}
    assert {"alignment_multiset_M1", "cosine_model_M1", "alignment_multiset_M2", "cosine_model_M2"} <= set(infinite)
    assert not any(infinite.values()), infinite


def test_cyclic_averages_at_1e_300_measure_a_residual():
    # Item 10, mended for the power sums: at 1e-300 they once passed at residual 0
    # on sums that underflowed.  The closed form reads only the ratios R / (R + L)
    # and L / (R + L), so its residual is the one it has at scale 1.
    report = run_scenario(parse_scenario((DATA / "shared_vertex_scaled_1e-300.json").read_text()))
    sums = [check for check in report.checks if check.name.startswith("power_sums")]
    assert [check.name for check in sums] == ["power_sums_M1", "power_sums_M2"]
    assert all(check.ok and 0.0 < check.residual <= 1e-15 for check in sums), sums


def printout() -> tuple[str, bool]:
    """ROADMAP's "Recorded defects" table, each row measured now, and whether any row moved."""
    def cell(value: Any) -> str:
        return f"`{value!r}`".replace("|", "\\|")

    lines, any_moved = ["| Row | Item | What | Recorded | Now |", "|---|---|---|---|---|"], False
    for defect in DEFECTS:
        got = defect.outcome()
        any_moved |= moved(defect, got)
        now = "as recorded" if got == defect.recorded else ("mended: " if defect.mended(got) else "moved: ") + cell(got)
        lines.append(f"| `{row_id(defect)}` | {defect.item} | {defect.what} | {cell(defect.recorded)} | {now} |")
    return "\n".join(lines), any_moved


def test_roadmap_lists_the_recorded_defects():
    # After a row changes, paste this file's printout between ROADMAP's markers.
    roadmap = (Path(__file__).resolve().parent.parent / "ROADMAP.md").read_text(encoding="utf-8")
    block = roadmap.split("<!-- recorded defects: begin -->\n", 1)[1].split("\n<!-- recorded defects: end -->", 1)[0]
    assert block == printout()[0]


if __name__ == "__main__":
    text, any_moved = printout()
    print(text)
    sys.exit(int(any_moved))
