"""Recorded defects, one strict xfail per row, each named by its ROADMAP item.

A row holds the documents that show the defect, the outcome they give today
and what they give once it is mended.  A row whose outcome moves away from
its record without being mended fails outright; a mended row passes, which
its strict xfail reports as a failure, so the change that mends a defect
turns its row into a plain test.

Three more recorded defects are strict xfails beside the code they test:
``tests/test_scale.py::test_shared_vertex_at_1e154_solves_or_names_a_field``
and ``tests/test_scale.py::test_pair_at_1e_170_passes_only_on_its_swapped_circles``
(items 8 and 10), and
``tests/test_bottema.py::test_sweep_far_from_the_origin_passes`` (item 22).
"""

import json
import random
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable

import pytest

from equigon.geom import Point
from equigon.runner import Report, run_scenario
from equigon.sampling import random_scenario
from equigon.scenario import ScenarioKind, parse_scenario

DATA = Path(__file__).resolve().parent / "data"


def verdict(report: Report) -> tuple[int, str | None, tuple[str, ...]]:
    """The exit code ``verify`` gives, the classification and the failing checks, by name less their index."""
    code = 2 if report.errors else 0 if report.overall_ok else 1
    failing = sorted({check.name.rstrip("0123456789").rstrip("_") for check in report.checks if not check.ok})
    return code, report.classification, tuple(failing)


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


@dataclass(frozen=True)
class Defect:
    item: int
    what: str
    outcome: Callable[[], Any]
    recorded: Any
    mended: Callable[[Any], bool]


DEFECTS = [
    Defect(14, "the tolerance decides structure: radii a relative 1e-9 apart are called congruent",
           near_congruent_pairs,
           Counter({(1, "congruent_distinct_centroids", ("locus_probe",)): 49,
                    (0, "congruent_distinct_centroids", ()): 1}),
           lambda got: all(code == 0 for code, _, _ in got)),
    Defect(22, "verdicts depend on where the figure sits: moved by 1e7, most documents fail",
           translated_shared_vertex,
           Counter({1: 24, 0: 6}),
           lambda got: set(got) == {0}),
    Defect(23, "the apex sweep ignores the document's sides and sweeps the exterior placement",
           same_side_sweep,
           (("apex_independence_spread", "50 apexes, exterior placement"), ("apex_independence_closed_form", "")),
           lambda got: not any("exterior placement" in detail for _, detail in got)),
]


@pytest.mark.parametrize("defect", [
    pytest.param(defect, id=f"item{defect.item}", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=f"ROADMAP item {defect.item}: {defect.what}"))
    for defect in DEFECTS
])
def test_recorded_defect(defect):
    got = defect.outcome()
    if got != defect.recorded and not defect.mended(got):
        pytest.fail(f"item {defect.item} moved from its record without being mended: {got!r}")
    assert defect.mended(got), f"item {defect.item} still shows: {got!r}"
