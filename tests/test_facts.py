"""The table of facts, ``equigon.checks.FACTS``: every check a report holds
belongs to one of its rows and is built by ``judge``; each row's length degree
is how its residual scales with the document; and README's "Checks" table is
rendered from it."""

import ast
import dataclasses
import math
import random
from functools import cache
from pathlib import Path

import pytest

import equigon.checks
from equigon.checks import FACTS
from equigon.geom import Point, Tolerance
from equigon.runner import run_scenario
from equigon.sampling import random_scenario
from equigon.scenario import ScenarioKind, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
DOCUMENTS = SCENARIOS + sorted((ROOT / "tests" / "data").glob("*.json"))
# The powers of two every length of a document, and tolerance.abs, are scaled by.
EXPONENTS = (-20, -7, 3, 20)


def fact_of(name):
    """The row of a check's name: the name itself, or the name less its suffix (``_M1``, ``_2``)."""
    return name if name in FACTS else name.rpartition("_")[0]


def seeded(per_n):
    """``per_n`` seeded documents of each kind at each n = 3..12, ``bottema`` sweeping 20 apexes."""
    rng = random.Random(46)
    for kind in ScenarioKind:
        for n in range(3, 13):
            for _ in range(per_n):
                scenario = random_scenario(kind, n, rng)
                if kind is ScenarioKind.BOTTEMA:
                    scenario = dataclasses.replace(scenario, config=dataclasses.replace(scenario.config,
                                                                                        sweep_samples=20))
                yield scenario


def test_every_report_entry_has_a_row_and_every_row_an_entry():
    documents = [parse_scenario(path.read_text(encoding="utf-8")) for path in DOCUMENTS]
    names = {check.name for scenario in [*seeded(3), *documents] for check in run_scenario(scenario).checks}
    assert {name for name in names if fact_of(name) not in FACTS} == set()
    assert set(FACTS) == {fact_of(name) for name in names}


@pytest.mark.parametrize("kind", [ScenarioKind.SHARED_VERTEX, ScenarioKind.BOTTEMA], ids=lambda kind: kind.value)
def test_a_report_does_not_grow_with_n(kind):
    # One vertex_angles entry stands for every k: at n = 2048 the report held 2,064 entries.
    report = run_scenario(random_scenario(kind, 2048, random.Random(2048)))
    assert report.overall_ok, report.errors
    assert len(report.checks) <= 30
    assert sum(check.name.startswith("vertex_angle") for check in report.checks) == 1


def test_every_check_comes_from_judge():
    calls = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(function, ast.FunctionDef):
                calls += [(path.name, function.name) for node in ast.walk(function)
                          if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CheckResult"]
    assert calls == [("checks.py", "judge")]
    assert not hasattr(equigon.checks, "residual_check")


def scaled(scenario, k):
    """The scenario with every point, radius and probe, and ``tolerance.abs``, times 2 ** k."""
    def times(value):
        if isinstance(value, Point):
            return Point(math.ldexp(value.x, k), math.ldexp(value.y, k))
        return tuple(map(times, value)) if isinstance(value, tuple) else math.ldexp(value, k)

    config = scenario.config
    changes = {spec.name: times(getattr(config, spec.name)) for spec in dataclasses.fields(config)
               if isinstance(getattr(config, spec.name), Point) or spec.name in ("r", "r1", "r2", "probes")}
    tolerance = Tolerance(scenario.tolerance.rel, math.ldexp(scenario.tolerance.abs, k))
    return dataclasses.replace(scenario, tolerance=tolerance, config=dataclasses.replace(config, **changes))


@cache
def scaled_runs():
    """(name, k, parent check, scaled check) for every check of the seeded documents and
    the files in scenarios/, each run as it is and at 2 ** k times its lengths."""
    documents = [*seeded(8), *(parse_scenario(path.read_text(encoding="utf-8")) for path in SCENARIOS)]
    runs = []
    for scenario in documents:
        parent = run_scenario(scenario)
        for k in EXPONENTS:
            report = run_scenario(scaled(scenario, k))
            assert (report.errors, [c.name for c in report.checks]) == (parent.errors, [c.name for c in parent.checks])
            runs += [(check.name, k, check, got) for check, got in zip(parent.checks, report.checks)]
    return runs


def degree_mismatches(facts):
    """The scaled checks whose residual is not the parent's times 2 ** (k * degree), bit for bit."""
    return [(name, k, parent.residual, got.residual) for name, k, parent, got in scaled_runs()
            if repr(got.residual) != repr(math.ldexp(parent.residual, k * facts[fact_of(name)].degree))]


def test_residuals_scale_with_their_length_degree():
    runs = scaled_runs()
    assert len({id(parent) for _, _, parent, _ in runs}) * len(EXPONENTS) == len(runs) > 10_000
    assert degree_mismatches(FACTS) == []
    assert [(name, k) for name, k, parent, got in runs if (got.ok, got.vacuous) != (parent.ok, parent.vacuous)] == []


@pytest.mark.parametrize("row", FACTS)
def test_a_wrong_degree_fails_the_degree_test(row):
    # Negative control: every row has residuals that are neither 0 nor
    # unchanged by the scaling, so a wrong degree shows.
    wrong = {**FACTS, row: FACTS[row]._replace(degree=(FACTS[row].degree + 1) % 3)}
    assert {fact_of(name) for name, *_ in degree_mismatches(wrong)} == {row}


def checks_table():
    """README's "Checks" table, one line per row of ``FACTS``."""
    def cell(text):
        return text.replace("|", "\\|")

    lines = ["| Check | Compares | Length degree | Bound scale |", "|---|---|---|---|"]
    lines += [f"| `{name}` | {cell(fact.compares)} | {fact.degree} | {cell(fact.scale)} |"
              for name, fact in FACTS.items()]
    return "\n".join(lines)


def test_readme_checks_table_is_the_facts_table():
    # After a change to FACTS, paste checks_table() between the markers.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("<!-- checks table: begin -->\n", 1)[1].split("\n<!-- checks table: end -->", 1)[0]
    assert block == checks_table()
