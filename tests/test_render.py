"""`render` draws from the solve alone: same figure as the full report, no checks."""

import dataclasses
import json
import random
from pathlib import Path

import pytest

import equigon.runner
from equigon.cli import main
from equigon.geom import GeometryError, Point
from equigon.runner import run_scenario, scenario_geometry, solve_scenario
from equigon.sampling import random_scenario
from equigon.scenario import ScenarioKind, parse_scenario, serialize_scenario
from equigon.svgfig import render_svg

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = sorted((ROOT / "scenarios").glob("*.json"))
GOLDEN = ROOT / "tests" / "golden"


def scaled(scenario, factor):
    """The scenario with every coordinate and radius multiplied by ``factor``."""
    changes = {}
    for spec in dataclasses.fields(scenario.config):
        value = getattr(scenario.config, spec.name)
        if isinstance(value, Point):
            changes[spec.name] = value * factor
        elif spec.name in ("r", "r1", "r2"):
            changes[spec.name] = value * factor
        elif spec.name == "probes":
            changes[spec.name] = tuple(probe * factor for probe in value)
    return dataclasses.replace(scenario, config=dataclasses.replace(scenario.config, **changes))


def render_file(path, target, capsys):
    code = main(["render", str(path), "-o", str(target)])
    return code, capsys.readouterr().err


def test_render_equals_the_full_report_figure(tmp_path, capsys):
    rng = random.Random(10)
    doc, svg = tmp_path / "doc.json", tmp_path / "out.svg"
    drawn = 0
    for scale in (1e-8, 1.0, 1e8):
        for kind in ScenarioKind:
            for n in range(3, 13):
                scenario = scaled(random_scenario(kind, n, rng), scale)
                doc.write_text(serialize_scenario(scenario), encoding="utf-8")
                svg.unlink(missing_ok=True)
                code, err = render_file(doc, svg, capsys)
                try:
                    expected = render_svg(scenario, run_scenario(scenario))
                except GeometryError as exc:
                    assert (code, err) == (2, f"error: cannot render {doc}: {exc}\n")
                    assert not svg.exists()
                    continue
                assert (code, err) == (0, ""), (scale, kind, n)
                assert svg.read_text(encoding="utf-8") == expected, (scale, kind, n)
                drawn += 1
    assert drawn >= 110


def test_render_runs_no_check(monkeypatch, tmp_path, capsys):
    def forbidden(*args, **kwargs):
        raise AssertionError("render ran a check")

    for name in (
        "compare_power_sums",
        "multisets_equal",
        "align_rotation",
        "verify_point_properties",
        "vertex_angles",
        "verify_independence",
        "verify_power_sum_identity",
    ):
        monkeypatch.setattr(equigon.runner, name, forbidden)
    for path in SCENARIOS:
        target = tmp_path / f"{path.stem}.svg"
        assert render_file(path, target, capsys) == (0, "")
        assert target.read_bytes() == (GOLDEN / f"render_{path.stem}.svg").read_bytes()


def test_solve_records_what_the_figure_reads():
    for path in SCENARIOS:
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        full, solved = run_scenario(scenario), solve_scenario(scenario)
        assert solved.checks == []
        # A checked report drops the geometry: sweeps hold many reports.
        assert solved.geometry is not None and full.geometry is None
        assert (solved.classification, solved.points, solved.locus, solved.coincident) == (
            full.classification, full.points, full.locus, full.coincident
        )
        # Only a pair's figure reads a matching: M1's, for the distance fan.
        pair = scenario.kind in (ScenarioKind.PAIR, ScenarioKind.SHARED_VERTEX)
        assert solved.matchings == [m for m in full.matchings if pair and m[0] == "M1"]


def test_figure_overflow_is_input_error(tmp_path, capsys):
    doc = tmp_path / "far.json"
    doc.write_text(
        '{"kind":"identity_check","n":5,"identity_check":'
        '{"centroid":[-1e308,0],"r":1.0,"probes":[[1e308,0]]}}',
        encoding="utf-8",
    )
    target = tmp_path / "far.svg"
    code, err = render_file(doc, target, capsys)
    assert code == 2
    assert err.startswith(f"error: cannot render {doc}: figure extent overflows: viewBox ")
    assert not target.exists()


def test_geometry_failure_keeps_its_message(tmp_path, capsys):
    doc = tmp_path / "degenerate.json"
    doc.write_text(
        json.dumps({
            "kind": "shared_vertex",
            "n": 4,
            "shared_vertex": {
                "vertex": [1.0, 1.0],
                "centroid1": [1.0, 1.0],
                "centroid2": [3.0, 0.0],
                "orient1": 1,
                "orient2": -1,
            },
        }),
        encoding="utf-8",
    )
    with pytest.raises(GeometryError) as caught:
        scenario_geometry(parse_scenario(doc.read_text(encoding="utf-8")))
    target = tmp_path / "degenerate.svg"
    assert render_file(doc, target, capsys) == (2, f"error: cannot render {doc}: {caught.value}\n")
    assert not target.exists()


def test_solve_failure_still_draws_the_polygons(tmp_path, capsys):
    # Squared radii overflow in the circle intersection; the polygons are fine.
    doc = tmp_path / "huge.json"
    doc.write_text(
        json.dumps({
            "kind": "pair",
            "n": 4,
            "pair": {
                "centroid1": [0.0, 0.0], "r1": 2e155, "phase1": 0.0, "orient1": 1,
                "centroid2": [3e155, 0.0], "r2": 1e155, "phase2": 0.0, "orient2": 1,
            },
        }),
        encoding="utf-8",
    )
    assert run_scenario(parse_scenario(doc.read_text(encoding="utf-8"))).errors
    target = tmp_path / "huge.svg"
    assert render_file(doc, target, capsys) == (0, "")
    document = target.read_text(encoding="utf-8")
    assert document.count("<polygon") == 2
    assert "point-label" not in document
