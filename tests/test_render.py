"""`render` draws from the solve alone: the solve records what the full report does
before its checks, and the figure runs no check."""

import dataclasses
import json
import random
import re
from pathlib import Path

import pytest

import equigon.runner
from equigon.cli import main
from equigon.geom import GeometryError, Point
from equigon.polygon import RegularPolygon
from equigon.runner import run_scenario, solve_scenario
from equigon.sampling import random_scenario
from equigon.scenario import ScenarioKind, parse_scenario, serialize_scenario
from equigon.svgfig import _PAIR_PALETTE, _Scene, _distance_segments, _fmt, render_svg

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


def random_scenarios():
    """120 seeded scenarios: 4 kinds, n 3..12, at scales 1e-8, 1 and 1e8."""
    rng = random.Random(10)
    for scale in (1e-8, 1.0, 1e8):
        for kind in ScenarioKind:
            for n in range(3, 13):
                yield scale, kind, n, scaled(random_scenario(kind, n, rng), scale)


def render_file(path, target, capsys):
    code = main(["render", str(path), "-o", str(target)])
    return code, capsys.readouterr().err


def test_render_equals_the_full_report_figure(tmp_path, capsys):
    doc, svg = tmp_path / "doc.json", tmp_path / "out.svg"
    drawn = 0
    for scale, kind, n, scenario in random_scenarios():
        doc.write_text(serialize_scenario(scenario), encoding="utf-8")
        svg.unlink(missing_ok=True)
        code, err = render_file(doc, svg, capsys)
        try:
            expected = render_svg(scenario, solve_scenario(scenario))
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
        "verify_alignment",
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


def placed(scenario, side1, side2):
    """The Bottema scenario with its polygons on the given sides."""
    config = dataclasses.replace(scenario.config, side1=side1, side2=side2)
    return dataclasses.replace(scenario, config=config)


def test_solve_records_what_the_figure_reads():
    files = [parse_scenario(path.read_text(encoding="utf-8")) for path in SCENARIOS]
    sided = [placed(files[0], side1, side2) for side1 in (1, -1) for side2 in (1, -1)]
    for scenario in files + sided + [scenario for *_, scenario in random_scenarios()]:
        full, solved = run_scenario(scenario), solve_scenario(scenario)
        assert solved.checks == [] and solved.errors == full.errors == []
        # A checked report drops the geometry: sweeps hold many reports.
        assert solved.geometry is not None and full.geometry is None
        assert (solved.classification, solved.points, solved.locus, solved.coincident) == (
            full.classification, full.points, full.locus, full.coincident
        )
        # The checks add only what they find: M2's correspondence and the apex sweep.
        assert solved.findings == [
            f for f in full.findings
            if not f.startswith(("no vertexwise correspondence at M2", "apex sweep:"))
        ]
        # Only a pair's figure reads a matching: M1's, for the distance fan.
        pair = scenario.kind in (ScenarioKind.PAIR, ScenarioKind.SHARED_VERTEX)
        assert solved.matchings == [m for m in full.matchings if pair and m[0] == "M1"]
    for scenario in sided:
        # Polygons on the same side of their apex edges walk the same way round.
        same = scenario.config.side1 == scenario.config.side2
        found = solve_scenario(scenario).findings
        assert any(f.startswith("same-orientation placement: ") for f in found) is same


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
        solve_scenario(parse_scenario(doc.read_text(encoding="utf-8")))
    target = tmp_path / "degenerate.svg"
    assert render_file(doc, target, capsys) == (2, f"error: cannot render {doc}: {caught.value}\n")
    assert not target.exists()


def test_circle_past_the_float_range_keeps_the_point_error(tmp_path, capsys):
    # Both polygons fit in the float range, but the swapped circle of radius
    # r1 around the second centroid does not.  Its upper corner is past the
    # range in x and its lower corner in y; the upper one's error is shown.
    doc = tmp_path / "far_pair.json"
    doc.write_text(
        json.dumps({
            "kind": "pair",
            "n": 4,
            "pair": {
                "centroid1": [0.0, 0.0], "r1": 1e307, "phase1": 0.0, "orient1": 1,
                "centroid2": [1.75e308, -1.75e308], "r2": 1e306, "phase2": 0.0, "orient2": 1,
            },
        }),
        encoding="utf-8",
    )
    message = "coordinates must be finite, got (inf, -1.65e+308)"
    assert render_file(doc, tmp_path / "far.svg", capsys) == (2, f"error: cannot render {doc}: {message}\n")


@pytest.mark.parametrize("kind", ["identity", "reversal"])
def test_distance_fan_pairs_vertices_as_the_matching_does(kind):
    # Oracle: vertex k of the first polygon and vertex j of the second from
    # vertex(), j = k for the identity and n + 2 - k (1 for k = 1) for the
    # reversal, each pair in palette colour k.
    rng = random.Random(27)
    for n in (3, 4, 13, 64):
        first = RegularPolygon(n, Point(rng.uniform(-3, 3), rng.uniform(-3, 3)), 1.5, rng.uniform(-3, 3), 1)
        second = RegularPolygon(n, Point(rng.uniform(-3, 3), rng.uniform(-3, 3)), 2.5, rng.uniform(-3, 3), -1)
        point = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        scene = _Scene()
        _distance_segments(scene, first, second, point, kind)
        lines = [line for line in scene.emit().splitlines() if 'class="dist-pair"' in line]
        expected = []
        for k in range(1, n + 1):
            j = k if kind == "identity" or k == 1 else n + 2 - k
            color = _PAIR_PALETTE[(k - 1) % len(_PAIR_PALETTE)]
            for vertex in (first.vertex(k), second.vertex(j)):
                expected.append(f'x2="{_fmt(vertex.x)}" y2="{_fmt(-vertex.y)}" stroke="{color}"')
        assert [re.search(r'x2="[^"]*" y2="[^"]*" stroke="[^"]*"', line).group(0) for line in lines] == expected


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


def test_render_needs_the_solve_report():
    scenario = parse_scenario(SCENARIOS[0].read_text(encoding="utf-8"))
    with pytest.raises(ValueError, match="^render_svg draws a solve_scenario report"):
        render_svg(scenario, run_scenario(scenario))
