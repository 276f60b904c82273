"""Each geometric quantity is computed once: call counts per sample scenario.

``run_scenario`` and ``solve_scenario`` share one solve per scenario kind, so
the solve's correspondence, equal-distance points, pair classification and
Bottema construction are not computed twice.  The counts are pinned per file
in ``scenarios/``; a change may lower them, never raise them.
"""

import sys
from pathlib import Path

import pytest

import equigon.bottema
import equigon.equalizer
import equigon.power_sums
from equigon.polygon import RegularPolygon
from equigon.runner import run_scenario, solve_scenario
from equigon.scenario import ScenarioKind, parse_scenario
from equigon.svgfig import render_svg

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
DATA = Path(__file__).resolve().parent / "data"

COUNTED = {
    "correspondence": equigon.equalizer,
    "equal_distance_points": equigon.equalizer,
    "classify_pair": equigon.equalizer,
    "bottema_construct": equigon.bottema,
    "_matching_residuals": equigon.equalizer,
    "distances_squared": equigon.power_sums,
}
# file -> calls from run_scenario, then from solve_scenario, in COUNTED's order.
# A Bottema construction classifies its pair once and finds M2 from the swapped
# circles, with no equal-distance solve.  The equal-distance solve computes
# the identity residuals at both candidate points, and each correspondence
# reuses them (a tangent point's computes its own), then computes the
# reversal ones if needed.  Each labelled point's two squared-distance lists
# are computed once and feed its power sums, its alignment multiset and its
# cosine model; each rotation candidate and each locus probe adds its own.
# The solve computes none: the figure reads no cosine model.
EXPECTED = {
    "bottema_squares": ((1, 0, 1, 1, 1, 8), (0, 0, 1, 1, 0, 0)),
    "congruent_mirror": ((0, 1, 1, 0, 0, 6), (0, 1, 1, 0, 0, 0)),
    "identity_heptagon": ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)),
    "pair_disjoint": ((0, 1, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0)),
    "pair_pentagons": ((2, 1, 1, 0, 4, 8), (1, 1, 1, 0, 3, 0)),
    "shared_vertex_squares": ((2, 1, 1, 0, 3, 8), (1, 1, 1, 0, 2, 0)),
    "tangent_collinear": ((1, 1, 1, 0, 1, 3), (1, 1, 1, 0, 1, 0)),
}


@pytest.fixture
def calls(monkeypatch):
    """Count each call of the COUNTED functions, wherever the package binds them."""
    tally = dict.fromkeys(COUNTED, 0)
    modules = [module for name, module in list(sys.modules.items()) if name.startswith("equigon")]
    for name, home in COUNTED.items():
        original = getattr(home, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            tally[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return tally


def test_every_scenario_file_is_pinned():
    assert sorted(EXPECTED) == sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_each_quantity_is_computed_once(name, calls):
    scenario = parse_scenario((SCENARIO_DIR / f"{name}.json").read_text(encoding="utf-8"))
    for entry, expected in zip((run_scenario, solve_scenario), EXPECTED[name]):
        calls.update(dict.fromkeys(calls, 0))
        entry(scenario)
        assert tuple(calls.values()) == expected, entry.__name__


@pytest.fixture
def vertex_calls(monkeypatch):
    """The index of each ``RegularPolygon.vertex`` call, in call order."""
    calls = []
    original = RegularPolygon.vertex

    def counted(self, k):
        calls.append(k)
        return original(self, k)

    monkeypatch.setattr(RegularPolygon, "vertex", counted)
    return calls


def test_large_pair_reads_vertices_as_floats(vertex_calls):
    # The O(n) checks read RegularPolygon.coordinates(); a Point per vertex of
    # both polygons and of every rotation candidate made 6n + 2 vertex calls.
    # What is left is vertex 1 of the first polygon, once at M1 and once at
    # M2, for the distance each rotation candidate must reach.
    scenario = parse_scenario((DATA / "pair_large_n256.json").read_text(encoding="utf-8"))
    report = run_scenario(scenario)
    assert report.overall_ok
    assert vertex_calls == [1, 1]


@pytest.mark.parametrize("stem", ["pair_large_n256", "shared_vertex_large_n256", "bottema_large_n128"])
def test_large_figures_read_vertices_as_floats(stem, vertex_calls):
    # Outlines and the distance fan are drawn from RegularPolygon.coordinates();
    # only the shared-vertex figure reads a vertex, A1 for its labels.
    scenario = parse_scenario((DATA / f"{stem}.json").read_text(encoding="utf-8"))
    report = solve_scenario(scenario)
    vertex_calls.clear()
    render_svg(scenario, report)
    assert vertex_calls == ([1] if scenario.kind is ScenarioKind.SHARED_VERTEX else [])
