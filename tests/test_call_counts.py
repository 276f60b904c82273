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
from equigon.scenario import parse_scenario
from equigon.svgfig import render_svg

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
DATA = Path(__file__).resolve().parent / "data"

COUNTED = {
    "correspondence": equigon.equalizer,
    "equal_distance_points": equigon.equalizer,
    "classify_pair": equigon.equalizer,
    "bottema_construct": equigon.bottema,
    "_vertex_distances": equigon.equalizer,
    "distances_squared": equigon.power_sums,
    "shared_vertex_points": equigon.equalizer,
}
# file -> calls from run_scenario, then from solve_scenario, in COUNTED's order.
# A pair sharing its first vertex, in a shared-vertex scenario or a Bottema
# construction, runs one solve: it is classified once and takes M1 and M2
# from one shared_vertex_points call, with no equal-distance solve.  Each
# correspondence reads both kinds' residuals off one list of vertex
# distances per polygon.  The figure reads M1's kind only: a pair sharing its
# first vertex takes it from the orientations and measures no correspondence
# at solve time, while a pair scenario's solve searches for M1's.  The
# equal-distance solve of a pair scenario labels its two candidate points by
# the identity residuals read off their distance lists.  Each labelled
# point's squared distances to the first polygon are computed once and feed
# its alignment multiset and its cosine model; those to the second polygon
# are computed only at a point with a correspondence, for its cosine model
# (neither of pair_pentagons' points has one).  Each of a point's two rotation
# candidates and each locus probe adds its own.  The solve computes none: the
# figure reads no cosine model.
EXPECTED = {
    "bottema_squares": ((2, 0, 1, 1, 2, 8, 1), (0, 0, 1, 1, 0, 0, 1)),
    "congruent_mirror": ((0, 1, 1, 0, 0, 6, 0), (0, 1, 1, 0, 0, 0, 0)),
    "identity_heptagon": ((0, 0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0, 0)),
    "pair_disjoint": ((0, 1, 1, 0, 0, 0, 0), (0, 1, 1, 0, 0, 0, 0)),
    "pair_pentagons": ((2, 1, 1, 0, 4, 6, 0), (1, 1, 1, 0, 3, 0, 0)),
    "shared_vertex_squares": ((2, 0, 1, 0, 2, 8, 1), (0, 0, 1, 0, 0, 0, 1)),
    "tangent_collinear": ((1, 0, 1, 0, 1, 4, 1), (0, 0, 1, 0, 0, 0, 1)),
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
    # The rotation candidates come from angles, so no vertex is read at all.
    scenario = parse_scenario((DATA / "pair_large_n256.json").read_text(encoding="utf-8"))
    report = run_scenario(scenario)
    assert report.overall_ok
    assert vertex_calls == []


@pytest.mark.parametrize("stem", ["pair_large_n256", "shared_vertex_large_n256", "bottema_large_n128"])
def test_large_figures_read_vertices_as_floats(stem, vertex_calls):
    # Outlines and the distance fan are drawn from RegularPolygon.coordinates(),
    # and the shared-vertex labels from the solved geometry: no figure reads a vertex.
    scenario = parse_scenario((DATA / f"{stem}.json").read_text(encoding="utf-8"))
    report = solve_scenario(scenario)
    vertex_calls.clear()
    render_svg(scenario, report)
    assert vertex_calls == []
