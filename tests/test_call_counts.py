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
from equigon.runner import run_scenario, solve_scenario
from equigon.scenario import parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

COUNTED = {
    "correspondence": equigon.equalizer,
    "equal_distance_points": equigon.equalizer,
    "classify_pair": equigon.equalizer,
    "bottema_construct": equigon.bottema,
    "_matching_residuals": equigon.equalizer,
}
# file -> calls from run_scenario, then from solve_scenario, in COUNTED's order.
# A Bottema scenario classifies its pair once in the construction and once in
# the equal-distance solve that finds M2.  The equal-distance solve computes
# the identity residuals at both candidate points, and each correspondence
# computes its point's identity residuals, then the reversal ones if needed.
EXPECTED = {
    "bottema_squares": ((1, 1, 2, 1, 3), (0, 1, 2, 1, 2)),
    "congruent_mirror": ((0, 1, 1, 0, 0), (0, 1, 1, 0, 0)),
    "identity_heptagon": ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
    "pair_disjoint": ((0, 1, 1, 0, 0), (0, 1, 1, 0, 0)),
    "pair_pentagons": ((2, 1, 1, 0, 6), (1, 1, 1, 0, 4)),
    "shared_vertex_squares": ((2, 1, 1, 0, 5), (1, 1, 1, 0, 3)),
    "tangent_collinear": ((1, 1, 1, 0, 1), (1, 1, 1, 0, 1)),
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
