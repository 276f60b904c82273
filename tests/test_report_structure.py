"""Pinned report structure: what each check is called, in which order, and its verdict.

The expected values were recorded from the sample scenarios and must not move
when the code behind the checks is reorganised.  Float residuals and findings
are left out; byte-level output is covered by the benchmark's digest.
"""

import json
import re
from pathlib import Path

import pytest

import equigon
from equigon.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

POWER_SUMS_3 = "orders 1..3, closed form"
POWER_SUMS_4 = "orders 1..4, closed form"
LOCUS = "power sums on the locus, normalized"
IDENTITY_6 = "orders 1..6, relative"
POINT_PROPERTIES = [
    ("midpoint_of_diametric_points", True, False, ""),
    ("even_n_vertex_midpoint", True, False, ""),
    ("mirror_point_bisector_parallel", True, False, ""),
    ("separation_equals_vertex_offset", True, False, ""),
    ("quadrilateral_side_lengths", True, False, ""),
    ("separation_perpendicular", True, False, ""),
]
# The Bottema checks after closed_form_midpoint, less the vertex angles, whose detail names the worst k.
BOTTEMA = [
    ("altitude_length", True, False, ""),
    ("foot_at_base_midpoint", True, False, ""),
]

# file -> (exit code, classification, matchings, [(name, ok, vacuous, detail), ...])
PINNED = {
    "bottema_squares.json": (0, "non_congruent", {"M1": "identity", "M2": "reversal"}, [
        ("power_sums_M1", True, False, POWER_SUMS_3),
        ("alignment_multiset_M1", True, False, "phase offset 4.441e-16 rad"),
        ("matching_M1", True, False, "identity"),
        ("cosine_model_M1", True, False, "shared angle -0.291457 rad"),
        ("power_sums_M2", True, False, POWER_SUMS_3),
        ("alignment_multiset_M2", True, False, "phase offset 0.000e+00 rad"),
        ("matching_M2", True, False, "reversal"),
        ("cosine_model_M2", True, False, "shared angle 0.032052 rad"),
        *POINT_PROPERTIES,
        ("closed_form_midpoint", True, False, "base normal side +1"),
        *BOTTEMA,
        ("vertex_angles", True, False, "worst k4, expected 1.570796 rad"),
        ("apex_independence_spread", True, False, "100 apexes, exterior placement"),
        ("apex_independence_closed_form", True, False, ""),
    ]),
    "congruent_mirror.json": (0, "congruent_distinct_centroids", {}, [
        ("locus_probe_1", True, False, LOCUS),
        ("locus_probe_2", True, False, LOCUS),
        ("locus_probe_3", True, False, LOCUS),
    ]),
    "identity_heptagon.json": (0, None, {}, [
        ("closed_form_probe_1", True, False, IDENTITY_6),
        ("closed_form_probe_2", True, False, IDENTITY_6),
        ("closed_form_probe_3", True, False, IDENTITY_6),
        ("closed_form_probe_4", True, False, IDENTITY_6),
    ]),
    "pair_disjoint.json": (0, "non_congruent", {}, []),
    "pair_pentagons.json": (0, "non_congruent", {}, [
        ("power_sums_M1", True, False, POWER_SUMS_4),
        ("alignment_multiset_M1", True, False, "phase offset 2.375e-01 rad"),
        ("power_sums_M2", True, False, POWER_SUMS_4),
        ("alignment_multiset_M2", True, False, "phase offset 1.458e-01 rad"),
    ]),
    "shared_vertex_squares.json": (0, "non_congruent", {"M1": "identity", "M2": "reversal"}, [
        ("power_sums_M1", True, False, POWER_SUMS_3),
        ("alignment_multiset_M1", True, False, "phase offset 0.000e+00 rad"),
        ("matching_M1", True, False, "identity"),
        ("cosine_model_M1", True, False, "shared angle 1.570796 rad"),
        ("power_sums_M2", True, False, POWER_SUMS_3),
        ("alignment_multiset_M2", True, False, "phase offset 4.441e-16 rad"),
        ("matching_M2", True, False, "reversal"),
        ("cosine_model_M2", True, False, "shared angle -0.643501 rad"),
        *POINT_PROPERTIES,
        ("closed_form_midpoint", True, False, "base normal side -1"),
        *BOTTEMA,
        ("vertex_angles", True, False, "worst k2, expected 1.570796 rad"),
    ]),
    "tangent_collinear.json": (0, "non_congruent", {"M1": "identity"}, [
        ("power_sums_M1", True, False, POWER_SUMS_4),
        ("alignment_multiset_M1", True, False, "phase offset 0.000e+00 rad"),
        ("matching_M1", True, False, "identity"),
        ("cosine_model_M1", True, False, "shared angle 3.141593 rad"),
        ("midpoint_of_diametric_points", True, False, ""),
        ("even_n_vertex_midpoint", True, True, "n is odd"),
        ("mirror_point_bisector_parallel", True, True, ""),
        ("separation_equals_vertex_offset", True, True, ""),
        ("quadrilateral_side_lengths", True, False, ""),
        ("separation_perpendicular", True, True, ""),
        ("closed_form_midpoint", True, False, "base normal side +1"),
        *BOTTEMA,
        ("vertex_angles", True, False, "worst k3, expected 2.513274 rad"),
    ]),
}


def test_every_scenario_file_is_pinned():
    assert sorted(PINNED) == sorted(path.name for path in SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_scenario_report_structure(name, capsys):
    code, classification, matchings, checks = PINNED[name]
    assert main(["verify", str(SCENARIO_DIR / name), "--json"]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["classification"] == classification
    assert report["matchings"] == matchings
    got = [(c["name"], c["ok"], c["vacuous"], c["detail"]) for c in report["checks"]]
    assert got == checks
    assert report["errors"] == []


def test_bottema_verb_lines(capsys):
    assert main(["bottema", "--n", "6", "--samples", "30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    labels = [line.split(":", 1)[0] for line in lines]
    assert labels == [
        "base length",
        "apex samples",
        "midpoint spread (bounding-box diagonal)",
        "max closed-form residual",
        "allowed",
        "result",
    ]
    assert lines[0] == "base length: 2.0"
    assert lines[1] == "apex samples: 30"
    assert lines[4] == "allowed: 2.001e-09"
    assert lines[5] == "result: PASS"


def test_every_public_name_resolves():
    for name in equigon.__all__:
        assert getattr(equigon, name, None) is not None, name


def test_public_names_are_the_documented_ones():
    # The first paragraph of the README's "Python API" section lists them.
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Python API\n\n", 1)[1]
    listed = section.split("\n\n", 1)[0].split(":", 1)[1]
    assert equigon.__all__ == re.findall(r"`(\w+)`", listed)
