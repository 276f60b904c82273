"""Pinned report structure: what each check is called, in which order, and its verdict.

The expected values were recorded from the sample scenarios and must not move
when the code behind the checks is reorganised.  Float residuals and findings
are left out; byte-level output is covered by the benchmark's digest.
"""

import json
from pathlib import Path

import pytest

import equigon
from equigon.cli import main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

POWER_SUMS_3 = "orders 1..3, normalized"
POWER_SUMS_4 = "orders 1..4, normalized"
LOCUS = "power sums on the locus, normalized"
IDENTITY_6 = "orders 1..6, relative"

# file -> (exit code, classification, matchings, [(name, ok, vacuous, detail), ...])
PINNED = {
    "bottema_squares.json": (0, "non_congruent", {"M1": "identity"}, [
        ("power_sums_M1", True, False, POWER_SUMS_3),
        ("alignment_multiset_M1", True, False, "2 rotation candidate(s)"),
        ("power_sums_M2", True, False, POWER_SUMS_3),
        ("alignment_multiset_M2", True, False, "2 rotation candidate(s)"),
        ("matching_M1", True, False, "identity"),
        ("cosine_model_M1", True, False, "shared angle -0.291457 rad"),
        ("closed_form_midpoint", True, False, "base normal side +1"),
        ("altitude_length", True, False, ""),
        ("foot_at_base_midpoint", True, False, ""),
        ("vertex_angle_k2", True, False, "expected 1.570796 rad"),
        ("vertex_angle_k3", True, False, "expected 3.141593 rad"),
        ("vertex_angle_k4", True, False, "expected 1.570796 rad"),
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
        ("alignment_multiset_M1", True, False, "2 rotation candidate(s)"),
        ("power_sums_M2", True, False, POWER_SUMS_4),
        ("alignment_multiset_M2", True, False, "2 rotation candidate(s)"),
    ]),
    "shared_vertex_squares.json": (0, "non_congruent", {"M1": "identity", "M2": "reversal"}, [
        ("power_sums_M1", True, False, POWER_SUMS_3),
        ("alignment_multiset_M1", True, False, "2 rotation candidate(s)"),
        ("matching_M1", True, False, "identity"),
        ("cosine_model_M1", True, False, "shared angle 1.570796 rad"),
        ("power_sums_M2", True, False, POWER_SUMS_3),
        ("alignment_multiset_M2", True, False, "2 rotation candidate(s)"),
        ("matching_M2", True, False, "reversal"),
        ("cosine_model_M2", True, False, "shared angle -0.643501 rad"),
        ("midpoint_of_diametric_points", True, False, ""),
        ("even_n_vertex_midpoint", True, False, ""),
        ("mirror_point_bisector_parallel", True, False, ""),
        ("separation_equals_vertex_offset", True, False, ""),
        ("quadrilateral_side_lengths", True, False, ""),
        ("separation_perpendicular", True, False, ""),
    ]),
    "tangent_collinear.json": (0, "non_congruent", {"M1": "identity"}, [
        ("power_sums_M1", True, False, POWER_SUMS_4),
        ("alignment_multiset_M1", True, False, "1 rotation candidate(s)"),
        ("matching_M1", True, False, "identity"),
        ("cosine_model_M1", True, False, "shared angle 3.141593 rad"),
        ("midpoint_of_diametric_points", True, False, ""),
        ("even_n_vertex_midpoint", True, True, "n is odd"),
        ("mirror_point_bisector_parallel", True, True, ""),
        ("separation_equals_vertex_offset", True, True, ""),
        ("quadrilateral_side_lengths", True, False, ""),
        ("separation_perpendicular", True, True, ""),
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
        "max midpoint deviation",
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
