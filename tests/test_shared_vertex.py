"""One solve for every pair of polygons sharing their first vertex.

``shared_vertex`` and ``bottema`` documents differ only in how the pair is
built; both run the same checks: power sums, alignment, matching and cosine
model at M1 and M2, the six point properties, and, when the polygons run in
opposite directions, the Bottema checks on the triangle of the shared vertex
and the two vertices n.
"""

import contextlib
import dataclasses
import io
import json
import math
import random
from pathlib import Path

import pytest

from equigon.bottema import bottema_construct
from equigon.cli import main
from equigon.geom import DEFAULT_TOLERANCE, Point, Tolerance
from equigon.runner import run_scenario
from equigon.sampling import random_scenario
from equigon.scenario import BottemaConfig, Scenario, ScenarioKind, SharedVertexConfig, parse_scenario

POINT_PROPERTIES = (
    "midpoint_of_diametric_points",
    "even_n_vertex_midpoint",
    "mirror_point_bisector_parallel",
    "separation_equals_vertex_offset",
    "quadrilateral_side_lengths",
    "separation_perpendicular",
)
BOTTEMA = ("closed_form_midpoint", "altitude_length", "foot_at_base_midpoint")
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def shared_vertex_document(n, vertex, centroid1, centroid2, orient1, orient2):
    config = SharedVertexConfig(vertex=vertex, centroid1=centroid1, centroid2=centroid2,
                                orient1=orient1, orient2=orient2)
    return Scenario(ScenarioKind.SHARED_VERTEX, n, DEFAULT_TOLERANCE, 0, config)


def checks_named(report, names):
    """The report's checks with these names, each of which must be there."""
    found = {check.name: check for check in report.checks}
    assert set(names) <= set(found), (set(names) - set(found), report.errors)
    return [found[name] for name in names]


def test_opposite_orientation_shared_vertex_documents_pass_the_bottema_checks():
    # random_scenario draws opposite orientations only.
    rng = random.Random(34)
    sizes = [n for n in range(3, 13) for _ in range(20)] + [64, 128] * 3
    worst = 0.0
    for n in sizes:
        report = run_scenario(random_scenario(ScenarioKind.SHARED_VERTEX, n, rng))
        names = BOTTEMA + tuple(f"vertex_angle_k{k}" for k in range(2, n + 1))
        for check in checks_named(report, names):
            assert check.ok, (n, check)
            worst = max(worst, check.residual / check.tolerance)
        assert report.overall_ok, (n, [c.name for c in report.checks if not c.ok], report.errors)
    assert worst < 0.01


@pytest.mark.parametrize("side1, side2", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_bottema_documents_pass_m2_and_the_point_properties(side1, side2):
    rng = random.Random(side1 + 3 * side2)
    worst = 0.0
    for n in [n for n in range(3, 13) for _ in range(10)] + [64, 128]:
        scenario = random_scenario(ScenarioKind.BOTTEMA, n, rng)
        config = dataclasses.replace(scenario.config, side1=side1, side2=side2)
        report = run_scenario(dataclasses.replace(scenario, config=config))
        for check in checks_named(report, ("matching_M2", "cosine_model_M2") + POINT_PROPERTIES):
            assert check.ok, (n, check)
            if not check.vacuous:
                worst = max(worst, check.residual / check.tolerance)
        assert report.overall_ok, (n, [c.name for c in report.checks if not c.ok], report.errors)
    assert worst < 0.01


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_congruent_pairs_with_two_centroids_get_the_constructed_points(scale):
    # M1 = O1 + O2 - A and its mirror across O1 O2, which is A itself.
    rng = random.Random(35)
    for index in range(100):
        vertex = Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) * scale
        radius = rng.uniform(0.3, 3.0) * scale
        c1, c2 = (vertex + Point(math.cos(t), math.sin(t)) * radius
                  for t in (rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)))
        orient1 = rng.choice((1, -1))
        orient2 = orient1 if index % 2 else -orient1
        report = run_scenario(shared_vertex_document(rng.randint(3, 12), vertex, c1, c2, orient1, orient2))
        assert report.classification == "congruent_distinct_centroids"
        assert report.locus is None
        assert report.overall_ok, (index, [c.name for c in report.checks if not c.ok], report.errors)
        points = dict(report.points)
        assert points["M1"].distance(c1 + c2 - vertex) <= 1e-12 * radius
        assert points["M2"].distance(vertex) <= DEFAULT_TOLERANCE.bound(radius)


@pytest.mark.parametrize("orient2", [1, -1])
def test_pairs_with_one_centroid_keep_the_whole_plane(orient2):
    # Neither pair has an M1 of its own.  Identical polygons (equal
    # orientations) have one vertex n, so there is no base and no H; mirrored
    # labellings (opposite orientations) have a base, and the Bottema checks
    # run on their triangle.
    document = shared_vertex_document(7, Point(0.3, -0.2), Point(1.1, 0.4), Point(1.1, 0.4), 1, orient2)
    report = run_scenario(document)
    assert (report.classification, report.locus) == ("congruent_same_centroid", "entire_plane")
    assert report.points == [] and report.overall_ok, report.errors
    probes = [f"locus_probe_{k}" for k in (1, 2, 3)]
    bottema = [] if orient2 == 1 else list(BOTTEMA) + [f"vertex_angle_k{k}" for k in range(2, 8)]
    assert [check.name for check in report.checks] == probes + bottema
    assert any(finding.startswith("foot of perpendicular H") for finding in report.findings) == (orient2 == -1)


@pytest.mark.parametrize("orient1", [1, -1])
def test_squares_sharing_an_edge_exit_0(orient1, tmp_path):
    # Mirror images across an edge from A = (0, 0) to (1, 0).  With orient1 -1
    # the edge is A1 An: An = Bn, so there is no base, no H and no Bottema
    # check.  With orient1 +1 it is A1 A2: M1 = A2 = B2, and the angle those
    # vertices subtend at M1 is vacuous.
    path = tmp_path / "edge.json"
    path.write_text(json.dumps({"kind": "shared_vertex", "n": 4, "seed": 0, "shared_vertex": {
        "vertex": [0.0, 0.0], "centroid1": [0.5, 0.5], "centroid2": [0.5, -0.5],
        "orient1": orient1, "orient2": -orient1}}))
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["verify", str(path)]) == 0
        assert main(["render", str(path), "--output", str(tmp_path / "edge.svg")]) == 0
    report = run_scenario(parse_scenario(path.read_text()))
    assert report.classification == "congruent_distinct_centroids"
    assert report.points == [("M1", Point(1.0, 0.0)), ("M2", Point(0.0, 0.0))]
    names = [check.name for check in report.checks]
    assert set(POINT_PROPERTIES) <= set(names)
    if orient1 == -1:
        assert not set(BOTTEMA) & set(names) and not report.findings
    else:
        vacuous = [check.name for check in report.checks if check.vacuous]
        assert set(BOTTEMA) <= set(names) and "vertex_angle_k2" in vacuous


def test_bottema_pair_with_one_centroid_runs_its_sweep():
    # Both squares are the unit square, so the pair keeps the whole plane,
    # but its base exists: the Bottema checks and the apex sweep still run.
    config = BottemaConfig(an=Point(1.0, 0.0), a1=Point(0.0, 0.0), bn=Point(0.0, 1.0), side1=1, side2=-1,
                           sweep_samples=20)
    report = run_scenario(Scenario(ScenarioKind.BOTTEMA, 4, DEFAULT_TOLERANCE, 0, config))
    assert (report.classification, report.locus) == ("congruent_same_centroid", "entire_plane")
    assert report.overall_ok, report.errors
    checks_named(report, BOTTEMA + ("vertex_angle_k3", "apex_independence_spread", "apex_independence_closed_form"))
    # M1 = (1, 1) is vertex 3 of both squares.
    assert [check.name for check in report.checks if check.vacuous] == ["vertex_angle_k3"]


@pytest.mark.parametrize("scale", [1e-300, 1e-170, 1.0, 1e150])
def test_collinear_flag_holds_at_every_scale(scale):
    # A product of two lengths underflows to 0 below about 1e-154, which
    # would read every triangle there as collinear.
    tol = Tolerance(abs=1e-12 * min(scale, 1.0))
    an, bn = Point(0.0, 0.0), Point(2.0 * scale, 0.0)
    assert not bottema_construct(an, Point(0.6 * scale, 1.4 * scale), bn, 5, tol=tol).collinear
    assert bottema_construct(an, Point(0.6 * scale, 1e-12 * scale), bn, 5, tol=tol).collinear


@pytest.mark.parametrize("ratio", [1e-6, 1e-7, 1e-8])
def test_nearly_congruent_pairs_pass_the_mirror_check(ratio):
    # M2 is within ratio * R of A.  The parallel part of
    # mirror_point_bisector_parallel is M2's distance from the line through A
    # along D1 D2; the sine of the angle between A M2 and D1 D2, times R, read
    # the rounding of that short segment as a tilt and failed.
    rng = random.Random(36)
    for _ in range(100):
        vertex = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        radius = rng.uniform(0.3, 3.0)
        t1, t2 = rng.uniform(-math.pi, math.pi), rng.uniform(-math.pi, math.pi)
        c1 = vertex + Point(math.cos(t1), math.sin(t1)) * radius
        c2 = vertex + Point(math.cos(t2), math.sin(t2)) * (radius * (1.0 + ratio))
        orient = rng.choice((1, -1))
        report = run_scenario(shared_vertex_document(rng.randint(3, 12), vertex, c1, c2, orient, -orient))
        assert report.overall_ok, [c.name for c in report.checks if not c.ok]


def test_foot_is_the_base_midpoint_when_the_squared_base_overflows():
    # |An Bn|^2 = 2.56e308 is past the float range; the apex sides are not.
    an, bn = Point(0.0, 0.0), Point(1.6e154, 0.0)
    pair = bottema_construct(an, Point(0.8e154, 0.3e154), bn, 4)
    base = an.distance(bn)
    assert pair.h.distance(an.midpoint(bn)) <= DEFAULT_TOLERANCE.bound(base)
    assert abs(pair.m1.distance(pair.h) - 0.5 * base) <= DEFAULT_TOLERANCE.bound(base)


def test_a_missing_correspondence_fails_a_shared_vertex_pair_and_is_a_pair_finding():
    # At rel 1e-18 no vertex correspondence holds within tolerance at either
    # point.  A shared-vertex pair requires one: both matching checks fail and
    # no cosine model is run.  A pair records a finding and runs neither.
    # Only the checks are asserted: the same tolerance also fails the point
    # properties' test that the polygons share vertex 1, recorded as an error.
    tight = Tolerance(rel=1e-18, abs=1e-300)
    scenario = parse_scenario((SCENARIO_DIR / "shared_vertex_squares.json").read_text(encoding="utf-8"))
    report = run_scenario(scenario, tight)
    for match in checks_named(report, ("matching_M1", "matching_M2")):
        assert not match.ok and match.residual == math.inf
        assert match.detail.startswith("no vertex correspondence holds")
    assert not [check.name for check in report.checks if check.name.startswith("cosine_model_")]
    scenario = parse_scenario((SCENARIO_DIR / "pair_pentagons.json").read_text(encoding="utf-8"))
    report = run_scenario(scenario, tight)
    for label in ("M1", "M2"):
        assert any(finding.startswith(f"no vertexwise correspondence at {label} (") for finding in report.findings)
    assert not [check.name for check in report.checks if check.name.startswith(("matching_", "cosine_model_"))]
