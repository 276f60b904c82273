"""One solve for every pair of polygons sharing their first vertex.

``shared_vertex`` and ``bottema`` documents differ only in how the pair is
built; both run the same checks: power sums, alignment, matching and cosine
model at M1 and M2, the six point properties, and, when the two vertices n
differ, the Bottema checks on the triangle of the shared vertex and the two
vertices n.  The orientations decide M1's correspondence and the form of the
closed-form midpoint.
"""

import contextlib
import dataclasses
import io
import json
import math
import random
from pathlib import Path

import pytest

import equigon.runner
from equigon.bottema import bottema_construct, verify_bottema
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
        for check in checks_named(report, BOTTEMA + ("vertex_angles",)):
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
    bottema = [] if orient2 == 1 else [*BOTTEMA, "vertex_angles"]
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
        assert set(BOTTEMA) <= set(names)
        # k = 2 is at M1; k = 3 and 4 are judged.
        angles, = checks_named(report, ("vertex_angles",))
        assert angles.ok and not angles.vacuous and angles.detail.endswith(", vertex pairs at M1: 1")


def test_bottema_pair_with_one_centroid_runs_its_sweep():
    # Both squares are the unit square, so the pair keeps the whole plane,
    # but its base exists: the Bottema checks and the apex sweep still run.
    config = BottemaConfig(an=Point(1.0, 0.0), a1=Point(0.0, 0.0), bn=Point(0.0, 1.0), side1=1, side2=-1,
                           sweep_samples=20)
    report = run_scenario(Scenario(ScenarioKind.BOTTEMA, 4, DEFAULT_TOLERANCE, 0, config))
    assert (report.classification, report.locus) == ("congruent_same_centroid", "entire_plane")
    assert report.overall_ok, report.errors
    *_, angles, _, _ = checks_named(report, BOTTEMA + ("vertex_angles", "apex_independence_spread",
                                                       "apex_independence_closed_form"))
    # M1 = (1, 1) is vertex 3 of both squares: the angles count it and judge k = 2 and 4.
    assert not [check.name for check in report.checks if check.vacuous]
    assert angles.detail == "worst k2, expected 1.570796 rad, vertex pairs at M1: 1"


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
    # point.  A shared-vertex pair knows its correspondences from its opposite
    # orientations, and searches for none: both matching checks fail on the
    # known kind with a finite residual, and both cosine models run.  A pair
    # records a finding and runs neither.
    tight = Tolerance(rel=1e-18, abs=1e-300)
    scenario = parse_scenario((SCENARIO_DIR / "shared_vertex_squares.json").read_text(encoding="utf-8"))
    report = run_scenario(scenario, tight)
    matches = checks_named(report, ("matching_M1", "matching_M2"))
    assert [match.detail for match in matches] == ["identity", "reversal"]
    for match in matches:
        assert not match.ok and 0.0 < match.residual < 1e-14
    checks_named(report, ("cosine_model_M1", "cosine_model_M2"))
    assert report.matchings == [("M1", "identity"), ("M2", "reversal")]
    assert not [finding for finding in report.findings if finding.startswith("no vertexwise")]
    scenario = parse_scenario((SCENARIO_DIR / "pair_pentagons.json").read_text(encoding="utf-8"))
    report = run_scenario(scenario, tight)
    for label in ("M1", "M2"):
        assert any(finding.startswith(f"no vertexwise correspondence at {label} (") for finding in report.findings)
    assert not [check.name for check in report.checks if check.name.startswith(("matching_", "cosine_model_"))]


def exit_code(report):
    """The exit code ``verify`` gives this report: 2 with an error, else 1 with a failed check."""
    return 2 if report.errors else 0 if report.overall_ok else 1


def both_kinds(rng):
    """shared_vertex documents in both orientations, then bottema documents
    without and with a 50-apex sweep, 6 of each at each n = 3..12."""
    for n in range(3, 13):
        for _ in range(6):
            pair = random_scenario(ScenarioKind.SHARED_VERTEX, n, rng)
            yield pair
            yield dataclasses.replace(pair, config=dataclasses.replace(pair.config, orient2=pair.config.orient1))
            triangle = random_scenario(ScenarioKind.BOTTEMA, n, rng)
            yield triangle
            yield dataclasses.replace(triangle, config=dataclasses.replace(triangle.config, sweep_samples=50))


LADDER = (1e-18, 1e-16, 1e-14, 1e-12, 1e-9, 1e-6, 1e-3, 1e-2, 1e-1)


def test_the_tolerance_judges_checks_and_decides_no_structure():
    # The construction puts the shared vertex on both circles; only the checks
    # judge it.  A tolerance tighter than its rounding fails checks (exit 1),
    # never the input (exit 2), and a looser one never fails a check that a
    # tighter one passed.
    documents = list(both_kinds(random.Random(37)))
    assert len(documents) == 240
    for document in documents:
        passed = set()
        for rel in LADDER:
            report = run_scenario(document, Tolerance(rel=rel, abs=1e-300))
            assert exit_code(report) != 2, (document, rel, report.errors)
            now = {check.name for check in report.checks if check.ok}
            assert passed <= now, (document, rel, passed - now)
            passed = now
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--tolerance-rel", "1e-18", "--tolerance-abs", "1e-300",
                     str(SCENARIO_DIR / "shared_vertex_squares.json")])
    assert code == 1
    assert not [line for line in out.getvalue().splitlines() if line.startswith("error:")]


@pytest.mark.parametrize("field, delta", [("circumradius", 1e-6), ("phase", 1e-6),
                                          ("circumradius", 3e-9), ("phase", 3e-9)])
def test_a_wrong_construction_fails_a_check(monkeypatch, field, delta):
    # The second polygon misses the shared vertex by its radius or phase
    # fault.  That is a failed fact, not bad input: at 1e-6 every document
    # fails a named check with no error, and at 3e-9 none exits 2.
    built = equigon.runner.bottema_pair

    def faulty(poly1, poly2, *args):
        value = getattr(poly2, field)
        wrong = value * (1.0 + delta) if field == "circumradius" else value + delta
        return built(poly1, dataclasses.replace(poly2, **{field: wrong}), *args)

    monkeypatch.setattr(equigon.runner, "bottema_pair", faulty)
    rng = random.Random(3)
    for index in range(300):
        report = run_scenario(random_scenario(ScenarioKind.SHARED_VERTEX, 3 + index % 10, rng))
        assert exit_code(report) in ((1,) if delta == 1e-6 else (0, 1)), (index, report.errors)


def oriented(kind, n, rng, first, second):
    """A random ``kind`` document with these orientations (``shared_vertex``)
    or sides (``bottema``, where a polygon's side is minus its orientation)."""
    scenario = random_scenario(kind, n, rng)
    fields = ("orient1", "orient2") if kind is ScenarioKind.SHARED_VERTEX else ("side1", "side2")
    config = dataclasses.replace(scenario.config, **dict(zip(fields, (first, second))))
    return dataclasses.replace(scenario, config=config)


@pytest.mark.parametrize("kind", [ScenarioKind.SHARED_VERTEX, ScenarioKind.BOTTEMA], ids=lambda kind: kind.value)
@pytest.mark.parametrize("first, second", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
def test_the_bottema_theorem_holds_for_every_orientation_pair(kind, first, second):
    # Opposite orientations: M1 is the centroid of the n-gon on the base, and
    # A_k pairs with B_k.  Equal ones: M1 is the apex turned a quarter turn
    # about the base midpoint and scaled by cot(pi / n), and A_k pairs with
    # B_(n+2-k).  Either way every document passes, with no finding of a skip.
    rng = random.Random(19)
    equal = first == second
    for n in [n for n in range(3, 13) for _ in range(20)] + [64] * 6:
        report = run_scenario(oriented(kind, n, rng, first, second))
        assert exit_code(report) == 0, (n, [c.name for c in report.checks if not c.ok], report.errors)
        closed, angles = checks_named(report, ("closed_form_midpoint", "vertex_angles"))
        assert closed.detail.startswith("apex turned about the base midpoint") is equal
        assert closed.ok and angles.ok and not angles.vacuous, n
        assert report.matchings[0] == ("M1", "reversal" if equal else "identity")
        assert not [finding for finding in report.findings if finding.startswith("same-orientation")]


def test_an_m1_mirrored_across_the_base_fails_the_closed_form():
    # The closed form's side comes from the orientations, not from M1: an M1
    # mirrored across the base misses it by twice the altitude, |An Bn| *
    # cot(pi / n), while the altitude and the foot, symmetric in the base,
    # still pass.  Apexes are drawn as in acceptance criterion 8, in the
    # frame of each random base.
    rng = random.Random(5)
    for _ in range(300):
        an, bn = (Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(2))
        n, base = rng.randint(3, 12), an.distance(bn)
        half = (bn - an) * 0.5
        apex = an + half * rng.uniform(-1.0, 3.0) + half.perpendicular() * rng.uniform(0.1, 2.5)
        pair = bottema_construct(an, apex, bn, n)
        mirrored = dataclasses.replace(pair, m1=pair.h + (pair.h - pair.m1))
        checks = {check.name: check for check in verify_bottema(mirrored)}
        closed = checks["closed_form_midpoint"]
        assert not closed.ok
        assert closed.residual == pytest.approx(base / math.tan(math.pi / n), rel=1e-9)
        assert checks["altitude_length"].ok and checks["foot_at_base_midpoint"].ok
