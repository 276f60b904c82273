import math
import random

import pytest

import equigon.bottema
from equigon.checks import CheckResult
from equigon.geom import DEFAULT_TOLERANCE, Point, angle_at, side_of_line
from equigon.polygon import RegularPolygon
from equigon.power_sums import compare_power_sums, distances_squared
from equigon.bottema import (
    DegenerateTriangleError,
    bottema_construct,
    closed_form_midpoint,
    verify_independence,
    vertex_angles,
)


def square_far_corner(p, q, interior):
    """Corner of the square on segment p->q diagonally opposite p.

    The square is erected on the side of the segment away from ``interior``.
    Independent of the polygon machinery on purpose.
    """
    side = q - p
    normal = Point(-side.y, side.x)
    if side_of_line(interior, p, q) > 0:
        normal = Point(side.y, -side.x)
    return q + normal


def oracle_square_midpoint(an, a1, bn):
    d1 = square_far_corner(a1, an, bn)
    d2 = square_far_corner(a1, bn, an)
    return d1.midpoint(d2)


def test_default_exterior_squares_match_oracle():
    an, bn = Point(0, 0), Point(2, 0)
    for apex in (Point(0.7, 1.3), Point(-0.4, 0.9), Point(2.6, 2.1), Point(1.0, 0.2)):
        result = bottema_construct(an, apex, bn, 4)
        want = oracle_square_midpoint(an, apex, bn)
        assert result.m1.distance(want) < 1e-12
        assert result.d1.distance(square_far_corner(apex, an, bn)) < 1e-12
        assert result.d2.distance(square_far_corner(apex, bn, an)) < 1e-12
        assert not result.collinear


def test_classical_square_case_frozen():
    result = bottema_construct(Point(0, 0), Point(0.7, 1.3), Point(2, 0), 4)
    assert result.m1.x == pytest.approx(1.0, abs=1e-12)
    assert result.m1.y == pytest.approx(1.0, abs=1e-12)
    # foot of the perpendicular from M1 is the base midpoint
    assert result.h.x == pytest.approx(1.0, abs=1e-12)
    assert result.h.y == pytest.approx(0.0, abs=1e-12)
    assert result.m1.distance(result.h) == pytest.approx(1.0, abs=1e-12)


def test_explicit_interior_sides_flip_the_midpoint():
    result = bottema_construct(Point(0, 0), Point(0.7, 1.3), Point(2, 0), 4, side1=1, side2=-1)
    assert result.m1.x == pytest.approx(1.0, abs=1e-12)
    assert result.m1.y == pytest.approx(-1.0, abs=1e-12)


def test_closed_form_midpoint_frozen_values():
    an, bn = Point(0, 0), Point(2, 0)
    below = closed_form_midpoint(an, bn, 4, -1)
    assert below.x == pytest.approx(1.0, abs=1e-15)
    assert below.y == pytest.approx(-1.0, abs=1e-12)
    unit = closed_form_midpoint(Point(0, 0), Point(1, 0), 6, 1)
    assert unit.x == pytest.approx(0.5, abs=1e-15)
    assert unit.y == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    triangle = closed_form_midpoint(Point(0, 0), Point(1, 0), 3, 1)
    assert triangle.y == pytest.approx(math.sqrt(3) / 6, abs=1e-12)


def test_closed_form_validation():
    with pytest.raises(Exception):
        closed_form_midpoint(Point(0, 0), Point(1, 0), 4, 0)
    with pytest.raises(Exception):
        closed_form_midpoint(Point(0, 0), Point(1, 0), 2, 1)
    with pytest.raises(Exception):
        closed_form_midpoint(Point(1, 1), Point(1, 1), 4, 1)


def test_midpoint_matches_closed_form_many_n():
    an, bn = Point(-1.0, 0.5), Point(2.0, -0.25)
    base = an.distance(bn)
    for n in range(3, 13):
        apex = Point(0.4, 1.7)
        result = bottema_construct(an, apex, bn, n)
        side = 1 if side_of_line(apex, an, bn) > 0 else -1
        want = closed_form_midpoint(an, bn, n, side)
        assert result.m1.distance(want) < 1e-9 * base
        # altitude identity: distance to the base is half the base times cot(pi/n)
        assert result.m1.distance(result.h) == pytest.approx(
            0.5 * base / math.tan(math.pi / n), rel=1e-12
        )
        assert result.h.distance(an.midpoint(bn)) < 1e-9 * base


def test_apex_independence_direct():
    an, bn = Point(0, 0), Point(2, 0)
    rng = random.Random(42)
    seen = []
    for _ in range(25):
        apex = Point(rng.uniform(-2, 4), rng.uniform(0.1, 3.0))
        seen.append(bottema_construct(an, apex, bn, 5).m1)
    spread = max(p.distance(q) for p in seen for q in seen)
    assert spread < 1e-9 * an.distance(bn)


def test_verify_independence_report():
    spread, closed = verify_independence(Point(0, 0), Point(2, 0), 7, samples=40, seed=3)
    assert spread.name == "apex_independence_spread"
    assert closed.name == "apex_independence_closed_form"
    assert spread.ok and closed.ok
    assert spread.detail == "40 apexes, exterior placement"
    # both are judged at the base length, 2
    assert spread.tolerance == closed.tolerance == DEFAULT_TOLERANCE.bound(2.0)
    assert spread.residual < 1e-9 * 2.0
    assert closed.residual < 1e-9 * 2.0
    # deterministic under the same seed
    again = verify_independence(Point(0, 0), Point(2, 0), 7, samples=40, seed=3)
    assert again == (spread, closed)
    with pytest.raises(ValueError):
        verify_independence(Point(0, 0), Point(2, 0), 7, samples=1)


# Exact sweep results of the full bottema_construct per apex with the spread
# taken over every pair of midpoints; building only M1 and skipping repeated
# midpoints must reproduce them bit for bit.
# (n, base scale, samples, seed) -> (spread residual, closed-form residual, tolerance).
PINNED_SWEEPS = [
    ((3, 1.0, 2, 0), (4.577566798522237e-16, 2.482534153247273e-16, 2.119962010041709e-09)),
    ((4, 1.0, 30, 1), (1.616509124176106e-15, 9.155133597044475e-16, 2.119962010041709e-09)),
    ((7, 1.0, 300, 2), (3.66205343881779e-15, 1.831026719408895e-15, 2.119962010041709e-09)),
    ((12, 1.0, 30, 3), (3.66205343881779e-15, 2.3914935841127266e-15, 2.119962010041709e-09)),
    ((3, 1e-6, 300, 4), (1.6538847004437893e-21, 8.984141113379144e-22, 1.0021189620100417e-12)),
    ((7, 1e-6, 30, 5), (2.8410348738639142e-21, 1.8940232492426095e-21, 1.0021189620100417e-12)),
    ((4, 1e6, 300, 6), (1.9893058914033534e-09, 1.041250292910165e-09, 0.002118962011041709)),
    ((12, 1e6, 2, 7), (9.599853366654507e-10, 9.313225746154785e-10, 0.002118962011041709)),
]


@pytest.mark.parametrize("case, recorded", PINNED_SWEEPS, ids=[repr(case) for case, _ in PINNED_SWEEPS])
def test_verify_independence_pinned(case, recorded):
    n, scale, samples, seed = case
    spread, closed, allowed = recorded
    an, bn = Point(-0.3 * scale, 1.1 * scale), Point(1.7 * scale, 0.4 * scale)
    want = (
        CheckResult("apex_independence_spread", True, spread, allowed,
                    detail=f"{samples} apexes, exterior placement"),
        CheckResult("apex_independence_closed_form", True, closed, allowed),
    )
    assert repr(verify_independence(an, bn, n, samples, seed=seed)) == repr(want)


def test_sweep_reads_only_m1(monkeypatch):
    # M2 goes through the pair classifier and the equal-distance solver; the
    # sweep reads only M1, so it must never reach them.
    def forbidden(*args, **kwargs):
        raise AssertionError("the apex sweep built M2")

    monkeypatch.setattr(equigon.bottema, "classify_pair", forbidden)
    monkeypatch.setattr(equigon.bottema, "equal_distance_points", forbidden)
    spread, closed = verify_independence(Point(0, 0), Point(2, 0), 5, samples=30, seed=1)
    assert spread.ok and closed.ok
    with pytest.raises(AssertionError, match="built M2"):
        bottema_construct(Point(0, 0), Point(0.6, 1.4), Point(2, 0), 5)


def subtended(result, k):
    return angle_at(result.m1, result.poly1.vertex(k), result.poly2.vertex(k))


def test_vertex_angles_square_frozen():
    result = bottema_construct(Point(0, 0), Point(0.7, 1.3), Point(2, 0), 4)
    checks = vertex_angles(result)
    assert [check.name for check in checks] == ["vertex_angle_k2", "vertex_angle_k3", "vertex_angle_k4"]
    for k, check, expected in zip((2, 3, 4), checks, (math.pi / 2, math.pi, math.pi / 2)):
        assert subtended(result, k) == pytest.approx(expected)
        assert check.detail == f"expected {expected:.6f} rad"
        assert check.tolerance == DEFAULT_TOLERANCE.bound(math.pi)
        assert check.ok
        assert check.residual < 1e-9


def test_vertex_angles_hexagon_folding():
    result = bottema_construct(Point(0, 0), Point(0.3, 1.1), Point(2, 0), 6)
    checks = {check.name: check for check in vertex_angles(result)}
    assert list(checks) == [f"vertex_angle_k{k}" for k in range(2, 7)]
    assert subtended(result, 2) == pytest.approx(math.tau / 6)
    assert subtended(result, 4) == pytest.approx(math.pi)
    # k=5 raw angle exceeds pi and folds back to 2*pi/3
    assert subtended(result, 5) == pytest.approx(2 * math.pi / 3)
    assert checks["vertex_angle_k5"].detail == f"expected {2 * math.pi / 3:.6f} rad"
    assert subtended(result, 6) == pytest.approx(math.tau / 6)
    assert all(check.ok for check in checks.values())


def test_m1_and_m2_are_equal_distance_points():
    an, apex, bn = Point(0, 0), Point(0.6, 1.4), Point(2, 0)
    result = bottema_construct(an, apex, bn, 8)
    for point in (result.m1, result.m2):
        da = distances_squared(result.poly1.vertices(), point)
        db = distances_squared(result.poly2.vertices(), point)
        assert compare_power_sums(da, db).ok
    assert result.m1.distance(result.m2) > 1e-6


def test_isosceles_apex_gives_congruent_polygons():
    # equal apex sides: the two polygons are congruent and the mirror point
    # comes from reflecting across the centroid line
    an, bn = Point(0, 0), Point(2, 0)
    apex = Point(1.0, 1.5)
    result = bottema_construct(an, apex, bn, 4)
    assert result.poly1.circumradius == pytest.approx(result.poly2.circumradius)
    assert result.m1.distance(oracle_square_midpoint(an, apex, bn)) < 1e-12
    mid = result.m1.midpoint(result.m2)
    assert abs(side_of_line(mid, result.poly1.centroid, result.poly2.centroid)) < 1e-9


def test_collinear_apex_flagged_and_still_constructs():
    result = bottema_construct(Point(0, 0), Point(0.5, 0), Point(2, 0), 4)
    assert result.collinear
    assert result.m1.x == pytest.approx(1.0, abs=1e-12)
    assert result.m1.y == pytest.approx(-1.0, abs=1e-12)


def test_coincident_corners_rejected():
    with pytest.raises(DegenerateTriangleError):
        bottema_construct(Point(0, 0), Point(0, 0), Point(2, 0), 4)
    with pytest.raises(DegenerateTriangleError):
        bottema_construct(Point(0, 0), Point(1, 1), Point(0, 0), 5)


def test_triangle_case_closed_form():
    # equilateral triangles erected on the sides: M1 is the centroid of the
    # triangle erected on the base, at height base / (2 * sqrt(3))
    an, bn = Point(0, 0), Point(1, 0)
    result = bottema_construct(an, Point(0.3, 0.8), bn, 3)
    assert result.m1.x == pytest.approx(0.5, abs=1e-12)
    assert result.m1.y == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-12)


def test_polygons_share_apex_as_first_vertex():
    an, apex, bn = Point(-0.5, 0.2), Point(0.8, 1.9), Point(2.1, -0.3)
    result = bottema_construct(an, apex, bn, 9)
    assert result.poly1.vertex(1).distance(apex) < 1e-12
    assert result.poly2.vertex(1).distance(apex) < 1e-12
    assert result.poly1.vertex(9).distance(an) < 1e-12
    assert result.poly2.vertex(9).distance(bn) < 1e-12
