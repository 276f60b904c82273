import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from equigon.geom import (
    DEFAULT_TOLERANCE,
    DegenerateLineError,
    DegenerateRayError,
    GeometryError,
    Point,
    Tolerance,
    angle_at,
    circle_intersection,
    exactly_collinear,
    point_line_distance,
    project_onto_line,
    side_of_line,
    wrap_angle,
)

TOL = DEFAULT_TOLERANCE


def rotated(p, angle):
    """The point turned by ``angle`` about the origin."""
    c, s = math.cos(angle), math.sin(angle)
    return Point(c * p.x - s * p.y, s * p.x + c * p.y)

finite_coords = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)
radii = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)


def test_tolerance_defaults_and_semantics():
    assert TOL.rel == 1e-9
    assert TOL.abs == 1e-12
    assert TOL.eq(1.0, 1.0 + 5e-10)
    assert not TOL.eq(1.0, 1.0 + 5e-9)
    # the absolute floor dominates near zero
    assert TOL.eq(0.0, 5e-13)
    assert not TOL.eq(0.0, 5e-12)


def test_tolerance_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        Tolerance(rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(abs=-1e-12)


def test_point_rejects_nonfinite():
    with pytest.raises(GeometryError):
        Point(math.nan, 0.0)
    with pytest.raises(GeometryError):
        Point(0.0, math.inf)


def test_unit_circles_overlap():
    result = circle_intersection(Point(0, 0), 1.0, Point(1, 0), 1.0)
    assert len(result) == 2
    p, q = result
    assert p.x == pytest.approx(0.5, abs=1e-15)
    assert p.y == pytest.approx(0.8660254037844386, abs=1e-15)
    assert q.x == pytest.approx(0.5, abs=1e-15)
    assert q.y == pytest.approx(-0.8660254037844386, abs=1e-15)


def test_two_point_ordering_first_point_is_left_of_center_line():
    c1, c2 = Point(-2.0, 1.0), Point(1.5, -0.5)
    result = circle_intersection(c1, 3.0, c2, 2.0)
    assert len(result) == 2
    p, q = result
    assert side_of_line(p, c1, c2) > 0.0
    assert side_of_line(q, c1, c2) < 0.0


def test_external_tangency():
    result = circle_intersection(Point(0, 0), 1.0, Point(2, 0), 1.0)
    assert len(result) == 1
    (p,) = result
    assert p.x == pytest.approx(1.0, abs=1e-15)
    assert p.y == pytest.approx(0.0, abs=1e-15)


def test_internal_tangency():
    result = circle_intersection(Point(3, 0), 1.0, Point(1, 0), 3.0)
    assert len(result) == 1
    (p,) = result
    assert p.x == pytest.approx(4.0, abs=1e-14)
    assert p.y == pytest.approx(0.0, abs=1e-14)


def test_disjoint_circles():
    result = circle_intersection(Point(0, 0), 1.0, Point(5, 0), 1.0)
    assert result == ()
    # one circle nested inside the other
    nested = circle_intersection(Point(0, 0), 5.0, Point(1, 0), 1.0)
    assert nested == ()


def test_concentric_same_radius_is_coincident():
    # Coincident circles have no finite point list, so they get none.
    result = circle_intersection(Point(2, 2), 1.5, Point(2, 2), 1.5)
    assert result == ()


def test_concentric_different_radii_is_disjoint_not_error():
    result = circle_intersection(Point(2, 2), 1.0, Point(2, 2), 2.0)
    assert result == ()


def test_near_tangent_clamps_to_tangent():
    # center gap short of r1 + r2 by far less than tolerance
    result = circle_intersection(Point(0, 0), 1.0, Point(2 + 1e-13, 0), 1.0)
    assert len(result) == 1


def test_zero_radius_probe_circle():
    # a point-circle sitting on the other circle touches it
    result = circle_intersection(Point(1.0, 0.0), 0.0, Point(0, 0), 1.0)
    assert len(result) == 1
    assert result[0].distance(Point(1.0, 0.0)) < 1e-12


@given(
    x1=finite_coords, y1=finite_coords, r1=radii,
    x2=finite_coords, y2=finite_coords, r2=radii,
)
def test_intersection_points_lie_on_both_circles(x1, y1, r1, x2, y2, r2):
    c1, c2 = Point(x1, y1), Point(x2, y2)
    result = circle_intersection(c1, r1, c2, r2)
    scale = max(r1, r2, c1.distance(c2))
    for p in result:
        assert abs(p.distance(c1) - r1) <= 1e-7 * scale + 1e-9
        assert abs(p.distance(c2) - r2) <= 1e-7 * scale + 1e-9
    if len(result) == 2:
        p, q = result
        mirror = project_onto_line(p, c1, c2) * 2.0 - p
        assert mirror.distance(q) <= 1e-7 * scale + 1e-9


@given(
    x1=finite_coords, y1=finite_coords, r1=radii,
    x2=finite_coords, y2=finite_coords, r2=radii,
)
def test_intersection_symmetric_up_to_swap(x1, y1, r1, x2, y2, r2):
    c1, c2 = Point(x1, y1), Point(x2, y2)
    forward = circle_intersection(c1, r1, c2, r2)
    backward = circle_intersection(c2, r2, c1, r1)
    assert len(forward) == len(backward)
    scale = max(r1, r2, c1.distance(c2))
    for p in forward:
        assert min(p.distance(q) for q in backward) <= 1e-9 * scale + 1e-9


@given(
    angle=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
    dx=finite_coords,
    dy=finite_coords,
)
def test_intersection_rigid_motion_invariance(angle, dx, dy):
    c1, c2 = Point(0.0, 0.0), Point(2.5, 0.5)
    base = circle_intersection(c1, 2.0, c2, 1.5)
    shift = Point(dx, dy)
    moved = circle_intersection(rotated(c1, angle) + shift, 2.0, rotated(c2, angle) + shift, 1.5)
    assert len(moved) == len(base)
    for p, q in zip(base, moved):
        assert (rotated(p, angle) + shift).distance(q) < 1e-8


def test_point_line_distance_basic_and_rotated():
    p, a, b = Point(1, 1), Point(0, 0), Point(1, 0)
    assert point_line_distance(p, a, b) == pytest.approx(1.0, abs=1e-15)
    angle = math.pi / 6
    assert point_line_distance(
        rotated(p, angle), rotated(a, angle), rotated(b, angle)
    ) == pytest.approx(1.0, abs=1e-12)


def test_point_line_distance_degenerate_line():
    with pytest.raises(DegenerateLineError):
        point_line_distance(Point(1, 1), Point(0, 0), Point(0, 0))


def test_project_and_reflect():
    foot = project_onto_line(Point(3, 4), Point(0, 0), Point(1, 0))
    assert (foot.x, foot.y) == pytest.approx((3.0, 0.0))
    mirror = foot * 2.0 - Point(3, 4)
    assert (mirror.x, mirror.y) == pytest.approx((3.0, -4.0))


@pytest.mark.parametrize("scale", [1e-170, 1e154])
def test_line_and_angle_primitives_hold_where_squared_lengths_leave_the_float_range(scale):
    # Squares and products of two lengths underflow at 1e-170 and overflow at
    # 1e154; the primitives go through unit directions and never form them.
    tol = Tolerance(abs=1e-12 * scale)
    p, a, b = Point(3, 4) * scale, Point(0, 0), Point(1.6, 0) * scale
    foot = project_onto_line(p, a, b, tol)
    assert foot.distance(Point(3, 0) * scale) <= 1e-15 * scale
    assert point_line_distance(p, a, b, tol) == pytest.approx(4 * scale, rel=1e-15)
    assert angle_at(a, p, b, tol) == pytest.approx(math.atan2(4, 3), rel=1e-15)


def test_angle_at_pentagon_step():
    vertex = Point(0, 0)
    p = Point(2, 0)
    q = Point(2 * math.cos(math.tau / 5), 2 * math.sin(math.tau / 5))
    assert angle_at(vertex, p, q) == pytest.approx(math.tau / 5, abs=1e-12)


def test_angle_at_is_unsigned_and_capped_at_pi():
    vertex = Point(1, 1)
    assert angle_at(vertex, Point(2, 1), Point(0, 1)) == pytest.approx(math.pi)
    a = angle_at(vertex, Point(2, 1), Point(1, 0))
    b = angle_at(vertex, Point(1, 0), Point(2, 1))
    assert a == b == pytest.approx(math.pi / 2)


def test_angle_at_degenerate_ray():
    with pytest.raises(DegenerateRayError):
        angle_at(Point(0, 0), Point(0, 0), Point(1, 0))


@given(
    scale=st.floats(min_value=0.01, max_value=1000.0, allow_nan=False),
    angle=st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
)
def test_angle_at_scale_and_rotation_invariant(scale, angle):
    vertex = Point(0.5, -0.25)
    p = Point(1.5, 0.75)
    q = Point(-0.5, 0.35)
    base = angle_at(vertex, p, q)
    moved = angle_at(
        rotated(vertex, angle),
        rotated(vertex + (p - vertex) * scale, angle),
        rotated(vertex + (q - vertex) * scale, angle),
    )
    assert moved == pytest.approx(base, abs=1e-9)


@given(theta=st.floats(min_value=-1000.0, max_value=1000.0, allow_nan=False))
def test_wrap_angle_range_and_consistency(theta):
    wrapped = wrap_angle(theta)
    assert -math.pi < wrapped <= math.pi
    assert math.cos(wrapped) == pytest.approx(math.cos(theta), abs=1e-9)
    assert math.sin(wrapped) == pytest.approx(math.sin(theta), abs=1e-9)


def fraction_collinear(o1, o2, a):
    """The plain exact test: the cross product of O2 - O1 and A - O1 in fractions is 0."""
    x1, y1 = Fraction(o1.x), Fraction(o1.y)
    return (Fraction(o2.x) - x1) * (Fraction(a.y) - y1) == (Fraction(o2.y) - y1) * (Fraction(a.x) - x1)


def collinearity_cases(rng, scale):
    """Random triples at ``scale``, triples on O1 O2 by construction, and their
    one-ulp perturbations."""
    def coord():
        return rng.uniform(-1.0, 1.0) * scale

    o1, o2, a = (Point(coord(), coord()) for _ in range(3))
    yield o1, o2, a
    k = rng.randint(-2, 2)
    on_line = Point(o1.x + k * (o2.x - o1.x), o1.y + k * (o2.y - o1.y))
    yield o1, o2, on_line
    for x, y in ((math.nextafter(on_line.x, math.inf), on_line.y),
                 (on_line.x, math.nextafter(on_line.y, -math.inf))):
        yield o1, o2, Point(x, y)
    # Integers times a power of two: collinear in exact arithmetic as well.
    step = 2.0 ** math.floor(math.log2(scale))
    i1, i2 = (Point(rng.randint(-4, 4) * step, rng.randint(-4, 4) * step) for _ in range(2))
    exact = Point(i1.x + k * (i2.x - i1.x), i1.y + k * (i2.y - i1.y))
    yield i1, i2, exact
    yield i1, i2, Point(math.nextafter(exact.x, math.inf), exact.y)
    # On a line through 0 with O1 a hair off 0: the differences round, so the
    # float cross product can miss 0 although the exact one is 0.
    p, q = rng.randint(1, 9), rng.randint(1, 9)
    hair = 2.0 ** -rng.randint(40, 60) * step
    yield (Point(q * hair, p * hair), Point(q * 0.25 * step, p * 0.25 * step),
           Point(-q * 0.125 * rng.randint(1, 7) * step, -p * 0.125 * rng.randint(1, 7) * step))


def test_exactly_collinear_agrees_with_fractions():
    rng = random.Random(32)
    scales = [10.0 ** e for e in range(-320, 308, 7)] + [1e-320, 1e-160, 1e-155, 1e154, 1e307]
    checked = collinear = 0
    for scale in scales:
        for _ in range(25):
            for o1, o2, a in collinearity_cases(rng, scale):
                want = fraction_collinear(o1, o2, a)
                assert exactly_collinear(o1, o2, a) is want, (o1, o2, a)
                checked += 1
                collinear += want
    # Both answers occur often enough for the comparison to mean something.
    assert checked > 15_000 and 0.2 < collinear / checked < 0.6


def test_exactly_collinear_edge_cases():
    origin = Point(0.0, 0.0)
    assert exactly_collinear(origin, origin, Point(1.0, 2.0))
    assert exactly_collinear(Point(1.0, 1.0), Point(3.0, 3.0), Point(-5.0, -5.0))
    # On y = 7x, but O2 - O1 and A - O1 round: the float cross product is not 0.
    o1, o2, a = Point(2.0 ** -49, 7 * 2.0 ** -49), Point(10.0, 70.0), Point(-16.0, -112.0)
    assert side_of_line(a, o1, o2) != 0.0
    assert exactly_collinear(o1, o2, a)
    # Products that underflow to 0 in floats, and differences that overflow to inf.
    tiny = 5e-324
    assert not exactly_collinear(origin, Point(tiny, 0.0), Point(0.0, tiny))
    assert exactly_collinear(origin, Point(tiny, tiny), Point(2 * tiny, 2 * tiny))
    huge = 1.7e308
    assert not exactly_collinear(Point(-huge, -huge), Point(huge, 0.0), Point(huge, huge))
    assert exactly_collinear(Point(-huge, -huge), Point(huge, huge), origin)
