import dataclasses
import math

import pytest
from hypothesis import given, strategies as st

from equigon.equalizer import align_rotation
from equigon.geom import Point, side_of_line
from equigon.polygon import (
    CoincidentVertexCentroidError,
    DegenerateSideError,
    InvalidRadiusError,
    InvalidVertexCountError,
    NotOnCircumcircleError,
    RegularPolygon,
    diametric_opposite,
    from_shared_vertex,
    from_side,
    rotate_about_centroid,
)


def assert_point(p: Point, x: float, y: float, tol: float = 1e-12):
    assert p.x == pytest.approx(x, abs=tol)
    assert p.y == pytest.approx(y, abs=tol)


def test_constructor_validation():
    with pytest.raises(InvalidVertexCountError):
        RegularPolygon(2, Point(0, 0), 1.0)
    with pytest.raises(InvalidRadiusError):
        RegularPolygon(4, Point(0, 0), 0.0)
    with pytest.raises(InvalidRadiusError):
        RegularPolygon(4, Point(0, 0), -1.0)
    with pytest.raises(Exception):
        RegularPolygon(4, Point(0, 0), 1.0, orientation=2)


def test_phase_normalized_into_half_open_interval():
    poly = RegularPolygon(5, Point(0, 0), 1.0, phase=7.0)
    assert -math.pi < poly.phase <= math.pi
    assert math.cos(poly.phase) == pytest.approx(math.cos(7.0))
    exact_pi = RegularPolygon(5, Point(0, 0), 1.0, phase=-math.pi)
    assert exact_pi.phase == pytest.approx(math.pi)


def test_square_vertices_and_side_length():
    poly = RegularPolygon(4, Point(0, 0), 1.0, phase=0.0, orientation=1)
    vs = poly.vertices()
    assert_point(vs[0], 1, 0)
    assert_point(vs[1], 0, 1)
    assert_point(vs[2], -1, 0)
    assert_point(vs[3], 0, -1)
    assert poly.side_length == pytest.approx(math.sqrt(2.0))
    assert poly.apothem == pytest.approx(math.sqrt(0.5))


def test_clockwise_orientation_reverses_walk():
    ccw = RegularPolygon(3, Point(0, 0), 2.0, phase=0.1, orientation=1)
    cw = RegularPolygon(3, Point(0, 0), 2.0, phase=0.1, orientation=-1)
    assert ccw.vertex(2).distance(cw.vertex(3)) < 1e-12
    assert ccw.vertex(3).distance(cw.vertex(2)) < 1e-12


def test_vertex_index_bounds():
    poly = RegularPolygon(4, Point(0, 0), 1.0)
    with pytest.raises(IndexError):
        poly.vertex(0)
    with pytest.raises(IndexError):
        poly.vertex(5)
    poly.vertices()
    with pytest.raises(IndexError):
        poly.vertex(0)
    with pytest.raises(IndexError):
        poly.vertex(5)


def test_vertices_cached_and_exact():
    poly = RegularPolygon(7, Point(0.3, -1.2), 2.5, phase=0.4, orientation=-1)
    unfilled = [poly.vertex(k) for k in range(1, poly.n + 1)]
    vs = poly.vertices()
    assert poly.vertices() is vs
    assert list(vs) == unfilled
    for k in range(1, poly.n + 1):
        assert poly.vertex(k) is vs[k - 1]
        theta = poly.phase + poly.orientation * math.tau * (k - 1) / poly.n
        assert vs[k - 1] == Point(
            poly.centroid.x + poly.circumradius * math.cos(theta),
            poly.centroid.y + poly.circumradius * math.sin(theta),
        )


def test_derived_polygons_get_their_own_vertices():
    poly = RegularPolygon(6, Point(1.0, 2.0), 1.5, phase=0.2)
    poly.vertices()
    probe = Point(3.0, 2.5)
    derived = [
        rotate_about_centroid(poly, 0.3),
        dataclasses.replace(poly, centroid=Point(-1.0, 0.0)),
        dataclasses.replace(poly, n=8),
        *align_rotation(poly, probe, 2.0),
    ]
    for other in derived:
        fresh = RegularPolygon(
            other.n, other.centroid, other.circumradius, other.phase, other.orientation
        )
        assert other.vertices() == fresh.vertices()
        assert other.vertices() != poly.vertices()


def test_filled_cache_keeps_equality_and_hash():
    poly = RegularPolygon(5, Point(0.5, 0.5), 1.0, phase=1.0)
    twin = RegularPolygon(5, Point(0.5, 0.5), 1.0, phase=1.0)
    poly.vertices()
    assert poly == twin
    assert hash(poly) == hash(twin)
    assert repr(poly) == repr(twin)


def test_from_shared_vertex_square():
    poly = from_shared_vertex(Point(0, 0), Point(1, 1), 4, 1)
    assert poly.circumradius == pytest.approx(math.sqrt(2.0))
    vs = poly.vertices()
    assert_point(vs[0], 0, 0)
    assert_point(vs[1], 2, 0)
    assert_point(vs[2], 2, 2)
    assert_point(vs[3], 0, 2)


def test_from_shared_vertex_rejects_coincident_input():
    with pytest.raises(CoincidentVertexCentroidError):
        from_shared_vertex(Point(1, 1), Point(1, 1), 4, 1)


def test_from_side_square_below():
    poly = from_side(Point(0, 0), Point(1, 0), 4, -1)
    assert_point(poly.centroid, 0.5, -0.5)
    vs = poly.vertices()
    assert_point(vs[0], 0, 0)
    assert_point(vs[3], 1, 0)
    xs = sorted(round(v.x, 9) for v in vs)
    ys = sorted(round(v.y, 9) for v in vs)
    assert xs == [0, 0, 1, 1]
    assert ys == [-1, -1, 0, 0]


def test_from_side_triangle_above():
    poly = from_side(Point(0, 0), Point(1, 0), 3, 1)
    assert_point(poly.centroid, 0.5, math.sqrt(3.0) / 6.0)
    assert poly.circumradius == pytest.approx(1.0 / math.sqrt(3.0))
    third = poly.vertex(2)
    assert_point(third, 0.5, math.sqrt(3.0) / 2.0)


def test_from_side_first_and_last_vertices_land_on_segment_ends():
    a1, an = Point(-0.3, 1.7), Point(2.2, 0.4)
    for n in (3, 4, 5, 6, 9):
        for side in (1, -1):
            poly = from_side(a1, an, n, side)
            assert poly.vertex(1).distance(a1) < 1e-12
            assert poly.vertex(n).distance(an) < 1e-12
            assert side_of_line(poly.centroid, a1, an) * side > 0.0
            assert poly.side_length == pytest.approx(a1.distance(an))


def test_from_side_degenerate():
    with pytest.raises(DegenerateSideError):
        from_side(Point(1, 1), Point(1, 1), 4, 1)


def test_rotate_about_centroid_full_step_is_identity():
    poly = RegularPolygon(5, Point(2, -1), 1.5, phase=0.3, orientation=-1)
    rotated = rotate_about_centroid(poly, math.tau / 5)
    original = sorted((round(v.x, 9), round(v.y, 9)) for v in poly.vertices())
    moved = sorted((round(v.x, 9), round(v.y, 9)) for v in rotated.vertices())
    assert original == moved


def test_diametric_opposite_square():
    poly = from_shared_vertex(Point(0, 0), Point(1, 1), 4, 1)
    opposite = diametric_opposite(poly, Point(0, 0))
    assert_point(opposite, 2, 2)


def test_diametric_opposite_rejects_off_circle_point():
    poly = RegularPolygon(4, Point(0, 0), 1.0)
    with pytest.raises(NotOnCircumcircleError):
        diametric_opposite(poly, Point(0.5, 0.0))


ns = st.integers(min_value=3, max_value=12)
phases = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
orientations = st.sampled_from([1, -1])


@given(n=ns, phase=phases, orientation=orientations)
def test_vertices_are_equally_spaced_on_circumcircle(n, phase, orientation):
    poly = RegularPolygon(n, Point(0.5, -0.3), 2.0, phase, orientation)
    vs = poly.vertices()
    for v in vs:
        assert v.distance(poly.centroid) == pytest.approx(2.0, abs=1e-12)
    for i in range(n):
        gap = vs[i].distance(vs[(i + 1) % n])
        assert gap == pytest.approx(poly.side_length, abs=1e-12)


@given(n=ns, phase=phases, orientation=orientations)
def test_diametric_opposite_is_involution(n, phase, orientation):
    poly = RegularPolygon(n, Point(1.0, 2.0), 1.25, phase, orientation)
    v = poly.vertex(1 + n // 2)
    assert diametric_opposite(poly, diametric_opposite(poly, v)).distance(v) < 1e-12


@given(n=ns, phase=phases, orientation=orientations, k=st.integers(min_value=1, max_value=12))
def test_shared_vertex_construction_pins_first_vertex(n, phase, orientation, k):
    centroid = Point(0.4, -1.2)
    poly = RegularPolygon(n, centroid, 1.5, phase, orientation)
    anchor = poly.vertex(1 + (k - 1) % n)
    rebuilt = from_shared_vertex(anchor, centroid, n, orientation)
    assert rebuilt.vertex(1).distance(anchor) < 1e-12
    assert rebuilt.circumradius == pytest.approx(1.5, abs=1e-12)
