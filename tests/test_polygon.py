import dataclasses
import math
import re

import pytest
from hypothesis import example, given, strategies as st

from equigon.bottema import BottemaResult, _angle_labels, vertex_angles
from equigon.checks import CheckResult
from equigon.equalizer import Locus, MatchKind, PairCase, align_rotation, correspondence
from equigon.geom import DEFAULT_TOLERANCE, GeometryError, Point, Tolerance, side_of_line, wrap_angle
from equigon.polygon import (
    RegularPolygon,
    diametric_opposite,
    from_shared_vertex,
    from_side,
    turns,
)
from equigon.power_sums import distances_squared, verify_power_sum_identity
from equigon.runner import Report, _probe_locus


def assert_point(p: Point, x: float, y: float, tol: float = 1e-12):
    assert p.x == pytest.approx(x, abs=tol)
    assert p.y == pytest.approx(y, abs=tol)


RECORDS = [
    (Point, {"x": 1.5, "y": -2.0}),
    (CheckResult, {"name": "c", "ok": False, "residual": 0.25, "tolerance": 0.125, "vacuous": True, "detail": "d"}),
    (RegularPolygon, {"n": 5, "centroid": Point(1.0, 2.0), "circumradius": 3.0, "phase": 0.5, "orientation": -1}),
]


@pytest.mark.parametrize("cls, values", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_stay_frozen_dataclasses(cls, values):
    # Each record writes out its __init__ and must still behave as a frozen dataclass.
    record = cls(**values)
    assert [field.name for field in dataclasses.fields(cls)] == list(values)
    assert dataclasses.asdict(record) == dataclasses.asdict(cls(*values.values()))
    assert record == cls(*values.values()) and hash(record) == hash(cls(*values.values()))
    assert repr(record) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in values.items())})"
    for name, value in values.items():
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, value)
    assert dataclasses.replace(record) == record


def test_record_defaults_and_replace_revalidates():
    assert CheckResult("c", True, 0.0, 1.0) == CheckResult("c", True, 0.0, 1.0, False, "")
    assert RegularPolygon(4, Point(0.0, 0.0), 1.0) == RegularPolygon(4, Point(0.0, 0.0), 1.0, 0.0, 1)
    with pytest.raises(GeometryError, match=re.escape("coordinates must be finite, got (inf, -2.0)")):
        dataclasses.replace(Point(1.5, -2.0), x=math.inf)
    poly = RegularPolygon(5, Point(1.0, 2.0), 3.0, 0.5, -1)
    assert dataclasses.replace(poly, phase=7 * math.pi).phase == wrap_angle(7 * math.pi) == math.pi
    with pytest.raises(GeometryError, match=r"^circumradius must be positive, got -1\.0$"):
        dataclasses.replace(poly, circumradius=-1.0)
    # The coordinate cache stays outside the fields.
    poly.coordinates()
    assert poly == RegularPolygon(5, Point(1.0, 2.0), 3.0, 0.5, -1) and "_coordinates" not in dataclasses.asdict(poly)
    assert "_coordinates" not in dataclasses.replace(poly).__dict__


def test_polygon_validates_in_order():
    origin = Point(0.0, 0.0)
    with pytest.raises(GeometryError, match="^need an integer n >= 3, got 2$"):
        RegularPolygon(2, origin, -1.0, math.inf, 2)
    with pytest.raises(GeometryError, match=r"^circumradius must be positive, got -1\.0$"):
        RegularPolygon(4, origin, -1.0, math.inf, 2)
    with pytest.raises(GeometryError, match="^orientation must be"):
        RegularPolygon(4, origin, 1.0, math.inf, 2)
    with pytest.raises(GeometryError, match="^phase must be finite, got inf$"):
        RegularPolygon(4, origin, 1.0, math.inf, 1)


def test_turn_and_label_tables_keep_their_bound():
    for table in (turns, _angle_labels):
        table.cache_clear()
        bound = table.cache_info().maxsize
        for n in range(3, 3 + bound + 10):
            table(n)
        assert table.cache_info().currsize == bound
    assert [turn.hex() for turn in turns(7)] == [(math.tau * k / 7).hex() for k in range(7)]


def test_constructor_validation():
    with pytest.raises(GeometryError, match="^need an integer n >= 3, got 2$"):
        RegularPolygon(2, Point(0, 0), 1.0)
    with pytest.raises(GeometryError, match=r"^circumradius must be positive, got 0\.0$"):
        RegularPolygon(4, Point(0, 0), 0.0)
    with pytest.raises(GeometryError, match=r"^circumradius must be positive, got -1\.0$"):
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
    # Side 2 R sin(pi / n) and apothem R cos(pi / n), from the vertices.
    assert vs[0].distance(vs[1]) == pytest.approx(math.sqrt(2.0))
    assert Point(0, 0).distance(vs[0].midpoint(vs[1])) == pytest.approx(math.sqrt(0.5))


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
    assert list(vs) == unfilled
    for k in range(1, poly.n + 1):
        theta = poly.phase + poly.orientation * math.tau * (k - 1) / poly.n
        assert vs[k - 1] == Point(
            poly.centroid.x + poly.circumradius * math.cos(theta),
            poly.centroid.y + poly.circumradius * math.sin(theta),
        )


def vertices_by_angle(poly: RegularPolygon) -> list[tuple[str, str]]:
    """Oracle: vertex k from ``vertex_angle(k)`` as ``vertex`` computes it, in ``float.hex``."""
    centre, radius = poly.centroid, poly.circumradius
    out = []
    for k in range(1, poly.n + 1):
        theta = poly.vertex_angle(k)
        out.append(((centre.x + radius * math.cos(theta)).hex(), (centre.y + radius * math.sin(theta)).hex()))
    return out


def every_polygon(test):
    """Run ``test(n, phase, orientation, radius, cx, cy)`` over polygons of every size and scale."""
    test = example(3, -math.pi, 1, 1e300, 1e300, -1e300)(test)
    test = example(2047, math.pi, -1, 1e-3, 0.3, 0.7)(test)
    test = example(2048, -7.5 * math.pi, -1, 2.5, 1e3, -1e3)(test)
    test = example(2048, 7.5 * math.pi, 1, 1.0, 0.0, 0.0)(test)
    return given(
        st.integers(3, 2048),
        st.floats(-1e6, 1e6),
        st.sampled_from((1, -1)),
        st.floats(1e-300, 1e300),
        st.floats(-1e300, 1e300),
        st.floats(-1e300, 1e300),
    )(test)


@every_polygon
def test_vertices_match_vertex_angle_bit_for_bit(n, phase, orientation, radius, cx, cy):
    poly = RegularPolygon(n, Point(cx, cy), radius, phase, orientation)
    assert [(v.x.hex(), v.y.hex()) for v in poly.vertices()] == vertices_by_angle(poly)


@every_polygon
def test_coordinates_match_vertex_angle_bit_for_bit(n, phase, orientation, radius, cx, cy):
    poly = RegularPolygon(n, Point(cx, cy), radius, phase, orientation)
    xs, ys = poly.coordinates()
    assert poly.coordinates() == (xs, ys)
    assert [(x.hex(), y.hex()) for x, y in zip(xs, ys)] == vertices_by_angle(poly)


# Vertices 1..10 and 56..64 of ``right_edge()`` leave the float range, and those
# around angle pi of ``left_edge()``; ``inside()`` stays inside it.  A polygon
# checks its coordinates once, so every consumer raises the overflow error of
# the first polygon it reads that leaves the range, naming that polygon's
# first such vertex.
def right_edge():
    return RegularPolygon(64, Point(1.5e308, 0.0), 5e307)


def left_edge():
    return RegularPolygon(64, Point(-1.5e308, 0.0), 5e307)


def inside():
    return RegularPolygon(64, Point(1.4e308, 1e307), 1e307)


def bottema_result(poly1, poly2, m1=Point(0.0, 0.0)):
    origin = Point(0.0, 0.0)
    return BottemaResult(poly1, poly2, origin, origin, origin, origin, origin, m1, origin, origin, False,
                         PairCase.NON_CONGRUENT, False)


PROBE = Point(1e308, 1e307)
RIGHT_1 = "vertex 1 overflows the float range: (inf, 0.0)"
LEFT = "vertex 24 overflows the float range: (-inf, 3.8650522668136856e+307)"
OVERFLOWING = [
    ("vertices-right", lambda: right_edge().vertices(), GeometryError, RIGHT_1),
    ("vertices-left", lambda: left_edge().vertices(), GeometryError, LEFT),
    ("distances_squared-right", lambda: distances_squared(right_edge(), PROBE), GeometryError, RIGHT_1),
    ("distances_squared-left", lambda: distances_squared(left_edge(), PROBE), GeometryError, LEFT),
    ("identity-right", lambda: verify_power_sum_identity(right_edge(), PROBE), GeometryError, RIGHT_1),
    ("identity-left", lambda: verify_power_sum_identity(left_edge(), Point(0.0, 0.0)), GeometryError, LEFT),
    ("correspondence-first", lambda: correspondence(right_edge(), left_edge(), PROBE), GeometryError, RIGHT_1),
    ("correspondence-second", lambda: correspondence(inside(), left_edge(), PROBE), GeometryError, LEFT),
    ("probe_locus", lambda: _probe_locus(
        Report(None), RegularPolygon(64, Point(8e307, 0.0), 1e308), RegularPolygon(64, Point(8e307, 1e307), 1e308),
        Locus.PERPENDICULAR_BISECTOR, 0, DEFAULT_TOLERANCE), GeometryError, RIGHT_1),
    # vertex_angles reads the first polygon's coordinates before the second's.
    ("vertex_angles-second", lambda: vertex_angles(bottema_result(left_edge(), right_edge())), GeometryError, LEFT),
    ("vertex_angles-first", lambda: vertex_angles(bottema_result(right_edge(), left_edge())), GeometryError, RIGHT_1),
    ("vertex_angles-ray", lambda: vertex_angles(bottema_result(
        RegularPolygon(5, Point(0.0, 0.0), 1.0), RegularPolygon(5, Point(0.0, 1.0), 1.0),
        RegularPolygon(5, Point(0.0, 0.0), 1.0).vertex(3))),
     GeometryError, "angle ray endpoint coincides with the vertex"),
]


@pytest.mark.parametrize("name, call, error, message", OVERFLOWING, ids=[case[0] for case in OVERFLOWING])
def test_overflowing_vertices_raise_the_first_vertex_error(name, call, error, message):
    with pytest.raises(GeometryError) as excinfo:
        call()
    assert (type(excinfo.value), str(excinfo.value)) == (error, message)


def test_finite_vertex_of_an_overflowing_polygon():
    # Vertex 33 is finite, but the polygon's coordinates are checked as a
    # whole, so reading it raises vertex 1's error.
    poly = right_edge()
    for read in (poly.coordinates, lambda: poly.vertex(33), lambda: poly.vertex(1)):
        with pytest.raises(GeometryError, match=f"^{re.escape(RIGHT_1)}$"):
            read()


def test_finite_coordinates_whose_sum_overflows_raise_nothing():
    # Every coordinate is finite, but their sum is not: the check must look
    # at each coordinate, not only at the sum.
    poly = RegularPolygon(64, Point(1.7e308, 0.0), 1e300)
    xs, ys = poly.coordinates()
    assert sum(xs) == math.inf and all(map(math.isfinite, xs + ys))
    assert len(distances_squared(poly, poly.centroid)) == 64
    assert correspondence(poly, poly, poly.centroid).kind is MatchKind.IDENTITY


def test_derived_polygons_get_their_own_vertices():
    poly = RegularPolygon(6, Point(1.0, 2.0), 1.5, phase=0.2)
    poly.vertices()
    probe = Point(3.0, 2.5)
    derived = [
        rotate_about_centroid(poly, 0.3),
        dataclasses.replace(poly, centroid=Point(-1.0, 0.0)),
        dataclasses.replace(poly, n=8),
        *align_rotation(RegularPolygon(6, Point(4.0, 1.0), 1.0, phase=0.5), poly, probe),
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
    with pytest.raises(GeometryError, match="^first vertex coincides with the centroid$"):
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
            assert side_length(poly) == pytest.approx(a1.distance(an))


def test_from_side_degenerate():
    with pytest.raises(GeometryError, match="^side endpoints coincide$"):
        from_side(Point(1, 1), Point(1, 1), 4, 1)


# Near the ends of the float range one step of the construction overflows.
# The edge is checked where it is formed; every later step reaches the
# circumcircle, whose error names the centroid and radius it got.
# (name, a1, an, n, side, tolerance, error, message)
OVERFLOWS = [
    ("edge", Point(-1.5e308, 0.0), Point(1.5e308, 1.0), 4, 1, Tolerance(),
     GeometryError, "edge overflows the float range: (inf, 1.0)"),
    ("direction", Point(0.0, 0.0), Point(3e-321, 0.0), 4, 1, Tolerance(abs=5e-324),
     GeometryError, "circumcircle overflows the float range: centroid (nan, inf), radius 2.124e-321"),
    ("edge-midpoint", Point(8.5e307, -8.5e307), Point(1.7e308, -8.5e307), 3, 1, Tolerance(),
     GeometryError, "circumcircle overflows the float range: "
     "centroid (inf, -6.046261355944091e+307), radius 4.907477288111819e+307"),
    ("apothem-offset", Point(2.5e307, 2.5e307), Point(0.0, -5e307), 2048, 1, Tolerance(),
     GeometryError, "circumcircle overflows the float range: centroid (inf, -inf), radius inf"),
    ("centroid", Point(1.7e308, 0.0), Point(1.7e308, 1e307), 64, -1, Tolerance(),
     GeometryError, "circumcircle overflows the float range: centroid (inf, 5e+306), radius 1.0190008123548057e+308"),
    ("radius", Point(-0.8e308, 0.0), Point(0.8e308, 0.0), 7, 1, Tolerance(),
     GeometryError, "circumcircle overflows the float range: centroid (0.0, 1.6612171172578688e+308), radius inf"),
]


@pytest.mark.parametrize("name, a1, an, n, side, tol, error, message", OVERFLOWS,
                         ids=[case[0] for case in OVERFLOWS])
def test_from_side_names_the_step_that_overflows(name, a1, an, n, side, tol, error, message):
    with pytest.raises(GeometryError) as excinfo:
        from_side(a1, an, n, side, tol)
    assert type(excinfo.value) is error
    assert str(excinfo.value) == message


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


def side_length(poly):
    return 2.0 * poly.circumradius * math.sin(math.pi / poly.n)


def rotate_about_centroid(poly, delta):
    """The polygon turned by ``delta`` about its centroid."""
    return dataclasses.replace(poly, phase=poly.phase + delta)


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
        assert gap == pytest.approx(side_length(poly), abs=1e-12)


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
