"""Tolerance-aware planar primitives.

Everything downstream is built from the types here: finite points, a
combined relative/absolute tolerance, and the circle-circle intersection
kernel, which takes two centres and two radii and orders its two points by
side, an order the equal-distance solve of a pair relies on.
``exactly_collinear`` decides without rounding whether a point lies on a line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


class GeometryError(ValueError):
    """A geometric precondition was violated."""


@dataclass(frozen=True)
class Tolerance:
    """Comparison policy: u matches v iff ``|u - v| <= abs + rel * max(|u|, |v|)``."""

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.rel) and self.rel > 0.0):
            raise ValueError(f"rel must be a positive finite float, got {self.rel}")
        if not (math.isfinite(self.abs) and self.abs > 0.0):
            raise ValueError(f"abs must be a positive finite float, got {self.abs}")

    def bound(self, scale: float = 1.0) -> float:
        """Absolute slack allowed for quantities of the given magnitude."""
        return self.abs + self.rel * abs(scale)

    def eq(self, u: float, v: float) -> bool:
        return abs(u - v) <= self.abs + self.rel * max(abs(u), abs(v))

    def eq_at(self, u: float, v: float, scale: float) -> bool:
        """Equality judged against an externally supplied magnitude."""
        return abs(u - v) <= self.bound(scale)

    def is_zero(self, u: float, scale: float = 0.0) -> bool:
        return abs(u) <= self.bound(scale)


DEFAULT_TOLERANCE = Tolerance()


@dataclass(frozen=True)
class Point:
    """A point (or free vector) in the plane with finite coordinates.

    ``__init__`` is written out to check and store both fields in one step, not
    one ``object.__setattr__`` each and then a ``__post_init__`` call."""

    x: float
    y: float

    def __init__(self, x: float, y: float) -> None:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise GeometryError(f"coordinates must be finite, got ({x}, {y})")
        self.__dict__.update(x=x, y=y)

    def __add__(self, other: Point) -> Point:
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other: Point) -> Point:
        return Point(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> Point:
        return Point(self.x * scalar, self.y * scalar)

    def dot(self, other: Point) -> float:
        return self.x * other.x + self.y * other.y

    def cross(self, other: Point) -> float:
        return self.x * other.y - self.y * other.x

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def distance(self, other: Point) -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def distance_squared(self, other: Point) -> float:
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def midpoint(self, other: Point) -> Point:
        return Point(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))

    def perpendicular(self) -> Point:
        """This vector rotated a quarter turn counter-clockwise."""
        return Point(-self.y, self.x)


def wrap_angle(theta: float) -> float:
    """Map an angle to the interval (-pi, pi]."""
    wrapped = math.remainder(theta, math.tau)
    if wrapped <= -math.pi:
        wrapped += math.tau
    return wrapped


def circle_intersection(
    c1: Point, r1: float, c2: Point, r2: float, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[Point, ...]:
    """Intersect the circle of radius ``r1`` about ``c1`` with the one of radius
    ``r2`` about ``c2``, resolving near-tangency onto the tangent case.

    The package passes circumradii, which ``RegularPolygon`` has checked.
    Writing d for the center distance, the result is two points exactly when
    ``|r1 - r2| < d < r1 + r2`` beyond tolerance, the first strictly to the
    left of the directed line from ``c1`` to ``c2``; equalities within
    tolerance yield a single tangent point on the center line.  Concentric
    circles, coincident or not, have no points.
    """
    d = c1.distance(c2)
    scale = max(r1, r2, d)
    if tol.is_zero(d, scale):
        return ()
    along = (c2 - c1) * (1.0 / d)
    # Abscissa of the chord's midpoint, measured from the first center.  At a
    # boundary contact this lands exactly on the tangent point.
    a = (r1 * r1 - r2 * r2 + d * d) / (2.0 * d)
    if tol.eq(d, r1 + r2) or tol.eq(d, abs(r1 - r2)):
        return (c1 + along * a,)
    if d > r1 + r2 or d < abs(r1 - r2):
        return ()
    half_chord = math.sqrt(max(r1 * r1 - a * a, 0.0))
    base = c1 + along * a
    offset = along.perpendicular() * half_chord
    return (base + offset, base - offset)


def _unit_direction(a: Point, b: Point, tol: Tolerance) -> Point:
    """The unit vector from ``a`` toward ``b``.  It divides by the ``math.hypot``
    length, so no squared length or product of lengths leaves the float range."""
    direction = b - a
    length = direction.norm()
    if length <= tol.bound(0.0):
        raise GeometryError("line endpoints coincide")
    return Point(direction.x / length, direction.y / length)


def point_line_distance(
    point: Point, a: Point, b: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Distance from ``point`` to the infinite line through ``a`` and ``b``."""
    return abs(_unit_direction(a, b, tol).cross(point - a))


def project_onto_line(
    point: Point, a: Point, b: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> Point:
    """Foot of the perpendicular from ``point`` onto the line through ``a``, ``b``."""
    unit = _unit_direction(a, b, tol)
    return a + unit * (point - a).dot(unit)


def side_of_line(point: Point, a: Point, b: Point) -> float:
    """Signed doubled area; positive iff ``point`` is left of the directed line a->b."""
    return (b - a).cross(point - a)


# Shewchuk's orient2d filter (ccwerrboundA, 1997): when |left - right| exceeds
# this share of |left| + |right|, rounding cannot have moved the float cross
# product across 0, the rounded differences included.  The bound assumes no
# underflow; with a sum of at least _UNDERFLOW_FLOOR, an underflowed product's
# error (at most 2**-1075) is far below the bound's eps**2 * size slack.
_CCW_ERRBOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
_UNDERFLOW_FLOOR = 2.0 ** -900


def exactly_collinear(o1: Point, o2: Point, a: Point) -> bool:
    """Whether ``a`` lies on the line through ``o1`` and ``o2`` (true when o1 = o2),
    decided exactly on the float inputs.

    The float cross product answers "no" when its error bound clears 0; every
    other case, inf and NaN products included, is decided in fractions.
    """
    left = (o2.x - o1.x) * (a.y - o1.y)
    right = (o2.y - o1.y) * (a.x - o1.x)
    size = abs(left) + abs(right)
    if size >= _UNDERFLOW_FLOOR and abs(left - right) > _CCW_ERRBOUND * size:
        return False
    x1, y1 = Fraction(o1.x), Fraction(o1.y)
    return (Fraction(o2.x) - x1) * (Fraction(a.y) - y1) == (Fraction(o2.y) - y1) * (Fraction(a.x) - x1)


def angle_at(
    vertex: Point, p: Point, q: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Unsigned angle at ``vertex`` between rays toward ``p`` and ``q``, in [0, pi].

    The rays are scaled to unit length first, so their cross and dot products
    neither underflow nor overflow."""
    u = p - vertex
    v = q - vertex
    lu, lv = u.norm(), v.norm()
    if lu <= tol.bound(0.0) or lv <= tol.bound(0.0):
        raise GeometryError("angle ray endpoint coincides with the vertex")
    u, v = Point(u.x / lu, u.y / lu), Point(v.x / lv, v.y / lv)
    return math.atan2(abs(u.cross(v)), u.dot(v))
