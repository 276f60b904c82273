"""Tolerance-aware planar primitives.

Everything downstream is built from the types here: finite points, a
combined relative/absolute tolerance, and the circle-circle intersection
kernel, which takes two centres and two radii and orders its two points by
side, an order the equal-distance solve of a pair relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class GeometryError(ValueError):
    """A geometric precondition was violated."""


class DegenerateLineError(GeometryError):
    pass


class DegenerateRayError(GeometryError):
    pass


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
    """A point (or free vector) in the plane with finite coordinates."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise GeometryError(f"coordinates must be finite, got ({self.x}, {self.y})")

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


def point_line_distance(
    point: Point, a: Point, b: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Distance from ``point`` to the infinite line through ``a`` and ``b``."""
    direction = b - a
    length = direction.norm()
    if length <= tol.bound(0.0):
        raise DegenerateLineError("line endpoints coincide")
    return abs(direction.cross(point - a)) / length


def project_onto_line(
    point: Point, a: Point, b: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> Point:
    """Foot of the perpendicular from ``point`` onto the line through ``a``, ``b``."""
    direction = b - a
    length_sq = direction.dot(direction)
    if math.sqrt(length_sq) <= tol.bound(0.0):
        raise DegenerateLineError("line endpoints coincide")
    t = (point - a).dot(direction) / length_sq
    return a + direction * t


def side_of_line(point: Point, a: Point, b: Point) -> float:
    """Signed doubled area; positive iff ``point`` is left of the directed line a->b."""
    return (b - a).cross(point - a)


def angle_at(
    vertex: Point, p: Point, q: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> float:
    """Unsigned angle at ``vertex`` between rays toward ``p`` and ``q``, in [0, pi]."""
    u = p - vertex
    v = q - vertex
    if u.norm() <= tol.bound(0.0) or v.norm() <= tol.bound(0.0):
        raise DegenerateRayError("angle ray endpoint coincides with the vertex")
    return math.atan2(abs(u.cross(v)), u.dot(v))
