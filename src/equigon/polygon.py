"""Regular polygons: vertex generation and the constructions used everywhere else.

A polygon is stored as (n, centroid, circumradius, phase, orientation); vertex k
(1-based) sits at angle ``phase + orientation * 2*pi*(k-1)/n`` on the
circumcircle.  Orientation +1 walks the vertices counter-clockwise, -1
clockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geom import (
    DEFAULT_TOLERANCE,
    Circle,
    GeometryError,
    Point,
    Tolerance,
    wrap_angle,
)


class InvalidVertexCountError(GeometryError):
    pass


class InvalidRadiusError(GeometryError):
    pass


class CoincidentVertexCentroidError(GeometryError):
    pass


class DegenerateSideError(GeometryError):
    pass


class NotOnCircumcircleError(GeometryError):
    pass


@dataclass(frozen=True)
class RegularPolygon:
    n: int
    centroid: Point
    circumradius: float
    phase: float = 0.0
    orientation: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or self.n < 3:
            raise InvalidVertexCountError(f"need an integer n >= 3, got {self.n!r}")
        _check_radius(self.circumradius)
        if self.orientation not in (1, -1):
            raise GeometryError(f"orientation must be +1 or -1, got {self.orientation!r}")
        if not math.isfinite(self.phase):
            raise GeometryError(f"phase must be finite, got {self.phase}")
        object.__setattr__(self, "phase", wrap_angle(self.phase))

    @property
    def circumcircle(self) -> Circle:
        return Circle(self.centroid, self.circumradius)

    def vertex_angle(self, k: int) -> float:
        """Angular position of vertex k (1-based) around the centroid."""
        if not 1 <= k <= self.n:
            raise IndexError(f"vertex index {k} outside 1..{self.n}")
        return self.phase + self.orientation * math.tau * (k - 1) / self.n

    def vertex(self, k: int) -> Point:
        """Vertex k (1-based): read from the cache once ``vertices()`` has filled it."""
        cached = self.__dict__.get("_vertices")
        if cached is not None and 1 <= k <= self.n:
            return cached[k - 1]
        theta, centre, radius = self.vertex_angle(k), self.centroid, self.circumradius
        return Point(centre.x + radius * math.cos(theta), centre.y + radius * math.sin(theta))

    def vertices(self) -> tuple[Point, ...]:
        """Vertices 1..n, computed once and kept outside the dataclass fields,
        so equality, hashing and ``dataclasses.replace`` never see the cache."""
        cached = self.__dict__.get("_vertices")
        if cached is None:
            # A list, not a generator: resized tuples would pile up in CPython's free lists.
            cached = tuple([self.vertex(k) for k in range(1, self.n + 1)])
            object.__setattr__(self, "_vertices", cached)
        return cached


def from_shared_vertex(
    a1: Point,
    centroid: Point,
    n: int,
    orientation: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> RegularPolygon:
    """The regular n-gon with the given centroid whose first vertex is ``a1``."""
    radius = a1.distance(centroid)
    if radius <= tol.bound(0.0):
        raise CoincidentVertexCentroidError("first vertex coincides with the centroid")
    phase = math.atan2(a1.y - centroid.y, a1.x - centroid.x)
    return RegularPolygon(n, centroid, radius, phase, orientation)


def _check_radius(radius: float) -> None:
    if not math.isfinite(radius) or radius <= 0.0:
        raise InvalidRadiusError(f"circumradius must be positive, got {radius}")


def _reject_non_finite(*coordinates: tuple[float, float]) -> None:
    """Raise the error ``Point`` raises for the first pair that is not finite."""
    for x, y in coordinates:
        Point(x, y)


def _circumcircle(
    a1x: float, a1y: float, anx: float, any_: float,
    cx: float, cy: float, length: float, side: int, tan: float, sin: float,
) -> tuple[float, float, float]:
    """Centroid x, y and circumradius of the n-gon on the edge ``an -> a1``.

    The one copy of the formula: the edge's difference ``(cx, cy) = an - a1``
    and its length ``hypot(cx, cy)``, checked by the caller, and ``tan`` and
    ``sin`` of ``pi / n``.  It keeps the checks that follow the arithmetic:
    a centroid that is not finite raises the error ``Point`` raises for the
    first step that left the float range, and a radius that is not finite
    raises ``InvalidRadiusError``.  The tests are comparisons, with a call
    only when one fails, since the apex sweep runs this twice per apex.
    """
    inverse = 1.0 / length
    ux, uy = cx * inverse, cy * inverse
    apothem = 0.5 * length / tan
    mx, my = 0.5 * (a1x + anx), 0.5 * (a1y + any_)
    ox, oy = -uy * side * apothem, ux * side * apothem
    x, y = mx + ox, my + oy
    if not (abs(x) < math.inf and abs(y) < math.inf):
        # Every non-finite step reaches the centroid; report the first, as Point would.
        _reject_non_finite((ux, uy), (mx, my), (ox, oy), (x, y))
    radius = 0.5 * length / sin
    if not 0.0 < radius < math.inf:
        _check_radius(radius)
    return x, y, radius


def _side_circumcircle(
    a1: Point, an: Point, n: int, side: int, tol: Tolerance
) -> tuple[float, float, float]:
    """Centroid x, y and circumradius of the n-gon on the closing edge ``an -> a1``.

    This is ``from_side``'s arithmetic in plain floats, the same operations in
    the same order, so the results are bit-identical to the ``Point`` version.
    It keeps every check, in the same order and with the same error, including
    the one ``Point`` makes of each intermediate's coordinates.  It checks the
    side, the edge, its length and n, then hands the rest to ``_circumcircle``;
    the apex sweep makes those checks once per base or once per apex and calls
    ``_circumcircle`` directly.
    """
    if side not in (1, -1):
        raise GeometryError(f"side must be +1 or -1, got {side!r}")
    cx, cy = an.x - a1.x, an.y - a1.y
    if not (math.isfinite(cx) and math.isfinite(cy)):
        _reject_non_finite((cx, cy))
    length = math.hypot(cx, cy)
    if length <= tol.bound(0.0):
        raise DegenerateSideError("side endpoints coincide")
    if not isinstance(n, int) or n < 3:
        raise InvalidVertexCountError(f"need an integer n >= 3, got {n!r}")
    angle = math.pi / n
    return _circumcircle(a1.x, a1.y, an.x, an.y, cx, cy, length, side, math.tan(angle), math.sin(angle))


def from_side(
    a1: Point,
    an: Point,
    n: int,
    side: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> RegularPolygon:
    """The regular n-gon having the segment from ``an`` to ``a1`` as its closing edge.

    Vertex 1 lands on ``a1`` and vertex n on ``an``.  ``side`` picks the
    half-plane containing the body: +1 means left of the directed segment
    ``a1 -> an``, -1 means right.  The centroid and radius come from
    ``_side_circumcircle``, and so from ``_circumcircle``; this adds the phase
    and the orientation, one ``atan2`` each.  The Bottema apex sweep needs
    only the centroid and radius: it checks n and takes ``tan`` and ``sin``
    of ``pi / n`` once per base, calls ``_circumcircle`` twice per apex, and
    replays ``_side_circumcircle`` for an apex that fails one of its tests.
    """
    x, y, radius = _side_circumcircle(a1, an, n, side, tol)
    phase = math.atan2(a1.y - y, a1.x - x)
    # Vertex n precedes vertex 1 by one step, so the signed angle from vertex 1
    # to vertex n fixes the orientation.
    step = wrap_angle(math.atan2(an.y - y, an.x - x) - phase)
    orientation = 1 if step < 0.0 else -1
    return RegularPolygon(n, Point(x, y), radius, phase, orientation)


def _antipode(
    x: float, y: float, radius: float, p: Point, tol: Tolerance
) -> tuple[float, float]:
    """``diametric_opposite`` in plain floats, for the circle at (x, y)."""
    distance = math.hypot(p.x - x, p.y - y)
    if not tol.eq_at(distance, radius, radius):
        raise NotOnCircumcircleError(
            f"point at distance {distance} from centroid is not on the "
            f"circumcircle of radius {radius}"
        )
    dx, dy = x * 2.0 - p.x, y * 2.0 - p.y
    if not (math.isfinite(dx) and math.isfinite(dy)):
        _reject_non_finite((x * 2.0, y * 2.0), (dx, dy))
    return dx, dy


def diametric_opposite(
    poly: RegularPolygon, p: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> Point:
    """Antipode of ``p`` on the circumcircle: the reflection through the centroid."""
    centre = poly.centroid
    return Point(*_antipode(centre.x, centre.y, poly.circumradius, p, tol))
