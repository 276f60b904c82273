"""Regular polygons: vertex generation and the constructions used everywhere else.

A polygon is stored as (n, centroid, circumradius, phase, orientation); vertex k
(1-based) sits at angle ``phase + orientation * 2*pi*(k-1)/n`` on the
circumcircle.  Orientation +1 walks the vertices counter-clockwise, -1
clockwise.
"""

from __future__ import annotations

import dataclasses
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
        if not math.isfinite(self.circumradius) or self.circumradius <= 0.0:
            raise InvalidRadiusError(f"circumradius must be positive, got {self.circumradius}")
        if self.orientation not in (1, -1):
            raise GeometryError(f"orientation must be +1 or -1, got {self.orientation!r}")
        if not math.isfinite(self.phase):
            raise GeometryError(f"phase must be finite, got {self.phase}")
        object.__setattr__(self, "phase", wrap_angle(self.phase))

    @property
    def side_length(self) -> float:
        return 2.0 * self.circumradius * math.sin(math.pi / self.n)

    @property
    def apothem(self) -> float:
        return self.circumradius * math.cos(math.pi / self.n)

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
    ``a1 -> an``, -1 means right.
    """
    if side not in (1, -1):
        raise GeometryError(f"side must be +1 or -1, got {side!r}")
    chord = an - a1
    length = chord.norm()
    if length <= tol.bound(0.0):
        raise DegenerateSideError("side endpoints coincide")
    if not isinstance(n, int) or n < 3:
        raise InvalidVertexCountError(f"need an integer n >= 3, got {n!r}")
    along = chord * (1.0 / length)
    normal = along.perpendicular() * side
    apothem = 0.5 * length / math.tan(math.pi / n)
    centroid = a1.midpoint(an) + normal * apothem
    radius = 0.5 * length / math.sin(math.pi / n)
    phase = math.atan2(a1.y - centroid.y, a1.x - centroid.x)
    # Vertex n precedes vertex 1 by one step, so the signed angle from vertex 1
    # to vertex n fixes the orientation.
    step = wrap_angle(math.atan2(an.y - centroid.y, an.x - centroid.x) - phase)
    orientation = 1 if step < 0.0 else -1
    return RegularPolygon(n, centroid, radius, phase, orientation)


def rotate_about_centroid(poly: RegularPolygon, delta: float) -> RegularPolygon:
    if not math.isfinite(delta):
        raise GeometryError(f"rotation angle must be finite, got {delta}")
    return dataclasses.replace(poly, phase=wrap_angle(poly.phase + delta))


def diametric_opposite(
    poly: RegularPolygon, p: Point, tol: Tolerance = DEFAULT_TOLERANCE
) -> Point:
    """Antipode of ``p`` on the circumcircle: the reflection through the centroid."""
    distance = p.distance(poly.centroid)
    if not tol.eq_at(distance, poly.circumradius, poly.circumradius):
        raise NotOnCircumcircleError(
            f"point at distance {distance} from centroid is not on the "
            f"circumcircle of radius {poly.circumradius}"
        )
    return poly.centroid * 2.0 - p
