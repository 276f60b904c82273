"""Regular polygons: vertex generation and the constructions used everywhere else.

A polygon is stored as (n, centroid, circumradius, phase, orientation); vertex k
(1-based) sits at angle ``phase + orientation * 2*pi*(k-1)/n`` on the
circumcircle.  Orientation +1 walks the vertices counter-clockwise, -1
clockwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .geom import (
    DEFAULT_TOLERANCE,
    GeometryError,
    Point,
    Tolerance,
    wrap_angle,
)


@lru_cache(maxsize=32)
def turns(n: int) -> tuple[float, ...]:
    """The turn ``math.tau * k / n`` of vertex k + 1 from vertex 1, for k = 0..n-1:
    the one table of them, built once for each of the last 32 n asked for."""
    return tuple([math.tau * k / n for k in range(n)])


@dataclass(frozen=True)
class RegularPolygon:
    """``__init__`` is written out so that it checks the fields and stores them,
    the phase wrapped, in one step, where a frozen dataclass's own sets each
    through ``object.__setattr__`` and then calls a ``__post_init__``."""

    n: int
    centroid: Point
    circumradius: float
    phase: float = 0.0
    orientation: int = 1

    def __init__(self, n: int, centroid: Point, circumradius: float, phase: float = 0.0, orientation: int = 1) -> None:
        if not isinstance(n, int) or n < 3:
            raise GeometryError(f"need an integer n >= 3, got {n!r}")
        _check_radius(circumradius)
        if orientation not in (1, -1):
            raise GeometryError(f"orientation must be +1 or -1, got {orientation!r}")
        if not math.isfinite(phase):
            raise GeometryError(f"phase must be finite, got {phase}")
        self.__dict__.update(n=n, centroid=centroid, circumradius=circumradius, phase=wrap_angle(phase),
                             orientation=orientation)

    def vertex_angle(self, k: int) -> float:
        """Angular position of vertex k (1-based) around the centroid: the one angle formula."""
        if not 1 <= k <= self.n:
            raise IndexError(f"vertex index {k} outside 1..{self.n}")
        return self.phase + self.orientation * math.tau * (k - 1) / self.n

    def coordinates(self) -> tuple[tuple[float, ...], tuple[float, ...]]:
        """The x and y coordinates of vertices 1..n, computed and checked once.

        Vertex k sits at ``centroid + circumradius * (cos, sin)`` of
        ``vertex_angle(k)``, the same float inlined as the phase plus (or, for
        orientation -1, minus) its turn in the table ``turns(n)``; ``vertex``,
        ``vertices`` and the O(n) checks read these floats, so there is one
        vertex formula.  The first vertex past the float range raises the
        overflow error.  The cache is kept outside the dataclass fields, so
        equality, hashing and ``dataclasses.replace`` never see it.
        """
        cached = self.__dict__.get("_coordinates")
        if cached is None:
            phase, table = self.phase, turns(self.n)
            angles = [phase + turn for turn in table] if self.orientation == 1 else [phase - turn for turn in table]
            cx, cy, radius, cos, sin = self.centroid.x, self.centroid.y, self.circumradius, math.cos, math.sin
            cached = (tuple([cx + radius * cos(t) for t in angles]), tuple([cy + radius * sin(t) for t in angles]))
            # Finite sums prove every term finite; finite terms can still overflow a sum.
            if not math.isfinite(sum(cached[0]) + sum(cached[1])):
                for k, x, y in zip(range(1, self.n + 1), *cached):
                    if not (math.isfinite(x) and math.isfinite(y)):
                        raise _overflow(f"vertex {k}", (x, y))
            object.__setattr__(self, "_coordinates", cached)
        return cached

    def vertex(self, k: int) -> Point:
        """Vertex k (1-based) as a ``Point`` of ``coordinates()``'s floats."""
        if not 1 <= k <= self.n:
            self.vertex_angle(k)  # raises its IndexError
        xs, ys = self.coordinates()
        return Point(xs[k - 1], ys[k - 1])

    def vertices(self) -> tuple[Point, ...]:
        """Vertices 1..n as ``Point``s, one ``vertex(k)`` each, for the callers
        that need ``Point``s; the O(n) checks read ``coordinates()``."""
        # A list, not a generator: resized tuples would pile up in CPython's free lists.
        return tuple([self.vertex(k) for k in range(1, self.n + 1)])


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
        raise GeometryError("first vertex coincides with the centroid")
    phase = math.atan2(a1.y - centroid.y, a1.x - centroid.x)
    return RegularPolygon(n, centroid, radius, phase, orientation)


def _overflow(quantity: str, values: object) -> GeometryError:
    """The one error for a quantity past the float range, raised by the step that finds it."""
    return GeometryError(f"{quantity} overflows the float range: {values}")


def _check_radius(radius: float) -> None:
    if not math.isfinite(radius) or radius <= 0.0:
        raise GeometryError(f"circumradius must be positive, got {radius}")


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
    ``a1 -> an``, -1 means right.  It checks the side, the edge (an overflow
    error past the float range), its length and n; a centroid or radius past
    the float range raises the overflow error, and every step that leaves the
    range reaches one of them.  The phase and the orientation are one
    ``atan2`` each.  The apex sweep repeats the centroid arithmetic inline,
    in its base's frame; the tests pin its midpoints to ``bottema_construct``'s.
    """
    if side not in (1, -1):
        raise GeometryError(f"side must be +1 or -1, got {side!r}")
    cx, cy = an.x - a1.x, an.y - a1.y
    if not (math.isfinite(cx) and math.isfinite(cy)):
        raise _overflow("edge", (cx, cy))
    length = math.hypot(cx, cy)
    if length <= tol.bound(0.0):
        raise GeometryError("side endpoints coincide")
    if not isinstance(n, int) or n < 3:
        raise GeometryError(f"need an integer n >= 3, got {n!r}")
    angle = math.pi / n
    inverse, apothem = 1.0 / length, 0.5 * length / math.tan(angle)
    x = 0.5 * (a1.x + an.x) + -(cy * inverse) * side * apothem
    y = 0.5 * (a1.y + an.y) + (cx * inverse) * side * apothem
    radius = 0.5 * length / math.sin(angle)
    if not (abs(x) < math.inf and abs(y) < math.inf and radius < math.inf):
        raise _overflow("circumcircle", f"centroid {(x, y)}, radius {radius!r}")
    phase = math.atan2(a1.y - y, a1.x - x)
    # Vertex n precedes vertex 1 by one step, so the signed angle from vertex 1
    # to vertex n fixes the orientation.
    step = wrap_angle(math.atan2(an.y - y, an.x - x) - phase)
    orientation = 1 if step < 0.0 else -1
    return RegularPolygon(n, Point(x, y), radius, phase, orientation)


def diametric_opposite(poly: RegularPolygon, p: Point) -> Point:
    """Antipode of ``p`` on the circumcircle: its reflection through the
    centroid, 2 O - P.

    It does not test that ``p`` is on the circle: the callers build their
    polygons through ``p``, and the checks judge what follows from it.  An
    antipode past the float range raises the overflow error.
    """
    dx, dy = poly.centroid.x * 2.0 - p.x, poly.centroid.y * 2.0 - p.y
    if not (math.isfinite(dx) and math.isfinite(dy)):
        raise _overflow("antipode", (dx, dy))
    return Point(dx, dy)
