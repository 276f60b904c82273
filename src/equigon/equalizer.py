"""Points whose distances to two regular n-gons agree as multisets.

Given polygons with centroids O1, O2 and circumradii R1, R2, the candidate
points are the intersections of the swapped circles: the circle around O2 with
radius R1 and the circle around O1 with radius R2.  Congruent pairs degenerate
to a locus (the whole plane for a shared centroid, otherwise the perpendicular
bisector of the centroid segment).  For pairs sharing their first vertex the
two candidate points realise the two possible vertex correspondences:

  identity    |M A_k| = |M B_k|        for every k
  reversal    |M A_k| = |M B_(n+2-k)|  for k = 2..n (index 1 pairs with itself)

Both correspondences obey a one-angle cosine law
``|M A_k|^2 = R1^2 + R2^2 - 2 R1 R2 cos(2 pi (k-1)/n -+ angle)`` which is used
as an independent cross-check on the distance matching.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

from .checks import CheckResult, residual_check
from .geom import (
    DEFAULT_TOLERANCE,
    Circle,
    GeometryError,
    IntersectionKind,
    Point,
    Tolerance,
    circle_intersection,
    point_line_distance,
    side_of_line,
    wrap_angle,
)
from .polygon import RegularPolygon, diametric_opposite
from .power_sums import distances_squared


class MixedVertexCountError(GeometryError):
    pass


class NoIntersectionError(GeometryError):
    pass


class NoMatchingError(GeometryError):
    pass


class NotSharedVertexError(GeometryError):
    pass


class NotTwoPointSolutionError(GeometryError):
    pass


class PairCase(Enum):
    CONGRUENT_SAME_CENTROID = "congruent_same_centroid"
    CONGRUENT_DISTINCT_CENTROIDS = "congruent_distinct_centroids"
    NON_CONGRUENT = "non_congruent"


class Locus(Enum):
    ENTIRE_PLANE = "entire_plane"
    PERPENDICULAR_BISECTOR = "perpendicular_bisector_of_centroids"


class MatchKind(Enum):
    IDENTITY = "identity"
    REVERSAL = "reversal"


@dataclass(frozen=True)
class EqualDistanceSolution:
    """Solution set for one pair: discrete points, a locus, or nothing.

    ``points`` is (M1, M2) when two candidates exist; a tangent contact fills
    both slots with the same point and sets ``coincident``.
    """

    case: PairCase
    points: tuple[Point, ...]
    locus: Locus | None
    coincident: bool


@dataclass(frozen=True)
class Matching:
    """A vertex correspondence verified at one point.

    ``max_residual`` is the worst per-vertex distance mismatch for k = 2..n;
    ``first_residual`` is the k = 1 mismatch that any correspondence requires.
    ``shared_angle`` is the signed angular offset of the point from vertex 1,
    measured around the first centroid in the first polygon's vertex direction;
    ``model_residual`` is the worst deviation of both squared-distance lists
    from the one-angle cosine law evaluated with that offset.
    """

    kind: MatchKind
    max_residual: float
    first_residual: float
    shared_angle: float
    model_residual: float


def classify_pair(
    first: RegularPolygon, second: RegularPolygon, tol: Tolerance = DEFAULT_TOLERANCE
) -> PairCase:
    """Congruence is decided on circumradii alone; centroids split the congruent case."""
    if first.n != second.n:
        raise MixedVertexCountError(f"vertex counts differ: {first.n} vs {second.n}")
    if tol.eq(first.circumradius, second.circumradius):
        gap = first.centroid.distance(second.centroid)
        if tol.is_zero(gap, max(first.circumradius, second.circumradius)):
            return PairCase.CONGRUENT_SAME_CENTROID
        return PairCase.CONGRUENT_DISTINCT_CENTROIDS
    return PairCase.NON_CONGRUENT


def _matching_residuals(
    first: RegularPolygon, second: RegularPolygon, point: Point, kind: MatchKind
) -> tuple[float, ...]:
    """The gaps ||point A_k| - |point B_j|| for k = 2..n, with j as ``kind`` pairs them.

    ``point.distance`` inline, the hypot of the coordinate differences: the
    same bits, with no method call per vertex.
    """
    ours = first.vertices()[1:]
    theirs = second.vertices()[1:]
    if kind is MatchKind.REVERSAL:
        theirs = theirs[::-1]
    x, y, hypot = point.x, point.y, math.hypot
    return tuple([abs(hypot(x - a.x, y - a.y) - hypot(x - b.x, y - b.y))
                  for a, b in zip(ours, theirs)])


def equal_distance_points(
    first: RegularPolygon, second: RegularPolygon, tol: Tolerance = DEFAULT_TOLERANCE
) -> EqualDistanceSolution:
    """All points equidistant (as a distance multiset) from both vertex sets.

    Non-congruent pairs intersect the swapped circles; the point whose
    identity-correspondence residual is smaller is labelled M1.  When both
    residuals pass (or tie) the point to the left of the directed centroid
    line O1 -> O2 is M1.
    """
    case = classify_pair(first, second, tol)
    if case is PairCase.CONGRUENT_SAME_CENTROID:
        return EqualDistanceSolution(case, (), Locus.ENTIRE_PLANE, False)
    if case is PairCase.CONGRUENT_DISTINCT_CENTROIDS:
        return EqualDistanceSolution(case, (), Locus.PERPENDICULAR_BISECTOR, False)

    around_second = Circle(second.centroid, first.circumradius)
    around_first = Circle(first.centroid, second.circumradius)
    crossing = circle_intersection(around_second, around_first, tol)
    if crossing.kind in (IntersectionKind.DISJOINT, IntersectionKind.COINCIDENT):
        return EqualDistanceSolution(case, (), None, False)
    if crossing.kind is IntersectionKind.TANGENT:
        contact = crossing.points[0]
        return EqualDistanceSolution(case, (contact, contact), None, True)

    p, q = crossing.points
    residual_p = max(_matching_residuals(first, second, p, MatchKind.IDENTITY))
    residual_q = max(_matching_residuals(first, second, q, MatchKind.IDENTITY))
    slack = tol.bound(max(first.circumradius, second.circumradius))
    if (residual_p <= slack and residual_q <= slack) or residual_p == residual_q:
        left_first = side_of_line(p, first.centroid, second.centroid) > 0.0
        labelled = (p, q) if left_first else (q, p)
    else:
        labelled = (p, q) if residual_p < residual_q else (q, p)
    return EqualDistanceSolution(case, labelled, None, False)


def align_rotation(
    poly: RegularPolygon,
    point: Point,
    first_distance: float,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> tuple[RegularPolygon, ...]:
    """Rotations of ``poly`` that put its first vertex at ``first_distance`` from ``point``.

    The candidate first vertices are the intersections of the circumcircle with
    the auxiliary circle of radius ``first_distance`` around ``point``; both
    resulting rotations are returned (one for a tangent contact).  Raises
    NoIntersectionError when no rotation can achieve the distance, i.e. when
    ``first_distance`` is outside ``[|g - R|, g + R]`` for g the gap from
    ``point`` to the centroid and R the circumradius.
    """
    if not math.isfinite(first_distance) or first_distance < 0.0:
        raise GeometryError(f"first_distance must be finite and >= 0, got {first_distance}")
    auxiliary = Circle(point, first_distance)
    crossing = circle_intersection(auxiliary, poly.circumcircle, tol)
    if crossing.kind in (IntersectionKind.DISJOINT, IntersectionKind.COINCIDENT):
        raise NoIntersectionError(
            "no rotation reaches the requested first-vertex distance "
            f"{first_distance} (centroid gap {point.distance(poly.centroid)}, "
            f"circumradius {poly.circumradius})"
        )
    candidates = []
    for landing in crossing.points:
        phase = math.atan2(landing.y - poly.centroid.y, landing.x - poly.centroid.x)
        candidates.append(dataclasses.replace(poly, phase=phase))
    return tuple(candidates)


def _phase_offset(poly: RegularPolygon, point: Point) -> float:
    """Signed angle from vertex 1 to ``point`` around the centroid, in vertex order."""
    v = point - poly.centroid
    return wrap_angle(poly.orientation * (math.atan2(v.y, v.x) - poly.phase))


def correspondence(
    first: RegularPolygon,
    second: RegularPolygon,
    point: Point,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Matching:
    """Find which vertex correspondence the point realises, identity preferred.

    Raises NoMatchingError when neither correspondence holds within tolerance
    (this includes the case where the k = 1 distances already disagree).
    Returns the measurements, not a verdict: the runner judges them as the
    ``matching_{label}`` and ``cosine_model_{label}`` checks.
    """
    if first.n != second.n:
        raise MixedVertexCountError(f"vertex counts differ: {first.n} vs {second.n}")
    n = first.n
    r1, r2 = first.circumradius, second.circumradius
    slack = tol.bound(max(r1, r2))
    ours, theirs = first.vertices(), second.vertices()
    first_residual = abs(point.distance(ours[0]) - point.distance(theirs[0]))

    chosen: MatchKind | None = None
    computed: dict[MatchKind, tuple[float, ...]] = {}
    if first_residual <= slack:
        for kind in MatchKind:
            computed[kind] = _matching_residuals(first, second, point, kind)
            if max(computed[kind]) <= slack:
                chosen = kind
                break
    if chosen is None:
        identity_worst, reversal_worst = (
            max(computed.get(kind) or _matching_residuals(first, second, point, kind))
            for kind in MatchKind
        )
        raise NoMatchingError(
            "no vertex correspondence holds at this point "
            f"(first-vertex residual {first_residual:.3e}, identity "
            f"{identity_worst:.3e}, reversal {reversal_worst:.3e}, allowed {slack:.3e})"
        )
    residuals = computed[chosen]

    # Cosine-law cross-check.  The offset of the point from vertex 1 around O1
    # drives the law for the first polygon directly; the identity matching
    # shares the same offset seen from O2, the reversal negates it.
    offset = _phase_offset(first, point)
    sign = 1.0 if chosen is MatchKind.IDENTITY else -1.0
    base = r1 * r1 + r2 * r2
    cross = 2.0 * r1 * r2
    near, far = distances_squared(ours, point), distances_squared(theirs, point)
    model_worst = 0.0
    for k in range(1, n + 1):
        j = k if chosen is MatchKind.IDENTITY else (n + 2 - k if k >= 2 else 1)
        model = base - cross * math.cos(math.tau * (k - 1) / n - offset)
        model_worst = max(model_worst, abs(near[k - 1] - model), abs(far[j - 1] - model))
    return Matching(
        kind=chosen,
        max_residual=max(residuals) if residuals else 0.0,
        first_residual=first_residual,
        shared_angle=sign * offset,
        model_residual=model_worst,
    )


def verify_point_properties(
    first: RegularPolygon,
    second: RegularPolygon,
    solution: EqualDistanceSolution,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> tuple[CheckResult, ...]:
    """Check the classical facts tying M1, M2 to the diametric points.

    With A the shared first vertex and D1, D2 its antipodes on the two
    circumcircles: M1 is the midpoint of D1 D2 (and of the opposite vertex
    pair when n is even); M2 sits on the perpendicular bisector of D1 D2 with
    A M2 parallel to D1 D2; |M1 M2| equals the distance from A to the line
    D1 D2, and M1 M2 is perpendicular to it; the quadrilateral O2 M1 O1 M2 has
    sides R1, R2, R2, R1.  A tangent contact collapses M1 = M2 and the checks
    involving the segment M1 M2 are reported vacuous.  Returns one check per
    fact, in the order above, as the report prints them.
    """
    if not solution.points:
        raise NotTwoPointSolutionError("solution does not carry two candidate points")
    scale = max(first.circumradius, second.circumradius)
    slack = tol.bound(scale)
    a_first = first.vertex(1)
    if a_first.distance(second.vertex(1)) > slack:
        raise NotSharedVertexError("polygons do not share their first vertex")

    m1, m2 = solution.points[0], solution.points[1]
    co = solution.coincident
    d1 = diametric_opposite(first, a_first, tol)
    d2 = diametric_opposite(second, a_first, tol)
    n = first.n
    entries = []

    entries.append(
        residual_check("midpoint_of_diametric_points", m1.distance(d1.midpoint(d2)), slack)
    )

    if n % 2 == 0:
        across = 1 + n // 2
        gap = m1.distance(first.vertex(across).midpoint(second.vertex(across)))
        entries.append(residual_check("even_n_vertex_midpoint", gap, slack))
    else:
        entries.append(
            residual_check("even_n_vertex_midpoint", 0.0, slack, vacuous=True, detail="n is odd")
        )

    bisector_gap = abs(m2.distance(d1) - m2.distance(d2))
    spread = m2 - a_first
    axis = d2 - d1
    if spread.norm() <= tol.bound(0.0) or axis.norm() <= tol.bound(0.0):
        parallel_gap = 0.0
        degenerate_parallel = True
    else:
        parallel_gap = abs(spread.cross(axis)) / (spread.norm() * axis.norm()) * scale
        degenerate_parallel = False
    entries.append(
        residual_check(
            "mirror_point_bisector_parallel",
            max(bisector_gap, parallel_gap),
            slack,
            vacuous=co or degenerate_parallel,
        )
    )

    separation = m1.distance(m2)
    offset = point_line_distance(a_first, d1, d2, tol)
    entries.append(
        residual_check(
            "separation_equals_vertex_offset", abs(separation - offset), slack, vacuous=co
        )
    )

    r1, r2 = first.circumradius, second.circumradius
    o1, o2 = first.centroid, second.centroid
    worst_side = max(
        abs(o2.distance(m1) - r1),
        abs(m1.distance(o1) - r2),
        abs(o1.distance(m2) - r2),
        abs(m2.distance(o2) - r1),
    )
    entries.append(residual_check("quadrilateral_side_lengths", worst_side, slack))

    perp = abs((m1 - m2).dot(d1 - d2))
    entries.append(
        residual_check(
            "separation_perpendicular", perp, tol.bound(scale * scale), vacuous=co
        )
    )

    return tuple(entries)
