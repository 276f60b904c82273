"""Points whose distances to two regular n-gons agree as multisets.

Given polygons with centroids O1, O2 and circumradii R1, R2, the candidate
points lie on the swapped circles: the circle around O2 with radius R1 and the
circle around O1 with radius R2, which ``equal_distance_points`` intersects.
Congruent pairs degenerate to a locus (the whole plane for a shared centroid,
otherwise the perpendicular bisector of the centroid segment).  For pairs
sharing their first vertex, ``shared_vertex_points`` builds the two points
from it; they realise the two possible vertex correspondences, which
``partners`` applies to any list by vertex:

  identity    |M A_k| = |M B_k|        for every k
  reversal    |M A_k| = |M B_(n+2-k)|  for k = 2..n (index 1 pairs with itself)

M1 realises the identity for opposite orientations and the reversal for equal
ones, M2 the other.  Both correspondences obey a one-angle cosine law
``|M A_k|^2 = R1^2 + R2^2 - 2 R1 R2 cos(2 pi (k-1)/n -+ angle)`` which
``cosine_model`` uses as an independent cross-check on the distance matching.
The same law aligns any pair: ``align_rotation`` turns the second polygon so
that its angle at M equals +-phi1 (mod 2 pi/n), which makes its distance
multiset at M the first's.  The two rotations are mirror images across the
line O2 M, so ``verify_alignment`` judges the one nearer to the second
polygon's phase, and the other only where that one fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from operator import sub
from typing import Sequence

from .checks import CheckResult, judge
from .geom import (
    DEFAULT_TOLERANCE,
    GeometryError,
    Point,
    Tolerance,
    circle_intersection,
    exactly_collinear,
    point_line_distance,
    side_of_line,
    wrap_angle,
)
from .polygon import RegularPolygon, _overflow, diametric_opposite, turns
from .power_sums import distances_squared, multisets_equal


class NoMatchingError(GeometryError):
    """No vertex correspondence holds at the point; the runner records it as a finding."""


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


def partners(items: Sequence, kind: MatchKind) -> Sequence:
    """``items``, one per vertex in vertex order, put in the order of their
    partners under ``kind``: unchanged for the identity; for the reversal,
    vertex 1 keeps its own and vertex k gets vertex n + 2 - k's."""
    return items if kind is MatchKind.IDENTITY else items[:1] + items[:0:-1]


@dataclass(frozen=True)
class EqualDistanceSolution:
    """Solution set for one pair: discrete points, a locus, or nothing.

    ``points`` is (M1, M2) when two candidates exist; a tangent contact fills
    both slots with the same point and sets ``coincident``.  The case sets the
    locus of a solution without points.  ``distances`` holds, for each point
    that the solve labelled, its ``_vertex_distances`` lists, which
    ``correspondence`` reads.
    """

    case: PairCase
    points: tuple[Point, ...] = ()
    coincident: bool = False
    distances: tuple[tuple[list[float], list[float]], ...] = field(default=(), compare=False, repr=False)

    @property
    def locus(self) -> Locus | None:
        if self.points:
            return None
        return {PairCase.CONGRUENT_SAME_CENTROID: Locus.ENTIRE_PLANE,
                PairCase.CONGRUENT_DISTINCT_CENTROIDS: Locus.PERPENDICULAR_BISECTOR}.get(self.case)


@dataclass(frozen=True)
class Matching:
    """A vertex correspondence measured at one point.

    ``max_residual`` is the worst per-vertex distance mismatch for k = 2..n;
    ``first_residual`` is the k = 1 mismatch that any correspondence requires.
    """

    kind: MatchKind
    max_residual: float
    first_residual: float


def classify_pair(
    first: RegularPolygon, second: RegularPolygon, tol: Tolerance = DEFAULT_TOLERANCE
) -> PairCase:
    """Congruence is decided on circumradii alone; centroids split the congruent case."""
    if first.n != second.n:
        raise GeometryError(f"vertex counts differ: {first.n} vs {second.n}")
    if tol.eq(first.circumradius, second.circumradius):
        gap = first.centroid.distance(second.centroid)
        if tol.is_zero(gap, max(first.circumradius, second.circumradius)):
            return PairCase.CONGRUENT_SAME_CENTROID
        return PairCase.CONGRUENT_DISTINCT_CENTROIDS
    return PairCase.NON_CONGRUENT


def _vertex_distances(
    first: RegularPolygon, second: RegularPolygon, point: Point
) -> tuple[list[float], list[float]]:
    """The point's distance to each vertex of ``first`` and of ``second``, in vertex order.

    ``point.distance`` inline on both polygons' coordinates, the hypot of the
    coordinate differences: the same bits, with no ``Point`` and no method
    call per vertex.
    """
    (xs, ys), (us, vs) = first.coordinates(), second.coordinates()
    x, y, hypot = point.x, point.y, math.hypot
    return ([hypot(x - ax, y - ay) for ax, ay in zip(xs, ys)],
            [hypot(x - bx, y - by) for bx, by in zip(us, vs)])


def shared_vertex_points(first: RegularPolygon, second: RegularPolygon,
                         a: Point) -> tuple[Point, Point, Point, Point, bool]:
    """D1, D2, M1, M2 of a pair sharing its first vertex ``a``, and whether M1 = M2.

    D1 and D2 are the antipodes of ``a`` on the two circumcircles, M1 their
    midpoint O1 + O2 - A, and M2 its mirror across the line O1 O2; they
    coincide exactly when A lies on that line (``exactly_collinear``).  An
    antipode or M1 past the float range raises the overflow error.  Nothing
    here tests that ``a`` is on both circles: the checks judge it.
    """
    o1, o2 = first.centroid, second.centroid
    d1, d2 = diametric_opposite(first, a), diametric_opposite(second, a)
    mx, my = 0.5 * (d1.x + d2.x), 0.5 * (d1.y + d2.y)
    if not (abs(mx) < math.inf and abs(my) < math.inf):
        raise _overflow("M1", (mx, my))
    m1 = Point(mx, my)
    if exactly_collinear(o1, o2, a):
        return d1, d2, m1, m1, True
    dx, dy = o2.x - o1.x, o2.y - o1.y
    length = math.hypot(dx, dy)
    ux, uy = dx / length, dy / length
    offset = 2.0 * ((m1.y - o1.y) * ux - (m1.x - o1.x) * uy)
    return d1, d2, m1, Point(m1.x + offset * uy, m1.y - offset * ux), False


def equal_distance_points(
    first: RegularPolygon, second: RegularPolygon, tol: Tolerance = DEFAULT_TOLERANCE
) -> EqualDistanceSolution:
    """All points equidistant (as a distance multiset) from both vertex sets.

    Non-congruent pairs intersect the swapped circles; the point whose
    identity-correspondence residual is smaller is labelled M1.  When both
    residuals pass (or tie) the point to the left of the directed centroid
    line O1 -> O2 is M1.  The residuals are read off each crossing's
    ``_vertex_distances``, which the solution keeps for ``correspondence``.
    """
    case = classify_pair(first, second, tol)
    if case is not PairCase.NON_CONGRUENT:
        return EqualDistanceSolution(case)
    crossing = circle_intersection(second.centroid, first.circumradius,
                                   first.centroid, second.circumradius, tol)
    if not crossing:
        return EqualDistanceSolution(case)
    if len(crossing) == 1:
        return EqualDistanceSolution(case, crossing * 2, True)

    p, q = crossing
    at_p, at_q = (_vertex_distances(first, second, m) for m in crossing)
    # The largest identity residual ||M A_k| - |M B_k|| over k = 2..n at each crossing.
    residual_p, residual_q = (max(map(abs, map(sub, near[1:], far[1:]))) for near, far in (at_p, at_q))
    slack = tol.bound(max(first.circumradius, second.circumradius))
    if (residual_p <= slack and residual_q <= slack) or residual_p == residual_q:
        p_first = side_of_line(p, first.centroid, second.centroid) > 0.0
    else:
        p_first = residual_p < residual_q
    if not p_first:
        p, q, at_p, at_q = q, p, at_q, at_p
    return EqualDistanceSolution(case, (p, q), distances=(at_p, at_q))


def align_rotation(
    first: RegularPolygon, second: RegularPolygon, point: Point
) -> tuple[RegularPolygon, RegularPolygon]:
    """The two rotations of ``second`` whose distances from ``point`` match ``first``'s.

    At a swapped-circle point M, |M A_k|^2 = R1^2 + R2^2 - 2 R1 R2 cos(phi1 -
    2 pi (k-1)/n) with phi1 the angle of M about O1 from vertex 1, and the
    second polygon's list has the same form with phi2; the multisets agree
    exactly when phi2 = +-phi1 (mod 2 pi/n).  So vertex 1 of the two rotations
    sits at the angle of M about O2, minus and plus phi1: two ``atan2`` calls,
    no tolerance and no failure mode.  The two are mirror images across the
    line O2 M, so ``verify_alignment`` judges the nearer one first.
    """
    phi = math.atan2(point.y - first.centroid.y, point.x - first.centroid.x) - first.phase
    c = second.centroid
    toward = math.atan2(point.y - c.y, point.x - c.x)
    return (RegularPolygon(second.n, c, second.circumradius, toward - phi, second.orientation),
            RegularPolygon(second.n, c, second.circumradius, toward + phi, second.orientation))


def verify_alignment(first: RegularPolygon, second: RegularPolygon, point: Point,
                     near: tuple[float, ...], tol: Tolerance, name: str) -> CheckResult:
    """Whether one of ``align_rotation``'s two rotations of ``second`` has the
    squared-distance multiset ``near``, ``first``'s at ``point``.

    The rotations are mirror images across the line O2 M, which fixes M, so
    their multisets at M are equal in exact arithmetic.  The check, named
    ``name``, judges the rotation nearer to ``second``'s phase (the first on a
    tie) and is that comparison when it passes; else it judges the other too
    and shows the deciding one: a passing one, else the one with the smaller
    residual.  Its detail is how far ``second`` sits from the nearer rotation,
    as a phase offset mod 2 pi / n.
    """
    candidates = align_rotation(first, second, point)
    step = math.tau / first.n
    offsets = [min(turn, step - turn) for turn in ((second.phase - c.phase) % step for c in candidates)]
    detail = f"phase offset {min(offsets):.3e} rad"
    index = int(offsets[1] < offsets[0])
    nearer = multisets_equal(near, distances_squared(candidates[index], point), tol, name, detail)
    if nearer.ok:
        return nearer
    other = multisets_equal(near, distances_squared(candidates[1 - index], point), tol, name, detail)
    return min((other, nearer) if index else (nearer, other), key=lambda match: (not match.ok, match.residual))


def correspondence(
    first: RegularPolygon,
    second: RegularPolygon,
    point: Point,
    tol: Tolerance = DEFAULT_TOLERANCE,
    kind: MatchKind | None = None,
    distances: tuple[list[float], list[float]] | None = None,
) -> Matching:
    """Measure the vertex correspondence ``kind`` at the point, or find the one it realises, identity preferred.

    Reads the first-vertex residual and the correspondence's residuals off
    one list of the point's vertex distances per polygon: ``distances``, the
    lists the equal-distance solve computed at the point, or else
    ``_vertex_distances``.  The search raises NoMatchingError when neither
    correspondence holds within tolerance (this includes the case where the
    k = 1 distances already disagree).  Returns
    the measurements, not a verdict: the runner judges them as the
    ``matching_{label}`` check.
    """
    if first.n != second.n:
        raise GeometryError(f"vertex counts differ: {first.n} vs {second.n}")
    near, far = distances or _vertex_distances(first, second, point)
    first_residual = abs(near[0] - far[0])

    def worst(kind: MatchKind) -> float:
        return max(map(abs, map(sub, near[1:], partners(far, kind)[1:])))

    if kind is not None:
        return Matching(kind, worst(kind), first_residual)
    slack = tol.bound(max(first.circumradius, second.circumradius))
    if first_residual <= slack:
        for kind in MatchKind:
            residual = worst(kind)
            if residual <= slack:
                return Matching(kind, residual, first_residual)
    raise NoMatchingError(
        "no vertex correspondence holds at this point "
        f"(first-vertex residual {first_residual:.3e}, identity "
        f"{worst(MatchKind.IDENTITY):.3e}, reversal {worst(MatchKind.REVERSAL):.3e}, "
        f"allowed {slack:.3e})"
    )


def cosine_model(first: RegularPolygon, second: RegularPolygon, point: Point, kind: MatchKind,
                 near: tuple[float, ...], far: tuple[float, ...]) -> tuple[float, float]:
    """The ``kind`` correspondence's cosine law at ``point``, whose squared
    distances to the vertices of ``first`` and ``second`` are ``near`` and ``far``.

    Returns the shared angle, the signed offset of the point from vertex 1
    around the first centroid in the first polygon's vertex direction, and
    the worst deviation of both lists from the law with that offset.
    """
    # The offset drives the law for the first polygon directly; the identity
    # matching shares the same offset seen from O2, the reversal negates it.
    r1, r2 = first.circumradius, second.circumradius
    v = point - first.centroid
    offset = wrap_angle(first.orientation * (math.atan2(v.y, v.x) - first.phase))
    base = r1 * r1 + r2 * r2
    cross = 2.0 * r1 * r2
    models = [base - cross * math.cos(turn - offset) for turn in turns(first.n)]
    # A NaN deviation never beats the leading 0.0, as in a running max.
    model_worst = max(chain((0.0,), map(abs, map(sub, near, models)),
                            map(abs, map(sub, partners(far, kind), models))))
    return (1.0 if kind is MatchKind.IDENTITY else -1.0) * offset, model_worst


def verify_point_properties(
    first: RegularPolygon,
    second: RegularPolygon,
    solution: EqualDistanceSolution,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> tuple[CheckResult, ...]:
    """Check the classical facts tying M1, M2 to the diametric points.

    With A the first vertex of ``first`` and D1, D2 its reflections through
    the two centroids, all read off the built polygons, so the first check
    holds the solution's M1 to them: M1 is the midpoint of D1 D2 (and of
    the opposite vertex pair when n is even); M2 sits on the perpendicular
    bisector of D1 D2 and on the line through A parallel to D1 D2 (M2 = A for
    congruent polygons); |M1 M2| equals the distance from A to the line D1 D2,
    and M1 M2 is perpendicular to it; the quadrilateral O2 M1 O1 M2 has sides
    R1, R2, R2, R1.  A tangent contact collapses M1 = M2 and the checks
    involving the segment M1 M2 are reported vacuous.  Returns one check per
    fact, in the order above, as the report prints them.  Whether the second
    polygon passes through A is not decided here: where it does not, D2 is
    not its antipode, and the facts fail as checks.
    """
    if not solution.points:
        raise GeometryError("solution does not carry two candidate points")
    scale = max(first.circumradius, second.circumradius)
    a_first = first.vertex(1)
    (m1, m2), co, n = solution.points[:2], solution.coincident, first.n
    d1, d2 = diametric_opposite(first, a_first), diametric_opposite(second, a_first)
    midpoint = judge("midpoint_of_diametric_points", m1.distance(d1.midpoint(d2)), scale, tol)
    across = 1 + n // 2
    opposite = (judge("even_n_vertex_midpoint", m1.distance(first.vertex(across).midpoint(second.vertex(across))),
                      scale, tol) if n % 2 == 0 else
                judge("even_n_vertex_midpoint", 0.0, scale, tol, vacuous=True, detail="n is odd"))
    offset = point_line_distance(a_first, d1, d2, tol)  # raises when D1 = D2
    # A M2 parallel to D1 D2: the distance of M2 from the line through A along D1 D2.
    axis = d2 - d1
    length = axis.norm()
    parallel_gap = abs((m2 - a_first).cross(Point(axis.x / length, axis.y / length)))
    bisector_gap = abs(m2.distance(d1) - m2.distance(d2))
    r1, r2, o1, o2 = first.circumradius, second.circumradius, first.centroid, second.centroid
    worst_side = max(abs(o2.distance(m1) - r1), abs(m1.distance(o1) - r2),
                     abs(o1.distance(m2) - r2), abs(m2.distance(o2) - r1))
    return (
        midpoint,
        opposite,
        judge("mirror_point_bisector_parallel", max(bisector_gap, parallel_gap), scale, tol, vacuous=co),
        judge("separation_equals_vertex_offset", abs(m1.distance(m2) - offset), scale, tol, vacuous=co),
        judge("quadrilateral_side_lengths", worst_side, scale, tol),
        judge("separation_perpendicular", abs((m1 - m2).dot(d1 - d2)), scale * scale, tol, vacuous=co),
    )
