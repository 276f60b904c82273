"""Generalized Bottema construction.

Erect regular n-gons on the two apex sides of a triangle An A1 Bn, both sharing
the apex A1 as their first vertex.  With D1, D2 the antipodes of the apex on
the two circumcircles, the midpoint M1 of D1 D2 does not move when the apex
does: it is the centroid of the regular n-gon erected on the fixed base An Bn
(on the apex side when both polygons are placed exterior).  Its distance from
the base is ``|An Bn| / 2 * cot(pi / n)``, and the foot of that perpendicular
is the base midpoint.  At M1 the vertex pairs subtend fixed angles:
``angle(A_k M1 B_k) = 2 pi (k-1) / n`` folded into [0, pi].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .checks import CheckResult, residual_check
from .geom import (
    DEFAULT_TOLERANCE,
    GeometryError,
    Point,
    Tolerance,
    angle_at,
    project_onto_line,
    reflect_across_line,
    side_of_line,
)
from .polygon import DegenerateSideError, RegularPolygon, diametric_opposite, from_side
from .equalizer import PairCase, classify_pair, equal_distance_points


class DegenerateTriangleError(GeometryError):
    pass


@dataclass(frozen=True)
class BottemaResult:
    poly1: RegularPolygon
    poly2: RegularPolygon
    d1: Point
    d2: Point
    m1: Point
    m2: Point
    h: Point
    collinear: bool


def _exterior_side(base_from: Point, base_to: Point, away_from: Point) -> int:
    signed = side_of_line(away_from, base_from, base_to)
    if signed > 0.0:
        return -1
    if signed < 0.0:
        return 1
    return 0


def _diametric_midpoint(
    an: Point,
    a1: Point,
    bn: Point,
    n: int,
    side1: int | None,
    side2: int | None,
    tol: Tolerance,
) -> tuple[Point, RegularPolygon, RegularPolygon, Point, Point, bool]:
    """The construction up to M1, which is all the apex sweep reads.

    Returns M1, both apex-side polygons, the antipodes D1 and D2 of the apex,
    and the collinear flag.
    """
    floor = tol.bound(0.0)
    if a1.distance(an) <= floor or a1.distance(bn) <= floor or an.distance(bn) <= floor:
        raise DegenerateTriangleError("triangle corners coincide")
    span = max(a1.distance(an), a1.distance(bn))
    collinear = abs(side_of_line(bn, a1, an)) <= tol.bound(span * span)
    if side1 is None:
        side1 = _exterior_side(a1, an, bn) or 1
    if side2 is None:
        side2 = _exterior_side(a1, bn, an) or -1

    poly1 = from_side(a1, an, n, side1, tol)
    poly2 = from_side(a1, bn, n, side2, tol)
    d1 = diametric_opposite(poly1, a1, tol)
    d2 = diametric_opposite(poly2, a1, tol)
    m1 = d1.midpoint(d2)
    return m1, poly1, poly2, d1, d2, collinear


def bottema_construct(
    an: Point,
    a1: Point,
    bn: Point,
    n: int,
    side1: int | None = None,
    side2: int | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> BottemaResult:
    """Build both polygons on the apex sides and locate M1, M2, and the foot H.

    ``side1`` / ``side2`` select the half-planes for the polygons on A1 An and
    A1 Bn (+1 = left of the directed segment from the apex); omitted sides
    default to the exterior of the triangle.  A collinear apex is accepted and
    flagged; coincident triangle corners are rejected.
    """
    m1, poly1, poly2, d1, d2, collinear = _diametric_midpoint(an, a1, bn, n, side1, side2, tol)

    if classify_pair(poly1, poly2, tol) is PairCase.NON_CONGRUENT:
        solution = equal_distance_points(poly1, poly2, tol)
        if solution.points:
            # The mirror candidate is whichever solution point sits away from
            # the midpoint, independent of how the labels fell.
            m2 = max(solution.points, key=lambda q: (m1.distance(q), q.x, q.y))
        else:
            m2 = reflect_across_line(m1, poly1.centroid, poly2.centroid, tol)
    else:
        # Congruent polygons (isosceles apex) still have a mirror candidate:
        # the reflection across the centroid line.
        gap = poly1.centroid.distance(poly2.centroid)
        if gap <= tol.bound(max(poly1.circumradius, poly2.circumradius)):
            m2 = m1
        else:
            m2 = reflect_across_line(m1, poly1.centroid, poly2.centroid, tol)

    h = project_onto_line(m1, an, bn, tol)
    return BottemaResult(poly1, poly2, d1, d2, m1, m2, h, collinear)


def closed_form_midpoint(
    an: Point,
    bn: Point,
    n: int,
    normal_side: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> Point:
    """Predicted M1: base midpoint displaced by ``|An Bn|/2 * cot(pi/n)``.

    ``normal_side`` +1 displaces to the left of the directed base An -> Bn.
    This is exactly the centroid of ``from_side(an, bn, n, normal_side)``.
    """
    if normal_side not in (1, -1):
        raise GeometryError(f"normal_side must be +1 or -1, got {normal_side!r}")
    if n < 3:
        raise GeometryError(f"need n >= 3, got {n}")
    chord = bn - an
    length = chord.norm()
    if length <= tol.bound(0.0):
        raise DegenerateSideError("base endpoints coincide")
    normal = chord.perpendicular() * (normal_side / length)
    return an.midpoint(bn) + normal * (0.5 * length / math.tan(math.pi / n))


def verify_independence(
    an: Point,
    bn: Point,
    n: int,
    samples: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
    seed: int = 0,
) -> tuple[CheckResult, CheckResult]:
    """Scatter apexes over one side of the base and confirm M1 never moves.

    Apexes stay strictly off the base line (margin 5% of the base length) so
    every construction is non-degenerate and exterior placement keeps both
    polygons on the far side.  Each apex builds only M1 (both polygons, the
    antipodes of the apex and their midpoint), not the M2 and H that
    ``bottema_construct`` adds.  Returns two checks, each bounded by
    ``tol.bound(|An Bn|)``: ``apex_independence_spread``, the maximum pairwise
    spread of the computed midpoints, taken over the distinct ones, and
    ``apex_independence_closed_form``, their worst distance to the closed form.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    base_length = an.distance(bn)
    if base_length <= tol.bound(0.0):
        raise DegenerateSideError("base endpoints coincide")
    rng = random.Random(seed)
    along = (bn - an) * (1.0 / base_length)
    normal = along.perpendicular()
    predicted = closed_form_midpoint(an, bn, n, 1, tol)
    midpoints: list[Point] = []
    worst_closed = 0.0
    for _ in range(samples):
        t = rng.uniform(-0.5, 1.5)
        height = rng.uniform(0.05, 2.0)
        apex = an + along * (t * base_length) + normal * (height * base_length)
        m1 = _diametric_midpoint(an, apex, bn, n, None, None, tol)[0]
        midpoints.append(m1)
        worst_closed = max(worst_closed, m1.distance(predicted))
    # A repeated midpoint adds only zero distances: the max over distinct ones is the same float.
    midpoints = list(dict.fromkeys(midpoints))
    max_deviation = 0.0
    for i in range(len(midpoints)):
        for j in range(i + 1, len(midpoints)):
            max_deviation = max(max_deviation, midpoints[i].distance(midpoints[j]))
    allowed = tol.bound(base_length)
    return (
        residual_check(
            "apex_independence_spread",
            max_deviation,
            allowed,
            detail=f"{samples} apexes, exterior placement",
        ),
        residual_check("apex_independence_closed_form", worst_closed, allowed),
    )


def vertex_angles(
    result: BottemaResult, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[CheckResult, ...]:
    """Angles subtended at M1 by each vertex pair, against the folded expectation.

    Returns one ``vertex_angle_k{k}`` check per k = 2..n, each bounded by
    ``tol.bound(pi)``.
    """
    n = result.poly1.n
    checks = []
    for k in range(2, n + 1):
        measured = angle_at(result.m1, result.poly1.vertex(k), result.poly2.vertex(k), tol)
        raw = math.tau * (k - 1) / n
        expected = min(raw, math.tau - raw)
        checks.append(
            residual_check(
                f"vertex_angle_k{k}",
                abs(measured - expected),
                tol.bound(math.pi),
                detail=f"expected {expected:.6f} rad",
            )
        )
    return tuple(checks)
