"""Generalized Bottema construction.

Erect regular n-gons on the two apex sides of a triangle An A1 Bn, both sharing
the apex A1 as their first vertex.  With D1, D2 the antipodes of the apex on
the two circumcircles, the midpoint M1 of D1 D2 does not move when the apex
does: it is the centroid of the regular n-gon erected on the fixed base An Bn
(on the apex side when both polygons are placed exterior).  Its distance from
the base is ``|An Bn| / 2 * cot(pi / n)``, and the foot of that perpendicular
is the base midpoint.  At M1 the vertex pairs subtend fixed angles:
``angle(A_k M1 B_k) = 2 pi (k-1) / n`` folded into [0, pi].

Any two n-gons running in opposite directions from a shared first vertex A1
are such a construction, on A1 and their vertices n: ``bottema_pair`` builds
that geometry, and ``verify_bottema`` checks the theorem on it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import combinations, repeat, starmap

from .checks import CheckResult, residual_check
from .geom import (
    DEFAULT_TOLERANCE,
    DegenerateRayError,
    GeometryError,
    Point,
    Tolerance,
    project_onto_line,
)
from .polygon import (
    DegenerateSideError,
    RegularPolygon,
    _overflow,
    from_side,
)
from .equalizer import PairCase, classify_pair, shared_vertex_points


class DegenerateTriangleError(GeometryError):
    pass


@dataclass(frozen=True)
class BottemaResult:
    """Two n-gons sharing their first vertex ``a1``, with their vertices n
    ``an`` and ``bn``, and what ``bottema_pair`` finds on them.  Polygons that
    share their vertex n too have no base An Bn, so no foot H."""

    poly1: RegularPolygon
    poly2: RegularPolygon
    an: Point
    a1: Point
    bn: Point
    d1: Point
    d2: Point
    m1: Point
    m2: Point
    h: Point | None
    collinear: bool
    case: PairCase
    coincident: bool


def bottema_construct(
    an: Point,
    a1: Point,
    bn: Point,
    n: int,
    side1: int | None = None,
    side2: int | None = None,
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> BottemaResult:
    """Build both polygons on the apex sides and their ``bottema_pair``.

    ``side1`` / ``side2`` select the half-planes for the polygons on A1 An and
    A1 Bn (+1 = left of the directed segment from the apex); omitted sides
    default to the exterior of the triangle.  A collinear apex is accepted and
    flagged.  Coincident corners are rejected, and so is a signed area or
    squared longest apex side past the float range, which would leave the
    exterior sides a guess.  The exterior sides follow from the side of the
    line A1 An that Bn is on, read along that line's unit direction, so that
    no product of two lengths underflows.
    """
    floor = tol.bound(0.0)
    ux, uy, vx, vy = an.x - a1.x, an.y - a1.y, bn.x - a1.x, bn.y - a1.y
    side_n, side_b = math.hypot(ux, uy), math.hypot(vx, vy)
    if side_n <= floor or side_b <= floor or an.distance(bn) <= floor:
        raise DegenerateTriangleError("triangle corners coincide")
    signed = ux * vy - uy * vx
    span_sq = side_n * side_n if side_n > side_b else side_b * side_b
    if not (abs(signed) < math.inf and span_sq < math.inf):
        raise _overflow("triangle", f"signed area {signed!r}, squared apex side {span_sq!r}")
    exterior = -1 if ux / side_n * vy - uy / side_n * vx > 0.0 else 1
    poly1 = from_side(a1, an, n, exterior if side1 is None else side1, tol)
    poly2 = from_side(a1, bn, n, -exterior if side2 is None else side2, tol)
    return bottema_pair(poly1, poly2, an, a1, bn, tol)


def bottema_pair(poly1: RegularPolygon, poly2: RegularPolygon, an: Point, a1: Point, bn: Point,
                 tol: Tolerance = DEFAULT_TOLERANCE) -> BottemaResult:
    """The geometry of two n-gons sharing their first vertex ``a1``, whose
    vertices n are ``an`` and ``bn``: the case from ``classify_pair``, D1, D2,
    M1, M2 and whether M1 = M2 from ``shared_vertex_points``.  When the base
    An Bn is longer than the tolerance of the larger circumradius (the scale
    ``classify_pair`` tells centroids apart on), also the foot H of M1 on it
    and whether the triangle An A1 Bn is collinear: its height over the longer
    apex side, taken along that side's unit direction so that no product of
    two lengths leaves the float range, is within the tolerance of that side.
    """
    case = classify_pair(poly1, poly2, tol)
    d1, d2, m1, m2, coincident = shared_vertex_points(poly1, poly2, a1, tol)
    h, collinear = None, False
    if not tol.is_zero(an.distance(bn), max(poly1.circumradius, poly2.circumradius)):
        h = project_onto_line(m1, an, bn, tol)
        ux, uy, vx, vy = an.x - a1.x, an.y - a1.y, bn.x - a1.x, bn.y - a1.y
        if math.hypot(ux, uy) < math.hypot(vx, vy):
            ux, uy, vx, vy = vx, vy, ux, uy
        span = math.hypot(ux, uy)
        collinear = abs(ux / span * vy - uy / span * vx) <= tol.bound(span) < math.inf
    return BottemaResult(poly1, poly2, an, a1, bn, d1, d2, m1, m2, h, collinear, case, coincident)


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


def verify_bottema(pair: BottemaResult, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[CheckResult, ...]:
    """The theorem on a pair with a base An Bn whose polygons run in opposite
    directions.

    ``closed_form_midpoint``: M1 is ``closed_form_midpoint`` on the side of
    the base An Bn that M1 is on; ``altitude_length``: |M1 H| is ``|An Bn| /
    2 * cot(pi / n)``; ``foot_at_base_midpoint``: H is the base midpoint; each
    bounded by ``tol.bound(|An Bn|)``.  Then ``vertex_angles``.
    """
    an, bn, m1, h = pair.an, pair.bn, pair.m1, pair.h
    n = pair.poly1.n
    base = an.distance(bn)
    # The side of M1 from the unit base direction: no product of two lengths underflows.
    normal_side = 1 if Point((bn.x - an.x) / base, (bn.y - an.y) / base).cross(m1 - an) > 0.0 else -1
    predicted = closed_form_midpoint(an, bn, n, normal_side, tol)
    altitude = 0.5 * base / math.tan(math.pi / n)
    return (
        residual_check("closed_form_midpoint", m1.distance(predicted), tol.bound(base),
                       detail=f"base normal side {normal_side:+d}"),
        residual_check("altitude_length", abs(m1.distance(h) - altitude), tol.bound(base)),
        residual_check("foot_at_base_midpoint", h.distance(an.midpoint(bn)), tol.bound(base)),
        *vertex_angles(pair, tol),
    )


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
    polygons on the far side.  Returns two checks, each bounded by
    ``tol.bound(|An Bn|)``: ``apex_independence_spread``, the maximum pairwise
    spread of the computed midpoints, taken over the distinct ones, and
    ``apex_independence_closed_form``, their worst distance to the closed form.

    Each apex computes only M1, with ``bottema_construct``'s arithmetic, so
    its M1 is bit-equal to ``bottema_construct``'s.  What depends only on the
    base is done once per sweep: the floor ``tol.bound(0.0)``, the check of n,
    and ``tan(pi / n)`` and ``sin(pi / n)``.  Per apex, in plain floats,
    calling no Python function but the two ``rng.uniform`` draws: the corner
    differences and apex-side lengths, shared by the triangle test and both
    circumcircles; both centroids and radii by ``from_side``'s arithmetic;
    the antipodes and their midpoint.  An apex, triangle or M1 past the float
    range raises the overflow error.  An apex that fails the other tests (a
    side at or under the floor, a circle past the float range or missing the
    apex, an n that is not an integer) calls ``bottema_construct``, whose
    checks run in the same order, and which raises the first error.

    No ``Point`` is built on the way.  The apex's coordinates are the float
    operations of ``an + along * s + normal * u`` in the same order, so they
    are the same floats.  The distances are ``math.hypot`` and ``math.dist``
    of the coordinate differences: both take ``fabs`` of each difference and
    share CPython's vector norm, so each is the float ``Point.distance`` gives.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    base_length = an.distance(bn)
    if not math.isfinite(base_length):
        raise _overflow("base", (bn.x - an.x, bn.y - an.y))
    floor = tol.bound(0.0)
    if base_length <= floor:
        raise DegenerateSideError("base endpoints coincide")
    rng = random.Random(seed)
    along = (bn - an) * (1.0 / base_length)
    normal = along.perpendicular()
    predicted = closed_form_midpoint(an, bn, n, 1, tol)
    px, py = predicted.x, predicted.y
    # closed_form_midpoint has checked n >= 3; an n that is not an integer
    # sends every apex to bottema_construct, which rejects it.
    integer_n = isinstance(n, int)
    angle = math.pi / n
    tan, sin = math.tan(angle), math.sin(angle)
    slack, rel, inf = tol.abs, tol.rel, math.inf
    anx, any_, bnx, bny = an.x, an.y, bn.x, bn.y
    midpoints: list[tuple[float, float]] = []
    for _ in range(samples):
        t = rng.uniform(-0.5, 1.5)
        height = rng.uniform(0.05, 2.0)
        s, u = t * base_length, height * base_length
        ax, ay = anx + along.x * s + normal.x * u, any_ + along.y * s + normal.y * u
        if not (-inf < ax < inf and -inf < ay < inf):
            raise _overflow("apex", (ax, ay))
        ux, uy, vx, vy = anx - ax, any_ - ay, bnx - ax, bny - ay
        side_n, side_b = math.hypot(ux, uy), math.hypot(vx, vy)
        signed = ux * vy - uy * vx
        span_sq = side_n * side_n if side_n > side_b else side_b * side_b
        passed = integer_n and side_n > floor and side_b > floor
        if passed:
            if not (-inf < signed < inf and span_sq < inf):
                raise _overflow("triangle", f"signed area {signed!r}, squared apex side {span_sq!r}")
            side = -1 if ux / side_n * vy - uy / side_n * vx > 0.0 else 1
            # from_side's arithmetic for the circles on the edges An -> A1 and Bn -> A1.
            inverse, apothem = 1.0 / side_n, 0.5 * side_n / tan
            x1 = 0.5 * (ax + anx) + -(uy * inverse) * side * apothem
            y1 = 0.5 * (ay + any_) + (ux * inverse) * side * apothem
            inverse, apothem = 1.0 / side_b, 0.5 * side_b / tan
            x2 = 0.5 * (ax + bnx) + -(vy * inverse) * -side * apothem
            y2 = 0.5 * (ay + bny) + (vx * inverse) * -side * apothem
            r1, r2 = 0.5 * side_n / sin, 0.5 * side_b / sin
            mx = 0.5 * ((x1 * 2.0 - ax) + (x2 * 2.0 - ax))
            my = 0.5 * ((y1 * 2.0 - ay) + (y2 * 2.0 - ay))
            # An infinite radius could meet an infinite slack; a centroid past the float
            # range with a finite radius (the edge's inverse overflows) fails the distance test.
            passed = (
                r1 < inf and r2 < inf
                and abs(math.hypot(ax - x1, ay - y1) - r1) <= slack + rel * r1
                and abs(math.hypot(ax - x2, ay - y2) - r2) <= slack + rel * r2
            )
        if not passed:
            # The checked path raises the degenerate apex's error, or a circle's overflow error.
            m1 = bottema_construct(an, Point(ax, ay), bn, n, tol=tol).m1
            mx, my = m1.x, m1.y
        elif not (-inf < mx < inf and -inf < my < inf):
            # A finite M1 has finite antipodes: a sum with a term that is not finite is not finite.
            raise _overflow("M1", (mx, my))
        midpoints.append((mx, my))
    # A repeated midpoint adds only zero distances and repeats a distance to
    # the closed form: the maxima over the distinct ones are the same floats.
    midpoints = list(dict.fromkeys(midpoints))
    worst_closed = max(map(math.dist, repeat((px, py)), midpoints))
    max_deviation = max(starmap(math.dist, combinations(midpoints, 2)), default=0.0)
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

    ``angle_at(m1, poly1.vertex(k), poly2.vertex(k), tol)`` on both polygons'
    coordinates: its differences, norms, unit rays, cross and dot in the same
    order, so every angle is the same float, with no ``Point`` and the floor
    ``tol.bound(0.0)`` taken once.  A ray past the float range raises the
    overflow error.  A k whose two rays are both within the tolerance of the
    larger circumradius has both its vertices at M1, and its check is vacuous.
    Otherwise a k with a ray not longer than the floor raises ``angle_at``'s
    ``DegenerateRayError``.
    """
    poly1, poly2, m1 = result.poly1, result.poly2, result.m1
    n = poly1.n
    xs, ys = poly1.coordinates()
    us, vs = poly2.coordinates()
    mx, my, hypot, inf = m1.x, m1.y, math.hypot, math.inf
    floor, bound = tol.bound(0.0), tol.bound(math.pi)
    near = tol.bound(max(poly1.circumradius, poly2.circumradius))
    checks = []
    for k in range(2, n + 1):
        ux, uy, vx, vy = xs[k - 1] - mx, ys[k - 1] - my, us[k - 1] - mx, vs[k - 1] - my
        rays = hypot(ux, uy), hypot(vx, vy)
        if not max(rays) < inf:
            raise _overflow(f"ray to vertex pair {k}", f"lengths {rays}")
        raw = math.tau * (k - 1) / n
        expected = min(raw, math.tau - raw)
        if max(rays) <= near:
            # Both vertices k are at M1: they subtend no angle.
            checks.append(residual_check(f"vertex_angle_k{k}", 0.0, bound, vacuous=True,
                                         detail="vertex pair at M1"))
            continue
        if min(rays) <= floor:
            raise DegenerateRayError("angle ray endpoint coincides with the vertex")
        ux, uy, vx, vy = ux / rays[0], uy / rays[0], vx / rays[1], vy / rays[1]
        measured = math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)
        checks.append(
            residual_check(
                f"vertex_angle_k{k}",
                abs(measured - expected),
                bound,
                detail=f"expected {expected:.6f} rad",
            )
        )
    return tuple(checks)
