"""Generalized Bottema construction.

Erect regular n-gons on the two apex sides of a triangle An A1 Bn, both with the
apex A1 as first vertex; one of orientation s lies on side -s of its apex edge
directed from the apex.  With P the base midpoint and i a quarter turn, the
midpoint M1 of the apex's antipodes is ``P + cot(pi/n) / 2 * i (s1 (A1 - An) +
s2 (A1 - Bn))``.  For opposite orientations M1 does not move with the apex: it
is the centroid of the regular n-gon erected on the base, ``|An Bn| / 2 * cot(pi
/ n)`` from P.  For equal ones it is the apex's image under one spiral
similarity about P, ``P + s1 cot(pi/n) i (A1 - P)``.  At M1, which realises
``BottemaResult.m1_kind``, each A_k and its partner subtend ``2 pi (k-1) / n``
folded into [0, pi].  Any two n-gons sharing their first vertex are such a
construction, on A1 and their vertices n: ``bottema_pair`` builds it, and
``verify_bottema`` checks it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, repeat, starmap
from operator import ge, sub
from typing import Iterator

from .checks import CheckResult, judge
from .geom import DEFAULT_TOLERANCE, GeometryError, Point, Tolerance, project_onto_line
from .polygon import RegularPolygon, _overflow, from_side, turns
from .equalizer import MatchKind, PairCase, classify_pair, partners, shared_vertex_points
from .scenario import MAX_N


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

    @property
    def m1_kind(self) -> MatchKind:
        """M1's vertex correspondence: the identity for opposite orientations, else the reversal."""
        return MatchKind.IDENTITY if self.poly1.orientation != self.poly2.orientation else MatchKind.REVERSAL


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
        raise GeometryError("triangle corners coincide")
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
    d1, d2, m1, m2, coincident = shared_vertex_points(poly1, poly2, a1)
    h, collinear = None, False
    if not tol.is_zero(an.distance(bn), max(poly1.circumradius, poly2.circumradius)):
        h = project_onto_line(m1, an, bn, tol)
        ux, uy, vx, vy = an.x - a1.x, an.y - a1.y, bn.x - a1.x, bn.y - a1.y
        if math.hypot(ux, uy) < math.hypot(vx, vy):
            ux, uy, vx, vy = vx, vy, ux, uy
        span = math.hypot(ux, uy)
        collinear = abs(ux / span * vy - uy / span * vx) <= tol.bound(span) < math.inf
    return BottemaResult(poly1, poly2, an, a1, bn, d1, d2, m1, m2, h, collinear, case, coincident)


def _check_n(n: int) -> None:
    """The one n rule of the closed form and the sweep: an integer in 3..``MAX_N``."""
    if not (isinstance(n, int) and 3 <= n <= MAX_N):
        raise GeometryError(f"need an integer n in 3..{MAX_N}, got {n!r}")


def closed_form_midpoint(
    an: Point,
    bn: Point,
    n: int,
    normal_side: int,
    tol: Tolerance = DEFAULT_TOLERANCE,
    apex: Point | None = None,
) -> Point:
    """Predicted M1: base midpoint P displaced by ``|An Bn|/2 * cot(pi/n)`` to the
    left of the directed base An -> Bn for ``normal_side`` +1, exactly the centroid
    of ``from_side(an, bn, n, normal_side)``.  With the ``apex`` A1 (orientations both
    ``normal_side``): P + normal_side * cot(pi/n) * (A1 - P) turned a quarter turn left.
    """
    if normal_side not in (1, -1):
        raise GeometryError(f"normal_side must be +1 or -1, got {normal_side!r}")
    _check_n(n)
    chord = bn - an
    length = chord.norm()
    if length <= tol.bound(0.0):
        raise GeometryError("base endpoints coincide")
    if apex is not None:
        middle = an.midpoint(bn)
        return middle + (apex - middle).perpendicular() * (normal_side / math.tan(math.pi / n))
    normal = chord.perpendicular() * (normal_side / length)
    return an.midpoint(bn) + normal * (0.5 * length / math.tan(math.pi / n))


def verify_bottema(pair: BottemaResult, tol: Tolerance = DEFAULT_TOLERANCE) -> tuple[CheckResult, ...]:
    """The theorem on a pair with a base An Bn, from its orientations, not
    from M1's position.  ``closed_form_midpoint``: M1 is
    ``closed_form_midpoint`` with the first polygon's orientation, on the apex
    for equal orientations; for opposite ones, ``altitude_length``: |M1 H| is
    ``|An Bn| / 2 * cot(pi / n)``, and ``foot_at_base_midpoint``: H is the
    base midpoint.  Then ``vertex_angles``, one check over every k, read
    straight off ``_angle_residuals`` with no per-k check: it shows the worst
    k's residual, names that k (the first, on a tie), counts any vertex pairs
    at M1, and passes iff every k passes, vacuous iff every k is.
    """
    an, bn, m1, h = pair.an, pair.bn, pair.m1, pair.h
    n, side = pair.poly1.n, pair.poly1.orientation
    base = an.distance(bn)
    if pair.m1_kind is MatchKind.REVERSAL:
        checks = (judge("closed_form_midpoint", m1.distance(closed_form_midpoint(an, bn, n, side, tol, pair.a1)),
                        base, tol, detail=f"apex turned about the base midpoint, orientation {side:+d}"),)
    else:
        checks = (judge("closed_form_midpoint", m1.distance(closed_form_midpoint(an, bn, n, side, tol)), base, tol,
                        detail=f"base normal side {side:+d}"),
                  judge("altitude_length", abs(m1.distance(h) - 0.5 * base / math.tan(math.pi / n)), base, tol),
                  judge("foot_at_base_midpoint", h.distance(an.midpoint(bn)), base, tol))
    worst_k, worst, at_m1 = 0, 0.0, 0
    for k, residual in enumerate(_angle_residuals(pair, tol), 2):
        if residual is None:
            at_m1 += 1
        elif not worst_k or residual > worst:
            worst_k, worst = k, residual
    parts = [f"worst k{worst_k}, {_angle_labels(n)[worst_k - 2][2]}"] if worst_k else []
    if at_m1:
        parts.append(f"vertex pairs at M1: {at_m1}")
    return (*checks, judge("vertex_angles", worst, math.pi, tol, not worst_k, ", ".join(parts)))


# The apex sweep works in its base's frame: An at the origin, and Bn - An times
# 2**-e, for the exponent e that math.frexp gives the base length, so that the
# frame's base length L is in [0.5, 1).  The scaling is exact but where a
# coordinate falls below 2**-1022 in the frame, and then off by at most
# 2**-1075; the residuals go back by 2**e.  The draws put the apex A at
# s e + h e' with s = t L, h = y L, t in [-0.5, 1.5] and y in [0.05, 2 (1 +
# 2**-52)], for the unit base direction e and its normal e', and n <= MAX_N.
# Each step rounds to nearest with relative error at most u = 2**-53, or
# underflows with an error under 2**-1074, which drowns in the margins below.
#
# Finite.  Rounding moves A by at most 20u L < 2**-48 L per coordinate from
# s e + h e', which is at most 2.51 L from An and at least 0.05 L (1 - 5u) from
# the base line; Bn is within 6u L of that line.  So |A| <= 2.6 L, each apex
# side is in [0.0499 L, 3.7 L], and with sin(pi/n) >= 2/n each radius is
# positive and under 2**11: circles, antipodes and M1 are all below 2**13.  No
# side is tested against the floor: the door tests the base, and each side is
# at least 0.0499 times as long.
#
# Exterior sides.  A is left of An -> Bn, so the exact value of
# bottema_construct's test ux / side_n * vy - uy / side_n * vx, twice the
# triangle's area over the apex side to An, is at least 0.0499 L * L / 3.7 L,
# about 0.0135 L; its rounding error is below 2**-48 L.  So the test reads -1
# for the An polygon and +1 for the Bn polygon on every apex.
#
# Doubled centroids.  Per axis the loop forms 2 O = c + r, c = A + C for the
# corner C and r = q * (side / tan) with q = +-uy / side or +-ux / side, where
# from_side halves c and side, so r.  Those halvings are exact, and 2 O - A the
# same float, while c and r are 0 or at least 2**-1021, as side / tan > 2**-7
# is.  Otherwise one term is under a quarter ulp of what it is added to:
# - 0 < |c| < 2**-1021 needs |A|, |C| < 2**-968 on this axis, so the side runs
#   along the other and |r| > 2**-8: the sums read r and r / 2;
# - |r| < 2**-1021 puts the side along this axis, |A - C| > 2**-6: c = 0 and
#   |A| > 2**-7, so 2 O - A reads -A; or |c| >= 2**-60: the sums read c, c / 2.
#
# The spread over rim midpoints.  On each axis the larger of a midpoint's two
# differences to the bounding box's edges bounds its float difference to any
# midpoint, as subtraction rounds monotonically, and math.hypot and math.dist
# share CPython's vector norm, within 1 ulp.  The widest pair is at least as wide
# as `lower`, a real pair's width, so the hypot of each end's four differences is
# at least lower (1 - 2**-50), or lower - 2**-1073 below 2**-1022: not under the cut.


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
    spread of the computed midpoints, taken over the distinct ones and, by the
    bound argued above, only between the rim ones, and
    ``apex_independence_closed_form``, their worst distance to the closed form.

    The door refuses an n that is not an integer in 3..``MAX_N``, a base past
    the float range and a base not longer than the floor ``tol.bound(0.0)``.
    The sweep then runs in the base's frame (argued above), so its verdict
    depends neither on where the base sits nor on its size: both residuals go
    back to the caller's units, exactly, before they are judged.  There every
    apex passes each test of the construction up to M1, so none is tested.

    Each apex computes only M1, with ``bottema_construct``'s arithmetic on the
    base in its frame, so its M1 is bit-equal to ``bottema_construct``'s
    there.  ``tan(pi / n)`` is taken once and the sides are fixed, -1 for the
    An polygon and +1 for the Bn one, as every apex is left of An -> Bn.  Each
    apex computes in plain floats, calling no Python function, with two
    ``random()`` draws and two ``hypot`` calls: the corner differences and
    apex-side lengths, both centroids doubled by ``from_side``'s arithmetic
    less its exact halvings, the antipodes and their midpoint.

    Each draw is ``a + (b - a) * random()``, the expression
    ``random.uniform`` documents, so it is the float ``rng.uniform(a, b)``
    gives.  The apex's coordinates are the float operations of ``an + along
    * s + normal * u`` in the same order, so they are the same floats.  The
    distances are ``math.hypot`` and ``math.dist`` of the coordinate
    differences: both take ``fabs`` of each difference and share CPython's
    vector norm, so each is the float ``Point.distance`` gives.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    dx, dy = bn.x - an.x, bn.y - an.y
    base_length = math.hypot(dx, dy)
    if not base_length < math.inf:
        raise _overflow("base", (dx, dy))
    if base_length <= tol.bound(0.0):
        raise GeometryError("base endpoints coincide")
    _check_n(n)
    e = math.frexp(base_length)[1]
    bnx, bny = math.ldexp(dx, -e), math.ldexp(dy, -e)
    length = math.hypot(bnx, bny)
    ex, ey = bnx * (1.0 / length), bny * (1.0 / length)
    nx, ny = -ey, ex
    draw, tan, hypot = random.Random(seed).random, math.tan(math.pi / n), math.hypot
    # closed_form_midpoint's arithmetic for normal side +1, with An at the origin.
    closed = 0.5 * bnx + nx * (0.5 * length / tan), 0.5 * bny + ny * (0.5 * length / tan)
    midpoints: dict[tuple[float, float], None] = {}
    for _ in range(samples):
        t = -0.5 + (1.5 - -0.5) * draw()
        height = 0.05 + (2.0 - 0.05) * draw()
        s, u = t * length, height * length
        ax, ay = ex * s + nx * u, ey * s + ny * u
        ux, uy, vx, vy = -ax, -ay, bnx - ax, bny - ay
        side_n, side_b = hypot(ux, uy), hypot(vx, vy)
        # from_side's arithmetic, less its halvings, so twice the centroids of the
        # circles on An -> A1 and Bn -> A1, on the sides -1 and +1.
        inverse, apothem = 1.0 / side_n, side_n / tan
        x1 = ax + uy * inverse * apothem
        y1 = ay - ux * inverse * apothem
        inverse, apothem = 1.0 / side_b, side_b / tan
        x2 = (ax + bnx) - vy * inverse * apothem
        y2 = (ay + bny) + vx * inverse * apothem
        midpoints[0.5 * ((x1 - ax) + (x2 - ax)), 0.5 * ((y1 - ay) + (y2 - ay))] = None
    # A repeated midpoint adds only zero distances and repeats a distance to the
    # closed form: the maxima over the distinct ones are the same floats, and the
    # spread's over the rim ones only (argued above).
    dist, points = math.dist, list(midpoints)
    worst_closed = max(map(dist, repeat(closed), points))
    xs, ys = zip(*points)
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    lower = max(dist(points[xs.index(x_lo)], points[xs.index(x_hi)]),
                dist(points[ys.index(y_lo)], points[ys.index(y_hi)]))
    reach = map(hypot, map(sub, xs, repeat(x_lo)), map(sub, repeat(x_hi), xs),
                map(sub, ys, repeat(y_lo)), map(sub, repeat(y_hi), ys))
    rim = compress(points, map(ge, reach, repeat(lower / (1 + 2 ** -40) - 2 ** -1070)))
    max_deviation = max(starmap(dist, combinations(rim, 2)), default=0.0)
    return (
        judge("apex_independence_spread", math.ldexp(max_deviation, e), base_length, tol,
              detail=f"{samples} apexes, exterior placement"),
        judge("apex_independence_closed_form", math.ldexp(worst_closed, e), base_length, tol),
    )


@lru_cache(maxsize=32)
def _angle_labels(n: int) -> tuple[tuple[str, float, str], ...]:
    """For k = 2..n: the check's name, the expected angle ``turns(n)[k - 1]``
    folded into [0, pi], and the check's detail, built once per n."""
    folded = [min(turn, math.tau - turn) for turn in turns(n)[1:]]
    return tuple([(f"vertex_angle_k{k}", angle, f"expected {angle:.6f} rad") for k, angle in enumerate(folded, 2)])


def _angle_residuals(result: BottemaResult, tol: Tolerance) -> Iterator[float | None]:
    """For k = 2..n, the residual of the angle at M1 between A_k and its partner
    under ``result.m1_kind`` against the folded expectation, or None where both
    vertices k are at M1.

    ``angle_at(m1, poly1.vertex(k), partner, tol)`` on both polygons'
    coordinates: its differences, norms, unit rays, cross and dot in the same
    order, so every angle is the same float, with no ``Point`` and the floor
    ``tol.bound(0.0)`` taken once.  A ray past the float range raises the
    overflow error.  A k whose two rays are both within the tolerance of the
    larger circumradius has both its vertices at M1.  Otherwise a k with a ray
    not longer than the floor raises ``angle_at``'s error.
    """
    poly1, poly2, m1 = result.poly1, result.poly2, result.m1
    xs, ys = poly1.coordinates()
    us, vs = (partners(column, result.m1_kind) for column in poly2.coordinates())
    mx, my, hypot, atan2, inf = m1.x, m1.y, math.hypot, math.atan2, math.inf
    floor, near = tol.bound(0.0), tol.bound(max(poly1.circumradius, poly2.circumradius))
    for k, (_, expected, _) in enumerate(_angle_labels(poly1.n), 2):
        ux, uy, vx, vy = xs[k - 1] - mx, ys[k - 1] - my, us[k - 1] - mx, vs[k - 1] - my
        # The coordinates and M1 are finite, so neither length is NaN.
        lu, lv = hypot(ux, uy), hypot(vx, vy)
        if not (lu < inf and lv < inf):
            raise _overflow(f"ray to vertex pair {k}", f"lengths {(lu, lv)}")
        if lu <= near and lv <= near:
            yield None
            continue
        if lu <= floor or lv <= floor:
            raise GeometryError("angle ray endpoint coincides with the vertex")
        ux, uy, vx, vy = ux / lu, uy / lu, vx / lv, vy / lv
        yield abs(atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy) - expected)


def vertex_angles(
    result: BottemaResult, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[CheckResult, ...]:
    """Angles at M1 between each A_k and its partner under ``result.m1_kind``, against the folded expectation.

    Returns one ``vertex_angle_k{k}`` check per k = 2..n, each judged at the
    scale pi, on ``_angle_residuals``.  Each k's name, expected angle (its turn
    in the table ``turns(n)``, folded) and detail come from a table built once
    per n.  A k whose vertices are both at M1 subtends no angle, and its check
    is vacuous.
    """
    return tuple([judge(name, 0.0, math.pi, tol, vacuous=True, detail="vertex pair at M1") if residual is None
                  else judge(name, residual, math.pi, tol, detail=detail)
                  for (name, _, detail), residual in zip(_angle_labels(result.poly1.n), _angle_residuals(result, tol))])
