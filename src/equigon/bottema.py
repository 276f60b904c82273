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
    turns,
)
from .equalizer import MatchKind, PairCase, antipode_midpoint, classify_pair, partners, shared_vertex_points


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
    poly1, poly2 = _erect_polygons(an, a1, bn, n, side1, side2, tol)
    return bottema_pair(poly1, poly2, an, a1, bn, tol)


def _erect_polygons(an: Point, a1: Point, bn: Point, n: int, side1: int | None, side2: int | None,
                    tol: Tolerance) -> tuple[RegularPolygon, RegularPolygon]:
    """``bottema_construct``'s two polygons, ``from_side`` after its triangle tests."""
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
    return (from_side(a1, an, n, exterior if side1 is None else side1, tol),
            from_side(a1, bn, n, -exterior if side2 is None else side2, tol))


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
    if n < 3:
        raise GeometryError(f"need n >= 3, got {n}")
    chord = bn - an
    length = chord.norm()
    if length <= tol.bound(0.0):
        raise DegenerateSideError("base endpoints coincide")
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
    base midpoint.  Each is bounded by ``tol.bound(|An Bn|)``.  Then
    ``vertex_angles``.
    """
    an, bn, m1, h = pair.an, pair.bn, pair.m1, pair.h
    n, side = pair.poly1.n, pair.poly1.orientation
    base = an.distance(bn)
    if pair.m1_kind is MatchKind.REVERSAL:
        predicted = closed_form_midpoint(an, bn, n, side, tol, pair.a1)
        return (residual_check("closed_form_midpoint", m1.distance(predicted), tol.bound(base),
                               detail=f"apex turned about the base midpoint, orientation {side:+d}"),
                *vertex_angles(pair, tol))
    predicted = closed_form_midpoint(an, bn, n, side, tol)
    altitude = 0.5 * base / math.tan(math.pi / n)
    return (
        residual_check("closed_form_midpoint", m1.distance(predicted), tol.bound(base),
                       detail=f"base normal side {side:+d}"),
        residual_check("altitude_length", abs(m1.distance(h) - altitude), tol.bound(base)),
        residual_check("foot_at_base_midpoint", h.distance(an.midpoint(bn)), tol.bound(base)),
        *vertex_angles(pair, tol),
    )


# The apex sweep's filter, in the manner of geom's _CCW_ERRBOUND: one test per
# base decides that every apex the sweep can draw passes each test of the
# construction up to M1 (_erect_polygons, then antipode_midpoint), and then no
# apex runs them.  The settled tests: n is an integer; the apex, the triangle's
# signed area and squared longest apex side, both centroids and radii, the
# antipodes and M1 are finite; both apex sides are above the floor.
#
# Ranges.  The draws put the apex A at An + s e + h e' with s = t L, h = y L,
# t in [-0.5, 1.5] and y in [0.05, 2 (1 + 2**-52)], for the float base length L,
# unit base direction e and its normal e'.  The filter asks for an integer
# n <= 2**20, 2**-400 <= L <= 2**400, corner coordinates C <= 2**20 L in
# magnitude and a floor below 0.04 L.  Each step then rounds to nearest with
# relative error at most u = 2**-53, or underflows with an error under
# 2**-1074, which is below 2**-600 u L and drowns in the margins below.
#
# Finite and above the floor.  Rounding moves A by at most 3u (C + 2.6 L) <
# 2**-30 L per coordinate from An + s e + h e', which is |s e + h e'| <= 2.51 L
# from An and at least 0.05 L (1 - 5u) from the base line; Bn is within 6u L of
# that line.  So |A| <= C + 2.6 L, each apex side is in [0.0499 L, 3.7 L] and
# above the floor, the signed area is under 30 L**2, and with sin(pi/n) >= 2/n
# each radius is positive and under 2**20 L: apex, triangle, radii, centroids,
# phases, antipodes and M1 are all below 2**430, so finite.
#
# Exterior sides.  A is left of An -> Bn, so the exact value of
# _erect_polygons' test ux / side_n * vy - uy / side_n * vx, twice the
# triangle's area over the apex side to An, is at least 0.0499 L * L / 3.7 L,
# about 0.0135 L; its rounding error is below 2**-29 L.  So the test reads -1
# for the An polygon and +1 for the Bn polygon on every apex.
#
# Doubled centroids.  Per axis the loop forms 2 O = c + r, c = A + An and r =
# q * (side_n / tan) with q = +-uy / side_n or +-ux / side_n, where from_side
# halves c and side_n, so r.  Those halvings are exact, and 2 O - A the same
# float, while c and r are 0 or at least 2**-1021, as side_n / tan > 2**-406
# is.  Otherwise one term is under a quarter ulp of what it is added to:
# - 0 < |c| < 2**-1021 needs |A|, |An| < 2**-968 on this axis, so the side runs
#   along the other and |r| > 2**-407: the sums read r and r / 2;
# - |r| < 2**-1021 puts the side along this axis, |A - An| > 2**-405: c = 0 and
#   |A| > 2**-406, so 2 O - A reads -A; or |c| >= 2**-459: the sums read c, c / 2.
#
# The spread over rim midpoints.  On each axis the larger of a midpoint's two
# differences to the bounding box's edges bounds its float difference to any
# midpoint, as subtraction rounds monotonically, and math.hypot and math.dist
# share CPython's vector norm, within 1 ulp.  The widest pair is at least as wide
# as `lower`, a real pair's width, so the hypot of each end's four differences is
# at least lower (1 - 2**-50), or lower - 2**-1073 below 2**-1022: not under the cut.


def _sweep_settled(base_length: float, corner: float, n: int, floor: float) -> bool:
    """Whether every apex of a sweep over this base passes each test of the
    construction up to M1: the bound above, from the base length, the largest
    corner coordinate, n and the floor."""
    return (
        isinstance(n, int) and n <= 2 ** 20
        and 2.0 ** -400 <= base_length <= 2.0 ** 400
        and corner <= 2.0 ** 20 * base_length
        and floor < 0.04 * base_length
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
    spread of the computed midpoints, taken over the distinct ones and, by the
    bound argued beside ``_sweep_settled``, only between the rim ones, and
    ``apex_independence_closed_form``, their worst distance to the closed form.

    Each apex computes only M1, with ``bottema_construct``'s arithmetic, so
    its M1 is bit-equal to ``bottema_construct``'s.  An error bound
    (``_sweep_settled``, argued beside it) settles once per base that every
    apex the sweep can draw passes each test of the construction up to M1:
    for an integer n <= 2**20, a base length L in [2**-400, 2**400] longer
    than 25 times ``tol.abs`` and corner coordinates at most 2**20 L, each
    apex has both sides above the floor and a finite triangle, circles,
    antipodes and M1.  On a settled base ``tan(pi / n)`` is taken once and
    the sides are fixed per base, -1 for the An polygon and +1 for the Bn
    one, as every apex is left of An -> Bn.  Each apex computes in plain
    floats, calling no Python function, with two ``random()`` draws and two
    ``hypot`` calls: the corner differences and apex-side lengths, both
    centroids doubled by ``from_side``'s arithmetic less its exact halvings,
    the antipodes and their midpoint.  On any other base each apex, once it is
    finite, runs the checked construction up to M1 (the polygons
    ``bottema_construct`` erects, then ``antipode_midpoint``), and the first
    test it fails raises its error.

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
    base_length = an.distance(bn)
    if not math.isfinite(base_length):
        raise _overflow("base", (bn.x - an.x, bn.y - an.y))
    floor = tol.bound(0.0)
    if base_length <= floor:
        raise DegenerateSideError("base endpoints coincide")
    draw = random.Random(seed).random
    along = (bn - an) * (1.0 / base_length)
    normal = along.perpendicular()
    ex, ey, nx, ny = along.x, along.y, normal.x, normal.y
    predicted = closed_form_midpoint(an, bn, n, 1, tol)
    px, py = predicted.x, predicted.y
    anx, any_, bnx, bny = an.x, an.y, bn.x, bn.y
    settled = _sweep_settled(base_length, max(abs(anx), abs(any_), abs(bnx), abs(bny)), n, floor)
    tan, inf, hypot = math.tan(math.pi / n), math.inf, math.hypot
    midpoints: dict[tuple[float, float], None] = {}
    for _ in range(samples):
        t = -0.5 + (1.5 - -0.5) * draw()
        height = 0.05 + (2.0 - 0.05) * draw()
        s, u = t * base_length, height * base_length
        ax, ay = anx + ex * s + nx * u, any_ + ey * s + ny * u
        if settled:
            ux, uy, vx, vy = anx - ax, any_ - ay, bnx - ax, bny - ay
            side_n, side_b = hypot(ux, uy), hypot(vx, vy)
            # from_side's arithmetic, less its halvings, so twice the centroids of the
            # circles on An -> A1 and Bn -> A1, on the sides -1 and +1 of a settled base.
            inverse, apothem = 1.0 / side_n, side_n / tan
            x1 = (ax + anx) + uy * inverse * apothem
            y1 = (ay + any_) - ux * inverse * apothem
            inverse, apothem = 1.0 / side_b, side_b / tan
            x2 = (ax + bnx) - vy * inverse * apothem
            y2 = (ay + bny) + vx * inverse * apothem
            mx = 0.5 * ((x1 - ax) + (x2 - ax))
            my = 0.5 * ((y1 - ay) + (y2 - ay))
        else:
            if not (-inf < ax < inf and -inf < ay < inf):
                raise _overflow("apex", (ax, ay))
            apex = Point(ax, ay)
            m1 = antipode_midpoint(*_erect_polygons(an, apex, bn, n, None, None, tol), apex)[2]
            mx, my = m1.x, m1.y
        midpoints[mx, my] = None
    # A repeated midpoint adds only zero distances and repeats a distance to the
    # closed form: the maxima over the distinct ones are the same floats, and the
    # spread's over the rim ones only (argued beside _sweep_settled).
    dist, points = math.dist, list(midpoints)
    worst_closed = max(map(dist, repeat((px, py)), points))
    xs, ys = zip(*points)
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    lower = max(dist(points[xs.index(x_lo)], points[xs.index(x_hi)]),
                dist(points[ys.index(y_lo)], points[ys.index(y_hi)]))
    reach = map(hypot, map(sub, xs, repeat(x_lo)), map(sub, repeat(x_hi), xs),
                map(sub, ys, repeat(y_lo)), map(sub, repeat(y_hi), ys))
    rim = compress(points, map(ge, reach, repeat(lower / (1 + 2 ** -40) - 2 ** -1070)))
    max_deviation = max(starmap(dist, combinations(rim, 2)), default=0.0)
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


@lru_cache(maxsize=32)
def _angle_labels(n: int) -> tuple[tuple[str, float, str], ...]:
    """For k = 2..n: the check's name, the expected angle ``turns(n)[k - 1]``
    folded into [0, pi], and the check's detail, built once per n."""
    folded = [min(turn, math.tau - turn) for turn in turns(n)[1:]]
    return tuple([(f"vertex_angle_k{k}", angle, f"expected {angle:.6f} rad") for k, angle in enumerate(folded, 2)])


def vertex_angles(
    result: BottemaResult, tol: Tolerance = DEFAULT_TOLERANCE
) -> tuple[CheckResult, ...]:
    """Angles at M1 between each A_k and its partner under ``result.m1_kind``, against the folded expectation.

    Returns one ``vertex_angle_k{k}`` check per k = 2..n, each bounded by
    ``tol.bound(pi)``.  Each k's name, expected angle (its turn in the table
    ``turns(n)``, folded) and detail come from a table built once per n.

    ``angle_at(m1, poly1.vertex(k), partner, tol)`` on both polygons'
    coordinates: its differences, norms, unit rays, cross and dot in the same
    order, so every angle is the same float, with no ``Point`` and the floor
    ``tol.bound(0.0)`` taken once.  A ray past the float range raises the
    overflow error.  A k whose two rays are both within the tolerance of the
    larger circumradius has both its vertices at M1, and its check is vacuous.
    Otherwise a k with a ray not longer than the floor raises ``angle_at``'s
    ``DegenerateRayError``.
    """
    poly1, poly2, m1 = result.poly1, result.poly2, result.m1
    xs, ys = poly1.coordinates()
    us, vs = (partners(column, result.m1_kind) for column in poly2.coordinates())
    mx, my, hypot, inf = m1.x, m1.y, math.hypot, math.inf
    floor, bound = tol.bound(0.0), tol.bound(math.pi)
    near = tol.bound(max(poly1.circumradius, poly2.circumradius))
    checks = []
    for k, (name, expected, detail) in enumerate(_angle_labels(poly1.n), 2):
        ux, uy, vx, vy = xs[k - 1] - mx, ys[k - 1] - my, us[k - 1] - mx, vs[k - 1] - my
        # The coordinates and M1 are finite, so neither length is NaN.
        lu, lv = hypot(ux, uy), hypot(vx, vy)
        if not (lu < inf and lv < inf):
            raise _overflow(f"ray to vertex pair {k}", f"lengths {(lu, lv)}")
        if lu <= near and lv <= near:
            # Both vertices k are at M1: they subtend no angle.
            checks.append(residual_check(name, 0.0, bound, vacuous=True, detail="vertex pair at M1"))
            continue
        if lu <= floor or lv <= floor:
            raise DegenerateRayError("angle ray endpoint coincides with the vertex")
        ux, uy, vx, vy = ux / lu, uy / lu, vx / lv, vy / lv
        measured = math.atan2(abs(ux * vy - uy * vx), ux * vx + uy * vy)
        checks.append(residual_check(name, abs(measured - expected), bound, detail=detail))
    return tuple(checks)
