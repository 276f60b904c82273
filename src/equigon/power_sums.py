"""Power sums of squared vertex distances and their closed form.

For a regular n-gon with circumradius R and a probe point at distance L from
the centroid, the paper's cyclic average of the 2m-th powers of the vertex
distances depends only on (n, R, L) for every order m up to n-1:

    (1/n) sum_i d_i^(2m) = avg_theta (s - 2RL cos theta)^m
                         = |R^2 - L^2|^m P_m(s / |R^2 - L^2|),   s = R^2 + L^2,

with P_m the Legendre polynomial (Laplace's first integral).  The helpers here
evaluate both sides, compare two polygons' averages at one point from the
closed form alone (it is symmetric in R and L, so they agree where each
polygon's L is the other's R), convert power sums to elementary symmetric
functions (Newton's identities), and decide multiset equality of
squared-distance lists.

The closed form is normalized by (R+L)^(2m), the 2m-th power of the largest
vertex distance.  With u = R/(R+L) and v = L/(R+L), so sigma = u^2 + v^2 and
rho = (u - v)^2, Bonnet's recurrence for P_m becomes

    f_0 = 1,  f_1 = sigma,  f_(m+1) = ((2m+1) sigma f_m - m rho f_(m-1)) / (m+1),

and n f_m is the normalized power sum of order m.  Every f_m lies in (0, 1],
so no order overflows or underflows whatever the scale of R and L.  The
recurrence is stable forward: s / |R^2 - L^2| >= 1, where P_m is the dominant
solution, so rounding errors grow no faster than the values themselves.  The
identity check divides each coordinate difference by R+L before squaring
(dividing the squares instead would underflow them to zero at small scales).

The direct sums run in C, with no Python frame per element, and keep the bits
of a per-order running-product loop (``_power_sums``).  They skip no value's
first order, and from there on only the products that the sum they join
absorbs: once v_k <= 2**(-55 / (s - 1)) B_k, for a bound B_k earlier in the
list that is summed at every order, each later product of v_k is under 2**-54
of B_k's and so under half an ulp of the partial sum it would be added to,
which therefore stays the same float (the argument is above ``_retirement``).
A few stops, planned from the sorted values where they save more than they
cost, drop such values from all later orders.  Each power-sum check
judges its orders in one pass (``_orders_check``), which takes each order's
gap, magnitude, bound test and residual in turn, with no list per quantity.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, gt, mul, sub
from typing import Iterable, Iterator, Sequence

from .checks import CheckResult, judge
from .geom import DEFAULT_TOLERANCE, GeometryError, Point, Tolerance
from .polygon import RegularPolygon


def distances_squared(poly: RegularPolygon, point: Point) -> tuple[float, ...]:
    """Squared distances from ``point`` to each vertex of ``poly``, in vertex order.

    ``point.distance_squared(vertex)`` on ``poly.coordinates()``, dx * dx +
    dy * dy with each difference taken twice: the same bits, with no ``Point``
    and no method call per vertex.
    """
    xs, ys = poly.coordinates()
    x, y = point.x, point.y
    return tuple([(x - vx) * (x - vx) + (y - vy) * (y - vy) for vx, vy in zip(xs, ys)])


# Up to Python 3.11 ``sum`` adds floats left to right from the int 0; from 3.12
# it compensates them, and keeps both 1.0s of this probe.  So the fold is
# ``sum`` where it adds plainly, else the same additions from the same start.
_fold = sum if sum([1.0, 1e100, 1.0, -1e100]) == 0.0 else lambda column: reduce(add, column, 0)


def _power_sums(values: Sequence[float], top: int) -> Iterator[float]:
    """p_1..p_top of ``values`` (top >= 1), each a left-to-right sum of running products.

    ``accumulate`` yields each value's running products v, v*v, (v*v)*v, ...;
    column m of the ``zip`` holds order m's products in value order, and
    ``_fold`` adds them from 0 as a per-order loop adds its list, so the bits
    are that loop's on every Python.  Lazy: a caller that stops at order m
    pays for m orders only.  No values give ``top`` zeros.

    Where ``_retirement`` plans stops, the columns come in segments, and each
    stop drops the iterators of the values whose later products every sum
    absorbs (argued above ``_retirement``): the loop's additions less ones
    that change no bit.
    """
    if not values:
        return repeat(0, top)
    its = [accumulate(repeat(v, top), mul) for v in values]
    plan = _retirement(values, top)
    if plan is None:
        return map(_fold, zip(*its))
    # Each segment zips the iterators still summed; a zip pulls nothing until its
    # columns are taken, so the segments can be built before the first is.  The
    # limits grow from stop to stop, so a value that left stays out.
    at, stops = plan
    segments, live, done = [], its, 0
    for stop, before, after in stops:
        segments.append(map(_fold, islice(zip(*live), stop - done)))
        limits = [before] * at + [after] * (len(values) - at)
        live, done = list(compress(its, map(gt, values, limits))), stop
    return chain.from_iterable([*segments, map(_fold, zip(*live))])


@lru_cache(maxsize=32)
def _candidate_stops(top: int) -> tuple[tuple[int, float, int], ...]:
    """(stop, its bound 2**(-55 / (stop - 1)), the next stop or ``top``) for stops in 2..top-1,
    each about 3/4 of the next, ascending."""
    stops, stop = [], top * 3 // 4
    while stop >= 2:
        stops.append(stop)
        stop = stop * 3 // 4
    stops.reverse()
    return tuple(zip(stops, [2.0 ** (-55.0 / (stop - 1)) for stop in stops], [*stops[1:], top]))


# Which products the sums absorb.  Take values v_0 .. v_(n-1) that are all
# finite and >= 0, and order top < 2**40.  Order m's sum adds each value's
# running product t_k = fl(t_k' v_k) to the partial sum P of the terms before
# it, from 0; every term is >= 0, so P is at least each term already in it.
# Let B_k be v_0 for positions k before the first maximum and the maximum
# for positions after it: a value at an earlier position that never leaves.
# Position k leaves after order s where v_k <= fl(b_s B_k), with b_s =
# 2**(-55 / (s - 1)); that is d_k <= s for d_k = ceil(55 ln 2 / ln(B_k /
# v_k)) + 1.  Then at every order m > s:
# - While t_k is normal it is at most v_k^m (1 + u)^(m-1), u = 2**-53, and
#   B_k's product is at least B_k^m (1 - u)^(m-1), normal too, because B_k >=
#   2**(-900 / top) makes B_k^m >= 2**-900 (or B_k >= 1).  With v_k / B_k <=
#   b_s (1 + 45u), counting the rounding of b_s and of fl(b_s B_k), t_k is at
#   most 2**(-55 m / (s - 1)) (1 + 45u)^(2m) < 2**-54 times B_k's product,
#   since m / (s - 1) > 1 and (1 + 45u)^(2m) < 2.
# - t_k falls below 2**-1022 only where v_k < 1, and then stays there, under
#   2**-54 of B_k's product >= 2**-901.
# So t_k <= 2**-54 P < ulp(P) / 2 (P is normal: P >= B_k's product), or P is
# inf; either way fl(P + t_k) = P, every later partial sum is the same float,
# and leaving t_k out changes no bit of any order.  Zeros leave at the first
# stop: their products add 0 to P >= +0.  A bound below 2**(-900 / top) keeps
# the values it bounds; a negative, infinite or NaN value, or top < 32, keeps
# every value.
def _retirement(values: Sequence[float], top: int) -> tuple[int, list[tuple[int, float, float]]] | None:
    """The first maximum's position and the stops (order, limit before it, limit after it) after
    which a value at or under its limit leaves the sums, or None where none would pay or the
    argument above does not hold.

    A stop costs about two products per value still summed; the values within ``b_s`` of the
    maximum, counted on the sorted values, estimate what each stop saves.
    """
    # Each value that leaves by order ``half`` saves top - half products.  The plan and its
    # stops cost about 8 products per value, and run only where the values that leave by then
    # save at least 16 per value (identity probes at n = 64 that saved less ran slower):
    # below top = 32 not even all of them could.  Every 8th value, sorted, estimates how
    # many leave, each standing for 8.
    half = (top + 1) // 2
    if top - half < 16:
        return None
    sample = sorted(values[::8])
    if bisect_right(sample, 2.0 ** (-55.0 / (half - 1)) * sample[-1]) * 8 * (top - half) < 16 * len(values):
        return None
    ordered = sorted(values)
    hi = ordered[-1]
    first, floor = values[0], 2.0 ** (-900.0 / top)
    if not (0.0 <= ordered[0] and math.isfinite(sum(values)) and hi >= floor):
        return None
    stops, left, size = [], 0, len(values)
    for stop, bound, following in _candidate_stops(top):
        leaving = bisect_right(ordered, bound * hi)
        if (leaving - left) * (following - stop) > 2 * (size - left):
            # No value is at or under -1.0: a v_0 below the floor bounds nothing.
            stops.append((stop, bound * first if first >= floor else -1.0, bound * hi))
            left = leaving
    return (values.index(hi), stops) if stops else None


@lru_cache(maxsize=32)
def _bonnet_coefficients(top: int) -> tuple[tuple[float, float, float], ...]:
    """(2m+1, m, m+1) as floats for m = 1..top, the coefficients of Bonnet's
    recurrence: one table, built once for each of the last 32 ``top`` asked for."""
    return tuple([(2.0 * order + 1.0, float(order), order + 1.0) for order in range(1, top + 1)])


def _closed_forms(n: int, u: float, v: float, top: int) -> list[float]:
    """n f_m, the order-m power sum over (R+L)^(2m), for m = 1..top (valid for top <= n-1),
    from u = R/(R+L) and v = L/(R+L), with the coefficients of ``_bonnet_coefficients(top)``:
    small ints convert to floats exactly, so the bits are the int arithmetic's."""
    sigma = u * u + v * v
    rho = (u - v) * (u - v)
    forms, previous, current = [], 1.0, sigma
    for grow, keep, divide in _bonnet_coefficients(top):
        forms.append(n * current)
        previous, current = current, (grow * sigma * current - keep * rho * previous) / divide
    return forms


def _orders_check(name: str, sums: Iterable[tuple[float, float]], floor: float, tol: Tolerance, kind: str,
                  detail: str | None = None) -> CheckResult:
    """One check over the orders of ``sums``, the power sums (x, y) of m = 1, 2, ..., in one pass.

    An order passes iff its gap |x - y| fits under ``tol`` at its magnitude
    max(|x|, |y|, floor) ("each order its own" in ``FACTS``); its residual is
    the gap over that magnitude, or over 1e-300 if that is larger.  The check
    shows the worst residual, NaN when any is NaN, and unless given, a detail
    that names the orders and says so.  The floor 0.0 leaves every magnitude as it is.
    """
    absolute, rel = tol.abs, tol.rel
    ok, worst, nan, top = True, 0.0, False, 0
    for top, (x, y) in enumerate(sums, 1):
        gap = abs(x - y)
        x, y = abs(x), abs(y)
        # max(|x|, |y|, floor): NaN only where |x| is, and then so is the gap.
        magnitude = y if y > x else x
        magnitude = floor if floor > magnitude else magnitude
        residual = gap / (1e-300 if 1e-300 > magnitude else magnitude)
        if not gap <= absolute + rel * magnitude:
            ok = False
        if residual > worst:
            worst = residual
        elif residual != residual:
            nan = True
    worst = math.nan if nan else worst
    detail = detail or f"orders 1..{top}, {kind}" + (", non-finite sums" if nan else "")
    return judge(name, worst, 1.0, tol, detail=detail, every_order=ok)


def verify_power_sum_identity(
    poly: RegularPolygon,
    point: Point,
    tol: Tolerance = DEFAULT_TOLERANCE,
    max_order: int | None = None,
    name: str = "power_sum_identity",
) -> CheckResult:
    """Compare direct power sums against the closed form for m = 1..n-1.

    Returns one check over all orders, named ``name``.  Both sides are
    normalized by (R+L)^(2m), which bounds them by n at every scale, and are
    sums of non-negative terms, so the worst relative residual
    |direct - closed| / max(direct, closed) is meaningful at machine precision
    (NaN if a sum is not finite).  Each order passes by ``tol.eq(direct, closed)``,
    judged in the pass that takes its residual.
    """
    n = poly.n
    top = n - 1 if max_order is None else max_order
    if not 1 <= top <= n - 1:
        raise GeometryError(f"max_order {top} outside 1..{n - 1} for n={n}")
    center_distance = point.distance(poly.centroid)
    # Dividing by an infinite R + L would zero every distance and pass; NaN marks the sums non-finite.
    scale = poly.circumradius + center_distance
    scale = scale if scale < math.inf else math.nan
    xs, ys = poly.coordinates()
    x, y = point.x, point.y
    squared = [((x - vx) / scale) ** 2 + ((y - vy) / scale) ** 2 for vx, vy in zip(xs, ys)]
    closed = _closed_forms(n, poly.circumradius / scale, center_distance / scale, top)
    return _orders_check(name, zip(_power_sums(squared, top), closed), 0.0, tol, "relative")


def compare_cyclic_averages(
    first: RegularPolygon,
    second: RegularPolygon,
    point: Point,
    tol: Tolerance = DEFAULT_TOLERANCE,
    name: str = "power_sums",
) -> CheckResult:
    """Check that two n-gons' cyclic averages at ``point`` agree for m = 1..n-1, from the closed form.

    Each polygon's order-m power sum is n f_m s^(2m), from (n, R, L = |point O|) alone, with
    s = R + L: O(n) through ``_closed_forms``, where the direct sums cost O(n^2).  Both are
    brought to the larger s through running powers of (s / s_max)^2 <= 1, so no order
    overflows, and a point far from one polygon underflows to a large gap.  Each order passes
    by ``tol.eq_at(a, b, max(a, b, 1))``, as in ``compare_power_sums``.  An infinite s makes its
    ratio inf / inf, so its sums are NaN, and they fail.  The two closed forms are the only
    lists: the running powers and each order's verdict are taken in one pass (``_orders_check``).
    """
    top = first.n - 1
    sides = []
    for poly in (first, second):
        distance = point.distance(poly.centroid)
        scale = poly.circumradius + distance
        sides.append((scale, _closed_forms(poly.n, poly.circumradius / scale, distance / scale, top)))
    largest = max(scale for scale, _ in sides)
    a, b = (map(mul, forms, accumulate(repeat((scale / largest) ** 2, top), mul)) for scale, forms in sides)
    return _orders_check(name, zip(a, b), 1.0, tol, "closed form")


def power_sums_to_elementary(power_sums: Sequence[float]) -> tuple[float, ...]:
    """Elementary symmetric functions e_1..e_K from power sums p_1..p_K.

    Uses the triangular recurrence ``m e_m = sum_{i=1}^{m} (-1)^(i-1) e_{m-i} p_i``
    with e_0 = 1.
    """
    p = tuple(power_sums)
    e = [1.0]
    for m in range(1, len(p) + 1):
        acc = 0.0
        for i in range(1, m + 1):
            term = e[m - i] * p[i - 1]
            acc += term if i % 2 == 1 else -term
        e.append(acc / m)
    return tuple(e[1:])


def multisets_equal(
    first: Iterable[float],
    second: Iterable[float],
    tol: Tolerance = DEFAULT_TOLERANCE,
    name: str = "multiset",
    detail: str = "",
) -> CheckResult:
    """Decide whether two lists hold the same values up to order, by sorting.

    Returns one check named ``name``, with ``detail``.  Both lists are sorted
    and paired entry by entry; they are equal when no gap exceeds the slack,
    the tolerance at the scale of their largest entry, and that slack is
    finite: one that overflowed passes nothing.  The residual is the largest
    gap.  Newton's identities are not consulted here:
    ``power_sums_to_elementary`` provides them, and acceptance criterion 2
    checks them separately.
    """
    a = tuple(first)
    b = tuple(second)
    if len(a) != len(b):
        raise GeometryError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    scale = max(max(map(abs, a), default=0.0), max(map(abs, b), default=0.0))
    # ``max`` replaces its running value only by a larger gap, so a NaN gap is
    # never the worst and never exceeds the slack, as in a loop of ``max`` folds.
    worst = max(chain((0.0,), map(abs, map(sub, sorted(a), sorted(b)))))
    return judge(name, worst, scale, tol, detail=detail)


def compare_power_sums(
    first: Iterable[float],
    second: Iterable[float],
    tol: Tolerance = DEFAULT_TOLERANCE,
    name: str = "power_sums",
    detail: str | None = None,
) -> CheckResult:
    """Check p_m(first) == p_m(second) for m = 1..size-1.

    Returns one check over all orders, named ``name``, whose detail names the
    orders unless ``detail`` is given.  Entries are normalized by the joint
    maximum before exponentiation, which keeps high orders away from overflow
    and makes the residuals comparable across scales.  Each
    order passes by ``tol.eq_at(pa, pb, max(|pa|, |pb|, 1))``, judged in the
    pass that takes its residual.
    """
    a = tuple(first)
    b = tuple(second)
    if len(a) != len(b):
        raise GeometryError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    top = len(a) - 1
    if top < 1:
        raise GeometryError(f"order 1 needs at least 2 entries, got {len(a)}")
    # All-zero lists have all-zero sums at any scale; 1 avoids dividing by zero.
    scale = max(map(abs, chain(a, b)), default=0.0) or 1.0
    sums = zip(_power_sums([x / scale for x in a], top), _power_sums([x / scale for x in b], top))
    return _orders_check(name, sums, 1.0, tol, "normalized", detail)
