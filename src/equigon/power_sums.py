"""Power sums of squared vertex distances and their closed form.

For a regular n-gon with circumradius R and a probe point at distance L from
the centroid, the sum of the 2m-th powers of the vertex distances depends only
on (n, R, L) for every order m up to n-1:

    sum_i d_i^(2m) = n * [ (R^2+L^2)^m
                           + sum_k C(m,2k) C(2k,k) R^(2k) L^(2k) (R^2+L^2)^(m-2k) ]

with k running from 1 to floor(m/2).  The helpers here evaluate both sides,
convert power sums to elementary symmetric functions (Newton's identities),
and decide multiset equality of squared-distance lists.

The direct sums run in C, with no Python frame per element: each value's
powers v, v*v, (v*v)*v, ... come from ``itertools.accumulate``, and ``zip``
hands ``sum`` one order's powers at a time, in vertex order.  Those are the
running products a per-order loop ``running = [r * v for ...]`` forms, and
``sum`` adds them left to right from 0 just as it adds that loop's list, so
every sum is bit-identical to the loop (the oracle in the tests).  ``sum`` is
kept, not ``math.fsum`` or ``math.prod``, which round differently.

The closed form is evaluated for all orders of one probe at once.  The powers
of s = R^2+L^2, R^2 and L^2 are tabulated per probe, each computed once with
``**``; the coefficients C(m,2k) C(2k,k), converted to float, are tabulated per
order for the whole process, since they depend on m alone.  Every value and
every error is bit-identical to evaluating each order on its own, term by term
(``power_sum_closed_form`` in the tests):

* each term is the same operations in the same association,
  ((c * rr^k) * ll^k) * s^(m-2k), and float(c) is the conversion that
  ``int * float`` makes;
* the terms are folded left onto s^m, as ``total +=`` does, not with ``sum``
  (compensated from Python 3.12) or ``math.fsum``;
* powers use ``**``, which overflows with OverflowError
  (34, 'Numerical result out of range'), not ``math.pow`` ('math range error');
* at each order, s^m is taken first, then the coefficients are converted,
  then the new powers of R^2 and L^2 are taken.  The coefficients are unimodal
  in k with their peak near m/3, so a conversion that overflows always does so
  before k = floor(m/2), the only term with new powers of R^2 and L^2 (and
  order 653, the first with such a coefficient, is odd and has no new ones).
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from typing import Iterable, Iterator, Sequence

from .checks import CheckResult
from .geom import DEFAULT_TOLERANCE, GeometryError, Point, Tolerance
from .polygon import RegularPolygon


class OrderOutOfRangeError(GeometryError):
    pass


class LengthMismatchError(GeometryError):
    pass


def distances_squared(vertices: Sequence[Point], point: Point) -> tuple[float, ...]:
    """Squared distances from ``point`` to each vertex, in vertex order.

    ``point.distance_squared(v)`` inline, dx * dx + dy * dy with each
    difference taken twice: the same bits, with no method call per vertex.
    """
    x, y = point.x, point.y
    return tuple([(x - v.x) * (x - v.x) + (y - v.y) * (y - v.y) for v in vertices])


def _power_sums(values: Sequence[float], top: int) -> Iterator[float]:
    """p_1..p_top of ``values`` (top >= 1), each a left-to-right sum of running products.

    ``accumulate`` yields each value's running products v, v*v, (v*v)*v, ...;
    column m of the ``zip`` holds order m's products in value order, and
    ``sum`` adds them from 0 as it adds the list a per-order loop builds, so
    the bits are that loop's.  Lazy: a caller that stops early (an error at
    order m) pays for m orders only.  No values give ``top`` zeros.
    """
    if not values:
        return repeat(0, top)
    return map(sum, zip(*[accumulate(repeat(v, top), operator.mul) for v in values]))


@functools.cache
def _coefficients(order: int) -> array:
    """C(m,2k) C(2k,k) as floats for k = 1..floor(m/2).

    Past order 652 a coefficient leaves the float range and OverflowError is
    raised, which is not cached: the cache holds at most 652 arrays, 0.9 MB.
    """
    return array("d", [float(math.comb(order, 2 * k) * math.comb(2 * k, k))
                       for k in range(1, order // 2 + 1)])


def _closed_forms(n: int, circumradius: float, center_distance: float, top: int) -> Iterator[float]:
    """Yield the closed form of the order-m power sum for m = 1..top (valid for top <= n-1).

    Lazy, so an order that overflows raises after the orders before it.
    """
    rr = circumradius * circumradius
    ll = center_distance * center_distance
    s = rr + ll
    s_powers = [1.0]  # s^j for j = 0..m
    rr_powers: list[float] = []  # rr^k for k = 1..floor(m/2)
    ll_powers: list[float] = []
    for order in range(1, top + 1):
        s_powers.append(s ** order)
        coefficients = _coefficients(order)
        if order % 2 == 0:
            rr_powers.append(rr ** (order // 2))
            ll_powers.append(ll ** (order // 2))
        terms = map(operator.mul,
                    map(operator.mul, map(operator.mul, coefficients, rr_powers), ll_powers),
                    islice(reversed(s_powers), 2, None, 2))  # s^(m-2k)
        yield n * functools.reduce(operator.add, terms, s_powers[order])


def verify_power_sum_identity(
    poly: RegularPolygon,
    point: Point,
    tol: Tolerance = DEFAULT_TOLERANCE,
    max_order: int | None = None,
) -> CheckResult:
    """Compare direct power sums against the closed form for m = 1..n-1.

    Returns one ``power_sum_identity`` check over all orders.  Its residual is
    the worst relative one, |direct - closed| / max(direct, closed); both
    sides are sums of non-negative terms, so no cancellation is possible and
    the comparison is meaningful at machine precision.  Each order passes by
    ``tol.eq(direct, closed)``.

    All orders' closed forms come from one pass over per-probe power tables;
    the module docstring says why their bits and errors equal a term-by-term
    evaluation.  At each order the direct sum is taken first.
    """
    n = poly.n
    top = n - 1 if max_order is None else max_order
    if not 1 <= top <= n - 1:
        raise OrderOutOfRangeError(f"max_order {top} outside 1..{n - 1} for n={n}")
    squared = distances_squared(poly.vertices(), point)
    center_distance = point.distance(poly.centroid)
    ok = True
    worst = 0.0
    closed_forms = _closed_forms(n, poly.circumradius, center_distance, top)
    for direct, closed in zip(_power_sums(squared, top), closed_forms):
        residual = abs(direct - closed) / max(abs(direct), abs(closed), 1e-300)
        worst = max(worst, residual)
        ok = tol.eq(direct, closed) and ok
    return CheckResult("power_sum_identity", ok, worst, tol.bound(1.0), detail=f"orders 1..{top}, relative")


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


@dataclass(frozen=True)
class MultisetMatch:
    """Outcome of comparing two squared-distance multisets.

    Equality is decided by sorting both lists and comparing them pairwise;
    ``max_residual`` is the largest gap between paired entries.
    """

    equal: bool
    max_residual: float


def multisets_equal(
    first: Iterable[float],
    second: Iterable[float],
    tol: Tolerance = DEFAULT_TOLERANCE,
) -> MultisetMatch:
    """Decide whether two lists hold the same values up to order, by sorting.

    Both lists are sorted and paired entry by entry; they are equal when every
    gap is within the tolerance at the scale of their largest entry.  Newton's
    identities are not consulted here: ``power_sums_to_elementary`` provides
    them, and acceptance criterion 2 checks them separately.
    """
    a = tuple(first)
    b = tuple(second)
    if len(a) != len(b):
        raise LengthMismatchError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    if not a:
        return MultisetMatch(True, 0.0)
    slack = tol.bound(max(max(abs(x) for x in a), max(abs(x) for x in b)))
    worst = 0.0
    equal = True
    for x, y in zip(sorted(a), sorted(b)):
        gap = abs(x - y)
        worst = max(worst, gap)
        if gap > slack:
            equal = False
    return MultisetMatch(equal, worst)


def compare_power_sums(
    first: Iterable[float],
    second: Iterable[float],
    tol: Tolerance = DEFAULT_TOLERANCE,
    max_order: int | None = None,
) -> CheckResult:
    """Check p_m(first) == p_m(second) for m = 1..max_order (default: size-1).

    Returns one ``power_sums`` check over all orders.  Entries are normalized
    by the joint maximum before exponentiation, which keeps high orders away
    from overflow and makes the residuals comparable across scales.  Each
    order passes by ``tol.eq_at(pa, pb, max(|pa|, |pb|, 1))``.
    """
    a = tuple(first)
    b = tuple(second)
    if len(a) != len(b):
        raise LengthMismatchError(f"multiset sizes differ: {len(a)} vs {len(b)}")
    top = (len(a) - 1) if max_order is None else max_order
    if top < 1:
        raise OrderOutOfRangeError(f"need at least order 1, got max_order={top}")
    # All-zero lists have all-zero sums at any scale; 1 avoids dividing by zero.
    scale = max((abs(x) for x in (*a, *b)), default=0.0) or 1.0
    norm_a = [x / scale for x in a]
    norm_b = [x / scale for x in b]
    ok = True
    worst = 0.0
    for pa, pb in zip(_power_sums(norm_a, top), _power_sums(norm_b, top)):
        magnitude = max(abs(pa), abs(pb), 1.0)
        worst = max(worst, abs(pa - pb) / magnitude)
        ok = tol.eq_at(pa, pb, magnitude) and ok
    return CheckResult("power_sums", ok, worst, tol.bound(1.0), detail=f"orders 1..{top}, normalized")
