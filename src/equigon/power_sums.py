"""Power sums of squared vertex distances and their closed form.

For a regular n-gon with circumradius R and a probe point at distance L from
the centroid, the sum of the 2m-th powers of the vertex distances depends only
on (n, R, L) for every order m up to n-1:

    sum_i d_i^(2m) = n * [ (R^2+L^2)^m
                           + sum_k C(m,2k) C(2k,k) R^(2k) L^(2k) (R^2+L^2)^(m-2k) ]

with k running from 1 to floor(m/2).  The helpers here evaluate both sides,
convert power sums to elementary symmetric functions (Newton's identities),
and decide multiset equality of squared-distance lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .checks import CheckResult
from .geom import DEFAULT_TOLERANCE, GeometryError, Point, Tolerance
from .polygon import RegularPolygon


class OrderOutOfRangeError(GeometryError):
    pass


class LengthMismatchError(GeometryError):
    pass


def distances_squared(vertices: Sequence[Point], point: Point) -> tuple[float, ...]:
    """Squared distances from ``point`` to each vertex, in vertex order."""
    return tuple(point.distance_squared(v) for v in vertices)


def _power_sums(values: Sequence[float], top: int) -> Iterator[float]:
    """Yield p_1..p_top of ``values``, each a left-to-right sum of running products.

    Lazy, so a caller that stops early (an error at order m) pays for m orders only.
    """
    running = list(values)
    yield sum(running)
    for _ in range(top - 1):
        running = [r * v for r, v in zip(running, values)]
        yield sum(running)


def power_sum_closed_form(n: int, circumradius: float, center_distance: float, order: int) -> float:
    """Closed form of the order-m power sum; valid only for 1 <= m <= n-1."""
    if n < 3:
        raise GeometryError(f"need n >= 3, got {n}")
    if not 1 <= order <= n - 1:
        raise OrderOutOfRangeError(
            f"order {order} outside the valid range 1..{n - 1} for n={n}"
        )
    if circumradius < 0.0 or center_distance < 0.0:
        raise GeometryError("radius and center distance must be non-negative")
    rr = circumradius * circumradius
    ll = center_distance * center_distance
    s = rr + ll
    total = s ** order
    for k in range(1, order // 2 + 1):
        total += math.comb(order, 2 * k) * math.comb(2 * k, k) * rr ** k * ll ** k * s ** (order - 2 * k)
    return n * total


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
    """
    n = poly.n
    top = n - 1 if max_order is None else max_order
    if not 1 <= top <= n - 1:
        raise OrderOutOfRangeError(f"max_order {top} outside 1..{n - 1} for n={n}")
    squared = distances_squared(poly.vertices(), point)
    center_distance = point.distance(poly.centroid)
    ok = True
    worst = 0.0
    for order, direct in enumerate(_power_sums(squared, top), start=1):
        closed = power_sum_closed_form(n, poly.circumradius, center_distance, order)
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
