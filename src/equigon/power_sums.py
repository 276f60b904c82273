"""Power sums of squared vertex distances and their closed form.

For a regular n-gon with circumradius R and a probe point at distance L from
the centroid, the paper's cyclic average of the 2m-th powers of the vertex
distances depends only on (n, R, L) for every order m up to n-1:

    (1/n) sum_i d_i^(2m) = avg_theta (s - 2RL cos theta)^m
                         = |R^2 - L^2|^m P_m(s / |R^2 - L^2|),   s = R^2 + L^2,

with P_m the Legendre polynomial (Laplace's first integral).  The helpers here
evaluate both sides, convert power sums to elementary symmetric functions
(Newton's identities), and decide multiset equality of squared-distance lists.

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
of a per-order running-product loop (``_power_sums``).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import accumulate, repeat
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
    ``sum`` adds them from 0 as it adds the list a per-order loop builds.  On
    Python 3.10 and 3.11, the versions the package supports, ``sum`` adds
    floats left to right, so the bits are that loop's; from 3.12 it
    compensates the additions, and the last digits can differ.  Lazy: a
    caller that stops at order m pays for m orders only.  No values give
    ``top`` zeros.
    """
    if not values:
        return repeat(0, top)
    return map(sum, zip(*[accumulate(repeat(v, top), operator.mul) for v in values]))


def _closed_forms(n: int, u: float, v: float, top: int) -> Iterator[float]:
    """Yield n f_m, the order-m power sum over (R+L)^(2m), for m = 1..top (valid for top <= n-1),
    from u = R/(R+L) and v = L/(R+L)."""
    sigma = u * u + v * v
    rho = (u - v) * (u - v)
    previous, current = 1.0, sigma
    for order in range(1, top + 1):
        yield n * current
        previous, current = current, ((2 * order + 1) * sigma * current - order * rho * previous) / (order + 1)


def _orders_check(name: str, ok: bool, residuals: list[float], tol: Tolerance, kind: str) -> CheckResult:
    """One check over orders 1..len(residuals), its worst residual shown against ``tol.bound(1.0)``.
    A NaN residual is kept (``max`` keeps one only in first place), and the detail says so."""
    worst = math.nan if any(map(math.isnan, residuals)) else max(residuals)
    detail = f"orders 1..{len(residuals)}, {kind}" + (", non-finite sums" if math.isnan(worst) else "")
    return CheckResult(name, ok, worst, tol.bound(1.0), detail=detail)


def verify_power_sum_identity(
    poly: RegularPolygon,
    point: Point,
    tol: Tolerance = DEFAULT_TOLERANCE,
    max_order: int | None = None,
) -> CheckResult:
    """Compare direct power sums against the closed form for m = 1..n-1.

    Returns one ``power_sum_identity`` check over all orders.  Both sides are
    normalized by (R+L)^(2m), which bounds them by n at every scale, and are
    sums of non-negative terms, so the worst relative residual
    |direct - closed| / max(direct, closed) is meaningful at machine precision
    (NaN if a sum is not finite).  Each order passes by ``tol.eq(direct, closed)``.
    """
    n = poly.n
    top = n - 1 if max_order is None else max_order
    if not 1 <= top <= n - 1:
        raise OrderOutOfRangeError(f"max_order {top} outside 1..{n - 1} for n={n}")
    center_distance = point.distance(poly.centroid)
    # Dividing by an infinite R + L would zero every distance and pass; NaN marks the sums non-finite.
    scale = poly.circumradius + center_distance
    scale = scale if scale < math.inf else math.nan
    x, y = point.x, point.y
    squared = [((x - v.x) / scale) ** 2 + ((y - v.y) / scale) ** 2 for v in poly.vertices()]
    closed_forms = _closed_forms(n, poly.circumradius / scale, center_distance / scale, top)
    pairs = list(zip(_power_sums(squared, top), closed_forms))
    residuals = [abs(direct - closed) / max(abs(direct), abs(closed), 1e-300) for direct, closed in pairs]
    ok = all([tol.eq(direct, closed) for direct, closed in pairs])
    return _orders_check("power_sum_identity", ok, residuals, tol, "relative")


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
    residuals: list[float] = []
    for pa, pb in zip(_power_sums(norm_a, top), _power_sums(norm_b, top)):
        magnitude = max(abs(pa), abs(pb), 1.0)
        residuals.append(abs(pa - pb) / magnitude)
        ok = tol.eq_at(pa, pb, magnitude) and ok
    return _orders_check("power_sums", ok, residuals, tol, "normalized")
