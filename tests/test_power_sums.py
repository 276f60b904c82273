import itertools
import math
import operator
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from equigon.checks import CheckResult, judge
from equigon.geom import DEFAULT_TOLERANCE, GeometryError, Point, Tolerance
from equigon.polygon import RegularPolygon
from equigon.power_sums import (
    compare_cyclic_averages,
    compare_power_sums,
    distances_squared,
    _closed_forms,
    _orders_check,
    _fold,
    _power_sums,
    multisets_equal,
    power_sums_to_elementary,
    verify_power_sum_identity,
)


def power_sum(data, order):
    """Oracle: the direct sum of ``x ** order``."""
    return sum(x ** order for x in data)


def power_sum_closed_form(n: int, circumradius: float, center_distance: float, order: int) -> float:
    """Closed form of the order-m power sum; valid only for 1 <= m <= n-1."""
    if n < 3:
        raise GeometryError(f"need n >= 3, got {n}")
    if not 1 <= order <= n - 1:
        raise GeometryError(f"order {order} outside the valid range 1..{n - 1} for n={n}")
    if circumradius < 0.0 or center_distance < 0.0:
        raise GeometryError("radius and center distance must be non-negative")
    rr = circumradius * circumradius
    ll = center_distance * center_distance
    s = rr + ll
    total = s ** order
    for k in range(1, order // 2 + 1):
        total += math.comb(order, 2 * k) * math.comb(2 * k, k) * rr ** k * ll ** k * s ** (order - 2 * k)
    return n * total


def left_to_right(values):
    """Oracle: ``values`` added one at a time from the int 0, as ``sum`` did up to Python 3.11."""
    total = 0
    for value in values:
        total = total + value
    return total


def running_product_sums(values, top):
    """Oracle: the per-order running-product loop, p_1..p_top left to right."""
    running = list(values)
    yield left_to_right(running)
    for _ in range(top - 1):
        running = [r * v for r, v in zip(running, values)]
        yield left_to_right(running)


def power_sums_vector(data, max_order):
    """The package's running-product kernel, orders 1..max_order."""
    return tuple(_power_sums(tuple(data), max_order))


def elementary_by_expansion(values):
    """Oracle: expand prod (x - v) and read the coefficients."""
    coeffs = [1.0]
    for v in values:
        coeffs = [c for c in coeffs] + [0.0]
        for i in range(len(coeffs) - 1, 0, -1):
            coeffs[i] -= v * coeffs[i - 1]
    return tuple((-1.0) ** m * coeffs[m] for m in range(1, len(values) + 1))


def elementary_by_subsets(values):
    """Second oracle for small sizes: sum of products over m-subsets."""
    out = []
    for m in range(1, len(values) + 1):
        out.append(sum(math.prod(c) for c in itertools.combinations(values, m)))
    return tuple(out)


def test_unit_square_distance_multiset():
    square = RegularPolygon(4, Point(0, 0), 1.0, phase=0.0, orientation=1)
    dm = distances_squared(square, Point(1.0, 0.0))
    assert dm == pytest.approx((0.0, 2.0, 4.0, 2.0), abs=1e-15)
    assert power_sum(dm, 1) == pytest.approx(8.0)
    assert power_sum(dm, 2) == pytest.approx(24.0)


def test_closed_form_frozen_values():
    assert power_sum_closed_form(4, 1.0, 0.0, 1) == pytest.approx(4.0)
    assert power_sum_closed_form(4, 1.0, 1.0, 2) == pytest.approx(24.0)
    assert power_sum_closed_form(5, 2.0, 3.0, 1) == pytest.approx(65.0)


def test_closed_form_order_bounds():
    with pytest.raises(GeometryError, match=r"^order 0 outside the valid range 1\.\.3 for n=4$"):
        power_sum_closed_form(4, 1.0, 1.0, 0)
    with pytest.raises(GeometryError, match=r"^order 4 outside the valid range 1\.\.3 for n=4$"):
        power_sum_closed_form(4, 1.0, 1.0, 4)
    # order n-1 itself is allowed
    power_sum_closed_form(4, 1.0, 1.0, 3)


def test_identity_matches_direct_sums_on_unit_square():
    square = RegularPolygon(4, Point(0, 0), 1.0, phase=0.0, orientation=1)
    probe = Point(1.0, 0.0)
    check = verify_power_sum_identity(square, probe)
    assert check.ok
    assert check.name == "power_sum_identity"
    assert check.detail == "orders 1..3, relative"
    assert check.tolerance == DEFAULT_TOLERANCE.bound(1.0)
    direct = power_sums_vector(distances_squared(square, probe), 3)
    closed = [power_sum_closed_form(4, 1.0, probe.distance(square.centroid), m) for m in (1, 2, 3)]
    assert direct == pytest.approx((8.0, 24.0, 80.0))
    assert closed == pytest.approx([8.0, 24.0, 80.0])
    assert check.residual == max(abs(d - c) / max(d, c) for d, c in zip(direct, closed))
    assert check.residual < 1e-14


def test_identity_stops_at_max_order():
    hexagon = RegularPolygon(6, Point(0.3, 0.4), 2.0, phase=0.7, orientation=-1)
    check = verify_power_sum_identity(hexagon, Point(-1.0, 2.5), max_order=2)
    assert check.detail == "orders 1..2, relative"
    with pytest.raises(GeometryError, match=r"^max_order 6 outside 1\.\.5 for n=6$"):
        verify_power_sum_identity(hexagon, Point(-1.0, 2.5), max_order=6)


def test_identity_breaks_beyond_valid_orders():
    # at order n the closed form (evaluated blindly) must disagree with the
    # direct sum for generic probe points, confirming the range restriction
    square = RegularPolygon(4, Point(0, 0), 1.0, phase=0.3, orientation=1)
    probe = Point(0.7, -1.1)
    dm = distances_squared(square, probe)
    direct = power_sum(dm, 4)
    pretended = power_sum_closed_form(5, 1.0, probe.norm(), 4)  # same R, L but n=5 scaled
    assert pretended != pytest.approx(direct, rel=1e-6)


def test_power_sums_vector_matches_power_sum():
    values = [0.5, 2.0, 3.25, 1.0]
    vec = power_sums_vector(values, 5)
    for order, total in enumerate(vec, start=1):
        assert total == pytest.approx(power_sum(values, order), rel=1e-15)


def test_newton_frozen_examples():
    assert power_sums_to_elementary((2.0, 2.0)) == pytest.approx((2.0, 1.0))
    assert power_sums_to_elementary((5.0, 13.0)) == pytest.approx((5.0, 6.0))
    assert power_sums_to_elementary((0.0,)) == pytest.approx((0.0,))


def test_newton_matches_expansion_oracle_for_known_roots():
    roots = (2.0, 3.0)
    e = power_sums_to_elementary(power_sums_vector(roots, 2))
    assert e == pytest.approx(elementary_by_expansion(roots))
    assert e == pytest.approx((5.0, 6.0))


@given(
    values=st.lists(
        st.floats(min_value=0.05, max_value=4.0, allow_nan=False), min_size=1, max_size=6
    )
)
def test_newton_agrees_with_both_oracles(values):
    p = power_sums_vector(values, len(values))
    e = power_sums_to_elementary(p)
    expansion = elementary_by_expansion(values)
    subsets = elementary_by_subsets(values)
    for got, want_a, want_b in zip(e, expansion, subsets):
        scale = max(1.0, abs(want_a))
        assert abs(got - want_a) <= 1e-9 * scale
        assert abs(got - want_b) <= 1e-9 * scale


def newton_coefficients_agree(first, second, tol=DEFAULT_TOLERANCE):
    """Both lists, max-normalized, give the same e_1..e_size through Newton's identities.

    Normalized entries are at most 1 in magnitude, so e_m is bounded by
    C(size, m); each coefficient is judged against that scale.
    """
    size = len(first)
    scale = max(abs(x) for x in (*first, *second)) or 1.0
    ea = power_sums_to_elementary(power_sums_vector([x / scale for x in first], size))
    eb = power_sums_to_elementary(power_sums_vector([x / scale for x in second], size))
    return all(
        abs(x - y) <= tol.bound(max(1.0, math.comb(size, m + 1)))
        for m, (x, y) in enumerate(zip(ea, eb))
    )


def test_multisets_equal_frozen_permutation():
    first, second = [1.0, 4.0, 9.0], [9.0, 1.0, 4.0]
    match = multisets_equal(first, second)
    assert match.ok
    assert match.residual == 0.0
    assert newton_coefficients_agree(first, second)
    assert multisets_equal([], []) == CheckResult("multiset", True, 0.0, DEFAULT_TOLERANCE.bound(0.0))


def test_multisets_equal_detects_mismatch():
    match = multisets_equal([1.0, 4.0, 9.0], [1.0, 4.0, 9.5])
    assert not match.ok
    assert match.residual == pytest.approx(0.5)


def test_no_check_passes_against_a_bound_that_is_not_finite():
    # A bound that overflowed would pass whatever was measured; it passes nothing.
    match = multisets_equal([1.0, 2.0, math.inf], [1.0, 2.0, math.inf])
    assert (match.ok, match.residual, match.tolerance) == (False, 0.0, math.inf)
    for scale in (math.inf, math.nan):
        assert not judge("c", 0.0, scale, DEFAULT_TOLERANCE).ok
    assert judge("c", 0.0, math.inf, DEFAULT_TOLERANCE, vacuous=True).ok


def test_multisets_equal_scale_aware():
    big = [1e12, 2e12, 3e12]
    jittered = [x * (1.0 + 1e-13) for x in big]
    assert multisets_equal(big, jittered).ok


def test_multisets_length_mismatch():
    with pytest.raises(GeometryError, match="^multiset sizes differ: 1 vs 2$"):
        multisets_equal([1.0], [1.0, 2.0])


@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=9.0, allow_nan=False), min_size=1, max_size=8
    ),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_multisets_equal_under_random_permutation(values, seed):
    shuffled = list(values)
    random.Random(seed).shuffle(shuffled)
    match = multisets_equal(values, shuffled)
    assert match.ok
    assert newton_coefficients_agree(values, shuffled)
    # sorting pairs equal values, so no gap remains
    assert match.residual == 0.0


def test_compare_power_sums_passes_for_permuted_lists():
    check = compare_power_sums([1.0, 2.0, 5.0, 8.0], [8.0, 5.0, 2.0, 1.0])
    assert check.ok
    assert check.name == "power_sums"
    assert check.detail == "orders 1..3, normalized"
    assert check.tolerance == DEFAULT_TOLERANCE.bound(1.0)
    assert check.residual < 1e-15


def test_compare_power_sums_flags_first_order_mismatch():
    assert not compare_power_sums([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]).ok
    # Two entries have order 1 alone.
    check = compare_power_sums([1.0, 3.0], [1.0, 4.0])
    assert not check.ok
    assert check.detail == "orders 1..1, normalized"


def test_compare_power_sums_handles_huge_scales_without_overflow():
    base = [3.7e150, 1.1e151, 9.4e149, 2.2e150, 5.0e150, 7.7e150]
    check = compare_power_sums(base, list(reversed(base)))
    assert check.ok
    assert check.detail == "orders 1..5, normalized"
    assert math.isfinite(check.residual)


def test_compare_power_sums_judges_each_order_at_its_own_magnitude():
    # Two entries have order 1 alone.  p_1 is 2 against 1.998: relative
    # residual 1e-3 sits under the shown tolerance 1e-3 + 1e-9, but the order
    # itself allows only 1e-3 + 2e-9 of absolute gap, so the check fails.
    tol = Tolerance(rel=1e-9, abs=1e-3)
    check = compare_power_sums([1.0, 1.0], [1.0, 0.998], tol)
    assert check.detail == "orders 1..1, normalized"
    assert check.residual == pytest.approx(1e-3)
    assert check.residual <= check.tolerance == tol.bound(1.0)
    assert not check.ok


def test_an_order_whose_gap_is_its_bound_passes():
    # p_1 is 2 against 1.5 at magnitude 2: the bound 0.5 + 2 * 2**-60 rounds to
    # 0.5, the gap itself, and an order passes when its gap is within its bound.
    tol = Tolerance(rel=2 ** -60, abs=0.5)
    assert tol.abs + tol.rel * 2.0 == 0.5
    assert compare_power_sums([1.0, 1.0], [1.0, 0.5], tol).ok
    assert not compare_power_sums([1.0, 1.0], [1.0, 0.5 - 2 ** -50], tol).ok


def test_orders_check_keeps_a_nan_residual_in_any_place():
    # Against the floor 1, the sums (0, r) have the residual r for any r below 1.
    def sums(residuals):
        return [(0.0, residual) for residual in residuals]

    assert _orders_check("c", sums([1e-16, 3e-16, 2e-16]), 1.0, DEFAULT_TOLERANCE, "relative").residual == 3e-16
    for residuals in ([math.nan, 1e-16], [1e-16, math.nan, 2e-16], [0.0, math.nan]):
        check = _orders_check("c", sums(residuals), 1.0, DEFAULT_TOLERANCE, "relative")
        assert math.isnan(check.residual)
        assert check.detail == f"orders 1..{len(residuals)}, relative, non-finite sums"


def test_compare_power_sums_keeps_a_nan_residual():
    # inf / inf normalizes to NaN; max(0.0, nan) would have reported 0.
    check = compare_power_sums([math.inf, 1.0], [1.0, 1.0])
    assert math.isnan(check.residual)
    assert not check.ok
    assert check.detail == "orders 1..1, normalized, non-finite sums"


def test_identity_keeps_a_nan_residual():
    # R and L are finite, R + L is not: the sums cannot be normalized.
    # (tests/test_cli.py covers an infinite L through the command line.)
    poly = RegularPolygon(5, Point(0.0, 0.0), 1e308, phase=0.0, orientation=1)
    check = verify_power_sum_identity(poly, Point(1e308, 0.0))
    assert math.isnan(check.residual)
    assert not check.ok
    assert check.detail == "orders 1..4, relative, non-finite sums"


def test_identity_normalizes_lengths_near_the_float_range():
    # R + L = 1.6e308 is finite: the normalized sums are too, though d^2 is not.
    poly = RegularPolygon(5, Point(0.0, 0.0), 8e307, phase=0.0, orientation=1)
    check = verify_power_sum_identity(poly, Point(8e307, 0.0))
    assert check.ok and check.residual < 1e-15


def test_cyclic_averages_keep_a_nan_residual():
    # R and L are finite, R + L is not: dividing by it zeroes the first closed form, and
    # only its normalizer ratio inf / inf, a NaN, keeps the zeros from passing.
    first = RegularPolygon(5, Point(0.0, 0.0), 1e308, phase=0.0, orientation=1)
    second = RegularPolygon(5, Point(1.0, 0.0), 1.0, phase=0.0, orientation=1)
    check = compare_cyclic_averages(first, second, Point(1e308, 0.0))
    assert math.isnan(check.residual)
    assert not check.ok
    assert check.detail == "orders 1..4, closed form, non-finite sums"


def test_cyclic_averages_agree_on_the_swapped_circles():
    # |M O1| = R2 and |M O2| = R1: the closed forms agree at every order, whatever
    # the vertices; off the circles the gap fails.  Beside one polygon and 1e200
    # from the other, the nearer one's sums underflow to 0 at the farther one's
    # normalizer: a gap of 1 at order 1, where (s1 / s2)^2 = 1e-400 is already 0.
    first = RegularPolygon(7, Point(0.0, 0.0), 1.0, phase=0.3, orientation=1)
    second = RegularPolygon(7, Point(2.5, 0.0), 2.0, phase=1.1, orientation=-1)
    x = (2.0 ** 2 - 1.0 ** 2 + 2.5 ** 2) / (2 * 2.5)
    on = compare_cyclic_averages(first, second, Point(x, math.sqrt(2.0 ** 2 - x * x)))
    assert on.ok and on.residual < 1e-14 and on.detail == "orders 1..6, closed form"
    assert not compare_cyclic_averages(first, second, Point(x, 1.0)).ok
    far = RegularPolygon(7, Point(1e200, 0.0), 2.0, phase=1.1, orientation=-1)
    check = compare_cyclic_averages(first, far, Point(0.0, 0.5))
    assert check.residual == 1.0 and not check.ok


def test_compare_power_sums_length_checks():
    with pytest.raises(GeometryError, match="^multiset sizes differ: 2 vs 1$"):
        compare_power_sums([1.0, 2.0], [1.0])
    with pytest.raises(GeometryError, match="^order 1 needs at least 2 entries, got 1$"):
        compare_power_sums([1.0], [2.0])


@given(
    n=st.integers(min_value=3, max_value=12),
    r=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    px=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    py=st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    phase=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    orientation=st.sampled_from([1, -1]),
)
def test_identity_property_random_configurations(n, r, px, py, phase, orientation):
    poly = RegularPolygon(n, Point(0.0, 0.0), r, phase, orientation)
    report = verify_power_sum_identity(poly, Point(px, py))
    assert report.ok, f"worst residual {report.residual}"


@given(
    n=st.integers(min_value=3, max_value=10),
    phase1=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    phase2=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)
def test_power_sums_blind_to_rotation(n, phase1, phase2):
    # same centroid and radius: every power sum up to n-1 agrees regardless of phase
    probe = Point(1.3, -0.4)
    first = RegularPolygon(n, Point(0.2, 0.1), 1.7, phase1, 1)
    second = RegularPolygon(n, Point(0.2, 0.1), 1.7, phase2, -1)
    da = distances_squared(first, probe)
    db = distances_squared(second, probe)
    assert compare_power_sums(da, db).ok


CLOSED_FORM_GRID_SCALES = (1e-200, 1.0, 1e100, 1e155)
LARGE_N_SCALES = {700: (1.0, 1.0), 1100: (1e-200, 1e155), 2048: (1e155, 1e-200)}


def closed_form_grid():
    """Seeded (n, R, L): every scale pair for n <= 256, one pair for each larger n."""
    rng = random.Random(15)
    small = itertools.product((*range(3, 13), 64, 128, 256), CLOSED_FORM_GRID_SCALES, CLOSED_FORM_GRID_SCALES)
    large = ((n, *scales) for n, scales in LARGE_N_SCALES.items())
    for n, r_scale, l_scale in itertools.chain(small, large):
        yield n, rng.uniform(0.5, 1.0) * r_scale, rng.uniform(0.0, 1.0) * l_scale
    # s^652 is finite and s^653 overflows: the term-by-term closed form raised
    # OverflowError at order 653.
    yield 700, math.sqrt(sys.float_info.max ** (1 / 652.5)), 0.0


def integer_lengths(*lengths):
    """The floats as integers over one common power-of-two denominator (which cancels in f_m)."""
    fractions = [Fraction(x) for x in lengths]
    common = math.lcm(*(f.denominator for f in fractions))
    return [f.numerator * (common // f.denominator) for f in fractions]


def exact_cyclic_sums(n, circumradius, center_distance, top):
    """Exact (n g_m, h^(2m)) for m = 1..top, with f_m = g_m / h^(2m) and h = fl(R + L).

    Bonnet's recurrence g_(m+1) = ((2m+1) s g_m - m (R^2 - L^2)^2 g_(m-1)) / (m+1)
    in integers: every g_m is an integer polynomial in the integer lengths, so
    each division is exact, which the remainder confirms.
    """
    r, ell, h = integer_lengths(circumradius, center_distance, circumradius + center_distance)
    s, d2 = r * r + ell * ell, (r * r - ell * ell) ** 2
    previous, current, h_power = 1, s, h * h
    for order in range(1, top + 1):
        yield n * current, h_power
        following, remainder = divmod((2 * order + 1) * s * current - order * d2 * previous, order + 1)
        assert remainder == 0
        previous, current, h_power = current, following, h_power * h * h


def exact_closed_form_terms(n, r, ell, order):
    """Exact n g_m term by term from integer lengths: n sum_k C(m,2k) C(2k,k) (RL)^(2k) s^(m-2k)."""
    s = r * r + ell * ell
    return n * sum(math.comb(order, 2 * k) * math.comb(2 * k, k) * (r * ell) ** (2 * k) * s ** (order - 2 * k)
                   for k in range(order // 2 + 1))


def relative_error(got, want):
    return abs(got - want) / want


def exact_orders(n, circumradius, center_distance):
    """How many orders to check against exact values.  Each order adds the bits
    between the smallest and largest length to the exact integers, so with
    widely mixed scales only orders 1..63 are (a whole n = 256 case at 1e-200
    against 1e155 takes half a second)."""
    if center_distance == 0.0 or 1e-12 <= center_distance / circumradius <= 1e12:
        return n - 1
    return min(n - 1, 63)


def test_exact_recurrence_is_the_term_by_term_closed_form():
    for n, r, ell in closed_form_grid():
        if n <= 12:
            lengths = integer_lengths(r, ell, r + ell)
            for order, (value, _) in enumerate(exact_cyclic_sums(n, r, ell, n - 1), start=1):
                assert value == exact_closed_form_terms(n, *lengths[:2], order), (n, r, ell)


def test_closed_forms_within_1e_11_of_exact_and_oracle():
    for n, r, ell in [*closed_form_grid(), (256, 0.7, 0.7), (2048, 0.7, 35.0)]:
        closed = list(_closed_forms(n, r / (r + ell), ell / (r + ell), n - 1))
        # Normalized by (R+L)^(2m): finite, positive and at most n at every scale.
        assert all(0.0 < value <= n * (1 + 1e-12) for value in closed), (n, r, ell)
        for value, (numerator, denominator) in zip(closed, exact_cyclic_sums(n, r, ell, exact_orders(n, r, ell))):
            assert relative_error(value, numerator / denominator) <= 1e-11, (n, r, ell)
        if n > 256:
            continue
        scale = Fraction(r + ell)
        for order, value in enumerate(closed, start=1):
            try:
                oracle = power_sum_closed_form(n, r, ell, order)
            except OverflowError:
                break
            # Where the oracle neither overflowed to inf nor underflowed to zero.
            if 0.0 < oracle < math.inf:
                want = float(Fraction(oracle) / scale ** (2 * order))
                assert relative_error(value, want) <= 1e-11, (n, r, ell, order)


def sum_bits(sums):
    """Each sum's type and ``float.hex``: no values give the int 0 of ``sum([])``."""
    return [(type(x), float(x).hex()) for x in sums]


KERNEL_SPECIALS = (0.0, -0.0, 5e-324, 1e-310, 1.0, 1.5, 1e200, 1e308, math.inf, -math.inf, math.nan)


@given(
    st.lists(st.one_of(st.sampled_from(KERNEL_SPECIALS), st.floats(0.0, 4.0), st.floats()), max_size=40),
    st.integers(1, 60),
)
@example([], 1)
@example([], 5)
@example([2.0], 1)
@example([2.0], 9)
@example([1e200, 0.5, 3.0], 1)
@example([1e200, 1e-310, 5e-324, math.nan, 1.0], 12)
def test_power_sums_match_the_running_product_loop_bit_for_bit(values, top):
    assert sum_bits(_power_sums(values, top)) == sum_bits(running_product_sums(values, top))


@given(st.lists(st.one_of(st.sampled_from(KERNEL_SPECIALS), st.floats(0.0, 4.0), st.floats()), max_size=40))
@example([])
@example([-0.0])
@example([-0.0, -0.0])
@example([1.0, 1e100, 1.0, -1e100])
@example([0.1] * 10)
def test_the_power_sum_fold_adds_left_to_right(values):
    # The fold is chosen once at import from what ``sum`` does, so this holds
    # on every Python: compensated summation would keep the probe's 1.0s.
    assert sum_bits([_fold(values)]) == sum_bits([left_to_right(values)])


def multiset_fold(a, b, tol):
    """Oracle: ``multisets_equal``'s verdict, worst gap and slack as a loop of ``max`` folds over the sorted pairs.
    A slack that is not finite passes nothing."""
    slack = tol.bound(max(max(abs(x) for x in a), max(abs(x) for x in b)))
    worst, equal = 0.0, math.isfinite(slack)
    for x, y in zip(sorted(a), sorted(b)):
        gap = abs(x - y)
        worst = max(worst, gap)
        if gap > slack:
            equal = False
    return equal, worst, slack


def orders_fold(a, b, tol):
    """Oracle: ``compare_power_sums``'s verdict and residuals as a per-order ``Tolerance.eq_at`` loop."""
    scale = max((abs(x) for x in (*a, *b)), default=0.0) or 1.0
    ok, residuals = True, []
    for pa, pb in zip(running_product_sums([x / scale for x in a], len(a) - 1),
                      running_product_sums([x / scale for x in b], len(b) - 1)):
        magnitude = max(abs(pa), abs(pb), 1.0)
        residuals.append(abs(pa - pb) / magnitude)
        ok = tol.eq_at(pa, pb, magnitude) and ok
    return ok, residuals


def orders_by_lists(gaps, magnitudes, residuals, tol, kind):
    """Oracle: one check over the orders from the per-order lists, as (ok, residual hex, tolerance,
    detail).  Every gap fits under the bound at its order's magnitude; the residual is the worst,
    or NaN when any is."""
    worst = math.nan if any(map(math.isnan, residuals)) else max(residuals)
    ok = all(map(operator.le, gaps, map(operator.add, itertools.repeat(tol.abs),
                                        map(operator.mul, itertools.repeat(tol.rel), magnitudes))))
    detail = f"orders 1..{len(residuals)}, {kind}" + (", non-finite sums" if math.isnan(worst) else "")
    return ok, worst.hex(), tol.bound(1.0), detail


def identity_by_lists(poly, point, tol, top):
    """Oracle: ``verify_power_sum_identity`` as lists of direct sums, closed forms, gaps, sizes and residuals."""
    center_distance = point.distance(poly.centroid)
    scale = poly.circumradius + center_distance
    scale = scale if scale < math.inf else math.nan
    squared = [((point.x - v.x) / scale) ** 2 + ((point.y - v.y) / scale) ** 2 for v in poly.vertices()]
    direct = list(_power_sums(squared, top))
    closed = list(_closed_forms(poly.n, poly.circumradius / scale, center_distance / scale, top))
    gaps = [abs(d - c) for d, c in zip(direct, closed)]
    sizes = [max(abs(d), abs(c)) for d, c in zip(direct, closed)]
    return orders_by_lists(gaps, sizes, [gap / max(size, 1e-300) for gap, size in zip(gaps, sizes)], tol, "relative")


def cyclic_by_lists(first, second, point, tol):
    """Oracle: ``compare_cyclic_averages`` as lists of each side's sums at the larger normalizer,
    gaps, magnitudes and residuals."""
    top = first.n - 1
    sides = []
    for poly in (first, second):
        distance = point.distance(poly.centroid)
        scale = poly.circumradius + distance
        sides.append((scale, list(_closed_forms(poly.n, poly.circumradius / scale, distance / scale, top))))
    largest = max(scale for scale, _ in sides)
    a, b = ([form * power for form, power in zip(forms, itertools.accumulate(
        itertools.repeat((scale / largest) ** 2, top), operator.mul))] for scale, forms in sides)
    gaps = [abs(x - y) for x, y in zip(a, b)]
    magnitudes = [max(x, y, 1.0) for x, y in zip(a, b)]
    return orders_by_lists(gaps, magnitudes, [gap / size for gap, size in zip(gaps, magnitudes)], tol, "closed form")


def shown(check):
    return check.ok, check.residual.hex(), check.tolerance, check.detail


FUSED_SCALES = (1e-300, 1e-160, 1.0, 1e154, 1e300)
FUSED_TOLERANCES = (DEFAULT_TOLERANCE, Tolerance(rel=1e-3, abs=1e-3))


def fused_cases():
    """Seeded (first, second, point) at each n and scale: a point on the swapped circles, where
    the averages agree (each radius is the point's distance to the other centroid), and one
    off them; then R + L past the float range on either side, where the sums are NaN."""
    rng = random.Random(53)
    for n in (*range(3, 13), 64, 256, 2048):
        for scale in FUSED_SCALES:
            point = Point(rng.uniform(-2.0, 2.0) * scale, rng.uniform(-2.0, 2.0) * scale)
            o1, o2 = (point + Point(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) * scale for _ in range(2))
            first = RegularPolygon(n, o1, point.distance(o2), rng.uniform(-3.0, 3.0), 1)
            second = RegularPolygon(n, o2, point.distance(o1), rng.uniform(-3.0, 3.0), rng.choice((1, -1)))
            yield first, second, point
            yield first, second, point + Point(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)) * scale
        huge = RegularPolygon(n, Point(0.0, 0.0), 1e308, 0.3, 1)
        small = RegularPolygon(n, Point(1.0, 0.0), 1.0, 0.1, -1)
        yield huge, small, Point(1e308, 0.0)
        yield small, huge, Point(-1e308, 0.0)


def test_fused_cyclic_averages_match_the_list_pipeline_bit_for_bit():
    kinds = set()
    for first, second, point in fused_cases():
        for tol in FUSED_TOLERANCES:
            got = shown(compare_cyclic_averages(first, second, point, tol))
            assert got == cyclic_by_lists(first, second, point, tol), (first, second, point, tol)
            kinds.add((got[0], got[1] == "nan"))
    assert kinds == {(True, False), (False, False), (False, True)}


def test_fused_identity_matches_the_list_pipeline_bit_for_bit():
    # The direct sums are O(n^2): at n = 2048 orders 1..64 (the cyclic averages take all 2047).
    kinds = set()
    for first, _, point in fused_cases():
        top = 64 if first.n == 2048 else first.n - 1
        for tol in FUSED_TOLERANCES:
            got = shown(verify_power_sum_identity(first, point, tol, top))
            assert got == identity_by_lists(first, point, tol, top), (first, point, tol)
            kinds.add((got[0], got[1] == "nan"))
    assert {(True, False), (False, True)} <= kinds


pairs_of_lists = st.integers(2, 20).flatmap(lambda size: st.tuples(*[st.lists(
    st.one_of(st.sampled_from(KERNEL_SPECIALS), st.floats(0.0, 4.0), st.floats()),
    min_size=size, max_size=size)] * 2))


@given(pairs_of_lists)
@example(([math.nan, 1.0, 2.0], [3.0, 1.0, 2.0]))
@example(([1.0, 2.0, math.inf], [1.0, 2.0, math.inf]))
@example(([0.5, 1.5], [0.5, 1.5 + 1e-9]))
def test_folds_match_their_loops_nan_included(pair):
    a, b = pair
    match = multisets_equal(a, b)
    assert repr((match.ok, match.residual, match.tolerance)) == repr(multiset_fold(a, b, DEFAULT_TOLERANCE))
    check = compare_power_sums(a, b)
    ok, residuals = orders_fold(a, b, DEFAULT_TOLERANCE)
    assert check.ok is ok
    assert repr(check.residual) == repr(math.nan if any(map(math.isnan, residuals)) else max(residuals))


class CountedFloat(float):
    """A float that counts the products it takes part in."""

    products = 0

    def __mul__(self, other):
        CountedFloat.products += 1
        return CountedFloat(float(self) * float(other))


@pytest.mark.parametrize("size, top", [(1, 6), (5, 9), (64, 20)])
def test_power_sums_compute_no_order_before_it_is_taken(size, top):
    values = [CountedFloat(1.0 + i / size) for i in range(size)]
    CountedFloat.products = 0
    sums = _power_sums(values, top)
    for taken in range(1, top + 1):
        next(sums)
        # Orders 1..taken need taken - 1 products per value, order taken + 1 one more.
        assert CountedFloat.products == size * (taken - 1)
    assert next(sums, None) is None


@given(
    st.integers(3, 64),
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3),
    st.floats(-1e155, 1e155),
    st.floats(-1e155, 1e155),
)
def test_distances_squared_is_distance_squared_per_vertex(n, phase, r, px, py):
    poly = RegularPolygon(n, Point(0.5, -0.25), r, phase, 1)
    probe = Point(px, py)
    want = [probe.distance_squared(v).hex() for v in poly.vertices()]
    assert [d.hex() for d in distances_squared(poly, probe)] == want
