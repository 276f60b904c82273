import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from equigon.geom import DEFAULT_TOLERANCE, Point, Tolerance
from equigon.polygon import RegularPolygon
from equigon.power_sums import (
    LengthMismatchError,
    OrderOutOfRangeError,
    compare_power_sums,
    distances_squared,
    multisets_equal,
    power_sum,
    power_sum_closed_form,
    power_sums_to_elementary,
    power_sums_vector,
    verify_power_sum_identity,
)


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
    dm = distances_squared(square.vertices(), Point(1.0, 0.0))
    assert dm == pytest.approx((0.0, 2.0, 4.0, 2.0), abs=1e-15)
    assert power_sum(dm, 1) == pytest.approx(8.0)
    assert power_sum(dm, 2) == pytest.approx(24.0)


def test_closed_form_frozen_values():
    assert power_sum_closed_form(4, 1.0, 0.0, 1) == pytest.approx(4.0)
    assert power_sum_closed_form(4, 1.0, 1.0, 2) == pytest.approx(24.0)
    assert power_sum_closed_form(5, 2.0, 3.0, 1) == pytest.approx(65.0)


def test_closed_form_order_bounds():
    with pytest.raises(OrderOutOfRangeError):
        power_sum_closed_form(4, 1.0, 1.0, 0)
    with pytest.raises(OrderOutOfRangeError):
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
    direct = power_sums_vector(distances_squared(square.vertices(), probe), 3)
    closed = [power_sum_closed_form(4, 1.0, probe.distance(square.centroid), m) for m in (1, 2, 3)]
    assert direct == pytest.approx((8.0, 24.0, 80.0))
    assert closed == pytest.approx([8.0, 24.0, 80.0])
    assert check.residual == max(abs(d - c) / max(d, c) for d, c in zip(direct, closed))
    assert check.residual < 1e-14


def test_identity_stops_at_max_order():
    hexagon = RegularPolygon(6, Point(0.3, 0.4), 2.0, phase=0.7, orientation=-1)
    check = verify_power_sum_identity(hexagon, Point(-1.0, 2.5), max_order=2)
    assert check.detail == "orders 1..2, relative"
    with pytest.raises(OrderOutOfRangeError):
        verify_power_sum_identity(hexagon, Point(-1.0, 2.5), max_order=6)


def test_identity_breaks_beyond_valid_orders():
    # at order n the closed form (evaluated blindly) must disagree with the
    # direct sum for generic probe points, confirming the range restriction
    square = RegularPolygon(4, Point(0, 0), 1.0, phase=0.3, orientation=1)
    probe = Point(0.7, -1.1)
    dm = distances_squared(square.vertices(), probe)
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
    assert match.equal
    assert match.permutation == (2, 3, 1)
    assert newton_coefficients_agree(first, second)


def test_multisets_equal_detects_mismatch():
    match = multisets_equal([1.0, 4.0, 9.0], [1.0, 4.0, 9.5])
    assert not match.equal
    assert match.permutation is None
    assert match.max_residual == pytest.approx(0.5)


def test_multisets_equal_scale_aware():
    big = [1e12, 2e12, 3e12]
    jittered = [x * (1.0 + 1e-13) for x in big]
    assert multisets_equal(big, jittered).equal


def test_multisets_length_mismatch():
    with pytest.raises(LengthMismatchError):
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
    assert match.equal
    assert newton_coefficients_agree(values, shuffled)
    # the reported pairing must map equal values onto each other
    for i, j in enumerate(match.permutation):
        assert values[i] == pytest.approx(shuffled[j - 1], abs=1e-12)


def test_compare_power_sums_passes_for_permuted_lists():
    check = compare_power_sums([1.0, 2.0, 5.0, 8.0], [8.0, 5.0, 2.0, 1.0])
    assert check.ok
    assert check.name == "power_sums"
    assert check.detail == "orders 1..3, normalized"
    assert check.tolerance == DEFAULT_TOLERANCE.bound(1.0)
    assert check.residual < 1e-15


def test_compare_power_sums_flags_first_order_mismatch():
    first, second = [1.0, 2.0, 3.0], [1.0, 2.0, 4.0]
    assert not compare_power_sums(first, second).ok
    assert not compare_power_sums(first, second, max_order=1).ok


def test_compare_power_sums_handles_huge_scales_without_overflow():
    base = [3.7e150, 1.1e151, 9.4e149, 2.2e150, 5.0e150, 7.7e150]
    check = compare_power_sums(base, list(reversed(base)), max_order=5)
    assert check.ok
    assert check.detail == "orders 1..5, normalized"
    assert math.isfinite(check.residual)


def test_compare_power_sums_judges_each_order_at_its_own_magnitude():
    # p_1 is 4 against 3.998: relative residual 5e-4 sits under the shown
    # tolerance 1e-3 + 1e-9, but the order itself allows only 1e-3 + 4e-9
    # of absolute gap, so the check fails.
    tol = Tolerance(rel=1e-9, abs=1e-3)
    check = compare_power_sums([1.0] * 4, [1.0, 1.0, 1.0, 0.998], tol, max_order=1)
    assert check.residual == pytest.approx(5e-4)
    assert check.residual <= check.tolerance == tol.bound(1.0)
    assert not check.ok


def test_compare_power_sums_length_checks():
    with pytest.raises(LengthMismatchError):
        compare_power_sums([1.0, 2.0], [1.0])
    with pytest.raises(OrderOutOfRangeError):
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
    da = distances_squared(first.vertices(), probe)
    db = distances_squared(second.vertices(), probe)
    assert compare_power_sums(da, db).ok
