import dataclasses
import math
import random
import sys
from itertools import combinations, starmap

import pytest

import equigon.bottema
from equigon.checks import CheckResult
from equigon.equalizer import MatchKind, PairCase, shared_vertex_points
from equigon.geom import DEFAULT_TOLERANCE, GeometryError, Point, Tolerance, angle_at, side_of_line
from equigon.polygon import RegularPolygon, diametric_opposite, from_shared_vertex, from_side
from equigon.power_sums import compare_power_sums, distances_squared
from equigon.scenario import MAX_N
from equigon.bottema import (
    bottema_construct,
    bottema_pair,
    closed_form_midpoint,
    verify_bottema,
    verify_independence,
    vertex_angles,
)


def square_far_corner(p, q, interior):
    """Corner of the square on segment p->q diagonally opposite p.

    The square is erected on the side of the segment away from ``interior``.
    Independent of the polygon machinery on purpose.
    """
    side = q - p
    normal = Point(-side.y, side.x)
    if side_of_line(interior, p, q) > 0:
        normal = Point(side.y, -side.x)
    return q + normal


def oracle_square_midpoint(an, a1, bn):
    d1 = square_far_corner(a1, an, bn)
    d2 = square_far_corner(a1, bn, an)
    return d1.midpoint(d2)


def test_default_exterior_squares_match_oracle():
    an, bn = Point(0, 0), Point(2, 0)
    for apex in (Point(0.7, 1.3), Point(-0.4, 0.9), Point(2.6, 2.1), Point(1.0, 0.2)):
        result = bottema_construct(an, apex, bn, 4)
        want = oracle_square_midpoint(an, apex, bn)
        assert result.m1.distance(want) < 1e-12
        assert result.d1.distance(square_far_corner(apex, an, bn)) < 1e-12
        assert result.d2.distance(square_far_corner(apex, bn, an)) < 1e-12
        assert not result.collinear


def test_default_exterior_holds_at_every_scale():
    # The exterior is read along the unit direction of A1 An: the triangle's
    # signed area, a product of two lengths, underflows to 0 below about
    # 1e-154, where it once put every triangle's polygons on one fixed side.
    for scale in (1e-300, 1e-200, 1e-160, 1.0, 1e150):
        tol = Tolerance(abs=1e-12 * scale)
        an, bn = Point(0, 0), Point(2 * scale, 0)
        for apex in (Point(0.7, 1.3), Point(-0.4, -0.9), Point(2.6, 2.1)):
            m1 = bottema_construct(an, apex * scale, bn, 5, tol=tol).m1
            want = closed_form_midpoint(an, bn, 5, 1 if apex.y > 0 else -1, tol)
            assert m1.distance(want) <= 1e-12 * scale


def test_classical_square_case_frozen():
    result = bottema_construct(Point(0, 0), Point(0.7, 1.3), Point(2, 0), 4)
    assert result.m1.x == pytest.approx(1.0, abs=1e-12)
    assert result.m1.y == pytest.approx(1.0, abs=1e-12)
    # foot of the perpendicular from M1 is the base midpoint
    assert result.h.x == pytest.approx(1.0, abs=1e-12)
    assert result.h.y == pytest.approx(0.0, abs=1e-12)
    assert result.m1.distance(result.h) == pytest.approx(1.0, abs=1e-12)


def test_explicit_interior_sides_flip_the_midpoint():
    result = bottema_construct(Point(0, 0), Point(0.7, 1.3), Point(2, 0), 4, side1=1, side2=-1)
    assert result.m1.x == pytest.approx(1.0, abs=1e-12)
    assert result.m1.y == pytest.approx(-1.0, abs=1e-12)


def test_closed_form_midpoint_frozen_values():
    an, bn = Point(0, 0), Point(2, 0)
    below = closed_form_midpoint(an, bn, 4, -1)
    assert below.x == pytest.approx(1.0, abs=1e-15)
    assert below.y == pytest.approx(-1.0, abs=1e-12)
    unit = closed_form_midpoint(Point(0, 0), Point(1, 0), 6, 1)
    assert unit.x == pytest.approx(0.5, abs=1e-15)
    assert unit.y == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
    triangle = closed_form_midpoint(Point(0, 0), Point(1, 0), 3, 1)
    assert triangle.y == pytest.approx(math.sqrt(3) / 6, abs=1e-12)


def test_closed_form_validation():
    with pytest.raises(Exception):
        closed_form_midpoint(Point(0, 0), Point(1, 0), 4, 0)
    with pytest.raises(Exception):
        closed_form_midpoint(Point(0, 0), Point(1, 0), 2, 1)
    with pytest.raises(Exception):
        closed_form_midpoint(Point(1, 1), Point(1, 1), 4, 1)


@pytest.mark.parametrize("n", [2, 3.0, 2049, 10**400], ids=["2", "3.0", "2049", "10**400"])
def test_closed_form_takes_the_doors_n_rule(n):
    with pytest.raises(GeometryError) as caught:
        closed_form_midpoint(Point(0, 0), Point(2, 0), n, 1)
    assert str(caught.value) == f"need an integer n in 3..{MAX_N}, got {n!r}"


def test_midpoint_matches_closed_form_many_n():
    an, bn = Point(-1.0, 0.5), Point(2.0, -0.25)
    base = an.distance(bn)
    for n in range(3, 13):
        apex = Point(0.4, 1.7)
        result = bottema_construct(an, apex, bn, n)
        side = 1 if side_of_line(apex, an, bn) > 0 else -1
        want = closed_form_midpoint(an, bn, n, side)
        assert result.m1.distance(want) < 1e-9 * base
        # altitude identity: distance to the base is half the base times cot(pi/n)
        assert result.m1.distance(result.h) == pytest.approx(
            0.5 * base / math.tan(math.pi / n), rel=1e-12
        )
        assert result.h.distance(an.midpoint(bn)) < 1e-9 * base


def test_apex_independence_direct():
    an, bn = Point(0, 0), Point(2, 0)
    rng = random.Random(42)
    seen = []
    for _ in range(25):
        apex = Point(rng.uniform(-2, 4), rng.uniform(0.1, 3.0))
        seen.append(bottema_construct(an, apex, bn, 5).m1)
    spread = max(p.distance(q) for p in seen for q in seen)
    assert spread < 1e-9 * an.distance(bn)


def test_verify_independence_report():
    spread, closed = verify_independence(Point(0, 0), Point(2, 0), 7, samples=40, seed=3)
    assert spread.name == "apex_independence_spread"
    assert closed.name == "apex_independence_closed_form"
    assert spread.ok and closed.ok
    assert spread.detail == "40 apexes, exterior placement"
    # both are judged at the base length, 2
    assert spread.tolerance == closed.tolerance == DEFAULT_TOLERANCE.bound(2.0)
    assert spread.residual < 1e-9 * 2.0
    assert closed.residual < 1e-9 * 2.0
    # deterministic under the same seed
    again = verify_independence(Point(0, 0), Point(2, 0), 7, samples=40, seed=3)
    assert again == (spread, closed)
    with pytest.raises(ValueError):
        verify_independence(Point(0, 0), Point(2, 0), 7, samples=1)


# Exact sweep results of reference_sweep, the construction's arithmetic per
# apex with each apex, corner difference and M1 built as a Point and the spread
# taken as the diagonal of the midpoints' bounding box, on the base moved into
# its frame, with both residuals times 2**e; building only M1 and keeping no
# midpoint must reproduce them bit for bit.  The spread column uses the
# implementation's own box formula, so it pins that formula's arithmetic, not
# its definition; test_spread_is_within_root_two_of_the_widest_pair is the one
# check of the spread against the all-pairs spread.  The grid after the first eight covers
# n = 3..12 at base scales 1e-150 to 1e150 with 300 apexes each; its absolute
# floor of 1e-300 lets the 1e-150 bases clear the door's test of the base.
# (n, base scale, samples, seed, absolute tolerance)
#     -> (spread residual, closed-form residual, tolerance).
# Test ids are the first four fields.
PINNED_SWEEPS = [
    ((3, 1.0, 2, 0, 1e-12), (3.1401849173675503e-16, 2.2887833992611187e-16, 2.119962010041709e-09)),
    ((4, 1.0, 30, 1, 1e-12), (1.2560739669470201e-15, 6.661338147750939e-16, 2.119962010041709e-09)),
    ((7, 1.0, 300, 2, 1e-12), (3.972054645195637e-15, 1.7763568394002505e-15, 2.119962010041709e-09)),
    ((12, 1.0, 30, 3, 1e-12), (4.189529226675416e-15, 1.7763568394002505e-15, 2.119962010041709e-09)),
    ((3, 1e-06, 300, 4, 1e-12), (1.6572703430872833e-21, 8.470329472543003e-22, 1.0021189620100417e-12)),
    ((7, 1e-06, 30, 5, 1e-12), (2.8410348738639142e-21, 1.2880750683716315e-21, 1.0021189620100417e-12)),
    ((4, 1000000.0, 300, 6, 1e-12), (1.9893058914033534e-09, 9.599853366654507e-10, 0.002118962011041709)),
    ((12, 1000000.0, 2, 7, 1e-12), (4.656612873077393e-10, 4.656612873077393e-10, 0.002118962011041709)),
    ((3, 1e-150, 300, 30, 1e-300), (1.4674567830056147e-165, 6.817153615748058e-166, 2.1189620100417092e-159)),
    ((3, 1e-06, 300, 31, 1e-300), (1.4709197221186197e-21, 6.696383416322138e-22, 2.1189620100417095e-15)),
    ((3, 1.0, 300, 32, 1e-300), (1.4217791915866692e-15, 7.216449660063518e-16, 2.1189620100417093e-09)),
    ((3, 1000000.0, 300, 33, 1e-300), (1.3170890159654386e-09, 5.206251464550825e-10, 0.002118962010041709)),
    ((3, 1e+150, 300, 34, 1e-300), (1.6678731637961075e+135, 7.324951420894612e+134, 2.1189620100417092e+141)),
    ((4, 1e-150, 300, 40, 1e-300), (2.1191773440899055e-165, 8.686889906490374e-166, 2.1189620100417092e-159)),
    ((4, 1e-06, 300, 41, 1e-300), (1.9523144785007108e-21, 9.470116246213047e-22, 2.1189620100417095e-15)),
    ((4, 1.0, 300, 42, 1e-300), (1.6011864169946884e-15, 7.021666937153402e-16, 2.1189620100417093e-09)),
    ((4, 1000000.0, 300, 43, 1e-300), (2.0028849288454807e-09, 9.599853366654507e-10, 0.002118962010041709)),
    ((4, 1e+150, 300, 44, 1e-300), (1.8170968107390172e+135, 8.376402414906744e+134, 2.1189620100417092e+141)),
    ((5, 1e-150, 300, 50, 1e-300), (3.164257651878414e-165, 1.6279971309705157e-165, 2.1189620100417092e-159)),
    ((5, 1e-06, 300, 51, 1e-300), (2.584838694754612e-21, 1.3392766832644277e-21, 2.1189620100417095e-15)),
    ((5, 1.0, 300, 52, 1e-300), (2.286089127109703e-15, 1.1322097734007351e-15, 2.1189620100417093e-09)),
    ((5, 1000000.0, 300, 53, 1e-300), (2.6031257322754127e-09, 1.1872079953534493e-09, 0.002118962010041709)),
    ((5, 1e+150, 300, 54, 1e-300), (2.929980568357845e+135, 1.4984164165299903e+135, 2.1189620100417092e+141)),
    ((6, 1e-150, 300, 60, 1e-300), (3.3120395869077507e-165, 1.7160596526954258e-165, 2.1189620100417092e-159)),
    ((6, 1e-06, 300, 61, 1e-300), (3.1480125062815597e-21, 1.3392766832644277e-21, 2.1189620100417095e-15)),
    ((6, 1.0, 300, 62, 1e-300), (3.972054645195637e-15, 2.2315206618374916e-15, 2.1189620100417093e-09)),
    ((6, 1000000.0, 300, 63, 1e-300), (2.9816870751943665e-09, 1.2538313882272932e-09, 0.002118962010041709)),
    ((6, 1e+150, 300, 64, 1e-300), (3.4284914055264234e+135, 1.625260796204205e+135, 2.1189620100417092e+141)),
    ((7, 1e-150, 300, 70, 1e-300), (4.375110827791616e-165, 2.187555413895808e-165, 2.1189620100417092e-159)),
    ((7, 1e-06, 300, 71, 1e-300), (3.3077694008875786e-21, 1.5270103616663822e-21, 2.1189620100417095e-15)),
    ((7, 1.0, 300, 72, 1e-300), (4.189529226675416e-15, 2.220446049250313e-15, 2.1189620100417093e-09)),
    ((7, 1000000.0, 300, 73, 1e-300), (3.754281321679498e-09, 1.9756335239481576e-09, 0.002118962010041709)),
    ((7, 1e+150, 300, 74, 1e-300), (4.23816163667841e+135, 2.2105936788575378e+135, 2.1189620100417092e+141)),
    ((8, 1e-150, 300, 80, 1e-300), (4.0699928274262893e-165, 1.7160596526954258e-165, 2.1189620100417092e-159)),
    ((8, 1e-06, 300, 81, 1e-300), (4.939008368788862e-21, 2.8410348738639142e-21, 2.1189620100417095e-15)),
    ((8, 1.0, 300, 82, 1e-300), (4.440892098500626e-15, 1.9984014443252818e-15, 2.1189620100417093e-09)),
    ((8, 1000000.0, 300, 83, 1e-300), (4.393039798390401e-09, 2.10837115024622e-09, 0.002118962010041709)),
    ((8, 1e+150, 300, 84, 1e-300), (4.1116207262272246e+135, 1.8530824192090927e+135, 2.1189620100417092e+141)),
    ((9, 1e-150, 300, 90, 1e-300), (5.426657103235052e-165, 2.2374680430646483e-165, 2.1189620100417092e-159)),
    ((9, 1e-06, 300, 91, 1e-300), (5.099813672857922e-21, 2.1595187633528426e-21, 2.1189620100417095e-15)),
    ((9, 1.0, 300, 92, 1e-300), (3.820199830714189e-15, 1.7763568394002505e-15, 2.1189620100417093e-09)),
    ((9, 1000000.0, 300, 93, 1e-300), (4.0057698576909614e-09, 1.818465459138773e-09, 0.002118962010041709)),
    ((9, 1e+150, 300, 94, 1e-300), (4.43609865589163e+135, 2.4378911943063076e+135, 2.1189620100417092e+141)),
    ((10, 1e-150, 300, 100, 1e-300), (5.426657103235052e-165, 2.4268748346831344e-165, 2.1189620100417092e-159)),
    ((10, 1e-06, 300, 101, 1e-300), (5.169677389509224e-21, 2.576150136743263e-21, 2.1189620100417095e-15)),
    ((10, 1.0, 300, 102, 1e-300), (6.169484474161015e-15, 3.580361673049448e-15, 2.1189620100417093e-09)),
    ((10, 1000000.0, 300, 103, 1e-300), (4.609811555879035e-09, 2.08250058582033e-09, 0.002118962010041709)),
    ((10, 1e+150, 300, 104, 1e-300), (5.2413085788812883e+135, 2.4378911943063076e+135, 2.1189620100417092e+141)),
    ((11, 1e-150, 300, 110, 1e-300), (6.187341069548282e-165, 2.713328551617526e-165, 2.1189620100417092e-159)),
    ((11, 1e-06, 300, 111, 1e-300), (6.108041446665529e-21, 2.6785533665288553e-21, 2.1189620100417095e-15)),
    ((11, 1.0, 300, 112, 1e-300), (7.160723346098895e-15, 3.552713678800501e-15, 2.1189620100417093e-09)),
    ((11, 1000000.0, 300, 113, 1e-300), (7.092741416640495e-09, 3.390065342784169e-09, 0.002118962010041709)),
    ((11, 1e+150, 300, 114, 1e-300), (5.451290432217052e+135, 2.4378911943063076e+135, 2.1189620100417092e+141)),
    ((12, 1e-150, 300, 120, 1e-300), (6.328515303756828e-165, 3.069780829497322e-165, 2.1189620100417092e-159)),
    ((12, 1e-06, 300, 121, 1e-300), (5.883678888474479e-21, 3.788046498485219e-21, 2.1189620100417095e-15)),
    ((12, 1.0, 300, 122, 1e-300), (6.936895214610187e-15, 3.580361673049448e-15, 2.1189620100417093e-09)),
    ((12, 1000000.0, 300, 123, 1e-300), (5.4304971311663284e-09, 2.83250703024595e-09, 0.002118962010041709)),
    ((12, 1e+150, 300, 124, 1e-300), (6.856982811052847e+135, 3.6341936214780345e+135, 2.1189620100417092e+141)),
]


@pytest.mark.parametrize(
    "case, recorded", PINNED_SWEEPS, ids=[repr(case[:4]) for case, _ in PINNED_SWEEPS]
)
def test_verify_independence_pinned(case, recorded):
    n, scale, samples, seed, floor = case
    spread, closed, allowed = recorded
    an, bn = Point(-0.3 * scale, 1.1 * scale), Point(1.7 * scale, 0.4 * scale)
    want = (
        CheckResult("apex_independence_spread", True, spread, allowed,
                    detail=f"{samples} apexes, exterior placement"),
        CheckResult("apex_independence_closed_form", True, closed, allowed),
    )
    assert repr(verify_independence(an, bn, n, samples, Tolerance(abs=floor), seed=seed)) == repr(want)


def test_sweep_reads_only_m1(monkeypatch):
    # M2 comes from shared_vertex_points, the mirror of M1; the sweep reads
    # only M1, so it must never reach it.
    def forbidden(*args, **kwargs):
        raise AssertionError("the apex sweep built M2")

    monkeypatch.setattr(equigon.bottema, "shared_vertex_points", forbidden)
    spread, closed = verify_independence(Point(0, 0), Point(2, 0), 5, samples=30, seed=1)
    assert spread.ok and closed.ok
    with pytest.raises(AssertionError, match="built M2"):
        bottema_construct(Point(0, 0), Point(0.6, 1.4), Point(2, 0), 5)


def test_sweep_skips_polygons_and_angles(monkeypatch):
    # Each apex needs only M1: no polygon object, no phase or orientation.
    def forbidden(*args, **kwargs):
        raise AssertionError("the apex sweep built a polygon")

    monkeypatch.setattr(equigon.bottema, "from_side", forbidden)
    monkeypatch.setattr(equigon.bottema, "RegularPolygon", forbidden)
    monkeypatch.setattr(equigon.polygon, "RegularPolygon", forbidden)
    monkeypatch.setattr(math, "atan2", forbidden)
    spread, closed = verify_independence(Point(0, 0), Point(2, 0), 5, samples=30, seed=1)
    assert spread.ok and closed.ok


def random_triangles(count, seed):
    """Triangles in any position and orientation, n 3..64, base scales 1e-8..1e12."""
    rng = random.Random(seed)
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-8, 12)
        an, a1, bn = (Point(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale) for _ in range(3))
        yield an, a1, bn, rng.randint(3, 64)


def outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


def sweep_apexes(an, bn, samples, seed):
    """The apexes of verify_independence's draws, built by Point arithmetic."""
    base_length = an.distance(bn)
    rng = random.Random(seed)
    along = (bn - an) * (1.0 / base_length)
    normal = along.perpendicular()
    for _ in range(samples):
        t, height = rng.uniform(-0.5, 1.5), rng.uniform(0.05, 2.0)
        yield an + along * (t * base_length) + normal * (height * base_length)


def framed(an, bn):
    """The base in its own frame, An at the origin and Bn - An times 2**-e, and
    e, the exponent math.frexp gives the base length."""
    e = math.frexp(an.distance(bn))[1]
    return Point(0.0, 0.0), Point(math.ldexp(bn.x - an.x, -e), math.ldexp(bn.y - an.y, -e)), e


def recording_hypot(monkeypatch):
    """Patch math.hypot to record each call's arguments; returns the record."""
    calls = []
    hypot = math.hypot

    def recording(*args):
        calls.append(args)
        return hypot(*args)

    monkeypatch.setattr(math, "hypot", recording)
    return calls


def test_sweep_midpoint_is_the_constructed_m1(monkeypatch):
    # After the base's two lengths, each apex makes three hypot calls, its two
    # sides and its midpoint's difference to the closed form, in its base's
    # frame; each difference must be bottema_construct's M1's there bit for
    # bit.  The last call is the spread's.  Equal rounded differences mean
    # equal midpoints here: each difference is at most a quarter of the closed
    # form's coordinate, so either midpoint lies within a factor 2 of it, both
    # subtractions are exact (Sterbenz), and the midpoint is c - (c - m).
    measured = recording_hypot(monkeypatch)
    rng = random.Random(11)
    for _ in range(60):
        scale = 10.0 ** rng.uniform(-8, 12)
        an, bn = (Point(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale) for _ in range(2))
        n, seed = rng.randint(3, 64), rng.randrange(1000)
        measured.clear()
        verify_independence(an, bn, n, 20, seed=seed)
        swept = measured[:]
        origin, frame_bn, _ = framed(an, bn)
        m1s = [bottema_construct(origin, apex, frame_bn, n).m1 for apex in sweep_apexes(origin, frame_bn, 20, seed)]
        predicted = closed_form_midpoint(origin, frame_bn, n, 1)
        assert len(swept) == 2 + 3 * 20 + 1
        assert swept[4:-1:3] == [(predicted.x - m1.x, predicted.y - m1.y) for m1 in m1s]
        for (dx, dy), m1 in zip(swept[4:-1:3], m1s):
            assert abs(dx) <= abs(predicted.x) / 4 and abs(dy) <= abs(predicted.y) / 4
            assert (predicted.x - dx, predicted.y - dy) == (m1.x, m1.y)


def pinned_bases():
    """PINNED_SWEEPS' sweeps, as random_bases yields them."""
    for (n, scale, samples, seed, floor), _ in PINNED_SWEEPS:
        yield Point(-0.3 * scale, 1.1 * scale), Point(1.7 * scale, 0.4 * scale), n, samples, Tolerance(abs=floor), seed


@pytest.mark.parametrize("bases", [*range(18, 23), "pinned"])
def test_spread_is_within_root_two_of_the_widest_pair(bases):
    # The spread is the diagonal of the midpoints' bounding box: at least the
    # largest distance between two of reference_sweep's midpoints and at most
    # sqrt(2) (1 + 2**-50) times it, in the base's frame, times 2**e.
    swept, ratios = 0, []
    for an, bn, n, samples, tol, seed in pinned_bases() if bases == "pinned" else random_bases(1000, bases):
        try:
            spread, _ = verify_independence(an, bn, n, samples, tol, seed)
        except GeometryError:
            continue
        midpoints, e = reference_midpoints(an, bn, n, samples, seed)
        widest = max(starmap(math.dist, combinations([(m.x, m.y) for m in midpoints], 2)))
        assert math.ldexp(widest, e) <= spread.residual <= math.ldexp(widest * (math.sqrt(2) * (1 + 2 ** -50)), e)
        swept += 1
        if widest:
            ratios.append(spread.residual / math.ldexp(widest, e))
    assert swept >= (len(PINNED_SWEEPS) if bases == "pinned" else 300)
    # The box is wider than the widest pair on some sweeps.
    assert max(ratios) > 1


FLOOR = DEFAULT_TOLERANCE.bound(0.0)
CORNERS_COINCIDE = (GeometryError, "triangle corners coincide")


def triangle_overflow(area):
    return GeometryError, f"triangle overflows the float range: signed area {area}, squared apex side inf"


# (an, a1, bn, n): each is rejected with this error.  Each overflow case leaves
# the signed area or the squared apex side past the float range, so the
# construction stops at the triangle's overflow error before any later step
# can overflow.
REJECTED = {
    "apex-on-corner": ((Point(0, 0), Point(0, 0), Point(2, 0), 4), CORNERS_COINCIDE),
    "corners-coincide": ((Point(0, 0), Point(1, 1), Point(0, 0), 5), CORNERS_COINCIDE),
    "side-below-floor": ((Point(0, 0), Point(0.5 * FLOOR, 0.0), Point(2, 0), 4), CORNERS_COINCIDE),
    "base-below-floor": ((Point(0, 0), Point(1, 1), Point(0.0, 0.5 * FLOOR), 6), CORNERS_COINCIDE),
    "n-not-an-integer": ((Point(0, 0), Point(1, 1), Point(2, 0), 3.0),
                         (GeometryError, "need an integer n >= 3, got 3.0")),
    "side-overflows": ((Point(-1.5e308, 0), Point(1.5e308, 1), Point(0, -1), 5), triangle_overflow("inf")),
    "centroid-overflows": ((Point(0, 0), Point(1e307, 1.7e308), Point(1.7e308, 1e307), 4), triangle_overflow("inf")),
    "offset-overflows": ((Point(0, 0), Point(8e307, 1e307), Point(1.6e308, 0), 64), triangle_overflow("inf")),
    "radius-overflows": ((Point(0.8e308, 0), Point(-0.8e308, 0), Point(0, 1e307), 7), triangle_overflow("inf")),
    "area-overflows": ((Point(0, 0), Point(1e160, 3e160), Point(4e160, 0), 5), triangle_overflow("inf")),
    "apex-side-squared-overflows": ((Point(0, 0), Point(1e155, 0), Point(1e155, 1), 5),
                                    triangle_overflow("-1e+155")),
}


@pytest.mark.parametrize("triangle, expected", REJECTED.values(), ids=REJECTED.keys())
def test_sweep_midpoint_rejects_like_the_construction(triangle, expected):
    assert outcome(lambda: bottema_construct(*triangle)) == expected


def test_overflowing_triangle_names_the_overflow():
    # Past the float range the signed area's sign, and so each exterior side,
    # would be a guess; the construction refuses the triangle instead.
    for name in ("area-overflows", "apex-side-squared-overflows"):
        (an, a1, bn, n), (error, message) = REJECTED[name]
        with pytest.raises(GeometryError) as excinfo:
            bottema_construct(an, a1, bn, n, tol=DEFAULT_TOLERANCE)
        assert type(excinfo.value) is error
        assert str(excinfo.value) == message


PASSES = (True, True)
NOT_A_VERTEX_COUNT = (GeometryError, f"need an integer n in 3..{MAX_N}, got {6 * 10**208}")


def sweep_verdict(an, bn, n, samples, tol=DEFAULT_TOLERANCE, seed=0):
    """Whether the sweep's two checks pass, or its error's type and message."""
    got = outcome(lambda: verify_independence(an, bn, n, samples, tol, seed))
    return got if isinstance(got[0], type) else (got[0].ok, got[1].ok)


# (an, bn, n, seed): sweeps whose apexes, triangles, circles or M1 leave the
# float range when computed in the caller's units.  In the base's frame none
# does: each sweep passes, or the door refuses its n.
SWEEP_ERRORS = {
    "apex-product-overflows-x": ((Point(0, 0), Point(1.7e308, 0), 5, 0), PASSES),
    "apex-product-overflows-y": ((Point(0, 0), Point(1.7e308, 0), 5, 1), PASSES),
    "apex-sum-overflows": ((Point(1.5e308, 0), Point(0.2e308, 0), 5, 1), PASSES),
    "corner-difference-overflows": ((Point(0, 0), Point(1.7e308, 0), 5, 28), PASSES),
    "triangle-overflows": ((Point(0, 0), Point(1.7e308, 0), 5, 4), PASSES),
    # n this large would put M1 near 1e308, or the circles past the float range.
    "m1-sum-overflows": ((Point(0, 0), Point(1e100, 0), 6 * 10**208, 9), NOT_A_VERTEX_COUNT),
    "circumcircle-overflows": ((Point(0, 0), Point(1e100, 0), 6 * 10**208, 0), NOT_A_VERTEX_COUNT),
}


@pytest.mark.parametrize("case, expected", SWEEP_ERRORS.values(), ids=SWEEP_ERRORS.keys())
def test_sweep_errors_are_pinned(case, expected):
    an, bn, n, seed = case
    assert sweep_verdict(an, bn, n, 300, seed=seed) == expected


def test_construction_raises_the_sweeps_m1_overflow():
    # The first apex of the m1-sum-overflows sweep: the construction forms M1
    # and raises its overflow error, where the sweep refuses the n at its door.
    (an, bn, n, seed), expected = SWEEP_ERRORS["m1-sum-overflows"]
    rng = random.Random(seed)
    t, h = rng.uniform(-0.5, 1.5), rng.uniform(0.05, 2.0)
    apex = Point(t * bn.x, h * bn.x)
    assert outcome(lambda: bottema_construct(an, apex, bn, n)) == (
        GeometryError, "M1 overflows the float range: (-9.9792015476736e+291, inf)")
    assert sweep_verdict(an, bn, n, 2, seed=seed) == expected


def test_sweep_builds_one_point_per_apex(monkeypatch):
    built = 0
    init = Point.__init__

    def counting(self, x, y):
        nonlocal built
        built += 1
        init(self, x, y)

    monkeypatch.setattr(Point, "__init__", counting)
    spread, closed = verify_independence(Point(0, 0), Point(2, 0), 7, samples=300, seed=1)
    assert spread.ok and closed.ok
    assert built <= 300 + 20


def test_sweep_does_its_per_base_work_once(monkeypatch):
    # tan(pi/n), sin(pi/n) and the floor tol.bound(0.0) depend only on the
    # base, so a longer sweep must not make more of these calls.
    def counted_sweep(samples):
        tally = dict.fromkeys(("tan", "sin", "bound"), 0)
        for name, home in (("tan", math), ("sin", math), ("bound", Tolerance)):
            original = getattr(home, name)

            def counting(*args, _name=name, _original=original):
                tally[_name] += 1
                return _original(*args)

            monkeypatch.setattr(home, name, counting)
        spread, closed = verify_independence(Point(0, 0), Point(2, 0), 7, samples, seed=1)
        monkeypatch.undo()
        assert spread.ok and closed.ok
        return tally

    long, short = counted_sweep(300), counted_sweep(2)
    assert long == short
    assert max(long.values()) <= 3


# Bases on which the sweep's one loop body runs: the default, a floor of 0.04
# base lengths, and corners 1e8 base lengths from the origin.
LOOP_BASES = {
    "default": (Point(0, 0), Point(2, 0), 7, DEFAULT_TOLERANCE),
    "floor-near-the-sides": (Point(0, 0), Point(2, 0), 7, Tolerance(abs=0.08)),
    "far-from-the-origin": (Point(1e18, 1e18), Point(1.00000001e18, 1e18), 5, DEFAULT_TOLERANCE),
}


def test_sweep_calls_no_checked_path_on_a_regular_base(monkeypatch):
    # On every base the sweep computes both circles, the antipodes and M1
    # inline, in its base's frame: no apex runs the construction's steps.
    calls = dict.fromkeys(("bottema_construct", "from_side", "diametric_opposite"), 0)
    for name in calls:
        for module in (equigon.bottema, equigon.equalizer, equigon.polygon):
            original = getattr(module, name, None)
            if original is None:
                continue

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
    for an, bn, n, tol in LOOP_BASES.values():
        spread, closed = verify_independence(an, bn, n, 300, tol, seed=1)
        assert spread.ok and closed.ok
    assert calls == dict.fromkeys(calls, 0)
    # The counters see the construction when it runs.
    equigon.bottema.bottema_construct(Point(0, 0), Point(0.6, 1.4), Point(2, 0), 7)
    assert calls["bottema_construct"] == 1 and calls["from_side"] == calls["diametric_opposite"] == 2


def hypot_calls_per_apex(monkeypatch, an, bn, n, tol):
    """The sweep's math.hypot calls per apex: a 300-apex sweep less a 2-apex one."""

    def counted(samples):
        measured = recording_hypot(monkeypatch)
        spread, closed = verify_independence(an, bn, n, samples, tol, seed=1)
        monkeypatch.undo()
        assert spread.ok and closed.ok
        return len(measured)

    return (counted(300) - counted(2)) / 298


def test_sweep_measures_only_the_two_sides(monkeypatch):
    # An apex runs none of the construction's tests, on any base the door lets
    # through: its only distances are its two sides and its midpoint's to the
    # closed form.
    for base in LOOP_BASES.values():
        assert hypot_calls_per_apex(monkeypatch, *base) == 3


def test_sweep_calls_no_python_function_per_apex():
    # The sides are fixed once and the draws are inline: an apex's only calls
    # are C functions, its two random() draws and its three hypot calls; the
    # worst distance and the bounding box are kept by comparisons, which call
    # nothing.
    def events_per_call(samples):
        tally = {"call": 0, "c_call": 0}

        def profile(frame, event, arg):
            if event in tally:
                tally[event] += 1

        sys.setprofile(profile)
        try:
            spread, closed = verify_independence(Point(0, 0), Point(2, 0), 7, samples, seed=1)
        finally:
            sys.setprofile(None)
        assert spread.ok and closed.ok
        return tally

    long, short = events_per_call(300), events_per_call(2)
    assert {event: (long[event] - short[event]) / 298 for event in long} == {"call": 0, "c_call": 5}


def test_sweep_far_from_the_origin_passes():
    # Corners at 1e18 and a base of 1e10: in the caller's units the apexes and
    # midpoints would carry rounding of the corners' magnitude, 4.615e+02 of
    # spread; in the base's frame the spread is the base's own.
    spread, closed = verify_independence(*LOOP_BASES["far-from-the-origin"][:3], 300, seed=7)
    assert spread.ok and closed.ok
    assert (f"{spread.residual:.3e}", f"{spread.tolerance:.3e}") == ("1.325e-05", "1.000e+01")


def test_sweep_scales_its_residuals_exactly():
    # A base scaled by 2**k has the same frame, so both residuals scale by 2**k exactly.
    rng, tol = random.Random(29), Tolerance(abs=5e-324)
    for _ in range(100):
        an, bn = (Point(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
        n, seed, k = rng.randint(3, 64), rng.randrange(1000), rng.randint(-900, 900)
        residuals = [check.residual for check in verify_independence(an, bn, n, 20, tol, seed)]
        scaled = verify_independence(an * 2.0 ** k, bn * 2.0 ** k, n, 20, tol, seed)
        assert [check.residual for check in scaled] == [math.ldexp(residual, k) for residual in residuals]


def test_sweep_is_blind_to_where_its_base_sits():
    # Dyadic corners and offsets whose sums are exact: a moved base has the
    # same Bn - An and so the same frame, and its residuals are bit-identical.
    rng, tol = random.Random(31), Tolerance(abs=5e-324)
    farthest = 0.0
    for _ in range(100):
        bits, unit = rng.randint(1, 20), 2.0 ** rng.randint(-60, 60)
        an, bn, offset = (Point(rng.randint(-2 ** span, 2 ** span) * unit, rng.randint(-2 ** span, 2 ** span) * unit)
                          for span in (bits, bits, 52 - bits))
        if an == bn:
            continue
        n, seed = rng.randint(3, 64), rng.randrange(1000)
        moved = verify_independence(an + offset, bn + offset, n, 20, tol, seed)
        assert (an + offset) - (bn + offset) == an - bn
        assert repr(moved) == repr(verify_independence(an, bn, n, 20, tol, seed))
        farthest = max(farthest, offset.norm() / an.distance(bn))
    assert farthest > 1e14


def reference_midpoint(an, apex, bn, n, tol):
    """bottema_construct's M1 with exterior sides, stopping at M1.

    The triangle test and M1 are written out; the circles and antipodes are
    from_side's and diametric_opposite's.  bottema_construct itself would go
    on to M2 and H, which can raise where the sweep rightly returns.
    """
    floor = tol.bound(0.0)
    ux, uy, vx, vy = an.x - apex.x, an.y - apex.y, bn.x - apex.x, bn.y - apex.y
    sides = math.hypot(ux, uy), math.hypot(vx, vy)
    if min(*sides, an.distance(bn)) <= floor:
        raise GeometryError("triangle corners coincide")
    signed, span_sq = ux * vy - uy * vx, max(sides) * max(sides)
    if not (abs(signed) < math.inf and span_sq < math.inf):
        raise GeometryError(
            f"triangle overflows the float range: signed area {signed!r}, squared apex side {span_sq!r}")
    exterior = -1 if ux / sides[0] * vy - uy / sides[0] * vx > 0.0 else 1
    d1 = diametric_opposite(from_side(apex, an, n, exterior, tol), apex)
    d2 = diametric_opposite(from_side(apex, bn, n, -exterior, tol), apex)
    mx, my = 0.5 * (d1.x + d2.x), 0.5 * (d1.y + d2.y)
    if not (abs(mx) < math.inf and abs(my) < math.inf):
        raise GeometryError(f"M1 overflows the float range: {(mx, my)}")
    return Point(mx, my)


def reference_door(an, bn, n, tol):
    """The sweep's tests of its base and n, in the caller's units."""
    base_length = an.distance(bn)
    if not base_length < math.inf:
        raise GeometryError(f"base overflows the float range: {(bn.x - an.x, bn.y - an.y)}")
    if base_length <= tol.bound(0.0):
        raise GeometryError("base endpoints coincide")
    if not (isinstance(n, int) and 3 <= n <= MAX_N):
        raise GeometryError(f"need an integer n in 3..{MAX_N}, got {n!r}")


def reference_midpoints(an, bn, n, samples, seed):
    """Every apex's reference_midpoint, with the construction's own tests at the
    default tolerance, on the base in its frame, and e."""
    origin, frame_bn, e = framed(an, bn)
    return [reference_midpoint(origin, apex, frame_bn, n, DEFAULT_TOLERANCE)
            for apex in sweep_apexes(origin, frame_bn, samples, seed)], e


def reference_sweep(an, bn, n, samples, tol, seed):
    """verify_independence's residuals from reference_midpoints, both times 2**e.

    The spread is the Point.distance between the corners of the midpoints'
    bounding box.
    """
    reference_door(an, bn, n, tol)
    midpoints, e = reference_midpoints(an, bn, n, samples, seed)
    predicted = closed_form_midpoint(*framed(an, bn)[:2], n, 1)
    xs, ys = [m.x for m in midpoints], [m.y for m in midpoints]
    spread = Point(max(xs), max(ys)).distance(Point(min(xs), min(ys)))
    return math.ldexp(spread, e), math.ldexp(max(m.distance(predicted) for m in midpoints), e)


def swept_residuals(an, bn, n, samples, tol, seed):
    """The sweep's two residuals, or its error's type and message."""
    got = outcome(lambda: verify_independence(an, bn, n, samples, tol, seed))
    return got if isinstance(got[0], type) else (got[0].residual, got[1].residual)


def random_bases(count, seed):
    """Bases at scales 1e-300..1e308, n up to 6e208 or not an integer, random tolerances."""
    rng = random.Random(seed)
    for _ in range(count):
        scale = 10.0 ** rng.uniform(-300, 308)
        an = Point(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
        bn = Point(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale)
        n = rng.choice([3, 4, 7, 12, 64, 2048, 3.0, 6 * 10**208])
        floor = 10.0 ** rng.uniform(-323, -1)
        if rng.random() < 0.2:
            # A floor near the base length, which the door tests on the base alone.
            floor = min(an.distance(bn) * 10.0 ** rng.uniform(-2, 0.1), 1e308) or floor
        tol = Tolerance(rel=10.0 ** rng.uniform(-16, -3), abs=floor)
        yield an, bn, n, rng.choice([2, 3, 40]), tol, rng.randrange(1000)


def test_sweep_matches_the_checked_path():
    # Each sweep gives the reference's residuals bit for bit, or raises its
    # door's error; no apex of the reference fails a test of the construction.
    raised = set()
    for an, bn, n, samples, tol, seed in random_bases(1000, seed=18):
        expected = outcome(lambda: reference_sweep(an, bn, n, samples, tol, seed))
        if isinstance(expected[0], type):
            raised.add(expected)
        assert swept_residuals(an, bn, n, samples, tol, seed) == expected
    # The bases make the door raise each of these errors at least once; a base
    # past the float range is STRADDLING's.
    assert raised == {(GeometryError, "base endpoints coincide"),
                      (GeometryError, f"need an integer n in 3..{MAX_N}, got 3.0"),
                      NOT_A_VERTEX_COUNT}


@pytest.mark.parametrize("seed", range(18, 23))
def test_sweep_filter_keeps_every_result(seed):
    # The door is the sweep's one test, and it reads only n and the base:
    # every base it lets through ends in two finite residuals, judged at the
    # base length, and every other one raises the door's error.
    through = 0
    for an, bn, n, samples, tol, sweep_seed in random_bases(1000, seed):
        refused = outcome(lambda: reference_door(an, bn, n, tol))
        got = outcome(lambda: verify_independence(an, bn, n, samples, tol, sweep_seed))
        if refused is not None:
            assert got == refused
            continue
        assert [math.isfinite(check.residual) for check in got] == [True, True]
        assert got[0].tolerance == got[1].tolerance == tol.bound(an.distance(bn))
        through += 1
    assert 100 <= through <= 900


LARGEST = sys.float_info.max

# (an, bn, n, tol) -> whether the door refuses the sweep of 300 apexes over this
# base: at the last n, base length or floor it lets through, just past it, and
# far past it ("-fails").  A base is refused only for n outside 3..MAX_N, a base
# past the float range, or one not longer than the floor.
STRADDLING = {
    "corner-at-bound": ((Point(LARGEST, LARGEST), Point(math.nextafter(LARGEST, 0.0), LARGEST), 5,
                         DEFAULT_TOLERANCE), False),
    "corner-past-bound": ((Point(LARGEST, 0), Point(-LARGEST, 0), 5, DEFAULT_TOLERANCE), True),
    "corner-fails": ((Point(LARGEST, LARGEST), Point(-LARGEST, -LARGEST), 5, DEFAULT_TOLERANCE), True),
    "n-at-bound": ((Point(0, 0), Point(2, 0), MAX_N, DEFAULT_TOLERANCE), False),
    "n-past-bound": ((Point(0, 0), Point(2, 0), MAX_N + 1, DEFAULT_TOLERANCE), True),
    "n-fails": ((Point(0, 0), Point(2, 0), 3.0, DEFAULT_TOLERANCE), True),
    "floor-below-bound": ((Point(0, 0), Point(2, 0), 5, Tolerance(abs=math.nextafter(2.0, 0.0))), False),
    "floor-at-bound": ((Point(0, 0), Point(2, 0), 5, Tolerance(abs=2.0)), True),
    "floor-fails": ((Point(0, 0), Point(2, 0), 5, Tolerance(abs=4.0)), True),
    "shortest-base": ((Point(0, 0), Point(1e-323, 0), 5, Tolerance(abs=5e-324)), False),
    "base-below-range": ((Point(0, 0), Point(5e-324, 0), 5, Tolerance(abs=5e-324)), True),
    "short-base-fails": ((Point(1, 1), Point(1, 1), 5, Tolerance(abs=5e-324)), True),
    "longest-base": ((Point(0, 0), Point(LARGEST, 0), 5, DEFAULT_TOLERANCE), False),
    "base-above-range": ((Point(0, 0), Point(1.3e308, 1.3e308), 5, DEFAULT_TOLERANCE), True),
    "long-base-fails": ((Point(0, 0), Point(LARGEST, LARGEST), 5, DEFAULT_TOLERANCE), True),
}


@pytest.mark.parametrize("name", STRADDLING)
def test_sweep_filter_at_its_thresholds(name):
    (an, bn, n, tol), refused = STRADDLING[name]
    got = swept_residuals(an, bn, n, 300, tol, 1)
    assert got == outcome(lambda: reference_sweep(an, bn, n, 300, tol, 1))
    assert isinstance(got[0], type) == refused
    if not refused:
        assert verify_independence(an, bn, n, 300, tol, 1)[0].ok


def test_degenerate_triangle_message():
    for (an, a1, bn, _), _ in list(REJECTED.values())[:4]:
        with pytest.raises(GeometryError, match="^triangle corners coincide$"):
            bottema_construct(an, a1, bn, 4, tol=DEFAULT_TOLERANCE)


def subtended(result, k):
    return angle_at(result.m1, result.poly1.vertex(k), result.poly2.vertex(k))


def test_vertex_angles_square_frozen():
    result = bottema_construct(Point(0, 0), Point(0.7, 1.3), Point(2, 0), 4)
    checks = vertex_angles(result)
    assert [check.name for check in checks] == ["vertex_angle_k2", "vertex_angle_k3", "vertex_angle_k4"]
    for k, check, expected in zip((2, 3, 4), checks, (math.pi / 2, math.pi, math.pi / 2)):
        assert subtended(result, k) == pytest.approx(expected)
        assert check.detail == f"expected {expected:.6f} rad"
        assert check.tolerance == DEFAULT_TOLERANCE.bound(math.pi)
        assert check.ok
        assert check.residual < 1e-9


def test_vertex_angles_hexagon_folding():
    result = bottema_construct(Point(0, 0), Point(0.3, 1.1), Point(2, 0), 6)
    checks = {check.name: check for check in vertex_angles(result)}
    assert list(checks) == [f"vertex_angle_k{k}" for k in range(2, 7)]
    assert subtended(result, 2) == pytest.approx(math.tau / 6)
    assert subtended(result, 4) == pytest.approx(math.pi)
    # k=5 raw angle exceeds pi and folds back to 2*pi/3
    assert subtended(result, 5) == pytest.approx(2 * math.pi / 3)
    assert checks["vertex_angle_k5"].detail == f"expected {2 * math.pi / 3:.6f} rad"
    assert subtended(result, 6) == pytest.approx(math.tau / 6)
    assert all(check.ok for check in checks.values())


def vertex_angles_by_formula(result):
    """Oracle: each k's check from ``angle_at`` on ``Point``s and the per-k folded angle, in float.hex."""
    n, out = result.poly1.n, []
    partner = (lambda k: k) if result.m1_kind is MatchKind.IDENTITY else (lambda k: n + 2 - k)
    for k in range(2, n + 1):
        raw = math.tau * (k - 1) / n
        expected = min(raw, math.tau - raw)
        measured = angle_at(result.m1, result.poly1.vertex(k), result.poly2.vertex(partner(k)))
        out.append((f"vertex_angle_k{k}", f"expected {expected:.6f} rad", abs(measured - expected).hex()))
    return out


@pytest.mark.parametrize("n", [*range(3, 13), 256, 2048])
def test_vertex_angles_match_the_per_k_formula_bit_for_bit(n):
    rng = random.Random(n)
    kinds = set()
    for sides in ((None, None), (1, 1), (-1, -1), (1, -1)):
        for _ in range(3):
            apex = Point(rng.uniform(-1.0, 3.0), rng.uniform(0.1, 2.5))
            result = bottema_construct(Point(0.0, 0.0), apex, Point(2.0, 0.0), n, *sides)
            kinds.add(result.m1_kind)
            angles = vertex_angles(result)
            got = [(check.name, check.detail, check.residual.hex()) for check in angles]
            assert got == vertex_angles_by_formula(result)
            entry = verify_bottema(result)[-1]
            assert shown(entry) == shown(aggregate(angles))
    assert kinds == set(MatchKind)


def aggregate(angles):
    """Oracle: ``verify_bottema``'s ``vertex_angles`` entry over the per-k checks: the first worst
    judged k's residual, name and detail, the count of vacuous ones, vacuous iff all are."""
    judged = [check for check in angles if not check.vacuous]
    worst = max(judged, key=lambda check: check.residual, default=None)
    parts = [f"worst {worst.name.rpartition('_')[2]}, {worst.detail}"] if judged else []
    if len(judged) < len(angles):
        parts.append(f"vertex pairs at M1: {len(angles) - len(judged)}")
    return CheckResult("vertex_angles", all(check.ok for check in angles), worst.residual if judged else 0.0,
                       DEFAULT_TOLERANCE.bound(math.pi), not judged, ", ".join(parts))


def shown(check):
    return check.name, check.ok, check.residual.hex(), check.tolerance, check.vacuous, check.detail


def test_a_vertex_pair_whose_longer_ray_is_the_bound_is_at_m1():
    # Squares on the edge from (0, 0) to (1, 0): M1 = A2 = B2.  Moved off it, M1
    # sees vertex pair 2 on two short rays; with the bound at M1 (abs plus a
    # rel too small to round it) exactly the longer one, the pair is at M1 and
    # not an angle whose rays reach the floor, which here is the same length.
    first = from_shared_vertex(Point(0.0, 0.0), Point(0.5, 0.5), 4, 1)
    second = from_shared_vertex(Point(0.0, 0.0), Point(0.5, -0.5), 4, -1)
    pair = bottema_pair(first, second, first.vertex(4), Point(0.0, 0.0), second.vertex(4))
    moved = dataclasses.replace(pair, m1=Point(1.0 + 2 ** -20, 2 ** -21))
    longer = max(moved.m1.distance(first.vertex(2)), moved.m1.distance(second.vertex(2)))
    tol = Tolerance(rel=1e-300, abs=longer)
    assert tol.bound(max(first.circumradius, second.circumradius)) == longer == tol.bound(0.0)
    angles = vertex_angles(moved, tol)
    assert [check.vacuous for check in angles] == [True, False, False]
    assert angles[0].detail == "vertex pair at M1"
    entry = verify_bottema(moved, tol)[-1]
    assert not entry.vacuous and entry.detail.endswith(", vertex pairs at M1: 1")


def test_m1_and_m2_are_equal_distance_points():
    an, apex, bn = Point(0, 0), Point(0.6, 1.4), Point(2, 0)
    result = bottema_construct(an, apex, bn, 8)
    for point in (result.m1, result.m2):
        da = distances_squared(result.poly1, point)
        db = distances_squared(result.poly2, point)
        assert compare_power_sums(da, db).ok
    assert result.m1.distance(result.m2) > 1e-6


def test_m2_is_the_mirror_of_m1_on_both_swapped_circles():
    an, bn = Point(0, 0), Point(2, 0)
    isosceles = [(an, Point(1.0, h), bn, n) for n in (3, 4, 6, 9) for h in (0.4, 1.0, 1 / math.sqrt(3), 2.5)]
    collinear = [(an, Point(t, 0.0), bn, n) for n in (3, 4, 7) for t in (-1.5, 0.5, 1.0, 3.0)]
    triangles = [*random_triangles(300, seed=24), *isosceles, *collinear]
    cases = set()
    for an, a1, bn, n in triangles:
        for side1 in (None, 1, -1):
            for side2 in (None, 1, -1):
                result = bottema_construct(an, a1, bn, n, side1, side2)
                poly1, poly2, m1, m2 = result.poly1, result.poly2, result.m1, result.m2
                assert (result.d1, result.d2, m1, m2) == shared_vertex_points(poly1, poly2, a1)[:4]
                o1, o2, r1, r2 = poly1.centroid, poly2.centroid, poly1.circumradius, poly2.circumradius
                scale = max(r1, r2)
                # The centroid line bisects M1 M2 at a right angle (M2 = M1 on the line)...
                assert abs(side_of_line(m1.midpoint(m2), o1, o2)) <= 1e-12 * scale * scale
                assert abs((m2 - m1).dot(o2 - o1)) <= 1e-12 * scale * scale
                # ... so both points sit on both swapped circles.
                for point in (m1, m2):
                    assert abs(point.distance(o2) - r1) <= 1e-12 * scale
                    assert abs(point.distance(o1) - r2) <= 1e-12 * scale
                cases.add(result.case)
    assert cases == set(PairCase)


def test_construction_reads_no_vertex(monkeypatch):
    # M2 comes from the centroids and radii alone, so even n = 10**9 constructs.
    def forbidden(self):
        raise AssertionError("the construction read vertex coordinates")

    monkeypatch.setattr(RegularPolygon, "coordinates", forbidden)
    for n in (5, 10**9):
        result = bottema_construct(Point(0, 0), Point(0.6, 1.4), Point(2, 0), n)
        assert result.m1.distance(result.m2) > 0.0


def test_isosceles_apex_gives_congruent_polygons():
    # equal apex sides: the two polygons are congruent and the mirror point
    # comes from reflecting across the centroid line
    an, bn = Point(0, 0), Point(2, 0)
    apex = Point(1.0, 1.5)
    result = bottema_construct(an, apex, bn, 4)
    assert result.poly1.circumradius == pytest.approx(result.poly2.circumradius)
    assert result.m1.distance(oracle_square_midpoint(an, apex, bn)) < 1e-12
    mid = result.m1.midpoint(result.m2)
    assert abs(side_of_line(mid, result.poly1.centroid, result.poly2.centroid)) < 1e-9


def test_collinear_apex_flagged_and_still_constructs():
    result = bottema_construct(Point(0, 0), Point(0.5, 0), Point(2, 0), 4)
    assert result.collinear
    assert result.m1.x == pytest.approx(1.0, abs=1e-12)
    assert result.m1.y == pytest.approx(-1.0, abs=1e-12)


def test_coincident_corners_rejected():
    with pytest.raises(GeometryError, match="^triangle corners coincide$"):
        bottema_construct(Point(0, 0), Point(0, 0), Point(2, 0), 4)
    with pytest.raises(GeometryError, match="^triangle corners coincide$"):
        bottema_construct(Point(0, 0), Point(1, 1), Point(0, 0), 5)


def test_triangle_case_closed_form():
    # equilateral triangles erected on the sides: M1 is the centroid of the
    # triangle erected on the base, at height base / (2 * sqrt(3))
    an, bn = Point(0, 0), Point(1, 0)
    result = bottema_construct(an, Point(0.3, 0.8), bn, 3)
    assert result.m1.x == pytest.approx(0.5, abs=1e-12)
    assert result.m1.y == pytest.approx(1 / (2 * math.sqrt(3)), abs=1e-12)


def test_polygons_share_apex_as_first_vertex():
    an, apex, bn = Point(-0.5, 0.2), Point(0.8, 1.9), Point(2.1, -0.3)
    result = bottema_construct(an, apex, bn, 9)
    assert result.poly1.vertex(1).distance(apex) < 1e-12
    assert result.poly2.vertex(1).distance(apex) < 1e-12
    assert result.poly1.vertex(9).distance(an) < 1e-12
    assert result.poly2.vertex(9).distance(bn) < 1e-12
