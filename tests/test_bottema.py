import math
import random
import sys
from itertools import combinations, starmap

import pytest

import equigon.bottema
from equigon.checks import CheckResult
from equigon.equalizer import MatchKind, PairCase, shared_vertex_points
from equigon.geom import DEFAULT_TOLERANCE, GeometryError, Point, Tolerance, angle_at, side_of_line
from equigon.polygon import (
    DegenerateSideError,
    InvalidVertexCountError,
    RegularPolygon,
    diametric_opposite,
    from_side,
)
from equigon.power_sums import compare_power_sums, distances_squared
from equigon.bottema import (
    DegenerateTriangleError,
    bottema_construct,
    closed_form_midpoint,
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


# Exact sweep results of the full bottema_construct per apex with the spread
# taken over every pair of midpoints; building only M1 and skipping repeated
# midpoints must reproduce them bit for bit.  The grid after the first eight,
# recorded with each apex, corner difference and M1 built as a Point, covers
# n = 3..12 at base scales 1e-150 to 1e150 with 300 apexes each; its absolute
# floor of 1e-300 lets the 1e-150 bases clear the coincidence check.
# (n, base scale, samples, seed, absolute tolerance)
#     -> (spread residual, closed-form residual, tolerance).
# Test ids are the first four fields.
PINNED_SWEEPS = [
    ((3, 1.0, 2, 0, 1e-12), (4.577566798522237e-16, 2.482534153247273e-16, 2.119962010041709e-09)),
    ((4, 1.0, 30, 1, 1e-12), (1.616509124176106e-15, 9.155133597044475e-16, 2.119962010041709e-09)),
    ((7, 1.0, 300, 2, 1e-12), (3.66205343881779e-15, 1.831026719408895e-15, 2.119962010041709e-09)),
    ((12, 1.0, 30, 3, 1e-12), (3.66205343881779e-15, 2.3914935841127266e-15, 2.119962010041709e-09)),
    ((3, 1e-6, 300, 4, 1e-12), (1.6538847004437893e-21, 8.984141113379144e-22, 1.0021189620100417e-12)),
    ((7, 1e-6, 30, 5, 1e-12), (2.8410348738639142e-21, 1.8940232492426095e-21, 1.0021189620100417e-12)),
    ((4, 1e6, 300, 6, 1e-12), (1.9893058914033534e-09, 1.041250292910165e-09, 0.002118962011041709)),
    ((12, 1e6, 2, 7, 1e-12), (9.599853366654507e-10, 9.313225746154785e-10, 0.002118962011041709)),
    ((3, 1e-150, 300, 30, 1e-300), (1.250782660443995e-165, 7.305860713181969e-166, 2.1189620100417092e-159)),
    ((3, 1e-06, 300, 31, 1e-300), (1.5270103616663822e-21, 8.984141113379144e-22, 2.1189620100417095e-15)),
    ((3, 1.0, 300, 32, 1e-300), (1.9860273225978185e-15, 1.2008898127460164e-15, 2.1189620100417093e-09)),
    ((3, 1000000.0, 300, 33, 1e-300), (1.4725502860585132e-09, 9.313225746154785e-10, 0.002118962010041709)),
    ((3, 1e+150, 300, 34, 1e-300), (1.5525281956558703e+135, 8.126303981021025e+134, 2.1189620100417092e+141)),
    ((4, 1e-150, 300, 40, 1e-300), (1.678101032298486e-165, 9.100780630061754e-166, 2.1189620100417092e-159)),
    ((4, 1e-06, 300, 41, 1e-300), (2.8802234130016577e-21, 1.809263168437022e-21, 2.1189620100417095e-15)),
    ((4, 1.0, 300, 42, 1e-300), (1.6011864169946884e-15, 9.42055475210265e-16, 2.1189620100417093e-09)),
    ((4, 1000000.0, 300, 43, 1e-300), (1.818465459138773e-09, 9.878167619740788e-10, 0.002118962010041709)),
    ((4, 1e+150, 300, 44, 1e-300), (1.9654907170804834e+135, 1.0279051815568062e+135, 2.1189620100417092e+141)),
    ((5, 1e-150, 300, 50, 1e-300), (2.713328551617526e-165, 1.516796771676959e-165, 2.1189620100417092e-159)),
    ((5, 1e-06, 300, 51, 1e-300), (3.0540207233327644e-21, 1.7462031549538564e-21, 2.1189620100417095e-15)),
    ((5, 1.0, 300, 52, 1e-300), (2.8435583831733384e-15, 1.6011864169946884e-15, 2.1189620100417093e-09)),
    ((5, 1000000.0, 300, 53, 1e-300), (2.725212813988241e-09, 1.6950326713920846e-09, 0.002118962010041709)),
    ((5, 1e+150, 300, 54, 1e-300), (2.5697629538920153e+135, 1.4536774485912138e+135, 2.1189620100417092e+141)),
    ((6, 1e-150, 300, 60, 1e-300), (2.7670630462972426e-165, 1.7160596526954258e-165, 2.1189620100417092e-159)),
    ((6, 1e-06, 300, 61, 1e-300), (3.0540207233327644e-21, 1.796828222675829e-21, 2.1189620100417095e-15)),
    ((6, 1.0, 300, 62, 1e-300), (2.808666774861361e-15, 1.6011864169946884e-15, 2.1189620100417093e-09)),
    ((6, 1000000.0, 300, 63, 1e-300), (2.3283064365386963e-09, 1.5618754393652476e-09, 0.002118962010041709)),
    ((6, 1e+150, 300, 64, 1e-300), (2.929980568357845e+135, 1.4984164165299903e+135, 2.1189620100417092e+141)),
    ((7, 1e-150, 300, 70, 1e-300), (4.375110827791616e-165, 2.7670630462972426e-165, 2.1189620100417092e-159)),
    ((7, 1e-06, 300, 71, 1e-300), (3.618526336874044e-21, 1.8940232492426095e-21, 2.1189620100417095e-15)),
    ((7, 1.0, 300, 72, 1e-300), (3.972054645195637e-15, 2.2644195468014703e-15, 2.1189620100417093e-09)),
    ((7, 1000000.0, 300, 73, 1e-300), (3.390065342784169e-09, 1.9756335239481576e-09, 0.002118962010041709)),
    ((7, 1e+150, 300, 74, 1e-300), (3.7061648384181854e+135, 2.126857287842589e+135, 2.1189620100417092e+141)),
    ((8, 1e-150, 300, 80, 1e-300), (3.6403122520247015e-165, 1.956609044007486e-165, 2.1189620100417092e-159)),
    ((8, 1e-06, 300, 81, 1e-300), (4.4216417962403795e-21, 2.2807060090186373e-21, 2.1189620100417095e-15)),
    ((8, 1.0, 300, 82, 1e-300), (4.636427468134552e-15, 3.3820826609804605e-15, 2.1189620100417093e-09)),
    ((8, 1000000.0, 300, 83, 1e-300), (3.754281321679498e-09, 2.0954757928848267e-09, 0.002118962010041709)),
    ((8, 1e+150, 300, 84, 1e-300), (3.25052159240841e+135, 1.8971047660479165e+135, 2.1189620100417092e+141)),
    ((9, 1e-150, 300, 90, 1e-300), (3.9506660042995875e-165, 2.4268748346831344e-165, 2.1189620100417092e-159)),
    ((9, 1e-06, 300, 91, 1e-300), (3.995446421313683e-21, 2.117582368135751e-21, 2.1189620100417095e-15)),
    ((9, 1.0, 300, 92, 1e-300), (4.5288390936029406e-15, 2.2644195468014703e-15, 2.1189620100417093e-09)),
    ((9, 1000000.0, 300, 93, 1e-300), (3.839941346661803e-09, 2.146592470186969e-09, 0.002118962010041709)),
    ((9, 1e+150, 300, 94, 1e-300), (3.9141463185392406e+135, 2.2984658603852817e+135, 2.1189620100417092e+141)),
    ((10, 1e-150, 300, 100, 1e-300), (5.453722892598446e-165, 3.4747559625961496e-165, 2.1189620100417092e-159)),
    ((10, 1e-06, 300, 101, 1e-300), (4.5614120180372746e-21, 2.4785666155259976e-21, 2.1189620100417095e-15)),
    ((10, 1.0, 300, 102, 1e-300), (4.782987168225453e-15, 2.3914935841127266e-15, 2.1189620100417093e-09)),
    ((10, 1000000.0, 300, 103, 1e-300), (3.839941346661803e-09, 2.08250058582033e-09, 0.002118962010041709)),
    ((10, 1e+150, 300, 104, 1e-300), (5.1395259077840306e+135, 2.9968328330599806e+135, 2.1189620100417092e+141)),
    ((11, 1e-150, 300, 110, 1e-300), (4.238354688179811e-165, 2.713328551617526e-165, 2.1189620100417092e-159)),
    ((11, 1e-06, 300, 111, 1e-300), (5.152300273486526e-21, 2.964615315390051e-21, 2.1189620100417095e-15)),
    ((11, 1.0, 300, 112, 1e-300), (5.773159728050814e-15, 3.0847422370805075e-15, 2.1189620100417093e-09)),
    ((11, 1000000.0, 300, 113, 1e-300), (4.679838019013819e-09, 2.5076627764545864e-09, 0.002118962010041709)),
    ((11, 1e+150, 300, 114, 1e-300), (5.814709794364855e+135, 2.9968328330599806e+135, 2.1189620100417092e+141)),
    ((12, 1e-150, 300, 120, 1e-300), (4.474936086129297e-165, 2.9223442852727876e-165, 2.1189620100417092e-159)),
    ((12, 1e-06, 300, 121, 1e-300), (5.6820697477278285e-21, 3.593656445351658e-21, 2.1189620100417095e-15)),
    ((12, 1.0, 300, 122, 1e-300), (6.2803698347351005e-15, 3.9968028886505635e-15, 2.1189620100417093e-09)),
    ((12, 1000000.0, 300, 123, 1e-300), (5.015325552909173e-09, 2.9451005721170265e-09, 0.002118962010041709)),
    ((12, 1e+150, 300, 124, 1e-300), (5.2914657846564837e+135, 2.9968328330599806e+135, 2.1189620100417092e+141)),
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


def recording_dist(monkeypatch):
    """Patch math.dist to record each call's two points; returns the record."""
    calls = []
    dist = math.dist

    def recording(p, q):
        calls.append((p, q))
        return dist(p, q)

    monkeypatch.setattr(math, "dist", recording)
    return calls


def closed_form_midpoints(calls):
    """The distinct midpoints a sweep measured against the closed form, in that
    order: its first math.dist calls pass the closed form as one tuple."""
    return [q for p, q in calls if p is calls[0][0]]


def test_sweep_midpoint_is_the_constructed_m1(monkeypatch):
    # The sweep measures its distinct midpoints with math.dist, first to the
    # closed form, in first-seen order; each must be bottema_construct's M1
    # bit for bit.  Its spread is test_rim_spread_is_the_all_pairs_spread's.
    measured = recording_dist(monkeypatch)
    rng = random.Random(11)
    for _ in range(60):
        scale = 10.0 ** rng.uniform(-8, 12)
        an, bn = (Point(rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale) for _ in range(2))
        n, seed = rng.randint(3, 64), rng.randrange(1000)
        measured.clear()
        verify_independence(an, bn, n, 20, seed=seed)
        m1s = [bottema_construct(an, apex, bn, n).m1 for apex in sweep_apexes(an, bn, 20, seed)]
        want = list(dict.fromkeys((m1.x, m1.y) for m1 in m1s))
        predicted = closed_form_midpoint(an, bn, n, 1)
        assert measured[:len(want)] == [((predicted.x, predicted.y), m) for m in want]
        assert closed_form_midpoints(measured) == want


def pinned_bases():
    """PINNED_SWEEPS' sweeps, as random_bases yields them."""
    for (n, scale, samples, seed, floor), _ in PINNED_SWEEPS:
        yield Point(-0.3 * scale, 1.1 * scale), Point(1.7 * scale, 0.4 * scale), n, samples, Tolerance(abs=floor), seed


@pytest.mark.parametrize("bases", [*range(18, 23), "pinned"])
def test_rim_spread_is_the_all_pairs_spread(monkeypatch, bases):
    # The spread is measured only between the midpoints that reach far enough
    # towards the bounding box (argued beside _sweep_settled); it must be the
    # float that math.dist gives over every pair of distinct midpoints.
    dist = math.dist
    measured = recording_dist(monkeypatch)
    swept = spread_calls = all_pairs = 0
    for an, bn, n, samples, tol, seed in pinned_bases() if bases == "pinned" else random_bases(1000, bases):
        measured.clear()
        try:
            spread, _ = verify_independence(an, bn, n, samples, tol, seed)
        except GeometryError:
            continue
        points = closed_form_midpoints(measured)
        assert len(set(points)) == len(points)
        assert spread.residual == max(starmap(dist, combinations(points, 2)), default=0.0)
        swept += 1
        spread_calls += len(measured) - len(points)
        all_pairs += len(points) * (len(points) - 1) // 2
    assert swept >= (len(PINNED_SWEEPS) if bases == "pinned" else 300)
    if bases == "pinned":
        # Most midpoints are inside the rim: the spread skips most pairs.
        assert 4 * spread_calls < all_pairs


FLOOR = DEFAULT_TOLERANCE.bound(0.0)
CORNERS_COINCIDE = (DegenerateTriangleError, "triangle corners coincide")


def triangle_overflow(area):
    return GeometryError, f"triangle overflows the float range: signed area {area}, squared apex side inf"


# (an, a1, bn, n): each is rejected with this error, which the sweep raises
# for such an apex on a base it does not settle, since it runs the same tests.
# Each overflow case leaves the signed area or the squared apex side past the
# float range, so the construction stops at the triangle's overflow error
# before any later step can overflow.
REJECTED = {
    "apex-on-corner": ((Point(0, 0), Point(0, 0), Point(2, 0), 4), CORNERS_COINCIDE),
    "corners-coincide": ((Point(0, 0), Point(1, 1), Point(0, 0), 5), CORNERS_COINCIDE),
    "side-below-floor": ((Point(0, 0), Point(0.5 * FLOOR, 0.0), Point(2, 0), 4), CORNERS_COINCIDE),
    "base-below-floor": ((Point(0, 0), Point(1, 1), Point(0.0, 0.5 * FLOOR), 6), CORNERS_COINCIDE),
    "n-not-an-integer": ((Point(0, 0), Point(1, 1), Point(2, 0), 3.0),
                         (InvalidVertexCountError, "need an integer n >= 3, got 3.0")),
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


# (an, bn, n, seed): the first apex that fails, at 300 samples, raises the
# overflow error of the quantity that left the float range: the apex itself,
# its triangle (a corner difference past the range leaves the area NaN) or M1.
SWEEP_ERRORS = {
    "apex-product-overflows-x": (
        (Point(0, 0), Point(1.7e308, 0), 5, 0),
        (GeometryError, "apex overflows the float range: (nan, nan)"),
    ),
    "apex-product-overflows-y": (
        (Point(0, 0), Point(1.7e308, 0), 5, 1),
        (GeometryError, "apex overflows the float range: (nan, inf)"),
    ),
    "apex-sum-overflows": (
        (Point(1.5e308, 0), Point(0.2e308, 0), 5, 1),
        (GeometryError, "apex overflows the float range: (nan, -inf)"),
    ),
    "corner-difference-overflows": (
        (Point(0, 0), Point(1.7e308, 0), 5, 28),
        (GeometryError, "triangle overflows the float range: signed area nan, squared apex side inf"),
    ),
    "triangle-overflows": (
        (Point(0, 0), Point(1.7e308, 0), 5, 4),
        (GeometryError,
         "triangle overflows the float range: signed area nan, squared apex side inf"),
    ),
    # n this large puts M1 near 1e308, so the two antipodes are finite but their sum is not.
    "m1-sum-overflows": (
        (Point(0, 0), Point(1e100, 0), 6 * 10**208, 9),
        (GeometryError, "M1 overflows the float range: (-9.9792015476736e+291, inf)"),
    ),
    # A circle past the float range: the base is not settled, so the apex runs
    # the checked path, which raises the circle's error.
    "circumcircle-overflows": (
        (Point(0, 0), Point(1e100, 0), 6 * 10**208, 0),
        (GeometryError, "circumcircle overflows the float range: centroid (-inf, inf), radius inf"),
    ),
}


@pytest.mark.parametrize("case, expected", SWEEP_ERRORS.values(), ids=SWEEP_ERRORS.keys())
def test_sweep_errors_are_pinned(case, expected):
    an, bn, n, seed = case
    assert outcome(lambda: verify_independence(an, bn, n, 300, seed=seed)) == expected


def test_construction_raises_the_sweeps_m1_overflow():
    # The first apex of the m1-sum-overflows sweep: the construction forms M1
    # with the sweep's arithmetic and overflow check, so it raises the sweep's error.
    (an, bn, n, seed), expected = SWEEP_ERRORS["m1-sum-overflows"]
    rng = random.Random(seed)
    t, h = rng.uniform(-0.5, 1.5), rng.uniform(0.05, 2.0)
    apex = Point(t * bn.x, h * bn.x)
    assert outcome(lambda: bottema_construct(an, apex, bn, n)) == expected
    assert outcome(lambda: verify_independence(an, bn, n, 2, seed=seed)) == expected


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


def test_sweep_calls_no_checked_path_on_a_regular_base(monkeypatch):
    # On a settled base the sweep computes both circles, the antipodes and M1
    # inline; the checked path runs only on a base the error bound leaves open.
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
    spread, closed = verify_independence(Point(0, 0), Point(2, 0), 7, 300, seed=1)
    assert spread.ok and closed.ok
    assert calls == dict.fromkeys(calls, 0)
    # The counters see the checked path when it runs.
    equigon.bottema.bottema_construct(Point(0, 0), Point(0.6, 1.4), Point(2, 0), 7)
    assert calls == {"bottema_construct": 1, "from_side": 2, "diametric_opposite": 2}


def hypot_calls_per_apex(monkeypatch, an, bn, n, tol):
    """The sweep's math.hypot calls per apex, less the spread's one per distinct
    midpoint: a 300-apex sweep less a 2-apex one."""
    hypot = math.hypot

    def counted(samples):
        calls = 0

        def counting(*args):
            nonlocal calls
            calls += 1
            return hypot(*args)

        monkeypatch.setattr(math, "hypot", counting)
        measured = recording_dist(monkeypatch)
        spread, closed = verify_independence(an, bn, n, samples, tol, seed=1)
        monkeypatch.undo()
        assert spread.ok and closed.ok
        return calls - len(closed_form_midpoints(measured))

    return (counted(300) - counted(2)) / 298


def test_settled_sweep_measures_only_the_two_sides(monkeypatch):
    # On a base the error bound settles, an apex runs none of the construction's
    # tests: its only distances are its two sides, and the spread measures each
    # distinct midpoint's reach to the bounding box once.
    assert hypot_calls_per_apex(monkeypatch, Point(0, 0), Point(2, 0), 7, DEFAULT_TOLERANCE) == 2


def test_settled_sweep_calls_no_python_function_per_apex():
    # On a settled base the sides are fixed once and the draws are inline: an
    # apex's only calls are C functions, its two random() draws and its two
    # hypot calls; its midpoint is kept by a dict store, which calls nothing.
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
    assert {event: (long[event] - short[event]) / 298 for event in long} == {"call": 0, "c_call": 4}


def test_unsettled_sweep_runs_the_checked_construction(monkeypatch):
    # A floor of 0.04 base lengths is past the bound, so each apex runs the
    # construction's triangle tests and from_side, each measuring both sides.
    assert hypot_calls_per_apex(monkeypatch, Point(0, 0), Point(2, 0), 7, Tolerance(abs=0.08)) >= 4


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "far from the origin the sweep's bound is taken at the base length, while the "
    "rounding of the apexes and midpoints grows with the corners' magnitude"))
def test_sweep_far_from_the_origin_passes():
    # Corners at 1e18 and a base of 1e10: the midpoints spread by 4.615e+02
    # against an allowed 1.000e+01.  The base is not settled (its corners are
    # past 2**20 base lengths), so each apex runs the checked construction.
    spread, closed = verify_independence(Point(1e18, 1e18), Point(1.00000001e18, 1e18), 5, 300, seed=7)
    assert spread.ok and closed.ok


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
        raise DegenerateTriangleError("triangle corners coincide")
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


def reference_sweep(an, bn, n, samples, tol, seed):
    """verify_independence's residuals with every apex through reference_midpoint.

    The spread is taken with Point.distance over every pair of midpoints.
    """
    if an.distance(bn) <= tol.bound(0.0):
        raise DegenerateSideError("base endpoints coincide")
    predicted = closed_form_midpoint(an, bn, n, 1, tol)
    midpoints = [reference_midpoint(an, apex, bn, n, tol) for apex in sweep_apexes(an, bn, samples, seed)]
    spread = max(p.distance(q) for p in midpoints for q in midpoints)
    return spread, max(m.distance(predicted) for m in midpoints)


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
            # A floor near the base length rejects apexes close to a corner.
            floor = min(an.distance(bn) * 10.0 ** rng.uniform(-2, 0.1), 1e308) or floor
        tol = Tolerance(rel=10.0 ** rng.uniform(-16, -3), abs=floor)
        yield an, bn, n, rng.choice([2, 3, 40]), tol, rng.randrange(1000)


def test_sweep_matches_the_checked_path():
    # Each apex that passes the sweep's float tests gets the reference's M1;
    # a degenerate apex raises the reference's error.  Where the reference
    # stops at a value past the float range (a Point built from it, or
    # an overflow error), the sweep may instead raise the overflow error of
    # its own step.
    raised = set()
    for an, bn, n, samples, tol, seed in random_bases(1000, seed=18):
        expected = outcome(lambda: reference_sweep(an, bn, n, samples, tol, seed))
        got = outcome(lambda: verify_independence(an, bn, n, samples, tol, seed))
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            raised.add(expected[0])
            if got != expected:
                assert expected[0] is GeometryError and (
                    expected[1].startswith("coordinates must be finite, got ")
                    or "overflows the float range: " in expected[1])
                assert got[0] is GeometryError and "overflows the float range: " in got[1]
        else:
            assert (got[0].residual, got[1].residual) == expected
    # The bases make the sweep raise each of these errors at least once.
    assert raised == {
        DegenerateSideError, DegenerateTriangleError, GeometryError, InvalidVertexCountError,
    }


def filtered_and_checked(monkeypatch, an, bn, n, samples, tol, seed):
    """The sweep's outcome with the error-bound filter and with every apex
    tested, and the filter's decisions."""
    decisions = []
    settled = equigon.bottema._sweep_settled

    def recording(*args):
        decisions.append(settled(*args))
        return decisions[-1]

    monkeypatch.setattr(equigon.bottema, "_sweep_settled", recording)
    filtered = repr(outcome(lambda: verify_independence(an, bn, n, samples, tol, seed)))
    monkeypatch.setattr(equigon.bottema, "_sweep_settled", lambda *args: False)
    checked = outcome(lambda: verify_independence(an, bn, n, samples, tol, seed))
    monkeypatch.undo()
    return decisions, filtered, checked


@pytest.mark.parametrize("seed", range(18, 23))
def test_sweep_filter_keeps_every_result(monkeypatch, seed):
    # A settled base skips the per-apex tests; each residual bit and each
    # error must be what testing every apex gives.
    settled = 0
    for an, bn, n, samples, tol, sweep_seed in random_bases(1000, seed):
        decisions, filtered, checked = filtered_and_checked(monkeypatch, an, bn, n, samples, tol, sweep_seed)
        assert filtered == repr(checked)
        settled += decisions == [True]
    assert 100 <= settled <= 900


FLOOR_AT_BOUND = math.nextafter(0.04 * 2.0, 0.0)

# (an, bn, n, tol): the filter's decision on a sweep of 300 apexes over this
# base, on either side of each of its thresholds.  A "-fails" base is one the
# filter must not settle, as testing every apex raises: leaving out the
# threshold it straddles would settle it.
STRADDLING = {
    "corner-at-bound": ((Point(2.0 ** 21 - 2, 0), Point(2.0 ** 21, 0), 5, Tolerance(rel=1e-6)), True),
    "corner-past-bound": ((Point(2.0 ** 21, 0), Point(2.0 ** 21 + 2, 0), 5, Tolerance(rel=1e-6)), False),
    "corner-fails": ((Point(2.0 ** 60, 2.0 ** 60), Point(2.0 ** 60 + 512, 2.0 ** 60), 5, Tolerance(rel=1e4)), False),
    "n-at-bound": ((Point(0, 0), Point(2, 0), 2 ** 20, DEFAULT_TOLERANCE), True),
    "n-past-bound": ((Point(0, 0), Point(2, 0), 2 ** 20 + 1, DEFAULT_TOLERANCE), False),
    "n-fails": ((Point(0, 0), Point(1e100, 0), 6 * 10 ** 208, DEFAULT_TOLERANCE), False),
    "floor-below-bound": ((Point(0, 0), Point(2, 0), 5, Tolerance(abs=FLOOR_AT_BOUND)), True),
    "floor-at-bound": ((Point(0, 0), Point(2, 0), 5, Tolerance(abs=0.08)), False),
    "floor-fails": ((Point(0, 0), Point(2, 0), 5, Tolerance(abs=0.5)), False),
    "shortest-base": ((Point(0, 0), Point(2.0 ** -400, 0), 5, Tolerance(abs=2.0 ** -410)), True),
    "base-below-range": ((Point(0, 0), Point(2.0 ** -401, 0), 5, Tolerance(abs=2.0 ** -410)), False),
    "short-base-fails": ((Point(0, 0), Point(2.0 ** -1020, 0), 5, Tolerance(abs=5e-324)), False),
    "longest-base": ((Point(0, 0), Point(2.0 ** 400, 0), 5, DEFAULT_TOLERANCE), True),
    "base-above-range": ((Point(0, 0), Point(2.0 ** 401, 0), 5, DEFAULT_TOLERANCE), False),
    "long-base-fails": ((Point(0, 0), Point(1.7e308, 0), 5, DEFAULT_TOLERANCE), False),
}


@pytest.mark.parametrize("name", STRADDLING)
def test_sweep_filter_at_its_thresholds(monkeypatch, name):
    (an, bn, n, tol), settled = STRADDLING[name]
    decisions, filtered, checked = filtered_and_checked(monkeypatch, an, bn, n, 300, tol, 1)
    assert decisions == [settled]
    assert filtered == repr(checked)
    # Only the "-fails" bases raise, so each of them shows its threshold is needed.
    assert isinstance(checked[0], type) == name.endswith("-fails")


def test_degenerate_triangle_message():
    for (an, a1, bn, _), _ in list(REJECTED.values())[:4]:
        with pytest.raises(DegenerateTriangleError, match="^triangle corners coincide$"):
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
            got = [(check.name, check.detail, check.residual.hex()) for check in vertex_angles(result)]
            assert got == vertex_angles_by_formula(result)
    assert kinds == set(MatchKind)


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
    with pytest.raises(DegenerateTriangleError):
        bottema_construct(Point(0, 0), Point(0, 0), Point(2, 0), 4)
    with pytest.raises(DegenerateTriangleError):
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
