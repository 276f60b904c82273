"""Acceptance suite: ten end-to-end criteria, one test (and one line) each.

Every test checks its stated tolerance and, where a runtime budget exists,
asserts it.  Each prints a single summary line on success (visible with -s);
under plain ``pytest -v`` the per-test PASSED/FAILED line serves the same
purpose.  Shared random configurations are built once per module and reused
where several criteria examine the same geometry.
"""

import dataclasses
import itertools
import json
import math
import random
import subprocess
import sys
import time
import xml.dom.minidom
from pathlib import Path

import pytest

from equigon.geom import Point, angle_at
from equigon.polygon import RegularPolygon, from_shared_vertex
from equigon.power_sums import (
    compare_power_sums,
    distances_squared,
    multisets_equal,
    power_sums_to_elementary,
    verify_power_sum_identity,
)
from equigon.equalizer import (
    Locus,
    MatchKind,
    align_rotation,
    classify_pair,
    correspondence,
    equal_distance_points,
    verify_point_properties,
)
from equigon.bottema import bottema_construct, closed_form_midpoint, vertex_angles
from equigon.scenario import parse_scenario, serialize_scenario
from equigon.cli import main as cli_main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def power_sums_vector(values, top):
    """Oracle: the direct power sums p_1..p_top."""
    return tuple(sum(x ** m for x in values) for m in range(1, top + 1))


def rotate_about_centroid(poly, delta):
    """The polygon turned by ``delta`` about its centroid."""
    return dataclasses.replace(poly, phase=poly.phase + delta)


def _announce(number: int, detail: str) -> None:
    print(f"\nACCEPTANCE {number:>2}: PASS  {detail}")


# ---------------------------------------------------------------------------
# shared random configurations


def _random_shared_vertex_pair(rng: random.Random):
    """Opposite orientations, distinct radii, centroids never collinear with
    the shared vertex, so the swapped circles always cross in two points."""
    while True:
        n = rng.randint(3, 12)
        vertex = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        ang1 = rng.uniform(-math.pi, math.pi)
        ang2 = rng.uniform(-math.pi, math.pi)
        r1 = rng.uniform(0.3, 4.0)
        r2 = rng.uniform(0.3, 4.0)
        if abs(r1 - r2) < 1e-3 * max(r1, r2):
            continue
        if abs(math.sin(ang2 - ang1)) < 1e-3:
            continue
        orient = rng.choice((1, -1))
        first = from_shared_vertex(
            vertex, vertex + Point(math.cos(ang1), math.sin(ang1)) * r1, n, orient
        )
        second = from_shared_vertex(
            vertex, vertex + Point(math.cos(ang2), math.sin(ang2)) * r2, n, -orient
        )
        return first, second


@pytest.fixture(scope="module")
def shared_configs():
    rng = random.Random(31415)
    start = time.perf_counter()
    configs = []
    for _ in range(1000):
        first, second = _random_shared_vertex_pair(rng)
        configs.append((first, second, equal_distance_points(first, second)))
    return configs, time.perf_counter() - start


@pytest.fixture(scope="module")
def bottema_results():
    rng = random.Random(27182)
    an, bn = Point(0.0, 0.0), Point(2.0, 0.0)
    start = time.perf_counter()
    per_n = {}
    for n in range(3, 13):
        results = []
        for _ in range(100):
            apex = Point(rng.uniform(-1.0, 3.0), rng.uniform(0.1, 2.5))
            results.append((apex, bottema_construct(an, apex, bn, n)))
        per_n[n] = results
    return an, bn, per_n, time.perf_counter() - start


# ---------------------------------------------------------------------------
# criterion 1: closed-form power sums on random configurations


def test_criterion_01_power_sum_closed_form():
    rng = random.Random(10001)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(10_000):
        n = rng.randint(3, 12)
        poly = RegularPolygon(
            n,
            Point(rng.uniform(-3, 3), rng.uniform(-3, 3)),
            rng.uniform(1e-6, 10.0),
            rng.uniform(-math.pi, math.pi),
            rng.choice((1, -1)),
        )
        probe = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
        check = verify_power_sum_identity(poly, probe)
        assert check.detail == f"orders 1..{n - 1}, relative"
        assert check.ok
        worst = max(worst, check.residual)
        assert check.residual < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(1, f"10000 configs, worst relative residual {worst:.3e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 2: Newton's identities against polynomial expansion


def _elementary_by_expansion(values):
    """Coefficients of prod (x - v): e_m = (-1)^m * coeff of x^(len-m)."""
    coeffs = [1.0]
    for v in values:
        coeffs = [c - v * prev for c, prev in zip(coeffs + [0.0], [0.0] + coeffs)]
    return tuple((-1.0) ** m * coeffs[m] for m in range(1, len(values) + 1))


def test_criterion_02_newton_identities_oracle():
    rng = random.Random(20002)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        size = rng.randint(1, 8)
        values = [rng.uniform(0.1, 10.0) for _ in range(size)]
        via_newton = power_sums_to_elementary(power_sums_vector(values, size))
        via_expansion = _elementary_by_expansion(values)
        for a, b in zip(via_newton, via_expansion):
            residual = abs(a - b) / max(abs(a), abs(b), 1.0)
            worst = max(worst, residual)
            assert residual < 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _announce(2, f"1000 value sets, worst relative residual {worst:.3e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 3: shared-vertex pairs yield two points with both correspondences


def test_criterion_03_shared_vertex_two_points(shared_configs):
    configs, build_elapsed = shared_configs
    start = time.perf_counter()
    worst = 0.0
    for first, second, solution in configs:
        assert len(solution.points) == 2
        assert not solution.coincident
        scale = max(first.circumradius, second.circumradius)
        n = first.n
        m1, m2 = solution.points
        identity_worst = max(
            abs(m1.distance(first.vertex(k)) - m1.distance(second.vertex(k)))
            for k in range(1, n + 1)
        )
        reversal_worst = max(
            abs(m2.distance(first.vertex(k)) - m2.distance(second.vertex(n + 2 - k if k > 1 else 1)))
            for k in range(1, n + 1)
        )
        worst = max(worst, identity_worst / scale, reversal_worst / scale)
        assert identity_worst < 1e-9 * scale
        assert reversal_worst < 1e-9 * scale
        assert correspondence(first, second, m1).kind is MatchKind.IDENTITY
        assert correspondence(first, second, m2).kind is MatchKind.REVERSAL
    elapsed = build_elapsed + time.perf_counter() - start
    assert elapsed < 5.0
    _announce(3, f"1000 pairs, worst residual/scale {worst:.3e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 4: power-sum system passes at solutions, fails off them


def test_criterion_04_power_sum_system_necessity(shared_configs):
    configs, _ = shared_configs
    rng = random.Random(40004)
    start = time.perf_counter()
    for first, second, solution in configs:
        for point in solution.points:
            check = compare_power_sums(
                distances_squared(first, point),
                distances_squared(second, point),
            )
            assert check.detail == f"orders 1..{first.n - 1}, normalized"
            assert check.ok
    rejected = 0
    for first, second, solution in configs:
        scale = max(first.circumradius, second.circumradius)
        while True:
            probe = Point(rng.uniform(-12, 12), rng.uniform(-12, 12))
            if min(probe.distance(q) for q in solution.points) > 1e-2 * scale:
                break
        report = compare_power_sums(
            distances_squared(first, probe),
            distances_squared(second, probe),
        )
        assert not report.ok
        rejected += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _announce(4, f"2000 solution points pass, {rejected} off-points fail, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 5: congruent cases, rotational and mirror invariance


def test_criterion_05_congruent_invariance():
    rng = random.Random(50005)
    start = time.perf_counter()
    for _ in range(500):
        n = rng.randint(3, 12)
        poly = RegularPolygon(
            n,
            Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            rng.uniform(0.3, 4.0),
            rng.uniform(-math.pi, math.pi),
            rng.choice((1, -1)),
        )
        spun = rotate_about_centroid(poly, rng.uniform(-math.pi, math.pi))
        assert equal_distance_points(poly, spun).locus is Locus.ENTIRE_PLANE
        probe = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
        assert compare_power_sums(
            distances_squared(poly, probe),
            distances_squared(spun, probe),
        ).ok
    failures = 0
    for _ in range(500):
        n = rng.randint(3, 12)
        r = rng.uniform(0.3, 4.0)
        c1 = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        angle = rng.uniform(-math.pi, math.pi)
        gap = rng.uniform(0.5, 6.0)
        c2 = c1 + Point(math.cos(angle), math.sin(angle)) * gap
        first = RegularPolygon(n, c1, r, rng.uniform(-math.pi, math.pi), rng.choice((1, -1)))
        second = RegularPolygon(n, c2, r, rng.uniform(-math.pi, math.pi), rng.choice((1, -1)))
        assert equal_distance_points(first, second).locus is Locus.PERPENDICULAR_BISECTOR
        mid = c1.midpoint(c2)
        axis = (c2 - c1).perpendicular() * (1.0 / gap)
        on_bisector = mid + axis * rng.uniform(-5.0, 5.0)
        assert compare_power_sums(
            distances_squared(first, on_bisector),
            distances_squared(second, on_bisector),
        ).ok
        # off the bisector the first-order sums already disagree
        while True:
            off = Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
            gap_sq = abs(off.distance_squared(c1) - off.distance_squared(c2))
            if gap_sq > 1e-3:
                break
        if not compare_power_sums(
            distances_squared(first, off),
            distances_squared(second, off),
        ).ok:
            failures += 1
    assert failures == 500
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(5, f"500 + 500 congruent configs pass, 500 counterexamples fail, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 6: alignment makes full multisets equal without a shared vertex


def test_criterion_06_alignment_end_to_end():
    rng = random.Random(60006)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = rng.randint(3, 12)
        while True:
            r1 = rng.uniform(0.3, 4.0)
            r2 = rng.uniform(0.3, 4.0)
            if abs(r1 - r2) > 1e-3 * max(r1, r2):
                break
        lo, hi = abs(r1 - r2), r1 + r2
        gap = lo + rng.uniform(0.05, 0.95) * (hi - lo)
        c1 = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        angle = rng.uniform(-math.pi, math.pi)
        c2 = c1 + Point(math.cos(angle), math.sin(angle)) * gap
        first = RegularPolygon(n, c1, r1, rng.uniform(-math.pi, math.pi), rng.choice((1, -1)))
        second = RegularPolygon(n, c2, r2, rng.uniform(-math.pi, math.pi), rng.choice((1, -1)))
        solution = equal_distance_points(first, second)
        assert len(solution.points) == 2
        point = solution.points[0]
        da = distances_squared(first, point)
        candidates = align_rotation(first, second, point)
        assert candidates
        matched = False
        joint_scale = max(da)
        for candidate in candidates:
            db = distances_squared(candidate, point)
            joint_scale = max(joint_scale, max(db))
            match = multisets_equal(da, db)
            if match.ok:
                matched = True
                worst = max(worst, match.residual / joint_scale)
                assert match.residual < 1e-9 * joint_scale
        assert matched
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _announce(6, f"500 aligned pairs, worst residual/scale {worst:.3e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 7: point properties, including the tangent/collinear family


def test_criterion_07_point_properties(shared_configs):
    configs, _ = shared_configs
    worst = 0.0
    for first, second, solution in configs:
        scale = max(first.circumradius, second.circumradius)
        checks = verify_point_properties(first, second, solution)
        assert len(checks) == 6
        assert all(check.ok for check in checks)
        for check in checks:
            if check.vacuous:
                continue
            worst = max(worst, check.residual / scale)
            assert check.residual < 1e-9 * scale

    rng = random.Random(70007)
    contacts = 0
    for _ in range(25):
        n = rng.randint(3, 12)
        vertex = Point(rng.uniform(-3, 3), rng.uniform(-3, 3))
        angle = rng.uniform(-math.pi, math.pi)
        direction = Point(math.cos(angle), math.sin(angle))
        r1 = rng.uniform(0.4, 3.0)
        # same side gives internal tangency, opposite sides external tangency
        r2 = r1 * rng.uniform(1.5, 3.0) * rng.choice((1.0, -1.0))
        first = from_shared_vertex(vertex, vertex + direction * r1, n, 1)
        second = from_shared_vertex(vertex, vertex + direction * r2, n, -1)
        solution = equal_distance_points(first, second)
        assert solution.coincident
        assert solution.points[0] == solution.points[1]
        checks = verify_point_properties(first, second, solution)
        assert all(check.ok for check in checks)
        contacts += 1
    _announce(7, f"6 properties on 1000 pairs, worst residual/scale {worst:.3e}, "
                 f"{contacts} tangent contacts handled")


# ---------------------------------------------------------------------------
# criterion 8: apex-independent midpoint over the fixed base


def _square_far_corner(p, q, interior):
    side = q - p
    normal = Point(-side.y, side.x)
    if (q - p).cross(interior - p) > 0:
        normal = Point(side.y, -side.x)
    return q + normal


def test_criterion_08_bottema_midpoint(bottema_results):
    an, bn, per_n, build_elapsed = bottema_results
    base = an.distance(bn)
    start = time.perf_counter()
    worst_dev = 0.0
    for n, results in per_n.items():
        predicted = closed_form_midpoint(an, bn, n, 1)
        altitude = 0.5 * base / math.tan(math.pi / n)
        for (_, res_a), (_, res_b) in itertools.combinations(results, 2):
            deviation = res_a.m1.distance(res_b.m1)
            worst_dev = max(worst_dev, deviation)
            assert deviation < 1e-9 * base
        for _, result in results:
            assert result.m1.distance(predicted) < 1e-9
            assert abs(result.m1.distance(result.h) - altitude) < 1e-9
            assert result.h.distance(an.midpoint(bn)) < 1e-9
    for apex, result in per_n[4]:
        d1 = _square_far_corner(apex, an, bn)
        d2 = _square_far_corner(apex, bn, an)
        assert result.m1.distance(d1.midpoint(d2)) < 1e-9
    elapsed = build_elapsed + time.perf_counter() - start
    assert elapsed < 5.0
    _announce(8, f"10 n-values x 100 apexes, worst deviation {worst_dev:.3e}, {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# criterion 9: fixed vertex angles at the midpoint


def test_criterion_09_vertex_angles(bottema_results):
    _, _, per_n, _ = bottema_results
    worst = 0.0
    counted = 0
    for n, results in per_n.items():
        for _, result in results:
            checks = vertex_angles(result)
            assert [check.name for check in checks] == [f"vertex_angle_k{k}" for k in range(2, n + 1)]
            for k, check in enumerate(checks, start=2):
                counted += 1
                worst = max(worst, check.residual)
                assert check.ok
                assert check.residual < 1e-9
                raw = math.tau * (k - 1) / n
                measured = angle_at(result.m1, result.poly1.vertex(k), result.poly2.vertex(k))
                assert measured == pytest.approx(min(raw, math.tau - raw))
    _announce(9, f"{counted} angles checked, worst residual {worst:.3e} rad")


# ---------------------------------------------------------------------------
# criterion 10: CLI contract


def test_criterion_10_cli_contract(tmp_path, capsys):
    shared = str(SCENARIO_DIR / "shared_vertex_squares.json")
    disjoint = str(SCENARIO_DIR / "pair_disjoint.json")
    pentagons = str(SCENARIO_DIR / "pair_pentagons.json")
    bottema = str(SCENARIO_DIR / "bottema_squares.json")

    # scenario roundtrip is exact for every shipped sample
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    # verify: pass, machine-readable report, valid absence, input error, failure
    assert cli_main(["verify", shared]) == 0
    assert "overall: PASS" in capsys.readouterr().out
    assert cli_main(["verify", shared, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["overall_ok"] is True and set(data["points"]) == {"M1", "M2"}
    assert cli_main(["verify", disjoint]) == 0
    assert "no equal-distance point" in capsys.readouterr().out
    assert cli_main(["verify", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()
    assert cli_main(["verify", pentagons, "--tolerance-rel", "1e-16",
                     "--tolerance-abs", "1e-18"]) == 1
    capsys.readouterr()

    # render: byte-stable, well-formed, documented element counts
    first_svg = tmp_path / "a.svg"
    second_svg = tmp_path / "b.svg"
    assert cli_main(["render", shared, "-o", str(first_svg)]) == 0
    assert cli_main(["render", shared, "-o", str(second_svg)]) == 0
    capsys.readouterr()
    assert first_svg.read_bytes() == second_svg.read_bytes()
    document = first_svg.read_text(encoding="utf-8")
    xml.dom.minidom.parseString(document)
    assert document.count("<polygon") == 2
    assert document.count("<circle") == 4
    assert document.count('class="point-label"') == 2
    bottema_svg = tmp_path / "bottema.svg"
    assert cli_main(["render", bottema, "-o", str(bottema_svg)]) == 0
    capsys.readouterr()
    assert ">M1<" in bottema_svg.read_text(encoding="utf-8")

    # sweep and the quick apex-independence verb
    assert cli_main(["sweep", "--kind", "shared_vertex", "--n", "3-5",
                     "--count", "4", "--seed", "9"]) == 0
    assert cli_main(["bottema", "--an", "0,0", "--bn", "2,0", "--n", "5",
                     "--samples", "50"]) == 0
    capsys.readouterr()

    # exit codes survive real process boundaries
    proc = subprocess.run(
        [sys.executable, "-m", "equigon", "verify", shared],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    _announce(10, "four verbs, byte-stable SVG, exit codes 0/1/2, exact roundtrip")
