import dataclasses
import itertools
import math
import random
import re
import time
from fractions import Fraction

import pytest

import equigon.geom
from equigon.geom import DEFAULT_TOLERANCE, GeometryError, Point, circle_intersection, side_of_line, wrap_angle
from equigon.polygon import RegularPolygon, from_shared_vertex
from equigon.power_sums import compare_power_sums, distances_squared, multisets_equal
from equigon.runner import run_scenario, solve_scenario
from equigon.sampling import random_scenario
from equigon.scenario import Scenario, ScenarioKind, SharedVertexConfig, parse_scenario, serialize_scenario
from equigon.equalizer import (
    Locus,
    MatchKind,
    NoMatchingError,
    PairCase,
    _vertex_distances,
    align_rotation,
    classify_pair,
    correspondence,
    cosine_model,
    equal_distance_points,
    partners,
    shared_vertex_points,
    verify_point_properties,
)


def rotate_about_centroid(poly, delta):
    """The polygon turned by ``delta`` about its centroid."""
    return dataclasses.replace(poly, phase=poly.phase + delta)


def shared_square_pair():
    first = from_shared_vertex(Point(0, 0), Point(1, 1), 4, -1)
    second = from_shared_vertex(Point(0, 0), Point(-2, 2), 4, 1)
    return first, second


def random_shared_vertex_pair(rng, n):
    """Opposite-orientation polygons sharing their first vertex, never tangent."""
    while True:
        vertex = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
        ang1 = rng.uniform(-math.pi, math.pi)
        ang2 = rng.uniform(-math.pi, math.pi)
        r1 = rng.uniform(0.3, 4.0)
        r2 = rng.uniform(0.3, 4.0)
        if abs(r1 - r2) < 1e-6 * max(r1, r2):
            continue
        if abs(math.sin(ang2 - ang1)) < 1e-4:
            continue  # nearly collinear centroids give a tangent contact
        c1 = vertex + Point(math.cos(ang1), math.sin(ang1)) * r1
        c2 = vertex + Point(math.cos(ang2), math.sin(ang2)) * r2
        o1 = rng.choice((1, -1))
        return (
            from_shared_vertex(vertex, c1, n, o1),
            from_shared_vertex(vertex, c2, n, -o1),
        )


def test_classify_pair_cases():
    base = RegularPolygon(5, Point(0, 0), 2.0, 0.1, 1)
    assert classify_pair(base, rotate_about_centroid(base, 1.0)) is PairCase.CONGRUENT_SAME_CENTROID
    shifted = RegularPolygon(5, Point(3, 1), 2.0, -0.4, -1)
    assert classify_pair(base, shifted) is PairCase.CONGRUENT_DISTINCT_CENTROIDS
    smaller = RegularPolygon(5, Point(0, 0), 1.0, 0.0, 1)
    assert classify_pair(base, smaller) is PairCase.NON_CONGRUENT
    # same radii count as congruent no matter how far apart the centroids are
    far = RegularPolygon(5, Point(50, 50), 2.0, 0.0, 1)
    assert classify_pair(base, far) is PairCase.CONGRUENT_DISTINCT_CENTROIDS


def test_classify_pair_rejects_mixed_vertex_counts():
    with pytest.raises(GeometryError, match="^vertex counts differ: 4 vs 5$"):
        classify_pair(
            RegularPolygon(4, Point(0, 0), 1.0), RegularPolygon(5, Point(0, 0), 1.0)
        )


def test_congruent_cases_return_loci():
    base = RegularPolygon(6, Point(1, 1), 1.5, 0.2, 1)
    spun = rotate_about_centroid(base, 0.9)
    same = equal_distance_points(base, spun)
    assert same.case is PairCase.CONGRUENT_SAME_CENTROID
    assert same.locus is Locus.ENTIRE_PLANE
    assert same.points == ()
    moved = RegularPolygon(6, Point(4, -2), 1.5, 1.0, -1)
    apart = equal_distance_points(base, moved)
    assert apart.locus is Locus.PERPENDICULAR_BISECTOR
    assert apart.points == ()


def test_shared_square_pair_two_points_frozen():
    first, second = shared_square_pair()
    solution = equal_distance_points(first, second)
    assert solution.case is PairCase.NON_CONGRUENT
    assert not solution.coincident
    assert solution.points[0].x == pytest.approx(-1.0, abs=1e-12)
    assert solution.points[0].y == pytest.approx(3.0, abs=1e-12)
    assert solution.points[1].x == pytest.approx(-1.8, abs=1e-12)
    assert solution.points[1].y == pytest.approx(0.6, abs=1e-12)
    # both points sit on both swapped circles
    for point in solution.points:
        assert point.distance(second.centroid) == pytest.approx(first.circumradius, abs=1e-12)
        assert point.distance(first.centroid) == pytest.approx(second.circumradius, abs=1e-12)


def test_shared_square_distance_multisets_frozen():
    first, second = shared_square_pair()
    solution = equal_distance_points(first, second)
    at_m1_a = distances_squared(first, solution.points[0])
    at_m1_b = distances_squared(second, solution.points[0])
    assert at_m1_a == pytest.approx((10.0, 2.0, 10.0, 18.0), abs=1e-12)
    assert at_m1_b == pytest.approx((10.0, 2.0, 10.0, 18.0), abs=1e-12)
    at_m2_a = distances_squared(first, solution.points[1])
    at_m2_b = distances_squared(second, solution.points[1])
    assert at_m2_a == pytest.approx((3.6, 5.2, 16.4, 14.8), abs=1e-12)
    assert at_m2_b == pytest.approx((3.6, 14.8, 16.4, 5.2), abs=1e-12)
    assert multisets_equal(at_m2_a, at_m2_b).ok


def test_disjoint_pair_has_no_points():
    first = RegularPolygon(4, Point(0, 0), 1.0, 0.0, 1)
    second = RegularPolygon(4, Point(10, 0), 2.0, 0.0, -1)
    solution = equal_distance_points(first, second)
    assert solution.points == ()
    assert solution.locus is None


def test_tangent_collinear_family_single_point():
    first = from_shared_vertex(Point(0, 0), Point(1, 0), 4, 1)
    second = from_shared_vertex(Point(0, 0), Point(3, 0), 4, -1)
    solution = equal_distance_points(first, second)
    assert solution.coincident
    assert solution.points[0].distance(Point(4, 0)) < 1e-12
    assert solution.points[1].distance(Point(4, 0)) < 1e-12


def test_correspondence_identity_and_reversal_frozen():
    first, second = shared_square_pair()
    solution = equal_distance_points(first, second)
    at_m1 = correspondence(first, second, solution.points[0])
    assert at_m1.kind is MatchKind.IDENTITY
    assert at_m1.max_residual < 1e-12
    assert at_m1.first_residual < 1e-12
    # the bound the runner's cosine_model check applies
    model_bound = DEFAULT_TOLERANCE.bound((first.circumradius + second.circumradius) ** 2)
    assert model_residual(first, second, solution.points[0], at_m1.kind) <= model_bound
    at_m2 = correspondence(first, second, solution.points[1])
    assert at_m2.kind is MatchKind.REVERSAL
    assert at_m2.max_residual < 1e-12
    assert model_residual(first, second, solution.points[1], at_m2.kind) <= model_bound


def model_residual(first, second, point, kind):
    near, far = distances_squared(first, point), distances_squared(second, point)
    return cosine_model(first, second, point, kind, near, far)[1]


def cosine_model_by_loop(first, second, point, kind, near, far):
    """Oracle: ``cosine_model`` as one Python iteration per vertex, in vertex order."""
    n = first.n
    r1, r2 = first.circumradius, second.circumradius
    v = point - first.centroid
    offset = wrap_angle(first.orientation * (math.atan2(v.y, v.x) - first.phase))
    base = r1 * r1 + r2 * r2
    cross = 2.0 * r1 * r2
    model_worst = 0.0
    for k in range(1, n + 1):
        j = k if kind is MatchKind.IDENTITY else (n + 2 - k if k >= 2 else 1)
        model = base - cross * math.cos(math.tau * (k - 1) / n - offset)
        model_worst = max(model_worst, abs(near[k - 1] - model), abs(far[j - 1] - model))
    return (1.0 if kind is MatchKind.IDENTITY else -1.0) * offset, model_worst


def test_cosine_model_matches_the_per_vertex_loop_bit_for_bit():
    rng = random.Random(27)
    cases = []
    for n in (*range(3, 13), 64, 256, 2048):
        for _ in range(40):
            first, second = random_shared_vertex_pair(rng, n)
            point = Point(rng.uniform(-9, 9), rng.uniform(-9, 9))
            cases.append((first, second, point, distances_squared(first, point), distances_squared(second, point)))
    # A NaN leading the first list: the running max skips it, and so must the single max.
    first, second, point, near, far = cases[-1]
    cases.append((first, second, point, (math.nan, *near[1:]), far))
    for (first, second, point, near, far), kind in itertools.product(cases, MatchKind):
        got = cosine_model(first, second, point, kind, near, far)
        want = cosine_model_by_loop(first, second, point, kind, near, far)
        assert [x.hex() for x in got] == [x.hex() for x in want]


def matching_residuals_by_distance(first, second, point, kind):
    """Oracle: |point A_k| - |point B_j| for k = 2..n from ``Point.distance``, in ``float.hex``."""
    ours, theirs = first.vertices()[1:], second.vertices()[1:]
    if kind is MatchKind.REVERSAL:
        theirs = theirs[::-1]
    return [abs(point.distance(a) - point.distance(b)).hex() for a, b in zip(ours, theirs)]


def test_the_solution_keeps_each_labelled_points_distance_lists():
    # The solve labels the crossings in either order; each point keeps its own
    # lists, and the correspondence read off them is the one measured afresh.
    rng, orders = random.Random(53), set()
    for n in (3, 5, 8, 64, 256):
        for _ in range(12):
            config = random_scenario(ScenarioKind.PAIR, n, rng).config
            first = RegularPolygon(n, config.centroid1, config.r1, config.phase1, config.orient1)
            second = RegularPolygon(n, config.centroid2, config.r2, config.phase2, config.orient2)
            solution = equal_distance_points(first, second)
            if not solution.distances:
                continue
            crossing = circle_intersection(second.centroid, first.circumradius, first.centroid, second.circumradius)
            orders.add(solution.points == crossing)
            for point, lists in zip(solution.points, solution.distances, strict=True):
                assert [[d.hex() for d in side] for side in lists] == \
                    [[d.hex() for d in side] for side in _vertex_distances(first, second, point)]
                for kind in (*MatchKind, None):
                    try:
                        fresh = correspondence(first, second, point, kind=kind)
                    except NoMatchingError as exc:
                        with pytest.raises(NoMatchingError, match=re.escape(str(exc))):
                            correspondence(first, second, point, kind=kind, distances=lists)
                        continue
                    assert correspondence(first, second, point, kind=kind, distances=lists) == fresh
    assert orders == {True, False}


def test_matching_residuals_are_point_distances_bit_for_bit():
    # The distance lists are Point.distance to each vertex, and correspondence
    # reads its residuals off them: the first vertex's, and the worst of the
    # kind it returns, or of both kinds in its error.
    rng = random.Random(16)
    tol = DEFAULT_TOLERANCE
    for n in (3, 4, 7, 64, 256):
        first, second = random_shared_vertex_pair(rng, n)
        probes = (*equal_distance_points(first, second).points, Point(rng.uniform(-9, 9), 1e-310))
        for point in probes:
            near, far = _vertex_distances(first, second, point)
            assert [d.hex() for d in near] == [point.distance(v).hex() for v in first.vertices()]
            assert [d.hex() for d in far] == [point.distance(v).hex() for v in second.vertices()]
            worst = {kind: max(map(float.fromhex, matching_residuals_by_distance(first, second, point, kind)))
                     for kind in MatchKind}
            first_residual = abs(point.distance(first.vertex(1)) - point.distance(second.vertex(1)))
            try:
                match = correspondence(first, second, point, tol)
            except NoMatchingError as exc:
                identity, reversal = worst[MatchKind.IDENTITY], worst[MatchKind.REVERSAL]
                assert f"identity {identity:.3e}, reversal {reversal:.3e}" in str(exc)
                continue
            assert (match.max_residual.hex(), match.first_residual.hex()) == (
                worst[match.kind].hex(), first_residual.hex())
            slack = tol.bound(max(first.circumradius, second.circumradius))
            assert match.kind is MatchKind.IDENTITY or worst[MatchKind.IDENTITY] > slack


def test_partners_are_the_three_reversal_slices():
    # The residuals read the reversal as the tail reversed, the cosine model
    # and the figure as "vertex 1, then the rest backwards", on lists and tuples.
    rng = random.Random(30)
    for size in (1, 2, 3, 4, 7, 12, 64):
        for items in ([rng.random() for _ in range(size)], tuple(f"{rng.random():.6f}" for _ in range(size))):
            assert partners(items, MatchKind.IDENTITY) is items
            reversal = partners(items, MatchKind.REVERSAL)
            assert reversal[1:] == items[1:][::-1]
            assert reversal == items[:1] + items[:0:-1]
            assert type(reversal) is type(items) and len(reversal) == size


def test_pair_solve_points_are_the_swapped_circle_crossings():
    rng = random.Random(31)
    for n in (3, 5, 8, 12):
        first, second = random_shared_vertex_pair(rng, n)
        solution = equal_distance_points(first, second)
        assert solution.case is classify_pair(first, second) is PairCase.NON_CONGRUENT
        crossing = circle_intersection(second.centroid, first.circumradius, first.centroid, second.circumradius)
        assert sorted(crossing, key=lambda p: (p.x, p.y)) == sorted(solution.points, key=lambda p: (p.x, p.y))
    base = RegularPolygon(4, Point(0, 0), 1.0, 0.0, 1)
    shifted = dataclasses.replace(base, centroid=Point(1.0, 0.5))
    for other, case in ((rotate_about_centroid(base, 1.0), PairCase.CONGRUENT_SAME_CENTROID),
                        (shifted, PairCase.CONGRUENT_DISTINCT_CENTROIDS)):
        assert classify_pair(base, other) is case
        solution = equal_distance_points(base, other)
        assert (solution.case, solution.points, solution.coincident) == (case, (), False)


def shared_vertex_pair(vertex, centroid1, centroid2, n, orient1, orient2):
    return (from_shared_vertex(vertex, centroid1, n, orient1),
            from_shared_vertex(vertex, centroid2, n, orient2))


def test_shared_vertex_points_are_the_antipode_midpoint_and_its_mirror():
    rng = random.Random(41)
    for index in range(300):
        vertex, c1, c2 = (Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3))
        first, second = shared_vertex_pair(vertex, c1, c2, rng.randint(3, 12), rng.choice((1, -1)),
                                           rng.choice((1, -1)))
        d1, d2, m1, m2, coincident = shared_vertex_points(first, second, vertex)
        assert not coincident
        scale = max(first.circumradius, second.circumradius)
        # D = 2 O - A and M1 = D1.midpoint(D2), the Bottema construction's arithmetic, bit for bit.
        assert (d1, d2) == (Point(c1.x * 2.0 - vertex.x, c1.y * 2.0 - vertex.y),
                            Point(c2.x * 2.0 - vertex.x, c2.y * 2.0 - vertex.y))
        assert m1 == d1.midpoint(d2)
        assert m1.distance(c1 + c2 - vertex) <= 1e-12 * scale
        # M2 is M1's mirror across O1 O2: the centroid line bisects M1 M2 at a right angle.
        assert abs(side_of_line(m1.midpoint(m2), c1, c2)) <= 1e-12 * scale * scale
        assert abs((m2 - m1).dot(c2 - c1)) <= 1e-12 * scale * scale
        assert abs(side_of_line(m1, c1, c2) + side_of_line(m2, c1, c2)) <= 1e-12 * scale * scale
        # Both lie on the swapped circles.
        for point in (m1, m2):
            assert abs(point.distance(c2) - first.circumradius) <= 1e-12 * scale
            assert abs(point.distance(c1) - second.circumradius) <= 1e-12 * scale


def test_shared_vertex_points_coincide_exactly_on_the_centroid_line():
    # A on the line O1 O2, however far the pair is scaled or slid along it:
    # the exact cross product is zero and M2 is M1.
    for vertex, c1, c2 in ((Point(0, 0), Point(1, 0), Point(3, 0)),
                           (Point(0.1, 0.1), Point(0.3, 0.3), Point(-0.7, -0.7)),
                           (Point(1e-9, 2e-9), Point(3e-9, 6e-9), Point(-1e-9, -2e-9))):
        first, second = shared_vertex_pair(vertex, c1, c2, 5, 1, -1)
        d1, d2, m1, m2, coincident = shared_vertex_points(first, second, vertex)
        assert coincident and m2 is m1
    # One unit in the last place off the line: two points, on opposite sides of it.
    vertex, c1, c2 = Point(0, 0), Point(-1, 0), Point(2, math.ulp(0.0))
    first, second = shared_vertex_pair(vertex, c1, c2, 5, 1, -1)
    _, _, m1, m2, coincident = shared_vertex_points(first, second, vertex)
    assert not coincident


def test_shared_vertex_points_coincide_for_one_centroid():
    # Polygons on one circle: O1 = O2, no centroid line; the points coincide.
    vertex, centre = Point(1.0, 2.0), Point(-0.5, 0.25)
    first, second = shared_vertex_pair(vertex, centre, centre, 6, 1, -1)
    _, _, m1, m2, coincident = shared_vertex_points(first, second, vertex)
    assert coincident and m1 == m2 == Point(centre.x * 2.0 - vertex.x, centre.y * 2.0 - vertex.y)


def test_generic_shared_vertex_documents_build_no_fraction(monkeypatch):
    # The float filter decides every pair off the centroid line; only a pair on
    # it reaches the exact fallback.
    built = []

    def counted(value):
        built.append(value)
        return Fraction(value)

    monkeypatch.setattr(equigon.geom, "Fraction", counted)
    rng = random.Random(32)
    for n in range(3, 13):
        scenario = random_scenario(ScenarioKind.SHARED_VERTEX, n, rng)
        run_scenario(scenario)
        solve_scenario(scenario)
    assert built == []
    on_line = Scenario(ScenarioKind.SHARED_VERTEX, 5, DEFAULT_TOLERANCE, 0, SharedVertexConfig(
        vertex=Point(0.0, 0.0), centroid1=Point(1.0, 0.0), centroid2=Point(3.0, 0.0), orient1=1, orient2=-1))
    run_scenario(on_line)
    assert built


def test_correspondence_middle_index_pairs_with_itself():
    rng = random.Random(7)
    first, second = random_shared_vertex_pair(rng, 6)
    solution = equal_distance_points(first, second)
    at_m2 = correspondence(first, second, solution.points[1])
    assert at_m2.kind is MatchKind.REVERSAL
    # reversal sends k=4 to 6+2-4=4 for hexagons
    k4 = abs(solution.points[1].distance(first.vertex(4)) - solution.points[1].distance(second.vertex(4)))
    assert k4 < 1e-9 * max(first.circumradius, second.circumradius)


def test_correspondence_rejects_unrelated_point():
    first, second = shared_square_pair()
    with pytest.raises(NoMatchingError):
        correspondence(first, second, Point(7.0, -3.0))


def random_non_congruent_pair(rng, n):
    """Two polygons of distinct radii whose swapped circles cross well away from tangency."""
    r1, r2 = rng.uniform(0.3, 3.0), rng.uniform(0.3, 3.0)
    while abs(r1 - r2) < 0.1:
        r2 = rng.uniform(0.3, 3.0)
    gap = abs(r1 - r2) + rng.uniform(0.1, 0.9) * (r1 + r2 - abs(r1 - r2))
    angle = rng.uniform(-math.pi, math.pi)
    c1 = Point(rng.uniform(-5, 5), rng.uniform(-5, 5))
    first = RegularPolygon(n, c1, r1, rng.uniform(-math.pi, math.pi), rng.choice((1, -1)))
    second = RegularPolygon(n, c1 + Point(math.cos(angle), math.sin(angle)) * gap, r2,
                            rng.uniform(-math.pi, math.pi), rng.choice((1, -1)))
    return first, second


def test_align_rotation_lands_where_the_circle_intersection_does():
    # Away from tangency the phase rule puts vertex 1 where the circle of
    # radius |M A1| about M crosses the second circumcircle.
    rng = random.Random(28)
    checked = 0
    for _ in range(300):
        first, second = random_non_congruent_pair(rng, rng.randint(3, 12))
        for point in equal_distance_points(first, second).points:
            reach = point.distance(first.vertex(1))
            crossing = circle_intersection(point, reach, second.centroid, second.circumradius)
            if len(crossing) < 2 or crossing[0].distance(crossing[1]) < 1e-3 * second.circumradius:
                continue
            landings = [candidate.vertex(1) for candidate in align_rotation(first, second, point)]
            for landing in landings:
                assert min(landing.distance(p) for p in crossing) < 1e-9 * second.circumradius
            assert landings[0].distance(landings[1]) > 1e-4 * second.circumradius
            checked += 1
    assert checked > 400


def test_align_rotation_keeps_an_aligned_polygon():
    # Polygons sharing vertex 1 are aligned at both swapped-circle points (the
    # identity and the reversal correspondences), so the second polygon's own
    # rotation is a candidate there, and the candidates do not read it.
    rng = random.Random(29)
    for _ in range(200):
        scenario = random_scenario(ScenarioKind.SHARED_VERTEX, rng.randint(3, 12), rng)
        cfg = scenario.config
        first = from_shared_vertex(cfg.vertex, cfg.centroid1, scenario.n, cfg.orient1)
        second = from_shared_vertex(cfg.vertex, cfg.centroid2, scenario.n, cfg.orient2)
        solution = equal_distance_points(first, second)
        for point in solution.points:
            candidates = align_rotation(first, second, point)
            assert min(abs(wrap_angle(c.phase - second.phase)) for c in candidates) < 1e-9
            assert candidates == align_rotation(first, rotate_about_centroid(second, 1.0), point)


def test_no_sampled_scenario_fails_its_alignment():
    # Sampled pair, shared-vertex and Bottema scenarios, with each pair's
    # vertex 1 turned to within 1e-12..1e-2 rad of the line from its centroid
    # through M1 or M2: there a circle of radius |M A1| about M is almost
    # tangent to the second circumcircle, which once lost a rotation.
    rng = random.Random(2028)
    kinds = (ScenarioKind.PAIR, ScenarioKind.SHARED_VERTEX, ScenarioKind.BOTTEMA)
    start = time.perf_counter()
    for index in range(3000):
        scenario = random_scenario(kinds[index % 3], rng.randint(3, 12), rng)
        cfg = scenario.config
        if scenario.kind is ScenarioKind.PAIR:
            bare = [RegularPolygon(scenario.n, c, r) for c, r in ((cfg.centroid1, cfg.r1), (cfg.centroid2, cfg.r2))]
            points = equal_distance_points(*bare).points
            if points:
                towards = points[rng.randrange(2)] - cfg.centroid1
                turn = rng.choice((1, -1)) * 10.0 ** rng.uniform(-12, -2) + rng.choice((0.0, math.pi))
                cfg = dataclasses.replace(cfg, phase1=math.atan2(towards.y, towards.x) + turn)
        report = run_scenario(dataclasses.replace(scenario, config=cfg))
        failed = [c.name for c in report.checks if c.name.startswith("alignment_multiset_") and not c.ok]
        assert not failed, (scenario, failed)
    assert time.perf_counter() - start < 10.0


def benchmark_inputs(seed):
    """The scenarios the benchmark draws at this seed in a one-second run of
    each workload: random.Random("<workload>/<seed>/<pass>") fed to
    random_scenario, in the benchmark's order; verify_docs's random documents
    go through their JSON text, as the command line reads them."""
    for index in range(5):
        rng = random.Random(f"large_n/{seed}/{index}")
        yield from (random_scenario(kind, n, rng) for n in (64, 128, 128, 256, 256, 256) for kind in ScenarioKind)
    for index in range(10):
        rng = random.Random(f"apex_sweep/{seed}/{index}")
        for n in range(3, 13):
            scenario = random_scenario(ScenarioKind.BOTTEMA, n, rng)
            yield dataclasses.replace(scenario, config=dataclasses.replace(scenario.config, sweep_samples=300))
    rng = random.Random(f"verify_docs/{seed}/0")
    for kind in ScenarioKind:
        for n in range(3, 13):
            for _ in range(10):
                yield parse_scenario(serialize_scenario(random_scenario(kind, n, rng)))


@pytest.mark.parametrize("seed", [49, 72])
def test_benchmark_seeds_that_caught_the_alignment_defect(seed):
    # At seed 49 large_n, and at seed 72 apex_sweep, alignment_multiset_M2 once
    # failed where a circle intersection lost one of the two aligning rotations.
    for scenario in benchmark_inputs(seed):
        report = run_scenario(scenario)
        assert not report.errors and report.overall_ok, (scenario, report.errors,
                                                        [c.name for c in report.checks if not c.ok])


def test_alignment_then_full_multiset_equality():
    # no shared vertex: pick a solution point, align the second polygon's first
    # vertex to the right distance, and the whole distance lists must agree
    rng = random.Random(3)
    for n in (3, 5, 8):
        r1, r2 = 2.0, 1.2
        gap = 0.8 * (r1 + r2)
        first = RegularPolygon(n, Point(0, 0), r1, rng.uniform(-3, 3), 1)
        second = RegularPolygon(n, Point(gap, 0.3), r2, rng.uniform(-3, 3), -1)
        solution = equal_distance_points(first, second)
        assert len(solution.points) == 2
        point = solution.points[0]
        candidates = align_rotation(first, second, point)
        matched = 0
        for candidate in candidates:
            da = distances_squared(first, point)
            db = distances_squared(candidate, point)
            if multisets_equal(da, db).ok:
                matched += 1
                assert correspondence(first, candidate, point).kind in (
                    MatchKind.IDENTITY,
                    MatchKind.REVERSAL,
                )
        assert matched == len(candidates)


def by_name(checks):
    return {check.name: check for check in checks}


def test_point_properties_frozen_pair():
    first, second = shared_square_pair()
    solution = equal_distance_points(first, second)
    checks = verify_point_properties(first, second, solution)
    assert all(check.ok for check in checks)
    assert not solution.coincident
    names = [check.name for check in checks]
    assert names == [
        "midpoint_of_diametric_points",
        "even_n_vertex_midpoint",
        "mirror_point_bisector_parallel",
        "separation_equals_vertex_offset",
        "quadrilateral_side_lengths",
        "separation_perpendicular",
    ]
    assert all(not check.vacuous for check in checks)
    assert by_name(checks)["midpoint_of_diametric_points"].residual < 1e-12
    # |M1 M2| equals the distance from the shared vertex to the line D1 D2
    assert solution.points[0].distance(solution.points[1]) == pytest.approx(math.sqrt(6.4), abs=1e-12)


def test_point_properties_odd_n_marks_even_check_vacuous():
    rng = random.Random(11)
    first, second = random_shared_vertex_pair(rng, 5)
    checks = by_name(verify_point_properties(first, second, equal_distance_points(first, second)))
    assert all(check.ok for check in checks.values())
    assert checks["even_n_vertex_midpoint"].vacuous
    assert checks["even_n_vertex_midpoint"].detail == "n is odd"


def test_point_properties_tangent_family_vacuous_entries():
    first = from_shared_vertex(Point(0, 0), Point(1, 0), 5, 1)
    second = from_shared_vertex(Point(0, 0), Point(3, 0), 5, -1)
    solution = equal_distance_points(first, second)
    assert solution.coincident
    checks = by_name(verify_point_properties(first, second, solution))
    assert all(check.ok for check in checks.values())
    assert checks["mirror_point_bisector_parallel"].vacuous
    assert checks["separation_equals_vertex_offset"].vacuous
    assert checks["separation_perpendicular"].vacuous
    assert not checks["midpoint_of_diametric_points"].vacuous


def test_point_properties_precondition_errors():
    first, second = shared_square_pair()
    solution = equal_distance_points(first, second)
    # A pair that does not share its first vertex fails the facts as checks.
    stranger = RegularPolygon(4, Point(9, 9), 1.0, 0.0, 1)
    checks = by_name(verify_point_properties(first, stranger, solution))
    assert not checks["midpoint_of_diametric_points"].ok
    assert not checks["quadrilateral_side_lengths"].ok
    empty = equal_distance_points(
        RegularPolygon(4, Point(0, 0), 1.0, 0.0, 1),
        RegularPolygon(4, Point(10, 0), 2.0, 0.0, -1),
    )
    with pytest.raises(GeometryError, match="^solution does not carry two candidate points$"):
        verify_point_properties(first, second, empty)


def test_m1_labelling_matches_identity_point_random():
    rng = random.Random(2024)
    for _ in range(50):
        n = rng.randint(3, 12)
        first, second = random_shared_vertex_pair(rng, n)
        solution = equal_distance_points(first, second)
        assert len(solution.points) == 2
        scale = max(first.circumradius, second.circumradius)
        # M1 is the midpoint of the diametric points, M2 its mirror
        anchor = first.vertex(1)
        predicted = (first.centroid + second.centroid - anchor)
        assert solution.points[0].distance(predicted) < 1e-9 * scale
        assert correspondence(first, second, solution.points[0]).kind is MatchKind.IDENTITY
        assert correspondence(first, second, solution.points[1]).kind is MatchKind.REVERSAL


def test_same_orientation_pair_still_gets_solution_points():
    # the two-point construction is orientation-blind; only the vertex
    # correspondence may fail to exist
    first = from_shared_vertex(Point(0, 0), Point(1.0, 0.7), 4, 1)
    second = from_shared_vertex(Point(0, 0), Point(-1.1, 1.3), 4, 1)
    solution = equal_distance_points(first, second)
    assert len(solution.points) == 2
    for point in solution.points:
        da = distances_squared(first, point)
        db = distances_squared(second, point)
        assert compare_power_sums(da, db).ok


def test_system_necessity_at_solution_points_and_failure_elsewhere():
    rng = random.Random(5)
    first, second = random_shared_vertex_pair(rng, 7)
    solution = equal_distance_points(first, second)
    for point in solution.points:
        da = distances_squared(first, point)
        db = distances_squared(second, point)
        assert compare_power_sums(da, db).ok
    off = Point(solution.points[0].x + 0.37, solution.points[0].y - 0.81)
    da = distances_squared(first, off)
    db = distances_squared(second, off)
    assert not compare_power_sums(da, db).ok


def test_m1_m2_are_mirror_images_across_centroid_line():
    rng = random.Random(17)
    first, second = random_shared_vertex_pair(rng, 9)
    solution = equal_distance_points(first, second)
    assert (
        side_of_line(solution.points[0], first.centroid, second.centroid)
        * side_of_line(solution.points[1], first.centroid, second.centroid)
        < 0.0
    )


def shared_vertex_document(n, vertex, centroid1, centroid2, orient1, orient2, seed=0):
    config = SharedVertexConfig(vertex=vertex, centroid1=centroid1, centroid2=centroid2,
                                orient1=orient1, orient2=orient2)
    return Scenario(ScenarioKind.SHARED_VERTEX, n, DEFAULT_TOLERANCE, seed, config)


def test_shared_vertex_documents_verify_in_both_orientations():
    # M1 = O1 + O2 - A realises the identity when the polygons run in opposite
    # directions and the reversal when they run the same way.  The sampler
    # draws opposite orientations only; here every other document has equal ones.
    rng = random.Random(16)
    seen = set()
    for index in range(200):
        vertex, c1, c2 = (Point(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(3))
        orient1 = rng.choice((1, -1))
        orient2 = orient1 if index % 2 else -orient1
        report = run_scenario(shared_vertex_document(rng.randint(3, 12), vertex, c1, c2, orient1, orient2))
        failed = [check.name for check in report.checks if not check.ok]
        assert report.overall_ok, (index, failed, report.errors)
        expected = "reversal" if orient1 == orient2 else "identity"
        assert dict(report.matchings) == {"M1": expected, "M2": ({"identity", "reversal"} - {expected}).pop()}
        m1 = dict(report.points)["M1"]
        scale = max(vertex.distance(c1), vertex.distance(c2))
        assert m1.distance(c1 + c2 - vertex) <= 1e-12 * scale
        seen.add(expected)
    assert seen == {"identity", "reversal"}


@pytest.mark.parametrize("n", [4, 5, 12])
def test_shared_vertex_near_collinear_centroids_keep_two_points(n):
    # O2 lifted off the line through A and O1 by 1e-3 down to 1e-12: M1 and
    # M2 stay two points and every check passes.  Once they are within the
    # tolerance of each other, the identity holds at M2 as well.
    for exponent in range(3, 13):
        epsilon = 10.0 ** -exponent
        report = run_scenario(shared_vertex_document(n, Point(0, 0), Point(-1, 0), Point(2, epsilon), 1, -1))
        assert report.overall_ok, (epsilon, [check.name for check in report.checks if not check.ok])
        assert not report.coincident and [label for label, _ in report.points] == ["M1", "M2"]
        assert dict(report.matchings)["M1"] == "identity"
