"""Execute a scenario and collect every check into one report.

The report is the single source of truth for the CLI: human-readable text via
``to_text``, machine-readable JSON via ``to_dict``.  Domain errors raised by
the geometry layer are captured as report entries instead of crashing, so a
malformed configuration still produces a readable explanation.

Each scenario kind has one solve function, and ``shared_vertex`` and
``bottema`` share theirs: both are two polygons sharing their first vertex,
and differ only in how the pair is built and whether the apex sweep runs.  A
solve builds the geometry, records what it finds (classification, points,
locus, coincident flag, findings and, for a polygon pair, M1's vertex
matching) and returns the checks as a callable that closes over what it
solved.  ``run_scenario`` solves and runs the checks; ``solve_scenario`` only
solves, which is all a figure needs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .checks import CheckResult, judge
from .geom import GeometryError, Point, Tolerance
from .polygon import RegularPolygon, from_shared_vertex
from .power_sums import compare_cyclic_averages, compare_power_sums, distances_squared, verify_power_sum_identity
from .equalizer import (
    EqualDistanceSolution,
    Locus,
    Matching,
    MatchKind,
    NoMatchingError,
    PairCase,
    correspondence,
    cosine_model,
    equal_distance_points,
    verify_alignment,
    verify_point_properties,
)
from .bottema import BottemaResult, bottema_construct, bottema_pair, verify_bottema, verify_independence
from .scenario import (
    BottemaConfig,
    IdentityCheckConfig,
    PairConfig,
    Scenario,
    ScenarioKind,
    SharedVertexConfig,
    scenario_to_dict,
)

Geometry = tuple[RegularPolygon, RegularPolygon] | BottemaResult | RegularPolygon


@dataclass
class Report:
    """Everything one scenario run found.  The kind's solve and then its checks
    fill it as they go, so a domain error part-way through keeps everything
    recorded before it.

    ``geometry`` holds the objects the scenario describes: the polygon pair,
    the ``BottemaResult`` of a pair sharing its first vertex (``shared_vertex``
    and ``bottema``) or the single polygon.  A ``solve_scenario`` report keeps
    it for the figure; ``run_scenario`` clears it.  It is not serialized.
    """

    scenario: Scenario
    classification: str | None = None
    points: list[tuple[str, Point]] = field(default_factory=list)
    locus: str | None = None
    coincident: bool = False
    matchings: list[tuple[str, str]] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    geometry: Geometry | None = field(default=None, repr=False, compare=False)

    @property
    def overall_ok(self) -> bool:
        return not self.errors and all(check.ok for check in self.checks)

    def to_dict(self) -> dict[str, Any]:
        return {
            "scenario": scenario_to_dict(self.scenario),
            "classification": self.classification,
            "points": {label: [p.x, p.y] for label, p in self.points},
            "locus": self.locus,
            "coincident": self.coincident,
            "matchings": {label: kind for label, kind in self.matchings},
            # vars(), not asdict(): asdict deep-copies every field, 20x slower here.
            "checks": [dict(vars(c)) for c in self.checks],
            "findings": list(self.findings),
            "errors": list(self.errors),
            "overall_ok": self.overall_ok,
        }

    def to_text(self) -> str:
        lines = [f"scenario: kind={self.scenario.kind.value} n={self.scenario.n} seed={self.scenario.seed}"]
        if self.classification is not None:
            lines.append(f"classification: {self.classification}")
        if self.locus is not None:
            lines.append(f"locus: {self.locus}")
        for label, point in self.points:
            lines.append(f"point {label} = ({point.x!r}, {point.y!r})")
        if self.coincident:
            lines.append("note: the two candidate points coincide (tangent contact)")
        for label, kind in self.matchings:
            lines.append(f"matching at {label}: {kind}")
        for check in self.checks:
            if check.vacuous:
                status = "VAC "
            elif check.ok:
                status = "PASS"
            else:
                status = "FAIL"
            line = (
                f"[{status}] {check.name:<34} residual {check.residual:.3e}"
                f"  tol {check.tolerance:.3e}"
            )
            if check.detail:
                line += f"  ({check.detail})"
            lines.append(line)
        for finding in self.findings:
            lines.append(f"finding: {finding}")
        for error in self.errors:
            lines.append(f"error: {error}")
        lines.append(f"overall: {'PASS' if self.overall_ok else 'FAIL'}")
        return "\n".join(lines) + "\n"


def _probe_locus(
    out: Report,
    first: RegularPolygon,
    second: RegularPolygon,
    locus: Locus,
    seed: int,
    tol: Tolerance,
) -> None:
    rng = random.Random(seed)
    span = max(first.circumradius, second.circumradius)
    for index in range(1, 4):
        if locus is Locus.ENTIRE_PLANE:
            probe = first.centroid + Point(rng.uniform(-2, 2), rng.uniform(-2, 2)) * span
        else:
            mid = first.centroid.midpoint(second.centroid)
            axis = (second.centroid - first.centroid).perpendicular()
            probe = mid + axis * rng.uniform(-2, 2)
        out.checks.append(compare_power_sums(distances_squared(first, probe), distances_squared(second, probe), tol,
                                             f"locus_probe_{index}", "power sums on the locus, normalized"))


# What a kind's solve returns: its checks, run by ``run_scenario`` only.
Checks = Callable[[], None]


def _locus(out: Report, first: RegularPolygon, second: RegularPolygon, locus: Locus, tol: Tolerance) -> Checks:
    out.locus = locus.value
    out.findings.append("congruent polygons: every locus point is an equal-distance point")
    return lambda: _probe_locus(out, first, second, locus, out.scenario.seed, tol)


def _labelled(out: Report, first: RegularPolygon, second: RegularPolygon, solution: EqualDistanceSolution,
              tol: Tolerance, m1_kind: MatchKind | None) -> Checks:
    """Record the solution's points and M1's vertex correspondence, which
    colours the figure's distance fan; return the checks at each point: power
    sums, alignment, matching and, with a correspondence, its cosine model.

    A pair sharing its first vertex passes ``m1_kind`` (M2 realises the other),
    which is recorded as it is and measured by the checks; a ``pair`` passes
    None and searches, and a point without one gets a finding.  Each
    correspondence reads the vertex distances the solve computed at its point,
    where it computed them.
    """
    labels = ("M1",) if solution.coincident else ("M1", "M2")
    labelled = list(zip(labels, solution.points))
    out.points.extend(labelled)
    out.coincident = solution.coincident
    distances = dict(zip(labels, solution.distances))
    kinds = {} if m1_kind is None else {
        "M1": m1_kind, "M2": MatchKind.REVERSAL if m1_kind is MatchKind.IDENTITY else MatchKind.IDENTITY}

    def correspond(label: str, point: Point) -> Matching | None:
        try:
            match = correspondence(first, second, point, tol, kinds.get(label), distances.get(label))
        except NoMatchingError as exc:
            out.findings.append(f"no vertexwise correspondence at {label} ({exc})")
            return None
        out.matchings.append((label, match.kind.value))
        return match

    if m1_kind is None:
        at_m1 = correspond(*labelled[0])
    else:
        out.matchings.append(("M1", m1_kind.value))

    def checks() -> None:
        scale = max(first.circumradius, second.circumradius)
        for label, point in labelled:
            near = distances_squared(first, point)
            out.checks.append(compare_cyclic_averages(first, second, point, tol, f"power_sums_{label}"))
            out.checks.append(verify_alignment(first, second, point, near, tol, f"alignment_multiset_{label}"))
            if label == "M2":
                found = correspond(label, point)
            else:
                found = at_m1 if m1_kind is None else correspondence(first, second, point, tol, m1_kind)
            if found is not None:
                out.checks.append(judge(f"matching_{label}", max(found.max_residual, found.first_residual), scale,
                                        tol, detail=found.kind.value))
                far = distances_squared(second, point)
                shared_angle, model_residual = cosine_model(first, second, point, found.kind, near, far)
                out.checks.append(judge(f"cosine_model_{label}", model_residual,
                                        (first.circumradius + second.circumradius) ** 2, tol,
                                        detail=f"shared angle {shared_angle:.6f} rad"))

    return checks


def _pair(out: Report, tol: Tolerance) -> Checks:
    n, cfg = out.scenario.n, out.scenario.config
    assert isinstance(cfg, PairConfig)
    first = RegularPolygon(n, cfg.centroid1, cfg.r1, cfg.phase1, cfg.orient1)
    second = RegularPolygon(n, cfg.centroid2, cfg.r2, cfg.phase2, cfg.orient2)
    out.geometry = (first, second)
    solution = equal_distance_points(first, second, tol)
    out.classification = solution.case.value
    if solution.locus is not None:
        return _locus(out, first, second, solution.locus, tol)
    if not solution.points:
        gap = first.centroid.distance(second.centroid)
        lo = abs(first.circumradius - second.circumradius)
        hi = first.circumradius + second.circumradius
        out.findings.append(
            "no equal-distance point: centroid gap "
            f"{gap!r} outside [{lo!r}, {hi!r}]"
        )
        return lambda: None
    return _labelled(out, first, second, solution, tol, None)


def _shared_vertex(out: Report, tol: Tolerance) -> Checks:
    """One solve for two polygons sharing their first vertex: a ``shared_vertex``
    document gives the vertex and centroids, a ``bottema`` document the
    triangle its polygons are erected on, with the apex sweep it asks for."""
    n, cfg = out.scenario.n, out.scenario.config
    if isinstance(cfg, BottemaConfig):
        pair = bottema_construct(cfg.an, cfg.a1, cfg.bn, n, cfg.side1, cfg.side2, tol)
        samples = cfg.sweep_samples
    else:
        assert isinstance(cfg, SharedVertexConfig)
        first = from_shared_vertex(cfg.vertex, cfg.centroid1, n, cfg.orient1, tol)
        second = from_shared_vertex(cfg.vertex, cfg.centroid2, n, cfg.orient2, tol)
        pair = bottema_pair(first, second, first.vertex(n), cfg.vertex, second.vertex(n), tol)
        samples = 0
    out.geometry = pair
    first, second = pair.poly1, pair.poly2
    out.classification = pair.case.value
    if pair.collinear:
        out.findings.append("triangle corners are collinear; construction still applies")
    if pair.h is not None:
        out.findings.append(
            f"foot of perpendicular H = ({pair.h.x!r}, {pair.h.y!r}), base length {pair.an.distance(pair.bn)!r}"
        )
    if pair.case is PairCase.CONGRUENT_SAME_CENTROID:  # every point is an equal-distance point
        point_checks = _locus(out, first, second, Locus.ENTIRE_PLANE, tol)
    else:
        solution = EqualDistanceSolution(pair.case, (pair.m1, pair.m2), pair.coincident)
        labelled = _labelled(out, first, second, solution, tol, pair.m1_kind)

        def point_checks() -> None:
            labelled()
            out.checks.extend(verify_point_properties(first, second, solution, tol))

    def checks() -> None:
        point_checks()
        if pair.h is not None:
            out.checks.extend(verify_bottema(pair, tol))
        if samples >= 2:
            spread, closed = verify_independence(pair.an, pair.bn, n, samples, tol, out.scenario.seed)
            out.checks.extend((spread, closed))
            out.findings.append(f"apex sweep: max deviation {spread.residual:.3e} over {samples} samples")

    return checks


def _identity_check(out: Report, tol: Tolerance) -> Checks:
    n, cfg = out.scenario.n, out.scenario.config
    assert isinstance(cfg, IdentityCheckConfig)
    poly = RegularPolygon(n, cfg.centroid, cfg.r, cfg.phase, cfg.orient)
    out.geometry = poly
    top = cfg.max_m if cfg.max_m is not None else n - 1

    def checks() -> None:
        for index, probe in enumerate(cfg.probes, 1):
            out.checks.append(verify_power_sum_identity(poly, probe, tol, top, f"closed_form_probe_{index}"))

    return checks


# Each kind's solve: build the geometry, record what the solve finds, return the checks.
_SOLVERS: dict[ScenarioKind, Callable[[Report, Tolerance], Checks]] = {
    ScenarioKind.PAIR: _pair,
    ScenarioKind.SHARED_VERTEX: _shared_vertex,
    ScenarioKind.BOTTEMA: _shared_vertex,
    ScenarioKind.IDENTITY_CHECK: _identity_check,
}


def run_scenario(scenario: Scenario, tol: Tolerance | None = None) -> Report:
    """Solve the scenario and run every check it calls for; never raises on domain errors.

    A ``GeometryError`` or ``ArithmeticError`` becomes the report's error.  The
    report keeps no geometry: a sweep holds many reports, and at large n
    their vertex tuples would outweigh everything else in them.
    """
    out = Report(scenario)
    try:
        _SOLVERS[scenario.kind](out, tol if tol is not None else scenario.tolerance)()
    except (GeometryError, ArithmeticError) as exc:
        out.errors.append(f"{type(exc).__name__}: {exc}")
    out.geometry = None
    return out


def solve_scenario(scenario: Scenario, tol: Tolerance | None = None) -> Report:
    """Build the geometry and solve it, running no check.

    The report holds the geometry and everything ``run_scenario`` records
    before its checks: classification, labelled points, locus, coincident
    flag, the solve's findings, and M1's matching when the scenario is a
    polygon pair (the figure colours M1's distance fan by it).  ``checks``
    stays empty.  Raises the error when the geometry cannot be built, since
    then there is nothing to draw; an error past it, recorded as
    ``run_scenario`` records it, keeps what was found before it.
    """
    out = Report(scenario)
    try:
        _SOLVERS[scenario.kind](out, tol if tol is not None else scenario.tolerance)
    except (GeometryError, ArithmeticError) as exc:
        if out.geometry is None:
            raise
        out.errors.append(f"{type(exc).__name__}: {exc}")
    return out
