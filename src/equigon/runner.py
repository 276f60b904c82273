"""Execute a scenario and collect every check into one report.

The report is the single source of truth for the CLI: human-readable text via
``to_text``, machine-readable JSON via ``to_dict``.  Domain errors raised by
the geometry layer are captured as report entries instead of crashing, so a
malformed configuration still produces a readable explanation.

``run_scenario`` solves the scenario and checks it; ``solve_scenario`` stops
after the solve, which is all a figure needs.  Both record the solve through
the same helpers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .checks import CheckResult, residual_check
from .geom import GeometryError, Point, Tolerance, side_of_line
from .polygon import RegularPolygon, from_shared_vertex
from .power_sums import compare_power_sums, distances_squared, multisets_equal, verify_power_sum_identity
from .equalizer import (
    EqualDistanceSolution,
    Locus,
    NoMatchingError,
    align_rotation,
    classify_pair,
    correspondence,
    equal_distance_points,
    verify_point_properties,
)
from .bottema import BottemaResult, bottema_construct, closed_form_midpoint, verify_independence, vertex_angles
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
    """Everything one scenario run found.  The kind runners fill it as they go,
    so a domain error part-way through keeps every check made before it.

    ``geometry`` holds the objects the scenario describes (see
    ``scenario_geometry``) in a ``solve_scenario`` report, which a figure is
    drawn from.  ``run_scenario`` leaves it None: a sweep holds many reports,
    and at large n their vertex tuples would outweigh everything else in them.
    It is not serialized.
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


def scenario_geometry(scenario: Scenario, tol: Tolerance | None = None) -> Geometry:
    """Build the geometric objects a scenario describes.

    Returns the polygon pair for ``pair``/``shared_vertex``, the full
    construction for ``bottema``, and the single polygon for
    ``identity_check``.  ``run_scenario`` and ``solve_scenario`` call it once
    per run; ``solve_scenario`` keeps the result as ``Report.geometry``, which
    the SVG renderer draws, so a figure shows the very objects its points were
    computed from.
    """
    active = tol if tol is not None else scenario.tolerance
    cfg = scenario.config
    if isinstance(cfg, PairConfig):
        return (
            RegularPolygon(scenario.n, cfg.centroid1, cfg.r1, cfg.phase1, cfg.orient1),
            RegularPolygon(scenario.n, cfg.centroid2, cfg.r2, cfg.phase2, cfg.orient2),
        )
    if isinstance(cfg, SharedVertexConfig):
        return (
            from_shared_vertex(cfg.vertex, cfg.centroid1, scenario.n, cfg.orient1, active),
            from_shared_vertex(cfg.vertex, cfg.centroid2, scenario.n, cfg.orient2, active),
        )
    if isinstance(cfg, BottemaConfig):
        return bottema_construct(cfg.an, cfg.a1, cfg.bn, scenario.n, cfg.side1, cfg.side2, active)
    return RegularPolygon(scenario.n, cfg.centroid, cfg.r, cfg.phase, cfg.orient)


def _squared_scale(first: RegularPolygon, second: RegularPolygon, point: Point) -> float:
    reach = max(
        point.distance(first.centroid) + first.circumradius,
        point.distance(second.centroid) + second.circumradius,
    )
    return reach * reach


def _check_point(
    out: Report,
    label: str,
    point: Point,
    first: RegularPolygon,
    second: RegularPolygon,
    tol: Tolerance,
) -> None:
    """Power sums must agree at the point; one aligned rotation must match fully."""
    da = distances_squared(first.vertices(), point)
    db = distances_squared(second.vertices(), point)
    out.checks.append(replace(compare_power_sums(da, db, tol), name=f"power_sums_{label}"))
    want = point.distance(first.vertex(1))
    try:
        candidates = align_rotation(second, point, want, tol)
    except GeometryError as exc:
        out.checks.append(
            CheckResult(f"alignment_multiset_{label}", False, math.inf, 0.0, detail=str(exc))
        )
        return
    best = math.inf
    matched = False
    for candidate in candidates:
        match = multisets_equal(da, distances_squared(candidate.vertices(), point), tol)
        best = min(best, match.max_residual)
        matched = matched or match.equal
    out.checks.append(
        CheckResult(
            f"alignment_multiset_{label}",
            matched,
            best,
            tol.bound(_squared_scale(first, second, point)),
            detail=f"{len(candidates)} rotation candidate(s)",
        )
    )


def _try_matching(
    out: Report,
    label: str,
    point: Point,
    first: RegularPolygon,
    second: RegularPolygon,
    tol: Tolerance,
    required: bool,
) -> None:
    scale = max(first.circumradius, second.circumradius)
    try:
        match = correspondence(first, second, point, tol)
    except NoMatchingError as exc:
        if required:
            out.checks.append(
                CheckResult(f"matching_{label}", False, math.inf, tol.bound(scale), detail=str(exc))
            )
        else:
            out.findings.append(f"no vertexwise correspondence at {label} ({exc})")
        return
    out.matchings.append((label, match.kind.value))
    out.checks.append(
        residual_check(
            f"matching_{label}",
            max(match.max_residual, match.first_residual),
            tol.bound(scale),
            detail=match.kind.value,
        )
    )
    out.checks.append(
        residual_check(
            f"cosine_model_{label}",
            match.model_residual,
            tol.bound((first.circumradius + second.circumradius) ** 2),
            detail=f"shared angle {match.shared_angle:.6f} rad",
        )
    )


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
        sums = compare_power_sums(
            distances_squared(first.vertices(), probe),
            distances_squared(second.vertices(), probe),
            tol,
        )
        out.checks.append(
            replace(sums, name=f"locus_probe_{index}", detail="power sums on the locus, normalized")
        )


def _pair_solution(
    out: Report, first: RegularPolygon, second: RegularPolygon, tol: Tolerance
) -> tuple[EqualDistanceSolution, list[tuple[str, Point]]]:
    """Solve a polygon pair and record the classification, coincidence, locus
    and the findings that explain an empty point set.  Returns the solution and
    its labelled points; the caller records the points."""
    solution = equal_distance_points(first, second, tol)
    out.classification = solution.case.value
    out.coincident = solution.coincident
    if solution.locus is not None:
        out.locus = solution.locus.value
        out.findings.append("congruent polygons: every locus point is an equal-distance point")
    elif not solution.points:
        gap = first.centroid.distance(second.centroid)
        lo = abs(first.circumradius - second.circumradius)
        hi = first.circumradius + second.circumradius
        out.findings.append(
            "no equal-distance point: centroid gap "
            f"{gap!r} outside [{lo!r}, {hi!r}]"
        )
    labels = ("M1",) if solution.coincident else ("M1", "M2")
    return solution, list(zip(labels, solution.points))


def _run_pair_like(out: Report, scenario: Scenario, geometry: Geometry, tol: Tolerance) -> None:
    first, second = geometry
    solution, labelled = _pair_solution(out, first, second, tol)
    if solution.locus is not None:
        _probe_locus(out, first, second, solution.locus, scenario.seed, tol)
        return
    shared = isinstance(scenario.config, SharedVertexConfig)
    for label, point in labelled:
        out.points.append((label, point))
        _check_point(out, label, point, first, second, tol)
        _try_matching(out, label, point, first, second, tol, required=shared)
    if shared and labelled:
        out.checks.extend(verify_point_properties(first, second, solution, tol))


def _solve_pair_like(out: Report, scenario: Scenario, geometry: Geometry, tol: Tolerance) -> None:
    first, second = geometry
    _, labelled = _pair_solution(out, first, second, tol)
    out.points.extend(labelled)
    if labelled:
        # M1's vertex correspondence colours the figure's distance fan.
        try:
            match = correspondence(first, second, labelled[0][1], tol)
        except NoMatchingError:
            return
        out.matchings.append(("M1", match.kind.value))


def _solve_bottema(out: Report, scenario: Scenario, result: Geometry, tol: Tolerance) -> float:
    """Record the construction's classification, points and findings; returns
    the base length |An Bn|."""
    cfg = scenario.config
    assert isinstance(cfg, BottemaConfig) and isinstance(result, BottemaResult)
    out.classification = classify_pair(result.poly1, result.poly2, tol).value
    out.points.append(("M1", result.m1))
    out.points.append(("M2", result.m2))
    if result.collinear:
        out.findings.append("triangle corners are collinear; construction still applies")
    base = cfg.an.distance(cfg.bn)
    out.findings.append(
        f"foot of perpendicular H = ({result.h.x!r}, {result.h.y!r}), base length {base!r}"
    )
    return base


def _run_bottema(out: Report, scenario: Scenario, result: Geometry, tol: Tolerance) -> None:
    base = _solve_bottema(out, scenario, result, tol)
    cfg = scenario.config
    for label, point in out.points:
        _check_point(out, label, point, result.poly1, result.poly2, tol)
    _try_matching(out, "M1", result.m1, result.poly1, result.poly2, tol, required=True)

    if result.poly1.orientation != result.poly2.orientation:
        normal_side = 1 if side_of_line(result.m1, cfg.an, cfg.bn) > 0.0 else -1
        predicted = closed_form_midpoint(cfg.an, cfg.bn, scenario.n, normal_side, tol)
        out.checks.append(
            residual_check(
                "closed_form_midpoint",
                result.m1.distance(predicted),
                tol.bound(base),
                detail=f"base normal side {normal_side:+d}",
            )
        )
        altitude = 0.5 * base / math.tan(math.pi / scenario.n)
        out.checks.append(
            residual_check(
                "altitude_length", abs(result.m1.distance(result.h) - altitude), tol.bound(base)
            )
        )
        out.checks.append(
            residual_check(
                "foot_at_base_midpoint", result.h.distance(cfg.an.midpoint(cfg.bn)), tol.bound(base)
            )
        )
        out.checks.extend(vertex_angles(result, tol))
    else:
        out.findings.append(
            "same-orientation placement: the midpoint depends on the apex, "
            "constancy checks skipped"
        )

    if cfg.sweep_samples >= 2:
        spread, closed = verify_independence(
            cfg.an, cfg.bn, scenario.n, cfg.sweep_samples, tol, scenario.seed
        )
        out.checks.extend((spread, closed))
        out.findings.append(
            f"apex sweep: max deviation {spread.residual:.3e} over {cfg.sweep_samples} samples"
        )


def _run_identity_check(out: Report, scenario: Scenario, poly: Geometry, tol: Tolerance) -> None:
    cfg = scenario.config
    assert isinstance(cfg, IdentityCheckConfig) and isinstance(poly, RegularPolygon)
    top = cfg.max_m if cfg.max_m is not None else scenario.n - 1
    for index, probe in enumerate(cfg.probes, 1):
        check = verify_power_sum_identity(poly, probe, tol, top)
        out.checks.append(replace(check, name=f"closed_form_probe_{index}"))


Step = Callable[[Report, Scenario, Geometry, Tolerance], object]

_CHECKED: dict[ScenarioKind, Step] = {
    ScenarioKind.PAIR: _run_pair_like,
    ScenarioKind.SHARED_VERTEX: _run_pair_like,
    ScenarioKind.BOTTEMA: _run_bottema,
    ScenarioKind.IDENTITY_CHECK: _run_identity_check,
}
_SOLVED: dict[ScenarioKind, Step] = {
    ScenarioKind.PAIR: _solve_pair_like,
    ScenarioKind.SHARED_VERTEX: _solve_pair_like,
    ScenarioKind.BOTTEMA: _solve_bottema,
    ScenarioKind.IDENTITY_CHECK: lambda out, scenario, geometry, tol: None,
}


def run_scenario(scenario: Scenario, tol: Tolerance | None = None) -> Report:
    """Run every check the scenario calls for; never raises on domain errors."""
    active = tol if tol is not None else scenario.tolerance
    out = Report(scenario)
    try:
        _CHECKED[scenario.kind](out, scenario, scenario_geometry(scenario, active), active)
    except GeometryError as exc:
        out.errors.append(f"{type(exc).__name__}: {exc}")
    return out


def solve_scenario(scenario: Scenario, tol: Tolerance | None = None) -> Report:
    """Build the geometry and solve it, running no check.

    The report holds the geometry, classification, labelled points, locus,
    coincident flag and findings that ``run_scenario`` would record, plus M1's
    matching when the scenario is a polygon pair (the figure colours M1's
    distance fan by it).  ``checks`` stays empty.  Raises GeometryError when
    the geometry cannot be built, since then there is nothing to draw; a domain
    error past it is recorded and keeps what was found before it.
    """
    active = tol if tol is not None else scenario.tolerance
    out = Report(scenario, geometry=scenario_geometry(scenario, active))
    try:
        _SOLVED[scenario.kind](out, scenario, out.geometry, active)
    except GeometryError as exc:
        out.errors.append(f"{type(exc).__name__}: {exc}")
    return out
