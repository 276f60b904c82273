"""Execute a scenario and collect every check into one report.

The report is the single source of truth for the CLI: human-readable text via
``to_text``, machine-readable JSON via ``to_dict``.  Domain errors raised by
the geometry layer are captured as report entries instead of crashing, so a
malformed configuration still produces a readable explanation.

Each scenario kind has one solve function.  It builds the kind's geometry,
records what the solve finds (classification, points, locus, coincident flag,
findings and, for a polygon pair, M1's vertex matching) and returns the kind's
checks as a callable that closes over what it solved.  ``run_scenario`` solves
and runs the checks; ``solve_scenario`` only solves, which is all a figure
needs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .checks import CheckResult, residual_check
from .geom import GeometryError, Point, Tolerance, side_of_line
from .polygon import RegularPolygon, from_shared_vertex
from .power_sums import compare_power_sums, distances_squared, verify_power_sum_identity
from .equalizer import (
    Locus,
    Matching,
    NoMatchingError,
    correspondence,
    cosine_model,
    equal_distance_points,
    verify_alignment,
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
    """Everything one scenario run found.  The kind's solve and then its checks
    fill it as they go, so a domain error part-way through keeps everything
    recorded before it.

    ``geometry`` holds the objects the scenario describes: the polygon pair,
    the Bottema construction or the single polygon.  A ``solve_scenario``
    report keeps it for the figure; ``run_scenario`` clears it.  It is not
    serialized.
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


def _check_point(out: Report, label: str, point: Point, first: RegularPolygon, second: RegularPolygon,
                 tol: Tolerance) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Power sums must agree at the point; one aligned rotation must match fully.
    Returns the point's squared distances to both polygons, for its cosine model."""
    da = distances_squared(first, point)
    db = distances_squared(second, point)
    out.checks.append(compare_power_sums(da, db, tol, name=f"power_sums_{label}"))
    out.checks.append(verify_alignment(first, second, point, da, tol, f"alignment_multiset_{label}"))
    return da, db


def _correspondence(
    out: Report,
    label: str,
    point: Point,
    first: RegularPolygon,
    second: RegularPolygon,
    tol: Tolerance,
    required: bool,
    identity_worst: float | None = None,
) -> Matching | NoMatchingError | None:
    """Record the vertex correspondence the point realises.

    Returns the matching, or for a point without one the error when the
    correspondence is ``required`` (``_matching_checks`` fails it) and None
    otherwise (a finding records it).
    """
    try:
        match = correspondence(first, second, point, tol, identity_worst)
    except NoMatchingError as exc:
        if required:
            return exc
        out.findings.append(f"no vertexwise correspondence at {label} ({exc})")
        return None
    out.matchings.append((label, match.kind.value))
    return match


def _matching_checks(
    out: Report,
    label: str,
    found: Matching | NoMatchingError | None,
    point: Point,
    distances: tuple[tuple[float, ...], tuple[float, ...]],
    first: RegularPolygon,
    second: RegularPolygon,
    tol: Tolerance,
) -> None:
    """The point's matching and, if one is found, its cosine model on ``distances``."""
    scale = max(first.circumradius, second.circumradius)
    if isinstance(found, NoMatchingError):
        out.checks.append(
            CheckResult(f"matching_{label}", False, math.inf, tol.bound(scale), detail=str(found))
        )
    elif found is not None:
        out.checks.append(
            residual_check(
                f"matching_{label}",
                max(found.max_residual, found.first_residual),
                tol.bound(scale),
                detail=found.kind.value,
            )
        )
        shared_angle, model_residual = cosine_model(first, second, point, found.kind, *distances)
        out.checks.append(
            residual_check(
                f"cosine_model_{label}",
                model_residual,
                tol.bound((first.circumradius + second.circumradius) ** 2),
                detail=f"shared angle {shared_angle:.6f} rad",
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
        sums = compare_power_sums(distances_squared(first, probe), distances_squared(second, probe), tol)
        out.checks.append(CheckResult(
            f"locus_probe_{index}", sums.ok, sums.residual, sums.tolerance,
            detail="power sums on the locus, normalized",
        ))


# What a kind's solve returns: its checks, run by ``run_scenario`` only.
Checks = Callable[[], None]


def _pair_like(out: Report, tol: Tolerance) -> Checks:
    n, cfg = out.scenario.n, out.scenario.config
    if isinstance(cfg, PairConfig):
        first = RegularPolygon(n, cfg.centroid1, cfg.r1, cfg.phase1, cfg.orient1)
        second = RegularPolygon(n, cfg.centroid2, cfg.r2, cfg.phase2, cfg.orient2)
    else:
        assert isinstance(cfg, SharedVertexConfig)
        first = from_shared_vertex(cfg.vertex, cfg.centroid1, n, cfg.orient1, tol)
        second = from_shared_vertex(cfg.vertex, cfg.centroid2, n, cfg.orient2, tol)
    shared = isinstance(cfg, SharedVertexConfig)
    out.geometry = (first, second)
    solution = equal_distance_points(first, second, tol)
    out.classification = solution.case.value
    out.coincident = solution.coincident
    if solution.locus is not None:
        out.locus = solution.locus.value
        out.findings.append("congruent polygons: every locus point is an equal-distance point")
        locus = solution.locus
        return lambda: _probe_locus(out, first, second, locus, out.scenario.seed, tol)
    if not solution.points:
        gap = first.centroid.distance(second.centroid)
        lo = abs(first.circumradius - second.circumradius)
        hi = first.circumradius + second.circumradius
        out.findings.append(
            "no equal-distance point: centroid gap "
            f"{gap!r} outside [{lo!r}, {hi!r}]"
        )
        return lambda: None
    labels = ("M1",) if solution.coincident else ("M1", "M2")
    labelled = list(zip(labels, solution.points))
    out.points.extend(labelled)
    worst = solution.identity_worst or (None, None)
    # M1's vertex correspondence colours the figure's distance fan.
    at_m1 = _correspondence(out, "M1", solution.points[0], first, second, tol, shared, worst[0])

    def checks() -> None:
        found = at_m1
        for label, point in labelled:
            distances = _check_point(out, label, point, first, second, tol)
            if label == "M2":
                found = _correspondence(out, label, point, first, second, tol, shared, worst[1])
            _matching_checks(out, label, found, point, distances, first, second, tol)
        if shared:
            out.checks.extend(verify_point_properties(first, second, solution, tol))

    return checks


def _bottema(out: Report, tol: Tolerance) -> Checks:
    n, cfg, seed = out.scenario.n, out.scenario.config, out.scenario.seed
    assert isinstance(cfg, BottemaConfig)
    result = bottema_construct(cfg.an, cfg.a1, cfg.bn, n, cfg.side1, cfg.side2, tol)
    out.geometry = result
    out.classification = result.case.value
    out.points.extend((("M1", result.m1), ("M2", result.m2)))
    if result.collinear:
        out.findings.append("triangle corners are collinear; construction still applies")
    base = cfg.an.distance(cfg.bn)
    out.findings.append(
        f"foot of perpendicular H = ({result.h.x!r}, {result.h.y!r}), base length {base!r}"
    )
    opposite = result.poly1.orientation != result.poly2.orientation
    if not opposite:
        out.findings.append(
            "same-orientation placement: the midpoint depends on the apex, "
            "constancy checks skipped"
        )

    def checks() -> None:
        first, second = result.poly1, result.poly2
        distances = _check_point(out, "M1", result.m1, first, second, tol)
        _check_point(out, "M2", result.m2, first, second, tol)
        found = _correspondence(out, "M1", result.m1, first, second, tol, required=True)
        _matching_checks(out, "M1", found, result.m1, distances, first, second, tol)
        if opposite:
            normal_side = 1 if side_of_line(result.m1, cfg.an, cfg.bn) > 0.0 else -1
            predicted = closed_form_midpoint(cfg.an, cfg.bn, n, normal_side, tol)
            out.checks.append(
                residual_check(
                    "closed_form_midpoint",
                    result.m1.distance(predicted),
                    tol.bound(base),
                    detail=f"base normal side {normal_side:+d}",
                )
            )
            altitude = 0.5 * base / math.tan(math.pi / n)
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
        if cfg.sweep_samples >= 2:
            spread, closed = verify_independence(cfg.an, cfg.bn, n, cfg.sweep_samples, tol, seed)
            out.checks.extend((spread, closed))
            out.findings.append(
                f"apex sweep: max deviation {spread.residual:.3e} over {cfg.sweep_samples} samples"
            )

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
    ScenarioKind.PAIR: _pair_like,
    ScenarioKind.SHARED_VERTEX: _pair_like,
    ScenarioKind.BOTTEMA: _bottema,
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
