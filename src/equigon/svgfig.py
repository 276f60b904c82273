"""Deterministic SVG rendering of scenario reports.

World coordinates are y-up; the emitted document flips y and auto-fits a
viewBox with 10% padding.  All numbers are written with six decimals (with
negative zero normalized), elements appear in a fixed order, and no randomness
is involved, so rendering the same scenario twice is byte-identical.

A figure reads no check: the report of ``runner.solve_scenario`` is enough,
and the figure draws the geometry that report was solved on
(``Report.geometry``).

Only true geometric circles become ``<circle>`` elements; point markers are
cross paths with text labels (class ``point-label`` for the equal-distance
points, ``aux-label`` for supporting points such as D1, D2, H, or probes).
"""

from __future__ import annotations

import math
from typing import Any

from .geom import GeometryError, Point
from .polygon import RegularPolygon, diametric_opposite
from .equalizer import MatchKind
from .runner import Geometry, Report, scenario_geometry
from .scenario import (
    BottemaConfig,
    IdentityCheckConfig,
    Scenario,
    ScenarioKind,
    SharedVertexConfig,
)
from .bottema import BottemaResult

_POLY_COLORS = ("#1f77b4", "#d62728")
_MARKER_COLOR = "#000000"
_AUX_COLOR = "#666666"
_TRIANGLE_COLOR = "#444444"
_PAIR_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
    "#aec7e8",
    "#ffbb78",
)


def _fmt(value: float) -> str:
    out = f"{value:.6f}"
    return "0.000000" if out == "-0.000000" else out


class _Scene:
    """Collects drawing operations and the bounding box, emits at the end."""

    def __init__(self) -> None:
        self.ops: list[tuple[Any, ...]] = []
        self.min_x = math.inf
        self.min_y = math.inf
        self.max_x = -math.inf
        self.max_y = -math.inf

    def _include(self, *points: Point) -> None:
        for p in points:
            self.min_x = min(self.min_x, p.x)
            self.min_y = min(self.min_y, p.y)
            self.max_x = max(self.max_x, p.x)
            self.max_y = max(self.max_y, p.y)

    def polygon(self, poly: RegularPolygon, color: str) -> None:
        vertices = poly.vertices()
        self._include(*vertices)
        self.ops.append(("polygon", vertices, color))

    def circle(self, center: Point, radius: float, color: str, cls: str, dashed: bool) -> None:
        self._include(center + Point(radius, radius), center - Point(radius, radius))
        self.ops.append(("circle", center, radius, color, cls, dashed))

    def line(self, a: Point, b: Point, color: str, cls: str, dashed: bool) -> None:
        self._include(a, b)
        self.ops.append(("line", a, b, color, cls, dashed))

    def triangle(self, a: Point, b: Point, c: Point) -> None:
        self._include(a, b, c)
        self.ops.append(("triangle", a, b, c))

    def marker(self, point: Point, label: str, color: str, cls: str) -> None:
        self._include(point)
        self.ops.append(("marker", point, label, color, cls))

    def emit(self) -> str:
        if not self.ops or not math.isfinite(self.min_x):
            self.min_x = self.min_y = -1.0
            self.max_x = self.max_y = 1.0
        width = self.max_x - self.min_x
        height = self.max_y - self.min_y
        span = max(width, height, 1e-9)
        pad = 0.1 * span
        box = (self.min_x - pad, -(self.max_y + pad), width + 2 * pad, height + 2 * pad)
        if not all(map(math.isfinite, box)):
            raise GeometryError(f"figure extent overflows: viewBox {' '.join(map(repr, box))}")
        view = " ".join(map(_fmt, box))
        stroke = span * 0.004
        thin = span * 0.002
        hair = span * 0.0015
        arm = span * 0.012
        font = span * 0.035
        dash = f"{_fmt(span * 0.02)},{_fmt(span * 0.012)}"

        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{view}">',
        ]
        for op in self.ops:
            if op[0] == "polygon":
                _, vertices, color = op
                pts = " ".join(f"{_fmt(v.x)},{_fmt(-v.y)}" for v in vertices)
                lines.append(
                    f'<polygon class="ngon" points="{pts}" fill="none" '
                    f'stroke="{color}" stroke-width="{_fmt(stroke)}"/>'
                )
            elif op[0] == "circle":
                _, center, radius, color, cls, dashed = op
                extra = f' stroke-dasharray="{dash}"' if dashed else ""
                lines.append(
                    f'<circle class="{cls}" cx="{_fmt(center.x)}" cy="{_fmt(-center.y)}" '
                    f'r="{_fmt(radius)}" fill="none" stroke="{color}" '
                    f'stroke-width="{_fmt(thin)}"{extra}/>'
                )
            elif op[0] == "line":
                _, a, b, color, cls, dashed = op
                extra = f' stroke-dasharray="{dash}"' if dashed else ""
                width_used = hair if cls == "dist-pair" else thin
                lines.append(
                    f'<line class="{cls}" x1="{_fmt(a.x)}" y1="{_fmt(-a.y)}" '
                    f'x2="{_fmt(b.x)}" y2="{_fmt(-b.y)}" stroke="{color}" '
                    f'stroke-width="{_fmt(width_used)}"{extra}/>'
                )
            elif op[0] == "triangle":
                _, a, b, c = op
                d = (
                    f"M {_fmt(a.x)},{_fmt(-a.y)} L {_fmt(b.x)},{_fmt(-b.y)} "
                    f"L {_fmt(c.x)},{_fmt(-c.y)} Z"
                )
                lines.append(
                    f'<path class="triangle" d="{d}" fill="none" '
                    f'stroke="{_TRIANGLE_COLOR}" stroke-width="{_fmt(stroke)}"/>'
                )
            else:
                _, point, label, color, cls = op
                x, y = point.x, -point.y
                d = (
                    f"M {_fmt(x - arm)},{_fmt(y)} L {_fmt(x + arm)},{_fmt(y)} "
                    f"M {_fmt(x)},{_fmt(y - arm)} L {_fmt(x)},{_fmt(y + arm)}"
                )
                lines.append(
                    f'<g class="{cls}">'
                    f'<path d="{d}" stroke="{color}" stroke-width="{_fmt(thin)}" fill="none"/>'
                    f'<text x="{_fmt(x + 1.4 * arm)}" y="{_fmt(y - 0.8 * arm)}" '
                    f'font-family="sans-serif" font-size="{_fmt(font)}" '
                    f'fill="{color}">{label}</text></g>'
                )
        lines.append("</svg>")
        return "\n".join(lines) + "\n"


def _distance_segments(
    scene: _Scene,
    first: RegularPolygon,
    second: RegularPolygon,
    point: Point,
    kind: str,
) -> None:
    n = first.n
    for k in range(1, n + 1):
        if kind == MatchKind.IDENTITY.value or k == 1:
            j = k
        else:
            j = n + 2 - k
        color = _PAIR_PALETTE[(k - 1) % len(_PAIR_PALETTE)]
        scene.line(point, first.vertex(k), color, "dist-pair", False)
        scene.line(point, second.vertex(j), color, "dist-pair", False)


def _pair_scene(scene: _Scene, scenario: Scenario, report: Report, geometry: Geometry) -> None:
    first, second = geometry
    matchings = dict(report.matchings)
    points = dict(report.points)

    # colored distance fans go underneath everything else
    if "M1" in points and "M1" in matchings:
        _distance_segments(scene, first, second, points["M1"], matchings["M1"])

    for poly, color in zip((first, second), _POLY_COLORS):
        scene.polygon(poly, color)
    for poly, color in zip((first, second), _POLY_COLORS):
        scene.circle(poly.centroid, poly.circumradius, color, "circumcircle", False)
    # swapped circles: first polygon's radius around the second centroid and
    # vice versa; their intersections are the equal-distance points
    scene.circle(second.centroid, first.circumradius, _POLY_COLORS[0], "swap-circle", True)
    scene.circle(first.centroid, second.circumradius, _POLY_COLORS[1], "swap-circle", True)

    if isinstance(scenario.config, SharedVertexConfig):
        anchor = first.vertex(1)
        d1 = diametric_opposite(first, anchor)
        d2 = diametric_opposite(second, anchor)
        scene.line(d1, d2, _AUX_COLOR, "diametric", False)
        scene.marker(d1, "D1", _AUX_COLOR, "aux-label")
        scene.marker(d2, "D2", _AUX_COLOR, "aux-label")
        scene.marker(anchor, "A1", _AUX_COLOR, "aux-label")

    if report.locus == "perpendicular_bisector_of_centroids":
        mid = first.centroid.midpoint(second.centroid)
        gap = first.centroid.distance(second.centroid)
        reach = 2.0 * (gap + max(first.circumradius, second.circumradius))
        axis = (second.centroid - first.centroid).perpendicular() * (1.0 / gap)
        scene.line(mid - axis * reach, mid + axis * reach, _AUX_COLOR, "locus", True)

    for label, point in report.points:
        scene.marker(point, label, _MARKER_COLOR, "point-label")


def _bottema_scene(scene: _Scene, scenario: Scenario, report: Report, result: Geometry) -> None:
    cfg = scenario.config
    assert isinstance(cfg, BottemaConfig) and isinstance(result, BottemaResult)

    scene.triangle(cfg.an, cfg.a1, cfg.bn)
    for poly, color in zip((result.poly1, result.poly2), _POLY_COLORS):
        scene.polygon(poly, color)
    for poly, color in zip((result.poly1, result.poly2), _POLY_COLORS):
        scene.circle(poly.centroid, poly.circumradius, color, "circumcircle", False)
    scene.line(result.d1, result.d2, _AUX_COLOR, "diametric", False)
    scene.marker(result.d1, "D1", _AUX_COLOR, "aux-label")
    scene.marker(result.d2, "D2", _AUX_COLOR, "aux-label")
    scene.marker(result.h, "H", _AUX_COLOR, "aux-label")
    for label, point in report.points:
        scene.marker(point, label, _MARKER_COLOR, "point-label")


def _identity_scene(scene: _Scene, scenario: Scenario, poly: Geometry) -> None:
    cfg = scenario.config
    assert isinstance(cfg, IdentityCheckConfig) and isinstance(poly, RegularPolygon)
    scene.polygon(poly, _POLY_COLORS[0])
    scene.circle(poly.centroid, poly.circumradius, _POLY_COLORS[0], "circumcircle", False)
    for index, probe in enumerate(cfg.probes, 1):
        scene.marker(probe, f"P{index}", _AUX_COLOR, "aux-label")


def render_svg(scenario: Scenario, report: Report) -> str:
    """Render the scenario and its report as a standalone SVG 1.1 document.

    Draws ``report.geometry`` with the report's points, locus and M1 matching.
    A report without geometry (one from ``run_scenario``) is drawn on the
    scenario's geometry, built again at the scenario's own tolerance.  Raises
    GeometryError when that geometry cannot be built or when the figure's
    extent is not finite.
    """
    geometry = report.geometry if report.geometry is not None else scenario_geometry(scenario)
    scene = _Scene()
    if scenario.kind in (ScenarioKind.PAIR, ScenarioKind.SHARED_VERTEX):
        _pair_scene(scene, scenario, report, geometry)
    elif scenario.kind is ScenarioKind.BOTTEMA:
        _bottema_scene(scene, scenario, report, geometry)
    else:
        _identity_scene(scene, scenario, geometry)
    return scene.emit()
