"""Deterministic SVG rendering of scenario reports.

World coordinates are y-up; the emitted document flips y and auto-fits a
viewBox with 10% padding.  All numbers are written with six decimals (with
negative zero normalized), elements appear in a fixed order, and no randomness
is involved, so rendering the same scenario twice is byte-identical.

A figure reads no check.  It draws the report of ``runner.solve_scenario``:
the geometry that report was solved on (``Report.geometry``), with its points,
locus and M1 matching.

Only true geometric circles become ``<circle>`` elements; point markers are
cross paths with text labels (class ``point-label`` for the equal-distance
points, ``aux-label`` for supporting points such as D1, D2, H, or probes).
"""

from __future__ import annotations

import math
from itertools import cycle
from types import SimpleNamespace
from typing import Callable, Sequence

from .geom import GeometryError, Point
from .polygon import RegularPolygon
from .equalizer import MatchKind, partners
from .runner import Geometry, Report
from .scenario import IdentityCheckConfig, Scenario, ScenarioKind
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
    """Collects the bounding box and one writer per element, emits at the end."""

    def __init__(self) -> None:
        self.elements: list[Callable[[SimpleNamespace], str]] = []
        self.min_x = self.min_y = math.inf
        self.max_x = self.max_y = -math.inf
        self._texts: dict[RegularPolygon, tuple[list[str], list[str]]] = {}

    def _include(self, xs: Sequence[float], ys: Sequence[float]) -> None:
        """Grow the bounding box to the points with these x and y coordinates."""
        self.min_x, self.max_x = min(self.min_x, *xs), max(self.max_x, *xs)
        self.min_y, self.max_y = min(self.min_y, *ys), max(self.max_y, *ys)

    def vertex_text(self, poly: RegularPolygon) -> tuple[list[str], list[str]]:
        """The x and flipped y of each vertex of ``poly``, formatted once per
        figure for its outline and the distance fan; the first call puts the
        vertices in the bounding box."""
        text = self._texts.get(poly)
        if text is None:
            xs, ys = poly.coordinates()
            self._include(xs, ys)
            text = self._texts[poly] = (list(map(_fmt, xs)), [_fmt(-y) for y in ys])
        return text

    def polygon(self, poly: RegularPolygon, color: str) -> None:
        pts = " ".join([f"{x},{y}" for x, y in zip(*self.vertex_text(poly))])
        self.elements.append(lambda w: (
            f'<polygon class="ngon" points="{pts}" fill="none" '
            f'stroke="{color}" stroke-width="{w.stroke}"/>'
        ))

    def circle(self, center: Point, radius: float, color: str, cls: str, dashed: bool) -> None:
        x, y = center.x, center.y
        low_x, low_y, high_x, high_y = x - radius, y - radius, x + radius, y + radius
        if not math.isfinite(low_x + low_y + high_x + high_y):  # a corner may be past the float range
            Point(high_x, high_y), Point(low_x, low_y)  # raises Point's error for the first such corner
        self._include((low_x, high_x), (low_y, high_y))
        self.elements.append(lambda w: (
            f'<circle class="{cls}" cx="{_fmt(center.x)}" cy="{_fmt(-center.y)}" '
            f'r="{_fmt(radius)}" fill="none" stroke="{color}" '
            f'stroke-width="{w.thin}"{w.dash if dashed else ""}/>'
        ))

    def line(self, a: Point, b: Point, color: str, cls: str, dashed: bool) -> None:
        self._include((a.x, b.x), (a.y, b.y))
        self.elements.append(lambda w: (
            f'<line class="{cls}" x1="{_fmt(a.x)}" y1="{_fmt(-a.y)}" '
            f'x2="{_fmt(b.x)}" y2="{_fmt(-b.y)}" stroke="{color}" '
            f'stroke-width="{w.thin}"{w.dash if dashed else ""}/>'
        ))

    def fan(self, point: Point, ends: list[tuple[str, str, str]]) -> None:
        """One ``dist-pair`` line from ``point`` to each end, given as its
        formatted x and flipped y and the line's colour."""
        self._include((point.x,), (point.y,))
        x1, y1 = _fmt(point.x), _fmt(-point.y)
        self.elements.append(lambda w: "\n".join([
            f'<line class="dist-pair" x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="{color}" stroke-width="{w.hair}"/>'
            for x2, y2, color in ends
        ]))

    def triangle(self, a: Point, b: Point, c: Point) -> None:
        self._include((a.x, b.x, c.x), (a.y, b.y, c.y))
        d = (
            f"M {_fmt(a.x)},{_fmt(-a.y)} L {_fmt(b.x)},{_fmt(-b.y)} "
            f"L {_fmt(c.x)},{_fmt(-c.y)} Z"
        )
        self.elements.append(lambda w: (
            f'<path class="triangle" d="{d}" fill="none" '
            f'stroke="{_TRIANGLE_COLOR}" stroke-width="{w.stroke}"/>'
        ))

    def marker(self, point: Point, label: str, color: str, cls: str) -> None:
        self._include((point.x,), (point.y,))
        x, y = point.x, -point.y
        text_x, text_y = _fmt(x), _fmt(y)

        def element(w: SimpleNamespace) -> str:
            d = (
                f"M {_fmt(x - w.arm)},{text_y} L {_fmt(x + w.arm)},{text_y} "
                f"M {text_x},{_fmt(y - w.arm)} L {text_x},{_fmt(y + w.arm)}"
            )
            return (
                f'<g class="{cls}">'
                f'<path d="{d}" stroke="{color}" stroke-width="{w.thin}" fill="none"/>'
                f'<text x="{_fmt(x + 1.4 * w.arm)}" y="{_fmt(y - 0.8 * w.arm)}" '
                f'font-family="sans-serif" font-size="{w.font}" '
                f'fill="{color}">{label}</text></g>'
            )

        self.elements.append(element)

    def emit(self) -> str:
        if not self.elements or not math.isfinite(self.min_x):
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
        widths = SimpleNamespace(
            stroke=_fmt(span * 0.004),
            thin=_fmt(span * 0.002),
            hair=_fmt(span * 0.0015),
            arm=span * 0.012,
            font=_fmt(span * 0.035),
            dash=f' stroke-dasharray="{_fmt(span * 0.02)},{_fmt(span * 0.012)}"',
        )
        lines = [
            '<?xml version="1.0" encoding="UTF-8"?>',
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'viewBox="{view}">',
            *[element(widths) for element in self.elements],
            "</svg>",
        ]
        return "\n".join(lines) + "\n"


def _distance_segments(scene: _Scene, first: RegularPolygon, second: RegularPolygon, point: Point, kind: str) -> None:
    """Lines from ``point`` to vertex k of ``first`` and to its partner in
    ``second`` under the ``kind`` matching, in k's palette colour."""
    xs, ys = scene.vertex_text(first)
    us, vs = scene.vertex_text(second)
    match = MatchKind(kind)
    us, vs = partners(us, match), partners(vs, match)
    ends = []
    for x, y, u, v, color in zip(xs, ys, us, vs, cycle(_PAIR_PALETTE)):
        ends += ((x, y, color), (u, v, color))
    scene.fan(point, ends)


def _pair_scene(scene: _Scene, report: Report, first: RegularPolygon, second: RegularPolygon,
                shared: BottemaResult | None, triangle: bool) -> None:
    """Two polygons with their circumcircles, and the points.  A pair drawn on
    its triangle (a Bottema construction) shows the triangle and the foot H;
    any other shows M1's distance fan and the swapped circles.  A pair sharing
    its first vertex shows the antipodes, and the vertex unless a triangle does."""
    matchings = dict(report.matchings)
    points = dict(report.points)

    # the triangle, or the colored distance fan, goes underneath everything else
    if triangle:
        scene.triangle(shared.an, shared.a1, shared.bn)
    elif "M1" in points and "M1" in matchings:
        _distance_segments(scene, first, second, points["M1"], matchings["M1"])

    for poly, color in zip((first, second), _POLY_COLORS):
        scene.polygon(poly, color)
    for poly, color in zip((first, second), _POLY_COLORS):
        scene.circle(poly.centroid, poly.circumradius, color, "circumcircle", False)
    if not triangle:
        # swapped circles: first polygon's radius around the second centroid and
        # vice versa; their intersections are the equal-distance points
        scene.circle(second.centroid, first.circumradius, _POLY_COLORS[0], "swap-circle", True)
        scene.circle(first.centroid, second.circumradius, _POLY_COLORS[1], "swap-circle", True)

    if shared is not None:
        scene.line(shared.d1, shared.d2, _AUX_COLOR, "diametric", False)
        scene.marker(shared.d1, "D1", _AUX_COLOR, "aux-label")
        scene.marker(shared.d2, "D2", _AUX_COLOR, "aux-label")
        if not triangle:
            scene.marker(shared.a1, "A1", _AUX_COLOR, "aux-label")
        elif shared.h is not None:
            scene.marker(shared.h, "H", _AUX_COLOR, "aux-label")

    if report.locus == "perpendicular_bisector_of_centroids":
        mid = first.centroid.midpoint(second.centroid)
        gap = first.centroid.distance(second.centroid)
        reach = 2.0 * (gap + max(first.circumradius, second.circumradius))
        axis = (second.centroid - first.centroid).perpendicular() * (1.0 / gap)
        scene.line(mid - axis * reach, mid + axis * reach, _AUX_COLOR, "locus", True)

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

    Draws ``report.geometry`` with the report's points, locus and M1 matching,
    so the report must come from ``solve_scenario`` (``run_scenario`` clears
    the geometry).  Raises ValueError for a report without geometry, and
    GeometryError when the figure's extent is not finite.
    """
    if report.geometry is None:
        raise ValueError("render_svg draws a solve_scenario report; this one has no geometry")
    scene = _Scene()
    geometry = report.geometry
    if scenario.kind is ScenarioKind.PAIR:
        _pair_scene(scene, report, *geometry, shared=None, triangle=False)
    elif scenario.kind is ScenarioKind.IDENTITY_CHECK:
        _identity_scene(scene, scenario, geometry)
    else:
        _pair_scene(scene, report, geometry.poly1, geometry.poly2, shared=geometry,
                    triangle=scenario.kind is ScenarioKind.BOTTEMA)
    return scene.emit()
