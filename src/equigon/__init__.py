"""Equal-distance points for pairs of regular polygons.

The package constructs pairs of regular n-gons, locates the points whose
vertex-distance multisets agree, and verifies the identities behind them:
the closed form for power sums of squared vertex distances, multiset equality
(decided by sorting; Newton's identities are available separately as
``power_sums_to_elementary``), the two-correspondence structure at the solution
points, and the generalized Bottema midpoint with its fixed vertex angles.

The public names are the ones the README and the command line use: a scenario
is parsed, solved once by ``solve_scenario`` (all a figure needs) or solved and
checked by ``run_scenario``, and drawn by ``render_svg``.  Every pass/fail
verdict in a ``Report`` is a ``CheckResult``.
"""

from __future__ import annotations

from .checks import CheckResult
from .geom import GeometryError, Point, Tolerance
from .polygon import RegularPolygon
from .power_sums import power_sums_to_elementary
from .scenario import (
    Scenario,
    ScenarioError,
    ScenarioKind,
    ScenarioValidationError,
    parse_scenario,
    serialize_scenario,
)
from .runner import Report, run_scenario, solve_scenario
from .svgfig import render_svg

__version__ = "0.1.0"

__all__ = [
    "Point",
    "Tolerance",
    "GeometryError",
    "RegularPolygon",
    "CheckResult",
    "Report",
    "Scenario",
    "ScenarioKind",
    "ScenarioError",
    "ScenarioValidationError",
    "parse_scenario",
    "serialize_scenario",
    "run_scenario",
    "solve_scenario",
    "render_svg",
    "power_sums_to_elementary",
]
