"""``CheckResult``, the only pass/fail record a report prints; ``FACTS``, one row
per family of the paper's facts a report checks; and ``judge``, which builds
every check, named by its family and perhaps a suffix (``power_sums_M1``)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .geom import Tolerance


@dataclass(frozen=True)
class CheckResult:
    """A named verdict with the residual it measured and the tolerance shown.
    ``__init__`` is written out so that it stores every field in one step,
    where a frozen dataclass's own sets each through ``object.__setattr__``.
    """

    name: str
    ok: bool
    residual: float
    tolerance: float
    vacuous: bool = False
    detail: str = ""

    def __init__(self, name: str, ok: bool, residual: float, tolerance: float,
                 vacuous: bool = False, detail: str = "") -> None:
        self.__dict__.update(name=name, ok=ok, residual=residual, tolerance=tolerance, vacuous=vacuous, detail=detail)


# What a family of checks compares, the length degree of its residual (every length of a document
# times c multiplies it by c ** degree) and the scale of its bound.  R is the larger circumradius.
Fact = NamedTuple("Fact", [("compares", str), ("degree", int), ("scale", str)])

FACTS = {
    "power_sums": Fact("both polygons' cyclic averages at M, each by the closed form in (n, R, |M O|)", 0,
                       "1; each order its own"),
    "alignment_multiset": Fact("squared distances at M, the second polygon turned", 2, "largest squared distance"),
    "matching": Fact("distances at M to each vertex and its partner", 1, "R"),
    "cosine_model": Fact("squared distances at M against the cosine law", 2, "(R1 + R2)^2"),
    "locus_probe": Fact("both power sums at a point of a congruent pair's locus", 0, "1; each order its own"),
    "closed_form_probe": Fact("a polygon's power sums at a probe against the closed form", 0, "1; each order its own"),
    "midpoint_of_diametric_points": Fact("M1 against the midpoint of the antipodes D1 D2", 1, "R"),
    "even_n_vertex_midpoint": Fact("M1 against the midpoint of the opposite vertices", 1, "R"),
    "mirror_point_bisector_parallel": Fact("M2 against the bisector of D1 D2 and its parallel through A", 1, "R"),
    "separation_equals_vertex_offset": Fact("|M1 M2| against A's distance to the line D1 D2", 1, "R"),
    "quadrilateral_side_lengths": Fact("the sides of O2 M1 O1 M2 against R1, R2, R2, R1", 1, "R"),
    "separation_perpendicular": Fact("M1 - M2 dotted with D1 - D2", 2, "R^2"),
    "closed_form_midpoint": Fact("M1 against the Bottema closed form", 1, "|An Bn|"),
    "altitude_length": Fact("|M1 H| against |An Bn| cot(pi/n) / 2", 1, "|An Bn|"),
    "foot_at_base_midpoint": Fact("H against the base midpoint", 1, "|An Bn|"),
    "vertex_angles": Fact("the angle each A_k and its partner subtend at M1, worst k", 0, "pi"),
    "apex_independence_spread": Fact("the diagonal of the swept apexes' midpoints' bounding box", 1, "|An Bn|"),
    "apex_independence_closed_form": Fact("the swept apexes' midpoints against the closed form", 1, "|An Bn|"),
}


def judge(name: str, residual: float, scale: float, tol: Tolerance, vacuous: bool = False, detail: str = "",
          every_order: bool | None = None) -> CheckResult:
    """The check ``name``, shown against ``tol.bound(scale)``: it passes iff it is vacuous or
    ``residual`` fits under that bound and the bound is finite.  The power sums judge each
    order's gap at its own magnitude ("each order its own" in ``FACTS``) and pass
    ``every_order``, whether every order passed: the check passes iff it is true."""
    bound = tol.bound(scale)
    ok = (vacuous or residual <= bound < math.inf) if every_order is None else every_order
    return CheckResult(name, ok, residual, bound, vacuous, detail)
