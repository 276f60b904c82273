"""``CheckResult``, the only pass/fail record a report prints.  The layers that
judge the paper's identities return it, named as the runner asks; the runner
collects them."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CheckResult:
    """A named verdict with the residual it measured and the tolerance shown.

    ``residual_check`` decides ``ok`` as ``residual <= tolerance``.  A producer
    may use a finer rule: the power-sum checks judge each order at its own
    magnitude, where the absolute part of the tolerance weighs differently
    than in the one relative residual they show against ``tol.bound(1.0)``.
    """

    name: str
    ok: bool
    residual: float
    tolerance: float
    vacuous: bool = False
    detail: str = ""


def residual_check(
    name: str,
    residual: float,
    bound: float,
    vacuous: bool = False,
    detail: str = "",
) -> CheckResult:
    """Pass iff the residual fits under the bound; vacuous checks always pass."""
    return CheckResult(name, vacuous or residual <= bound, residual, bound, vacuous, detail)
