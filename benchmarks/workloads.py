"""The benchmark's three workloads: how a pass's inputs are made, run and judged.

Each workload is a series of passes.  Every pass draws fresh inputs from its
own ``random.Random("<workload>/<seed>/<pass>")``, so the same seed gives the
same inputs and no pass repeats another's, and a cache keyed on repeated
inputs cannot inflate the numbers.  One scenario is the unit of work and of
latency.  DESIGN.md says why each workload exists and which layer it loads.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any

# Failures present at the parent commit, with their cause.  A failed scenario
# that shows none of these signatures makes the run incorrect.
KNOWN_DEFECTS = {
    "closed_form_overflow": (
        "identity_check, large n: power_sum_closed_form raises OverflowError from "
        "the unscaled (R^2+L^2)^m and run_scenario lets it escape"
    ),
    "nan_residual_dropped": (
        "identity_check, large n: direct and closed-form sums are both inf, the residual "
        "is NaN, max() in verify_power_sum_identity drops it, FAIL is printed beside a "
        "residual under tolerance"
    ),
    "near_tangent_circles": (
        "pair, shared_vertex or bottema with the swapped circles almost tangent, so M1 and M2 "
        "nearly coincide: the intersection is ill-conditioned, or is reported as one tangent "
        "point, and checks at M1 or M2 miss their tolerance"
    ),
}


@dataclass(frozen=True)
class Doc:
    """One scenario document for the CLI path; ``text`` is None for a fixed file."""

    kind: str
    path: str
    svg: str
    text: str | None


@dataclass(frozen=True)
class Outcome:
    """What one scenario returned, kept for judging after the pass."""

    kind: str
    result: Any  # workload-specific; None when an exception escaped
    error: str | None  # type name of the exception that escaped, if any


@dataclass(frozen=True)
class Verdict:
    cause: str | None  # None when the scenario passed; a KNOWN_DEFECTS key; or "unexpected: ..."
    output: bytes  # bytes that enter the output digest


def load_equigon() -> SimpleNamespace:
    """Import the modules the workloads call, by module so a tracer can patch them."""
    import equigon
    import equigon.cli
    import equigon.sampling

    return SimpleNamespace(
        cli=equigon.cli,
        runner=equigon.runner,
        sampling=equigon.sampling,
        scenario=equigon.scenario,
    )


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _near_tangent(report: dict[str, Any]) -> bool:
    """M1 and M2 reported as one tangent point, or closer than 1e-3 of the polygons' scale."""
    points = report["points"]
    if report["coincident"]:
        return True
    if "M1" not in points or "M2" not in points:
        return False
    kind = report["scenario"]["kind"]
    config = report["scenario"][kind]
    if kind == "bottema":
        scale = math.dist(config["an"], config["bn"])
    elif kind == "shared_vertex":
        scale = max(math.dist(config["vertex"], config[c]) for c in ("centroid1", "centroid2"))
    else:
        scale = max(config["r1"], config["r2"])
    return math.dist(points["M1"], points["M2"]) <= 1e-3 * scale


def classify(kind: str, error: str | None, report: dict[str, Any] | None) -> str:
    """Name the recorded defect a failed scenario shows, or describe it as unexpected."""
    if error is not None:
        if kind == "identity_check" and error == "OverflowError":
            return "closed_form_overflow"
        return f"unexpected: {error}"
    failing = [c for c in report["checks"] if not c["ok"]]
    if report["errors"] or not failing:
        return "unexpected: " + "; ".join(report["errors"] or ["exit code disagrees with report"])
    if kind == "identity_check" and all(
        c["name"].startswith("closed_form_probe_") and c["residual"] <= c["tolerance"]
        for c in failing
    ):
        return "nan_residual_dropped"
    if kind in ("pair", "shared_vertex", "bottema") and _near_tangent(report):
        return "near_tangent_circles"
    return "unexpected: failing checks " + ", ".join(c["name"] for c in failing)


class Workload:
    name = ""
    pass_size = 0
    nominal_pass_s = 1.0  # one pass on a 2-CPU VM, Python 3.11; sizes a run to --seconds
    min_scenarios = 100  # so that at least ten latency samples lie beyond p90

    def passes(self, seconds: float) -> int:
        by_time = round(seconds / self.nominal_pass_s)
        return max(by_time, math.ceil(self.min_scenarios / self.pass_size))

    def make_pass(self, eq: SimpleNamespace, seed: int, index: int, workdir: Path) -> list[Any]:
        raise NotImplementedError

    def stage(self, items: list[Any]) -> None:
        """Put a pass's inputs where the program reads them, before the pass is timed."""

    def run(self, eq: SimpleNamespace, item: Any) -> Outcome:
        raise NotImplementedError

    def judge(self, outcome: Outcome) -> Verdict:
        if outcome.error is not None:
            cause = classify(outcome.kind, outcome.error, None)
            return Verdict(cause, f"{outcome.error}\n".encode())
        report, output, problem = self.emitted(outcome.result)
        if problem is not None:
            return Verdict(f"unexpected: {problem}", output)
        if report["overall_ok"]:
            return Verdict(None, output)
        return Verdict(classify(outcome.kind, None, report), output)

    def emitted(self, result: Any) -> tuple[dict[str, Any], bytes, str | None]:
        """The report as a dict, the output bytes, and any self-contradiction in them."""
        raise NotImplementedError


class RunnerWorkload(Workload):
    """Scenarios go straight to ``runner.run_scenario``; nothing is emitted."""

    def run(self, eq: SimpleNamespace, item: Any) -> Outcome:
        try:
            report = eq.runner.run_scenario(item)
        except Exception as exc:  # run_scenario promises not to raise; count it and go on
            return Outcome(item.kind.value, None, type(exc).__name__)
        return Outcome(item.kind.value, report, None)

    def emitted(self, result: Any) -> tuple[dict[str, Any], bytes, str | None]:
        # Serialised after the pass, exactly as `verify --json` would print it.
        text = json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        report = json.loads(text)
        return report, text.encode(), self.check_output(report)

    def check_output(self, report: dict[str, Any]) -> str | None:
        return None


class VerifyDocs(Workload):
    """The CLI path: ``verify --json`` then ``render`` on each document, in-process."""

    name = "verify_docs"
    random_docs_per_kind_and_n = 10
    sizes = range(3, 13)
    nominal_pass_s = 2.4

    def __init__(self, scenario_dir: Path) -> None:
        self.fixed = sorted(scenario_dir.glob("*.json"))
        kinds = 4
        self.pass_size = len(self.fixed) + kinds * len(self.sizes) * self.random_docs_per_kind_and_n

    def make_pass(self, eq: SimpleNamespace, seed: int, index: int, workdir: Path) -> list[Doc]:
        # Every pass uses the same document and SVG paths: a pass's documents are
        # written just before it runs (see stage), so the file system holds one
        # pass at a time.
        rng = _rng(self.name, seed, index)
        docs = []
        for path in self.fixed:
            kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
            docs.append(Doc(kind, str(path), str(workdir / f"{len(docs)}.svg"), None))
        for kind in eq.scenario.ScenarioKind:
            for n in self.sizes:
                for _ in range(self.random_docs_per_kind_and_n):
                    text = eq.scenario.serialize_scenario(eq.sampling.random_scenario(kind, n, rng))
                    path, svg = (str(workdir / f"{len(docs)}{ext}") for ext in (".json", ".svg"))
                    docs.append(Doc(kind.value, path, svg, text))
        return docs

    def stage(self, items: list[Doc]) -> None:
        for doc in items:
            if doc.text is not None:
                Path(doc.path).write_text(doc.text, encoding="utf-8")

    def run(self, eq: SimpleNamespace, item: Doc) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = eq.cli.main(["verify", item.path, "--json"])
                text = out.getvalue()
                render_code = eq.cli.main(["render", item.path, "-o", item.svg])
            except Exception as exc:  # a traceback from the CLI is a failed scenario
                return Outcome(item.kind, None, type(exc).__name__)
        return Outcome(item.kind, (code, text, render_code, item.svg), None)

    def emitted(self, result: Any) -> tuple[dict[str, Any], bytes, str | None]:
        code, text, render_code, svg_path = result
        svg = Path(svg_path).read_bytes() if render_code == 0 else b""
        try:
            report = json.loads(text)
        except json.JSONDecodeError:
            return {"overall_ok": False}, text.encode(), f"verify exit {code} without a JSON report"
        expected = 2 if report["errors"] else (0 if report["overall_ok"] else 1)
        problem = None
        if code != expected:
            problem = f"verify exit {code}, report implies {expected}"
        elif render_code != 0:
            problem = f"render exit {render_code}"
        elif not (svg.startswith(b"<?xml") and b"<svg" in svg and svg.endswith(b"</svg>\n")):
            problem = "render wrote no complete SVG document"
        return report, text.encode() + svg, problem


class LargeN(RunnerWorkload):
    """The sweep path at large n: one scenario per kind per n, through run_scenario."""

    name = "large_n"
    # Latencies fall in cost clusters by n.  Cheaper than the n = 128 cluster are
    # all of n = 64, identity_check at n = 256 (it overflows early) and pairs with
    # no solution; dearer is the rest of n = 256.  With n = 128 twice and n = 256
    # three times the two sides weigh about the same, so p50 falls mid-way into
    # the n = 128 cluster and p90 about 70% into the n = 256 cluster, never on the
    # gap between clusters.  One of each n puts p50 at that cluster's lower edge.
    sizes = (64, 128, 128, 256, 256, 256)
    pass_size = 4 * len(sizes)
    nominal_pass_s = 1.5

    def make_pass(self, eq: SimpleNamespace, seed: int, index: int, workdir: Path) -> list[Any]:
        rng = _rng(self.name, seed, index)
        kinds = list(eq.scenario.ScenarioKind)
        return [eq.sampling.random_scenario(kind, n, rng) for n in self.sizes for kind in kinds]


class ApexSweep(RunnerWorkload):
    """Bottema scenarios with a 300-apex independence sweep, one per n = 3..12."""

    name = "apex_sweep"
    sizes = range(3, 13)
    samples = 300
    pass_size = len(sizes)
    nominal_pass_s = 0.82

    def make_pass(self, eq: SimpleNamespace, seed: int, index: int, workdir: Path) -> list[Any]:
        rng = _rng(self.name, seed, index)
        out = []
        for n in self.sizes:
            scenario = eq.sampling.random_scenario(eq.scenario.ScenarioKind.BOTTEMA, n, rng)
            config = dataclasses.replace(scenario.config, sweep_samples=self.samples)
            out.append(dataclasses.replace(scenario, config=config))
        return out

    def check_output(self, report: dict[str, Any]) -> str | None:
        if not any(c["name"] == "apex_independence_spread" for c in report["checks"]):
            return "report has no apex_independence_spread check: the sweep did not run"
        return None


def workloads(root: Path) -> dict[str, Workload]:
    found = [VerifyDocs(root / "scenarios"), LargeN(), ApexSweep()]
    return {w.name: w for w in found}
