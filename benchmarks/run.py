"""Benchmark for equigon: end-to-end metrics per workload, or per-layer metrics from a traced run.

Run from the repository root:

    python3 benchmarks/run.py --workload verify_docs --seed 1 --seconds 15 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing.  ``--trace 1``
is a separate run that alternates untraced and traced passes and reports the
per-layer metrics (see tracer.py).  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the environment, every metric with its
unit, ``failed_share``, the failures by cause, and the SHA-256 digest of all
output the program produced.  The full result, and in a traced run every
span, is written under ``.bench_out/``.

A run does a fixed amount of work: ``--seconds`` sets the number of passes
from each workload's nominal pass time (workloads.py), so the same seed and
seconds give the same inputs, the same outcome counts and the same digest.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time
from typing import Any

from reference import REFERENCE_S, WINDOW, HostSpeed, kernel_time
from tracer import SETUP, Tracer, equigon_modules
from workloads import KNOWN_DEFECTS, load_equigon, workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5  # set-up runs per measurement; setup_s is their median

# Timings are in reference seconds: CPU seconds scaled by how fast the host ran
# a fixed reference kernel just before (reference.py).  On the reference host
# CPU speed moves by up to 2x within a minute and the hypervisor at times
# steals a third or more of wall time; neither reaches these figures
# (DESIGN.md, "Host noise").  The CPU-time and wall-clock readings are printed
# and stored too, not gated.
END_TO_END = {
    "ref_scenarios_per_s": "scenarios/ref-s",
    "ref_p50_us": "ref-us",
    "ref_p90_us": "ref-us",
    "ok_share": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
UNGATED = {
    "scenarios_per_cpu_s": "scenarios/cpu-s",
    "cpu_p50_us": "us",
    "cpu_p90_us": "us",
    "scenarios_per_s": "scenarios/s",
    "latency_p50_us": "us",
    "latency_p90_us": "us",
    "setup_cpu_s": "s",
    "setup_wall_s": "s",
    "reference_kernel_us": "us",
}

# Per-layer metrics of the traced run.  Calls and errors are per scenario and
# count only the traced passes; self shares are of the traced busy time.
CALLS = [
    "polygon.vertex",
    "polygon.vertices",
    "power_sums.distances_squared",
    "equalizer.equal_distance_points",
    "geom.circle_intersection",
    "bottema.bottema_construct",
]
ERRORS = ["power_sums.verify_power_sum_identity", "runner.run_scenario"]
SELF_SHARE = [
    "polygon.vertex",
    "polygon.from_side",
    "power_sums.multisets_equal",
    "power_sums.compare_power_sums",
    "power_sums.verify_power_sum_identity",
    "equalizer.equal_distance_points",
    "equalizer.correspondence",
    "equalizer.align_rotation",
    "equalizer.verify_point_properties",
    "bottema.bottema_construct",
    "bottema.verify_independence",
    "bottema.vertex_angles",
    "scenario.parse_scenario",
    "scenario.serialize_scenario",
    "runner.run_scenario",
    "runner.Report.to_dict",
    "svgfig.render_svg",
    "cli.main",
    "sampling.random_scenario",
]
PER_LAYER = {
    **{f"{name}.calls": "calls/scenario" for name in CALLS},
    **{f"{name}.errors": "errors/scenario" for name in ERRORS},
    **{f"{name}.self_share": "ratio" for name in SELF_SHARE},
    "equalizer.correspondence.match_ratio": "ratio",
    "trace.busy_s": "s",
    "trace.overhead_share": "ratio",
}


def commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown" outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, passes: int, pass_size: int) -> dict[str, Any]:
    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in (ROOT / "src").rglob("*.py")
    )
    return {
        "commit": commit(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "passes": passes,
        "scenarios_per_pass": pass_size,
        "src_lines": src_lines,
    }


def prepare(workload: Any, eq: Any, seed: int, passes: int, workdir: Path) -> list[list[Any]]:
    """Generate every pass's inputs and stage the first pass's (documents on disk)."""
    workdir.mkdir(parents=True, exist_ok=True)
    out = [workload.make_pass(eq, seed, index, workdir) for index in range(passes)]
    workload.stage(out[0])
    return out


def pin(cpus: list[int], index: int) -> None:
    """Move this process (and the children it starts next) to the index-th allowed CPU.

    On a shared host each CPU's speed drifts on its own, by up to 1.6x over tens
    of seconds, so alternating between them averages two independent drifts.
    """
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})


def setup_times(args: argparse.Namespace, workdir: Path) -> dict[str, list[float]]:
    """Reference, CPU and wall seconds of fresh processes that start, import equigon and prepare every pass.

    The reference kernel runs in this process on the probe's CPU, WINDOW times
    before and after the probe.  The probes share one directory, so all but the
    first overwrite documents instead of creating them, as the passes do.
    """
    cpus = sorted(os.sched_getaffinity(0))
    times: dict[str, list[float]] = {"ref": [], "cpu": [], "wall": []}
    probe_dir = workdir / "setup"
    for index in range(SETUP_PROBES):
        pin(cpus, index)
        command = [
            sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--setup-only", str(probe_dir),
        ]
        kernels = [kernel_time() for _ in range(WINDOW)]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        wall = perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        kernels += [kernel_time() for _ in range(WINDOW)]
        cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
        times["wall"].append(wall)
        times["cpu"].append(cpu)
        times["ref"].append(cpu * REFERENCE_S / statistics.median(kernels))
    shutil.rmtree(probe_dir, ignore_errors=True)
    os.sched_setaffinity(0, cpus)
    return times


CLOCKS = ("ref", "cpu", "wall")


def run_passes(
    workload: Any, eq: Any, passes: list[list[Any]], tracer: Tracer | None = None
) -> dict[str, Any]:
    """Run every pass in a closed loop with one client; with a tracer, trace every odd pass.

    Each scenario is timed in CPU and wall seconds, and in reference seconds
    from the reference kernel run just before it (outside its timing).
    """
    latencies: dict[str, list[float]] = {clock: [] for clock in CLOCKS}
    timings = []  # per pass: (traced, scenarios, {clock: summed scenario seconds})
    causes: list[str | None] = []  # one per scenario: None when it passed
    digest = hashlib.sha256()
    speed = HostSpeed()
    scenario_id = 0
    cpus = sorted(os.sched_getaffinity(0))
    for index, items in enumerate(passes):
        traced = tracer is not None and index % 2 == 1
        pin(cpus, index // 2)  # a traced pass runs on the CPU of the untraced pass before it
        speed.reset()
        workload.stage(items)
        gc.collect()
        if traced:
            tracer.install(equigon_modules())
        outcomes = []
        first = len(latencies["cpu"])
        for item in items:
            if traced:
                tracer.scenario = scenario_id
            scale = speed.scale()
            cpu, wall = process_time(), perf_counter()
            outcomes.append(workload.run(eq, item))
            cpu = process_time() - cpu
            latencies["wall"].append(perf_counter() - wall)
            latencies["cpu"].append(cpu)
            latencies["ref"].append(cpu * scale)
            scenario_id += 1
        timings.append((traced, len(items), {c: sum(latencies[c][first:]) for c in CLOCKS}))
        if traced:
            tracer.uninstall()
            tracer.scenario = SETUP
        for outcome in outcomes:
            verdict = workload.judge(outcome)
            digest.update(verdict.output)
            causes.append(verdict.cause)
    os.sched_setaffinity(0, cpus)
    return {"latencies": latencies, "timings": timings, "causes": causes, "digest": digest.hexdigest()}


def pass_rate(measured: dict[str, Any], clock: str, traced: bool = False) -> float:
    """Median over passes of scenarios in the pass / the pass's summed scenario time on ``clock``."""
    return statistics.median(n / seconds[clock] for t, n, seconds in measured["timings"] if t == traced)


def end_to_end_metrics(measured: dict[str, Any], setup: dict[str, list[float]]) -> dict[str, float]:
    """The gated metrics (END_TO_END) and the ungated readings (UNGATED)."""
    latencies = measured["latencies"]
    causes = measured["causes"]
    failed = sum(cause is not None for cause in causes)
    out = {
        "ok_share": 1.0 - failed / len(causes),
        "setup_s": statistics.median(setup["ref"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_cpu_s": statistics.median(setup["cpu"]),
        "setup_wall_s": statistics.median(setup["wall"]),
        "reference_kernel_us": statistics.median(
            REFERENCE_S * cpu / ref for cpu, ref in zip(latencies["cpu"], latencies["ref"])
        ) * 1e6,
    }
    names = {"ref": ("ref_scenarios_per_s", "ref_p50_us", "ref_p90_us"),
             "cpu": ("scenarios_per_cpu_s", "cpu_p50_us", "cpu_p90_us"),
             "wall": ("scenarios_per_s", "latency_p50_us", "latency_p90_us")}
    for clock, (rate, p50, p90) in names.items():
        out[rate] = pass_rate(measured, clock)
        out[p50] = statistics.median(latencies[clock]) * 1e6
        out[p90] = statistics.quantiles(latencies[clock], n=10)[-1] * 1e6
    return out


def per_layer_metrics(measured: dict[str, Any], tracer: Tracer, traced_scenarios: int) -> dict[str, float]:
    stats, busy = tracer.stats()
    out: dict[str, float] = {}
    for name in CALLS:
        out[f"{name}.calls"] = stats[name].calls / traced_scenarios
    for name in ERRORS:
        out[f"{name}.errors"] = stats[name].errors / traced_scenarios
    for name in SELF_SHARE:
        out[f"{name}.self_share"] = stats[name].self_s / busy if busy else 0.0
    match = stats["equalizer.correspondence"]
    out["equalizer.correspondence.match_ratio"] = (
        (match.calls - match.errors) / match.calls if match.calls else 0.0
    )
    out["trace.busy_s"] = busy
    out["trace.overhead_share"] = 1.0 - pass_rate(measured, "ref", True) / pass_rate(measured, "ref")
    return out


def run(args: argparse.Namespace) -> tuple[dict[str, Any], Tracer | None]:
    workload = workloads(ROOT)[args.workload]
    count = workload.passes(args.seconds)
    if args.trace:
        count = max(count, 2)  # at least one untraced and one traced pass
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        setup = {} if args.trace else setup_times(args, workdir)
        eq = load_equigon()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install(equigon_modules())
        passes = prepare(workload, eq, args.seed, count, workdir)
        if tracer is not None:
            tracer.uninstall()
        measured = run_passes(workload, eq, passes, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ungated = {}
    if tracer is None:
        metrics = end_to_end_metrics(measured, setup)
        units = END_TO_END
        ungated = {name: {"value": metrics[name], "unit": unit} for name, unit in UNGATED.items()}
    else:
        traced_scenarios = sum(len(items) for items in passes[1::2])
        metrics = per_layer_metrics(measured, tracer, traced_scenarios)
        units = PER_LAYER
    attempted = len(measured["causes"])
    causes = Counter(cause for cause in measured["causes"] if cause is not None)
    failed = sum(causes.values())
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "env": environment(args.seed, count, workload.pass_size),
        "correct": not any(cause.startswith("unexpected") for cause in causes),
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "failures": dict(sorted(causes.items())),
        "output_sha256": measured["digest"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "ungated": ungated,
        "pass_timings": measured["timings"],
        "latencies_us": {
            clock: [round(x * 1e6, 1) for x in values] for clock, values in measured["latencies"].items()
        },
    }
    return result, tracer


def report(result: dict[str, Any], tracer: Tracer | None) -> None:
    """Print the result for a reader, then the one-line JSON summary last."""
    print(f"equigon benchmark: workload {result['workload']}, trace {result['trace']}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    for name, metric in result["ungated"].items():
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']} (not gated)")
    print(
        f"  {'failed_share':<44} {result['failed_share']:>14.6g} ratio"
        f" ({result['failed']} of {result['attempted']} scenarios)"
    )
    print("failures by cause " + json.dumps(result["failures"], sort_keys=True))
    for cause in result["failures"]:
        if cause in KNOWN_DEFECTS:
            print(f"  {cause}: {KNOWN_DEFECTS[cause]}")
    print(f"output_sha256 {result['output_sha256']}")
    print(f"correct {str(result['correct']).lower()}")
    OUT.mkdir(exist_ok=True)
    stem = f"{result['workload']}-seed{result['env']['seed']}-trace{result['trace']}"
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    if tracer is not None:
        spans = OUT / f"spans-{result['workload']}.tsv.gz"
        tracer.write(spans)
        print(f"{len(tracer)} spans written to {spans.relative_to(ROOT)}")
    summary = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(summary))


def run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table."""
    rows = {}
    for name in workloads(ROOT):
        command = [
            sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            return done.returncode
        rows[name] = json.loads(done.stdout.splitlines()[-1])
    print()
    print(f"{'workload':<12} {'metric':<44} {'value':>14} unit")
    for name, row in rows.items():
        for metric, value in row["metrics"].items():
            print(f"{name:<12} {metric:<44} {value['value']:>14.6g} {value['unit']}")
        share = row["failed"] / row["attempted"]
        print(f"{name:<12} {'failed_share':<44} {share:>14.6g} ratio")
        print(f"{name:<12} {'correct':<44} {str(row['correct']).lower():>14}")
    print(json.dumps(rows))
    return 0 if all(row["correct"] for row in rows.values()) else 1


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["verify_docs", "large_n", "apex_sweep", "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "equigon" / "__init__.py").is_file():
        print(f"error: no equigon package under {src}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    if args.setup_only:
        workload = workloads(ROOT)[args.workload]
        prepare(workload, load_equigon(), args.seed, workload.passes(args.seconds), Path(args.setup_only))
        return 0
    if args.workload == "all":
        return run_all(args)
    report(*run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
