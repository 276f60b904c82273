"""Tests of the benchmark harness itself (not of equigon).

Run from the repository root:  python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

import reference
import run
import tracer as tracer_module
from tracer import Tracer
from workloads import LargeN, VerifyDocs, classify, load_equigon, workloads

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    command = [sys.executable, str(Path("benchmarks") / "run.py"), *args]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_declared_names_match_the_code():
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads(ROOT))
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_names_match_benchmark_json(trace):
    done = _bench("--workload", "large_n", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert {name: m["unit"] for name, m in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert last["correct"] is True
    assert last["attempted"] >= 100


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "apex_sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_reference_scale_is_robust_to_one_slow_kernel_run(monkeypatch):
    runs = iter([1.0, 2.0, 3.0, 4.0, 100.0, 5.0])
    monkeypatch.setattr(reference, "kernel_time", lambda: next(runs))
    speed = reference.HostSpeed()
    speed.reset()  # primes the window with 1, 2, 3, 4
    assert speed.scale() == pytest.approx(reference.REFERENCE_S / 3.0)  # median of 1, 2, 3, 4, 100
    assert speed.scale() == pytest.approx(reference.REFERENCE_S / 4.0)  # median of 2, 3, 4, 100, 5


def _fake_clock(monkeypatch, ticks):
    values = iter(ticks)
    monkeypatch.setattr(tracer_module, "perf_counter", lambda: next(values))


def test_self_time_of_a_nested_call(monkeypatch):
    # outer [0, 10] holds inner [1, 3] and inner [4, 7]; a second root [20, 21].
    _fake_clock(monkeypatch, [0.0, 1.0, 3.0, 4.0, 7.0, 10.0, 20.0, 21.0])
    t = Tracer({"m.outer": ("equigon.m", "outer"), "m.inner": ("equigon.m", "inner")})
    inner = t.wrap(1, lambda: None)

    def outer_body():
        inner()
        inner()

    outer = t.wrap(0, outer_body)
    t.scenario = 0
    outer()
    outer_root_only = t.wrap(0, lambda: None)
    outer_root_only()
    stats, busy = t.stats()
    assert busy == pytest.approx(11.0)
    assert stats["m.outer"].self_s == pytest.approx(10.0 - 5.0 + 1.0)
    assert stats["m.inner"].self_s == pytest.approx(5.0)
    assert stats["m.inner"].calls == 2
    assert list(t.parent) == [-1, 0, 0, -1]


def test_errors_are_recorded_and_reraised():
    t = Tracer({"m.f": ("equigon.m", "f")})

    def fail():
        raise OverflowError("too big")

    wrapped = t.wrap(0, fail)
    t.scenario = 0
    with pytest.raises(OverflowError):
        wrapped()
    stats, _ = t.stats()
    assert stats["m.f"].errors == 1
    assert t.error_types[t.error[0]] == "OverflowError"


def test_install_patches_every_binding_and_uninstall_restores():
    def target():
        return 1

    home = types.ModuleType("equigon.home")
    user = types.ModuleType("equigon.user")
    home.target = target
    user.target = target  # as after `from .home import target`
    user.alias = target
    t = Tracer({"home.target": ("equigon.home", "target")})
    t.install([home, user])
    assert home.target is not target and user.target is home.target and user.alias is home.target
    assert user.target() == 1 and len(t) == 1
    t.uninstall()
    assert home.target is target and user.target is target and user.alias is target


def test_install_patches_methods_on_their_class():
    eq = load_equigon()
    polygon = sys.modules["equigon.polygon"]
    original = polygon.RegularPolygon.vertex
    t = Tracer({"polygon.vertex": ("equigon.polygon", "RegularPolygon.vertex")})
    t.install(tracer_module.equigon_modules())
    try:
        square = polygon.RegularPolygon(4, eq.scenario.Point(0.0, 0.0), 1.0)
        square.vertices()
    finally:
        t.uninstall()
    assert polygon.RegularPolygon.vertex is original
    assert len(t) == 4


class _Kind:
    def __init__(self, value):
        self.value = value


class _Report:
    def to_dict(self):
        return {"overall_ok": True, "checks": [], "errors": []}


def test_an_escaped_exception_is_one_failed_scenario_and_the_run_goes_on():
    calls = []

    def run_scenario(item):
        calls.append(item)
        if item.fail is not None:
            raise item.fail("injected")
        return _Report()

    eq = SimpleNamespace(runner=SimpleNamespace(run_scenario=run_scenario))
    items = [
        SimpleNamespace(kind=_Kind("pair"), fail=None),
        SimpleNamespace(kind=_Kind("pair"), fail=RuntimeError),
        SimpleNamespace(kind=_Kind("identity_check"), fail=OverflowError),
        SimpleNamespace(kind=_Kind("bottema"), fail=None),
    ]
    measured = run.run_passes(LargeN(), eq, [items[:2], items[2:]])
    assert len(calls) == 4
    assert measured["causes"] == [None, "unexpected: RuntimeError", "closed_form_overflow", None]


def test_a_cli_traceback_is_one_failed_scenario(tmp_path):
    def main(argv):
        raise ZeroDivisionError("injected")

    workload = VerifyDocs(ROOT / "scenarios")
    eq = SimpleNamespace(cli=SimpleNamespace(main=main))
    doc = SimpleNamespace(kind="pair", path="x.json", svg=str(tmp_path / "x.svg"))
    verdict = workload.judge(workload.run(eq, doc))
    assert verdict.cause == "unexpected: ZeroDivisionError"


def _check(name, ok, residual, tolerance, detail=""):
    return {"name": name, "ok": ok, "residual": residual, "tolerance": tolerance, "detail": detail}


def test_known_defects_are_told_apart_from_new_failures():
    nan_dropped = {"errors": [], "checks": [_check("closed_form_probe_2", False, 1e-14, 1e-9)]}
    real_miss = {"errors": [], "checks": [_check("closed_form_probe_2", False, 1e-3, 1e-9)]}
    near_tangent = {
        "errors": [],
        "checks": [_check("alignment_multiset_M1", False, 3.7e-4, 6.2e-8, "1 rotation candidate(s)")],
        "points": {"M1": [1.0, 3.7320508], "M2": [1.0001169, 3.7321813]},
        "coincident": False,
        "scenario": {"kind": "bottema", "bottema": {"an": [0.0, 0.0], "bn": [2.0, 0.0]}},
    }
    far_apart = {**near_tangent, "points": {"M1": [1.0, 3.73], "M2": [1.5, 3.0]}}
    tangent_contact = {**far_apart, "points": {"M1": [1.0, 3.73]}, "coincident": True}
    assert classify("identity_check", None, nan_dropped) == "nan_residual_dropped"
    assert classify("identity_check", None, real_miss).startswith("unexpected")
    assert classify("bottema", None, near_tangent) == "near_tangent_circles"
    assert classify("bottema", None, tangent_contact) == "near_tangent_circles"
    assert classify("bottema", None, far_apart).startswith("unexpected")
    assert classify("pair", "OverflowError", None).startswith("unexpected")


def test_every_pass_has_the_declared_size_and_a_run_holds_100_scenarios(tmp_path):
    eq = load_equigon()
    expected_sizes = {"verify_docs": 407, "large_n": 24, "apex_sweep": 10}
    for name, workload in workloads(ROOT).items():
        assert workload.pass_size == expected_sizes[name]
        for seconds in (1, 20):
            count = workload.passes(seconds)
            assert count * workload.pass_size >= 100
        passes = run.prepare(workload, eq, 5, workload.passes(1), tmp_path / name)
        assert [len(p) for p in passes] == [workload.pass_size] * len(passes)


def test_same_seed_same_inputs_and_digest(tmp_path):
    eq = load_equigon()
    workload = workloads(ROOT)["apex_sweep"]
    digests = []
    for attempt in range(2):
        passes = run.prepare(workload, eq, 11, 1, tmp_path / str(attempt))
        digests.append(run.run_passes(workload, eq, passes)["digest"])
    assert digests[0] == digests[1]
    other = run.prepare(workload, eq, 12, 1, tmp_path / "other")
    assert other != passes
