import json
import shutil
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

from equigon.cli import _build_parser, main
from equigon.runner import run_scenario
from equigon.scenario import parse_scenario
from equigon.svgfig import render_svg

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHARED = str(SCENARIO_DIR / "shared_vertex_squares.json")
DISJOINT = str(SCENARIO_DIR / "pair_disjoint.json")
BOTTEMA = str(SCENARIO_DIR / "bottema_squares.json")
TANGENT = str(SCENARIO_DIR / "tangent_collinear.json")
CONGRUENT = str(SCENARIO_DIR / "congruent_mirror.json")
IDENTITY = str(SCENARIO_DIR / "identity_heptagon.json")


def test_verify_shared_vertex_text(capsys):
    assert main(["verify", SHARED]) == 0
    out = capsys.readouterr().out
    assert "overall: PASS" in out
    assert "matching at M1: identity" in out
    assert "matching at M2: reversal" in out
    assert "point M1" in out and "point M2" in out


def test_verify_json_report(capsys):
    assert main(["verify", SHARED, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["overall_ok"] is True
    assert set(data["points"]) == {"M1", "M2"}
    assert data["matchings"] == {"M1": "identity", "M2": "reversal"}
    assert data["scenario"]["kind"] == "shared_vertex"
    for check in data["checks"]:
        assert {"name", "ok", "residual", "tolerance", "vacuous", "detail"} <= set(check)


def test_verify_absence_is_success(capsys):
    assert main(["verify", DISJOINT]) == 0
    out = capsys.readouterr().out
    assert "no equal-distance point" in out
    assert "overall: PASS" in out


def test_verify_each_sample_scenario():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        assert main(["verify", str(path)]) == 0, path.name


def test_verify_missing_file_is_input_error(capsys):
    assert main(["verify", "/nonexistent/scenario.json"]) == 2
    assert "error" in capsys.readouterr().err


def test_verify_malformed_json_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "pair", "n": ', encoding="utf-8")
    assert main(["verify", str(bad)]) == 2
    assert "invalid JSON" in capsys.readouterr().err


PAIR_HEAD = '{"kind": "pair", "n": 4, "pair": {"centroid1": [0, 0], "r1": '
PAIR_TAIL = ', "phase1": 0, "orient1": 1, "centroid2": [3, 0], "r2": 1, "phase2": 0, "orient2": 1}}'


@pytest.mark.parametrize("verb", [["verify"], ["render", "-o", "unused.svg"]], ids=["verify", "render"])
@pytest.mark.parametrize(
    "content, named",
    [
        ((PAIR_HEAD + "1" + "0" * 400 + PAIR_TAIL).encode(), "pair.r1"),
        ((PAIR_HEAD + "1" + "0" * 5000 + PAIR_TAIL).encode(), "invalid JSON"),
        (b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
        (b'{"kind": "pair", "n": 4\xff}', "UTF-8"),
    ],
    ids=["number-beyond-float", "integer-too-long", "nested-too-deep", "not-utf8"],
)
def test_unreadable_document_is_input_error(verb, content, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "doc.json"
    path.write_bytes(content)
    assert main([verb[0], str(path), *verb[1:]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.count("\n") == 1
    assert named in captured.err
    assert not (tmp_path / "unused.svg").exists()


def test_verify_tight_tolerance_fails_checks(capsys):
    # below machine precision the residual checks must fail, and the failure
    # is a check failure (exit 1), not an input error
    pentagons = str(SCENARIO_DIR / "pair_pentagons.json")
    code = main(["verify", pentagons, "--tolerance-rel", "1e-16", "--tolerance-abs", "1e-18"])
    assert code == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_verify_degenerate_geometry_is_input_error(tmp_path, capsys):
    doc = {
        "kind": "shared_vertex",
        "n": 4,
        "shared_vertex": {
            "vertex": [1.0, 1.0],
            "centroid1": [1.0, 1.0],
            "centroid2": [3.0, 0.0],
            "orient1": 1,
            "orient2": -1,
        },
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    assert "error:" in capsys.readouterr().out


def test_render_shared_vertex_golden_counts(tmp_path, capsys):
    out_path = tmp_path / "figure.svg"
    assert main(["render", SHARED, "-o", str(out_path)]) == 0
    capsys.readouterr()
    document = out_path.read_text(encoding="utf-8")
    xml.dom.minidom.parseString(document)
    assert document.count("<polygon") == 2
    assert document.count("<circle") == 4
    assert document.count('class="point-label"') == 2
    assert document.count('class="swap-circle"') == 2
    assert ">M1<" in document and ">M2<" in document


def test_render_byte_stable(tmp_path, capsys):
    first = tmp_path / "a.svg"
    second = tmp_path / "b.svg"
    assert main(["render", SHARED, "-o", str(first)]) == 0
    assert main(["render", SHARED, "-o", str(second)]) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_render_bottema_elements(tmp_path, capsys):
    out_path = tmp_path / "bottema.svg"
    assert main(["render", BOTTEMA, "-o", str(out_path)]) == 0
    capsys.readouterr()
    document = out_path.read_text(encoding="utf-8")
    assert document.count('class="triangle"') == 1
    assert document.count("<polygon") == 2
    assert document.count('class="diametric"') == 1
    assert ">M1<" in document


def test_render_every_sample_is_wellformed(tmp_path, capsys):
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        out_path = tmp_path / (path.stem + ".svg")
        assert main(["render", str(path), "-o", str(out_path)]) == 0, path.name
        xml.dom.minidom.parseString(out_path.read_text(encoding="utf-8"))
    capsys.readouterr()


def test_render_unwritable_output_is_input_error(tmp_path, capsys):
    target = tmp_path / "missing_dir" / "x.svg"
    assert main(["render", SHARED, "-o", str(target)]) == 2
    assert "error" in capsys.readouterr().err


def test_sweep_deterministic_and_passing(capsys):
    args = ["sweep", "--kind", "bottema", "--n", "3-4", "--count", "3", "--seed", "5"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "sweep bottema: PASS (6/6 configurations)" in first
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_sweep_all_kinds_pass(capsys):
    for kind in ("pair", "shared_vertex", "bottema", "identity_check"):
        assert main(["sweep", "--kind", kind, "--n", "5", "--count", "5", "--seed", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sweep_rejects_empty_count(count, capsys):
    assert main(["sweep", "--kind", "pair", "--n", "3", "--count", count]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --count must be at least 1, got {count}\n"


@pytest.mark.parametrize(
    "verb",
    [
        ["verify", SHARED],
        ["render", SHARED, "-o", "unused.svg"],
        ["sweep", "--kind", "pair", "--n", "3", "--count", "1"],
        ["bottema"],
    ],
    ids=["verify", "render", "sweep", "bottema"],
)
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--tolerance-rel", "-1", "error: rel must be a positive finite float, got -1.0\n"),
        ("--tolerance-abs", "-1", "error: abs must be a positive finite float, got -1.0\n"),
    ],
    ids=["rel", "abs"],
)
def test_bad_tolerance_is_input_error(verb, flag, value, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*verb, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message
    assert not (tmp_path / "unused.svg").exists()


def test_bottema_verb(capsys):
    assert main(["bottema", "--an", "0,0", "--bn", "2,0", "--n", "6", "--samples", "30"]) == 0
    assert "result: PASS" in capsys.readouterr().out
    assert main(["bottema", "--an", "1,1", "--bn", "1,1", "--n", "4", "--samples", "10"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bottema", "--n", "2049"], "error: --n must be at most 2048, got 2049\n"),
        (["bottema", "--samples", "10001"], "error: --samples must be at most 10000, got 10001\n"),
    ],
    ids=["n", "samples"],
)
def test_bottema_caps(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_bottema_at_vertex_cap(capsys):
    assert main(["bottema", "--n", "2048", "--samples", "2"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_sweep_n_cap(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--kind", "pair", "--n", "2049", "--count", "1"])
    assert excinfo.value.code == 2
    assert "need HI <= 2048, got '2049'" in capsys.readouterr().err


def test_parser_built_once(capsys):
    main(["verify", SHARED])
    main(["verify", SHARED, "--json"])
    assert _build_parser.cache_info().misses <= 1


def test_reused_parser_after_usage_error(capsys):
    main(["verify", SHARED, "--json"])
    alone = capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["verify", "--no-such-flag"])
    capsys.readouterr()
    assert main(["verify", SHARED, "--json"]) == 0
    assert capsys.readouterr() == alone


def test_module_invocation_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "equigon", "verify", SHARED],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "overall: PASS" in proc.stdout


def test_console_script_subprocess():
    executable = shutil.which("equigon")
    assert executable, "console script not installed"
    proc = subprocess.run([executable, "verify", DISJOINT], capture_output=True, text=True)
    assert proc.returncode == 0


def test_runner_reports_vacuous_checks_for_tangent_contact(capsys):
    assert main(["verify", TANGENT, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["coincident"] is True
    assert list(data["points"]) == ["M1"]
    vacuous = {c["name"] for c in data["checks"] if c["vacuous"]}
    assert "separation_equals_vertex_offset" in vacuous


def test_runner_deterministic_for_fixed_seed():
    scenario = parse_scenario(Path(CONGRUENT).read_text(encoding="utf-8"))
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.to_text() == second.to_text()
    assert first.to_dict() == second.to_dict()


def test_identity_check_runs_each_probe():
    scenario = parse_scenario(Path(IDENTITY).read_text(encoding="utf-8"))
    report = run_scenario(scenario)
    assert report.overall_ok
    names = [c.name for c in report.checks]
    assert names == [f"closed_form_probe_{i}" for i in range(1, 5)]


def test_render_svg_precision_and_header():
    scenario = parse_scenario(Path(SHARED).read_text(encoding="utf-8"))
    report = run_scenario(scenario)
    document = render_svg(scenario, report)
    assert document.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert 'version="1.1"' in document
    assert "viewBox=" in document
    assert "-0.000000" not in document
