import json
import math
import os
import shutil
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import pytest

import equigon.cli
from equigon.cli import EXIT_BROKEN_PIPE, _build_parser, main
from equigon.runner import run_scenario, solve_scenario
from equigon.scenario import MAX_PROBES, parse_scenario
from equigon.svgfig import render_svg

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = Path(__file__).resolve().parent / "golden"
LARGE_SHARED = str(Path(__file__).resolve().parent / "data" / "shared_vertex_large_n256.json")
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
        (json.dumps({"kind": "identity_check", "n": 2048, "identity_check": {
            "centroid": [0, 0], "r": 1, "probes": [[0.5, 0.5]] * (MAX_PROBES + 1)}}).encode(),
         f"field 'identity_check.probes' must hold at most {MAX_PROBES} points, got {MAX_PROBES + 1}"),
    ],
    ids=["number-beyond-float", "integer-too-long", "nested-too-deep", "not-utf8", "too-many-probes"],
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


def test_huge_value_error_is_one_short_line(tmp_path, monkeypatch, capsys):
    # A 401-digit literal is echoed cut short, keeping the field name and exit 2.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "doc.json").write_text(PAIR_HEAD + "1" + "0" * 400 + PAIR_TAIL, encoding="utf-8")
    assert main(["verify", "doc.json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: doc.json: field 'pair.r1' must be finite, got 1000")
    assert err.count("\n") == 1
    assert len(err.rstrip("\n")) < 120


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


# Documents whose solve raises a precondition's error, and its message.
UNSOLVABLE = {
    "apex-on-corner": ({"kind": "bottema", "n": 4, "bottema": {"an": [0, 0], "a1": [0, 0], "bn": [2, 0]}},
                       "triangle corners coincide"),
    "base-corners-coincide": ({"kind": "bottema", "n": 5, "bottema": {"an": [0, 0], "a1": [1, 1], "bn": [0, 0]}},
                              "triangle corners coincide"),
    "vertex-on-centroid": ({"kind": "shared_vertex", "n": 4,
                            "shared_vertex": {"vertex": [1.0, 1.0], "centroid1": [3.0, 0.0], "centroid2": [1.0, 1.0],
                                              "orient1": 1, "orient2": -1}},
                           "first vertex coincides with the centroid"),
}


@pytest.mark.parametrize("doc, message", UNSOLVABLE.values(), ids=UNSOLVABLE.keys())
def test_unsolvable_document_names_the_geometry_error(doc, message, tmp_path, capsys):
    # The error line a user reads: one GeometryError, whose message names the condition.
    path = tmp_path / "unsolvable.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert f"error: GeometryError: {message}" in captured.out.splitlines()
    assert captured.err == ""
    assert main(["verify", "--json", str(path)]) == 2
    assert json.loads(capsys.readouterr().out)["errors"] == [f"GeometryError: {message}"]


def test_overflowing_bottema_triangle_is_input_error(tmp_path, capsys):
    # The verb's sweep runs in its base's frame, where no apex triangle leaves
    # the float range; a document's triangle is built where it stands.
    assert main(["bottema", "--an", "0,0", "--bn", "1e155,0", "--n", "5", "--samples", "50"]) == 0
    assert capsys.readouterr() == ("base length: 1e+155\n"
                                   "apex samples: 50\n"
                                   "midpoint spread (bounding-box diagonal): 1.065e+140\n"
                                   "max closed-form residual: 6.657e+139\n"
                                   "allowed: 1.000e+146\n"
                                   "result: PASS\n", "")
    doc = tmp_path / "far.json"
    doc.write_text(
        json.dumps({"kind": "bottema", "n": 5,
                    "bottema": {"an": [0, 0], "a1": [1e160, 3e160], "bn": [4e160, 0]}}),
        encoding="utf-8",
    )
    assert main(["verify", str(doc)]) == 2
    assert "error: GeometryError: triangle overflows the float range: " in capsys.readouterr().out
    assert main(["bottema", "--an", "0,0", "--bn", "1e150,0", "--n", "5", "--samples", "50"]) == 0
    assert capsys.readouterr().out.endswith("result: PASS\n")


def test_bottema_verb_on_a_base_whose_squared_length_underflows(capsys):
    # A signed area, a product of two lengths, is 0 below about 1e-154; the
    # exterior sides are read along a unit direction, so every apex of this
    # sweep gets its polygons on the exterior and M1 at the closed form.
    assert main(["bottema", "--an", "0,0", "--bn", "2e-200,0", "--n", "5", "--samples", "50",
                 "--tolerance-abs", "1e-212"]) == 0
    assert capsys.readouterr().out == (
        "base length: 2e-200\n"
        "apex samples: 50\n"
        "midpoint spread (bounding-box diagonal): 1.946e-215\n"
        "max closed-form residual: 1.297e-215\n"
        "allowed: 2.001e-209\n"
        "result: PASS\n"
    )


def test_overflowing_bottema_base_is_input_error(capsys):
    # Both corners are finite, but the base between them is not.
    assert main(["bottema", "--an=1e308,0", "--bn=-1e308,0", "--n", "5", "--samples", "50"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: base overflows the float range: (-inf, 0.0)\n"


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
    for target, reason in ((tmp_path / "missing_dir" / "x.svg", "[Errno 2] No such file or directory"),
                           (tmp_path, "[Errno 21] Is a directory")):
        assert main(["render", SHARED, "-o", str(target)]) == 2
        assert capsys.readouterr() == ("", f"error: cannot write {target}: {reason}: {str(target)!r}\n")


@pytest.mark.parametrize("before, after", [(LARGE_SHARED, SHARED), (SHARED, LARGE_SHARED)], ids=["shrinks", "grows"])
def test_render_over_an_existing_figure(before, after, tmp_path, capsys):
    # render writes over an existing figure in place and cuts its old tail:
    # the file holds the new figure's bytes and nothing after them.
    out_path = tmp_path / "figure.svg"
    assert main(["render", before, "-o", str(out_path)]) == 0
    assert main(["render", after, "-o", str(out_path)]) == 0
    assert capsys.readouterr() == (f"wrote {out_path}\n" * 2, "")
    assert out_path.read_bytes() == (GOLDEN / f"render_{Path(after).stem}.svg").read_bytes()


def test_render_creates_a_figure_with_the_default_mode(tmp_path, capsys):
    out_path = tmp_path / "figure.svg"
    umask = os.umask(0)
    os.umask(umask)
    assert main(["render", SHARED, "-o", str(out_path)]) == 0
    assert out_path.stat().st_mode & 0o777 == 0o666 & ~umask


@pytest.mark.parametrize("reported_size", [None, 1 << 40], ids=["as-reported", "inflated"])
def test_render_to_a_device(reported_size, monkeypatch, capsys):
    # A device has no tail to cut, and ftruncate fails on it.  Linux reports
    # size 0 for a device or a pipe, other systems a pipe's unread bytes: only
    # a regular file is cut, whatever size the rest report.
    if reported_size is not None:
        real_fstat = os.fstat
        monkeypatch.setattr(os, "fstat", lambda fd: os.stat_result(
            (*real_fstat(fd)[:6], reported_size, *real_fstat(fd)[7:])))
    assert main(["render", SHARED, "-o", os.devnull]) == 0
    assert capsys.readouterr() == (f"wrote {os.devnull}\n", "")


@pytest.mark.parametrize("argv, code", [
    (["verify", SHARED], 0),
    (["verify", "--json", SHARED], 0),
    (["render", SHARED, "-o", "FIGURE"], 0),
    (["sweep", "--kind", "pair", "--n", "3-4", "--count", "2"], 0),
    (["bottema", "--an", "1,1", "--bn", "1,1"], 2),
], ids=["verify", "verify-json", "render", "sweep", "bottema-error"])
def test_closed_standard_output(argv, code, tmp_path, monkeypatch, capsys):
    # A process started with descriptor 1 closed has sys.stdout None: each verb
    # gives its verdict's exit code, as into /dev/null, and prints no traceback.
    figure = tmp_path / "figure.svg"
    argv = [str(figure) if arg == "FIGURE" else arg for arg in argv]
    monkeypatch.setattr(sys, "stdout", None)
    assert main(argv) == code
    monkeypatch.undo()
    assert capsys.readouterr().err == ("" if code == 0 else "error: base endpoints coincide\n")
    if "render" in argv:
        assert figure.read_bytes() == (GOLDEN / "render_shared_vertex_squares.svg").read_bytes()


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


@pytest.mark.parametrize("kind", ["shared_vertex", "bottema"])
def test_sweep_sharing_a_vertex_at_rel_0_1(kind, capsys):
    # The orientations decide each point's correspondence, so no search takes
    # the wrong one within a loose tolerance, and every configuration passes.
    argv = ["sweep", "--kind", kind, "--n", "3-12", "--count", "20", "--seed", "2", "--tolerance-rel", "0.1"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[-1] == f"sweep {kind}: PASS (200/200 configurations)"
    assert captured.err == ""


def test_sweep_identity_check_at_n_200(capsys):
    # Its closed forms used to overflow: a traceback and exit 1.
    assert main(["sweep", "--kind", "identity_check", "--n", "200-200", "--count", "3", "--seed", "1"]) == 0
    captured = capsys.readouterr()
    assert "sweep identity_check: PASS (3/3 configurations)" in captured.out
    assert captured.err == ""


def test_sweep_names_its_errors_and_exits_2(monkeypatch, capsys):
    # At an absolute tolerance of 5 every triangle's corners coincide: each
    # configuration ends in an error, which verify exits 2 on.  A row with
    # errors counts them and names the first; it once read as a bare 0/3
    # with a worst residual of 0 and exit 1.
    args = ["sweep", "--kind", "bottema", "--n", "3-4", "--count", "3", "--seed", "1", "--tolerance-abs", "5"]
    assert main(args) == 2
    captured = capsys.readouterr()
    row = "pass  worst residual 0.000e+00  errors 3, first GeometryError: triangle corners coincide"
    assert captured.out.splitlines() == [f"n=3: 0/3 {row}", f"n=4: 0/3 {row}",
                                         "sweep bottema: FAIL (0/6 configurations)"]
    assert captured.err == ""
    # One error among passing configurations is enough for exit 2.
    original = equigon.cli.run_scenario
    seen = []

    def second_fails(scenario, tol=None):
        report = original(scenario, tol)
        seen.append(report)
        if len(seen) == 2:
            report.errors.append("GeometryError: injected")
        return report

    monkeypatch.setattr(equigon.cli, "run_scenario", second_fails)
    assert main(["sweep", "--kind", "pair", "--n", "3-4", "--count", "2", "--seed", "1"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("  errors 1, first GeometryError: injected") and "errors" not in lines[1]
    assert lines[2] == "sweep pair: FAIL (3/4 configurations)"


def test_verify_non_finite_sums_fail_with_nan_residual(tmp_path, capsys):
    # The probe is 2e308 from the centroid, past the float range.
    doc = tmp_path / "far.json"
    doc.write_text(
        '{"kind":"identity_check","n":5,"identity_check":'
        '{"centroid":[-1e308,0],"r":1.0,"probes":[[1e308,0]]}}',
        encoding="utf-8",
    )
    assert main(["verify", "--json", str(doc)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    [check] = json.loads(captured.out)["checks"]
    assert math.isnan(check["residual"])
    assert check["detail"] == "orders 1..4, relative, non-finite sums"


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


def test_bottema_corner_with_a_negative_x_takes_the_equals_form(capsys):
    # argparse may read "-1,0" after a space as an option rather than as the
    # corner; the "=" form always passes it, and the help says so.
    assert main(["bottema", "--an=-1,0", "--bn=1,0", "--n", "5", "--samples", "20"]) == 0
    assert capsys.readouterr().out.startswith("base length: 2.0\n")
    with pytest.raises(SystemExit) as excinfo:
        main(["bottema", "--help"])
    assert excinfo.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "write a negative X as --an=-1,0" in help_text
    assert "write a negative X as --bn=-2,0" in help_text


@pytest.mark.parametrize(
    "argv, message",
    [
        # The sweep's door gives the one message for n, on either side of its range.
        (["bottema", "--n", "2049"], "error: need an integer n in 3..2048, got 2049\n"),
        (["bottema", "--n", "2"], "error: need an integer n in 3..2048, got 2\n"),
        (["bottema", "--samples", "10001"], "error: --samples must be at most 10000, got 10001\n"),
    ],
    ids=["n", "n-below", "samples"],
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


TOP_USAGE = "usage: equigon [-h] {verify,render,sweep,bottema} ..."

# argv ("OUT" names an SVG path under tmp_path), the exit code (a SystemExit's
# code for a usage error or help), a prefix of the usage's first line (on
# stdout for help, on stderr for a usage error) or None, and a prefix of the
# last stderr line or None for an empty stderr.
ARGV_SHAPES = [
    ([], 2, TOP_USAGE, "equigon: error: the following arguments are required: command"),
    (["-h"], 0, TOP_USAGE, None),
    (["-x"], 2, TOP_USAGE, "equigon: error: the following arguments are required: command"),
    (["nope", SHARED], 2, TOP_USAGE, "equigon: error: argument command: invalid choice: 'nope'"),
    (["ver", SHARED], 2, TOP_USAGE, "equigon: error: argument command: invalid choice: 'ver'"),
    (["--", "verify", SHARED], 2, TOP_USAGE, "equigon: error: argument command: invalid choice: '--'"),
    (["-h", "verify"], 0, TOP_USAGE, None),
    (["verify"], 2, "usage: equigon verify [-h]", "equigon verify: error: the following arguments are required: file"),
    (["verify", "-h"], 0, "usage: equigon verify [-h]", None),
    (["verify", SHARED, "--help"], 0, "usage: equigon verify [-h]", None),
    (["verify", SHARED], 0, None, None),
    (["verify", "--js", SHARED], 0, None, None),
    (["verify", "--", SHARED], 0, None, None),
    (["verify", SHARED, "extra"], 2, TOP_USAGE, "equigon: error: unrecognized arguments: extra"),
    (["verify", SHARED, "--bogus", "x", "-y"], 2, TOP_USAGE, "equigon: error: unrecognized arguments: --bogus x -y"),
    (["verify", "--tolerance", "1", SHARED], 2, "usage: equigon verify [-h]",
     "equigon verify: error: ambiguous option: --tolerance could match --tolerance-rel, --tolerance-abs"),
    (["verify", SHARED, "--tolerance-rel", "abc"], 2, "usage: equigon verify [-h]",
     "equigon verify: error: argument --tolerance-rel: invalid float value: 'abc'"),
    (["verify", SHARED, "--tolerance-rel", "-1"], 2, None, "error: rel must be a positive finite float, got -1.0"),
    (["render", SHARED], 2, "usage: equigon render [-h]",
     "equigon render: error: the following arguments are required: -o/--output"),
    (["render", SHARED, "--output=OUT", "--tolerance-abs", "1e-9"], 0, None, None),
    (["sweep", "--kind", "nope"], 2, "usage: equigon sweep [-h]", "equigon sweep: error: argument --kind: invalid choice: 'nope'"),
    (["sweep", "--kind=pair", "--n=3-4", "--count=1", "--seed=3"], 0, None, None),
    (["sweep", "--kind", "pair", "--n", "2"], 2, "usage: equigon sweep [-h]",
     "equigon sweep: error: argument --n: need 3 <= LO <= HI, got '2'"),
    (["bottema", "--an", "-1,0"], 2, "usage: equigon bottema [-h]", "equigon bottema: error: argument --an: expected one argument"),
    (["bottema", "--an=-1,0", "--samples", "2"], 0, None, None),
    (["bottema", "-1,0"], 2, TOP_USAGE, "equigon: error: unrecognized arguments: -1,0"),
    (["bottema", "--an", "1,2,3"], 2, "usage: equigon bottema [-h]",
     "equigon bottema: error: argument --an: expected 'x,y', got '1,2,3'"),
    (["bottema", "--bn", "1,y"], 2, "usage: equigon bottema [-h]",
     "equigon bottema: error: argument --bn: expected numeric 'x,y', got '1,y'"),
    (["sweep", "--kind", "pair", "--n", "3-x"], 2, "usage: equigon sweep [-h]",
     "equigon sweep: error: argument --n: expected N or LO-HI, got '3-x'"),
]


def _outcome(argv, svg, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    written = svg.read_bytes() if svg.exists() else None
    svg.unlink(missing_ok=True)
    return code, out, err, written


@pytest.mark.parametrize("argv, code, usage, error", ARGV_SHAPES, ids=[" ".join(shape[0]) or "-" for shape in ARGV_SHAPES])
def test_argv_shapes_read_as_the_full_parse(argv, code, usage, error, tmp_path, monkeypatch, capsys):
    svg = tmp_path / "out.svg"
    argv = [arg.replace("OUT", str(svg)) for arg in argv]
    got = _outcome(argv, svg, capsys)
    # The same argv through the top-level parser alone, subparser action and all.
    monkeypatch.setattr(equigon.cli, "_parse", lambda argv: _build_parser()[0].parse_args(argv))
    assert got == _outcome(argv, svg, capsys)
    got_code, out, err, _ = got
    assert got_code == code
    if usage is not None:
        assert (out + err).startswith(usage)
    if error is None:
        assert err == ""
    else:
        assert err.splitlines()[-1].startswith(error)


def test_closed_pipe_exits_without_a_traceback():
    # `sweep ... | head -1`: the reader takes the first line and closes the
    # pipe.  Unbuffered, each later line is a write into the closed pipe.
    argv = [sys.executable, "-m", "equigon", "sweep", "--kind", "pair", "--n", "3-12", "--count", "200"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env={**os.environ, "PYTHONUNBUFFERED": "1"})
    assert proc.stdout.readline().startswith(b"n=3: ")
    proc.stdout.close()
    stderr = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE
    assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, stderr


def test_closed_pipe_exits_without_a_traceback_when_buffered():
    # Buffered, the whole output is one write at main's flush, into a pipe whose
    # reader closed before the child started; what is still buffered must not
    # raise again in the flush at interpreter exit.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "equigon", "sweep", "--kind", "pair", "--n", "3-4",
                               "--count", "2"], stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (EXIT_BROKEN_PIPE, "")


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
    report = solve_scenario(scenario)
    document = render_svg(scenario, report)
    assert document.startswith('<?xml version="1.0" encoding="UTF-8"?>')
    assert 'version="1.1"' in document
    assert "viewBox=" in document
    assert "-0.000000" not in document
