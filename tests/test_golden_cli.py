"""Golden CLI output: transcripts and SVG figures, compared byte for byte.

Each ``.txt`` file under ``tests/golden/`` holds one command's exit code on its
first line and its standard output after it (``verify`` as text and as JSON on
each file in ``scenarios/``, ``verify --json`` on the documents in
``tests/data/``, ``bottema``, also at its sample cap and at n = 2048, and
``sweep``);
each ``render_<name>.svg`` is the figure ``render`` writes for
``scenarios/<name>.json`` or for one of the three large-n pair, shared-vertex
and Bottema documents in ``tests/data/``.  The files pin the
promise that a speed-up changes no output byte.  After an intended change to
the output, rewrite them with ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from equigon.cli import main
from equigon.scenario import ScenarioKind

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
DATA = Path(__file__).resolve().parent / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = (
    [(f"verify_json_{path.stem}", ["verify", "--json", str(path)])
     for path in sorted(SCENARIO_DIR.glob("*.json"))]
    + [(f"verify_text_{path.stem}", ["verify", str(path)])
       for path in sorted(SCENARIO_DIR.glob("*.json"))]
    # Kept out of scenarios/, whose every file the benchmark's verify_docs runs.
    + [(f"identity_large_n{n}", ["verify", "--json", str(DATA / f"identity_large_n{n}.json")])
       for n in (64, 128, 256)]
    # Identity checks whose term-by-term closed form raised OverflowError (n = 500)
    # or compared inf with inf (n = 128, r = 5), one whose first vertex leaves the
    # float range (exit 2 with that vertex's error), the pair kinds at large n,
    # where the power sums and vertex generation dominate, and two shared-vertex
    # documents whose ZeroDivisionError (1e-300) and OverflowError (1e154) once
    # escaped as tracebacks (exit 2 with the error recorded).
    + [(stem, ["verify", "--json", str(DATA / f"{stem}.json")])
       for stem in ("identity_overflow_n500", "identity_nan_n128", "identity_vertex_overflow_n64",
                    "shared_vertex_large_n256", "pair_large_n256", "bottema_large_n128",
                    "shared_vertex_scaled_1e-300", "shared_vertex_scaled_1e154")]
    + [(f"bottema_n{n}", ["bottema", "--n", str(n), "--samples", "300", "--seed", "7"])
       for n in range(3, 13)]
    # The sweep at its MAX_SWEEP_SAMPLES cap and at the largest n; CI runs the same commands.
    + [("bottema_cap", ["bottema", "--n", "12", "--samples", "10000", "--seed", "7"])]
    + [("bottema_n2048", ["bottema", "--n", "2048", "--samples", "300", "--seed", "7"])]
    + [(f"sweep_{kind.value}", ["sweep", "--kind", kind.value, "--n", "3-12", "--count", "25",
                                "--seed", "7"])
       for kind in ScenarioKind]
)
# The samples, and the pair kinds at large n: the shared-vertex figure's
# distance fan alone draws 512 lines.
LARGE_FIGURES = ("pair_large_n256", "shared_vertex_large_n256", "bottema_large_n128")
RENDERED = sorted(SCENARIO_DIR.glob("*.json")) + [DATA / f"{stem}.json" for stem in LARGE_FIGURES]


def transcript(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == "", err.getvalue()
    return f"exit {code}\n{out.getvalue()}"


def rendered(scenario: Path, directory: Path) -> bytes:
    """The SVG bytes ``render`` writes for one scenario file; it must exit 0."""
    target = directory / f"{scenario.stem}.svg"
    assert transcript(["render", str(scenario), "-o", str(target)]) == f"exit 0\nwrote {target}\n"
    return target.read_bytes()


def test_every_scenario_file_is_covered():
    assert len([slug for slug, _ in CASES if slug.startswith("verify_json_")]) == 7
    assert len([slug for slug, _ in CASES if slug.startswith("verify_text_")]) == 7
    assert len(RENDERED) == 7 + len(LARGE_FIGURES)


@pytest.mark.parametrize("slug, argv", CASES, ids=[slug for slug, _ in CASES])
def test_transcript_matches_golden(slug, argv):
    expected = (GOLDEN / f"{slug}.txt").read_bytes()
    assert transcript(argv).encode("utf-8") == expected


@pytest.mark.parametrize("scenario", RENDERED, ids=[path.stem for path in RENDERED])
def test_render_matches_golden(scenario, tmp_path):
    assert rendered(scenario, tmp_path) == (GOLDEN / f"render_{scenario.stem}.svg").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for slug, argv in CASES:
        (GOLDEN / f"{slug}.txt").write_bytes(transcript(argv).encode("utf-8"))
    with tempfile.TemporaryDirectory() as scratch:
        for scenario in RENDERED:
            svg = rendered(scenario, Path(scratch))
            (GOLDEN / f"render_{scenario.stem}.svg").write_bytes(svg)
    print(f"wrote {len(CASES) + len(RENDERED)} files to {GOLDEN}", file=sys.stderr)
