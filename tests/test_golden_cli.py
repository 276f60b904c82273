"""Golden CLI output: transcripts and SVG figures, compared byte for byte.

Each ``.txt`` file under ``tests/golden/`` holds one command's exit code on its
first line and its standard output after it; each ``render_<name>.svg`` is the
figure ``render`` writes for ``scenarios/<name>.json``.  The files pin the
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
GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = (
    [(f"verify_json_{path.stem}", ["verify", "--json", str(path)])
     for path in sorted(SCENARIO_DIR.glob("*.json"))]
    + [(f"bottema_n{n}", ["bottema", "--n", str(n), "--samples", "300", "--seed", "7"])
       for n in range(3, 13)]
    + [(f"sweep_{kind.value}", ["sweep", "--kind", kind.value, "--n", "3-12", "--count", "25",
                                "--seed", "7"])
       for kind in ScenarioKind]
)
RENDERED = sorted(SCENARIO_DIR.glob("*.json"))


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
    assert len(RENDERED) == 7


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
