"""Golden CLI transcript: exit code and standard output, compared byte for byte.

Each file under ``tests/golden/`` holds one command's exit code on its first
line and its standard output after it.  The files pin the promise that a
speed-up changes no output byte.  After an intended change to the output,
rewrite them with ``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

import contextlib
import io
import sys
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


def transcript(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert err.getvalue() == "", err.getvalue()
    return f"exit {code}\n{out.getvalue()}"


def test_every_scenario_file_is_covered():
    assert len([slug for slug, _ in CASES if slug.startswith("verify_json_")]) == 7


@pytest.mark.parametrize("slug, argv", CASES, ids=[slug for slug, _ in CASES])
def test_transcript_matches_golden(slug, argv):
    expected = (GOLDEN / f"{slug}.txt").read_bytes()
    assert transcript(argv).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for slug, argv in CASES:
        (GOLDEN / f"{slug}.txt").write_bytes(transcript(argv).encode("utf-8"))
    print(f"wrote {len(CASES)} files to {GOLDEN}", file=sys.stderr)
