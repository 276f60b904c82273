"""No parseable document makes the command line raise, at any scale.

Sampled documents of every kind (n in 3, 5, 8, 12 and 64, seeds 0..5) have
every length multiplied by a factor far from 1; the two documents under
``tests/data/`` whose errors once escaped as tracebacks ride along.  ``verify
--json`` and ``render`` each run in-process through ``cli.main``: each must
return an exit code in {0, 1, 2}, raise nothing, and print at most one
``error:`` line.
"""

import contextlib
import io
import json
import random
from pathlib import Path

import pytest

from equigon.cli import main
from equigon.sampling import random_scenario
from equigon.scenario import ScenarioKind, scenario_to_dict

DATA = Path(__file__).resolve().parent / "data"
FACTORS = (1e-300, 1e-160, 1e150, 1e154, 1e300)
SIZES = (3, 5, 8, 12, 64)
SEEDS = range(6)
ESCAPED = ("shared_vertex_scaled_1e-300", "shared_vertex_scaled_1e154")


def scaled(value, factor):
    """``value`` with every number in it multiplied by ``factor``."""
    if isinstance(value, list):
        return [scaled(item, factor) for item in value]
    return value * factor


def scaled_document(kind: ScenarioKind, n: int, seed: int, factor: float) -> dict:
    """A sampled document whose points and radii are multiplied by ``factor``."""
    document = scenario_to_dict(random_scenario(kind, n, random.Random(seed)))
    block = document[kind.value]
    for key, value in block.items():
        if isinstance(value, list) or key in ("r", "r1", "r2"):
            block[key] = scaled(value, factor)
    return document


def assert_no_traceback(path: Path, svg: Path) -> None:
    for argv in (["verify", "--json", str(path)], ["render", str(path), "-o", str(svg)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except Exception as exc:  # name the document in the failure
                pytest.fail(f"{argv[0]} {path.name} raised {type(exc).__name__}: {exc}")
        lines = (out.getvalue() + err.getvalue()).splitlines()
        assert code in (0, 1, 2), (argv, code)
        assert sum(line.startswith("error:") for line in lines) <= 1, (argv, lines)


@pytest.mark.parametrize("factor", FACTORS)
@pytest.mark.parametrize("kind", list(ScenarioKind), ids=[kind.value for kind in ScenarioKind])
def test_scaled_documents_print_no_traceback(kind, factor, tmp_path):
    for n in SIZES:
        for seed in SEEDS:
            path = tmp_path / f"{kind.value}_n{n}_s{seed}.json"
            path.write_text(json.dumps(scaled_document(kind, n, seed, factor)), encoding="utf-8")
            assert_no_traceback(path, tmp_path / "figure.svg")


@pytest.mark.parametrize("stem", ESCAPED)
def test_once_escaped_errors_print_no_traceback(stem, tmp_path):
    assert_no_traceback(DATA / f"{stem}.json", tmp_path / "figure.svg")
