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
import math
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


def verify_json(document: dict, tmp_path: Path) -> tuple[int, dict]:
    """``verify --json`` on the document, in-process: the exit code and the report."""
    path = tmp_path / "scaled.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--json", str(path)])
    return code, json.loads(out.getvalue())


# A sound triangle at 1e-170.  The foot H once came from the squared base
# length, which underflows there (DegenerateLineError); it now comes from the
# unit base direction.
def test_bottema_at_1e_170_solves(tmp_path):
    document = {
        "kind": "bottema", "n": 5, "seed": 0, "tolerance": {"rel": 1e-9, "abs": 1e-182},
        "bottema": {"an": [0.0, 0.0], "a1": [6e-171, 1.4e-170], "bn": [2e-170, 0.0],
                    "side1": None, "side2": None, "sweep_samples": 0},
    }
    code, report = verify_json(document, tmp_path)
    assert (code, report["errors"]) == (0, [])


# Scaled documents whose outcome is wrong until lengths are solved in a
# normalized frame (ROADMAP item 10, which removes these xfails).
@pytest.mark.xfail(strict=True, reason="the cosine-model bound (R1 + R2) ** 2 overflows at 1e154 and the "
                   "error names no field: OverflowError (34, 'Numerical result out of range')")
def test_shared_vertex_at_1e154_solves_or_names_a_field(tmp_path):
    fields = {"vertex": [3.444218515250482e+154, 2.5795440294030245e+154],
              "centroid1": [4.919698749688237e+154, 1.775278808732288e+154],
              "centroid2": [3.522239386972903e+154, 1.1884080130123164e+154], "orient1": -1, "orient2": 1}
    document = {"kind": "shared_vertex", "n": 3, "seed": 0, "shared_vertex": fields}
    code, report = verify_json(document, tmp_path)
    assert code == 0 or (code == 2 and any(field in report["errors"][0] for field in fields)), report["errors"]


@pytest.mark.xfail(strict=True, reason="squared lengths underflow at 1e-170, so the swapped-circle step "
                   "puts M1 = M2 on O2 and the multiset checks pass on zeros")
def test_pair_at_1e_170_passes_only_on_its_swapped_circles(tmp_path):
    centroid2, r1 = [-6.42e-170, -9.68e-171], 1.26e-170
    document = {
        "kind": "pair", "n": 3, "seed": 0, "tolerance": {"rel": 1e-9, "abs": 1e-182},
        "pair": {"centroid1": [-4.72e-170, -1.38e-170], "r1": r1, "phase1": 0.0, "orient1": 1,
                 "centroid2": centroid2, "r2": 7.83e-171, "phase2": 0.0, "orient2": 1},
    }
    code, report = verify_json(document, tmp_path)
    # A passing report's points are where the swapped circles meet: R1 from O2.
    reach = [math.dist(point, centroid2) for point in report["points"].values()]
    assert code != 0 or all(abs(d - r1) <= 1e-6 * r1 for d in reach), (code, report["points"])
