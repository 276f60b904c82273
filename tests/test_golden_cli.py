"""Golden CLI output: transcripts and SVG figures, compared byte for byte.

Each ``.txt`` file under ``tests/golden/`` holds one command's exit code on its
first line and its standard output after it (``verify`` as text and as JSON on
each file in ``scenarios/``, ``verify --json`` on the documents in
``tests/data/``, ``bottema``, also at its sample cap, at n = 2048, at a
tight relative tolerance, on a base its error bound leaves unsettled, on
two tilted bases and on three at the edges of that bound, and ``sweep``);
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
    # escaped as tracebacks (1e-300 now passes; 1e154 exits 2 with the error
    # recorded).  The three near-tangent ones once failed alignment_multiset_M2:
    # at their M2 a circle of radius |M2 A1| about M2 was almost tangent to the
    # second circumcircle, and intersecting them lost one of the two rotations.
    # The same-orientation
    # pair and the Bottema triangle with both polygons left of their apex
    # edges (side1 = side2 = 1) run the other form of the closed-form
    # midpoint, the apex turned about the base midpoint, and the vertex angles
    # with reversal partners.  The pair once failed midpoint_of_diametric_points
    # and mirror_point_bisector_parallel, when M1 was the crossing that
    # realised the identity; there M1 realises the reversal.  The congruent
    # pair's M2 = A is held to the reversal, which holds there as the identity
    # does.
    + [(stem, ["verify", "--json", str(DATA / f"{stem}.json")])
       for stem in ("identity_overflow_n500", "identity_nan_n128", "identity_vertex_overflow_n64",
                    "shared_vertex_large_n256", "pair_large_n256", "bottema_large_n128",
                    "shared_vertex_scaled_1e-300", "shared_vertex_scaled_1e154",
                    "pair_near_tangent_n256", "bottema_near_tangent_n7", "bottema_near_tangent_n8",
                    "shared_vertex_same_orientation_n5", "shared_vertex_congruent_n6",
                    "bottema_same_side_n5")]
    + [(f"bottema_n{n}", ["bottema", "--n", str(n), "--samples", "300", "--seed", "7"])
       for n in range(3, 13)]
    # The sweep at its MAX_SWEEP_SAMPLES cap, at the largest n, at a tight
    # relative tolerance, and at an absolute tolerance its error bound leaves
    # unsettled, where each apex runs the checked construction; CI runs the
    # same commands.
    + [("bottema_cap", ["bottema", "--n", "12", "--samples", "10000", "--seed", "7"])]
    + [("bottema_n2048", ["bottema", "--n", "2048", "--samples", "300", "--seed", "7"])]
    + [("bottema_rel_1e-13", ["bottema", "--n", "12", "--samples", "300", "--seed", "7",
                              "--tolerance-rel", "1e-13"])]
    + [("bottema_abs_0.08", ["bottema", "--n", "12", "--samples", "300", "--seed", "7",
                             "--tolerance-abs", "0.08"])]
    # Two tilted bases, where no apex product is an exact zero as on (0,0)-(2,0);
    # the second has its corners 5.3e5 base lengths out, and is settled.
    + [("bottema_tilted_n7", ["bottema", "--an=-3.7,1.2", "--bn=5.1,-2.9", "--n", "7",
                              "--samples", "300", "--seed", "11"])]
    + [("bottema_tilted_far_n12", ["bottema", "--an=1000000,-2000000", "--bn=1000003.3,-1999998.1",
                                   "--n", "12", "--samples", "3000", "--seed", "5"])]
    # Three bases at the edges of the sweep's error bound, each settled: a base
    # of 2.1e-120 at an absolute tolerance of 1e-130, one of 1.6e120 (2**400 is
    # 2.6e120), and one with subnormal corner coordinates within 1e-300 of the
    # y axis.
    + [("bottema_filter_short_n5", ["bottema", "--an=0,0", "--bn=2e-120,7e-121", "--n", "5",
                                    "--samples", "3000", "--seed", "3", "--tolerance-abs", "1e-130"])]
    + [("bottema_filter_long_n9", ["bottema", "--an=-1e120,3e119", "--bn=5e119,-1e119", "--n", "9",
                                   "--samples", "3000", "--seed", "4"])]
    + [("bottema_filter_subnormal_n6", ["bottema", "--an=5e-324,-1e-310", "--bn=1e-300,1.0", "--n", "6",
                                        "--samples", "3000", "--seed", "8"])]
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
