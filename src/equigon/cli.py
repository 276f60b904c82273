"""Command-line interface.

Verbs:

    verify <file>                 run a scenario file, print the report
    render <file> -o <svg>       draw a scenario file as an SVG figure (no checks)
    sweep --kind K --n RANGE     randomized property sweeps
    bottema --an x,y --bn x,y    quick apex-independence check

Exit codes of verify, sweep and bottema: 0 on success (including a verified
absence of solution points), 1 when a check fails, 2 for input errors (in
a sweep, any configuration that ends in an error).
render exits 0 when it wrote the SVG and 2 when it could not.  Any verb exits
141, as a shell reports a writer killed by SIGPIPE, when the reader of its
standard output closes the pipe early (``equigon sweep ... | head -1``).

An argv that starts with a verb is parsed by that verb's parser alone, as the
subparser would parse it, and anything left over is reported by the top-level
parser (``equigon: error: unrecognized arguments: ...``).  Any other argv (none,
``-h``, an unknown verb, a leading option) goes through the full parser, so
every message and exit code is what the full parse gives.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import stat
import sys
from typing import Sequence

from .bottema import verify_independence
from .geom import DEFAULT_TOLERANCE, GeometryError, Point, Tolerance
from .runner import run_scenario, solve_scenario
from .sampling import random_scenario
from .scenario import MAX_N, MAX_SWEEP_SAMPLES, ScenarioError, ScenarioKind, _canonical_json, parse_scenario
from .svgfig import render_svg

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BROKEN_PIPE = 141


def _parse_point(text: str) -> Point:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected 'x,y', got {text!r}")
    try:
        return Point(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected numeric 'x,y', got {text!r}") from exc


def _parse_n_range(text: str) -> list[int]:
    try:
        if "-" in text:
            lo_text, hi_text = text.split("-", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected N or LO-HI, got {text!r}") from exc
    if lo < 3 or hi < lo:
        raise argparse.ArgumentTypeError(f"need 3 <= LO <= HI, got {text!r}")
    if hi > MAX_N:
        raise argparse.ArgumentTypeError(f"need HI <= {MAX_N}, got {text!r}")
    return list(range(lo, hi + 1))


def _add_tolerance_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tolerance-rel", type=float, default=None, metavar="REL",
                        help="override the relative tolerance")
    parser.add_argument("--tolerance-abs", type=float, default=None, metavar="ABS",
                        help="override the absolute tolerance")


def _tolerance_override(args: argparse.Namespace, base: Tolerance) -> Tolerance | None:
    """None means: keep whatever the scenario (or default) specifies."""
    if args.tolerance_rel is None and args.tolerance_abs is None:
        return None
    rel = args.tolerance_rel if args.tolerance_rel is not None else base.rel
    abs_ = args.tolerance_abs if args.tolerance_abs is not None else base.abs
    return Tolerance(rel=rel, abs=abs_)


def _load_scenario(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    except UnicodeDecodeError as exc:
        print(f"error: {path}: not UTF-8 text ({exc.reason} at byte {exc.start})", file=sys.stderr)
        return None
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None


def _cmd_verify(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    if scenario is None:
        return EXIT_INPUT_ERROR
    tol = _tolerance_override(args, scenario.tolerance)
    report = run_scenario(scenario, tol)
    if args.json:
        print(_canonical_json(report.to_dict()))
    else:
        print(report.to_text(), end="")
    if report.errors:
        return EXIT_INPUT_ERROR
    return EXIT_OK if report.overall_ok else EXIT_CHECK_FAILED


def _is_stdout(status: os.stat_result) -> bool:
    """Whether ``status`` is the file behind standard output; False when stdout
    has no descriptor (a ``StringIO``), its file object is closed, or there is
    none (``None``, when the process started with descriptor 1 closed)."""
    try:
        return os.path.samestat(status, os.fstat(sys.stdout.fileno()))
    except (AttributeError, OSError, ValueError):
        return False


def _cmd_render(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    if scenario is None:
        return EXIT_INPUT_ERROR
    tol = _tolerance_override(args, scenario.tolerance)
    try:
        # The figure needs the solve only; render runs no check.
        document = render_svg(scenario, solve_scenario(scenario, tol))
    except (GeometryError, ArithmeticError) as exc:
        print(f"error: cannot render {args.file}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    data = document.encode("utf-8")
    try:
        # Overwrite an existing figure in place, then cut its old tail: ext4
        # flushes a file truncated to zero and rewritten when it is closed (XFS
        # and btrfs have similar heuristics).  Only a longer regular file has a
        # tail; ftruncate fails on a device or a pipe, and costs even at equal sizes.
        with open(args.output, "wb", opener=lambda path, flags: os.open(path, flags & ~os.O_TRUNC, 0o666)) as handle:
            before = os.fstat(handle.fileno())
            handle.write(data)
            if stat.S_ISREG(before.st_mode) and before.st_size > len(data):
                handle.truncate()
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    # Into standard output itself (``-o /dev/stdout``), the line would land on
    # or after the figure's bytes: there the figure is the whole output.
    if not _is_stdout(before):
        print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.count < 1:
        # A sweep over no configurations would report PASS having checked nothing.
        print(f"error: --count must be at least 1, got {args.count}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    kind = ScenarioKind(args.kind)
    tol = _tolerance_override(args, DEFAULT_TOLERANCE) or DEFAULT_TOLERANCE
    rng = random.Random(args.seed)
    passed_total = errors_total = 0
    for n in args.n:
        passed, worst, errors = 0, 0.0, []
        for _ in range(args.count):
            report = run_scenario(random_scenario(kind, n, rng), tol)
            passed += report.overall_ok
            errors += report.errors
            worst = max(worst, max((check.residual for check in report.checks if not check.vacuous), default=0.0))
        row = f"n={n}: {passed}/{args.count} pass  worst residual {worst:.3e}"
        # A configuration that ended in an error has no residual: the row names the error.
        print(row + (f"  errors {len(errors)}, first {errors[0]}" if errors else ""))
        passed_total, errors_total = passed_total + passed, errors_total + len(errors)
    total = len(args.n) * args.count
    print(f"sweep {args.kind}: {'PASS' if passed_total == total else 'FAIL'} ({passed_total}/{total} configurations)")
    return EXIT_INPUT_ERROR if errors_total else EXIT_OK if passed_total == total else EXIT_CHECK_FAILED


def _cmd_bottema(args: argparse.Namespace) -> int:
    # The sweep's door tests n; it does not cap the samples.
    if args.samples > MAX_SWEEP_SAMPLES:
        print(f"error: --samples must be at most {MAX_SWEEP_SAMPLES}, got {args.samples}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    tol = _tolerance_override(args, DEFAULT_TOLERANCE) or DEFAULT_TOLERANCE
    try:
        spread, closed = verify_independence(args.an, args.bn, args.n, args.samples, tol, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    ok = spread.ok and closed.ok
    print(f"base length: {args.an.distance(args.bn)!r}")
    print(f"apex samples: {args.samples}")
    print(f"max midpoint deviation: {spread.residual:.3e}")
    print(f"max closed-form residual: {closed.residual:.3e}")
    print(f"allowed: {spread.tolerance:.3e}")
    print(f"result: {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each verb's parser by name, built on the first
    ``main()`` call and reused: parsing leaves them unchanged."""
    parser = argparse.ArgumentParser(
        prog="equigon",
        description="Construct and verify equal-distance points for pairs of regular polygons.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a scenario file and report every check")
    verify.add_argument("file", help="scenario JSON file")
    verify.add_argument("--json", action="store_true", help="emit the report as JSON")
    _add_tolerance_flags(verify)
    verify.set_defaults(handler=_cmd_verify)

    render = sub.add_parser("render", help="render a scenario file as an SVG figure")
    render.add_argument("file", help="scenario JSON file")
    render.add_argument("-o", "--output", required=True, help="output SVG path")
    _add_tolerance_flags(render)
    render.set_defaults(handler=_cmd_render)

    sweep = sub.add_parser("sweep", help="randomized property sweeps")
    sweep.add_argument("--kind", required=True, choices=[k.value for k in ScenarioKind])
    sweep.add_argument("--n", type=_parse_n_range, default=list(range(3, 9)),
                       metavar="N|LO-HI", help="vertex counts to sweep (default 3-8)")
    sweep.add_argument("--count", type=int, default=20, help="configurations per n (default 20)")
    sweep.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    _add_tolerance_flags(sweep)
    sweep.set_defaults(handler=_cmd_sweep)

    bottema = sub.add_parser("bottema", help="quick apex-independence check on a fixed base")
    bottema.add_argument("--an", type=_parse_point, default=Point(0.0, 0.0), metavar="X,Y",
                         help="first base corner (default 0,0); write a negative X as --an=-1,0")
    bottema.add_argument("--bn", type=_parse_point, default=Point(2.0, 0.0), metavar="X,Y",
                         help="second base corner (default 2,0); write a negative X as --bn=-2,0")
    bottema.add_argument("--n", type=int, default=4, help="vertex count (default 4)")
    bottema.add_argument("--samples", type=int, default=100, help="apex samples (default 100)")
    bottema.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    _add_tolerance_flags(bottema)
    bottema.set_defaults(handler=_cmd_bottema)
    return parser, sub.choices


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    parser, verbs = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = verbs.get(argv[0]) if argv else None
    if verb is None:
        return parser.parse_args(argv)
    args, extras = verb.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def _run(argv: Sequence[str] | None) -> int:
    args = _parse(argv)
    try:
        # A value valid over the default is valid over any base, so checking it
        # once here spares each verb its own check.
        _tolerance_override(args, DEFAULT_TOLERANCE)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    return args.handler(args)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        code = _run(argv)
        # A closed pipe raises here, not in the flush at interpreter exit.  With
        # descriptor 1 closed, stdout is None and ``print`` writes nothing.
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull, so that the exit-time
        # flush of what is still buffered cannot raise again (see the note on
        # SIGPIPE in the documentation of Python's signal module).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
