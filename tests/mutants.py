"""A mutation score for ``src/equigon``: does some test fail when the code changes?

Each mutant is one edit to one logic module (every module but ``__init__``
and ``__main__``):
- a statement inside a function deleted, that is replaced by ``pass``;
- one operator flipped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``+`` and ``-``, ``*`` and ``/`` (also in augmented assignments).

The mutants are enumerated in a fixed order and a seeded sample of them is
run.  Each runs in a copy of the repository in a temporary directory
(``TMPDIR`` chooses where), never in the checkout itself:
the module is edited there, tier-1 runs once with ``-x`` (one pytest process
at a time, without the console-script test, which needs an installed
package), and the module is restored.  A mutant is killed when the run
fails or outlasts ``TIMEOUT_S``, and survives when it passes.  Each
mutant's ``file:line`` and fate are printed as it finishes, then the score.

    python3 tests/mutants.py [--count 45] [--seed 31]

Pytest does not collect this file, and CI does not run it.  It exits 0
whatever the score, and 1 when tier-1 fails with no mutant; a survivor is a
finding for a new test, an equivalence argument or a deletion.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "equigon"
SKIPPED_MODULES = ("__init__.py", "__main__.py")
DESELECTED = "tests/test_cli.py::test_console_script_subprocess"
# Tier-1 takes about 25 s; a mutant that makes it loop is killed after this.
TIMEOUT_S = 300.0
FLIPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "/"), ast.Div: ("/", "*"),
}


class Mutant(NamedTuple):
    """Replace ``source[start:end]`` of the module at ``path`` (UTF-8 bytes) by ``new``."""

    path: Path
    line: int
    start: int
    end: int
    new: bytes
    what: str


def _offsets(source: bytes) -> list[int]:
    """The byte offset of each line's start; ``ast`` columns are UTF-8 byte offsets."""
    starts, at = [0, 0], 0
    for line in source.splitlines(keepends=True):
        at += len(line)
        starts.append(at)
    return starts


def _flip(path: Path, source: bytes, starts: list[int], left: ast.AST, op: ast.AST,
          right: ast.AST, augmented: bool) -> Mutant | None:
    """The flip of ``op``, found as the one occurrence of its symbol between its
    operands; none where the gap holds the symbol more or fewer times than once."""
    old, new = FLIPS[type(op)]
    if augmented:
        old, new = old + "=", new + "="
    gap_start = starts[left.end_lineno] + left.end_col_offset
    gap = source[gap_start:starts[right.lineno] + right.col_offset]
    symbol = old.encode()
    rest = gap.replace(symbol, b"", 1)
    if gap.count(symbol) != 1 or any(mark in rest for mark in b"<>=!+-*/#"):
        return None
    at = gap_start + gap.index(symbol)
    return Mutant(path, source.count(b"\n", 0, at) + 1, at, at + len(symbol), new.encode(), f"{old} -> {new}")


def _mutants_of(path: Path) -> list[Mutant]:
    source = path.read_bytes()
    starts, tree = _offsets(source), ast.parse(source)
    found: list[Mutant | None] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and type(node.op) in FLIPS:
            found.append(_flip(path, source, starts, node.left, node.op, node.right, False))
        elif isinstance(node, ast.AugAssign) and type(node.op) in FLIPS:
            found.append(_flip(path, source, starts, node.target, node.op, node.value, True))
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in FLIPS:
                    found.append(_flip(path, source, starts, left, op, right, False))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                for field in ("body", "orelse", "finalbody"):
                    body = getattr(inner, field, None)
                    for statement in body if isinstance(body, list) else ():
                        if isinstance(statement, ast.Pass):
                            continue
                        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
                            continue  # a docstring
                        start = starts[statement.lineno] + statement.col_offset
                        end = starts[statement.end_lineno] + statement.end_col_offset
                        text = source[start:end].decode().splitlines()[0]
                        found.append(Mutant(path, statement.lineno, start, end, b"pass", f"delete {text!r}"))
    return sorted({m for m in found if m is not None and _compiles(source, m)},
                  key=lambda m: (m.line, m.start, m.end, m.new))


def _compiles(source: bytes, mutant: Mutant) -> bool:
    """Whether the mutated module still compiles: a syntax error tests nothing."""
    try:
        compile(source[:mutant.start] + mutant.new + source[mutant.end:], str(mutant.path), "exec")
    except SyntaxError:
        return False
    return True


def enumerate_mutants(root: Path) -> list[Mutant]:
    """Every mutant of the logic modules under ``root``, in a fixed order; paths relative to ``root``."""
    out = []
    for path in sorted((root / PACKAGE).glob("*.py")):
        if path.name not in SKIPPED_MODULES:
            out += [m._replace(path=path.relative_to(root)) for m in _mutants_of(path)]
    return out


def run_tests(workdir: Path) -> tuple[bool, str]:
    """Tier-1 in ``workdir`` with ``-x``: whether it passed, and how it ended."""
    env = {**os.environ, "PYTHONPATH": str(workdir / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--deselect", DESELECTED]
    proc = subprocess.Popen(argv, cwd=workdir, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            start_new_session=True)
    try:
        output = proc.communicate(timeout=TIMEOUT_S)[0].decode(errors="replace")
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return False, "timed out"
    lines = output.strip().splitlines()
    return proc.returncode == 0, lines[-1] if lines else f"exit {proc.returncode}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--count", type=int, default=45, help="mutants to sample (default 45)")
    parser.add_argument("--seed", type=int, default=31, help="seed of the sample (default 31)")
    args = parser.parse_args(argv)
    every = enumerate_mutants(ROOT)
    sample = sorted(random.Random(args.seed).sample(every, min(args.count, len(every))),
                    key=lambda m: (str(m.path), m.line, m.start))
    workdir = Path(tempfile.mkdtemp(prefix="mutants-"))
    began, survivors = time.monotonic(), []
    try:
        shutil.copytree(ROOT, workdir, dirs_exist_ok=True, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out", "*.egg-info"))
        passed, how = run_tests(workdir)
        if not passed:
            print(f"tier-1 fails without a mutant ({how}): no score", file=sys.stderr)
            return 1
        print(f"{len(every)} mutants, {len(sample)} sampled (seed {args.seed})", flush=True)
        for mutant in sample:
            target = workdir / mutant.path
            original = target.read_bytes()
            target.write_bytes(original[:mutant.start] + mutant.new + original[mutant.end:])
            started = time.monotonic()
            try:
                passed, how = run_tests(workdir)
            finally:
                target.write_bytes(original)
            fate = "SURVIVED" if passed else "killed"
            print(f"{mutant.path}:{mutant.line}  {mutant.what}  {fate} ({how}; {time.monotonic() - started:.1f} s)",
                  flush=True)
            if passed:
                survivors.append(mutant)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    killed = len(sample) - len(survivors)
    print(f"score: {killed}/{len(sample)} killed, {len(survivors)} survived, {time.monotonic() - began:.0f} s")
    for mutant in survivors:
        print(f"survivor: {mutant.path}:{mutant.line}  {mutant.what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
