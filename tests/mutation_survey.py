"""Mutation survey: which one-token faults in sdualkit do verify and Tier-1 catch?

Each mutant makes one change to one module: it swaps + and - (also += and
-=), < and <=, > and >=, or == and !=; turns * into //; or raises an integer
constant from 0, 1 or 2 by one. The change is made in a temporary copy of
``src/``, ``tests/`` and ``perfbench/``, never in the working tree, and each
mutant is judged twice, each in its own subprocess:

- verify: ``sdualkit verify`` at its default seed. ``killed`` if it exits
  nonzero or times out, ``golden`` if it passes but its output differs from
  ``tests/golden/verify_default_seed.golden``, else ``survived``;
- Tier-1: ``pytest -x`` over the copied tests, ``killed`` or ``survived``.

One line is printed per mutant: its site (module:line:column), the change,
and both verdicts. Run it from the repository root, for example over lines
200-240 of spaces.py:

    python tests/mutation_survey.py --module spaces --lines 200-240

``--sample N`` judges N sites drawn with ``--seed`` instead of every site.
It uses the standard library only, and it is not a test: pytest does not
collect it.
"""

from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWAPS = {
    ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "//"),
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="),
}
VERIFY_TIMEOUT, TIER1_TIMEOUT = 120, 600


def _offset(starts: list[int], line: int, col: int) -> int:
    return starts[line - 1] + col


def sites(source: str) -> list[tuple[int, int, int, str, str]]:
    """Every mutation site of ``source``, as (start, end, line, old, new) with
    [start, end) the characters replaced, in source order."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for text in lines:
        starts.append(starts[-1] + len(text.encode("utf-8")))
    data = source.encode("utf-8")
    found = []

    def operator(op, before, after, line):
        # The token lies between its two operands, with only blanks, brackets
        # and line breaks beside it.
        old, new = SWAPS[type(op)]
        lo = _offset(starts, before.end_lineno, before.end_col_offset)
        hi = _offset(starts, after.lineno, after.col_offset)
        gap = data[lo:hi].decode("utf-8")
        at = gap.find(old)
        found.append((lo + at, lo + at + len(old), line, old, new))

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            operator(node.op, node.left, node.right, node.lineno)
        elif isinstance(node, ast.AugAssign) and type(node.op) in (ast.Add, ast.Sub):
            old, new = SWAPS[type(node.op)]
            lo = _offset(starts, node.target.end_lineno, node.target.end_col_offset)
            hi = _offset(starts, node.value.lineno, node.value.col_offset)
            at = lo + data[lo:hi].decode("utf-8").find(old + "=")
            found.append((at, at + 2, node.lineno, old + "=", new + "="))
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                if type(op) in SWAPS:
                    operator(op, left, right, node.lineno)
        elif isinstance(node, ast.Constant) and type(node.value) is int and 0 <= node.value <= 2:
            lo = _offset(starts, node.lineno, node.col_offset)
            hi = _offset(starts, node.end_lineno, node.end_col_offset)
            if data[lo:hi].decode("utf-8") == str(node.value):  # not 0x0, 1_0 and the like
                found.append((lo, hi, node.lineno, str(node.value), str(node.value + 1)))
    return sorted(found)


def _run(argv, cwd: Path, timeout: int) -> subprocess.CompletedProcess | None:
    env = dict(os.environ, PYTHONPATH=str(cwd / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("SDUALKIT_SEED", None)
    try:
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None


def judge(copy: Path) -> tuple[str, str]:
    """The verify and Tier-1 verdicts on the package in ``copy``."""
    done = _run([sys.executable, "-m", "sdualkit.cli", "verify"], copy, VERIFY_TIMEOUT)
    golden = (copy / "tests" / "golden" / "verify_default_seed.golden").read_text(encoding="utf-8")
    if done is None or done.returncode != 0:
        verify = "killed"
    else:
        verify = "survived" if done.stdout == golden else "golden"
    tier1 = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "tests"]
    done = _run(tier1, copy, TIER1_TIMEOUT)
    return verify, "survived" if done is not None and done.returncode == 0 else "killed"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--module", required=True, help="a module of sdualkit, e.g. spaces")
    parser.add_argument("--lines", default=None, help="only sites on lines FIRST-LAST")
    parser.add_argument("--seed", type=int, default=0, help="seed of the --sample draw")
    parser.add_argument("--sample", type=int, default=0, help="judge N sites drawn at random (0: all)")
    args = parser.parse_args()
    path = Path("src", "sdualkit", f"{args.module}.py")
    source = (ROOT / path).read_text(encoding="utf-8")
    chosen = sites(source)
    if args.lines:
        first, _, last = args.lines.partition("-")
        chosen = [s for s in chosen if int(first) <= s[2] <= int(last or first)]
    if args.sample:
        chosen = sorted(random.Random(args.seed).sample(chosen, min(args.sample, len(chosen))))
    data = source.encode("utf-8")
    with tempfile.TemporaryDirectory(prefix="sdualkit-mutants-") as scratch:
        copy = Path(scratch)
        ignore = shutil.ignore_patterns("__pycache__", "out", "*.egg-info")
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        counts: dict[tuple[str, str], int] = {}
        for start, end, line, old, new in chosen:
            column = start - data.rfind(b"\n", 0, start)
            site = f"{args.module}:{line}:{column} {old} -> {new}"
            (copy / path).write_bytes(data[:start] + new.encode("utf-8") + data[end:])
            verdicts = judge(copy)
            counts[verdicts] = counts.get(verdicts, 0) + 1
            print(f"{site}  verify {verdicts[0]}  tier1 {verdicts[1]}", flush=True)
    summary = "".join(f", {n} verify {v} / tier1 {t}" for (v, t), n in sorted(counts.items()))
    print(f"{len(chosen)} mutants{summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
