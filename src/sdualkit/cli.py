"""Command-line front end.

Exit codes: 0 ok, 1 verification failure, 2 malformed input (a parse error, or a
verify --filter that matches no check), 3 unsupported input, or a valid input
above one of the bounds below. The type of the error decides: an
exactalg.UnsupportedInputError exits 3, as does a document nested too deep;
every other ValueError, and an unreadable file, exits 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import deque

from . import brane, spaces
from .abelian_coulomb import (
    TorusTheory,
    _products,
    annihilating_cochars,
    present_rank1,
    reduce_multiplicative,
)
from .exactalg import MAX_DIGITS, UnsupportedInputError, text_ints
from .partitions import (
    Partition,
    centralizer_dim,
    chain_to_orbit,
    orbit_dim,
    transpose,
)


# Bounds on one command's work. Each was set from a measurement so that the
# slowest accepted input answers in about a second on a 2-vCPU machine.
MAX_N = 7_000  # a partition's total, and every integer of a dual document but its dims
MAX_CHAIN = 30  # the steps, and every entry, of an orbit chain
MAX_BRANES = 6_000  # the branes of a diagram
MAX_RANK = 16  # the rank of a theory
MAX_WEIGHTS = 40_000  # a theory's weight vectors, linear and multiplicative
MAX_WEIGHT = 1_024  # a theory's weight size, and a table's largest degree; see BOUNDS
MAX_TABLE_TERMS = 40_000  # see BOUNDS
MAX_TABLE_PAIRINGS = 5_000_000  # see BOUNDS
MAX_UNDO = 1_000  # the repl moves that undo can take back; older ones are dropped

BOUNDS = (
    "Bounds (a valid input above one exits 3): "
    f"the digits of every integer read, {MAX_DIGITS}; "
    f"a partition's total, {MAX_N}; every integer of a dual document but its dims, {MAX_N}; "
    f"the steps and the entries of an orbit chain, {MAX_CHAIN}; the branes of a diagram, "
    f"{MAX_BRANES}; the rank of a theory, {MAX_RANK}; its weight vectors, linear and "
    f"multiplicative, {MAX_WEIGHTS}; the weight size of a theory presented "
    "or dualized (the sum of the absolute values of its weights' entries), also after "
    f"multiplicative reduction, {MAX_WEIGHT}; for --table, the cutoff times the weight size "
    f"of the linear weights, {MAX_WEIGHT}, the weight size of each multiplicative weight, "
    f"{MAX_WEIGHT}, the cocharacters within the cutoff, {MAX_TABLE_TERMS}, its products, the pairs "
    "of cocharacters within the cutoff that annihilate the multiplicative weights, times the "
    f"linear weights, {MAX_TABLE_PAIRINGS}, and its terms, {MAX_TABLE_TERMS}, counting each product "
    "as the number of monomials of the table's largest degree in rank variables."
)


def _bound(what: str, value: int, limit: int) -> None:
    if value > limit:
        # A sum of integers read can pass the digits that str() renders.
        shown = value if value < 10**MAX_DIGITS else f"of more than {MAX_DIGITS} digits"
        raise UnsupportedInputError(f"{what} {shown} is above the bound {limit}")


def _weight_size(weights) -> int:
    return sum(abs(c) for w in weights for c in w.coeffs)


def _checked_weights(theory: TorusTheory) -> tuple:
    """The weight vectors of ``theory``, linear then multiplicative, once its
    rank and their number are within the bounds on every theory read."""
    _bound("theory rank", theory.rank, MAX_RANK)
    weights = theory.linear_weights + theory.multiplicative_weights
    _bound("weight vectors", len(weights), MAX_WEIGHTS)
    return weights


def _check_theory(theory: TorusTheory) -> None:
    """The bounds on a theory that is presented or dualized through its reduction."""
    _bound("weight size", _weight_size(_checked_weights(theory)), MAX_WEIGHT)
    reduced, _ = reduce_multiplicative(theory)
    _bound("reduced weight size", _weight_size(reduced.linear_weights), MAX_WEIGHT)


def _checked_table(theory: TorusTheory, cutoff: int) -> list:
    """The structure-constant table of ``theory`` to ``cutoff``, once within the bounds on --table."""
    _checked_weights(theory)
    rank, linear = theory.rank, len(theory.linear_weights)
    _bound("cochar box", (2 * max(cutoff, 0) + 1) ** rank, MAX_TABLE_TERMS)
    # r[lam] * r[mu] has degree at most cutoff * sum_j |a_j|_1.
    degree = cutoff * _weight_size(theory.linear_weights)
    _bound("cutoff times linear weight size", degree, MAX_WEIGHT)
    # Each multiplicative weight may enter a kernel, whose cost grows with its digits.
    size = max((sum(map(abs, b.coeffs)) for b in theory.multiplicative_weights), default=0)
    _bound("multiplicative weight size", size, MAX_WEIGHT)
    cochars = annihilating_cochars(theory, cutoff)  # which refuses a negative cutoff
    # Each product's exponents take one step per linear weight.
    products = len(cochars) ** 2
    _bound("products times linear weights", products * linear, MAX_TABLE_PAIRINGS)
    monomials = math.comb(degree + rank - 1, rank - 1) if rank else 1
    _bound("table size", products * monomials, MAX_TABLE_TERMS)
    return _products(theory, cochars)


def _integers(doc) -> list[int]:
    """Every integer of a JSON document but those under a "dim" key."""
    if isinstance(doc, dict):
        return [n for key, value in doc.items() if key != "dim" for n in _integers(value)]
    if isinstance(doc, list):
        return [n for value in doc for n in _integers(value)]
    return [abs(doc)] if type(doc) is int else []


UNSUPPORTED = (
    UnsupportedInputError,
    RecursionError,  # a document nested deeper than the interpreter recurses
)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 2 with an ``error:`` line first, as every other malformed input does."""

    def error(self, message: str):
        self.exit(2, f"error: {message}\n{self.format_usage()}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sdualkit",
        description="Exact Coulomb-branch presentations, brane-diagram calculus, and S-dual pairs.",
        epilog=BOUNDS,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coulomb", help="present the Coulomb branch of a torus theory")
    p.add_argument("--table", action="store_true", help="print the structure-constant table")
    p.add_argument("--cutoff", default="1", help="cocharacter cutoff for --table")
    p.add_argument("--json", action="store_true")
    p.add_argument("input", help="theory JSON file, or - for stdin")

    p = sub.add_parser("diagram", help="operate on a brane diagram")
    p.add_argument("action", choices=tuple(DIAGRAM_COMMANDS))
    p.add_argument("--json", action="store_true")
    p.add_argument("args", nargs="+", help="[index] diagram-text")

    p = sub.add_parser("orbit", help="nilpotent-orbit combinatorics")
    p.add_argument("action", choices=("chain", "dual", "dims"))
    p.add_argument("--json", action="store_true")
    p.add_argument("args", nargs="+", help="dimension chain or partition")

    p = sub.add_parser("dual", help="S-dual of a space descriptor")
    p.add_argument("--json", action="store_true")
    p.add_argument("input", help="descriptor JSON file, or - for stdin")

    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--filter", default=None, help="run only checks whose name contains this")
    p.add_argument("--seed", default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser(
        "repl",
        help="interactive diagram manipulation",
        epilog="Commands, one a line: hw <index>, sdual, linking, dims, undo, quit. undo takes "
        f"back the last move; the last {MAX_UNDO} moves are kept, and older ones are dropped.",
    )
    p.add_argument("diagram", help="initial diagram text")

    return parser


def _read_document(path: str):
    """The JSON document at ``path`` (- for stdin), its integers read by text_ints."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    return json.loads(text, parse_int=lambda tok: text_ints((tok,), "document integer")[0])


def _emit(args, to_json, to_text) -> int:
    """Print ``to_json()`` as sorted JSON under --json, else ``to_text()``; only one is built."""
    print(json.dumps(to_json(), sort_keys=True) if args.json else to_text())
    return 0


def _rendered(table):
    """The entries of ``table``, each distinct factor object rendered once."""
    texts = {}  # by id; the table keeps every factor alive, so no id is reused
    for lam, mu, p in table:
        if id(p) not in texts:
            texts[id(p)] = str(p)
        yield lam, mu, texts[id(p)]


def _table_json(table, rank: int) -> dict:
    entries = [{"lam": list(lam), "mu": list(mu), "coefficient": c} for lam, mu, c in _rendered(table)]
    return {"table": entries, "rank": rank}


def _table_text(table) -> str:
    lines = []
    for lam, mu, factor in _rendered(table):
        total = tuple(a + b for a, b in zip(lam, mu))
        left = f"r[{','.join(map(str, lam))}] * r[{','.join(map(str, mu))}]"
        right = f"r[{','.join(map(str, total))}]"
        lines.append(f"{left} = {right}" if factor == "1" else f"{left} = {factor} {right}")
    return "\n".join(lines)


def _cmd_coulomb(args) -> int:
    (cutoff,) = text_ints((args.cutoff,), "cutoff")
    theory = TorusTheory.from_json(_read_document(args.input))
    if args.table:
        table = _checked_table(theory, cutoff)
        return _emit(args, lambda: _table_json(table, theory.rank), lambda: _table_text(table))
    _check_theory(theory)
    presentation = present_rank1(theory)
    return _emit(args, presentation.to_json, presentation.__str__)


def _diagram(text: str) -> brane.BraneDiagram:
    diagram = brane.BraneDiagram.parse(text)
    _bound("diagram length", len(diagram), MAX_BRANES)
    return diagram


# Each diagram command's integer arguments, as its usage names them, and its brane function.
DIAGRAM_COMMANDS = {
    "sdual": ((), brane.sdual),
    "hw": (("<index>",), brane.hw_move),
    "linking": ((), brane.linking_numbers),
}


def _diagram_command(name: str, tokens, usage: str = "{}"):
    """The brane function of diagram command ``name`` and the integers of ``tokens``, whose
    wrong number is refused with ``usage``, the command's usage line put in for its ``{}``."""
    params, run = DIAGRAM_COMMANDS[name]
    if len(tokens) != len(params):
        raise ValueError("usage: " + usage.format(" ".join([name, *params])))
    return run, text_ints(tokens, "move index")


def _cmd_diagram(args) -> int:
    run, ints = _diagram_command(args.action, args.args[:-1], "diagram {} <diagram>")
    result = run(_diagram(args.args[-1]), *ints)
    return _emit(args, result.to_json, result.__str__)


def _cmd_orbit(args) -> int:
    if args.action == "chain":
        # Entries are separated by commas or whitespace; no entry between two
        # separators is empty, and an empty chain is left to chain_to_orbit.
        entries = [piece.split() for arg in args.args for piece in arg.split(",")]
        if len(entries) > 1 and [] in entries:
            raise ValueError(f"empty entry in the chain {','.join(args.args)!r}")
        dims = text_ints([token for piece in entries for token in piece], "chain entry")
        _bound("chain length", len(dims) - 1, MAX_CHAIN)
        _bound("chain entry", max(dims, default=0), MAX_CHAIN)
        # The orbit-closure reading, printed even where it is a point (all parts 1).
        lam = chain_to_orbit(dims)
        dim = orbit_dim(lam)
        payload = {"n": lam.n, "jordan_type": list(lam.parts), "kind": "orbit_closure", "dim": dim}
        text = f"{spaces.orbit_closure_text(lam)}  (dim {dim})"
        return _emit(args, lambda: payload, lambda: text)
    if len(args.args) != 1:
        raise ValueError(f"usage: orbit {args.action} <partition>")
    lam = Partition.parse(args.args[0])
    _bound("partition total", lam.n, MAX_N)
    if args.action == "dual":
        result = transpose(lam)
        return _emit(args, lambda: {"partition": list(result.parts)}, result.__str__)
    orbit, centralizer = orbit_dim(lam), centralizer_dim(lam)
    payload = {"partition": list(lam.parts), "orbit_dim": orbit, "centralizer_dim": centralizer}
    text = f"orbit_dim {orbit}  centralizer_dim {centralizer}"
    return _emit(args, lambda: payload, lambda: text)


def _cmd_dual(args) -> int:
    data = _read_document(args.input)
    _bound("document integer", max(_integers(data), default=0), MAX_N)
    if isinstance(data, dict) and "rank" in data and "kind" not in data:
        descriptor = spaces.SpaceDescriptor.cotangent_of_rep(theory=TorusTheory.from_json(data))
    else:
        descriptor = spaces.SpaceDescriptor.from_json(data)
    if descriptor.theory is not None:
        _check_theory(descriptor.theory)
    dual = spaces.sdual_pair(descriptor)
    return _emit(args, dual.to_json, dual.__str__)


def _cmd_verify(args) -> int:
    from . import verify  # only this subcommand pays for importing the suite

    seed = None if args.seed is None else text_ints((args.seed,), "seed")[0]
    results = verify.run_checks(name_filter=args.filter, seed=seed)
    if not results:
        names = ", ".join(name for name, _ in verify.CHECKS)
        raise ValueError(f"--filter {args.filter!r} matches no check; checks are {names}")
    ok = all(r.passed for r in results)
    if args.json:
        payload = {
            "seed": verify.resolve_seed(seed),
            "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
            "passed": ok,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        print(f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


def run_repl(initial: brane.BraneDiagram, in_stream, out) -> int:
    """Line-command loop: the DIAGRAM_COMMANDS (hw <i>, sdual, linking), dims, undo, quit.

    Each diagram command runs through its table row, as in ``diagram``. A command
    given the wrong number of tokens is refused with its usage line and changes
    nothing. Both moves are involutions, so the history keeps the last MAX_UNDO
    moves (brane function and indices), not diagrams, and undo makes the last again.
    """
    diagram = initial
    history: deque[tuple] = deque(maxlen=MAX_UNDO)

    def show() -> None:
        out.write(diagram.render() + "\n")
        out.write(str(brane.linking_numbers(diagram)) + "\n")

    show()
    for line in in_stream:
        tokens = line.split()
        if not tokens:
            continue
        op = tokens[0]
        try:
            if op in DIAGRAM_COMMANDS:
                run, ints = _diagram_command(op, tokens[1:])
                result = run(diagram, *ints)
                if isinstance(result, brane.BraneDiagram):  # a move; show() gives linking
                    diagram = result
                    history.append((run, ints))
            elif op not in ("dims", "undo", "quit"):
                raise ValueError(f"unknown command {op!r}")
            elif len(tokens) != 1:
                raise ValueError(f"usage: {op}")
            elif op == "quit":
                break
            elif op == "dims":
                out.write(" ".join(str(d) for d in diagram.dims) + "\n")
            elif not history:
                raise ValueError("nothing to undo")
            else:
                run, ints = history.pop()
                diagram = run(diagram, *ints)
        except ValueError as exc:
            out.write(f"error: {exc}\n")
            continue
        show()
    return 0


def _cmd_repl(args) -> int:
    return run_repl(_diagram(args.diagram), sys.stdin, sys.stdout)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    handlers = {
        "coulomb": _cmd_coulomb,
        "diagram": _cmd_diagram,
        "orbit": _cmd_orbit,
        "dual": _cmd_dual,
        "verify": _cmd_verify,
        "repl": _cmd_repl,
    }
    try:
        return handlers[args.command](args)
    except UNSUPPORTED as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
