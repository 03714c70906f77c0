"""The CLI behaviour corpus: a fixed list of invocations and what each one did.

Each line of ``tests/golden/cli_corpus.jsonl`` records one in-process run of
``cli.main``: its argv, its stdin (null for an empty stream), the environment
it set (``SDUALKIT_SEED`` only), the exit code, the first line of stderr, and
stdout, or stdout's sha256 and length above STDOUT_LIMIT bytes. The repl runs
through ``cli.main`` too, its scripted stdin feeding ``run_repl``.

The corpus pins behaviour, not correctness: it shows which outputs a change
moves, and says nothing about whether they were right. Exit 1 (a failed
verification) does not occur, since every check passes on working code;
``verify`` runs only cheap checks through ``--filter``, as the acceptance
golden pins the full run.

Rewrite the corpus from the current sources with

    PYTHONPATH=src python tests/cli_corpus.py

or list the lines that the current sources change, without writing, with
``--diff``, which exits 1 if any line changed and 0 otherwise.
``tests/test_cli_corpus.py`` replays it.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from sdualkit import cli

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.jsonl"
STDOUT_LIMIT = 4096
# argparse wraps help text to the terminal width, read from COLUMNS first.
FIXED_ENV = {"COLUMNS": "80"}
SEED_VAR = "SDUALKIT_SEED"


def run(argv, stdin=None, env=None) -> dict:
    """The record of one ``cli.main(argv)`` run with ``stdin`` and ``env``."""
    saved = {key: os.environ.get(key) for key in (*FIXED_ENV, SEED_VAR)}
    os.environ.update(FIXED_ENV)
    os.environ.pop(SEED_VAR, None)
    os.environ.update(env or {})
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(argv))
    finally:
        sys.stdin = saved_stdin
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    record = {
        "argv": list(argv),
        "stdin": stdin,
        "env": env,
        "exit": code,
        "stderr": err.getvalue().partition("\n")[0],
    }
    data = out.getvalue().encode("utf-8")
    if len(data) > STDOUT_LIMIT:
        record["stdout_sha256"] = hashlib.sha256(data).hexdigest()
        record["stdout_bytes"] = len(data)
    else:
        record["stdout"] = out.getvalue()
    return record


def _doc(data) -> str:
    return json.dumps(data, separators=(",", ":"))


def _both(argv, stdin=None):
    """``argv`` in text mode and with --json after the subcommand."""
    return [(argv, stdin), ([argv[0], "--json", *argv[1:]], stdin)]


THEORIES = [
    {"rank": 0},
    {"rank": 1},
    {"rank": 1, "linear_weights": [[1]]},
    {"rank": 1, "linear_weights": [[1], [1]]},
    {"rank": 1, "linear_weights": [[1], [1], [1]]},
    {"rank": 1, "linear_weights": [[-1]]},
    {"rank": 1, "linear_weights": [[0]]},
    {"rank": 1, "linear_weights": [[2]]},
    {"rank": 1, "linear_weights": [[3]]},
    {"rank": 1, "linear_weights": [[1], [2]]},
    {"rank": 1, "linear_weights": [[1], [-1], [2]]},
    {"rank": 1, "multiplicative_weights": [[1]]},
    {"rank": 1, "linear_weights": [[1]], "multiplicative_weights": [[2]]},
    {"rank": 2, "linear_weights": [[1, 0]]},
    {"rank": 2, "linear_weights": [[1, 1]]},
    {"rank": 2, "linear_weights": [[1, -1], [0, 1]]},
    {"rank": 2, "linear_weights": [[0, 0]]},
    {"rank": 2, "linear_weights": [[1, 0], [0, 1]], "multiplicative_weights": [[1, -1]]},
    {"rank": 2, "linear_weights": [[1, 1]], "multiplicative_weights": [[2, -1]]},
    {"rank": 2, "linear_weights": [[1, 2], [3, 0]], "multiplicative_weights": [[1, 1]]},
    {"rank": 3, "linear_weights": [[1, 0, 0], [0, 1, 1]]},
    {"rank": 3, "linear_weights": [[1, 1, 1]], "multiplicative_weights": [[1, -1, 0], [0, 1, -1]]},
]

MALFORMED_THEORIES = [
    "",
    "{nope",
    "[]",
    "null",
    '{"rank":1.5}',
    '{"rank":true}',
    '{"rank":-1}',
    '{"rank":"1"}',
    '{"linear_weights":[[1]]}',
    '{"rank":1,"linear_weights":[[1,2]]}',
    '{"rank":1,"linear_weights":"x"}',
    '{"rank":1,"linear_weights":[1]}',
    '{"rank":1,"linear_weights":[[1.0]]}',
    '{"rank":1,"linear_weights":[["1"]]}',
    '{"rank":1,"multiplicative_weights":[[true]]}',
    '{"rank":1,"linear_weight":[[1]]}',
    '{"rank":1,"extra":1}',
    '{"rank":01}',
]

GL2, GL3 = {"kind": "gl", "n": 2}, {"kind": "gl", "n": 3}
T1, T2 = {"kind": "torus", "rank": 1}, {"kind": "torus", "rank": 2}
PRODUCT = {"kind": "product", "factors": [{"kind": "gl", "n": 1}, GL2]}
THEORY = {"rank": 1, "linear_weights": [[1], [1]]}

DESCRIPTORS = [
    {"kind": "point"},
    {"kind": "point", "dim": 0},
    {"kind": "point", "left_group": GL2},
    {"kind": "point", "left_group": T2},
    {"kind": "point", "right_group": GL3},
    {"kind": "point", "left_group": GL2, "right_group": GL3},
    {"kind": "point", "left_group": T1, "right_group": T2},
    {"kind": "point", "left_group": PRODUCT},
    {"kind": "point", "left_group": {"kind": "product", "factors": [GL2]}},
    {"kind": "point", "left_group": {"kind": "product", "factors": []}},
    {"kind": "torus_cotangent", "rank": 2},
    {"kind": "torus_cotangent", "rank": 0},
    {"kind": "torus_cotangent", "rank": 2, "dim": 4},
    {"kind": "torus_cotangent", "rank": 2, "left_group": GL3},
    {"kind": "torus_cotangent", "rank": 2, "right_group": GL2},
    {"kind": "torus_cotangent", "rank": 2, "right_group": PRODUCT},
    {"kind": "cotangent_of_group", "group": GL3, "dim": 18},
    {"kind": "cotangent_of_group", "group": {"kind": "gl", "n": 0}},
    {"kind": "cotangent_of_group", "group": T2},
    {"kind": "cotangent_of_group", "group": GL3, "right_group": GL2},
    {"kind": "cotangent_of_group", "group": T2, "right_group": GL2},
    {"kind": "cotangent_of_group", "group": PRODUCT},
    {"kind": "group_times_slice", "group": GL3, "partition": [2, 1]},
    {"kind": "group_times_slice", "group": GL3, "partition": [3]},
    {"kind": "group_times_slice", "group": GL3, "partition": [1, 1, 1]},
    {"kind": "group_times_slice", "group": T2, "partition": []},
    {"kind": "group_times_slice", "group": GL3, "partition": [2, 2]},
    {"kind": "group_times_slice", "group": GL3, "partition": [2, 1], "left_group": GL3, "right_group": {"kind": "gl", "n": 1}},
    {"kind": "group_times_slice", "group": GL3, "partition": [1, 1, 1], "left_group": GL3, "right_group": GL3},
    {"kind": "group_times_slice", "group": GL3, "partition": [2, 1], "right_group": GL2},
    {"kind": "orbit_closure", "n": 3, "partition": [2, 1]},
    {"kind": "orbit_closure", "n": 3, "partition": [3], "group": GL3},
    {"kind": "orbit_closure", "n": 3, "partition": [1, 1, 1]},
    {"kind": "orbit_closure", "n": 3, "partition": [2, 1], "group": GL2},
    {"kind": "orbit_closure", "n": 4, "partition": [2, 1]},
    {"kind": "orbit_closure", "n": 3, "partition": [2, 1], "right_group": GL2},
    {"kind": "orbit_closure", "n": 3, "partition": [2, 1], "conjecture": True},
    {"kind": "type_A_singularity", "index": 2},
    {"kind": "type_A_singularity", "index": 0},
    {"kind": "cotangent_of_rep", "dims": [2, 3]},
    {"kind": "cotangent_of_rep", "dims": [1, 1]},
    {"kind": "cotangent_of_rep", "dims": [0, 3]},
    {"kind": "cotangent_of_rep", "dims": [2, 3], "left_group": T2},
    {"kind": "cotangent_of_rep", "dims": [2, -3]},
    {"kind": "cotangent_of_rep", "dims": [2, 3, 4]},
    {"kind": "cotangent_of_rep", "dims": [2, 3], "theory": THEORY},
    {"kind": "cotangent_of_rep"},
    {"kind": "cotangent_of_rep", "theory": THEORY},
    {"kind": "cotangent_of_rep", "theory": THEORY, "left_group": GL2},
    {"kind": "cotangent_of_rep", "theory": THEORY, "right_group": GL2},
    {"kind": "cotangent_of_rep", "theory": {"rank": 2, "linear_weights": [[1, 0]]}},
    {"kind": "product", "factors": [{"kind": "cotangent_of_group", "group": GL2}, {"kind": "cotangent_of_rep", "dims": [1, 2]}], "left_group": GL2, "right_group": GL2},
    {"kind": "product", "factors": [{"kind": "point"}, {"kind": "torus_cotangent", "rank": 1}]},
    {"kind": "product", "factors": {"kind": "point"}},
    {"kind": "coulomb_branch", "theory": THEORY},
    {"kind": "reduced", "dim": 4},
    {"kind": "reduced", "dim": 4, "possibly_singular": True},
    {"kind": "orbit_closure", "n": 3, "partition": [2, 1], "possibly_singular": "yes"},
    {"kind": "orbit_closure", "n": 3, "partition": [2, 1], "dim": 5},
    {"kind": "orbit_closure", "n": 3, "partition": [2, 1], "dim": 4.0},
    {"kind": "orbit_closure", "n": 3, "partition": [2, 1], "colour": 1},
    {"kind": "orbit_closure", "partition": [2, 1]},
    {"kind": "point", "left_group": {"kind": "gl", "n": -1}},
    {"kind": "point", "left_group": {"kind": "gl"}},
    {"kind": "point", "left_group": {"kind": "sl", "n": 2}},
    {"kind": "point", "left_group": {"kind": "product", "factors": GL2}},
    {"kind": "sphere"},
    {"kind": 3},
    {},
    [],
]

# Spaces acted on from the right only, each with its dual on the right, and a
# document stating the retired right_twisted flag. They follow every other case.
ONE = {"kind": "torus", "rank": 0}
RIGHT_SIDED = [
    {"kind": "torus_cotangent", "rank": 2, "left_group": ONE, "right_group": T2},
    {"kind": "orbit_closure", "n": 3, "partition": [2, 1], "left_group": ONE, "right_group": GL3},
    {"kind": "cotangent_of_group", "group": GL3, "left_group": ONE, "right_group": GL3},
    {"kind": "group_times_slice", "group": GL3, "partition": [2, 1], "left_group": ONE, "right_group": GL3},
    # m_cross(0, 3)
    {"kind": "group_times_slice", "group": GL3, "partition": [3], "left_group": ONE, "right_group": GL3},
    {"kind": "reduced", "dim": 4, "right_twisted": True},
]

# Torus theories acted on from the right only, each dualized on the right, and
# one acted on from both sides, which has no dual. They follow RIGHT_SIDED.
RIGHT_SIDED_THEORIES = [
    {
        "kind": "cotangent_of_rep",
        "theory": theory,
        "left_group": ONE,
        "right_group": {"kind": "torus", "rank": theory["rank"]},
    }
    for theory in (
        THEORY,
        {"rank": 1, "linear_weights": [[1]]},
        {"rank": 1, "linear_weights": [[2], [-1], [0]]},
        {"rank": 1, "multiplicative_weights": [[2]]},
        {"rank": 2, "linear_weights": []},
        {"rank": 2, "linear_weights": [[1, 0], [2, 1]]},
        {"rank": 2, "linear_weights": [[1, 0], [0, 1]], "multiplicative_weights": [[1, -1]]},
    )
] + [{"kind": "cotangent_of_rep", "theory": THEORY, "left_group": T1, "right_group": T1}]

# One document of each kind stating a wrong dim (for reduced, whose dim is its
# payload, a dim that is no integer), among them the three that read as a
# point: an orbit closure of type 1^n, a torus_cotangent of rank 0 and a
# cotangent_of_rep with a zero dim. Each message names the document's kind.
# They follow RIGHT_SIDED_THEORIES.
STATED_DIMS = [
    {"kind": "point", "dim": 1},
    {"kind": "cotangent_of_rep", "dims": [2, 3], "dim": 10},
    {"kind": "cotangent_of_rep", "theory": THEORY, "dim": 2},
    {"kind": "cotangent_of_rep", "dims": [0, 3], "dim": 6},
    {"kind": "cotangent_of_group", "group": GL3, "dim": 9},
    {"kind": "group_times_slice", "group": GL3, "partition": [2, 1], "dim": 13},
    {"kind": "orbit_closure", "n": 3, "partition": [1, 1, 1], "dim": 2},
    {"kind": "type_A_singularity", "index": 2, "dim": 5},
    {"kind": "torus_cotangent", "rank": 0, "dim": 2},
    {"kind": "torus_cotangent", "rank": 2, "dim": 2},
    {"kind": "product", "factors": [{"kind": "point"}, {"kind": "torus_cotangent", "rank": 1}], "dim": 4},
    {"kind": "coulomb_branch", "theory": THEORY, "dim": 4},
    {"kind": "reduced", "dim": "4"},
]

DIAGRAMS = [
    "0 o 1 x 1 x 1 o 0",
    "0 x 1 o 1 o 1 x 0",
    "0 o 0",
    "0 x 0",
    "3",
    "0 o 1 o 2 o 3",
    "1 x 2 o 1",
    "0 o 2 x 0",
    "0 o 1 x 3 o 1 x 0",
    "0  o\t1 x\n0",
]

MALFORMED_DIAGRAMS = ["", "0 o", "0 q 0", "0 o -1", "0 o a", "0 o 1.5", "0 o +1", "0 o 1_0", "0 o ١", "0 ox 0"]

REPL_SCRIPTS = [
    ("0 o 1 x 1 x 1 o 0", "hw 0\nlinking\ndims\nsdual\nundo\nundo\nundo\nquit\nhw 0\n"),
    ("0 o 1 x 1 x 1 o 0", "\nfoo\nhw\nhw x\nhw 0 1\nhw 99\nhw -1\nhw 1\nhw 2\nsdual\ndims\n"),
    ("0 o 2 x 0", "hw 0\n"),
    ("3", "hw 0\nsdual\nlinking\n"),
    ("0 o 1 x 0", "hw " + "9" * (cli.MAX_DIGITS + 1) + "\nquit\n"),
]

# Each command given a token it does not take, after one move: the dims and
# the undo that follow show the diagram and the history unchanged.
REPL_EXTRA_TOKENS = ["sdual foo", "undo 3", "dims x", "linking 1", "quit now"]

PARTITIONS = ["[4,2,1]", "[2,1]", "[1]", "[]", "[3,3]", "[1,2]", "[5,0]", " [ 2 , 1 ] ", "[6,5,5,2,1,1]"]
MALFORMED_PARTITIONS = ["4,2", "[a]", "[-1]", "[1.5]", "[2;1]", "[٢]", "[+2]", "[2,1"]

CHAINS = ["0,1,2,3", "0 1 2", "0,2,3", "0,1,3", "0,2,2,3", "0", "0,0,0", "0,1,1,1", "0,3,4,6", "0,2,5,6,6"]
MALFORMED_CHAINS = ["1,2", "0,3,1", "0,-1", "0,a", "", "0,,1", "0,1_0"]


def _bound_cases():
    """One case at and one above each bound that ``--help`` lists."""
    digits, n = cli.MAX_DIGITS, cli.MAX_N
    big = "9" * digits
    cases = [
        # the digits of every integer read
        (["verify", "--filter", "hyperspherical", "--seed", big], None),
        (["verify", "--filter", "hyperspherical", "--seed", "9" + big], None),
        (["verify", "--filter", "hyperspherical", "--seed", "-" + big], None),
        (["coulomb", "-"], '{"rank":1,"linear_weights":[[' + big + "]]}"),
        (["coulomb", "-"], '{"rank":1,"linear_weights":[[9' + big + "]]}"),
        # a partition's total
        (["orbit", "dims", f"[{n}]"], None),
        (["orbit", "dims", f"[{n + 1}]"], None),
        (["orbit", "dual", f"[{n - 1}, 1]"], None),
        (["orbit", "dual", f"[{n}, 1]"], None),
        # every integer of a dual document but its dims
        (["dual", "-"], _doc({"kind": "point", "left_group": {"kind": "gl", "n": n}})),
        (["dual", "-"], _doc({"kind": "point", "left_group": {"kind": "gl", "n": n + 1}})),
        (["dual", "-"], _doc({"kind": "reduced", "dim": n + 1})),
        # the steps and the entries of an orbit chain
        (["orbit", "chain", ",".join(map(str, range(cli.MAX_CHAIN + 1)))], None),
        (["orbit", "chain", ",".join(map(str, range(cli.MAX_CHAIN + 2)))], None),
        (["orbit", "chain", "0" + ",0" * (cli.MAX_CHAIN - 1) + ",1"], None),
        (["orbit", "chain", "0" + ",0" * cli.MAX_CHAIN + ",1"], None),
        (["orbit", "chain", f"0,{cli.MAX_CHAIN}"], None),
        (["orbit", "chain", f"0,{cli.MAX_CHAIN + 1}"], None),
        (["orbit", "chain", "0,20,30"], None),
        # the branes of a diagram
        (["diagram", "linking", "0" + " o 0" * cli.MAX_BRANES], None),
        (["diagram", "linking", "0" + " o 0" * (cli.MAX_BRANES + 1)], None),
        (["repl", "0" + " x 0" * cli.MAX_BRANES], "dims\nquit\n"),
        (["repl", "0" + " x 0" * (cli.MAX_BRANES + 1)], "quit\n"),
    ]
    # the rank of a theory: rank 16 reduced to effective rank one, and to zero
    for rank in (cli.MAX_RANK, cli.MAX_RANK + 1):
        units = [[int(i == j) for j in range(rank)] for i in range(1, rank)]
        reduced_to_one = {"rank": rank, "linear_weights": [[1] * rank], "multiplicative_weights": units}
        cases += [
            (["coulomb", "-"], _doc(reduced_to_one)),
            (["dual", "-"], _doc(reduced_to_one)),
            (["coulomb", "-"], _doc({"rank": rank})),
            (["coulomb", "--table", "--cutoff", "0", "-"], _doc({"rank": rank})),
        ]
    w = cli.MAX_WEIGHT
    cases += [
        # the weight size of a theory presented or dualized
        (["coulomb", "-"], _doc({"rank": 1, "linear_weights": [[w]]})),
        (["coulomb", "-"], _doc({"rank": 1, "linear_weights": [[w + 1]]})),
        (["coulomb", "-"], _doc({"rank": 1, "linear_weights": [[w - 2]], "multiplicative_weights": [[0], [-2]]})),
        (["coulomb", "-"], _doc({"rank": 1, "linear_weights": [[w - 1]], "multiplicative_weights": [[0], [-2]]})),
        (["dual", "-"], _doc({"rank": 1, "linear_weights": [[w - 1], [1]]})),
        (["dual", "-"], _doc({"rank": 1, "linear_weights": [[w], [1]]})),
        (["dual", "-"], _doc({"kind": "cotangent_of_rep", "theory": {"rank": 1, "linear_weights": [[w]]}})),
        (["dual", "-"], _doc({"kind": "cotangent_of_rep", "theory": {"rank": 1, "linear_weights": [[w + 1]]}})),
        # ... also after multiplicative reduction: the kernel of (3, -1) is spanned by (1, 3)
        (["coulomb", "-"], _doc({"rank": 2, "linear_weights": [[1, 341]], "multiplicative_weights": [[3, -1]]})),
        (["coulomb", "-"], _doc({"rank": 2, "linear_weights": [[2, 341]], "multiplicative_weights": [[3, -1]]})),
        (["dual", "-"], _doc({"rank": 2, "linear_weights": [[1, 341]], "multiplicative_weights": [[3, -1]]})),
        (["dual", "-"], _doc({"rank": 2, "linear_weights": [[2, 341]], "multiplicative_weights": [[3, -1]]})),
        # for --table, the cutoff times the weight size of the linear weights
        (["coulomb", "--table", "--cutoff", "2", "-"], _doc({"rank": 1, "linear_weights": [[w // 2]]})),
        (["coulomb", "--table", "--cutoff", "2", "-"], _doc({"rank": 1, "linear_weights": [[w // 2 + 1]]})),
        (["coulomb", "--table", "--cutoff", "1", "-"], _doc({"rank": 1, "linear_weights": [[w]], "multiplicative_weights": [[5]]})),
        # the cocharacters within the cutoff: 199^2 = 39,601 at rank 2, 201^2 above
        (["coulomb", "--table", "--cutoff", "99", "-"], _doc({"rank": 2, "multiplicative_weights": [[1, 0]]})),
        (["coulomb", "--table", "--cutoff", "100", "-"], _doc({"rank": 2, "multiplicative_weights": [[1, 0]]})),
        # the terms: 199^2 = 39,601 products of degree 0, then 201^2
        (["coulomb", "--table", "--cutoff", "99", "-"], _doc({"rank": 1})),
        (["coulomb", "--table", "--json", "--cutoff", "99", "-"], _doc({"rank": 1})),
        (["coulomb", "--table", "--cutoff", "100", "-"], _doc({"rank": 1})),
        # ... and 81 products of degree up to 492 (81 * 493 = 39,933 terms), then 493
        (["coulomb", "--table", "--cutoff", "1", "-"], _doc({"rank": 2, "linear_weights": [[246, 246]]})),
        (["coulomb", "--table", "--cutoff", "1", "-"], _doc({"rank": 2, "linear_weights": [[246, 247]]})),
    ]
    return cases


def _weight_count_cases():
    """One case at and one above each bound that zero weights reach: they add
    nothing to a weight size, but each one is a weight vector."""
    count, pairings = cli.MAX_WEIGHTS, cli.MAX_TABLE_PAIRINGS
    table = ["coulomb", "--table", "--cutoff"]
    return [
        # the weight vectors of a theory
        (["coulomb", "-"], _doc({"rank": 1, "linear_weights": [[1]] + [[0]] * (count - 1)})),
        (["coulomb", "-"], _doc({"rank": 1, "linear_weights": [[1]] + [[0]] * count})),
        # for --table, 800 and 801 multiplicative weights, one of them (1, 0): no bound
        # counts them, and both leave the 25 cocharacters (0, m) within cutoff 12
        ([*table, "12", "-"], _doc({"rank": 2, "linear_weights": [[0, 0]],
                                    "multiplicative_weights": [[1, 0]] + [[0, 0]] * 799})),
        ([*table, "12", "-"], _doc({"rank": 2, "linear_weights": [[0, 0]],
                                    "multiplicative_weights": [[1, 0]] + [[0, 0]] * 800})),
        # ... and the 125^2 products within cutoff 62 times 320 linear weights
        ([*table, "62", "-"], _doc({"rank": 1, "linear_weights": [[0]] * (pairings // 15625)})),
        ([*table, "62", "-"], _doc({"rank": 1, "linear_weights": [[0]] * (pairings // 15625 + 1)})),
    ]


def cases() -> list[tuple]:
    """Every invocation of the corpus, as (argv, stdin, env), in a fixed order."""
    out = []
    # usage and help
    for argv in ([], ["--help"], ["-h"], ["frobnicate"], ["--version"], ["coulomb"], ["diagram", "twist", "0"]):
        out.append((argv, None))
    for command in ("coulomb", "diagram", "orbit", "dual", "verify", "repl"):
        out.append(([command, "--help"], None))
    # coulomb
    for theory in THEORIES:
        text = _doc(theory)
        out += _both(["coulomb", "-"], text)
        out += _both(["coulomb", "--table", "-"], text)
        out += [(["coulomb", "--table", "--cutoff", cutoff, "-"], text) for cutoff in ("0", "2")]
        out += _both(["dual", "-"], text)
    for text in MALFORMED_THEORIES:
        out += [(["coulomb", "-"], text), (["coulomb", "--table", "-"], text), (["dual", "-"], text)]
    for cutoff in ("-1", "abc", "+1", "1_0", "", "١"):
        out.append((["coulomb", "--table", "--cutoff", cutoff, "-"], _doc(THEORY)))
    out.append((["coulomb", "--cutoff", "abc", "-"], _doc(THEORY)))
    # a document nested deeper than the interpreter recurses
    out.append((["dual", "-"], "[" * 5000 + "]" * 5000))
    out.append((["coulomb", "no-such-theory.json"], None))
    out.append((["dual", "no-such-descriptor.json"], None))
    # dual
    for descriptor in DESCRIPTORS:
        out += _both(["dual", "-"], _doc(descriptor))
    # diagram
    for text in DIAGRAMS:
        out += _both(["diagram", "sdual", text])
        out += _both(["diagram", "linking", text])
        for index in range(-1, text.count("o") + text.count("x") + 1):
            out += _both(["diagram", "hw", str(index), text])
    for text in MALFORMED_DIAGRAMS:
        out += [(["diagram", action, text], None) for action in ("sdual", "linking")]
        out.append((["diagram", "hw", "0", text], None))
    for argv in (
        ["diagram", "hw", "0 o 1 x 0"],
        ["diagram", "hw", "a", "0 o 1 x 0"],
        ["diagram", "hw", "+0", "0 o 1 x 0"],
        ["diagram", "sdual", "0 o 0", "0 x 0"],
        ["diagram", "linking", "1", "0 o 0"],
        ["diagram", "sdual"],
    ):
        out.append((argv, None))
    # orbit
    for text in PARTITIONS + MALFORMED_PARTITIONS:
        out += _both(["orbit", "dual", text])
        out += _both(["orbit", "dims", text])
    for text in CHAINS + MALFORMED_CHAINS:
        out += _both(["orbit", "chain", text])
    for argv in (["orbit", "chain", "0", "1", "2"], ["orbit", "chain", "0,1", "2"], ["orbit", "dual", "[1]", "[2]"]):
        out.append((argv, None))
    # repl
    for text, script in REPL_SCRIPTS:
        out.append((["repl", text], script))
    for text in MALFORMED_DIAGRAMS[:4]:
        out.append((["repl", text], "quit\n"))
    # verify, cheap checks only
    for argv in (
        ["verify", "--filter", "hyperspherical"],
        ["verify", "--filter", "coulomb-presentations", "--json"],
        ["verify", "--filter", "orbit-"],
        ["verify", "--filter", "sdual-slice", "--json"],
        ["verify", "--filter", "partition-transpose"],
        ["verify", "--filter", "kostant", "--seed", "3"],
        ["verify", "--filter", "brane-hw", "--seed", "5", "--json"],
        ["verify", "--filter", "sdual-compose", "--seed", "11"],
        ["verify", "--filter", "sdual-compose", "--seed", "-4", "--json"],
        ["verify", "--filter", "coulomb-brane"],
        ["verify", "--filter", "no-such-check"],
        ["verify", "--filter", "no-such-check", "--json"],
        ["verify", "--filter", "hyperspherical", "--seed", "x"],
        ["verify", "--filter", "hyperspherical", "--seed", ""],
        ["verify", "--filter", "hyperspherical", "--seed", "١٢"],
        ["verify", "--bogus"],
    ):
        out.append((argv, None))
    out = [(argv, stdin, None) for argv, stdin in out]
    for seed in ("42", "1_0", "-7", "x"):
        out.append((["verify", "--filter", "sdual-compose", "--json"], None, {SEED_VAR: seed}))
    out.append((["verify", "--filter", "sdual-compose", "--seed", "8", "--json"], None, {SEED_VAR: "x"}))
    out += [(argv, stdin, None) for argv, stdin in _bound_cases()]
    for descriptor in RIGHT_SIDED + RIGHT_SIDED_THEORIES:
        out += [(argv, stdin, None) for argv, stdin in _both(["dual", "-"], _doc(descriptor))]
    out += [(["dual", "-"], _doc(descriptor), None) for descriptor in STATED_DIMS]
    out += [(argv, stdin, None) for argv, stdin in _weight_count_cases()]
    for line in REPL_EXTRA_TOKENS:
        out.append((["repl", "0 o 1 x 1 x 1 o 0"], f"hw 0\n{line}\ndims\nundo\nquit\n", None))
    return out


def build() -> list[dict]:
    return [run(argv, stdin, env) for argv, stdin, env in cases()]


def read() -> list[dict]:
    return [json.loads(line) for line in CORPUS.read_text(encoding="utf-8").splitlines()]


def _line(record: dict) -> str:
    return json.dumps(record, sort_keys=True, ensure_ascii=False)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", action="store_true", help="list changed lines; write nothing")
    args = parser.parse_args()
    records = build()
    if args.diff:
        old = read()
        for number, (before, after) in enumerate(zip(old, records), 1):
            if before != after:
                print(f"line {number}: {_line({k: after[k] for k in ('argv', 'stdin', 'env')})}")
                print(f"  was: {_line({k: v for k, v in before.items() if k not in ('argv', 'stdin', 'env')})}")
                print(f"  now: {_line({k: v for k, v in after.items() if k not in ('argv', 'stdin', 'env')})}")
        if len(old) != len(records):
            print(f"{len(old)} lines before, {len(records)} now")
        return int(old != records)
    CORPUS.write_text("".join(_line(r) + "\n" for r in records), encoding="utf-8")
    print(f"wrote {len(records)} lines to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
