"""Fuzz the command line in-process: every input exits 0, 2 or 3, never with a traceback.

Subcommands get argv tokens drawn near the valid ones, and the JSON readers get
theory, descriptor, group and diagram documents with keys dropped, misspelled
or added and values swapped for other JSON. ``verify`` is left out: a filter
that matches runs the whole suite, seconds per example. The repl gets scripts
of well-formed and malformed lines on its stdin, and its transcript is compared
with a reference that keeps every diagram and applies the well-formed lines.
"""

import copy
import io
import json
import re
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdualkit import cli
from sdualkit.brane import BraneDiagram, hw_move, sdual

GROUPS = [
    {"kind": "gl", "n": 3},
    {"kind": "torus", "rank": 2},
    {"kind": "product", "factors": [{"kind": "gl", "n": 1}, {"kind": "gl", "n": 2}]},
]
THEORIES = [
    {"rank": 1, "linear_weights": [[1], [2]]},
    {"rank": 2, "linear_weights": [[1, 0], [1, 1]], "multiplicative_weights": [[1, -1]]},
    {"rank": 1, "multiplicative_weights": [[1]]},
]
SPACES = [
    {"kind": "point", "left_group": {"kind": "gl", "n": 2}, "right_group": GROUPS[2]},
    {"kind": "cotangent_of_group", "group": {"kind": "gl", "n": 3}, "dim": 18},
    {"kind": "group_times_slice", "group": {"kind": "gl", "n": 3}, "partition": [2, 1]},
    {
        "kind": "group_times_slice",
        "group": {"kind": "gl", "n": 3},
        "partition": [2, 1],
        "left_group": {"kind": "gl", "n": 3},
        "right_group": {"kind": "gl", "n": 1},
    },
    {"kind": "orbit_closure", "n": 3, "partition": [2, 1], "conjecture": True},
    {"kind": "cotangent_of_rep", "dims": [1, 2]},
    {"kind": "cotangent_of_rep", "theory": THEORIES[0]},
    {"kind": "torus_cotangent", "rank": 2, "right_group": GROUPS[2]},
    {"kind": "type_A_singularity", "index": 2, "left_group": GROUPS[2]},
    {"kind": "coulomb_branch", "theory": THEORIES[1]},
    {"kind": "product", "factors": [{"kind": "point"}, {"kind": "torus_cotangent", "rank": 1}]},
    {"kind": "reduced", "dim": 4, "possibly_singular": True},
]
DIAGRAMS = [{"branes": ["o", "x", "x", "o"], "dims": [0, 1, 1, 1, 0]}]
DOCUMENTS = GROUPS + THEORIES + SPACES + DIAGRAMS
KEYS = sorted({key for doc in DOCUMENTS for key in doc} | {"n", "rank", "factors"})

small_ints = st.integers(-3, 40) | st.sampled_from([10**6, -(10**6), 7_001, 1_025, 31])
leaves = st.none() | st.booleans() | small_ints | st.text(max_size=4) | st.sampled_from([1.5, -0.0])
json_values = (
    leaves
    | st.lists(leaves, max_size=4)
    | st.lists(st.lists(small_ints, max_size=3), max_size=3)
    | st.dictionaries(st.sampled_from(KEYS), leaves, max_size=3)
    | st.sampled_from(DOCUMENTS).map(copy.deepcopy)
)


def misspell(key: str, draw) -> str:
    """``key`` with one letter dropped or replaced, or one added at its end."""
    i = draw(st.integers(0, len(key)))
    return key[:i] + draw(st.sampled_from(["", "_", "s"])) + key[i + 1 :]


def objects(doc) -> list:
    """``doc`` and every JSON object nested in it."""
    if isinstance(doc, dict):
        return [doc] + [inner for value in doc.values() for inner in objects(value)]
    if isinstance(doc, list):
        return [inner for value in doc for inner in objects(value)]
    return []


@st.composite
def documents(draw):
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for _ in range(draw(st.integers(0, 3))):
        # any key of any object, so nested group and theory documents change as often
        slots = [(node, key) for node in objects(doc) for key in node]
        node, key = draw(st.sampled_from(slots)) if slots else ({}, "kind")
        edit = draw(st.sampled_from(["drop", "misspell", "add", "value", "value"]))
        if edit == "drop":
            node.pop(key, None)
        elif edit == "misspell":
            node[misspell(key, draw)] = node.pop(key, None)
        elif edit == "add":
            node[draw(st.sampled_from(KEYS + ["extra"]))] = draw(json_values)
        else:
            node[key] = draw(json_values)
    return doc


def diagram_text(branes):
    """Text diagrams with these branes and drawn segment dimensions."""
    dims = st.lists(small_ints, min_size=len(branes) + 1, max_size=len(branes) + 1)
    return dims.map(lambda ds: " ".join([str(ds[0])] + [f"{b} {d}" for b, d in zip(branes, ds[1:])]))


tokens = (
    st.sampled_from(
        ["--json", "--table", "--cutoff", "-", "0", "1", "[2,1]", "0,1,2", "hw", "sdual"]
    )
    | small_ints.map(str)
    | st.lists(small_ints, max_size=5).map(lambda xs: ",".join(map(str, xs)))
    | st.lists(small_ints, max_size=5).map(lambda xs: "[" + ",".join(map(str, xs)) + "]")
    | st.lists(st.sampled_from(["o", "x"]), max_size=6).flatmap(diagram_text)
    | st.text(max_size=6)
)
document_commands = st.sampled_from(
    [
        ["dual", "-"],
        ["dual", "--json", "-"],
        ["coulomb", "-"],
        ["coulomb", "--json", "-"],
        ["coulomb", "--table", "--cutoff", "0", "-"],
        ["coulomb", "--table", "--json", "--cutoff", "2", "-"],
        ["coulomb", "--table", "--cutoff", "-1", "-"],
    ]
)
commands = st.one_of(
    st.tuples(st.sampled_from(["chain", "dual", "dims"]), st.lists(tokens, min_size=1, max_size=3))
    .map(lambda t: ["orbit", t[0], *t[1]]),
    st.tuples(st.sampled_from(list(cli.DIAGRAM_COMMANDS)), st.lists(tokens, min_size=1, max_size=2))
    .map(lambda t: ["diagram", t[0], *t[1]]),
    st.lists(tokens, max_size=3).map(lambda rest: ["repl", *rest]),
    st.lists(tokens, max_size=4),
)


def run(argv, stdin: str = ""):
    streams = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), io.StringIO(), io.StringIO()
    try:
        code = cli.main(argv)
        return code, sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = streams


def check(argv, stdin: str = "") -> None:
    code, err = run(argv, stdin)
    assert code in (0, 2, 3), (argv, stdin, code, err)
    if code:
        assert err.startswith("error:"), (argv, stdin, err)
    assert "Traceback" not in err


FUZZ = settings(
    derandomize=True,
    database=None,
    deadline=3000,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


@settings(FUZZ, max_examples=300)
@given(argv=document_commands, doc=documents())
def test_documents_exit_cleanly(argv, doc):
    check(argv, json.dumps(doc))


@settings(FUZZ, max_examples=200)
@given(argv=commands)
def test_argv_exits_cleanly(argv):
    check(argv)


REPL_DIAGRAMS = ["0 o 1 x 2 o 2 x 1 o 1 x 0", "0 o 1 x 1 x 1 o 0", "0 o 2 x 0", "3"]
MALFORMED_LINES = [
    "", "   ", "foo", "foo 1", "hw", "hw 0 1", "sdual x", "linking 1", "dims 2", "undo 0",
    "quit now", "hw 0_0", "hw \u0660", "hw +1", "hw " + "9" * (cli.MAX_DIGITS + 1),
]


@st.composite
def repl_scripts(draw):
    """An initial diagram and 1-25 lines, each well-formed or malformed."""
    initial = draw(st.sampled_from(REPL_DIAGRAMS))
    size = len(initial.split()) // 2  # the branes
    line = (
        st.integers(-1, size + 1).map(lambda i: f"hw {i}")
        | st.sampled_from(["sdual", "linking", "dims", "undo", " undo\t"])
        | st.sampled_from(MALFORMED_LINES)
    )
    return initial, draw(st.lists(line, min_size=1, max_size=25))


def repl_reference(initial: str, lines: list[str]) -> list[tuple[str | None, str | None]]:
    """Per non-blank line, the dims line it shows (or None) and the diagram it
    shows, or (None, None) for a line refused with one error line."""
    diagrams = [BraneDiagram.parse(initial)]
    want = []
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        shown = None
        if tokens[0] == "hw" and len(tokens) == 2 and re.fullmatch(r"-?[0-9]{1,30}", tokens[1], re.ASCII):
            try:
                diagrams.append(hw_move(diagrams[-1], int(tokens[1])))
            except ValueError:
                want.append((None, None))
                continue
        elif tokens == ["sdual"]:
            diagrams.append(sdual(diagrams[-1]))
        elif tokens == ["undo"] and len(diagrams) > 1:
            diagrams.pop()
        elif tokens == ["dims"]:
            shown = " ".join(map(str, diagrams[-1].dims))
        elif tokens != ["linking"]:
            want.append((None, None))
            continue
        want.append((shown, diagrams[-1].render()))
    return want


@settings(FUZZ, max_examples=300)
@given(script=repl_scripts())
def test_repl_scripts_match_a_kept_diagram_history(script):
    initial, lines = script
    out = io.StringIO()
    assert cli.run_repl(BraneDiagram.parse(initial), io.StringIO("\n".join(lines) + "\n"), out) == 0
    transcript = out.getvalue().splitlines()
    at = 2  # after the initial diagram and its linking line
    for dims, diagram in repl_reference(initial, lines):
        if diagram is None:
            assert transcript[at].startswith("error: "), (lines, transcript[at:])
            at += 1
            continue
        if dims is not None:
            assert transcript[at] == dims, (lines, transcript[at:])
            at += 1
        assert transcript[at] == diagram, (lines, transcript[at:])
        assert transcript[at + 1].startswith("ns5 "), (lines, transcript[at:])
        at += 2
    assert at == len(transcript), (lines, transcript[at:])
