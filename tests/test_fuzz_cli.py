"""Fuzz the command line in-process: every input exits 0, 2 or 3, never with a traceback.

Subcommands get argv tokens drawn near the valid ones, and the JSON readers get
theory, descriptor, group and diagram documents with keys dropped, misspelled
or added and values swapped for other JSON. ``verify`` is left out: a filter
that matches runs the whole suite, seconds per example.
"""

import copy
import io
import json
import sys

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sdualkit import cli

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
    st.tuples(st.sampled_from(["sdual", "hw", "linking"]), st.lists(tokens, min_size=1, max_size=2))
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
