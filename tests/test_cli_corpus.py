"""Replay the CLI behaviour corpus (tests/golden/cli_corpus.jsonl) in-process.

Every recorded invocation must give the same exit code, first stderr line and
stdout as when the corpus was written. A change that moves an output on
purpose rewrites the corpus with ``PYTHONPATH=src python tests/cli_corpus.py``
and names the lines it changed.
"""

import cli_corpus


def test_corpus_replays_unchanged():
    changed = []
    for number, record in enumerate(cli_corpus.read(), 1):
        got = cli_corpus.run(record["argv"], record["stdin"], record["env"])
        if got != record:
            changed.append(f"line {number}:\n  want {record}\n  got  {got}"[:1200])
    assert not changed, f"{len(changed)} corpus lines changed:\n" + "\n".join(changed[:5])


def test_corpus_is_the_listed_invocations():
    recorded = [(r["argv"], r["stdin"], r["env"]) for r in cli_corpus.read()]
    assert recorded == [(list(argv), stdin, env) for argv, stdin, env in cli_corpus.cases()]


def test_corpus_covers_every_subcommand_and_exit_code():
    records = cli_corpus.read()
    commands = {"coulomb", "diagram", "orbit", "dual", "verify", "repl"}
    seen = {(r["argv"][0], "--json" in r["argv"], r["exit"]) for r in records if r["argv"]}
    for command in commands:
        for code in (0, 2, 3):
            assert (command, False, code) in seen, (command, code)
        if command != "repl":
            assert (command, True, 0) in seen, command
    assert {r["exit"] for r in records} == {0, 2, 3}
    assert all(r["stderr"].startswith("error:") for r in records if r["exit"] in (2, 3))
