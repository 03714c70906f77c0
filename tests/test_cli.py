import ast
import builtins
import io
import json
import pathlib
import random
import tracemalloc
import types

import pytest

from sdualkit import cli
from sdualkit.abelian_coulomb import TorusTheory, structure_constant_table
from sdualkit.brane import BraneDiagram, hw_move, sdual
from sdualkit.exactalg import UnsupportedInputError


def run_cli(argv, capsys, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoulombCommand:
    def test_two_flavors_from_stdin(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["coulomb", "-"],
            capsys,
            stdin='{"rank":1,"linear_weights":[[1],[1]]}',
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == "C[w, x, y] / (x*y = w^2)  [A_1 singularity]\n"
        assert "x*y = w^2" in out and "[A_1 singularity]" in out

    def test_no_matter(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["coulomb", "-"], capsys, stdin='{"rank":1,"linear_weights":[]}', monkeypatch=monkeypatch
        )
        assert code == 0
        assert "x*y = 1" in out and "[T^*(C^x)]" in out

    def test_multiplicative_point(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["coulomb", "-"],
            capsys,
            stdin='{"rank":1,"linear_weights":[],"multiplicative_weights":[[1]]}',
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == "point\n"

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "theory.json"
        path.write_text('{"rank":1,"linear_weights":[[1]]}', encoding="utf-8")
        code, out, _ = run_cli(["coulomb", str(path)], capsys)
        assert code == 0
        assert "x*y = w" in out

    def test_json_output(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["coulomb", "--json", "-"],
            capsys,
            stdin='{"rank":1,"linear_weights":[[1],[1]]}',
            monkeypatch=monkeypatch,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["variety"] == "A_1 singularity"
        assert payload["relation"]["rhs"] == "w^2"

    def test_parse_error_exit_2(self, capsys, monkeypatch):
        documents = [
            "{nope",
            '{"rank":1,"linear_weights":[[1.5]]}',
            '{"rank":true}',
            '{"rank":null}',
            '{"rank":1,"linear_weight":[[1]]}',
        ]
        for text in documents:
            code, _, err = run_cli(["coulomb", "-"], capsys, stdin=text, monkeypatch=monkeypatch)
            assert code == 2, text
            assert err.startswith("error:"), text

    def test_rank_too_high_exit_3_suggests_table(self, capsys, monkeypatch):
        code, _, err = run_cli(
            ["coulomb", "-"],
            capsys,
            stdin='{"rank":2,"linear_weights":[[1,0]]}',
            monkeypatch=monkeypatch,
        )
        assert code == 3
        assert "--table" in err

    def test_table_mode(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["coulomb", "--table", "--cutoff", "1", "-"],
            capsys,
            stdin='{"rank":1,"linear_weights":[[1]]}',
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "r[1] * r[-1] = w r[0]" in out
        assert "r[0] * r[0] = r[0]" in out

    def test_cutoff_underscore_exit_2(self, capsys, monkeypatch):
        code, out, err = run_cli(
            ["coulomb", "--table", "--cutoff", "1_0", "-"],
            capsys,
            stdin='{"rank":1,"linear_weights":[[1]]}',
            monkeypatch=monkeypatch,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "ASCII digits" in err

    @pytest.mark.parametrize(
        "doc, cutoff",
        [
            ({"rank": 1, "linear_weights": [[1], [2]]}, 3),
            ({"rank": 2, "linear_weights": [[1, 1], [1, -1]]}, 2),
            ({"rank": 2, "linear_weights": [[1, 0], [1, 2]], "multiplicative_weights": [[1, -1]]}, 2),
        ],
    )
    def test_table_renders_every_entry(self, doc, cutoff, capsys, monkeypatch):
        table = structure_constant_table(TorusTheory.from_json(doc), cutoff=cutoff)

        def r(v):
            return "r[" + ",".join(map(str, v)) + "]"

        lines = []
        for lam, mu, p in table:
            factor = "" if str(p) == "1" else f"{p} "
            lines.append(f"{r(lam)} * {r(mu)} = {factor}{r(tuple(a + b for a, b in zip(lam, mu)))}")
        argv = ["coulomb", "--table", "--cutoff", str(cutoff), "-"]
        code, out, _ = run_cli(argv, capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert (code, out) == (0, "\n".join(lines) + "\n")
        argv.insert(1, "--json")
        code, out, _ = run_cli(argv, capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch)
        entries = [{"lam": list(lam), "mu": list(mu), "coefficient": str(p)} for lam, mu, p in table]
        assert (code, json.loads(out)) == (0, {"rank": doc["rank"], "table": entries})

    def test_table_mode_rank_two(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["coulomb", "--table", "-"],
            capsys,
            stdin='{"rank":2,"linear_weights":[[1,0]]}',
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert "r[1,0] * r[-1,0] = w1 r[0,0]" in out


class TestDiagramCommand:
    def test_sdual(self, capsys):
        code, out, _ = run_cli(["diagram", "sdual", "0 o 1 x 1 x 1 o 0"], capsys)
        assert code == 0
        assert out == "0 x 1 o 1 o 1 x 0\n"

    def test_hw(self, capsys):
        code, out, _ = run_cli(["diagram", "hw", "0", "0 o 1 x 1 x 1 o 0"], capsys)
        assert code == 0
        assert out == "0 x 1 o 1 x 1 o 0\n"

    def test_linking(self, capsys):
        code, out, _ = run_cli(["diagram", "linking", "0 o 1 x 1 x 1 o 0"], capsys)
        assert code == 0
        assert out == "ns5 [1, 1]  d5 [1, 1]\n"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(["diagram", "sdual", "--json", "0 o 1 x 1 o 0"], capsys)
        assert code == 0
        assert json.loads(out) == BraneDiagram.parse("0 x 1 o 1 x 0").to_json()

    def test_bad_grammar_exit_2(self, capsys):
        code, _, err = run_cli(["diagram", "sdual", "0 o 1 x"], capsys)
        assert code == 2

    def test_non_admissible_exit_3(self, capsys):
        code, _, err = run_cli(["diagram", "hw", "0", "0 o 9 x 0"], capsys)
        assert code == 3

    def test_bad_index_exit_3(self, capsys):
        code, _, _ = run_cli(["diagram", "hw", "7", "0 o 1 x 0"], capsys)
        assert code == 3

    def test_non_integer_text_exit_2(self, capsys):
        for argv in (["hw", "0_0", "0 o 1 x 0"], ["hw", "+0", "0 o 1 x 0"], ["sdual", "0 o 1_0 x 0"]):
            code, out, err = run_cli(["diagram", *argv], capsys)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error:"), argv


class TestOrbitCommand:
    def test_chain(self, capsys):
        code, out, _ = run_cli(["orbit", "chain", "0,1,2,3"], capsys)
        assert code == 0
        assert out == "OrbitClosure[3] in gl(3)  (dim 6)\n"

    def test_chain_space_separated(self, capsys):
        code, out, _ = run_cli(["orbit", "chain", "0", "1", "3"], capsys)
        assert code == 0
        assert "OrbitClosure[2,1]" in out

    def test_dual(self, capsys):
        code, out, _ = run_cli(["orbit", "dual", "[4,2,1]"], capsys)
        assert code == 0
        assert out == "[3,2,1,1]\n"

    def test_dims(self, capsys):
        code, out, _ = run_cli(["orbit", "dims", "[2,1]"], capsys)
        assert code == 0
        assert out == "orbit_dim 4  centralizer_dim 5\n"

    def test_bad_partition_exit_2(self, capsys):
        code, _, _ = run_cli(["orbit", "dual", "4,2"], capsys)
        assert code == 2

    def test_chain_underscore_exit_2(self, capsys):
        # int() reads "1_0" as 10
        code, out, err = run_cli(["orbit", "chain", "0,1_0"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_chain_empty_entry_exit_2(self, capsys):
        # was read as 0,1, the empty entry dropped
        for chain in (["0,,1"], ["0,1,"], ["0", "", "1"]):
            code, out, err = run_cli(["orbit", "chain", *chain], capsys)
            assert (code, out) == (2, "")
            assert err.startswith("error: empty entry")

    def test_chain_decreasing_exit_2(self, capsys):
        # was read through the brute force as OrbitClosure[1] in gl(1)
        code, out, err = run_cli(["orbit", "chain", "0,3,1"], capsys)
        assert (code, out) == (2, "")
        assert "not weakly increasing" in err

    def test_chain_non_ascii_digit_exit_2(self, capsys):
        # int() reads the Arabic-Indic digit three as 3
        code, out, err = run_cli(["orbit", "chain", "0,\u0663"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_dual_non_ascii_digit_exit_2(self, capsys):
        code, out, err = run_cli(["orbit", "dual", "[\u0663,1]"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:")

    def test_json(self, capsys):
        code, out, _ = run_cli(["orbit", "--json", "chain", "0,1,2"], capsys)
        assert code == 0
        assert json.loads(out) == {"dim": 2, "jordan_type": [2], "kind": "orbit_closure", "n": 2}


class TestDualCommand:
    def test_descriptor_json(self, capsys, monkeypatch):
        doc = {"kind": "cotangent_of_group", "group": {"kind": "gl", "n": 3}, "dim": 18}
        code, out, _ = run_cli(
            ["dual", "-"], capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 0
        assert out == "OrbitClosure[3] in gl(3)  (dim 6)\n"

    def test_bare_theory_document(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["dual", "-"],
            capsys,
            stdin='{"rank":1,"linear_weights":[[1],[1],[1]]}',
            monkeypatch=monkeypatch,
        )
        assert code == 0
        assert out == "A_2 singularity  (dim 2)\n"

    def test_json_output_parses_back(self, capsys, monkeypatch):
        doc = {
            "kind": "group_times_slice",
            "group": {"kind": "gl", "n": 3},
            "partition": [2, 1],
            "dim": 14,
        }
        code, out, _ = run_cli(
            ["dual", "--json", "-"], capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch
        )
        assert code == 0
        from sdualkit.spaces import SpaceDescriptor

        parsed = SpaceDescriptor.from_json(json.loads(out))
        assert parsed == SpaceDescriptor.orbit_closure(3, [2, 1])

    def test_inconsistent_dim_exit_2(self, capsys, monkeypatch):
        docs = [
            {"kind": "point", "dim": 999},
            [1],
            {"kind": "orbit_closure"},
            {"kind": "point", "left_group": {"kind": "gl"}},
            {"kind": "point", "conjecture": "no"},
            {"kind": "orbit_closure", "n": 3, "partition": [2, 1], "group": {"kind": "gl", "n": 7}},
            {"kind": "torus_cotangent", "rank": 2.7},
            {"kind": []},
            # unknown keys: a misspelled right group would read as an orbit closure
            {
                "kind": "group_times_slice",
                "group": {"kind": "gl", "n": 3},
                "partition": [2, 1],
                "left_group": {"kind": "gl", "n": 3},
                "right_grup": {"kind": "gl", "n": 1},
            },
            {"kind": "point", "left_group": {"kind": "gl", "n": 2, "rank": 1}},
            {"kind": "point", "left_group": {"kind": "product", "factors": [], "n": 0}},
            {"kind": "point", "conjectural": True},
            {"rank": 1, "linear_weights": [[1]], "mult_weights": []},
        ]
        for doc in docs:
            code, _, err = run_cli(
                ["dual", "-"], capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch
            )
            assert code == 2, doc
            assert err.startswith("error:"), doc

    def test_no_known_dual_exit_3(self, capsys, monkeypatch):
        doc = {"kind": "type_A_singularity", "index": 2, "dim": 2}
        code, _, _ = run_cli(["dual", "-"], capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert code == 3


class TestBounds:
    """A valid input just above each bound exits 3 with an error line."""

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["orbit", "chain", "0" + ",1" * 31], None),
            (["orbit", "chain", "0,31"], None),
            (["orbit", "dims", f"[{cli.MAX_N + 1}]"], None),
            (["orbit", "dual", f"[{cli.MAX_N}, 1]"], None),
            (["dual", "-"], {"kind": "point", "left_group": {"kind": "gl", "n": cli.MAX_N + 1}}),
            (["diagram", "linking", "0" + " o 0" * (cli.MAX_BRANES + 1)], None),
            (["coulomb", "-"], {"rank": cli.MAX_RANK + 1}),
            (["coulomb", "-"], {"rank": 1, "linear_weights": [[cli.MAX_WEIGHT + 1]]}),
            (["dual", "-"], {"rank": 1, "linear_weights": [[cli.MAX_WEIGHT], [1]]}),
            # weight size 504 as written, 1500 after reduction to the kernel of (1, -500)
            (
                ["coulomb", "-"],
                {"rank": 2, "linear_weights": [[3, 0]], "multiplicative_weights": [[1, -500]]},
            ),
            (["coulomb", "--table", "--cutoff", "3", "-"], {"rank": 1, "linear_weights": [[342]]}),
            # 7^6 = 117,649 cocharacters within the cutoff
            (
                ["coulomb", "--table", "--cutoff", "3", "-"],
                {"rank": 6, "multiplicative_weights": [[1] * 6]},
            ),
            # (2 * 100 + 1)^2 = 40,401 products
            (["coulomb", "--table", "--cutoff", "100", "-"], {"rank": 1}),
            # 81 products of degree up to 493: 81 * 494 = 40,014 terms
            (
                ["coulomb", "--table", "--cutoff", "1", "-"],
                {"rank": 2, "linear_weights": [[246, 247]]},
            ),
            # zero weights add nothing to the weight size, but each is a weight vector
            (["coulomb", "-"], {"rank": 1, "linear_weights": [[0]] * (cli.MAX_WEIGHTS + 1)}),
            (["dual", "-"], {"rank": 1, "multiplicative_weights": [[0]] * (cli.MAX_WEIGHTS + 1)}),
            # 199^2 products at cutoff 99, each paired with 1,000 linear weights
            (["coulomb", "--table", "--cutoff", "99", "-"], {"rank": 1, "linear_weights": [[0]] * 1000}),
        ],
    )
    def test_just_above_the_bound_exits_3(self, argv, stdin, capsys, monkeypatch):
        text = json.dumps(stdin) if stdin is not None else None
        code, out, err = run_cli(argv, capsys, stdin=text, monkeypatch=monkeypatch)
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "above the bound" in err

    def test_many_multiplicative_weights_are_not_bounded_by_the_box(self, capsys, monkeypatch):
        # 199^2 cocharacters within the cutoff and 13 multiplicative weights; the
        # kernel of (1, 0) leaves the 199 cocharacters (0, m), so 199^2 products
        doc = {"rank": 2, "multiplicative_weights": [[1, 0]] * 13}
        argv = ["coulomb", "--table", "--cutoff", "99", "-"]
        code, out, err = run_cli(argv, capsys, stdin=json.dumps(doc), monkeypatch=monkeypatch)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 199**2
        assert lines[0] == "r[0,-99] * r[0,-99] = r[0,-198]"

    @pytest.mark.parametrize(
        "weights, code",
        [
            ([[cli.MAX_WEIGHT]] * 3, 0),
            ([[1], [cli.MAX_WEIGHT + 1]], 3),
            ([[-cli.MAX_WEIGHT - 1]], 3),
        ],
    )
    def test_each_multiplicative_weight_of_a_table_has_a_bounded_size(
        self, weights, code, capsys, monkeypatch
    ):
        doc = json.dumps({"rank": 1, "multiplicative_weights": weights})
        argv = ["coulomb", "--table", "--cutoff", "1", "-"]
        assert run_cli(argv, capsys, stdin=doc, monkeypatch=monkeypatch)[0] == code

    @pytest.mark.parametrize(
        "argv, stdin",
        [
            (["orbit", "dims", "[" + "9" * (cli.MAX_DIGITS + 1) + "]"], None),
            (["coulomb", "-"], '{"rank":1,"linear_weights":[[' + "9" * (cli.MAX_DIGITS + 1) + "]]}"),
        ],
        ids=["partition part", "theory weight"],
    )
    def test_integer_above_the_digit_bound_exits_3(self, argv, stdin, capsys, monkeypatch):
        code, out, err = run_cli(argv, capsys, stdin=stdin, monkeypatch=monkeypatch)
        assert (code, out) == (3, "")
        assert err.startswith("error:") and "above the bound" in err

    @pytest.mark.parametrize(
        "argv, key",
        [(["coulomb", "-"], "linear_weights"), (["coulomb", "--table", "-"], "multiplicative_weights")],
    )
    def test_a_weight_size_past_the_printable_digits_exits_3(self, argv, key, capsys, monkeypatch):
        # each entry has the most digits read; their sum has one more
        nines = "9" * cli.MAX_DIGITS
        text = f'{{"rank": 2, "{key}": [[{nines}, {nines}]]}}'
        code, out, err = run_cli(argv, capsys, stdin=text, monkeypatch=monkeypatch)
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and f"of more than {cli.MAX_DIGITS} digits is above" in err

    def test_document_nested_past_the_recursion_limit_exits_3(self, capsys, monkeypatch):
        text = "[" * 100_000 + "]" * 100_000
        code, out, err = run_cli(["dual", "-"], capsys, stdin=text, monkeypatch=monkeypatch)
        assert (code, out) == (3, "") and err.startswith("error:")

    def test_help_states_the_bounds(self, capsys):
        assert cli.main(["--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        bounds = (cli.MAX_DIGITS, cli.MAX_N, cli.MAX_CHAIN, cli.MAX_BRANES, cli.MAX_RANK, cli.MAX_WEIGHT,
                  cli.MAX_WEIGHTS, cli.MAX_TABLE_PAIRINGS)
        for bound in bounds:
            assert f", {bound}" in out
        assert f"the weight size of each multiplicative weight, {cli.MAX_WEIGHT}" in out
        assert f"{cli.MAX_TABLE_TERMS}" in out

    def test_repl_help_states_the_undo_bound(self, capsys):
        assert cli.main(["repl", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        assert f"the last {cli.MAX_UNDO} moves are kept, and older ones are dropped" in out


class TestVerifyCommand:
    def test_filtered_run_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--filter", "hyperspherical"], capsys)
        assert code == 0
        assert out.startswith("PASS hyperspherical-deficit")

    def test_json_output(self, capsys):
        code, out, _ = run_cli(["verify", "--filter", "coulomb-presentations", "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert payload["checks"][0]["name"] == "coulomb-presentations"

    def test_unknown_filter_fails(self, capsys):
        code, out, err = run_cli(["verify", "--filter", "no-such-check"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "coulomb-product-laws" in err

    def test_seed_env_var(self, capsys, monkeypatch):
        monkeypatch.setenv("SDUALKIT_SEED", "42")
        code, out, _ = run_cli(["verify", "--filter", "coulomb-presentations", "--json"], capsys)
        assert code == 0
        assert json.loads(out)["seed"] == 42

    def test_seed_env_var_underscore_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv("SDUALKIT_SEED", "1_0")
        code, out, err = run_cli(["verify", "--filter", "partition-transpose", "--json"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "SDUALKIT_SEED" in err

    def test_non_ascii_seed_exit_2(self, capsys):
        code, out, err = run_cli(["verify", "--filter", "partition-transpose", "--seed", "١٢"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "ASCII digits" in err


class TestRepl:
    def run_transcript(self, initial, commands):
        out = io.StringIO()
        cli.run_repl(BraneDiagram.parse(initial), io.StringIO(commands), out)
        return out.getvalue().splitlines()

    def test_hw_command(self):
        lines = self.run_transcript("0 o 1 x 1 x 1 o 0", "hw 0\nquit\n")
        assert lines[0] == "0 o 1 x 1 x 1 o 0"
        assert lines[2] == "0 x 1 o 1 x 1 o 0"
        assert lines[3] == "ns5 [1, 1]  d5 [1, 1]"

    def test_sdual_twice_restores(self):
        lines = self.run_transcript("0 o 1 x 0", "sdual\nsdual\n")
        assert lines[0] == "0 o 1 x 0"
        assert lines[2] == "0 x 1 o 0"
        assert lines[4] == "0 o 1 x 0"

    def test_undo(self):
        lines = self.run_transcript("0 o 1 x 1 x 1 o 0", "hw 0\nundo\n")
        assert lines[-2] == "0 o 1 x 1 x 1 o 0"

    def test_error_leaves_state(self):
        lines = self.run_transcript("0 o 9 x 0", "hw 0\ndims\n")
        assert any(line.startswith("error:") for line in lines)
        assert lines[-3] == "0 9 0"
        assert lines[-2] == "0 o 9 x 0"

    @pytest.mark.parametrize("command", ["sdual foo", "undo 3", "dims x", "linking 1", "quit now"])
    def test_an_extra_token_is_refused_and_changes_nothing(self, command):
        # The undo after the refused line takes back the hw move.
        lines = self.run_transcript("0 o 1 x 1 x 1 o 0", f"hw 0\n{command}\nundo\n")
        assert lines[2] == "0 x 1 o 1 x 1 o 0"
        assert lines[4:] == [f"error: usage: {command.split()[0]}", *lines[:2]]

    def test_index_past_the_diagram_is_an_error(self):
        lines = self.run_transcript("0 o 1 x 1 x 1 o 0", "hw 9\ndims\n")
        assert lines[2:] == ["error: no adjacent pair at index 9", "0 1 1 1 0", *lines[:2]]

    def test_non_integer_index_is_an_error(self):
        lines = self.run_transcript("0 o 1 x 1 x 1 o 0", "hw \u0660\nhw 0_0\n")
        assert [line for line in lines if line.startswith("error:")] == [
            "error: move index must be an integer written in ASCII digits, got '\u0660'",
            "error: move index must be an integer written in ASCII digits, got '0_0'",
        ]

    def test_replay_reproduces_state(self):
        script = "hw 0\nsdual\nhw 1\nundo\nsdual\n"
        first = self.run_transcript("0 o 1 x 1 x 1 o 0", script)
        second = self.run_transcript("0 o 1 x 1 x 1 o 0", script)
        assert first == second

    def test_history_keeps_a_word_per_sdual_line(self):
        # Each sdual line keeps one move, not the diagram it left: a
        # 6,000-symbol word as text is about 6 KiB, as a tuple of one-character
        # strings about 47 KiB. Showing the diagram after each line takes about
        # 440 KiB more for a moment.
        initial = BraneDiagram.parse("0" + " x 0" * cli.MAX_BRANES)
        lines = ["sdual\n"] * 200
        discard = types.SimpleNamespace(write=len)  # the output is rendered, then dropped
        tracemalloc.start()
        try:
            cli.run_repl(initial, lines, discard)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(lines) * 16 * 1024

    def test_undo_takes_back_moves_as_a_kept_diagram_history_would(self):
        # The reference keeps every diagram and pops one per undo.
        rng = random.Random(7)
        for _ in range(40):
            diagrams = [BraneDiagram.parse("0 o 1 x 2 o 2 x 1 o 1 x 0")]
            commands, want = [], []
            for _ in range(30):
                op = rng.choice(["hw", "hw", "sdual", "undo", "undo"])
                if op == "hw":
                    index = rng.randrange(-1, len(diagrams[-1].branes))
                    commands.append(f"hw {index}")
                    try:
                        diagrams.append(hw_move(diagrams[-1], index))
                    except ValueError:
                        continue
                elif op == "sdual":
                    commands.append("sdual")
                    diagrams.append(sdual(diagrams[-1]))
                else:
                    commands.append("undo")
                    if len(diagrams) == 1:
                        continue
                    diagrams.pop()
                want.append(diagrams[-1].render())
            lines = self.run_transcript("0 o 1 x 2 o 2 x 1 o 1 x 0", "\n".join(commands) + "\n")
            shown = [line for line in lines[2:] if not line.startswith(("ns5", "error:"))]
            assert shown == want

    def test_help_names_the_diagram_commands_then_dims_undo_quit(self, capsys):
        assert cli.main(["repl", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())  # argparse wraps the epilog
        named = text.split("Commands, one a line: ", 1)[1].split(". ", 1)[0].split(", ")
        usages = [" ".join([name, *params]) for name, (params, _) in cli.DIAGRAM_COMMANDS.items()]
        assert sorted(named[:-3]) == sorted(usages)
        assert named[-3:] == ["dims", "undo", "quit"]

    def test_undo_drops_the_oldest_moves_past_the_bound(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_UNDO", 3)
        lines = self.run_transcript("0 o 1 x 0", "sdual\n" * 5 + "undo\n" * 4)
        # after 5 moves the diagram is the S-dual; 3 undos are kept, the 4th has nothing
        assert [line for line in lines if not line.startswith("ns5")] == [
            "0 o 1 x 0", *["0 x 1 o 0", "0 o 1 x 0"] * 2, "0 x 1 o 0",
            "0 o 1 x 0", "0 x 1 o 0", "0 o 1 x 0", "error: nothing to undo",
        ]


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        assert cli.main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_missing_file_is_2(self, capsys):
        assert cli.main(["coulomb", "/nonexistent/file.json"]) == 2
        capsys.readouterr()

    def test_one_base_for_unsupported_input(self):
        # An error's type says only which exit code it gets, so the package
        # defines one exception class: the exit-3 base.
        assert cli.UNSUPPORTED == (UnsupportedInputError, RecursionError)
        assert issubclass(UnsupportedInputError, ValueError)
        classes = [
            (path.stem, node)
            for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ClassDef)
        ]
        exceptions = {
            name for name, obj in vars(builtins).items()
            if isinstance(obj, type) and issubclass(obj, BaseException)
        }
        found: set[tuple[str, str]] = set()
        while True:  # a class is an exception if one of its bases is
            derived = {
                (module, node.name)
                for module, node in classes
                if any(getattr(b, "id", getattr(b, "attr", None)) in exceptions for b in node.bases)
            }
            if derived <= found:
                break
            found |= derived
            exceptions |= {name for _, name in derived}
        assert found == {("exactalg", "UnsupportedInputError")}


class TestSubprocess:
    def test_repl_through_entry_point(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "sdualkit.cli", "repl", "0 o 1 x 1 x 1 o 0"],
            input="hw 0\nundo\nquit\n",
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "0 o 1 x 1 x 1 o 0"
        assert lines[2] == "0 x 1 o 1 x 1 o 0"
        assert lines[4] == "0 o 1 x 1 x 1 o 0"

    def test_import_leaves_verify_unloaded(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-c", "import sys, sdualkit.cli; print('sdualkit.verify' in sys.modules)"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (0, "False\n")
