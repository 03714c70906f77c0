import json
import random
import tracemalloc

import pytest

from sdualkit.brane import (
    BraneDiagram,
    LinkingData,
    QuiverData,
    admissible_moves,
    concat,
    expected_space,
    hw_move,
    linking_numbers,
    quiver_to_diagram,
    sdual,
)
from sdualkit.exactalg import UnsupportedInputError
from sdualkit.partitions import Partition
from sdualkit.verify import random_diagram


class TestDiagramBasics:
    def test_grammar_round_trip(self):
        text = "0 o 1 x 1 x 1 o 0"
        d = BraneDiagram.parse(text)
        assert d.render() == str(d) == text
        assert BraneDiagram.parse(d.render()) == d

    def test_json_round_trip(self):
        d = BraneDiagram(["o", "x"], [0, 2, 0])
        assert BraneDiagram(**json.loads(json.dumps(d.to_json()))) == d

    def test_validation(self):
        with pytest.raises(ValueError):
            BraneDiagram(["o"], [0])
        with pytest.raises(ValueError):
            BraneDiagram(["z"], [0, 0])
        with pytest.raises(ValueError):
            BraneDiagram(["o"], [0, -1])
        with pytest.raises(ValueError):
            BraneDiagram.parse("0 o 1 x")

    def test_parse_reads_ascii_integers_only(self):
        for text in ("0 o 1_0 o 0", "0 o \u0663 o 0", "+0 o 1 o 0", "0 o 1.0 o 0"):
            with pytest.raises(ValueError, match="segment dimension must be an integer"):
                BraneDiagram.parse(text)

    def test_validation_messages(self):
        cases = [
            ((["z"], [0, 0]), "brane symbols must be 'o' or 'x'"),
            (([["o"]], [0, 0]), "brane symbols must be 'o' or 'x'"),
            ((["z"], [0]), "brane symbols must be 'o' or 'x'"),
            ((["ox"], [0, 0]), "brane symbols must be 'o' or 'x'"),
            ((["o", ""], [0, 0, 0]), "brane symbols must be 'o' or 'x'"),
            ((["o"], [0]), "need exactly one more dimension label than branes"),
            (([], []), "need exactly one more dimension label than branes"),
            ((["o"], [0, -1]), "segment dimensions must be nonnegative"),
        ]
        for args, message in cases:
            with pytest.raises(ValueError) as info:
                BraneDiagram(*args)
            assert str(info.value) == message


class TestInternalResults:
    """Moves build their results without re-validation; each must equal the
    diagram the validating constructor builds from the same fields."""

    @staticmethod
    def assert_valid(d):
        rebuilt = BraneDiagram(list(d.branes), list(d.dims))
        assert d == rebuilt
        assert hash(d) == hash(rebuilt)
        assert type(d.branes) is str and type(d.dims) is tuple
        assert all(type(x) is int for x in d.dims)

    def test_moves_give_valid_diagrams(self):
        rng = random.Random(41)
        corpus = [random_diagram(rng) for _ in range(300)]
        for d in corpus:
            for i in admissible_moves(d):
                self.assert_valid(hw_move(d, i))
            self.assert_valid(sdual(d))
        for d1, d2 in zip(corpus[::2], corpus[1::2]):
            self.assert_valid(concat(d1, d2))

    def test_unfolded_quivers_are_valid(self):
        rng = random.Random(42)
        for _ in range(200):
            length = rng.randint(0, 4)
            q = QuiverData(
                [rng.randint(0, 4) for _ in range(length)],
                [rng.randint(0, 3) for _ in range(length)],
            )
            self.assert_valid(quiver_to_diagram(q))


class TestQuiverToDiagram:
    def test_single_node_two_flavors(self):
        d = quiver_to_diagram(QuiverData([1], [2]))
        assert d.branes == "oxxo"
        assert d.dims == (0, 1, 1, 1, 0)

    def test_no_framing(self):
        d = quiver_to_diagram(QuiverData([1], [0]))
        assert d.branes == "oo"
        assert d.dims == (0, 1, 0)

    def test_two_nodes(self):
        d = quiver_to_diagram(QuiverData([1, 2], [0, 3]))
        assert d.branes == "ooxxxo"
        assert d.dims == (0, 1, 2, 2, 2, 2, 0)

    def test_malformed_quivers(self):
        # One scan tests every type; a failed scan names the first bad entry,
        # gauge before framing, before the lengths and the signs are read.
        for gauge, framing, message in [
            ([1, True], [0, 1], "gauge rank must be an integer, got True"),
            ([True], [1.5], "gauge rank must be an integer, got True"),
            ([1], [1.0], "framing rank must be an integer, got 1.0"),
            ([1], [True, 2], "framing rank must be an integer, got True"),
            ([1, 2], [0], "gauge and framing vectors must have the same length"),
            ([1], [-1, 0], "gauge and framing vectors must have the same length"),
            ([1, -1], [0, 0], "quiver dimensions must be nonnegative"),
        ]:
            with pytest.raises(ValueError) as info:
                QuiverData(gauge, framing)
            assert str(info.value) == message

    def test_the_empty_quiver_unfolds_to_one_o(self):
        d = quiver_to_diagram(QuiverData([], []))
        assert d.render() == "0 o 0"
        assert d == BraneDiagram(["o"], [0, 0])

    def test_gauge_ranks_recovered_from_jumps(self):
        rng = random.Random(2)
        for _ in range(100):
            length = rng.randint(1, 4)
            gauge = [rng.randint(0, 4) for _ in range(length)]
            framing = [rng.randint(0, 4) for _ in range(length)]
            d = quiver_to_diagram(QuiverData(gauge, framing))
            jumps = [d.dims[p + 1] for p, b in enumerate(d.branes) if b == "o"]
            assert jumps[:-1] == gauge
            assert jumps[-1] == 0


class TestSdual:
    def test_flavor_example(self):
        d = BraneDiagram.parse("0 o 1 x 1 x 1 o 0")
        assert sdual(d).render() == "0 x 1 o 1 o 1 x 0"

    def test_empty(self):
        d = BraneDiagram([], [0])
        assert sdual(d) == d

    def test_involution(self):
        rng = random.Random(8)
        for _ in range(200):
            d = random_diagram(rng)
            assert sdual(sdual(d)) == d

    def test_distributes_over_concat(self):
        rng = random.Random(9)
        for _ in range(100):
            d1, d2 = random_diagram(rng), random_diagram(rng)
            assert sdual(concat(d1, d2)) == concat(sdual(d1), sdual(d2))

    def test_flipped_words_leave_no_tuples_behind(self):
        # A word built without a length hint is allocated at one size and
        # freed into the free list of another, so each call would keep one.
        diagrams = [BraneDiagram(("o",) * n, (0,) * (n + 1)) for n in range(1, 22) for _ in range(2000)]
        tracemalloc.start()
        try:
            for d in diagrams:
                sdual(d)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20


class TestHananyWitten:
    def test_local_rule(self):
        d = BraneDiagram(["o", "x"], [0, 1, 1])
        moved = hw_move(d, 0)
        assert moved.branes == "xo"
        assert moved.dims == (0, 1, 1)

    def test_second_example(self):
        d = BraneDiagram(["x", "o"], [1, 2, 2])
        moved = hw_move(d, 0)
        assert moved.branes == "ox"
        assert moved.dims == (1, 2, 2)

    def test_involution(self):
        rng = random.Random(10)
        for _ in range(300):
            d = random_diagram(rng)
            i = rng.choice(admissible_moves(d))
            assert hw_move(hw_move(d, i), i) == d

    def test_same_type_pair_rejected(self):
        d = BraneDiagram(["o", "o"], [0, 1, 0])
        with pytest.raises(ValueError):
            hw_move(d, 0)

    def test_index_out_of_range(self):
        d = BraneDiagram(["o", "x"], [0, 1, 0])
        with pytest.raises(UnsupportedInputError, match="no adjacent pair at index 5"):
            hw_move(d, 5)

    def test_negative_dimension_rejected(self):
        d = BraneDiagram(["o", "x"], [0, 9, 0])
        with pytest.raises(UnsupportedInputError, match="transition at 0 would give segment dimension -8"):
            hw_move(d, 0)

    def test_commutes_with_sdual(self):
        rng = random.Random(12)
        for _ in range(200):
            d = random_diagram(rng)
            i = rng.choice(admissible_moves(d))
            assert sdual(hw_move(d, i)) == hw_move(sdual(d), i)


class TestLinkingNumbers:
    def test_flavor_example(self):
        d = BraneDiagram.parse("0 o 1 x 1 x 1 o 0")
        assert linking_numbers(d) == LinkingData([1, 1], [1, 1])

    def test_single_ns5(self):
        d = BraneDiagram(["o"], [0, 0])
        assert linking_numbers(d) == LinkingData([0], [])

    def test_order_independent_equality(self):
        assert LinkingData([2, 1], [0]) == LinkingData([1, 2], [0])

    def test_invariant_under_moves(self):
        rng = random.Random(14)
        for _ in range(300):
            d = random_diagram(rng)
            i = rng.choice(admissible_moves(d))
            assert linking_numbers(hw_move(d, i)) == linking_numbers(d)

    def test_matches_the_counting_definition(self):
        # an o brane counts the x branes to its left, an x brane the o branes to its right
        rng = random.Random(15)
        for _ in range(300):
            n = rng.randint(0, 200)
            branes = [rng.choice("ox") for _ in range(n)]
            dims = [rng.randint(0, 9) for _ in range(n + 1)]
            ns5, d5 = [], []
            for p, b in enumerate(branes):
                if b == "o":
                    ns5.append(dims[p + 1] - dims[p] + branes[:p].count("x"))
                else:
                    d5.append(dims[p] - dims[p + 1] + branes[p + 1 :].count("o"))
            assert linking_numbers(BraneDiagram(branes, dims)) == LinkingData(ns5, d5)


class TestConcat:
    def test_boundary_must_match(self):
        d1 = BraneDiagram(["o"], [0, 1])
        d2 = BraneDiagram(["o"], [0, 0])
        with pytest.raises(ValueError):
            concat(d1, d2)
        d3 = BraneDiagram(["x"], [1, 0])
        joined = concat(d1, d3)
        assert joined.branes == "ox"
        assert joined.dims == (0, 1, 0)


class TestExpectedSpace:
    def test_pure_chain(self):
        d = BraneDiagram(["o", "o", "o"], [0, 1, 2, 3])
        space = expected_space(d)
        assert space.kind == "orbit_closure"
        assert space.partition == Partition([3])
        assert space.dim == 6

    def test_single_cross_equal_ranks(self):
        space = expected_space(BraneDiagram(["x"], [2, 2]))
        assert space.dim == 12

    def test_single_cross_unequal(self):
        space = expected_space(BraneDiagram(["x"], [3, 1]))
        assert space.kind == "group_times_slice"
        assert space.partition == Partition([2, 1])
        assert space.dim == 14

    def test_single_circle(self):
        space = expected_space(BraneDiagram(["o"], [2, 3]))
        assert space.dim == 12

    def test_unsupported(self):
        with pytest.raises(UnsupportedInputError, match="only single building blocks and all-o chains"):
            expected_space(BraneDiagram(["o", "x"], [0, 1, 0]))
        with pytest.raises(UnsupportedInputError, match="all-o chains must start at dimension 0"):
            expected_space(BraneDiagram(["o", "o"], [1, 1, 1]))

    def test_block_dimension_gap_recorded(self):
        # The two blocks are never asserted equal; their dimension gap is
        # tracked explicitly.
        for vi in range(4):
            for vj in range(4):
                circle = expected_space(BraneDiagram(["o"], [vi, vj]))
                cross = expected_space(BraneDiagram(["x"], [vi, vj]))
                if vi == vj:
                    expected_cross = 2 * (vi * vi + vi)
                else:
                    hi, lo = max(vi, vj), min(vi, vj)
                    expected_cross = hi * hi + (lo + 1) ** 2 + hi - lo - 1
                assert cross.dim - circle.dim == expected_cross - 2 * vi * vj
