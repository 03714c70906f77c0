import itertools
import random
import tracemalloc

import pytest

from sdualkit.exactalg import integer_kernel
from sdualkit.partitions import (
    Partition,
    centralizer_dim,
    chain_to_orbit,
    dominates,
    hook,
    numeric_jordan_oracle,
    orbit_dim,
    partitions_of,
    rank_profile,
    transpose,
)


def jordan_blocks(lam):
    n = lam.n
    entries = [[0] * n for _ in range(n)]
    offset = 0
    for block in lam.parts:
        for i in range(block - 1):
            entries[offset + i][offset + i + 1] = 1
        offset += block
    return entries


def commutant_dim(lam):
    """dim of {x : xJ = Jx} computed as an honest linear-system kernel."""
    n = lam.n
    if n == 0:
        return 0
    J = jordan_blocks(lam)
    rows = []
    for i in range(n):
        for j in range(n):
            # coefficient of x[k][l] in (xJ - Jx)[i][j]
            row = [0] * (n * n)
            for l in range(n):
                row[i * n + l] += J[l][j]
            for k in range(n):
                row[k * n + j] -= J[i][k]
            rows.append(row)
    return len(integer_kernel(rows, n * n))


class TestPartitionBasics:
    def test_canonicalized_on_construction(self):
        assert Partition([1, 3, 0, 2]).parts == (3, 2, 1)
        assert Partition([]).parts == ()
        with pytest.raises(ValueError):
            Partition([2, -1])

    def test_parse_and_render(self):
        assert Partition.parse("[3,1,1]") == Partition([3, 1, 1])
        assert str(Partition([3, 1, 1])) == "[3,1,1]"
        assert Partition.parse("[]") == Partition([])
        with pytest.raises(ValueError):
            Partition.parse("3,1")

    def test_equality_keeps_the_hash_contract(self):
        # Equal objects hash alike, so a partition equals no tuple or list.
        lam = Partition((2, 1))
        assert lam != (2, 1) and lam != [2, 1]
        assert (2, 1) not in {lam} and lam in {Partition([1, 2])}

    def test_parse_reads_ascii_integers_only(self):
        assert Partition.parse("[ 3, 1 ]") == Partition([3, 1])
        for text in ("[1_0]", "[\u0663,1]", "[+3]", "[3,]", "[3.0]"):
            with pytest.raises(ValueError):
                Partition.parse(text)

    def test_a_negative_total_has_no_partitions(self):
        assert list(partitions_of(-3)) == []
        assert list(partitions_of(0)) == [Partition(())]

    def test_construction_leaves_no_tuples_behind(self):
        # As for brane.sdual's words: parts built without a length hint would
        # leave one tuple per call in the free list of its final size.
        inputs = [tuple(range(n, 0, -1)) for n in range(1, 25) for _ in range(2000)]
        tracemalloc.start()
        try:
            for parts in inputs:
                Partition(parts)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20


def partitions_by_smallest_part(n, smallest=1):
    """Every partition of n with no part below ``smallest``, as a weakly
    increasing list, built without partitions_of."""
    if n == 0:
        return [[]]
    return [
        [first] + rest
        for first in range(smallest, n + 1)
        for rest in partitions_by_smallest_part(n - first, first)
    ]


def columns(parts):
    """Column lengths of the Young diagram by their definition: the k-th is
    the number of parts of at least k."""
    return [sum(1 for p in parts if p >= k) for k in range(1, max(parts, default=0) + 1)]


class TestKernelOracles:
    """transpose, centralizer_dim and partitions_of against counting
    definitions, on every partition of n <= 20."""

    EVERY = [
        (n, sorted(parts, reverse=True)) for n in range(21) for parts in partitions_by_smallest_part(n)
    ]

    def test_partitions_of_yields_every_partition_once_canonically(self):
        for n in range(21):
            got = [lam.parts for lam in partitions_of(n)]
            for parts in got:
                assert type(parts) is tuple and all(p > 0 for p in parts)
                assert list(parts) == sorted(parts, reverse=True) and sum(parts) == n
            assert sorted(got) == sorted(tuple(p) for m, p in self.EVERY if m == n)

    def test_transpose_is_the_column_count_and_canonical(self):
        for _, parts in self.EVERY:
            t = transpose(Partition(parts))
            assert list(t.parts) == columns(parts)
            assert t == Partition(t.parts) and type(t.parts) is tuple
            assert all(c > 0 for c in t.parts) and list(t.parts) == sorted(t.parts, reverse=True)

    def test_centralizer_dim_is_the_sum_of_squared_columns(self):
        for n, parts in self.EVERY:
            expected = sum(c * c for c in columns(parts))
            assert centralizer_dim(Partition(parts)) == expected
            assert orbit_dim(Partition(parts)) == n * n - expected

    def test_list_tuple_and_empty_inputs(self):
        assert transpose([1, 3, 0, 2]) == transpose((2, 3, 1)) == Partition([3, 2, 1])
        assert transpose([4, 1]) == Partition([2, 1, 1, 1])
        assert centralizer_dim([1, 2]) == centralizer_dim((2, 1)) == 5
        assert centralizer_dim((1, 1, 1)) == 9
        assert transpose(()) == transpose([]) == Partition(())
        assert transpose(()).parts == ()
        assert centralizer_dim(()) == centralizer_dim([]) == 0
        assert orbit_dim(()) == 0


class TestTranspose:
    def test_transpose_leaves_no_tuples_behind(self):
        # Column tuples built without a length hint would leave one tuple
        # per call in the free list of its final size.
        inputs = [Partition(range(n, 0, -1)) for n in range(1, 25) for _ in range(2000)]
        tracemalloc.start()
        try:
            for lam in inputs:
                transpose(lam)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 1 << 20

    def test_row_to_column(self):
        assert transpose(Partition([3])) == Partition([1, 1, 1])
        assert transpose(Partition([3, 1])) == Partition([2, 1, 1])
        assert transpose(Partition([4, 2, 1])) == Partition([3, 2, 1, 1])

    def test_involution_and_dominance_reversal(self):
        for n in range(9):
            parts = list(partitions_of(n))
            for lam in parts:
                assert transpose(transpose(lam)) == lam
            for lam in parts:
                for mu in parts:
                    assert dominates(lam, mu) == dominates(transpose(mu), transpose(lam))
        with pytest.raises(ValueError, match="same integer"):
            dominates(Partition([2]), Partition([1]))


class TestDimensions:
    def test_centralizer_examples(self):
        assert centralizer_dim(Partition([1, 1, 1])) == 9
        assert centralizer_dim(Partition([3])) == 3
        assert centralizer_dim(Partition([2, 1])) == 5

    def test_centralizer_against_commutant_oracle(self):
        for n in range(6):
            for lam in partitions_of(n):
                assert centralizer_dim(lam) == commutant_dim(lam)

    def test_orbit_dim_examples(self):
        assert orbit_dim(Partition([3])) == 6
        assert orbit_dim(Partition([1, 1, 1, 1])) == 0
        assert orbit_dim(Partition([2, 2])) == 8
        assert orbit_dim(Partition([2, 1])) == 4

    def test_orbit_plus_centralizer(self):
        for n in range(11):
            for lam in partitions_of(n):
                assert orbit_dim(lam) + centralizer_dim(lam) == n * n

    def test_hook_centralizer_formula(self):
        for a in range(1, 7):
            for b in range(0, 7):
                assert centralizer_dim(hook(a, b)) == (b + 1) ** 2 + (a - 1)


class TestRankProfile:
    def test_examples(self):
        assert rank_profile(Partition([3]), 1) == 2
        assert rank_profile(Partition([2, 1]), 1) == 1
        assert rank_profile(Partition([4, 2, 1]), 2) == 2

    def test_matches_numeric_oracle(self):
        for n in range(11):
            for lam in partitions_of(n):
                table = numeric_jordan_oracle(lam)
                for k, rank in table.items():
                    assert rank_profile(lam, k) == rank

    def test_oracle_examples(self):
        assert numeric_jordan_oracle(Partition([2])) == {0: 2, 1: 1, 2: 0}
        assert numeric_jordan_oracle(Partition([3, 1])) == {0: 4, 1: 2, 2: 1, 3: 0}
        assert numeric_jordan_oracle(Partition([2, 2])) == {0: 4, 1: 2, 2: 0}

    def test_bounds(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rank_profile(Partition([2]), -1)
        with pytest.raises(ValueError, match="size 64"):
            numeric_jordan_oracle(Partition([65]))


class TestHook:
    def test_examples(self):
        assert hook(3, 0) == Partition([3])
        assert hook(2, 2) == Partition([2, 1, 1])
        assert hook(1, 3) == Partition([1, 1, 1, 1])
        with pytest.raises(ValueError):
            hook(0, 1)
        with pytest.raises(ValueError, match="leg"):
            hook(1, -1)


class TestChainToOrbit:
    def test_staircase_gives_full_cone(self):
        for n in range(1, 9):
            assert chain_to_orbit(range(n + 1)) == Partition([n])

    def test_single_step_is_zero_orbit(self):
        assert chain_to_orbit((0, 3)) == Partition([1, 1, 1])

    def test_two_step(self):
        assert chain_to_orbit((0, 1, 3)) == Partition([2, 1])

    def test_requires_zero_start(self):
        with pytest.raises(ValueError):
            chain_to_orbit((1, 2))

    def test_requires_a_weakly_increasing_chain(self):
        with pytest.raises(ValueError, match="not weakly increasing"):
            chain_to_orbit((0, 3, 1))

    def test_fast_path_matches_brute_force(self):
        rng = random.Random(31)
        for _ in range(120):
            steps = rng.randint(1, 5)
            dims = [0]
            for _ in range(steps):
                dims.append(dims[-1] + rng.randint(0, 3))
            if dims[-1] > 8 or dims[-1] == 0:
                continue
            result = chain_to_orbit(dims)
            feasible = [
                p
                for p in partitions_of(dims[-1])
                if all(rank_profile(p, k) <= dims[steps - k] for k in range(1, steps + 1))
            ]
            assert result in feasible
            assert all(dominates(result, q) for q in feasible)

    def test_every_small_chain_has_a_dominant_feasible_type(self):
        # Exhaustive over chains of at most 4 steps into C^n, n <= 6.
        for steps in range(1, 5):
            for increments in itertools.product(range(7), repeat=steps):
                dims = list(itertools.accumulate(increments, initial=0))
                if dims[-1] > 6:
                    continue
                feasible = [
                    p
                    for p in partitions_of(dims[-1])
                    if all(rank_profile(p, k) <= dims[steps - k] for k in range(1, steps + 1))
                ]
                assert all(dominates(chain_to_orbit(dims), q) for q in feasible), dims

    def test_non_monotone_differences_use_brute_force(self):
        # reversed differences (0, 2) are not weakly decreasing
        assert chain_to_orbit((0, 2, 2)) == Partition([2])

    def test_composed_dimension_identity(self):
        # sum of 2 dim Hom(C^i, C^{i+1}) minus twice the middle group dims
        for n in range(1, 11):
            total = sum(2 * i * (i + 1) for i in range(n)) - 2 * sum(i * i for i in range(1, n))
            assert total == n * n - n == orbit_dim(Partition([n]))
