"""Partition combinatorics for nilpotent orbits and slices in gl_n."""

from __future__ import annotations

from itertools import count
from operator import mul
from typing import Iterable, Iterator, Sequence

from .exactalg import Value, integer_rank, strict_int, strict_int_tuple, text_ints


class Partition(Value):
    """Weakly decreasing tuple of positive integers; canonical on construction."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = sorted(strict_int_tuple(parts, "partition part"), reverse=True)
        if cleaned and cleaned[-1] < 0:
            raise ValueError("partition parts must be nonnegative")
        self.parts = tuple([p for p in cleaned if p > 0])

    @classmethod
    def _trusted(cls, parts: tuple[int, ...]) -> "Partition":
        """Wrap parts as they are; only internal callers that hold canonical parts may use it."""
        lam = object.__new__(cls)
        lam.parts = parts
        return lam

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the bracketed comma form, e.g. ``[3,1,1]``."""
        text = text.strip()
        if not (text.startswith("[") and text.endswith("]")):
            raise ValueError(f"expected a bracketed partition, got {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return cls(())
        return cls(text_ints([piece.strip() for piece in inner.split(",")], "partition part"))

    @property
    def n(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "[" + ",".join(str(p) for p in self.parts) + "]"


def _as_partition(lam) -> Partition:
    return lam if isinstance(lam, Partition) else Partition(lam)


def transpose(lam) -> Partition:
    """Conjugate partition: column lengths of the Young diagram. By run lengths,
    it has lam_i - lam_(i+1) parts equal to i, for i = len(lam) down to 1."""
    parts = _as_partition(lam).parts
    columns, below = [], 0
    for i in range(len(parts), 0, -1):
        columns += [i] * (parts[i - 1] - below)
        below = parts[i - 1]
    return Partition._trusted(tuple(columns))


def centralizer_dim(lam) -> int:
    """Dimension of the gl_n centralizer of a nilpotent of Jordan type lam.

    Equals the dimension of the affine slice through that nilpotent and the
    sum of squared column lengths, sum_i (2i - 1) lam_i = 2 n(lam) + |lam|
    (Macdonald, Symmetric Functions and Hall Polynomials, I.1).
    """
    return sum(map(mul, count(1, 2), _as_partition(lam).parts))


def orbit_dim(lam) -> int:
    """Dimension of the nilpotent orbit of Jordan type lam inside gl_n."""
    lam = _as_partition(lam)
    return lam.n * lam.n - centralizer_dim(lam)


def rank_profile(lam, k: int) -> int:
    """Rank of x^k for x nilpotent of Jordan type lam."""
    if type(k) is not int or k < 0:  # one type test on chain_to_orbit's slow path
        strict_int(k, "power")
        raise ValueError("power must be nonnegative")
    return sum(max(p - k, 0) for p in _as_partition(lam).parts)


def hook(a: int, b: int) -> Partition:
    """The hook partition (a, 1^b) of a + b."""
    if a < 1:
        raise ValueError("hook arm must be at least 1")
    if strict_int(b, "hook leg") < 0:
        raise ValueError("hook leg must be nonnegative")
    return Partition((a,) + (1,) * b)


def dominates(lam, mu) -> bool:
    """Dominance order on partitions of the same total."""
    lam, mu = _as_partition(lam), _as_partition(mu)
    if lam.n != mu.n:
        raise ValueError("dominance compares partitions of the same integer")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam.parts[i] if i < len(lam) else 0
        total_m += mu.parts[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def partitions_of(n: int) -> Iterator[Partition]:
    """All partitions of n, largest part first; none for a negative n."""
    return map(Partition._trusted, _parts_of(strict_int(n, "partition total"), n))


def _parts_of(n: int, cap: int) -> Iterator[tuple[int, ...]]:
    """The parts of each partition of n with no part above cap, largest part first."""
    if n == 0:
        yield ()
        return
    for first in range(min(cap, n), 0, -1):
        for rest in _parts_of(n - first, first):
            yield (first,) + rest


def chain_to_orbit(dims: Sequence[int]) -> Partition:
    """Jordan type of the generic composite along a dimension chain.

    For a chain v_0 = 0 <= ... <= v_n, the composite endomorphism x of C^{v_n}
    satisfies rank(x^k) <= v_{n-k}. The generic composite attains the
    dominance-maximal Jordan type compatible with these bounds. One exists:
    1^n is always feasible, and the feasible rank profiles (convex,
    nonincreasing, r_0 = v_n, under the bounds) are closed under the
    pointwise maximum, so one feasible type dominates all the others, and
    it has the largest orbit. When the reversed consecutive differences
    already form a partition, its transpose is that type and is used as a
    fast path.
    """
    dims = strict_int_tuple(dims, "chain dimension")
    if not dims:
        raise ValueError("empty dimension chain")
    if dims[0] != 0:
        raise ValueError("dimension chain must start at 0")
    if any(v < 0 for v in dims):
        raise ValueError("dimensions must be nonnegative")
    steps = len(dims) - 1
    target = dims[-1]
    deltas = [dims[i + 1] - dims[i] for i in reversed(range(steps))]
    if any(d < 0 for d in deltas):
        raise ValueError(f"dimension chain {list(dims)} is not weakly increasing")
    if steps and all(deltas[i] >= deltas[i + 1] for i in range(len(deltas) - 1)):
        return transpose(Partition._trusted(tuple([d for d in deltas if d])))
    feasible = [
        p
        for p in partitions_of(target)
        if all(rank_profile(p, k) <= dims[steps - k] for k in range(1, steps + 1))
    ]
    return max(feasible, key=orbit_dim)


def _jordan_matrix(lam: Partition) -> list[list[int]]:
    n = lam.n
    entries = [[0] * n for _ in range(n)]
    offset = 0
    for block in lam.parts:
        for i in range(block - 1):
            entries[offset + i][offset + i + 1] = 1
        offset += block
    return entries


def numeric_jordan_oracle(lam) -> dict[int, int]:
    """Exact ranks of powers of the Jordan matrix of type lam.

    Builds the block-diagonal nilpotent matrix over the integers and computes
    rank(J^k) for k = 0 .. largest part, independently of rank_profile.
    """
    lam = _as_partition(lam)
    n = lam.n
    if n > 64:
        raise ValueError("oracle capped at matrices of size 64")
    jordan = _jordan_matrix(lam)
    power = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    table: dict[int, int] = {}
    top = lam.parts[0] if lam.parts else 0
    for k in range(top + 1):
        table[k] = integer_rank(power, n)
        if k < top:
            power = [
                [sum(power[i][l] * jordan[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)
            ]
    return table
