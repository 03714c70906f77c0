"""Linear brane-diagram calculus for bow varieties.

A diagram is an ordered word in two fivebrane symbols, ``o`` and ``x``, with
an integer dimension label on every segment between (and outside) branes.
Supported moves: the duality swap exchanging the two symbols, and the local
transition swapping an adjacent opposite-type pair while updating the middle
segment so that linking numbers are conserved.

Conventions (fixed once, the mirror convention is diagram reversal): an
``o`` brane counts ``x`` branes strictly to its left, an ``x`` brane counts
``o`` branes strictly to its right.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import spaces
from .exactalg import _INT_ONLY, UnsupportedInputError, Value, strict_int, strict_int_tuple, text_ints
from .partitions import chain_to_orbit


NS5 = "o"
D5 = "x"
_SYMBOLS = frozenset((NS5, D5))
_SWAP = str.maketrans(NS5 + D5, D5 + NS5)


class BraneDiagram(Value):
    """A word of fivebranes, a string of ``o`` and ``x``, with one dimension label per segment."""

    __slots__ = ("branes", "dims")

    def __init__(self, branes: Iterable[str], dims: Iterable[int]):
        symbols = tuple(branes)
        self.dims = strict_int_tuple(dims, "segment dimension")
        try:
            known = _SYMBOLS.issuperset(symbols)
        except TypeError:  # an unhashable symbol is not a brane either
            known = False
        if not known:
            raise ValueError(f"brane symbols must be '{NS5}' or '{D5}'")
        if len(self.dims) != len(symbols) + 1:
            raise ValueError("need exactly one more dimension label than branes")
        if min(self.dims) < 0:
            raise ValueError("segment dimensions must be nonnegative")
        self.branes = "".join(symbols)

    @classmethod
    def _trusted(cls, branes: str, dims: tuple[int, ...]) -> "BraneDiagram":
        """Wrap a word and dims that pass every check of ``__init__``. Internal results only."""
        d = object.__new__(cls)
        d.branes = branes
        d.dims = dims
        return d

    @classmethod
    def parse(cls, text: str) -> "BraneDiagram":
        """Parse the interleaved form, e.g. ``0 o 1 x 1 x 1 o 0``."""
        tokens = text.split()
        if len(tokens) % 2 == 0:
            raise ValueError("diagram text must interleave dims and branes")
        return cls(tokens[1::2], text_ints(tokens[0::2], "segment dimension"))

    def render(self) -> str:
        pieces = [str(self.dims[0])]
        for brane, dim in zip(self.branes, self.dims[1:]):
            pieces.append(brane)
            pieces.append(str(dim))
        return " ".join(pieces)

    def to_json(self) -> dict:
        return {"branes": list(self.branes), "dims": list(self.dims)}

    def __len__(self) -> int:
        return len(self.branes)

    def __str__(self) -> str:
        return self.render()


class QuiverData(Value):
    """A linear quiver: gauge ranks v_1..v_l and framing ranks w_1..w_l."""

    __slots__ = ("gauge", "framing")

    def __init__(self, gauge: Sequence[int], framing: Sequence[int]):
        self.gauge = gauge = tuple(gauge)
        self.framing = framing = tuple(framing)
        both = gauge + framing
        if not _INT_ONLY.issuperset(map(type, both)):  # one scan; name the first bad entry
            strict_int_tuple(gauge, "gauge rank")
            strict_int_tuple(framing, "framing rank")
        if len(gauge) != len(framing):
            raise ValueError("gauge and framing vectors must have the same length")
        if min(both, default=0) < 0:
            raise ValueError("quiver dimensions must be nonnegative")


class LinkingData(Value):
    """Multisets of linking numbers, one per fivebrane type."""

    __slots__ = ("ns5", "d5")

    def __init__(self, ns5: Iterable[int], d5: Iterable[int]):
        self.ns5 = tuple(sorted(strict_int_tuple(ns5, "linking number")))
        self.d5 = tuple(sorted(strict_int_tuple(d5, "linking number")))

    def __str__(self) -> str:
        return f"ns5 {list(self.ns5)}  d5 {list(self.d5)}"

    def to_json(self) -> dict:
        return {"ns5": list(self.ns5), "d5": list(self.d5)}


def quiver_to_diagram(q: QuiverData) -> BraneDiagram:
    """Unfold a linear quiver into its brane word.

    One ``o`` opens each node, followed by w_i copies of ``x`` at constant
    segment dimension v_i, and a final ``o`` closes the diagram back to 0.
    """
    dims: tuple[int, ...] = (0,)
    for v, w in zip(q.gauge, q.framing):
        dims += (v,) * (w + 1)
    # The empty ends put an o before the first node and after the last.
    branes = NS5.join(["", *map(D5.__mul__, q.framing), ""])
    return BraneDiagram._trusted(branes, dims + (0,))


def sdual(d: BraneDiagram) -> BraneDiagram:
    """Exchange the two fivebrane types, keeping all segment dimensions."""
    return BraneDiagram._trusted(d.branes.translate(_SWAP), d.dims)


def hw_move(d: BraneDiagram, i: int) -> BraneDiagram:
    """Swap the adjacent opposite-type pair at positions (i, i+1).

    The middle segment dimension is replaced by d1 + d3 + 1 - d2, the unique
    affine update making the move an involution that preserves linking
    numbers.
    """
    if type(i) is not int or not 0 <= i < len(d.branes) - 1:
        strict_int(i, "move index")  # a non-int index is malformed, not out of range
        raise UnsupportedInputError(f"no adjacent pair at index {i}")
    if d.branes[i] == d.branes[i + 1]:
        raise ValueError(f"branes at {i}, {i + 1} have the same type; move undefined")
    d1, d2, d3 = d.dims[i], d.dims[i + 1], d.dims[i + 2]
    new_mid = d1 + d3 + 1 - d2
    if new_mid < 0:
        raise UnsupportedInputError(
            f"transition at {i} would give segment dimension {new_mid}"
        )
    branes = d.branes[:i] + d.branes[i + 1] + d.branes[i] + d.branes[i + 2 :]
    return BraneDiagram._trusted(branes, d.dims[: i + 1] + (new_mid,) + d.dims[i + 2 :])


def admissible_moves(d: BraneDiagram) -> list[int]:
    """Indices of opposite-type pairs whose transition stays nonnegative."""
    out = []
    for i in range(len(d.branes) - 1):
        if d.branes[i] != d.branes[i + 1]:
            if d.dims[i] + d.dims[i + 2] + 1 - d.dims[i + 1] >= 0:
                out.append(i)
    return out


def linking_numbers(d: BraneDiagram) -> LinkingData:
    """Conserved charges: dimension jump plus a count of opposite branes.

    One pass keeps the number of ``x`` branes seen so far and of ``o`` branes
    still to come.
    """
    dims = d.dims
    ns5 = []
    d5 = []
    x_left, o_right = 0, d.branes.count(NS5)
    for p, brane in enumerate(d.branes):
        if brane == NS5:
            o_right -= 1
            ns5.append(dims[p + 1] - dims[p] + x_left)
        else:
            x_left += 1
            d5.append(dims[p] - dims[p + 1] + o_right)
    return LinkingData(ns5, d5)


def concat(d1: BraneDiagram, d2: BraneDiagram) -> BraneDiagram:
    """Concatenate two diagrams along a matching boundary segment."""
    if d1.dims[-1] != d2.dims[0]:
        raise ValueError(
            f"boundary dimensions differ: {d1.dims[-1]} vs {d2.dims[0]}"
        )
    return BraneDiagram._trusted(d1.branes + d2.branes, d1.dims + d2.dims[1:])


def expected_space(d: BraneDiagram) -> spaces.SpaceDescriptor:
    """Space reading of the two recognized diagram families.

    A single brane is one building block: ``o`` gives the cotangent of the
    Hom space, ``x`` the slice-type block. A multi-brane all-``o`` chain
    starting at dimension 0 composes to a nilpotent orbit closure.
    """
    if len(d.branes) == 1:
        vi, vj = d.dims
        if d.branes[0] == NS5:
            return spaces.SpaceDescriptor.m_circle(vi, vj)
        return spaces.SpaceDescriptor.m_cross(vi, vj)
    if d.branes and d.branes.count(NS5) == len(d.branes):
        if d.dims[0] != 0:
            raise UnsupportedInputError("all-o chains must start at dimension 0")
        lam = chain_to_orbit(d.dims)
        return spaces.SpaceDescriptor.orbit_closure(lam.n, lam)
    raise UnsupportedInputError(
        "only single building blocks and all-o chains have a space reading"
    )
