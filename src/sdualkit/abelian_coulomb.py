"""Coulomb-branch rings of torus gauge theories, computed exactly.

A theory is a torus of rank r together with integer weight vectors for the
linear matter directions and for torus-valued (multiplicative) matter
directions. The ring is spanned over C[w_1..w_r] by classes r[lam] indexed
by cocharacters lam in Z^r, one for each connected component of the
underlying moduli space, and the component label is exactly the grading by
the fundamental group of the torus.

Products obey

    r[lam] * r[mu] = prod_j a_j(w)^{d_j} * r[lam + mu],
    d_j = (|<a_j, lam>| + |<a_j, mu>| - |<a_j, lam + mu>|) / 2,

the unique rule bilinear in the weight valuations that reproduces every
rank-one case; a class r[lam] is homogeneous of monopole degree
sum_j |<a_j, lam>| / 2 (half-integers are stored doubled), with each w of
degree one. Multiplicative matter kills every class whose cocharacter fails
to annihilate its weights, so those theories reduce to the kernel sublattice.
A table's box is filtered by the at most rank weights that cut it out.

The engine works on pairings: since <a_j, lam + mu> = <a_j, lam> + <a_j, mu>,
the exponents d_j of a product need only the pairing tuples of lam and mu,
and each cocharacter's tuple is computed once per call. A structure-constant
table expands each distinct exponent vector once, through a dict local to
the call (most entries repeat one), and keeps nothing after it returns.
Products and sums of elements are built without re-validation, since sums
of annihilating cocharacters annihilate.
"""

from __future__ import annotations

import itertools
from operator import add, mul
from typing import Sequence

from . import spaces
from .exactalg import (
    LinearForm,
    Polynomial,
    UnsupportedInputError,
    Value,
    eval_product,
    integer_kernel,
    strict_int,
    strict_int_tuple,
    strict_ints,
    strict_object,
)


Cochar = tuple[int, ...]
Table = list[tuple[Cochar, Cochar, Polynomial]]


def _as_form(weight, rank: int) -> LinearForm:
    form = weight if isinstance(weight, LinearForm) else LinearForm(weight)
    if form.rank != rank:
        raise ValueError(f"weight {list(form.coeffs)} has rank {form.rank}, expected {rank}")
    return form


class TorusTheory(Value):
    """A torus gauge group with linear and multiplicative matter weights."""

    __slots__ = ("rank", "linear_weights", "multiplicative_weights")

    def __init__(self, rank: int, linear_weights=(), multiplicative_weights=()):
        self.rank = strict_int(rank, "rank")
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        self.linear_weights = tuple(_as_form(a, self.rank) for a in linear_weights)
        self.multiplicative_weights = tuple(_as_form(b, self.rank) for b in multiplicative_weights)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "linear_weights": [list(a.coeffs) for a in self.linear_weights],
            "multiplicative_weights": [list(b.coeffs) for b in self.multiplicative_weights],
        }

    @classmethod
    def from_json(cls, data: dict) -> "TorusTheory":
        strict_object(data, "theory", ("rank",), ("linear_weights", "multiplicative_weights"))
        weights = []
        for key in ("linear_weights", "multiplicative_weights"):
            rows = data.get(key, [])
            if not isinstance(rows, list):
                raise ValueError(f"{key} must be a list of weight vectors, got {rows!r}")
            weights.append([strict_ints(row, key) for row in rows])
        return cls(strict_int(data["rank"], "rank"), *weights)

    def describe(self) -> str:
        out = f"rank {self.rank}"
        if self.linear_weights:
            out += ", linear " + ",".join(str(list(a.coeffs)) for a in self.linear_weights)
        if self.multiplicative_weights:
            out += ", mult " + ",".join(str(list(b.coeffs)) for b in self.multiplicative_weights)
        return out

    # -- basic structure ---------------------------------------------------

    def _check_cochar(self, lam: Sequence[int]) -> Cochar:
        lam = strict_int_tuple(lam, "cocharacter entry")
        if len(lam) != self.rank:
            raise ValueError(f"cocharacter {lam} has length {len(lam)}, expected {self.rank}")
        return lam

    def _annihilates(self, lam: Cochar) -> bool:
        """Whether a checked cocharacter pairs to zero with every multiplicative weight."""
        return not any(_pairings(self.multiplicative_weights, lam))

    def monopole_degree_doubled(self, lam: Sequence[int]) -> int:
        """Twice the monopole degree of r[lam]."""
        return sum(map(abs, _pairings(self.linear_weights, self._check_cochar(lam))))

    def monomial(self, lam: Sequence[int], coeff=1) -> "CoulombElement":
        """The element coeff * r[lam]; zero if lam meets a multiplicative weight."""
        if type(coeff) is not int:  # a bool, too, goes to the checking constructor
            return CoulombElement(self, {tuple(lam): coeff})
        lam = self._check_cochar(lam)
        if not coeff or not self._annihilates(lam):
            return self.zero()
        constant = Polynomial._trusted(self.rank, {(0,) * self.rank: coeff})
        return CoulombElement._trusted(self, {lam: constant})

    def zero(self) -> "CoulombElement":
        return CoulombElement(self, {})


class CoulombElement(Value):
    """Finitely supported map from cocharacters to polynomial coefficients.

    The cocharacter key is the grading by the fundamental group of the
    torus; classes that fail to annihilate the multiplicative weights are
    identically zero and are dropped on construction.
    """

    __slots__ = ("theory", "support")

    def __init__(self, theory: TorusTheory, support):
        self.theory = theory
        clean: dict[Cochar, Polynomial] = {}
        for lam, coeff in (support or {}).items():
            lam = theory._check_cochar(lam)
            if isinstance(coeff, int):
                coeff = Polynomial.constant(theory.rank, coeff)
            elif not isinstance(coeff, Polynomial):
                raise ValueError(f"coefficient must be an integer or a Polynomial, got {coeff!r}")
            if coeff.rank != theory.rank:
                raise ValueError("coefficient rank does not match the theory")
            if coeff.is_zero() or not theory._annihilates(lam):
                continue
            clean[lam] = coeff
        self.support = clean

    @classmethod
    def _trusted(cls, theory: TorusTheory, support: dict) -> "CoulombElement":
        """Wrap a support that is already clean: cocharacter tuples of the
        theory's rank that annihilate its multiplicative weights, mapped to
        nonzero coefficients of that rank. Internal results only."""
        x = object.__new__(cls)
        x.theory = theory
        x.support = support
        return x

    def is_zero(self) -> bool:
        return not self.support

    def _check_same(self, other: "CoulombElement") -> None:
        if self.theory != other.theory:
            raise ValueError("elements belong to different theories")

    def __add__(self, other: "CoulombElement") -> "CoulombElement":
        # Both supports are clean, so only a cancelled coefficient can be dropped.
        self._check_same(other)
        acc = dict(self.support)
        for lam, coeff in other.support.items():
            if lam in acc:
                coeff = acc[lam] + coeff
                if coeff.is_zero():
                    del acc[lam]
                    continue
            acc[lam] = coeff
        return CoulombElement._trusted(self.theory, acc)

    def __neg__(self) -> "CoulombElement":
        return CoulombElement._trusted(self.theory, {lam: -c for lam, c in self.support.items()})

    def __sub__(self, other: "CoulombElement") -> "CoulombElement":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, CoulombElement):
            return multiply(self.theory, self, other)
        if isinstance(other, (int, Polynomial)):
            scaled = ((lam, c * other) for lam, c in self.support.items())
            return CoulombElement._trusted(self.theory, {lam: c for lam, c in scaled if c.terms})
        return NotImplemented

    __rmul__ = __mul__

    def doubled_degrees(self) -> set[int]:
        """Doubled total degrees of all terms (monopole part plus 2 per w)."""
        out = set()
        for lam, coeff in self.support.items():
            base = self.theory.monopole_degree_doubled(lam)
            for exps in coeff.terms:
                out.add(base + 2 * sum(exps))
        return out

    def is_homogeneous(self) -> bool:
        return len(self.doubled_degrees()) <= 1

    def __str__(self) -> str:
        if not self.support:
            return "0"
        unit = {(0,) * self.theory.rank: 1}
        parts = []
        for lam in sorted(self.support):
            coeff = self.support[lam]
            label = "r[" + ",".join(str(x) for x in lam) + "]"
            if coeff.terms == unit:
                parts.append(label)
            elif len(coeff.terms) == 1:
                parts.append(f"{coeff}*{label}")
            else:
                parts.append(f"({coeff})*{label}")
        return " + ".join(parts)


def _pairings(forms: Sequence[LinearForm], lam: Cochar) -> tuple[int, ...]:
    """The pairings <a_j, lam>, one per form, for a checked cocharacter lam."""
    return tuple([sum(map(mul, a.coeffs, lam)) for a in forms])


def _exponents(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """d_j = (|p_j| + |q_j| - |p_j + q_j|) / 2 for pairings p = <a, lam>, q = <a, mu>.

    <a_j, lam + mu> = p_j + q_j, so the pairings of lam and mu are all the
    rule needs. Each d_j is nonnegative by the triangle inequality, and ``>> 1``
    halves exactly: |x| = x (mod 2), so |x| + |y| - |x + y| = 0 (mod 2).
    """
    return tuple([(abs(x) + abs(y) - abs(x + y)) >> 1 for x, y in zip(p, q)])


def structure_exponents(theory: TorusTheory, lam: Sequence[int], mu: Sequence[int]) -> tuple[int, ...]:
    """Exponents d_j of the structure constant for r[lam] * r[mu]."""
    forms = theory.linear_weights
    return _exponents(
        _pairings(forms, theory._check_cochar(lam)), _pairings(forms, theory._check_cochar(mu))
    )


def structure_factor(theory: TorusTheory, lam: Sequence[int], mu: Sequence[int]) -> Polynomial:
    """The structure constant prod_j a_j(w)^{d_j} of r[lam] * r[mu]."""
    exponents = structure_exponents(theory, lam, mu)
    return eval_product(zip(theory.linear_weights, exponents), rank=theory.rank)


def multiply(theory: TorusTheory, x: CoulombElement, y: CoulombElement) -> CoulombElement:
    """Convolution product, extended bilinearly from the basis classes.

    Both supports annihilate the multiplicative weights, so every sum of
    their cocharacters does too, and the result is built without
    re-validation.
    """
    if (x.theory is not theory and x.theory != theory) or (
        y.theory is not theory and y.theory != theory
    ):
        raise ValueError("elements do not belong to the given theory")
    forms, rank = theory.linear_weights, theory.rank
    right = [(mu, q, _pairings(forms, mu)) for mu, q in y.support.items()]
    acc: dict[Cochar, Polynomial] = {}
    for lam, p in x.support.items():
        at_lam = _pairings(forms, lam)
        for mu, q, at_mu in right:
            key = tuple(map(add, lam, mu))
            exponents = _exponents(at_lam, at_mu)
            term = p * q
            if any(exponents):  # else the structure constant is 1
                term = term * eval_product(zip(forms, exponents), rank=rank)
            acc[key] = acc[key] + term if key in acc else term
    return CoulombElement._trusted(theory, {key: c for key, c in acc.items() if c.terms})


def reduce_multiplicative(theory: TorusTheory) -> tuple[TorusTheory, tuple[Cochar, ...]]:
    """Restrict to the cocharacter sublattice killed by multiplicative weights.

    Returns the reduced theory (no multiplicative weights, linear weights
    restricted along the embedding) together with the canonical basis of the
    kernel sublattice inside the original lattice. Classes supported outside
    the sublattice are zero, so nothing is lost.
    """
    if not theory.multiplicative_weights:
        identity = tuple(
            tuple(1 if i == j else 0 for j in range(theory.rank)) for i in range(theory.rank)
        )
        return theory, identity
    basis = tuple(integer_kernel([b.coeffs for b in theory.multiplicative_weights], theory.rank))
    restricted = [
        LinearForm(tuple(a.pairing(v) for v in basis)) for a in theory.linear_weights
    ]
    return TorusTheory(len(basis), restricted, ()), basis


_BRACKET_NAMES = {"torus_cotangent": "T^*(C^x)", "cotangent_of_rep": "C^2"}


class RingPresentation(Value):
    """Generators, a single defining relation, and the variety they present."""

    __slots__ = ("variables", "relation", "space")

    def __init__(self, variables, relation: Polynomial | None, space: spaces.SpaceDescriptor):
        self.variables = tuple((str(name), strict_int(deg, "degree")) for name, deg in variables)
        self.relation = relation
        self.space = space

    def variety_name(self) -> str:
        """The bracketed name of the presented variety; the point has none."""
        if self.space.kind == "type_A_singularity":
            return f"A_{self.space.index} singularity"
        return _BRACKET_NAMES[self.space.kind]

    def __str__(self) -> str:
        if self.space.kind == "point":
            return "point"
        names = ", ".join(name for name, _ in self.variables)
        return f"C[{names}] / (x*y = {self.relation})  [{self.variety_name()}]"

    def to_json(self) -> dict:
        if self.space.kind == "point":
            return {"variety": "point", "variables": [], "relation": None}
        return {
            "variables": [{"name": n, "degree_doubled": d} for n, d in self.variables],
            "relation": {
                "lhs": "x*y",
                "rhs": str(self.relation),
                "rhs_terms": [
                    {"exponents": list(e), "coeff": c} for e, c in self.relation.sorted_terms()
                ],
            },
            "variety": self.variety_name(),
        }


def _coulomb_space(reduced: TorusTheory, rank: int) -> spaces.SpaceDescriptor:
    """Coulomb branch of a reduced theory, under the original torus of ``rank``:
    T^*(C^x)^r with every weight zero (the point at r = 0), the theory's own
    descriptor in effective rank two or more, else C^2 or the A_{D-1}
    singularity by the doubled monopole degree D of r[1]."""
    acting = spaces.GroupDescriptor.torus(rank)
    if not any(any(a.coeffs) for a in reduced.linear_weights):
        return spaces.SpaceDescriptor.torus_cotangent(reduced.rank, left_group=acting)
    if reduced.rank > 1:
        return spaces.SpaceDescriptor.coulomb_branch(reduced, left_group=acting)
    degree = reduced.monopole_degree_doubled((1,))
    if degree == 1:
        return spaces.SpaceDescriptor.cotangent_of_rep(
            dims=(1, 1), left_group=acting, right_group=spaces.GroupDescriptor.trivial()
        )
    return spaces.SpaceDescriptor.type_a_singularity(degree - 1, left_group=acting)


def present_rank1(theory: TorusTheory) -> RingPresentation:
    """Presentation C[w, x, y] / (x*y = prod_j a_j(w)^{|a_j|}) in effective rank one.

    x = r[1] and y = r[-1] after multiplicative reduction, the relation is
    their product, and the variety is the Coulomb branch under the original
    torus. Effective rank zero yields the point; two or more is unsupported
    (use the structure-constant table instead).
    """
    reduced, _ = reduce_multiplicative(theory)
    if reduced.rank > 1:
        raise UnsupportedInputError(
            f"effective rank {reduced.rank}: only rank-one presentations are supported;"
            " use --table for the structure-constant table"
        )
    space = _coulomb_space(reduced, theory.rank)
    if reduced.rank == 0:
        return RingPresentation((), None, space)
    degree = reduced.monopole_degree_doubled((1,))
    variables = (("w", 2), ("x", degree), ("y", degree))
    return RingPresentation(variables, structure_factor(reduced, (1,), (-1,)), space)


def cochar_box(rank: int, cutoff: int) -> list[Cochar]:
    """Every cocharacter with |lam|_inf <= cutoff, in lexicographic order."""
    cutoff = strict_int(cutoff, "cutoff")
    return list(itertools.product(range(-cutoff, cutoff + 1), repeat=strict_int(rank, "rank")))


def annihilating_cochars(theory: TorusTheory, cutoff: int) -> list[Cochar]:
    """Every cocharacter with |lam|_inf <= cutoff that annihilates the multiplicative
    weights, in lexicographic order. A weight is kept only if it pairs nonzero with the
    kernel lattice of those kept before it, so at most rank are kept, with the same kernel."""
    if strict_int(cutoff, "cutoff") < 0:
        raise ValueError("cutoff must be nonnegative")
    rank = theory.rank
    if not cutoff:
        # Only the origin, before any weight is read: ranks above 9 admit only cutoff 0 to
        # --table, where testing 40,000 zero weights on Z^16 would outweigh the command.
        return [(0,) * rank]
    forms, kernel = [], integer_kernel([], rank)
    for b in theory.multiplicative_weights:
        if any(sum(map(mul, b.coeffs, v)) for v in kernel):  # else b kills no class the forms keep
            forms.append(b.coeffs)
            kernel = integer_kernel(forms, rank)
    return [lam for lam in cochar_box(rank, cutoff) if not any(sum(map(mul, f, lam)) for f in forms)]


def structure_constant_table(theory: TorusTheory, cutoff: int) -> Table:
    """All products r[lam] * r[mu] with lam and mu in annihilating_cochars(theory,
    cutoff), the cocharacters within the cutoff that survive; sorted, lam major."""
    return _products(theory, annihilating_cochars(theory, cutoff))


def _products(theory: TorusTheory, cochars: list[Cochar]) -> Table:
    """The products r[lam] * r[mu] over every pair of ``cochars``, lam major."""
    forms, rank = theory.linear_weights, theory.rank
    paired = [(lam, _pairings(forms, lam)) for lam in cochars]
    # Most entries repeat an exponent vector; each distinct one is expanded
    # once, and the dict goes with the call.
    factors: dict[tuple[int, ...], Polynomial] = {}
    table = []
    for lam, at_lam in paired:
        for mu, at_mu in paired:
            exponents = _exponents(at_lam, at_mu)
            factor = factors.get(exponents)
            if factor is None:
                factor = factors[exponents] = eval_product(zip(forms, exponents), rank=rank)
            table.append((lam, mu, factor))
    return table


def sdual_torus(theory: TorusTheory) -> spaces.SpaceDescriptor:
    """Dual Hamiltonian space of a torus theory: its own Coulomb branch.

    The dual-group action is the grading by the character lattice of the
    original torus, recorded as the torus acting on the left.
    """
    reduced, _ = reduce_multiplicative(theory)
    return _coulomb_space(reduced, theory.rank)
