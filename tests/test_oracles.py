"""Oracles for the abelian Coulomb ring that share no code with it.

* Abelianization (Bullimore-Dimofte-Gaiotto, arXiv:1503.04817): r[lam] maps
  to prod_j a_j(w)^{max(0, <a_j, lam>)} u^lam. The map is an injective ring
  homomorphism, so each structure constant is the ratio of the images of
  r[lam] r[mu] and r[lam + mu], and products of elements map to products of
  images. The images are built in sympy from max(0, .), not from the
  half-sum of absolute values the engine uses.
* The monopole formula (Cremonesi-Hanany-Zaffaroni, arXiv:1309.2657) in rank
  one, doubled grading s = t^{1/2}: sum_m s^{|m| S} / (1 - s^2) with
  S = sum_j |c_j| must equal the Hilbert series of the printed presentation.
* Multiplicative matter: the monopoles that survive are the cocharacters
  annihilating every b. Counted by brute force in a box, they must be as
  many as the points of the reduced lattice that reduce_multiplicative's
  basis maps into the box, which holds only if the basis spans the whole
  kernel lattice (a saturated sublattice), not a sublattice of finite index.
* Dimensions of descriptors: the dual of a torus theory has dimension twice
  the rank of the torus less the rank of its multiplicative weights, taken
  in sympy; the centralizer of a nilpotent of Jordan type lam has dimension
  sum_{i,j} min(lam_i, lam_j) (the commutant of a Jordan matrix), which
  fixes dim G x Slice[lam] = n^2 + that sum and the orbit closure's
  n^2 - that sum, with no transpose.
* The bow variety of a brane diagram (Nakajima-Takayama, arXiv:1606.02002):
  its dimension, read off the segment dimensions R by the sum below, is
  unchanged by each Hanany-Witten transition (hep-th/9611230). An unfolded
  quiver gives the Higgs-branch dimension 2(sum v_i w_i + sum v_i v_(i+1) -
  sum v_i^2), and its S-dual the Coulomb-branch dimension 2 sum v_i.
"""

import itertools
import random

import sympy

from sdualkit.abelian_coulomb import (
    TorusTheory,
    multiply,
    present_rank1,
    reduce_multiplicative,
    sdual_torus,
    structure_constant_table,
    structure_factor,
)
from sdualkit.brane import QuiverData, admissible_moves, hw_move, quiver_to_diagram, sdual
from sdualkit.exactalg import Polynomial
from sdualkit.partitions import partitions_of
from sdualkit.spaces import GroupDescriptor, SpaceDescriptor
from sdualkit.verify import random_diagram


def _symbols(rank):
    return sympy.symbols(f"w1:{rank + 1}")


def _random_weights(rng, rank, lo=-3, hi=3):
    return [[rng.randint(lo, hi) for _ in range(rank)] for _ in range(rng.randint(0, 4))]


def _abelian_image(weights, lam, ws):
    """The w-part of the image of r[lam], prod_j a_j(w)^{max(0, <a_j, lam>)}.

    The u^lam part is left implicit: every comparison below is made one
    cocharacter (one power of u) at a time.
    """
    out = sympy.Poly(1, *ws)
    for a in weights:
        form = sympy.Poly(sum(c * w for c, w in zip(a, ws)), *ws)
        out *= form ** max(0, sum(c * x for c, x in zip(a, lam)))
    return out


def _as_sympy(poly, ws):
    """The engine's coefficient, read off its terms."""
    return sympy.Poly.from_dict(dict(poly.terms), *ws) if poly.terms else sympy.Poly(0, *ws)


def _check_table(rank, weights, cutoff, sample=None, rng=None, mult=()):
    ws = _symbols(rank)
    table = structure_constant_table(TorusTheory(rank, weights, mult), cutoff=cutoff)
    # The keys are the pairs of cocharacters in the box that pair to zero with every b.
    box = [
        lam
        for lam in itertools.product(range(-cutoff, cutoff + 1), repeat=rank)
        if all(sum(b * x for b, x in zip(row, lam)) == 0 for row in mult)
    ]
    assert [(lam, mu) for lam, mu, _ in table] == [(lam, mu) for lam in box for mu in box]
    if sample is not None:
        table = rng.sample(table, min(sample, len(table)))
    for lam, mu, poly in table:
        _check_entry(weights, lam, mu, poly, ws)


def _check_entry(weights, lam, mu, poly, ws):
    """The engine's structure constant ``poly`` of r[lam] r[mu] is the ratio of images."""
    total = tuple(a + b for a, b in zip(lam, mu))
    ratio, remainder = (
        _abelian_image(weights, lam, ws) * _abelian_image(weights, mu, ws)
    ).div(_abelian_image(weights, total, ws))
    assert remainder.is_zero, (weights, lam, mu)
    assert ratio == _as_sympy(poly, ws), (weights, lam, mu, str(poly))


def _element_image(element, weights, ws):
    """Image of an element as {lam: coefficient of u^lam}."""
    return {
        lam: _as_sympy(c, ws) * _abelian_image(weights, lam, ws)
        for lam, c in element.support.items()
    }


def _degree_one(rng, rank, constant):
    """A polynomial of degree one with every variable, and a constant term if
    ``constant`` or in rank one, so with at least two terms."""
    exps = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    if constant or rank == 1:
        exps.append((0,) * rank)
    return Polynomial(rank, {e: rng.choice([-2, -1, 1, 2]) for e in exps})


def _frozen(element):
    """A copy of an element's support and of each coefficient's term dict."""
    return {lam: dict(c.terms) for lam, c in element.support.items()}


class TestAbelianization:
    def test_rank_one_tables(self):
        rng = random.Random("oracles:abelian:1")
        for _ in range(8):
            _check_table(1, _random_weights(rng, 1), cutoff=3)

    def test_rank_two_tables(self):
        rng = random.Random("oracles:abelian:2")
        for _ in range(5):
            _check_table(2, _random_weights(rng, 2), cutoff=1)

    def test_rank_three_tables(self):
        rng = random.Random("oracles:abelian:3")
        for _ in range(4):
            _check_table(3, _random_weights(rng, 3), cutoff=1, sample=80, rng=rng)

    def test_tables_with_multiplicative_weights(self):
        rng = random.Random("oracles:abelian:multiplicative")
        for rank, cutoff, rows in [(2, 3, 1), (2, 2, 1), (3, 2, 1), (3, 1, 2), (4, 1, 2)]:
            mult = [[rng.randint(-1, 1) for _ in range(rank)] for _ in range(rows)]
            _check_table(rank, _random_weights(rng, rank), cutoff, sample=60, rng=rng, mult=mult)

    def test_ranks_four_to_nine_with_unused_variables(self):
        # One structure constant at a time: a rank-9 table would hold 3^18
        # entries. Every form lives on the same two to four variables, so the
        # others appear in no factor.
        rng = random.Random("oracles:abelian:4-9")
        for rank in range(4, 10):
            ws = _symbols(rank)
            for _ in range(3):
                used = rng.sample(range(rank), rng.randint(2, 4))
                weights = []
                for _ in range(rng.randint(1, 3)):
                    weights.append([rng.randint(-2, 2) if i in used else 0 for i in range(rank)])
                t = TorusTheory(rank, weights)
                for _ in range(8):
                    lam = tuple(rng.randint(-1, 1) for _ in range(rank))
                    mu = tuple(rng.randint(-1, 1) for _ in range(rank))
                    _check_entry(weights, lam, mu, structure_factor(t, lam, mu), ws)

    def test_products_of_elements(self):
        # Images multiply: this covers multiply, + and - and integer coefficients,
        # and, scaled by polynomials of degree one, coefficients of several terms:
        # inhomogeneous ones (f) and, in rank two or more, homogeneous ones (g).
        # Under the weight [1], r[1] r[0] = r[1] = r[0] r[1] and r[1] r[-1] = w r[0] =
        # r[-1] r[1], so in the first two cases the two pairs landing on r[1], then on
        # r[0], cancel; in the first each pair's term is an operand's own coefficient.
        t = TorusTheory(1, [[1]])
        one, up, down = (t.monomial((k,)) for k in (0, 1, -1))
        cases = [(t, one + up, one - up), (t, up + down, up - down)]
        rng = random.Random("oracles:abelian:elements")
        scale = random.Random("oracles:abelian:elements:scale")
        for _ in range(20):
            rank = rng.randint(1, 3)
            t = TorusTheory(rank, _random_weights(rng, rank))
            x, y = t.zero(), t.zero()
            for _ in range(3):
                x = x + t.monomial(tuple(rng.randint(-2, 2) for _ in range(rank)), rng.randint(-3, 3))
                y = y - t.monomial(tuple(rng.randint(-2, 2) for _ in range(rank)), rng.randint(-3, 3))
            f, g = _degree_one(scale, rank, constant=True), _degree_one(scale, rank, constant=False)
            cases += [(t, x, y), (t, x * f, y * g)]
        products = []
        for t, x, y in cases:
            weights, ws = [a.coeffs for a in t.linear_weights], _symbols(t.rank)
            expected = {}
            for lam, p in _element_image(x, weights, ws).items():
                for mu, q in _element_image(y, weights, ws).items():
                    nu = tuple(a + b for a, b in zip(lam, mu))
                    expected[nu] = expected.get(nu, sympy.Poly(0, *ws)) + p * q
            expected = {nu: p for nu, p in expected.items() if not p.is_zero}
            before = [_frozen(x), _frozen(y)]
            products.append(multiply(t, x, y))
            assert _element_image(products[-1], weights, ws) == expected, (weights, str(x), str(y))
            assert [_frozen(x), _frozen(y)] == before  # a product may share an operand's terms
        assert [sorted(xy.support) for xy in products[:2]] == [[(0,), (2,)], [(-2,), (2,)]]


ORDER = 40


def _series_inverse_one_minus(step):
    """Coefficients of 1 / (1 - s^step) up to s^ORDER."""
    return [1 if k % step == 0 else 0 for k in range(ORDER + 1)]


def _series_mul(a, b):
    out = [0] * (ORDER + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(ORDER + 1 - i):
                out[i + j] += x * b[j]
    return out


def _monopole_series(weights):
    """sum_m s^{|m| S} / (1 - s^2), S = sum_j |c_j|, up to s^ORDER."""
    total = sum(abs(c) for (c,) in weights)
    counts = [0] * (ORDER + 1)
    for m in range(-ORDER, ORDER + 1):
        if abs(m) * total <= ORDER:
            counts[abs(m) * total] += 1
    return _series_mul(counts, _series_inverse_one_minus(2))


def _presentation_series(presentation):
    """Hilbert series of C[w, x, y] / (x*y = f), degrees read off the presentation."""
    degrees = dict(presentation.variables)
    relation = presentation.relation.homogeneous_degree() * degrees["w"]
    assert relation == degrees["x"] + degrees["y"]
    numerator = [0] * (ORDER + 1)
    numerator[0] = 1
    if relation <= ORDER:
        numerator[relation] -= 1
    out = numerator
    for name in ("w", "x", "y"):
        out = _series_mul(out, _series_inverse_one_minus(degrees[name]))
    return out


class TestMonopoleFormula:
    def test_rank_one_hilbert_series(self):
        rng = random.Random("oracles:monopole")
        cases = [
            [[c] for c in combo]
            for n in range(1, 4)
            for combo in itertools.product(range(-3, 4), repeat=n)
        ]
        for weights in rng.sample(cases, 120) + [[[1]], [[3]], [[-2], [2]]]:
            if sum(abs(c) for (c,) in weights) == 0:
                continue  # T*(C^x): its graded pieces are infinite
            presentation = present_rank1(TorusTheory(1, weights))
            assert _presentation_series(presentation) == _monopole_series(weights), weights


def _reduced_lattice_count(basis, rank, cutoff):
    """Points k of the reduced lattice with sum_i k_i v_i in the box |lam|_inf <= cutoff.

    Each coordinate of k is a fixed rational combination of the coordinates
    of lam (the left inverse of the basis, computed in sympy), which bounds
    the k worth enumerating.
    """
    if not basis:
        return 1
    v = sympy.Matrix(basis).T
    left_inverse = (v.T * v).inv() * v.T
    norm = max(sum(abs(x) for x in left_inverse.row(i)) for i in range(len(basis)))
    bound = int(sympy.ceiling(norm * cutoff))
    count = 0
    for k in itertools.product(range(-bound, bound + 1), repeat=len(basis)):
        lam = [sum(ki * vi[j] for ki, vi in zip(k, basis)) for j in range(rank)]
        count += max(map(abs, lam)) <= cutoff
    return count


class TestMultiplicativeMatter:
    def test_reduced_lattice_counts_every_surviving_monopole(self):
        rng = random.Random("oracles:multiplicative")
        cutoff = 3
        kernel_ranks = set()
        for _ in range(60):
            rank = rng.randint(2, 3)
            rows = rng.randint(1, rank - 1)
            mult = [[rng.randint(-4, 4) for _ in range(rank)] for _ in range(rows)]
            theory = TorusTheory(rank, _random_weights(rng, rank), mult)
            reduced, basis = reduce_multiplicative(theory)
            kernel_ranks.add(len(basis))
            assert reduced.rank == len(basis)
            assert all(sum(b * x for b, x in zip(row, v)) == 0 for row in mult for v in basis)
            survivors = sum(
                all(sum(b * x for b, x in zip(row, lam)) == 0 for row in mult)
                for lam in itertools.product(range(-cutoff, cutoff + 1), repeat=rank)
            )
            assert _reduced_lattice_count(basis, rank, cutoff) == survivors, (mult, basis)
        assert {1, 2} <= kernel_ranks


def _commutant_dim(lam):
    return sum(min(a, b) for a in lam for b in lam)


class TestDescriptorDimensions:
    def test_a_torus_dual_has_twice_the_effective_rank(self):
        rng = random.Random("oracles:dimensions")
        kinds = set()
        for _ in range(300):
            rank = rng.randint(2, 4)
            mult = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(0, rank))]
            theory = TorusTheory(rank, _random_weights(rng, rank), mult)
            dual = sdual_torus(theory)
            kinds.add(dual.kind)
            effective = rank - (sympy.Matrix(mult).rank() if mult else 0)
            assert dual.dim == 2 * effective, (theory, dual)
            assert SpaceDescriptor.cotangent_of_rep(theory=theory).dim == 2 * (
                len(theory.linear_weights) + len(mult)
            )
        assert {"coulomb_branch", "torus_cotangent", "type_A_singularity", "cotangent_of_rep"} <= kinds

    def test_slices_and_orbit_closures_count_the_commutant(self):
        for n in range(7):
            gl = GroupDescriptor.gl(n)
            assert SpaceDescriptor.cotangent_of_group(gl).dim == 2 * n * n
            for lam in partitions_of(n):
                z = _commutant_dim(lam.parts)
                assert SpaceDescriptor.group_times_slice(gl, lam).dim == n * n + z, lam
                assert SpaceDescriptor.orbit_closure(n, lam).dim == n * n - z, lam


def _bow_dim(d):
    """Each o between segments R- and R+ adds 2 R- R+, each x adds
    R-^2 + R+^2 + R- + R+, and each inner segment R subtracts 2 R^2."""
    r = d.dims
    total = -2 * sum(x * x for x in r[1:-1])
    for left, kind, right in zip(r, d.branes, r[1:]):
        total += 2 * left * right if kind == "o" else left * left + right * right + left + right
    return total


class TestBowVarietyDimension:
    def test_hanany_witten_moves_keep_it(self):
        rng = random.Random(1)
        moves = 0
        for _ in range(3000):
            d = random_diagram(rng)
            for i in admissible_moves(d):
                moves += 1
                assert _bow_dim(hw_move(d, i)) == _bow_dim(d), (d, i)
        assert moves == 8667

    def test_an_unfolded_quiver_has_the_higgs_dimension_and_its_dual_the_coulomb(self):
        quivers = 0
        for length in range(1, 4):
            for v in itertools.product(range(4), repeat=length):
                higgs = sum(a * b for a, b in zip(v, v[1:])) - sum(a * a for a in v)
                for w in itertools.product(range(4), repeat=length):
                    quivers += 1
                    d = quiver_to_diagram(QuiverData(v, w))
                    assert _bow_dim(d) == 2 * (higgs + sum(a * b for a, b in zip(v, w))), (v, w)
                    assert _bow_dim(sdual(d)) == 2 * sum(v), (v, w)
        assert quivers == 4368
