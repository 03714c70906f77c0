import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdualkit import abelian_coulomb
from sdualkit.abelian_coulomb import (
    CoulombElement,
    RingPresentation,
    TorusTheory,
    annihilating_cochars,
    multiply,
    present_rank1,
    reduce_multiplicative,
    sdual_torus,
    structure_constant_table,
    structure_exponents,
    structure_factor,
)
from sdualkit.exactalg import Polynomial, UnsupportedInputError
from sdualkit.spaces import GroupDescriptor, SpaceDescriptor

T1 = GroupDescriptor.torus(1)


def box(rank, cutoff):
    return list(itertools.product(range(-cutoff, cutoff + 1), repeat=rank))


class TestStructureExponents:
    def test_opposite_cocharacters(self):
        t = TorusTheory(1, [[1]])
        assert structure_exponents(t, (1,), (-1,)) == (1,)

    def test_same_chamber_no_correction(self):
        t = TorusTheory(1, [[1]])
        assert structure_exponents(t, (1,), (1,)) == (0,)

    def test_weight_two(self):
        t = TorusTheory(1, [[2]])
        assert structure_exponents(t, (1,), (-1,)) == (2,)

    def test_always_nonnegative_integers(self):
        rng = random.Random(7)
        for _ in range(200):
            rank = rng.randint(1, 3)
            t = TorusTheory(
                rank,
                [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rng.randint(0, 4))],
            )
            lam = tuple(rng.randint(-3, 3) for _ in range(rank))
            mu = tuple(rng.randint(-3, 3) for _ in range(rank))
            for d in structure_exponents(t, lam, mu):
                assert isinstance(d, int) and d >= 0


class TestMultiply:
    def test_pure_torus_translation(self):
        t = TorusTheory(1, [])
        assert multiply(t, t.monomial((1,)), t.monomial((-1,))) == t.monomial((0,))

    def test_three_flavors(self):
        t = TorusTheory(1, [[1], [1], [1]])
        expected = t.monomial((0,), Polynomial(1, {(3,): 1}))
        assert multiply(t, t.monomial((1,)), t.monomial((-1,))) == expected

    def test_weight_two_keeps_scalar(self):
        t = TorusTheory(1, [[2]])
        expected = t.monomial((0,), Polynomial(1, {(2,): 4}))
        assert multiply(t, t.monomial((1,)), t.monomial((-1,))) == expected

    def test_operator_sugar(self):
        t = TorusTheory(1, [[1]])
        assert t.monomial((1,)) * t.monomial((-1,)) == t.monomial((0,), Polynomial(1, {(1,): 1}))

    def test_commutative_and_associative(self):
        rng = random.Random(13)
        for _ in range(40):
            rank = rng.randint(1, 3)
            t = TorusTheory(
                rank,
                [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rng.randint(0, 4))],
            )
            cochars = box(rank, 3)
            triples = (
                [(l, m, n) for l in box(1, 3) for m in box(1, 3) for n in box(1, 3)]
                if rank == 1
                else [tuple(rng.choice(cochars) for _ in range(3)) for _ in range(40)]
            )
            for lam, mu, nu in triples:
                a, b, c = t.monomial(lam), t.monomial(mu), t.monomial(nu)
                assert multiply(t, a, b) == multiply(t, b, a)
                assert multiply(t, multiply(t, a, b), c) == multiply(t, a, multiply(t, b, c))

    def test_zero_exponents_multiply_the_coefficients_only(self):
        # lam and mu pair with each weight on the same side of 0, so every d_j is 0
        t = TorusTheory(2, [[1, 0], [1, -1], [0, 2]])
        lam, mu = (2, 1), (1, 0)
        assert structure_exponents(t, lam, mu) == (0, 0, 0)
        p = Polynomial(2, {(1, 0): 2, (0, 1): -1})
        q = Polynomial(2, {(0, 0): 3, (2, 1): 1})
        by_hand = CoulombElement(t, {(3, 1): Polynomial(2, {(1, 0): 6, (0, 1): -3, (3, 1): 2, (2, 2): -1})})
        assert multiply(t, t.monomial(lam, p), t.monomial(mu, q)) == by_hand

    def test_pi1_grading_additive(self):
        t = TorusTheory(2, [[1, 0], [0, 1]])
        prod = multiply(t, t.monomial((1, 2)), t.monomial((-1, 1)))
        assert set(prod.support) == {(0, 3)}

    def test_monopole_grading(self):
        rng = random.Random(3)
        for _ in range(60):
            rank = rng.randint(1, 3)
            t = TorusTheory(
                rank,
                [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rng.randint(0, 4))],
            )
            lam = tuple(rng.randint(-2, 2) for _ in range(rank))
            mu = tuple(rng.randint(-2, 2) for _ in range(rank))
            x, y = t.monomial(lam), t.monomial(mu)
            prod = multiply(t, x, y)
            assert prod.is_homogeneous()
            if not prod.is_zero():
                (degree,) = prod.doubled_degrees()
                assert degree == t.monopole_degree_doubled(lam) + t.monopole_degree_doubled(mu)

    def test_multi_term_homogeneous_product(self):
        # w*r[0] and r[2] both have doubled degree 2 in the weight-[1] theory
        t = TorusTheory(1, [[1]])
        x = t.monomial((0,), Polynomial(1, {(1,): 1})) + t.monomial((2,))
        assert x.is_homogeneous() and x.doubled_degrees() == {2}
        square = x * x
        assert square.is_homogeneous() and square.doubled_degrees() == {4}
        expected = (
            t.monomial((0,), Polynomial(1, {(2,): 1}))
            + t.monomial((2,), Polynomial(1, {(1,): 2}))
            + t.monomial((4,))
        )
        assert square == expected

    def test_structure_table_matches_multiply(self):
        t = TorusTheory(2, [[1, 0], [1, -1]])
        for lam, mu, poly in structure_constant_table(t, cutoff=1):
            prod = multiply(t, t.monomial(lam), t.monomial(mu))
            key = tuple(a + b for a, b in zip(lam, mu))
            if poly.is_zero():
                assert prod.is_zero()
            else:
                assert prod == t.monomial(key, poly)


def annihilates(weights, lam):
    """The brute-force test: every weight, zero and repeated ones too, pairs to zero with lam."""
    return all(sum(b * x for b, x in zip(row, lam)) == 0 for row in weights)


# A rank of 0-4, up to 3 multiplicative weights with entries in [-3, 3], and a cutoff of 0-4 (0-2 at rank 4).
THEORIES = st.integers(0, 4).flatmap(
    lambda rank: st.tuples(
        st.just(rank),
        st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank), max_size=3),
        st.integers(0, 4 if rank < 4 else 2),
    )
)


class TestAnnihilatingCochars:
    @settings(max_examples=400, deadline=None)
    @given(THEORIES)
    def test_it_is_the_box_filtered_by_every_weight(self, case):
        rank, weights, cutoff = case
        theory = TorusTheory(rank, [[1] * rank], weights)
        expected = [lam for lam in box(rank, cutoff) if annihilates(weights, lam)]
        assert annihilating_cochars(theory, cutoff) == expected

    def test_random_theories_with_repeated_and_dependent_weights(self):
        rng = random.Random("coulomb:annihilating")
        for _ in range(300):
            rank = rng.randint(1, 4)
            rows = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rng.randint(1, 3))]
            # a repeat, a multiple and a sum of the rows say nothing new
            weights = rows + [rows[0], [2 * x for x in rows[-1]], [sum(c) for c in zip(*rows)]]
            cutoff = rng.randint(1, 3)
            expected = [lam for lam in box(rank, cutoff) if annihilates(rows, lam)]
            assert annihilating_cochars(TorusTheory(rank, [], weights), cutoff) == expected

    def test_lexicographic_order(self):
        assert annihilating_cochars(TorusTheory(2, [], [[1, -1]]), 2) == [
            (-2, -2), (-1, -1), (0, 0), (1, 1), (2, 2)
        ]
        assert annihilating_cochars(TorusTheory(3, [], [[1, 1, 0]]), 1) == [
            (-1, 1, -1), (-1, 1, 0), (-1, 1, 1),
            (0, 0, -1), (0, 0, 0), (0, 0, 1),
            (1, -1, -1), (1, -1, 0), (1, -1, 1),
        ]

    def test_cutoff_zero_is_the_origin_before_any_kernel(self, monkeypatch):
        def refusing_kernel(rows, cols):
            raise AssertionError("a kernel computed at cutoff 0")

        monkeypatch.setattr(abelian_coulomb, "integer_kernel", refusing_kernel)
        theory = TorusTheory(16, [[1] * 16], [[i % 5 - 2 for i in range(16)]] * 100)
        assert annihilating_cochars(theory, 0) == [(0,) * 16]
        assert structure_constant_table(theory, 0) == [((0,) * 16,) * 2 + (Polynomial.constant(16, 1),)]

    def test_rank_zero_has_only_the_empty_cocharacter(self):
        for cutoff in (0, 1, 5):
            assert annihilating_cochars(TorusTheory(0), cutoff) == [()]
            assert annihilating_cochars(TorusTheory(0, [], [[], []]), cutoff) == [()]

    def test_no_multiplicative_weights_keep_the_whole_box(self):
        for rank, cutoff in [(1, 3), (2, 2), (3, 1)]:
            theory = TorusTheory(rank, [[1] * rank])
            assert annihilating_cochars(theory, cutoff) == box(rank, cutoff)
        assert annihilating_cochars(TorusTheory(2, [], [[0, 0]] * 4), 1) == box(2, 1)


class TestMultiplicativeReduction:
    def test_full_multiplicative_kills_everything(self):
        t = TorusTheory(1, [], [[1]])
        reduced, basis = reduce_multiplicative(t)
        assert reduced.rank == 0
        assert basis == ()
        assert t.monomial((1,)).is_zero()
        assert not t.monomial((0,)).is_zero()

    def test_no_multiplicative_weights_identity(self):
        t = TorusTheory(2, [[1, 0]])
        reduced, basis = reduce_multiplicative(t)
        assert reduced == t
        assert basis == ((1, 0), (0, 1))

    def test_rank_two_reduction(self):
        t = TorusTheory(2, [[1, 0]], [[1, -1]])
        reduced, basis = reduce_multiplicative(t)
        assert basis == ((1, 1),)
        assert reduced == TorusTheory(1, [[1]])
        assert str(present_rank1(t)) == "C[w, x, y] / (x*y = w)  [C^2]"

    def test_nonkernel_classes_vanish_in_products(self):
        t = TorusTheory(2, [], [[1, -1]])
        assert t.monomial((1, 0)).is_zero()
        x = t.monomial((1, 1))
        y = t.monomial((-1, -1))
        assert multiply(t, x, y) == t.monomial((0, 0))


class TestPresentation:
    def test_no_matter(self):
        p = present_rank1(TorusTheory(1, []))
        assert str(p) == "C[w, x, y] / (x*y = 1)  [T^*(C^x)]"
        assert p.space == SpaceDescriptor.torus_cotangent(1, left_group=T1)

    def test_one_flavor(self):
        p = present_rank1(TorusTheory(1, [[1]]))
        assert str(p) == "C[w, x, y] / (x*y = w)  [C^2]"

    def test_three_flavors(self):
        p = present_rank1(TorusTheory(1, [[1], [1], [1]]))
        assert str(p) == "C[w, x, y] / (x*y = w^3)  [A_2 singularity]"
        assert p.space == SpaceDescriptor.type_a_singularity(2, left_group=T1)

    def test_point(self):
        assert str(present_rank1(TorusTheory(1, [], [[1]]))) == "point"

    def test_the_raw_constructor_checks_space_and_relation(self):
        # Unchecked, the first made str() raise AttributeError and the second render "x*y = None".
        variables = (("w", 2), ("x", 2), ("y", 2))
        with pytest.raises(ValueError, match="^space must be a space descriptor, got None$"):
            RingPresentation((), None, None)
        with pytest.raises(ValueError, match="^relation must be a polynomial, got None$"):
            RingPresentation(variables, None, SpaceDescriptor.type_a_singularity(1))
        with pytest.raises(ValueError, match="^the point has no relation or variables, got Polynomial"):
            RingPresentation((), Polynomial.constant(1, 1), SpaceDescriptor.point())
        with pytest.raises(ValueError, match=r"^the point has no relation or variables, got None, \(\('w', 2\), "):
            RingPresentation(variables, None, SpaceDescriptor.point())  # str() and to_json() dropped them
        with pytest.raises(ValueError, match="^a presentation names no coulomb_branch variety$"):
            RingPresentation(variables, Polynomial.constant(2, 1), sdual_torus(TorusTheory(2, [[1, 1]])))
        # Each variety present_rank1 builds passes, the point with no relation.
        for weights, mult in (([], [[1]]), ([], []), ([[1]], []), ([[1], [1]], [])):
            p = present_rank1(TorusTheory(1, weights, mult))
            assert RingPresentation(p.variables, p.relation, p.space) == p

    def test_rank_too_high(self):
        message = "effective rank 2: only rank-one presentations are supported; use --table"
        with pytest.raises(UnsupportedInputError, match=message):
            present_rank1(TorusTheory(2, [[1, 0]]))

    def test_relation_matches_product(self):
        rng = random.Random(21)
        for _ in range(80):
            weights = [[rng.randint(-3, 3)] for _ in range(rng.randint(0, 6))]
            t = TorusTheory(1, weights)
            p = present_rank1(t)
            prod = multiply(t, t.monomial((1,)), t.monomial((-1,)))
            assert prod == t.monomial((0,), p.relation)

    def test_relation_homogeneous(self):
        for weights in ([[1]], [[2]], [[1], [1], [-1]], [[3], [2]]):
            t = TorusTheory(1, weights)
            p = present_rank1(t)
            x_degree = dict(p.variables)["x"]
            assert 2 * p.relation.homogeneous_degree() == 2 * x_degree

    def test_negative_weights_classify_up_to_unit(self):
        p = present_rank1(TorusTheory(1, [[1], [-1]]))
        assert p.relation == Polynomial(1, {(2,): -1})
        assert p.space == SpaceDescriptor.type_a_singularity(1, left_group=T1)

    def test_variety_follows_monopole_degree(self):
        # Every multiset of up to four rank-one weights from -4..4.
        for size in range(5):
            for coeffs in itertools.combinations_with_replacement(range(-4, 5), size):
                t = TorusTheory(1, [[c] for c in coeffs])
                p = present_rank1(t)
                degree = sum(abs(c) for c in coeffs)
                if degree == 0:
                    name = "T^*(C^x)"
                elif degree == 1:
                    name = "C^2"
                else:
                    name = f"A_{degree - 1} singularity"
                assert str(p).endswith(f"  [{name}]")
                assert p.to_json()["variety"] == name
                assert p.space == sdual_torus(t)
                assert p.relation == structure_factor(t, (1,), (-1,))


class TestSerialization:
    def test_round_trip(self):
        t = TorusTheory(2, [[1, 0], [0, -2]], [[1, 1]])
        doc = json.loads(json.dumps(t.to_json()))
        assert TorusTheory.from_json(doc) == t

    def test_missing_weight_lists_default_empty(self):
        t = TorusTheory.from_json({"rank": 1})
        assert t == TorusTheory(1)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError):
            TorusTheory.from_json({"rank": 1, "weights": []})

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TorusTheory(1, [[1, 0]])


class TestSdualTorus:
    def test_one_flavor_gives_affine_plane(self):
        d = sdual_torus(TorusTheory(1, [[1]]))
        assert d.kind == "cotangent_of_rep"
        assert d.dim == 2
        assert str(d.left_group) == "T(1)"

    def test_multiplicative_gives_point(self):
        d = sdual_torus(TorusTheory(1, [], [[1]]))
        assert d.kind == "point"
        assert d.dim == 0

    def test_pure_rank_two_torus(self):
        d = sdual_torus(TorusTheory(2, []))
        assert d.kind == "torus_cotangent"
        assert d.dim == 4

    def test_flavors_give_type_a(self):
        for flavors in range(2, 7):
            d = sdual_torus(TorusTheory(1, [[1]] * flavors))
            assert d.kind == "type_A_singularity"
            assert d.index == flavors - 1
            assert d.dim == 2

    def test_dimension_is_twice_effective_rank(self):
        rng = random.Random(11)
        for _ in range(40):
            rank = rng.randint(1, 3)
            t = TorusTheory(
                rank,
                [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(0, 3))],
                [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rng.randint(0, 2))],
            )
            reduced, _ = reduce_multiplicative(t)
            assert sdual_torus(t).dim == 2 * reduced.rank


class TestElementAlgebra:
    def test_zero_coefficients_dropped(self):
        t = TorusTheory(1, [[1]])
        x = t.monomial((1,), 1) + t.monomial((1,), -1)
        assert x.is_zero()

    def test_mixed_theory_rejected(self):
        t1, t2 = TorusTheory(1, [[1]]), TorusTheory(1, [[2]])
        with pytest.raises(ValueError):
            multiply(t1, t1.monomial((0,)), t2.monomial((0,)))
        with pytest.raises(ValueError, match="different theories"):
            t1.monomial((0,)) + t2.monomial((0,))

    def test_scalar_multiplication(self):
        t = TorusTheory(1, [])
        assert 3 * t.monomial((0,)) == t.monomial((0,), 3)
        with pytest.raises(TypeError):
            t.monomial((0,)) * "a"

    def test_monomial_checks_its_input(self):
        t = TorusTheory(2, [[1, 0]])
        x = t.monomial([1, 0], 3)
        assert x == t.monomial((1, 0), Polynomial.constant(2, 3))
        assert list(x.support) == [(1, 0)]
        with pytest.raises(ValueError, match=r"cocharacter \(1,\) has length 1, expected 2"):
            t.monomial((1,))
        with pytest.raises(ValueError, match="coefficient rank does not match the theory"):
            t.monomial((1, 0), Polynomial.constant(1, 3))
        with pytest.raises(TypeError):
            t.monomial(5)
        for coeff in ("3", None, [3]):
            with pytest.raises(ValueError, match="coefficient must be an integer or a Polynomial"):
                t.monomial((1, 0), coeff)

    def test_an_int_coefficient_builds_what_the_constructor_builds(self):
        # (1, 1) annihilates the multiplicative weight, (1, 0) meets it.
        t = TorusTheory(2, [[1, 0]], [[1, -1]])
        for lam in ((1, 1), [1, 1], (1, 0), (0, 0)):
            for coeff in (0, 1, -3, Polynomial(2, {(1, 0): 2})):
                built = t.monomial(lam, coeff)
                want = CoulombElement(t, {tuple(lam): coeff})
                assert built == want and hash(built) == hash(want)
                assert all(type(key) is tuple for key in built.support)
                assert all(c.rank == 2 and not c.is_zero() for c in built.support.values())
        assert t.monomial((1, 0), 5).is_zero()
        with pytest.raises(ValueError, match="integer"):
            t.monomial((1, 1), True)
        with pytest.raises(ValueError, match="cocharacter entry must be an integer"):
            t.monomial((1, 1.0), 2)

    def test_multiply_takes_an_equal_theory_and_refuses_another(self):
        t, equal, other = TorusTheory(1, [[1]]), TorusTheory(1, [[1]]), TorusTheory(1, [[2]])
        assert equal is not t and equal == t
        want = multiply(t, t.monomial((1,)), t.monomial((-1,)))
        assert multiply(t, equal.monomial((1,)), t.monomial((-1,))) == want
        assert multiply(t, t.monomial((1,)), equal.monomial((-1,))) == want
        assert multiply(equal, t.monomial((1,)), t.monomial((-1,))) == want
        for x, y in ((other.monomial((1,)), t.monomial((-1,))), (t.monomial((1,)), other.monomial((-1,)))):
            with pytest.raises(ValueError, match="elements do not belong to the given theory"):
                multiply(t, x, y)

    def test_construction_checks_each_cocharacter_once(self, monkeypatch):
        t = TorusTheory(2, [[1, 0]], [[1, -1]])
        checked = []
        check = TorusTheory._check_cochar
        monkeypatch.setattr(
            TorusTheory, "_check_cochar", lambda self, lam: checked.append(lam) or check(self, lam)
        )
        x = CoulombElement(t, {(1, 1): 2, (1, 0): 3})
        assert list(x.support) == [(1, 1)]
        assert checked == [(1, 1), (1, 0)]
        with pytest.raises(ValueError, match=r"cocharacter \(1, 1, 0\) has length 3, expected 2"):
            CoulombElement(t, {(1, 1, 0): 1})

    def test_rendering(self):
        t = TorusTheory(1, [[1]])
        assert str(t.zero()) == "0"
        assert str(t.monomial((0,))) == "r[0]"
        assert str(t.monomial((1,), Polynomial(1, {(2,): 4}))) == "4*w^2*r[1]"
        assert str(t.monomial((1,), Polynomial(1, {(1,): 1, (0,): 2}))) == "(w + 2)*r[1]"

    def test_describe_lists_both_kinds_of_weight(self):
        t = TorusTheory(2, [[1, 0]], [[1, -1]])
        assert t.describe() == "rank 2, linear [1, 0], mult [1, -1]"
