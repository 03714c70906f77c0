import itertools
import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
import sympy

from sdualkit import exactalg
from sdualkit.exactalg import (
    LinearForm,
    Polynomial,
    eval_product,
    integer_kernel,
    integer_rank,
)


def rational_solve(basis, target):
    """Solve sum c_i basis_i = target over Q; returns coefficients or None."""
    if not basis:
        return [] if not any(target) else None
    ncols = len(target)
    rows = [[Fraction(v[j]) for v in basis] + [Fraction(target[j])] for j in range(ncols)]
    nvars = len(basis)
    pivot_rows = []
    r = 0
    for c in range(nvars):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_rows.append(c)
        r += 1
    solution = [Fraction(0)] * nvars
    for row_index, c in enumerate(pivot_rows):
        solution[c] = rows[row_index][-1]
    for i in range(r, len(rows)):
        if rows[i][-1] != 0:
            return None
    # verify
    for j in range(ncols):
        if sum(solution[i] * basis[i][j] for i in range(nvars)) != target[j]:
            return None
    return solution


class TestIntegerKernel:
    def test_injective_map_has_trivial_kernel(self):
        assert integer_kernel([[1]], 1) == []

    def test_diagonal_kernel(self):
        assert integer_kernel([[1, -1]], 2) == [(1, 1)]

    def test_two_by_three(self):
        assert integer_kernel([[1, 0, -1], [0, 1, -1]], 3) == [(1, 1, 1)]

    def test_zero_matrix_gives_standard_basis(self):
        assert integer_kernel([[0, 0, 0]], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_no_rows(self):
        assert integer_kernel([], 2) == [(1, 0), (0, 1)]

    def test_scaled_row_still_primitive(self):
        # kernel of [2, -4] is generated by the primitive (2, 1)
        assert integer_kernel([[2, -4]], 2) == [(2, 1)]

    def test_kernel_properties_random(self):
        rng = random.Random(20240)
        for _ in range(150):
            rows = rng.randint(0, 3)
            cols = rng.randint(1, 4)
            m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
            basis = integer_kernel(m, cols)

            def image(v):
                return tuple(sum(a * b for a, b in zip(row, v)) for row in m)

            for v in basis:
                assert image(v) == (0,) * rows
            assert len(basis) + integer_rank(m, cols) == cols
            sym = sympy.Matrix(rows, cols, lambda i, j: m[i][j])
            assert integer_rank(m, cols) == sym.rank()
            # every lattice point of the kernel in a small box is an integer
            # combination of the returned basis
            for candidate in product(range(-2, 3), repeat=cols):
                if image(candidate) != (0,) * rows:
                    continue
                coeffs = rational_solve(basis, candidate)
                assert coeffs is not None
                assert all(c.denominator == 1 for c in coeffs)

    def test_basis_vectors_are_primitive(self):
        rng = random.Random(77)
        for _ in range(100):
            rows, cols = rng.randint(1, 3), rng.randint(2, 4)
            m = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
            for v in integer_kernel(m, cols):
                g = 0
                for x in v:
                    g = gcd(g, x)
                assert g == 1

    def test_deterministic(self):
        m = [[3, -6, 2], [1, 1, 1]]
        assert integer_kernel(m, 3) == integer_kernel(m, 3)

    def test_spans_saturated_nullspace(self):
        # every primitive integer vector in the rational nullspace must be an
        # integer combination of the returned basis
        rng = random.Random(4242)
        for _ in range(80):
            rows, cols = rng.randint(1, 3), rng.randint(2, 5)
            m = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
            basis = integer_kernel(m, cols)
            sym = sympy.Matrix(rows, cols, lambda i, j: m[i][j])
            for vec in sym.nullspace():
                denominators = [sympy.fraction(x)[1] for x in vec]
                scale = sympy.lcm(denominators)
                ints = [int(x * scale) for x in vec]
                g = 0
                for x in ints:
                    g = gcd(g, x)
                primitive = tuple(x // g for x in ints)
                coeffs = rational_solve(basis, primitive)
                assert coeffs is not None
                assert all(c.denominator == 1 for c in coeffs)


class TestPolynomial:
    def test_malformed_input(self):
        with pytest.raises(ValueError, match="nonnegative"):
            Polynomial(-1)
        with pytest.raises(ValueError, match="wrong length"):
            Polynomial(2, {(1,): 1})
        with pytest.raises(ValueError, match="negative exponent"):
            Polynomial(1, {(-1,): 1})
        with pytest.raises(ValueError, match="form of rank 2 paired with vector of length 1"):
            LinearForm([1, 2]).pairing((1,))

    @pytest.mark.parametrize("cochar", [(1.5, True), ("ab",), (1, True), (1, None)])
    def test_pairing_takes_only_int_cocharacters(self, cochar):
        with pytest.raises(ValueError, match="cocharacter entry must be an integer"):
            LinearForm([1, 2]).pairing(cochar)
        assert LinearForm([1, 2]).pairing([3, -4]) == -5

    def test_no_zero_coefficients_stored(self):
        p = Polynomial(1, {(0,): 1}) - Polynomial(1, {(0,): 1})
        assert p.terms == {}
        assert p.is_zero()

    def test_ring_axioms_random(self):
        rng = random.Random(99)

        def random_poly():
            rank = 2
            terms = {}
            for _ in range(rng.randint(0, 4)):
                terms[(rng.randint(0, 3), rng.randint(0, 3))] = rng.randint(-5, 5)
            return Polynomial(rank, terms)

        for _ in range(300):
            a, b, c = random_poly(), random_poly(), random_poly()
            assert a + b == b + a
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_internal_results_are_clean(self):
        # +, -, * and eval_product build their results without re-validation;
        # the validating constructor must leave those terms unchanged.
        rng = random.Random(31)

        def random_poly(rank):
            return Polynomial(
                rank,
                {
                    tuple(rng.randint(0, 2) for _ in range(rank)): rng.randint(-2, 2)
                    for _ in range(rng.randint(0, 4))
                },
            )

        for _ in range(400):
            rank = rng.randint(0, 3)
            a, b = random_poly(rank), random_poly(rank)
            forms = [
                (LinearForm([rng.randint(-2, 2) for _ in range(rank)]), rng.randint(0, 3))
                for _ in range(rng.randint(0, 3))
            ]
            results = [a + b, a - b, -a, a * b, a * 1, 1 * a, a * 0, a + a - a]
            for p in results + [eval_product(forms, rank=rank)]:
                assert Polynomial(p.rank, p.terms).terms == p.terms
                assert 0 not in p.terms.values()
                assert all(len(e) == rank and min(e, default=0) >= 0 for e in p.terms)

    def test_rank_mismatch_rejected(self):
        with pytest.raises(ValueError, match="rank 2 vs 1"):
            Polynomial.constant(1, 1) + Polynomial.constant(2, 1)

    def test_int_and_foreign_operands(self):
        p = Polynomial(1, {(1,): 2})
        assert 1 - p == Polynomial(1, {(0,): 1, (1,): -2})
        for op in (lambda: Polynomial(1) + "a", lambda: p - "a", lambda: p * "a", lambda: "a" * p):
            with pytest.raises(TypeError):
                op()

    def test_constants(self):
        assert Polynomial.constant(2, 0).terms == {}
        assert Polynomial.constant(2, -3).terms == {(0, 0): -3}
        assert Polynomial.constant(0, 1).terms == {(): 1}
        for value in (0, 1):
            with pytest.raises(ValueError):
                Polynomial.constant(-1, value)

    def test_homogeneous_degree(self):
        assert Polynomial(2, {(1, 1): 3, (2, 0): -1}).homogeneous_degree() == 2
        assert Polynomial(2, {(1, 0): 1, (0, 2): 1}).homogeneous_degree() is None
        assert Polynomial.constant(1, 5).homogeneous_degree() == 0

    def test_rendering(self):
        assert str(Polynomial.constant(1, 0)) == "0"
        assert str(Polynomial.constant(1, 1)) == "1"
        assert str(Polynomial(1, {(2,): 4})) == "4*w^2"
        assert str(Polynomial(1, {(1,): 1, (0,): -3})) == "w - 3"
        assert str(Polynomial(2, {(1, 2): 1})) == "w1*w2^2"
        assert str(Polynomial(1, {(1,): -1})) == "-w"


def _pair_loop(a, b):
    """Reference product of two term dicts: every pair of terms, summed."""
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _homogeneous(rng, rank, degree, coeffs, size):
    """Up to ``size`` terms of total degree ``degree``, coefficients drawn from ``coeffs``."""
    terms = {}
    for _ in range(size):
        cuts = sorted(rng.randint(0, degree) for _ in range(rank - 1))
        exps = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [degree]))
        terms[exps] = rng.choice(coeffs)
    return terms


def _byte_boundary_operands():
    """Pairs of homogeneous linear operands in two variables whose packed
    product takes fields of each width from 1 to 10 bytes, filled to the top.

    |a|_1 |b|_1 = p1 * s1: 2^(8j - 1), where a field takes one byte more than
    just below it, and 2^(8j - 1) - 2, for j = 1..9. The cross term is the
    largest coefficient, within p1 + s1 of the bound, of either sign.
    """
    for j in range(1, 10):
        n = 8 * j - 1
        for p1, s1 in ((2 ** (n // 2), 2 ** (n - n // 2)), (2, 2 ** (n - 1) - 1)):
            for sa, sb in itertools.product((1, -1), repeat=2):
                a = {(1, 0): sa * (p1 - 1), (0, 1): 1}
                b = {(1, 0): sb, (0, 1): sa * sb * (s1 - 1)}
                assert _pair_loop(a, b)[(1, 1)] == sb * (p1 * s1 - p1 - s1 + 2)
                yield a, b


FIELD_EDGES = [2**7 - 1, -(2**7 - 1), 2**7, -(2**7), 2**15, -(2**15), 2**15 - 1, -(2**31), 2**63, -(2**64)]


class TestKroneckerProduct:
    """Polynomial.__mul__ against the pair loop written above."""

    @pytest.fixture
    def every_product_packed(self, monkeypatch):
        # Send every homogeneous product through the packer.
        monkeypatch.setattr(exactalg, "_DENSE_FIELDS", 10**9)

    def check(self, rank, a, b):
        got = Polynomial(rank, a) * Polynomial(rank, b)
        assert got.terms == _pair_loop(a, b), (a, b)
        assert got == Polynomial(rank, b) * Polynomial(rank, a)

    def test_random_homogeneous_operands(self, every_product_packed):
        rng = random.Random(17)
        small = [c for c in range(-9, 10) if c]
        for case in range(300):
            rank = rng.randint(2, 5)
            coeffs = small if case % 3 else small + FIELD_EDGES
            a = _homogeneous(rng, rank, rng.randint(0, 4), coeffs, rng.randint(2, 12))
            b = _homogeneous(rng, rank, rng.randint(0, 4), coeffs, rng.randint(2, 12))
            self.check(rank, a, b)

    @pytest.fixture
    def field_sizes(self, monkeypatch):
        # The field size of every packed product, in bytes.
        sizes, layout = set(), exactalg._layout

        def recording_layout(bound, degree, rank):
            size, shifts = layout(bound, degree, rank)
            sizes.add(size)
            return size, shifts

        monkeypatch.setattr(exactalg, "_layout", recording_layout)
        return sizes

    def test_bounds_on_a_byte_boundary(self, every_product_packed, field_sizes):
        for a, b in _byte_boundary_operands():
            self.check(2, a, b)
            lift = lambda t: {e + (1,): c for e, c in t.items()}
            self.check(3, lift(a), lift(b))
        assert field_sizes == set(range(1, 11))

    def test_eval_product_reads_every_field_width(self, field_sizes):
        # The same operands as linear forms, times w3 at rank 3, so that 3
        # variables are packed: fields of 1, 2, 4 and 8 bytes read at their
        # own width, of 3, 5, 6 and 7 bytes widened, of 9 and 10 by slices.
        for a, b in _byte_boundary_operands():
            forms = [LinearForm([t[(1, 0)], t[(0, 1)]]) for t in (a, b)]
            assert eval_product([(f, 1) for f in forms], rank=2).terms == _pair_loop(a, b)
            lifted = [(LinearForm(f.coeffs + (0,)), 1) for f in forms] + [(LinearForm([0, 0, 1]), 1)]
            want = {e + (1,): c for e, c in _pair_loop(a, b).items()}
            assert eval_product(lifted, rank=3).terms == want
        assert field_sizes == set(range(1, 11))

    def test_sparse_operands_multiply_pair_by_pair(self, monkeypatch):
        # Packed, (w1^6 + w9^6)(w1^6 - w9^6) would take 13^8 fields for 4 pair products.
        monkeypatch.setattr(exactalg, "_unpack", None)
        a = {(6,) + (0,) * 8: 1, (0,) * 8 + (6,): 1}
        b = {(6,) + (0,) * 8: 1, (0,) * 8 + (6,): -1}
        self.check(9, a, b)
        assert len(_pair_loop(a, b)) == 2

    def test_inhomogeneous_one_term_and_zero_operands(self, every_product_packed):
        rng = random.Random(23)
        for _ in range(100):
            rank = rng.randint(1, 4)
            mixed = {}
            for degree in range(3):
                mixed.update(_homogeneous(rng, rank, degree, [-3, -1, 2, 2**15], 2))
            homogeneous = _homogeneous(rng, rank, 2, [-5, 1, 2**7 - 1], 4)
            monomial = _homogeneous(rng, rank, rng.randint(0, 3), [-(2**15), 1, 7], 1)
            for a, b in itertools.product((mixed, homogeneous, monomial, {}), repeat=2):
                self.check(rank, a, b)


class TestEvalProduct:
    def test_negative_rank(self):
        for factors in ([], [(LinearForm([]), 1)]):
            with pytest.raises(ValueError, match="rank must be nonnegative"):
                eval_product(factors, rank=-1)

    def test_no_live_factor_gives_the_constant_one(self):
        # every exponent 0, or no factor at all: the empty product
        rng = random.Random(20)
        for rank in range(4):
            one = Polynomial.constant(rank, 1)
            for count in range(5):
                forms = [LinearForm([rng.randint(-3, 3) for _ in range(rank)]) for _ in range(count)]
                assert eval_product([(form, 0) for form in forms], rank=rank) == one
            assert eval_product([], rank=rank) == one

    def test_single_weight(self):
        assert eval_product([(LinearForm([1]), 1)], rank=1) == Polynomial(1, {(1,): 1})

    def test_weight_power(self):
        assert eval_product([(LinearForm([1]), 3)], rank=1) == Polynomial(1, {(3,): 1})

    def test_negative_exponent(self):
        with pytest.raises(ValueError, match="nonnegative"):
            eval_product([(LinearForm([1]), -1)], rank=1)

    def test_scaled_weight(self):
        assert eval_product([(LinearForm([2]), 2)], rank=1) == Polynomial(1, {(2,): 4})

    def test_multiplicative(self):
        rng = random.Random(5)
        for _ in range(50):
            rank = rng.randint(1, 3)
            forms = [
                (LinearForm([rng.randint(-3, 3) for _ in range(rank)]), rng.randint(0, 3))
                for _ in range(rng.randint(0, 4))
            ]
            split = rng.randint(0, len(forms))
            left, right = forms[:split], forms[split:]
            assert eval_product(forms, rank=rank) == eval_product(left, rank=rank) * eval_product(
                right, rank=rank
            )

    def test_mismatched_ranks_rejected(self):
        with pytest.raises(ValueError, match="form rank 2 != 1"):
            eval_product([(LinearForm([1]), 1), (LinearForm([1, 0]), 1)], rank=1)

    def test_matches_sympy_expansion(self):
        # Independent oracle: sympy expands the same product of linear forms.
        rng = random.Random(2718)
        for case in range(150):
            rank = rng.randint(1, 3)
            ws = sympy.symbols(f"w1:{rank + 1}")
            factors = []
            for _ in range(rng.randint(0, 4)):
                coeffs = [0] * rank if rng.random() < 0.1 else [rng.randint(-3, 3) for _ in range(rank)]
                factors.append((LinearForm(coeffs), rng.randint(0, 6)))
            expr = sympy.Integer(1)
            for form, e in factors:
                expr *= sum((c * w for c, w in zip(form.coeffs, ws)), sympy.Integer(0)) ** e
            expanded = sympy.Poly(sympy.expand(expr), *ws)
            expected = {exps: int(c) for exps, c in expanded.terms() if c}
            assert eval_product(factors, rank=rank).terms == expected, (case, factors)

    def _sympy_terms(self, factors, rank):
        if rank == 0:
            return {} if any(e for _, e in factors) else {(): 1}
        ws = sympy.symbols(f"w1:{rank + 1}")
        poly = sympy.Poly(1, *ws)
        for form, e in factors:
            poly *= sympy.Poly(sum(c * w for c, w in zip(form.coeffs, ws)), *ws) ** e
        return {exps: int(c) for exps, c in poly.terms() if c}

    def test_kronecker_large_coefficients_borrow(self):
        # Coefficients up to +-40 give negative fields next to positive ones; each reads on its own.
        rng = random.Random(4040)
        for case in range(40):
            rank = rng.randint(2, 4)
            factors = [
                (LinearForm([rng.randint(-40, 40) for _ in range(rank)]), rng.randint(1, 10))
                for _ in range(rng.randint(1, 3))
            ]
            assert eval_product(factors, rank=rank).terms == self._sympy_terms(factors, rank), (case, factors)

    def test_kronecker_edge_forms(self):
        cases = [
            # last coefficient 0: the substituted variable does not appear
            (3, [([2, -1, 0], 3), ([0, 5, 0], 2)]),
            (2, [([-7, 0], 4), ([1, -1], 3)]),
            # single-entry forms
            (1, [([-3], 5)]),
            (3, [([0, 0, -2], 7)]),
            (4, [([0, 9, 0, 0], 2), ([0, 0, 0, 1], 3)]),
            # a zero form with positive exponent kills the product
            (3, [([1, 2, 3], 2), ([0, 0, 0], 1)]),
            (1, [([0], 3)]),
            # ... and with exponent zero leaves it alone
            (2, [([1, -1], 2), ([0, 0], 0)]),
            # the empty product and rank 0
            (3, []),
            (0, []),
            (0, [([], 0)]),
            (0, [([], 2)]),
        ]
        for rank, spec in cases:
            factors = [(LinearForm(c), e) for c, e in spec]
            got = eval_product(factors, rank=rank)
            assert got.rank == rank
            assert got.terms == self._sympy_terms(factors, rank), (rank, spec)
        assert eval_product([(LinearForm([1, 2, 3]), 2), (LinearForm([0, 0, 0]), 1)], rank=3).is_zero()
        assert eval_product([], rank=0) == Polynomial.constant(0, 1)
