"""Faults planted in the code under test make the verify checks fail."""

import random
import types

import pytest

from sdualkit import abelian_coulomb, brane, cli, exactalg, spaces, verify
from sdualkit.abelian_coulomb import TorusTheory
from sdualkit.exactalg import Polynomial

FAULT_GAUGE, FAULT_FRAMING = (3, 1), (0, 2)


def run_check(name):
    return dict(verify.CHECKS)[name](random.Random(f"{verify.DEFAULT_SEED}:{name}"))


CORRUPTIONS = {
    "type": lambda d, dual: types.SimpleNamespace(branes=dual.branes, dims=dual.dims),
    "word": lambda d, dual: d,
    "dims": lambda d, dual: brane.BraneDiagram(dual.branes, dual.dims[:-2] + (dual.dims[-2] + 1, 0)),
}


@pytest.mark.parametrize("corrupt", CORRUPTIONS.values(), ids=CORRUPTIONS.keys())
def test_quiver_pipeline_names_the_corrupted_quiver(monkeypatch, corrupt):
    target = brane.quiver_to_diagram(brane.QuiverData(FAULT_GAUGE, FAULT_FRAMING))
    sdual = brane.sdual

    def faulty_sdual(d):
        return corrupt(d, sdual(d)) if d == target else sdual(d)

    monkeypatch.setattr(brane, "sdual", faulty_sdual)
    passed, detail = run_check("quiver-sdual-pipeline")
    assert not passed
    assert detail == f"pipeline mismatch for gauge {FAULT_GAUGE}, framing {FAULT_FRAMING}"


def test_product_laws_fail_on_a_faulty_exponent_rule(monkeypatch):
    exponents = abelian_coulomb._exponents

    def faulty_exponents(p, q):
        # one too many whenever the pairings have opposite signs
        return tuple(d + (x * y < 0) for d, x, y in zip(exponents(p, q), p, q))

    monkeypatch.setattr(abelian_coulomb, "_exponents", faulty_exponents)
    passed, detail = run_check("coulomb-product-laws")
    assert not passed
    assert detail.startswith("value-level associativity failed")


def test_product_laws_fail_on_an_exponent_rule_wrong_only_at_large_pairings(monkeypatch):
    exponents = abelian_coulomb._exponents

    def faulty_exponents(p, q):
        # one too many where |p + q| >= 16, which few weights' pairings reach
        return tuple(d + (abs(x + y) >= 16) for d, x, y in zip(exponents(p, q), p, q))

    monkeypatch.setattr(abelian_coulomb, "_exponents", faulty_exponents)
    passed, detail = run_check("coulomb-product-laws")
    assert not passed
    prefix = "value-level associativity failed at x, y, z = "
    assert detail.startswith(prefix)
    x, y, z = (int(v) for v in detail[len(prefix):].split(", "))

    def d(a, b):
        return faulty_exponents((a,), (b,))[0]

    assert d(x, y) + d(x + y, z) != d(y, z) + d(x, y + z)


def test_product_laws_fail_on_a_faulty_polynomial_product(monkeypatch):
    mul_terms = exactalg._mul_terms

    def faulty_mul_terms(a, b):
        # one more in the lowest coefficient of each product of two multi-term operands
        product = mul_terms(a, b)
        if len(a) > 1 and len(b) > 1:
            product = dict(product)
            low = min(product)
            product[low] += 1
            if not product[low]:
                del product[low]
        return product

    monkeypatch.setattr(exactalg, "_mul_terms", faulty_mul_terms)
    passed, detail = run_check("coulomb-product-laws")
    assert not passed
    assert detail.startswith("associativity failed at ")


def test_grading_fails_on_an_expansion_that_drops_a_term(monkeypatch):
    eval_product = abelian_coulomb.eval_product

    def dropping_eval_product(factors, rank):
        terms = dict(eval_product(factors, rank).terms)
        if terms:
            del terms[max(terms)]
        return Polynomial(rank, terms)

    monkeypatch.setattr(abelian_coulomb, "eval_product", dropping_eval_product)
    passed, detail = run_check("coulomb-grading")
    assert not passed
    assert detail.startswith("inhomogeneous structure constant at ")


def test_kostant_reduction_fails_on_a_faulty_coulomb_dimension(monkeypatch):
    coulomb_dim = spaces.coulomb_dim

    def faulty_coulomb_dim(m, g):
        # two too many on the matter of a torus theory
        return coulomb_dim(m, g) + 2 * (m.theory is not None)

    monkeypatch.setattr(spaces, "coulomb_dim", faulty_coulomb_dim)
    passed, detail = run_check("kostant-reduction")
    assert not passed
    first = spaces.SpaceDescriptor.cotangent_of_rep(theory=TorusTheory(1, []))
    assert detail.startswith(f"failed for {first!r} under T(1): ")


def test_hyperspherical_deficit_fails_on_a_faulty_point_deficit(monkeypatch):
    deficit = spaces.hyperspherical_deficit
    gl3 = spaces.GroupDescriptor.gl(3)

    def faulty_deficit(m, g):
        # one too many for the point under GL(3)
        return deficit(m, g) + (m.kind == "point" and g == gl3)

    monkeypatch.setattr(spaces, "hyperspherical_deficit", faulty_deficit)
    passed, detail = run_check("hyperspherical-deficit")
    assert (passed, detail) == (False, "deficit of point  (dim 0) under GL(3) is -11, want -12")


def test_a_check_that_raises_fails_and_verify_exits_1(monkeypatch, capsys):
    name = "sdual-compose-dims"

    def raising(rng):
        raise ValueError("planted")

    monkeypatch.setattr(verify, "CHECKS", [(n, raising if n == name else f) for n, f in verify.CHECKS])
    (result,) = verify.run_checks(name_filter=name)
    assert (result.name, result.passed, result.detail) == (name, False, "raised ValueError: planted")
    assert cli.main(["verify", "--filter", name]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"FAIL {name}: raised ValueError: planted", "0/1 checks passed"]
