"""Faults planted in the code under test make the verify checks fail."""

import inspect
import random
import types

import pytest

from sdualkit import abelian_coulomb, brane, cli, exactalg, partitions, spaces, verify
from sdualkit.abelian_coulomb import TorusTheory
from sdualkit.exactalg import Polynomial
from sdualkit.partitions import Partition

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


@pytest.mark.parametrize(
    "old, new, detail",
    [
        # the box filtered by the basis of the kernel instead of the kept weights
        (
            "for f in forms)]",
            "for f in kernel)]",
            "table at cutoff 2 differs from multiply for rank 2, linear [1, 1], mult [1, -1]",
        ),
        # the origin dropped at cutoff 0
        (
            "return [(0,) * rank]",
            "return []",
            "table at cutoff 0 differs from multiply for rank 2, linear [1, 2], mult [3, 1]",
        ),
    ],
    ids=["first-kernel", "no-origin"],
)
def test_grading_fails_on_faulty_annihilating_cochars(monkeypatch, old, new, detail):
    source = inspect.getsource(abelian_coulomb.annihilating_cochars)
    assert source.count(old) == 1
    namespace = dict(vars(abelian_coulomb))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(abelian_coulomb, "annihilating_cochars", namespace["annihilating_cochars"])
    assert run_check("coulomb-grading") == (False, detail)


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


def test_kostant_reduction_fails_on_a_faulty_coulomb_branch_dimension(monkeypatch):
    # the rule 2 * rank made 2 + rank: right at rank 2, one short at rank 3
    assert inspect.getsource(spaces).count("lambda m: 2 * m.theory.rank") == 1
    constructor, fields, _ = spaces.SpaceDescriptor.KINDS["coulomb_branch"]
    faulty = (constructor, fields, lambda m: 2 + m.theory.rank)
    monkeypatch.setitem(spaces.SpaceDescriptor.KINDS, "coulomb_branch", faulty)
    theory = "rank 3, linear [1, 0, 0],[0, 1, 0],[0, 0, 1]"
    assert run_check("kostant-reduction") == (
        False,
        f"dual of {theory} is CoulombBranch({theory})  (dim 5), want a coulomb_branch of dim 6",
    )


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


def test_product_laws_fail_on_a_widening_that_copies_a_byte_too_few(monkeypatch):
    # _unpack zero-extends fields of 3, 5, 6 or 7 bytes one byte at a time;
    # leaving out the top byte reads every such field wrong.
    source = inspect.getsource(exactalg._unpack)
    assert source.count("for i in range(size):") == 1
    namespace = dict(vars(exactalg))
    exec(source.replace("for i in range(size):", "for i in range(size - 1):"), namespace)
    monkeypatch.setattr(exactalg, "_unpack", namespace["_unpack"])
    passed, detail = run_check("coulomb-product-laws")
    assert not passed
    assert detail.startswith("associativity failed at ")


def test_orbit_rank_oracle_fails_on_a_faulty_rank_profile(monkeypatch):
    rank_profile = verify.rank_profile

    def faulty_rank_profile(lam, k):
        # one too many at power 1 for partitions of three or more parts
        return rank_profile(lam, k) + (k == 1 and len(lam.parts) >= 3)

    monkeypatch.setattr(verify, "rank_profile", faulty_rank_profile)
    assert run_check("orbit-rank-oracle") == (False, "rank mismatch at [1,1,1], power 1")


def test_orbit_rank_oracle_fails_on_an_oracle_without_its_top_power(monkeypatch):
    oracle = verify.numeric_jordan_oracle

    def faulty_oracle(lam):
        table = oracle(lam)
        del table[max(table)]
        return table

    monkeypatch.setattr(verify, "numeric_jordan_oracle", faulty_oracle)
    assert run_check("orbit-rank-oracle") == (False, "rank mismatch at [], power 0")


def test_partition_transpose_laws_fail_on_a_faulty_transpose(monkeypatch):
    transpose = verify.transpose

    def faulty_transpose(lam):
        # a final part of 2 split into 1 + 1
        parts = transpose(lam).parts
        return Partition(parts[:-1] + (1, 1)) if parts[-1:] == (2,) else Partition(parts)

    monkeypatch.setattr(verify, "transpose", faulty_transpose)
    passed, detail = run_check("partition-transpose-laws")
    assert not passed
    assert detail.startswith("transpose not involutive at ")


def test_slice_orbit_table_fails_on_an_sdual_pair_that_returns_its_input(monkeypatch):
    monkeypatch.setattr(spaces, "sdual_pair", lambda m: m)
    passed, detail = run_check("sdual-slice-orbit-table")
    assert not passed
    assert detail.startswith("dual of GL(1) x Slice[1] is ")


def test_brane_hw_properties_fail_on_a_move_that_lowers_the_middle_dimension(monkeypatch):
    hw_move = brane.hw_move

    def faulty_hw_move(d, i):
        # the new middle segment one too low
        moved = hw_move(d, i)
        dims = moved.dims[: i + 1] + (moved.dims[i + 1] - 1,) + moved.dims[i + 2 :]
        return brane.BraneDiagram._trusted(moved.branes, dims)

    monkeypatch.setattr(brane, "hw_move", faulty_hw_move)
    passed, detail = run_check("brane-hw-properties")
    assert not passed
    assert detail.startswith("linking numbers changed at ")


@pytest.mark.parametrize(
    "name, prefix",
    [
        ("sdual-compose-dims", "dimension mismatch for chain "),
        ("orbit-chain-family", "composed dimension "),
    ],
)
def test_compose_checks_fail_on_a_composite_one_dimension_too_high(monkeypatch, name, prefix):
    compose = spaces.compose

    def faulty_compose(m12, m23, g2):
        m = compose(m12, m23, g2)
        return spaces.SpaceDescriptor.reduced(m.dim + 1, m.left_group, m.right_group)

    monkeypatch.setattr(spaces, "compose", faulty_compose)
    passed, detail = run_check(name)
    assert not passed
    assert detail.startswith(prefix)


@pytest.mark.parametrize(
    "name, detail",
    [
        (
            "coulomb-presentations",
            '{"rank": 1, "linear_weights": [[1], [1]]}: '
            "got 'C[w, x, y] / (x*y = w^2)  [A_2 singularity]', "
            "want 'C[w, x, y] / (x*y = w^2)  [A_1 singularity]'",
        ),
        ("coulomb-brane-crosscheck", "2 flavors classified as A_2 singularity  (dim 2)"),
    ],
)
def test_rank_one_checks_fail_on_a_faulty_singularity_index(monkeypatch, name, detail):
    type_a = spaces.SpaceDescriptor.type_a_singularity

    def faulty_type_a(index, **groups):
        # one too high: x*y = w^k named A_k
        return type_a(index + 1, **groups)

    monkeypatch.setattr(spaces.SpaceDescriptor, "type_a_singularity", faulty_type_a)
    assert run_check(name) == (False, detail)


@pytest.mark.parametrize(
    "fault, name, prefix",
    [
        # the structure constant and the right coefficient both dropped
        ("term = p", "coulomb-product-laws", "commutativity failed for "),
        # the structure constant dropped: every product law still holds
        ("term = term", "coulomb-grading", "product is not its structure constant at "),
    ],
    ids=["factor-and-coefficient", "factor"],
)
def test_coulomb_checks_fail_on_a_product_that_skips_its_structure_constant(
    monkeypatch, fault, name, prefix
):
    source = inspect.getsource(abelian_coulomb.multiply)
    branch = "term = term * eval_product(zip(forms, exponents), rank=rank)"
    assert source.count(branch) == 1
    namespace = dict(vars(abelian_coulomb))
    exec(source.replace(branch, fault), namespace)
    monkeypatch.setattr(abelian_coulomb, "multiply", namespace["multiply"])
    monkeypatch.setattr(verify, "multiply", namespace["multiply"])
    passed, detail = run_check(name)
    assert not passed
    assert detail.startswith(prefix)


LINKING = brane.linking_numbers
LINKING_FAULTS = {
    "empty": lambda d: brane.LinkingData((), ()),
    # the mirror convention: each brane counts from the other side
    "mirror": lambda d: LINKING(brane.BraneDiagram(d.branes[::-1], d.dims[::-1])),
}


@pytest.mark.parametrize("fault", LINKING_FAULTS.values(), ids=LINKING_FAULTS.keys())
def test_brane_hw_properties_fail_on_faulty_linking_numbers(monkeypatch, fault):
    monkeypatch.setattr(brane, "linking_numbers", fault)
    passed, detail = run_check("brane-hw-properties")
    assert not passed
    assert detail.startswith("linking numbers differ from the counting definition on ")


def test_orbit_rank_oracle_fails_on_a_faulty_orbit_dimension(monkeypatch):
    orbit_dim = verify.orbit_dim

    def faulty_orbit_dim(lam):
        # two too many for two-part partitions
        return orbit_dim(lam) + 2 * (len(lam.parts) == 2)

    monkeypatch.setattr(verify, "orbit_dim", faulty_orbit_dim)
    assert run_check("orbit-rank-oracle") == (False, "orbit dimension 2 != 0 at [1,1]")


def test_orbit_rank_oracle_fails_on_a_faulty_centralizer_dimension(monkeypatch):
    centralizer_dim = partitions.centralizer_dim

    def faulty_centralizer_dim(lam):
        # one too many for two-part partitions, read by orbit_dim
        return centralizer_dim(lam) + (len(lam) == 2)

    monkeypatch.setattr(partitions, "centralizer_dim", faulty_centralizer_dim)
    assert run_check("orbit-rank-oracle") == (False, "orbit dimension -1 != 0 at [1,1]")
