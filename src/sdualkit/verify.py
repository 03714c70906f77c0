"""Self-contained verification suite run by ``sdualkit verify``.

Each check is named after what it verifies and returns (passed, detail).
Randomized checks draw from a seeded generator; set SDUALKIT_SEED to change
the seed.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from collections import namedtuple
from operator import add, itemgetter

from . import abelian_coulomb, brane, spaces
from .abelian_coulomb import (
    TorusTheory,
    cochar_box,
    multiply,
    present_rank1,
    structure_constant_table,
    structure_exponents,
    structure_factor,
)
from .exactalg import integer_kernel, text_ints
from .partitions import (
    Partition,
    _jordan_matrix,
    chain_to_orbit,
    dominates,
    numeric_jordan_oracle,
    orbit_dim,
    partitions_of,
    rank_profile,
    transpose,
)

DEFAULT_SEED = 1729

CheckResult = namedtuple("CheckResult", "name passed detail")


def resolve_seed(seed: int | None = None) -> int:
    if seed is not None:
        return seed
    env = os.environ.get("SDUALKIT_SEED")
    return text_ints((env,), "SDUALKIT_SEED")[0] if env else DEFAULT_SEED


# ---------------------------------------------------------------------------
# rank-one presentations, byte-exact
# ---------------------------------------------------------------------------

PRESENTATION_CASES = [
    ({"rank": 1, "linear_weights": []}, "C[w, x, y] / (x*y = 1)  [T^*(C^x)]"),
    ({"rank": 1, "linear_weights": [[1]]}, "C[w, x, y] / (x*y = w)  [C^2]"),
    ({"rank": 1, "linear_weights": [[1], [1]]}, "C[w, x, y] / (x*y = w^2)  [A_1 singularity]"),
    ({"rank": 1, "linear_weights": [[1]] * 3}, "C[w, x, y] / (x*y = w^3)  [A_2 singularity]"),
    ({"rank": 1, "linear_weights": [[1]] * 4}, "C[w, x, y] / (x*y = w^4)  [A_3 singularity]"),
    ({"rank": 1, "linear_weights": [[1]] * 5}, "C[w, x, y] / (x*y = w^5)  [A_4 singularity]"),
    ({"rank": 1, "linear_weights": [[1]] * 6}, "C[w, x, y] / (x*y = w^6)  [A_5 singularity]"),
    ({"rank": 1, "linear_weights": [[2]]}, "C[w, x, y] / (x*y = 4*w^2)  [A_1 singularity]"),
    ({"rank": 1, "linear_weights": [[3]]}, "C[w, x, y] / (x*y = 27*w^3)  [A_2 singularity]"),
    ({"rank": 1, "linear_weights": [[4]]}, "C[w, x, y] / (x*y = 256*w^4)  [A_3 singularity]"),
    (
        {"rank": 1, "linear_weights": [], "multiplicative_weights": [[1]]},
        "point",
    ),
]


def check_coulomb_presentations(rng: random.Random) -> tuple[bool, str]:
    for doc, expected in PRESENTATION_CASES:
        got = str(present_rank1(TorusTheory.from_json(doc)))
        if got != expected:
            return False, f"{json.dumps(doc)}: got {got!r}, want {expected!r}"
    return True, f"{len(PRESENTATION_CASES)} presentations byte-exact"


# ---------------------------------------------------------------------------
# product laws and grading
# ---------------------------------------------------------------------------

def _random_theories(rng: random.Random) -> list[TorusTheory]:
    out = []
    for _ in range(200):
        r = rng.randint(1, 3)
        n_weights = rng.randint(0, 4)
        weights = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n_weights)]
        out.append(TorusTheory(r, weights))
    return out


def check_coulomb_product_laws(rng: random.Random) -> tuple[bool, str]:
    theories = _random_theories(rng)
    exponents = abelian_coulomb._exponents
    values: set[int] = set()
    triples_checked = 0
    for t in theories:
        cochars = cochar_box(t.rank, 2)
        for a in t.linear_weights:
            pairings = {a.pairing(c) for c in cochars}
            values |= pairings
            triples_checked += len(pairings) ** 3
    # Exhaustive associativity of the engine's exponent rule d: the product of
    # basis classes depends on a cocharacter only through its pairings, so the
    # triples of the union of every weight's pairing values cover every
    # weight's triples. For each x, d(x, y) + d(x + y, z) and
    # d(y, z) + d(x, y + z) are compared over all (y, z) at once, y major.
    vals = tuple(sorted(values))
    n = len(vals)
    ys, zs = sorted(vals * n), vals * n
    y_plus_z = tuple(map(add, ys, zs))
    d_yz = exponents(ys, zs)
    for x in vals:
        xs = (x,) * (n * n)
        left = list(map(add, exponents(xs, ys), exponents(tuple(map(add, xs, ys)), zs)))
        right = list(map(add, d_yz, exponents(xs, y_plus_z)))
        if left != right:
            i = next(i for i, (l, r) in enumerate(zip(left, right)) if l != r)
            return False, f"value-level associativity failed at x, y, z = {x}, {ys[i]}, {zs[i]}"
    for t in theories:
        cochars = cochar_box(t.rank, 2)
        # Element-level checks through the actual product implementation.
        if t.rank == 1:
            sample = [(l, m, n) for l in cochars for m in cochars for n in cochars]
        else:
            sample = [
                (rng.choice(cochars), rng.choice(cochars), rng.choice(cochars))
                for _ in range(60)
            ]
        for lam, mu, nu in sample:
            a_el, b_el, c_el = t.monomial(lam), t.monomial(mu), t.monomial(nu)
            left = multiply(t, multiply(t, a_el, b_el), c_el)
            right = multiply(t, a_el, multiply(t, b_el, c_el))
            if left != right:
                return False, f"associativity failed at {lam},{mu},{nu} for {t!r}"
        for _ in range(2):
            x_el = t.zero()
            y_el = t.zero()
            for _ in range(3):
                x_el = x_el + t.monomial(rng.choice(cochars), rng.randint(-2, 2))
                y_el = y_el + t.monomial(rng.choice(cochars), rng.randint(-2, 2))
            if multiply(t, x_el, y_el) != multiply(t, y_el, x_el):
                return False, f"commutativity failed for {t!r}"
    return True, f"{len(theories)} theories, {triples_checked} value triples"


def check_coulomb_grading(rng: random.Random) -> tuple[bool, str]:
    theories = _random_theories(rng)
    pairs_checked = 0
    for t in theories:
        cochars = cochar_box(t.rank, 2)
        if t.rank == 1:
            pairs = [(l, m) for l in cochars for m in cochars]
        else:
            pairs = [(rng.choice(cochars), rng.choice(cochars)) for _ in range(100)]
        for lam, mu in pairs:
            exps = structure_exponents(t, lam, mu)
            if any(e < 0 for e in exps):
                return False, f"negative exponent at {lam},{mu} for {t!r}"
            degree = structure_factor(t, lam, mu).homogeneous_degree()
            expected = (
                t.monopole_degree_doubled(lam)
                + t.monopole_degree_doubled(mu)
                - t.monopole_degree_doubled(tuple(a + b for a, b in zip(lam, mu)))
            )
            if degree is None or 2 * degree != expected:
                return False, f"inhomogeneous structure constant at {lam},{mu} for {t!r}"
            pairs_checked += 1
        # Products of homogeneous elements stay homogeneous, and a product of
        # classes is its structure constant times the class of the sum.
        lam, mu = rng.choice(cochars), rng.choice(cochars)
        prod = multiply(t, t.monomial(lam), t.monomial(mu))
        if not prod.is_homogeneous():
            return False, f"inhomogeneous product at {lam},{mu} for {t!r}"
        if prod != t.monomial(tuple(map(add, lam, mu)), structure_factor(t, lam, mu)):
            return False, f"product is not its structure constant at {lam},{mu} for {t!r}"
    # Tables against multiply over the cocharacters of the box whose class is not zero.
    for t, k in [(TorusTheory(2, [[1, 1]], [[1, -1]]), 2), (TorusTheory(3, [[1, 0, 2]], [[1, 1, 0]]), 1),
                 (TorusTheory(2, [[1, 2]], [[3, 1]]), 0), (TorusTheory(2, [[1, -1], [0, 2]]), 1)]:
        box = [lam for lam in cochar_box(t.rank, k) if not t.monomial(lam).is_zero()]
        want = [(l, m, multiply(t, t.monomial(l), t.monomial(m))) for l in box for m in box]
        got = [(l, m, t.monomial(tuple(map(add, l, m)), p)) for l, m, p in structure_constant_table(t, k)]
        if got != want:
            return False, f"table at cutoff {k} differs from multiply for {t.describe()}"
    return True, f"{pairs_checked} structure constants homogeneous"


# ---------------------------------------------------------------------------
# orbit chains and rank oracle
# ---------------------------------------------------------------------------

def check_orbit_chain_family(rng: random.Random) -> tuple[bool, str]:
    for n in range(1, 9):
        lam = chain_to_orbit(tuple(range(n + 1)))
        if lam != Partition((n,)):
            return False, f"staircase chain of length {n} gave {lam}"
        acc = spaces.SpaceDescriptor.m_circle(0, 1)
        for i in range(1, n):
            acc = spaces.compose(
                acc, spaces.SpaceDescriptor.m_circle(i, i + 1), spaces.GroupDescriptor.gl(i)
            )
        if acc.dim != n * n - n:
            return False, f"composed dimension {acc.dim} != {n * n - n} at n={n}"
        if orbit_dim(lam) != n * n - n:
            return False, f"orbit dimension {orbit_dim(lam)} != {n * n - n} at n={n}"
    return True, "staircase chains reach the full cone with matching dimensions, n <= 8"


def _commutant_dim(lam: Partition) -> int:
    """dim of {x : xJ = Jx} for J of Jordan type lam, computed exactly as the kernel
    of x -> xJ - Jx: row (i, j) holds the coefficient of each x[k][l] in (xJ - Jx)[i][j]."""
    n, J = lam.n, _jordan_matrix(lam)
    rows = [
        [(k == i) * J[l][j] - J[i][k] * (l == j) for k in range(n) for l in range(n)]
        for i in range(n)
        for j in range(n)
    ]
    return len(integer_kernel(rows, n * n))


def check_orbit_rank_oracle(rng: random.Random) -> tuple[bool, str]:
    count = 0
    for n in range(0, 11):
        for lam in partitions_of(n):
            table = numeric_jordan_oracle(lam)
            for k in range(max(lam.parts, default=0) + 1):
                if rank_profile(lam, k) != table.get(k):
                    return False, f"rank mismatch at {lam}, power {k}"
                count += 1
            if n <= 7 and orbit_dim(lam) != (expected := n * n - _commutant_dim(lam)):
                return False, f"orbit dimension {orbit_dim(lam)} != {expected} at {lam}"
    return True, f"{count} matrix ranks match the combinatorial profile, n <= 10"


# ---------------------------------------------------------------------------
# dual-pair table and partition laws
# ---------------------------------------------------------------------------

def check_sdual_slice_orbit_table(rng: random.Random) -> tuple[bool, str]:
    cases = 0
    for n in range(1, 8):
        g = spaces.GroupDescriptor.gl(n)
        for lam in partitions_of(n):
            m = spaces.SpaceDescriptor.group_times_slice(g, lam)
            dual = spaces.sdual_pair(m)
            expected = spaces.SpaceDescriptor.orbit_closure(n, transpose(lam))
            if dual != expected:
                return False, f"dual of GL({n}) x Slice{lam} is {dual}, want {expected}"
            back = spaces.sdual_pair(dual)
            if back != m:
                return False, f"double dual of Slice{lam} is {back!r}, not {m!r}"
            cases += 1
    return True, f"{cases} slice/orbit pairs verified with double duals, n <= 7"


def check_partition_transpose_laws(rng: random.Random) -> tuple[bool, str]:
    for n in range(0, 9):
        parts = list(partitions_of(n))
        for lam in parts:
            if transpose(transpose(lam)) != lam:
                return False, f"transpose not involutive at {lam}"
        for lam in parts:
            for mu in parts:
                if dominates(lam, mu) != dominates(transpose(mu), transpose(lam)):
                    return False, f"dominance reversal failed at {lam}, {mu}"
    return True, "transpose involution and dominance reversal exhaustive, n <= 8"


# ---------------------------------------------------------------------------
# Kostant reduction identity
# ---------------------------------------------------------------------------

def _kostant_cases():
    """(space, group) pairs whose Kostant reduction identity verify checks."""
    groups = [spaces.GroupDescriptor.gl(n) for n in range(1, 7)]
    for g in groups + [spaces.GroupDescriptor.torus(r) for r in range(1, 5)]:
        yield spaces.SpaceDescriptor.point(g), g
        yield spaces.SpaceDescriptor.cotangent_of_group(g), g
    g1, matter = spaces.GroupDescriptor.torus(1), spaces.SpaceDescriptor.cotangent_of_rep
    for size in range(0, 7):
        for weights in itertools.combinations_with_replacement(range(-3, 4), size):
            yield matter(theory=TorusTheory(1, [[wt] for wt in weights])), g1
    for mult in range(1, 4):
        yield matter(theory=TorusTheory(1, [], [[mult]])), g1


# sdual_torus at effective rank two or more, (rank, linear, multiplicative):
# the Coulomb branch, of twice the effective rank.
SDUAL_TORUS_CASES = [
    ((2, [[1, 0], [0, 1]], []), 4),
    ((3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], []), 6),
    ((3, [[1, 1, 0], [0, 1, 0]], [[0, 0, 1]]), 4),
]


def check_kostant_reduction(rng: random.Random) -> tuple[bool, str]:
    cases = 0
    for m, g in _kostant_cases():
        result = spaces.kostant_reduction_check(m, g)
        if not result.passed:
            return False, f"failed for {m!r} under {g}: {result}"
        cases += 1
    for args, dim in SDUAL_TORUS_CASES:
        theory = TorusTheory(*args)
        dual = abelian_coulomb.sdual_torus(theory)
        if (dual.kind, dual.dim) != ("coulomb_branch", dim):
            return False, f"dual of {theory.describe()} is {dual}, want a coulomb_branch of dim {dim}"
    return True, f"{cases} reduction identities hold"


# ---------------------------------------------------------------------------
# brane moves
# ---------------------------------------------------------------------------

def random_diagram(rng: random.Random) -> brane.BraneDiagram:
    while True:
        n = rng.randint(1, 12)
        branes = [rng.choice((brane.NS5, brane.D5)) for _ in range(n)]
        dims = [0] + [rng.randint(0, 9) for _ in range(n - 1)] + [0]
        d = brane.BraneDiagram(branes, dims)
        if brane.admissible_moves(d):
            return d


def _counted_linking(d: brane.BraneDiagram) -> brane.LinkingData:
    """Linking numbers by their definition: the dimension jump across each
    brane, plus the x branes left of an o, or the o branes right of an x."""
    b, dims = d.branes, d.dims
    ns5 = [dims[p + 1] - dims[p] + b[:p].count(brane.D5) for p, s in enumerate(b) if s == brane.NS5]
    d5 = [dims[p] - dims[p + 1] + b[p + 1 :].count(brane.NS5) for p, s in enumerate(b) if s == brane.D5]
    return brane.LinkingData(ns5, d5)


def check_brane_hw_properties(rng: random.Random) -> tuple[bool, str]:
    corpus = [random_diagram(rng) for _ in range(500)]
    for d in corpus:
        if brane.linking_numbers(d) != _counted_linking(d):
            return False, f"linking numbers differ from the counting definition on {d}"
        moves = brane.admissible_moves(d)
        i = rng.choice(moves)
        moved = brane.hw_move(d, i)
        if brane.hw_move(moved, i) != d:
            return False, f"transition not involutive at {i} on {d}"
        if brane.linking_numbers(moved) != brane.linking_numbers(d):
            return False, f"linking numbers changed at {i} on {d}"
        if brane.sdual(brane.hw_move(d, i)) != brane.hw_move(brane.sdual(d), i):
            return False, f"duality and transition do not commute at {i} on {d}"
        if brane.sdual(brane.sdual(d)) != d:
            return False, f"duality not involutive on {d}"
    for d1, d2 in zip(corpus[::2], corpus[1::2]):
        joined = brane.concat(d1, d2)
        if brane.sdual(joined) != brane.concat(brane.sdual(d1), brane.sdual(d2)):
            return False, f"duality does not distribute over {d1} + {d2}"
    return True, f"{len(corpus)} diagrams: involution, linking invariance, duality compatibility"


def _dual_word(framing) -> str:
    """Brane word of the dual pattern, built directly: x opens each node, and
    o repeats once per framing rank. It depends on the framing alone."""
    return brane.D5 + "".join(brane.NS5 * w + brane.D5 for w in framing)


def _dual_dims(gauge, framing) -> tuple[int, ...]:
    """Segment dimensions of the dual pattern: each gauge rank v, once after its
    opening x and once after each of its o, between the outer zeros."""
    return sum(((v,) * (w + 1) for v, w in zip(gauge, framing)), (0,)) + (0,)


def _is_dual_pattern(d, word: str, dims: tuple[int, ...]) -> bool:
    return type(d) is brane.BraneDiagram and d.branes == word and d.dims == dims


def check_quiver_sdual_pipeline(rng: random.Random) -> tuple[bool, str]:
    count = 0
    sdual, unfold, quiver = brane.sdual, brane.quiver_to_diagram, brane.QuiverData
    for length in range(1, 5):
        for framing in itertools.product(range(5), repeat=length):
            word = _dual_word(framing)
            # Expected dims gathered from (0,) + gauge; index 0 picks an outer zero.
            dims_of = itemgetter(*_dual_dims(range(1, length + 1), framing))
            for gauge in itertools.product(range(5), repeat=length):
                built = sdual(unfold(quiver(gauge, framing)))
                if not _is_dual_pattern(built, word, dims_of((0,) + gauge)):
                    return False, f"pipeline mismatch for gauge {gauge}, framing {framing}"
                count += 1
    return True, f"{count} quivers: dualized diagram equals the direct pattern"


# ---------------------------------------------------------------------------
# hyperspherical heuristic
# ---------------------------------------------------------------------------

def check_hyperspherical_deficit(rng: random.Random) -> tuple[bool, str]:
    torus, gl = spaces.GroupDescriptor.torus, spaces.GroupDescriptor.gl
    point, tgl = spaces.SpaceDescriptor.point, spaces.SpaceDescriptor.cotangent_of_group
    cases = [(spaces.SpaceDescriptor.cotangent_of_rep(theory=TorusTheory(1, [[1]])), torus(1), 0)]
    cases += [(tgl(gl(n)), gl(n), n * n - n) for n in range(1, 5)]
    # A point's deficit is -(dim g + rank g).
    points = zip([torus(1)] + [gl(n) for n in range(1, 5)], (-2, -2, -6, -12, -20))
    cases += [(point(g), g, want) for g, want in points]
    for m, g, want in cases:
        got = spaces.hyperspherical_deficit(m, g)
        if got != want:
            return False, f"deficit of {m} under {g} is {got}, want {want}"
    return True, "deficits match the recorded values"


# ---------------------------------------------------------------------------
# cross-module: abelian engine against the diagram pipeline
# ---------------------------------------------------------------------------

def check_coulomb_brane_crosscheck(rng: random.Random) -> tuple[bool, str]:
    for flavors in range(1, 7):
        theory = TorusTheory(1, [[1]] * flavors)
        space = present_rank1(theory).space
        if flavors == 1:
            ok = space.kind == "cotangent_of_rep"
        else:
            ok = space.kind == "type_A_singularity" and space.index == flavors - 1
        if not ok:
            return False, f"{flavors} flavors classified as {space}"
        dual = brane.sdual(brane.quiver_to_diagram(brane.QuiverData([1], [flavors])))
        if not _is_dual_pattern(dual, _dual_word([flavors]), _dual_dims([1], [flavors])):
            return False, f"diagram dual mismatch at {flavors} flavors"
    return True, "abelian classification and diagram duality agree for 1..6 flavors"


# ---------------------------------------------------------------------------
# duality commutes with composition, in dimensions
# ---------------------------------------------------------------------------

def check_sdual_compose_dims(rng: random.Random) -> tuple[bool, str]:
    count = 0
    for _ in range(60):
        n_steps = rng.randint(1, 5)
        deltas = sorted((rng.randint(0, 3) for _ in range(n_steps)), reverse=True)
        dims = [0]
        for delta in reversed(deltas):
            dims.append(dims[-1] + delta)
        if dims[-1] == 0 or dims[-1] > 8:
            continue
        chain = brane.BraneDiagram(brane.NS5 * n_steps, dims)
        lhs = spaces.sdual_pair(brane.expected_space(chain))
        acc = spaces.SpaceDescriptor.m_cross(dims[0], dims[1])
        for i in range(1, n_steps):
            acc = spaces.compose(
                acc,
                spaces.SpaceDescriptor.m_cross(dims[i], dims[i + 1]),
                spaces.GroupDescriptor.gl(dims[i]),
            )
        if lhs.dim != acc.dim:
            return False, f"dimension mismatch for chain {dims}: {lhs.dim} vs {acc.dim}"
        count += 1
    return True, f"{count} chains: dual of the composite matches the composite of duals"


CHECKS = [
    ("coulomb-presentations", check_coulomb_presentations),
    ("coulomb-product-laws", check_coulomb_product_laws),
    ("coulomb-grading", check_coulomb_grading),
    ("orbit-chain-family", check_orbit_chain_family),
    ("orbit-rank-oracle", check_orbit_rank_oracle),
    ("sdual-slice-orbit-table", check_sdual_slice_orbit_table),
    ("partition-transpose-laws", check_partition_transpose_laws),
    ("kostant-reduction", check_kostant_reduction),
    ("brane-hw-properties", check_brane_hw_properties),
    ("quiver-sdual-pipeline", check_quiver_sdual_pipeline),
    ("hyperspherical-deficit", check_hyperspherical_deficit),
    ("coulomb-brane-crosscheck", check_coulomb_brane_crosscheck),
    ("sdual-compose-dims", check_sdual_compose_dims),
]


def run_checks(name_filter: str | None = None, seed: int | None = None) -> list[CheckResult]:
    seed = resolve_seed(seed)
    results = []
    for name, func in CHECKS:
        if name_filter and name_filter not in name:
            continue
        rng = random.Random(f"{seed}:{name}")
        try:
            passed, detail = func(rng)
        except Exception as exc:  # a crashing check is a failing check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return results
