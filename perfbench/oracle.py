"""Reference computations the benchmark checks sdualkit's outputs against.

None of this imports sdualkit: each result is derived here from its
definition, so a wrong answer from the program cannot also be the expected
one. sympy is imported only by the functions that need it, after the timed
region.
"""

from __future__ import annotations

import itertools


# -- abelian Coulomb products --------------------------------------------------

def pairing(a, v) -> int:
    return sum(x * y for x, y in zip(a, v))


def structure_exponents(weights, lam, mu) -> list[int]:
    """d_j = (|<a,lam>| + |<a,mu>| - |<a,lam+mu>|) / 2 for each weight a."""
    total = [x + y for x, y in zip(lam, mu)]
    out = []
    for a in weights:
        twice = abs(pairing(a, lam)) + abs(pairing(a, mu)) - abs(pairing(a, total))
        out.append(twice // 2)
    return out


def sympy_product(weights, exps, rank: int) -> dict[tuple[int, ...], int]:
    """Expand prod_j a_j(w)^{d_j} with sympy; returns {exponents: coefficient}."""
    import sympy

    ws = sympy.symbols(f"w1:{rank + 1}")
    expr = sympy.Integer(1)
    for a, d in zip(weights, exps):
        expr *= sum((c * w for c, w in zip(a, ws)), sympy.Integer(0)) ** d
    poly = sympy.Poly(sympy.expand(expr), *ws)
    return {tuple(int(e) for e in mono): int(c) for mono, c in poly.terms() if c}


def add_terms(acc: dict, terms: dict, scale: int = 1) -> None:
    for e, c in terms.items():
        acc[e] = acc.get(e, 0) + scale * c
        if not acc[e]:
            del acc[e]


def format_poly(terms: dict, rank: int) -> str:
    """sdualkit's text form: descending total degree, then exponents."""
    if not terms:
        return "0"
    names = ["w"] if rank == 1 else [f"w{i + 1}" for i in range(rank)]
    pieces = []
    for exps in sorted(terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = terms[exps]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        mag = abs(coeff)
        body = "*".join(([str(mag)] if mag != 1 or not factors else []) + factors)
        pieces.append(("-" if coeff < 0 else "+", body))
    text = ("-" if pieces[0][0] == "-" else "") + pieces[0][1]
    return text + "".join(f" {s} {b}" for s, b in pieces[1:])


def format_element(support: dict, rank: int) -> str:
    """Text of a Coulomb element {cochar: terms}, as CoulombElement.__str__ prints it."""
    if not support:
        return "0"
    one = {(0,) * rank: 1}
    parts = []
    for lam in sorted(support):
        terms = support[lam]
        label = "r[" + ",".join(str(x) for x in lam) + "]"
        if terms == one:
            parts.append(label)
        elif len(terms) == 1:
            parts.append(f"{format_poly(terms, rank)}*{label}")
        else:
            parts.append(f"({format_poly(terms, rank)})*{label}")
    return " + ".join(parts)


def expected_product(weights, rank, x: dict, y: dict) -> dict:
    """Product of two elements {cochar: coefficient int}, with sympy factors."""
    acc: dict = {}
    for lam, p in x.items():
        for mu, q in y.items():
            factor = sympy_product(weights, structure_exponents(weights, lam, mu), rank)
            key = tuple(a + b for a, b in zip(lam, mu))
            add_terms(acc.setdefault(key, {}), factor, p * q)
    return {k: v for k, v in acc.items() if v}


def primitive_kernel_vector(rows, rank: int) -> tuple[int, ...] | None:
    """Generator of the rank-one integer kernel of ``rows``, first nonzero entry positive.

    Works for rank 2 with one row and rank 3 with two independent rows;
    returns None when the kernel does not have rank one.
    """
    from math import gcd

    if rank == 2 and len(rows) == 1:
        (b1, b2), = rows
        v = (b2, -b1)
    elif rank == 3 and len(rows) == 2:
        (a1, a2, a3), (b1, b2, b3) = rows
        v = (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    else:
        return None
    g = 0
    for x in v:
        g = gcd(g, x)
    if not g:
        return None
    v = tuple(x // g for x in v)
    first = next(x for x in v if x)
    return v if first > 0 else tuple(-x for x in v)


def presentation_text(coeffs: list[int]) -> str:
    """Rank-one presentation C[w,x,y]/(x*y = prod_j (c_j w)^{|c_j|}) with its tag."""
    constant = 1
    degree = 0
    for c in coeffs:
        constant *= c ** abs(c)
        degree += abs(c)
    rhs = format_poly({(degree,): constant}, 1)
    if degree == 0:
        tag = "T^*(C^x)"
    elif degree == 1:
        tag = "C^2"
    else:
        tag = f"A_{degree - 1} singularity"
    return f"C[w, x, y] / (x*y = {rhs})  [{tag}]"


# -- partitions and chains -----------------------------------------------------

def transpose(parts) -> tuple[int, ...]:
    parts = [p for p in parts if p]
    if not parts:
        return ()
    return tuple(sum(1 for p in parts if p >= k) for k in range(1, max(parts) + 1))


def orbit_dim(parts) -> int:
    n = sum(parts)
    return n * n - sum(c * c for c in transpose(parts))


def centralizer_dim(parts) -> int:
    return sum(c * c for c in transpose(parts))


def max_jordan_type(dims) -> tuple[int, ...] | None:
    """Dominance-largest Jordan type with rank(x^k) <= v_{steps-k}, or None.

    Enumerates column-length sequences c_1 >= c_2 >= ... (c_k = r_{k-1} - r_k
    for the rank profile r) under the bounds, and returns the partition whose
    profile is the pointwise maximum of all feasible profiles, if that
    maximum is itself feasible.
    """
    steps = len(dims) - 1
    n = dims[-1]
    bounds = [dims[steps - k] for k in range(steps + 1)]
    best: list[int] | None = None
    profiles: set[tuple[int, ...]] = set()

    def walk(k: int, remaining: int, last: int, profile: list[int]) -> None:
        nonlocal best
        if remaining == 0:
            full = tuple(profile + [0] * (steps + 1 - len(profile)))
            profiles.add(full)
            best = list(full) if best is None else [max(a, b) for a, b in zip(best, full)]
            return
        if k > steps:
            return
        for c in range(min(last, remaining), 0, -1):
            rank = remaining - c
            if rank <= bounds[k]:
                walk(k + 1, rank, c, profile + [rank])

    walk(1, n, n, [n])
    if best is None or tuple(best) not in profiles:
        return None
    columns = [best[k - 1] - best[k] for k in range(1, steps + 1)]
    return transpose([c for c in columns if c])


# -- brane diagrams ------------------------------------------------------------

def render(branes, dims) -> str:
    out = [str(dims[0])]
    for b, d in zip(branes, dims[1:]):
        out += [b, str(d)]
    return " ".join(out)


def linking(branes, dims) -> tuple[list[int], list[int]]:
    """Sorted linking numbers (o, x): o counts x to its left, x counts o to its right."""
    ns5, d5 = [], []
    for p, b in enumerate(branes):
        if b == "o":
            ns5.append(dims[p + 1] - dims[p] + branes[:p].count("x"))
        else:
            d5.append(dims[p] - dims[p + 1] + branes[p + 1:].count("o"))
    return sorted(ns5), sorted(d5)


def linking_text(branes, dims) -> str:
    ns5, d5 = linking(branes, dims)
    return f"ns5 {ns5}  d5 {d5}"


def admissible(branes, dims, i) -> bool:
    return branes[i] != branes[i + 1] and dims[i] + dims[i + 2] + 1 >= dims[i + 1]


def hw(branes, dims, i):
    """The local transition at (i, i+1), or None when it is not admissible."""
    if not admissible(branes, dims, i):
        return None
    mid = dims[i] + dims[i + 2] + 1 - dims[i + 1]
    b, d = list(branes), list(dims)
    b[i], b[i + 1] = b[i + 1], b[i]
    d[i + 1] = mid
    return b, d



def unfold_dual(gauge, framing):
    """Dual of the unfolded quiver: x opens each node, w_i copies of o follow."""
    branes, dims = [], [0]
    for v, w in zip(gauge, framing):
        branes.append("x")
        dims.append(v)
        branes += ["o"] * w
        dims += [v] * w
    branes.append("x")
    dims.append(0)
    return branes, dims


def all_box(rank: int, cutoff: int):
    return list(itertools.product(range(-cutoff, cutoff + 1), repeat=rank))
