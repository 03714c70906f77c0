"""Exact integer linear algebra and sparse multivariate polynomials.

Everything here runs on Python's arbitrary-precision integers; no floating
point is used anywhere, so results are bit-stable and safe to freeze into
golden tests.

Homogeneous products (eval_product, and Polynomial products of two
homogeneous operands of several terms that need at most one field per pair
of terms) pack each coefficient into a field of one big integer and multiply
once; adding 2^(k-1) to every k-bit field of the product then lets one
struct.unpack read the fields, each on its own and carry-free (_unpack).
"""

from __future__ import annotations

import struct
from itertools import product
from math import prod
from operator import add, attrgetter, itemgetter, lshift, mul
from typing import Iterable, Sequence


def strict_int(value, what: str) -> int:
    """``value`` if it is a JSON integer; bool, float, null and the rest raise ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


_INT_ONLY = frozenset((int,))


def strict_int_tuple(values: Iterable, what: str) -> tuple[int, ...]:
    """The entries of ``values`` as a tuple, each checked by strict_int."""
    values = tuple(values)
    if not _INT_ONLY.issuperset(map(type, values)):
        for v in values:
            strict_int(v, what)
    return values


def strict_ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple if it is a JSON list of integers, checked by strict_int."""
    if not isinstance(values, list):
        raise ValueError(f"{what} must be a list of integers, got {values!r}")
    return strict_int_tuple(values, what)


def strict_object(data, what: str, required: Iterable[str], optional: Iterable[str]) -> dict:
    """``data`` if it is a JSON object holding every ``required`` key and no key
    outside ``required`` and ``optional``; anything else raises ValueError."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} document must be a JSON object, got {data!r}")
    required = tuple(required)
    for key in required:
        if key not in data:
            raise ValueError(f"{what} document requires {key!r}")
    allowed = set(required).union(optional)
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {what} document")
    return data


class UnsupportedInputError(ValueError):
    """A valid input that is unsupported or too large; the CLI exits 3 on it."""


# Python's default limit on the digits of an integer converted from text.
MAX_DIGITS = 4_300


def text_ints(tokens: Sequence[str], what: str) -> list[int]:
    """The integers written in ``tokens``, each as ASCII ``-?[0-9]+``.

    Underscores, a plus sign, whitespace and non-ASCII digits, all of which
    ``int()`` accepts, raise ValueError; more than MAX_DIGITS digits raise
    UnsupportedInputError.
    """
    for tok in tokens:
        if not (tok.isascii() and (tok.isdigit() or tok[:1] == "-" and tok[1:].isdigit())):
            raise ValueError(f"{what} must be an integer written in ASCII digits, got {tok!r}")
        if len(tok) > MAX_DIGITS:
            digits = len(tok) - (tok[0] == "-")
            if digits > MAX_DIGITS:
                raise UnsupportedInputError(f"{what} has {digits} digits, above the bound {MAX_DIGITS}")
    return [int(tok) for tok in tokens]


def _extgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class Value:
    """Base of the value types: a value equals only a value of exactly its own
    class whose ``__slots__`` hold equal values, and equal values hash alike,
    a dict slot hashing as its items. Its repr is the constructor call that
    rebuilds it, every slot passed by name: each value type's ``__init__``
    takes its slots as parameters of the same names."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._slot_values = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._slot_values(self) == other._slot_values(other)

    def __hash__(self) -> int:
        values = (getattr(self, name) for name in self.__slots__)
        return hash(tuple(frozenset(v.items()) if type(v) is dict else v for v in values))

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({args})"


class LinearForm(Value):
    """Integer linear form on Z^r; pairs with cocharacters by the dot product."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = strict_int_tuple(coeffs, "form coefficient")

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def pairing(self, cochar: Sequence[int]) -> int:
        cochar = strict_int_tuple(cochar, "cocharacter entry")
        if len(cochar) != len(self.coeffs):
            raise ValueError(
                f"form of rank {len(self.coeffs)} paired with vector of length {len(cochar)}"
            )
        return sum(c * x for c, x in zip(self.coeffs, cochar))


class Polynomial(Value):
    """Sparse polynomial in ``rank`` variables with integer coefficients.

    Terms map dense exponent tuples (length = rank, entries >= 0) to nonzero
    integer coefficients; zero coefficients are never stored.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms=None):
        self.rank = strict_int(rank, "rank")
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                e = strict_int_tuple(exps, "exponent")
                if len(e) != self.rank:
                    raise ValueError(f"exponent vector {e} has wrong length for rank {self.rank}")
                if any(x < 0 for x in e):
                    raise ValueError(f"negative exponent in {e}")
                c = strict_int(coeff, "coefficient")
                if c:
                    clean[e] = clean.get(e, 0) + c
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def _trusted(cls, rank: int, terms: dict) -> "Polynomial":
        """Wrap terms that are already clean: exponent tuples of length ``rank``
        with entries >= 0, and no zero coefficient. Internal results only."""
        p = object.__new__(cls)
        p.rank = rank
        p.terms = terms
        return p

    @classmethod
    def constant(cls, rank: int, value: int) -> "Polynomial":
        if strict_int(rank, "rank") < 0:
            raise ValueError("rank must be nonnegative")
        value = strict_int(value, "constant")
        return cls._trusted(rank, {(0,) * rank: value} if value else {})

    def is_zero(self) -> bool:
        return not self.terms

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.rank != self.rank:
                raise ValueError(f"rank {other.rank} vs {self.rank}")
            return other
        if isinstance(other, int):
            return Polynomial.constant(self.rank, other)
        return NotImplemented

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        acc = dict(self.terms)
        for e, c in other.terms.items():
            total = acc.get(e, 0) + c
            if total:
                acc[e] = total
            else:
                del acc[e]
        return Polynomial._trusted(self.rank, acc)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._trusted(self.rank, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Polynomial._trusted(self.rank, _mul_terms(self.terms, other.terms))

    __rmul__ = __mul__

    def homogeneous_degree(self):
        """Common total degree of all terms, or None if inhomogeneous or zero."""
        degrees = {sum(e) for e in self.terms}
        if len(degrees) == 1:
            return degrees.pop()
        return None

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms sorted by descending total degree, then descending exponents."""
        return sorted(self.terms.items(), key=lambda item: (sum(item[0]), item[0]), reverse=True)

    def __str__(self) -> str:
        varnames = ["w"] if self.rank == 1 else [f"w{i + 1}" for i in range(self.rank)]
        if not self.terms:
            return "0"
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(varnames, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            if not factors:
                body = str(mag)
            elif mag == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(mag)] + factors)
            pieces.append(("-" if coeff < 0 else "+", body))
        sign, body = pieces[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in pieces[1:]:
            out += f" {sign} {body}"
        return out


def _mul_terms(a: dict, b: dict) -> dict:
    """Product of two clean term dicts, with zero sums dropped.

    A one-term operand only shifts and scales the other's terms, which
    cannot collide or cancel; the constant 1 returns the other dict itself.
    Two homogeneous operands of several terms multiply packed (_unpack),
    each product coefficient at most the product of the operands' 1-norms,
    unless packing takes over _DENSE_FIELDS fields per pair of terms.
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((e1, c1),) = a.items()
        if not any(e1):
            return b if c1 == 1 else {e: c1 * c for e, c in b.items()}
        return {tuple(map(add, e, e1)): c1 * c for e, c in b.items()}
    degrees_a, degrees_b = set(map(sum, a)), set(map(sum, b))
    if len(degrees_a) == len(degrees_b) == 1:  # so the rank is at least 2
        rank = len(next(iter(a)))
        degree = degrees_a.pop() + degrees_b.pop()
        if (degree + 1) ** (rank - 1) <= _DENSE_FIELDS * len(a) * len(b):
            bound = sum(map(abs, a.values())) * sum(map(abs, b.values()))
            size, shifts = _layout(bound, degree, rank)
            pa, pb = (sum(c << sum(map(mul, e, shifts)) for e, c in t.items()) for t in (a, b))
            return _unpack(pa * pb, size, degree, rank)
    acc: dict[tuple[int, ...], int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


# Packing pays while it reads at most one field per pair product of terms.
# Over 1,000 products of two multi-term homogeneous operands drawn from a
# verify pass, this bound took 95 ms in all, 0.5 or 0.75 fields 93-95 ms,
# 8 fields 101 ms and the pair loop alone 193 ms (2 vCPUs, Python 3.11).
_DENSE_FIELDS = 1


def _layout(bound: int, degree: int, rank: int) -> tuple[int, list[int]]:
    """Field size in bytes and the bit shift of each variable that pack a
    homogeneous polynomial of degree ``degree`` in ``rank`` >= 2 variables,
    coefficients at most ``bound`` in absolute value (see _unpack)."""
    size = (bound.bit_length() + 8) // 8
    k, base = 8 * size, degree + 1
    return size, [k * base**e for e in range(rank - 2, -1, -1)] + [0]


def _unpack(value: int, size: int, degree: int, rank: int) -> dict:
    """Terms of the homogeneous polynomial packed in ``value`` by _layout.

    Each coefficient c has a field of k = 8 * size bits, k > bitlength(bound).
    The first variable is the most significant and the last one is set to 1,
    so the fields run in the order of itertools.product over the first
    rank - 1 exponents, and the last exponent makes up the degree. Adding
    2^(k-1) to every field, an offset built from bytes, puts each field at
    c + 2^(k-1) in [0, 2^k): it reads on its own, with no borrow from its
    neighbour, and holds no term if it reads 2^(k-1). One struct.unpack reads
    fields of up to 8 bytes, those of 3, 5, 6 or 7 zero-extended to 4 or 8
    first, one strided copy per byte; wider fields are read one by one.
    """
    count = (degree + 1) ** (rank - 1)
    offset = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    data = (value + offset).to_bytes(size * count, "little")
    if size > 8:
        fields = (int.from_bytes(data[i : i + size], "little") for i in range(0, len(data), size))
    else:
        width = 1 << (size - 1).bit_length()
        if width != size:
            wide = bytearray(width * count)
            for i in range(size):
                wide[i::width] = data[i::size]
            data = wide
        fields = struct.unpack(f"<{count}{'BHIQ'[width.bit_length() - 1]}", data)
    half = 1 << (8 * size - 1)
    heads = product(range(degree + 1), repeat=rank - 1)
    return {h + (degree - sum(h),): f - half for h, f in zip(heads, fields) if f != half}


def eval_product(factors: Sequence[tuple[LinearForm, int]], rank: int) -> Polynomial:
    """Expand prod_j a_j(w)^{e_j} exactly, by Kronecker substitution.

    The product is homogeneous of degree D = sum_j e_j in the variables that
    some form with e_j > 0 uses; the others keep exponent 0, stay out of the
    packing and are put back in place after it. Mapping the used variables
    to X^((D+1)^(u-2)), ..., X^(D+1), X, 1 with X = 2^k packs each
    coefficient into its own base-X field of one big integer, the product of
    the packed forms. Every coefficient is at most
    B = prod_j (sum_i |c_ji|)^{e_j} in absolute value (the product of the
    forms with |c| in place of c, at w = 1, bounds it term by term), so
    k = bitlength(B) + 1, rounded up to whole bytes, lets _unpack read each
    field carry-free, as the coefficient plus 2^(k-1). With at most one
    used variable w_i the product is the monomial prod_j c_ji^{e_j} w_i^D.
    Every form must have rank ``rank``.
    """
    if strict_int(rank, "rank") < 0:
        raise ValueError("rank must be nonnegative")
    degree, bound, live = 0, 1, []
    for form, exponent in factors:
        if len(form.coeffs) != rank:
            raise ValueError(f"form rank {form.rank} != {rank}")
        if type(exponent) is not int or exponent < 0:  # one type test per factor
            strict_int(exponent, "exponent")
            raise ValueError("exponents must be nonnegative")
        if exponent:
            degree += exponent
            bound *= sum(map(abs, form.coeffs)) ** exponent
            live.append((form.coeffs, exponent))
    if not live:
        return Polynomial._trusted(rank, {(0,) * rank: 1})
    if not bound:
        return Polynomial._trusted(rank, {})
    used = [i for i, column in enumerate(zip(*(coeffs for coeffs, _ in live))) if any(column)]
    if len(used) <= 1:
        exps = [0] * rank
        if used:
            exps[used[0]] = degree
        coeff = prod(coeffs[i] ** exponent for coeffs, exponent in live for i in used)
        return Polynomial._trusted(rank, {tuple(exps): coeff})
    size, shifts = _layout(bound, degree, len(used))
    if len(used) < rank:
        pick = itemgetter(*used)
        live = [(pick(coeffs), exponent) for coeffs, exponent in live]
    value = 1
    for coeffs, exponent in live:
        value *= sum(map(lshift, coeffs, shifts)) ** exponent
    terms = _unpack(value, size, degree, len(used))
    if len(used) < rank:
        # Index len(used) picks the 0 appended to each packed exponent tuple.
        slot = dict(zip(used, range(len(used))))
        place = itemgetter(*(slot.get(i, len(used)) for i in range(rank)))
        terms = {place(e + (0,)): c for e, c in terms.items()}
    return Polynomial._trusted(rank, terms)


def _hermite_rows(vectors: Sequence[Sequence[int]], ncols: int) -> list[tuple[int, ...]]:
    """Canonical (Hermite) basis of the row lattice spanned by ``vectors``.

    Pivots are positive and entries above each pivot are reduced into
    [0, pivot), which makes the output unique for a given lattice.
    """
    work = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    for col in range(ncols):
        sel = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not sel:
            work = rest
            continue
        pivot = sel[0]
        for r in sel[1:]:
            a, b = pivot[col], r[col]
            g, s, t = _extgcd(a, b)
            pa, pb = a // g, b // g
            combined = [s * pivot[k] + t * r[k] for k in range(ncols)]
            cleared = [-pb * pivot[k] + pa * r[k] for k in range(ncols)]
            pivot = combined
            if any(cleared):
                rest.append(cleared)
        if pivot[col] < 0:
            pivot = [-x for x in pivot]
        for prev in basis:
            q = prev[col] // pivot[col]
            if q:
                for k in range(ncols):
                    prev[k] -= q * pivot[k]
        basis.append(pivot)
        work = rest
    return [tuple(r) for r in basis]


def _check_matrix(rows: Sequence[Sequence[int]], cols: int) -> None:
    """Raise ValueError unless every row holds ``cols`` Python ints."""
    for row in rows:
        if len(row) != cols:
            raise ValueError(f"matrix row {list(row)!r} does not have {cols} entries")
        strict_int_tuple(row, "matrix entry")


def integer_kernel(rows: Sequence[Sequence[int]], cols: int) -> list[tuple[int, ...]]:
    """Canonical basis of the full integer kernel lattice {v : m v = 0}, m the matrix of ``rows``.

    Column j of m, extended by the unit vector e_j, records both its image
    and its coordinates; the Hermite rows whose image part vanishes are the
    Hermite basis of the kernel. The kernel of an integer matrix is
    saturated, so these rows generate the whole lattice, not a finite-index
    sublattice.
    """
    _check_matrix(rows, cols)
    n = len(rows)
    extended = [
        [row[j] for row in rows] + [1 if i == j else 0 for i in range(cols)] for j in range(cols)
    ]
    return [r[n:] for r in _hermite_rows(extended, n + cols) if not any(r[:n])]


def integer_rank(rows: Sequence[Sequence[int]], cols: int) -> int:
    """Rank of the integer matrix of ``rows``, computed exactly."""
    _check_matrix(rows, cols)
    return len(_hermite_rows(rows, cols))
