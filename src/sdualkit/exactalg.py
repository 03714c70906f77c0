"""Exact integer linear algebra and sparse multivariate polynomials.

Everything here runs on Python's arbitrary-precision integers; no floating
point is used anywhere, so results are bit-stable and safe to freeze into
golden tests.
"""

from __future__ import annotations

from math import prod
from operator import add, attrgetter
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
    """
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((e1, c1),) = a.items()
        if not any(e1):
            return b if c1 == 1 else {e: c1 * c for e, c in b.items()}
        return {tuple(map(add, e, e1)): c1 * c for e, c in b.items()}
    acc: dict[tuple[int, ...], int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _balanced_digits(value: int, k: int, count: int):
    """(position, digit) for the nonzero balanced base-2^k digits of ``value``.

    ``k`` is a multiple of 8. Digits lie in [-2^(k-1), 2^(k-1)), least
    significant first, and there are at most ``count`` of them. The low
    ``k * count`` bits of the two's complement give the plain digits; a
    plain digit at or above 2^(k-1) is taken as negative and borrows one
    from the next position.
    """
    size = k // 8
    data = (value & ((1 << (k * count)) - 1)).to_bytes(size * count, "little")
    half, full = 1 << (k - 1), 1 << k
    borrow = 0
    for position, start in enumerate(range(0, size * count, size)):
        digit = int.from_bytes(data[start : start + size], "little") + borrow
        borrow = digit >= half
        if borrow:
            digit -= full
        if digit:
            yield position, digit


def eval_product(factors: Sequence[tuple[LinearForm, int]], rank: int) -> Polynomial:
    """Expand prod_j a_j(w)^{e_j} exactly, by Kronecker substitution.

    The product is homogeneous of degree D = sum_j e_j, so setting the last
    variable to 1 loses nothing, and every other exponent is at most D.
    Mapping w_i to X^((D+1)^(i-1)) with X = 2^k then packs the coefficient
    of each monomial into its own base-X digit of one big integer,
    prod_j a_j(X, X^(D+1), ..., 1)^{e_j}. Every coefficient is at most
    B = prod_j (sum_i |c_ji|)^{e_j} in absolute value (the product of the
    forms with |c| in place of c, at w = 1, bounds it term by term), so
    k = bitlength(B) + 1, rounded up to whole bytes, keeps each balanced
    digit exact. In rank one the product is the single monomial
    prod_j c_j^{e_j} w^D. Every form must have rank ``rank``.
    """
    factors = list(factors)
    strict_int(rank, "rank")
    degree, bound = 0, 1
    for form, exponent in factors:
        if form.rank != rank:
            raise ValueError(f"form rank {form.rank} != {rank}")
        if type(exponent) is not int or exponent < 0:  # one type test per factor
            strict_int(exponent, "exponent")
            raise ValueError("exponents must be nonnegative")
        degree += exponent
        bound *= sum(map(abs, form.coeffs)) ** exponent
    if not bound:
        return Polynomial._trusted(rank, {})
    if rank <= 1:
        coeff = prod(c**exponent for form, exponent in factors for c in form.coeffs)
        return Polynomial._trusted(rank, {(degree,) * rank: coeff})
    k = (bound.bit_length() + 8) // 8 * 8
    base = degree + 1
    shifts = [k * base**i for i in range(rank - 1)]
    value = 1
    for form, exponent in factors:
        if exponent:
            *head, last = form.coeffs
            value *= (last + sum(c << s for c, s in zip(head, shifts))) ** exponent
    terms = {}
    for position, coeff in _balanced_digits(value, k, base ** (rank - 1)):
        exps = []
        for _ in range(rank - 1):
            position, e = divmod(position, base)
            exps.append(e)
        exps.append(degree - sum(exps))
        terms[tuple(exps)] = coeff
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
