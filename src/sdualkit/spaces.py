"""Descriptor algebra for Hamiltonian spaces.

Spaces are tracked as tagged records (kind, acting groups, complex dimension,
partition data), never as actual varieties. The module provides symplectic-
reduction bookkeeping, the built-in table of S-dual pairs, the Kostant
reduction dimension identity, and the hyperspherical dimension heuristic.

The table is written for the left side. A space acted on from the right only
is dualized as the mirror of its left-sided image, so a one-sided space has
its dual on its own side; a one-sided point, torus cotangent, T*G, G x Slice
or orbit closure dualizes back to exactly itself. Only the brane building
blocks, a product or a slice block with both sides non-trivial, are
two-sided.
"""

from __future__ import annotations

from collections import namedtuple

from .exactalg import (
    UnsupportedInputError,
    Value,
    strict_int,
    strict_int_tuple,
    strict_ints,
    strict_object,
)
from .partitions import Partition, centralizer_dim, hook, orbit_dim, transpose


class GroupDescriptor(Value):
    """A reductive group at bookkeeping level: torus(r), gl(n), or a product.

    The dual group of a torus is identified with the torus and gl(n) with
    gl(n); isogeny distinctions are deliberately collapsed.
    """

    __slots__ = ("kind", "size", "factors")

    # The one payload key of each kind's document, beside "kind".
    JSON_KEYS = {"torus": "rank", "gl": "n", "product": "factors"}

    def __init__(self, kind: str, size: int = 0, factors: tuple = ()):
        if kind not in self.JSON_KEYS:
            raise ValueError(f"unknown group kind {kind!r}")
        if strict_int(size, "group size") < 0:
            what = "torus rank" if kind == "torus" else f"{kind} size"
            raise ValueError(f"{what} must be nonnegative")
        factors = tuple(factors)
        if kind == "product":
            # One form from every constructor: nested products are flattened and
            # trivial factors dropped, and a product of one factor is that factor.
            if size:
                raise ValueError(f"a product group has no size, got {size}")
            if not all(isinstance(f, GroupDescriptor) for f in factors):
                raise ValueError(f"product factors must be groups, got {factors!r}")
            factors = tuple(g for f in factors for g in f.factors or (f,) if not g.is_trivial)
            if len(factors) == 1:
                kind, size, factors = factors[0].kind, factors[0].size, ()
        elif factors:
            raise ValueError(f"a {kind} group has no factors, got {factors!r}")
        # A group of no size and no factor, gl(0) or a product of none, is the
        # trivial group: the torus of rank 0.
        self.kind = kind if size or factors else "torus"
        self.size = size
        self.factors = factors

    @classmethod
    def torus(cls, r: int) -> "GroupDescriptor":
        return cls("torus", r)

    @classmethod
    def gl(cls, n: int) -> "GroupDescriptor":
        return cls("gl", n)

    @classmethod
    def trivial(cls) -> "GroupDescriptor":
        return cls.torus(0)

    @classmethod
    def product(cls, factors) -> "GroupDescriptor":
        return cls("product", 0, factors)

    @property
    def dim(self) -> int:
        if self.kind == "torus":
            return self.size
        if self.kind == "gl":
            return self.size * self.size
        return sum(f.dim for f in self.factors)

    @property
    def rank(self) -> int:
        if self.kind == "product":
            return sum(f.rank for f in self.factors)
        return self.size

    @property
    def is_trivial(self) -> bool:
        return self.dim == 0

    def __str__(self) -> str:
        if self.is_trivial:
            return "1"
        if self.kind == "torus":
            return f"T({self.size})"
        if self.kind == "gl":
            return f"GL({self.size})"
        return " x ".join(str(f) for f in self.factors)

    def to_json(self) -> dict:
        value = [f.to_json() for f in self.factors] if self.kind == "product" else self.size
        return {"kind": self.kind, self.JSON_KEYS[self.kind]: value}

    @classmethod
    def from_json(cls, data: dict) -> "GroupDescriptor":
        kind = _kind(data, "group", cls.JSON_KEYS)
        key = cls.JSON_KEYS[kind]
        value = strict_object(data, f"{kind} group", ("kind", key), ())[key]
        if kind == "product":
            return cls.product(cls.from_json(f) for f in _list(value, key))
        return cls(kind, strict_int(value, key))


def _kind(data, what: str, kinds) -> str:
    """The "kind" of a ``what`` document, one of ``kinds``. Every other key
    passes here; the reader checks them against the kind's own keys."""
    kind = strict_object(data, what, ("kind",), data)["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return kind


def _list(data, what: str) -> list:
    if not isinstance(data, list):
        raise ValueError(f"{what} must be a JSON list, got {data!r}")
    return data


_TRIVIAL = GroupDescriptor.trivial()


def _instance_of(cls, what: str):
    def check(value, attr: str):
        if not isinstance(value, cls):
            raise ValueError(f"{attr} must be {what}, got {value!r}")
        return value

    return check


def _check_theory(value, attr: str):
    from .abelian_coulomb import TorusTheory  # abelian_coulomb imports this module

    return _instance_of(TorusTheory, "a torus theory")(value, attr)


def _theory_from_json(doc, key: str):
    from .abelian_coulomb import TorusTheory

    return TorusTheory.from_json(doc)


def _check_factors(factors: tuple, attr: str) -> tuple:
    if not all(isinstance(f, SpaceDescriptor) for f in factors):
        raise ValueError(f"{attr} must be spaces, got {factors!r}")
    return factors


def _check_pair(value, attr: str) -> tuple:
    pair = strict_int_tuple(value, attr)
    if len(pair) != 2:
        raise ValueError(f"{attr} must be two integers, got {value!r}")
    if min(pair) < 0:
        raise ValueError("rep dimensions must be nonnegative")
    return pair


def _at_least(floor: int, message: str):
    def check(value, attr: str) -> int:
        if strict_int(value, attr) < floor:
            raise ValueError(message)
        return value

    return check


# A payload field of a descriptor kind: its slot; its key in the kind's JSON
# document, also the public constructor's parameter; whether a document may
# leave it out; check(value, attr), which __init__ applies to a value other
# than None and which returns the value kept; encode(value); decode(json, key).
_Field = namedtuple("_Field", "attr key optional check encode decode")


def _int_field(attr: str, key: str, check=strict_int) -> _Field:
    return _Field(attr, key, False, check, int, strict_int)


_GROUP = _Field("group", "group", False, _instance_of(GroupDescriptor, "a group"),
                GroupDescriptor.to_json, lambda doc, key: GroupDescriptor.from_json(doc))
_PARTITION = _Field("partition", "partition", False, _instance_of(Partition, "a partition"),
                    lambda lam: list(lam.parts), lambda parts, key: Partition(strict_ints(parts, key)))
_THEORY = _Field("theory", "theory", False, _check_theory, lambda t: t.to_json(), _theory_from_json)
_INDEX = _int_field("index", "index", _at_least(1, "type A index must be at least 1"))
_RANK = _int_field("size", "rank", _at_least(0, "torus rank must be nonnegative"))
_REP_DIMS = _Field("rep_dims", "dims", True, _check_pair, list, strict_ints)
_FACTORS = _Field("factors", "factors", False, _check_factors, lambda fs: [f.to_json() for f in fs],
                  lambda docs, key: tuple(SpaceDescriptor.from_json(doc) for doc in _list(docs, key)))


class SpaceDescriptor(Value):
    """Tagged record of a Hamiltonian space supporting composition and duals.

    ``left_group`` / ``right_group`` record the two-sided action (either may
    be trivial); ``group`` is the carrier group of kinds that contain a group
    factor. ``dim`` is the complex dimension, expected dimension only when
    ``possibly_singular`` is set. It is derived from the kind and payload;
    only a ``reduced`` space states its own.
    """

    # Per kind: the public constructor that rebuilds it from its document, its
    # payload fields, and its dimension as a rule on the built descriptor; every
    # kind also carries dim, left_group, right_group and the FLAGS. __init__,
    # _payload, to_json and from_json read a kind's payload here only, and
    # __init__ computes every dimension here only: reduced has no rule, its dim
    # being its one payload field. An orbit closure's partition is one of n, and
    # its group gl(n), filled in where a document leaves it out; a
    # cotangent_of_rep has exactly one of dims / theory; T*G and G x Slice
    # have a gl group, and the slice type is a partition of its size.
    KINDS = {
        "point": ("point", (), lambda m: 0),
        "cotangent_of_rep": (
            "cotangent_of_rep",
            (_REP_DIMS, _THEORY._replace(optional=True)),
            lambda m: 2 * (
                m.rep_dims[0] * m.rep_dims[1] if m.theory is None
                else len(m.theory.linear_weights + m.theory.multiplicative_weights)
            ),
        ),
        "cotangent_of_group": ("cotangent_of_group", (_GROUP,), lambda m: 2 * m.group.dim),
        "group_times_slice": (
            "group_times_slice",
            (_GROUP, _PARTITION),
            lambda m: m.group.dim + centralizer_dim(m.partition),
        ),
        "orbit_closure": (
            "orbit_closure",
            (_GROUP._replace(optional=True), _PARTITION, _int_field("size", "n")),
            lambda m: orbit_dim(m.partition),
        ),
        "type_A_singularity": ("type_a_singularity", (_INDEX,), lambda m: 2),
        "torus_cotangent": ("torus_cotangent", (_RANK,), lambda m: 2 * m.size),
        "product": ("product_space", (_FACTORS,), lambda m: sum(f.dim for f in m.factors)),
        "coulomb_branch": ("coulomb_branch", (_THEORY,), lambda m: 2 * m.theory.rank),
        "reduced": ("reduced", (_int_field("dim", "dim"),), None),
    }
    FLAGS = ("conjecture", "possibly_singular")
    PAYLOAD = ("group", "partition", "size", "index", "rep_dims", "theory", "factors")

    __slots__ = ("kind", "dim", "left_group", "right_group", *PAYLOAD, *FLAGS)

    def __init__(
        self,
        kind: str,
        dim: int | None = None,
        left_group: GroupDescriptor = _TRIVIAL,
        right_group: GroupDescriptor = _TRIVIAL,
        group: GroupDescriptor | None = None,
        partition: Partition | None = None,
        size: int | None = None,
        index: int | None = None,
        rep_dims: tuple[int, ...] | None = None,
        theory=None,
        factors: tuple = (),
        conjecture: bool = False,
        possibly_singular: bool = False,
    ):
        if kind not in self.KINDS:
            raise ValueError(f"unknown space kind {kind!r}")
        self.kind = kind
        fields, rule = self.KINDS[kind][1:]
        if dim is not None or rule is None:  # every kind may state its dim, reduced must
            strict_int(dim, "dimension")
        for side, value in (("left_group", left_group), ("right_group", right_group)):
            if not isinstance(value, GroupDescriptor):
                raise ValueError(f"{side} must be a group, got {value!r}")
        self.left_group = left_group
        self.right_group = right_group
        payload = dict(
            zip(self.PAYLOAD, (group, partition, size, index, rep_dims, theory, tuple(factors)))
        )
        lacks = payload.copy()  # the slots outside the kind's fields, once these are popped
        for attr, _, optional, check, _, _ in fields:
            value = lacks.pop(attr, None)
            if value is not None:
                payload[attr] = check(value, attr)
            elif not optional and attr in payload:  # reduced's field dim is no PAYLOAD slot
                raise ValueError(f"a {kind} space requires {attr}")
        for attr, value in lacks.items():
            if value not in (None, ()):
                raise ValueError(f"a {kind} space has no {attr}, got {value!r}")
        if kind == "orbit_closure":
            if partition.n != size:
                raise ValueError(f"{partition} is not a partition of {size}")
            payload["group"] = gl = GroupDescriptor.gl(size)
            if group not in (None, gl):
                raise ValueError(f"the orbit closure of {partition} has group GL({size}), not {group}")
        elif kind == "cotangent_of_rep" and (rep_dims is None) == (theory is None):
            raise ValueError("exactly one of dims / theory is required")
        elif kind in ("cotangent_of_group", "group_times_slice"):
            if group.kind != "gl":
                raise ValueError(f"a {kind} space has a gl group, not {group}")
            if partition is not None and partition.n != group.size:
                raise ValueError(f"slice type {partition} is not a partition of {group.size}")
        self.group, self.partition, self.size, self.index, self.rep_dims, self.theory, self.factors = (
            payload.values()
        )
        for flag, value in zip(self.FLAGS, (conjecture, possibly_singular)):
            if type(value) is not bool:
                raise ValueError(f"{flag} must be true or false, got {value!r}")
        self.conjecture = conjecture
        self.possibly_singular = possibly_singular
        self.dim = dim if rule is None else rule(self)
        if dim not in (None, self.dim):
            raise ValueError(f"stated dim {dim!r} differs from dim {self.dim} of this {kind}")

    # ---- constructors -------------------------------------------------

    @classmethod
    def point(
        cls, left_group: GroupDescriptor = _TRIVIAL, right_group: GroupDescriptor = _TRIVIAL
    ) -> "SpaceDescriptor":
        return cls("point", left_group=left_group, right_group=right_group)

    @classmethod
    def torus_cotangent(
        cls,
        rank: int,
        left_group: GroupDescriptor | None = None,
        right_group: GroupDescriptor = _TRIVIAL,
    ) -> "SpaceDescriptor":
        torus = GroupDescriptor.torus(rank)  # checks the rank, with or without a left group
        left = left_group if left_group is not None else torus
        if rank == 0:
            return cls.point(left, right_group=right_group)
        return cls("torus_cotangent", left_group=left, right_group=right_group, size=rank)

    @classmethod
    def cotangent_of_group(
        cls,
        group: GroupDescriptor,
        left_group: GroupDescriptor | None = None,
        right_group: GroupDescriptor = _TRIVIAL,
    ) -> "SpaceDescriptor":
        if group.kind == "torus":
            return cls.torus_cotangent(group.size, left_group=left_group, right_group=right_group)
        if group.kind != "gl":
            raise ValueError("cotangent_of_group supports torus and gl groups")
        left = left_group if left_group is not None else group
        return cls("cotangent_of_group", left_group=left, right_group=right_group, group=group)

    @classmethod
    def group_times_slice(
        cls,
        group: GroupDescriptor,
        partition,
        left_group: GroupDescriptor | None = None,
        right_group: GroupDescriptor = _TRIVIAL,
    ) -> "SpaceDescriptor":
        if group.kind == "torus":
            # The principal slice of a torus is its whole Lie algebra.
            return cls.torus_cotangent(group.size, left_group=left_group, right_group=right_group)
        if group.kind != "gl":
            raise ValueError("group_times_slice supports torus and gl groups")
        lam = partition if isinstance(partition, Partition) else Partition(partition)
        left = left_group if left_group is not None else group
        if (left.is_trivial or right_group.is_trivial) and len(lam) == group.size and lam.parts[0] == 1:
            # The slice through the zero nilpotent, of type 1^n, is all of gl_n.
            return cls.cotangent_of_group(group, left_group=left, right_group=right_group)
        return cls(  # which checks that lam is a partition of n
            "group_times_slice", left_group=left, right_group=right_group, group=group, partition=lam
        )

    @classmethod
    def orbit_closure(
        cls,
        n: int,
        partition,
        left_group: GroupDescriptor | None = None,
        right_group: GroupDescriptor = _TRIVIAL,
        group: GroupDescriptor | None = None,
    ) -> "SpaceDescriptor":
        """The closure of the orbit of Jordan type ``partition`` in gl(n); ``group``,
        if given, must be gl(n), checked even where the closure is the point."""
        lam = partition if isinstance(partition, Partition) else Partition(partition)
        left = left_group if left_group is not None else GroupDescriptor.gl(lam.n)
        closure = cls(  # built for the point too, which checks its partition and group
            "orbit_closure", left_group=left, right_group=right_group, group=group, partition=lam, size=n
        )
        return cls.point(left, right_group=right_group) if len(lam) == n else closure

    @classmethod
    def type_a_singularity(
        cls,
        index: int,
        left_group: GroupDescriptor = _TRIVIAL,
        right_group: GroupDescriptor = _TRIVIAL,
    ) -> "SpaceDescriptor":
        return cls("type_A_singularity", left_group=left_group, right_group=right_group, index=index)

    @classmethod
    def cotangent_of_rep(
        cls,
        dims: tuple[int, int] | None = None,
        theory=None,
        left_group: GroupDescriptor | None = None,
        right_group: GroupDescriptor | None = None,
    ) -> "SpaceDescriptor":
        if (dims is None) == (theory is None):
            raise ValueError("exactly one of dims / theory is required")
        if theory is not None:
            left = left_group if left_group is not None else GroupDescriptor.torus(theory.rank)
            right = right_group if right_group is not None else _TRIVIAL
            return cls("cotangent_of_rep", left_group=left, right_group=right, theory=theory)
        vi, vj = strict_int_tuple(dims, "rep dimension")
        if vi < 0 or vj < 0:
            raise ValueError("rep dimensions must be nonnegative")
        left = left_group if left_group is not None else GroupDescriptor.gl(vi)
        right = right_group if right_group is not None else GroupDescriptor.gl(vj)
        if vi * vj == 0:
            return cls.point(left, right_group=right)
        return cls("cotangent_of_rep", left_group=left, right_group=right, rep_dims=(vi, vj))

    @classmethod
    def coulomb_branch(
        cls,
        theory,
        left_group: GroupDescriptor | None = None,
        right_group: GroupDescriptor = _TRIVIAL,
    ) -> "SpaceDescriptor":
        left = left_group if left_group is not None else GroupDescriptor.torus(theory.rank)
        return cls("coulomb_branch", left_group=left, right_group=right_group, theory=theory)

    @classmethod
    def product_space(
        cls,
        factors,
        left_group: GroupDescriptor = _TRIVIAL,
        right_group: GroupDescriptor = _TRIVIAL,
    ) -> "SpaceDescriptor":
        return cls("product", left_group=left_group, right_group=right_group, factors=factors)

    @classmethod
    def reduced(
        cls, dim: int, left_group: GroupDescriptor = _TRIVIAL, right_group: GroupDescriptor = _TRIVIAL
    ) -> "SpaceDescriptor":
        return cls("reduced", dim, left_group=left_group, right_group=right_group)

    @classmethod
    def m_circle(cls, vi: int, vj: int) -> "SpaceDescriptor":
        """The two-sided space T*Hom(C^vi, C^vj)."""
        return cls.cotangent_of_rep(dims=(vi, vj))

    @classmethod
    def m_cross(cls, vi: int, vj: int) -> "SpaceDescriptor":
        """The two-sided slice-type building block attached to (vi, vj).

        For vi != vj it is GL(max) times the slice of hook type
        (|vi-vj|, 1^min); for vi = vj = v it is T*(GL(v) x C^v).
        """
        left, right = GroupDescriptor.gl(vi), GroupDescriptor.gl(vj)
        if vi == vj:
            if vi == 0:
                return cls.point(left, right_group=right)
            return cls.product_space(
                (cls.cotangent_of_group(GroupDescriptor.gl(vi)), cls.cotangent_of_rep(dims=(1, vi))),
                left_group=left,
                right_group=right,
            )
        carrier = GroupDescriptor.gl(max(vi, vj))
        lam = hook(abs(vi - vj), min(vi, vj))
        return cls.group_times_slice(carrier, lam, left_group=left, right_group=right)

    # ---- value semantics ----------------------------------------------

    def _payload(self) -> tuple:
        return tuple(getattr(self, field.attr) for field in self.KINDS[self.kind][1])

    # ---- rendering -----------------------------------------------------

    def _base_text(self) -> str:
        if self.kind == "point":
            return "point"
        if self.kind == "torus_cotangent":
            return "T*(C^x)" if self.size == 1 else f"T*(C^x)^{self.size}"
        if self.kind == "cotangent_of_group":
            return f"T*{self.group}"
        if self.kind == "group_times_slice":
            return f"{self.group} x Slice{self.partition}"
        if self.kind == "orbit_closure":
            return orbit_closure_text(self.partition)
        if self.kind == "type_A_singularity":
            return f"A_{self.index} singularity"
        if self.kind == "cotangent_of_rep":
            if self.rep_dims is not None:
                vi, vj = self.rep_dims
                return f"T*Hom(C^{vi},C^{vj})"
            return f"T*N({self.theory.describe()})"
        if self.kind == "coulomb_branch":
            return f"CoulombBranch({self.theory.describe()})"
        if self.kind == "product":
            return " x ".join(f._base_text() for f in self.factors)
        return f"Reduced({self.left_group} | {self.right_group})"

    def __str__(self) -> str:
        out = f"{self._base_text()}  (dim {self.dim})"
        if self.conjecture:
            out += " [conjectural]"
        if self.possibly_singular:
            out += " [possibly singular]"
        return out

    # ---- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        data: dict = {
            "kind": self.kind,
            "dim": self.dim,
            "left_group": self.left_group.to_json(),
            "right_group": self.right_group.to_json(),
        }
        for field in self.KINDS[self.kind][1]:
            value = getattr(self, field.attr)
            if value is not None:
                data[field.key] = field.encode(value)
        for flag in self.FLAGS:
            if getattr(self, flag):
                data[flag] = True
        return data

    @classmethod
    def from_json(cls, data: dict) -> "SpaceDescriptor":
        kind = _kind(data, "space", cls.KINDS)
        constructor, fields, _ = cls.KINDS[kind]
        required = ["kind"] + [f.key for f in fields if not f.optional]
        common = ["dim", "left_group", "right_group", *cls.FLAGS]
        strict_object(data, kind, required, [f.key for f in fields] + common)
        args = {f.key: f.decode(data[f.key], f.key) for f in fields if f.key in data}
        for side in ("left_group", "right_group"):
            if side in data:
                args[side] = GroupDescriptor.from_json(data[side])
        # No constructor reads a flag, so every kind takes them as written.
        flags = {flag: data.get(flag, False) for flag in cls.FLAGS}
        built = _rebuilt(getattr(cls, constructor)(**args), **flags)
        if "dim" in data and strict_int(data["dim"], "dim") != built.dim:
            raise ValueError(
                f"stated dim {data['dim']!r} differs from dim {built.dim} of this {kind}"
            )
        return built


def _rebuilt(m: SpaceDescriptor, **changes) -> SpaceDescriptor:
    """``m`` built anew through ``SpaceDescriptor.__init__``, with ``changes`` to its fields."""
    return SpaceDescriptor(**dict(zip(m.__slots__, m._slot_values(m)), **changes))


def orbit_closure_text(lam: Partition) -> str:
    """Name of the closure of the nilpotent orbit of Jordan type lam in gl(|lam|)."""
    return f"OrbitClosure{lam} in gl({lam.n})"


def compose(m12: SpaceDescriptor, m23: SpaceDescriptor, g2: GroupDescriptor) -> SpaceDescriptor:
    """Symplectic-reduction bookkeeping for m12 o m23 over the middle group.

    The output dimension is dim m12 + dim m23 - 2 dim g2, an expected
    dimension only, since the middle action need not be free; the result is
    flagged possibly singular.
    """
    if not (m12.right_group == g2 == m23.left_group):
        raise ValueError(
            f"middle group {g2} does not match {m12.right_group} / {m23.left_group}"
        )
    if g2.is_trivial and m23.kind == "point" and m23.right_group.is_trivial:
        return m12
    if g2.is_trivial and m12.kind == "point" and m12.left_group.is_trivial:
        return m23
    dim = m12.dim + m23.dim - 2 * g2.dim
    reduced = SpaceDescriptor.reduced(dim, m12.left_group, m23.right_group)
    return _rebuilt(reduced, possibly_singular=True)


def _is_m_cross(m: SpaceDescriptor) -> tuple[int, int] | None:
    """(vi, vj) if m is the block m_cross(vi, vj) between its actions, gl(vi)
    and gl(vj) (gl(0) is the trivial group), flags aside; else None."""
    left, right = m.left_group, m.right_group
    if not all(g.kind == "gl" or g.is_trivial for g in (left, right)):
        return None
    block = SpaceDescriptor.m_cross(left.size, right.size)
    if (m.kind, m._payload()) != (block.kind, block._payload()):
        return None
    return left.size, right.size


def sdual_pair(m: SpaceDescriptor) -> SpaceDescriptor:
    """Table-driven S-dual of a descriptor.

    The dual group of each acting group is identified with the group itself,
    so the dual is acted on by the same left and right groups as ``m``; an
    entry whose dual does not keep them raises UnsupportedInputError, as do kinds
    outside the table. Entries derived from the slice/cotangent exchange
    conjecture carry ``conjecture=True``.
    """
    dual = _table_entry(m)
    if (dual.left_group, dual.right_group) != (m.left_group, m.right_group):
        raise UnsupportedInputError(
            f"no dual of this {m.kind} keeps its acting groups {m.left_group} | {m.right_group}"
        )
    return dual


def _table_entry(m: SpaceDescriptor) -> SpaceDescriptor:
    """The dual-pair table entry of m's kind, which sdual_pair checks.

    A space acted on from the right only is dualized as the mirror of its
    left-sided image; every entry below is written for the left side, under
    each constructor's default left group (its carrier), the right trivial.
    """
    if m.left_group.is_trivial and not m.right_group.is_trivial:
        dual = _table_entry(_rebuilt(m, left_group=m.right_group, right_group=m.left_group))
        return _rebuilt(dual, left_group=dual.right_group, right_group=dual.left_group)
    if m.kind == "cotangent_of_rep":
        if m.theory is None:
            return _rebuilt(SpaceDescriptor.m_cross(*m.rep_dims), conjecture=True)
        from .abelian_coulomb import sdual_torus

        return sdual_torus(m.theory)
    if m.kind == "product" or (m.kind == "group_times_slice" and not m.right_group.is_trivial):
        # A brane block, acted on from both sides (a right action here has a
        # left one beside it).
        pair = _is_m_cross(m)
        if pair is not None:
            return _rebuilt(SpaceDescriptor.m_circle(*pair), conjecture=True)
        if m.kind == "product":
            raise UnsupportedInputError("product descriptor is not a recognized building block")
        raise UnsupportedInputError("two-sided slice block not of hook shape")
    if m.kind == "point":
        g = m.left_group
        if g.kind == "product":
            raise UnsupportedInputError(f"no dual rule for a point under {g}")
        # G times its principal slice, which for a torus is T*(C^x)^r.
        return SpaceDescriptor.group_times_slice(g, Partition((g.size,)))
    if m.kind == "torus_cotangent":
        return SpaceDescriptor.point(GroupDescriptor.torus(m.size))
    if m.kind == "cotangent_of_group":
        return SpaceDescriptor.orbit_closure(m.group.size, (m.group.size,))
    if m.kind == "group_times_slice":
        return SpaceDescriptor.orbit_closure(m.group.size, transpose(m.partition))
    if m.kind == "orbit_closure":
        return SpaceDescriptor.group_times_slice(m.group, transpose(m.partition))
    raise UnsupportedInputError(f"kind {m.kind!r} has no dual-pair entry")


KostantCheck = namedtuple("KostantCheck", "lhs_dim rhs_dim passed")


def coulomb_dim(m: SpaceDescriptor, g: GroupDescriptor) -> int:
    """Coulomb-branch dimension of the gauge theory (g, m), where known.

    Known cases: trivial matter (2 * rank), the cotangent of the group
    itself (0), and torus theories (twice the effective rank).
    """
    if m.kind == "point":
        return 2 * g.rank
    if m.kind == "cotangent_of_group" and m.group == g:
        return 0
    if m.kind == "torus_cotangent" and g == GroupDescriptor.torus(m.size):
        return 0
    if m.kind == "cotangent_of_rep" and m.theory is not None:
        if g != GroupDescriptor.torus(m.theory.rank):
            raise UnsupportedInputError(f"theory rank does not match {g}")
        from .abelian_coulomb import reduce_multiplicative

        reduced, _ = reduce_multiplicative(m.theory)
        return 2 * reduced.rank
    raise UnsupportedInputError(f"no Coulomb dimension rule for kind {m.kind!r}")


def kostant_reduction_check(m: SpaceDescriptor, g: GroupDescriptor) -> KostantCheck:
    """Dimension identity relating a Coulomb branch to its dual matter space.

    Reducing the dual against the principal slice costs 2 dim g and adds
    dim g + rank g, so the Coulomb dimension must equal
    dim(dual) - dim g + rank g.
    """
    lhs = coulomb_dim(m, g)
    dual = sdual_pair(m)
    rhs = dual.dim + (g.dim + g.rank) - 2 * g.dim
    return KostantCheck(lhs, rhs, lhs == rhs)


def hyperspherical_deficit(m: SpaceDescriptor, g: GroupDescriptor) -> int:
    """Expected dimension of (m x NilpotentCone(g)) reduced by g.

    A nonpositive value is necessary (not sufficient) for the finiteness
    heuristic; this never decides finiteness by itself.
    """
    return m.dim + (g.dim - g.rank) - 2 * g.dim
