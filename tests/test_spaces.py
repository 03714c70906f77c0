import itertools
import json
import random
import re

import pytest

from sdualkit.abelian_coulomb import TorusTheory
from sdualkit.brane import BraneDiagram, expected_space
from sdualkit.exactalg import UnsupportedInputError
from sdualkit.partitions import Partition, partitions_of, transpose
from sdualkit.spaces import (
    GroupDescriptor,
    SpaceDescriptor,
    compose,
    coulomb_dim,
    hyperspherical_deficit,
    kostant_reduction_check,
    sdual_pair,
)


class TestGroupDescriptor:
    def test_dims_and_ranks(self):
        assert GroupDescriptor.torus(3).dim == 3
        assert GroupDescriptor.torus(3).rank == 3
        assert GroupDescriptor.gl(3).dim == 9
        assert GroupDescriptor.gl(3).rank == 3
        p = GroupDescriptor.product([GroupDescriptor.gl(2), GroupDescriptor.torus(1)])
        assert p.dim == 5 and p.rank == 3

    def test_trivial_and_normalization(self):
        assert GroupDescriptor.trivial().is_trivial
        assert GroupDescriptor.gl(0) == GroupDescriptor.torus(0) == GroupDescriptor.trivial()
        assert GroupDescriptor.product([]) == GroupDescriptor.trivial()
        assert GroupDescriptor.product([GroupDescriptor.gl(2)]) == GroupDescriptor.gl(2)
        gl1, gl2, t1 = GroupDescriptor.gl(1), GroupDescriptor.gl(2), GroupDescriptor.torus(1)
        nested = GroupDescriptor.product([GroupDescriptor.product([gl1, gl2]), t1])
        assert nested.factors == (gl1, gl2, t1)

    def test_the_raw_constructor_checks_kind_and_size(self):
        with pytest.raises(ValueError, match="unknown group kind 'banana'"):
            GroupDescriptor("banana", 2)
        with pytest.raises(ValueError, match="torus rank must be nonnegative"):
            GroupDescriptor("torus", -1)
        with pytest.raises(ValueError, match="gl size must be nonnegative"):
            GroupDescriptor("gl", -1)
        assert GroupDescriptor("gl", 0) == GroupDescriptor.trivial()

    def test_the_raw_constructor_gives_the_flat_form(self):
        t1, gl2, gl3 = GroupDescriptor.torus(1), GroupDescriptor.gl(2), GroupDescriptor.gl(3)
        nested = GroupDescriptor("product", 0, (GroupDescriptor("product", 0, (t1, gl2)), gl3))
        for raw, canonical in (
            (GroupDescriptor("product"), GroupDescriptor.trivial()),
            (GroupDescriptor("product", 0, (GroupDescriptor.trivial(),)), GroupDescriptor.trivial()),
            (GroupDescriptor("product", 0, (t1,)), t1),
            (GroupDescriptor("product", 0, (gl2, GroupDescriptor.gl(0))), gl2),
            (nested, GroupDescriptor.product([t1, gl2, gl3])),
        ):
            assert raw == canonical
            assert str(raw) == str(canonical) and repr(raw) == repr(canonical)
        assert nested.factors == (t1, gl2, gl3)

    def test_the_raw_constructor_refuses_a_misplaced_size_or_factor(self):
        with pytest.raises(ValueError, match="a torus group has no factors"):
            GroupDescriptor("torus", 1, (GroupDescriptor.gl(2),))
        with pytest.raises(ValueError, match="a gl group has no factors"):
            GroupDescriptor("gl", 2, (GroupDescriptor.gl(2),))
        with pytest.raises(ValueError, match="a product group has no size, got 2"):
            GroupDescriptor("product", 2, (GroupDescriptor.gl(2),))
        with pytest.raises(ValueError, match="product factors must be groups"):
            GroupDescriptor("product", 0, (GroupDescriptor.gl(2), 3))
        with pytest.raises(ValueError, match="product factors must be groups"):
            GroupDescriptor.product([SpaceDescriptor.point()])

    def test_json_round_trip(self):
        for g in (
            GroupDescriptor.torus(2),
            GroupDescriptor.gl(3),
            GroupDescriptor.product([GroupDescriptor.gl(1), GroupDescriptor.gl(2)]),
        ):
            assert GroupDescriptor.from_json(json.loads(json.dumps(g.to_json()))) == g


def one_of_each_kind() -> list[SpaceDescriptor]:
    theory = TorusTheory(2, [[1, 0], [2, 1]])
    return [
        SpaceDescriptor.point(GroupDescriptor.gl(2)),
        SpaceDescriptor.cotangent_of_rep(dims=(2, 3)),
        SpaceDescriptor.cotangent_of_rep(theory=theory),
        SpaceDescriptor.cotangent_of_group(GroupDescriptor.gl(3)),
        SpaceDescriptor.group_times_slice(GroupDescriptor.gl(4), [2, 1, 1]),
        SpaceDescriptor.orbit_closure(4, [3, 1]),
        SpaceDescriptor.type_a_singularity(2),
        SpaceDescriptor.torus_cotangent(3),
        SpaceDescriptor.m_cross(2, 2),
        SpaceDescriptor.coulomb_branch(theory),
        SpaceDescriptor(
            "reduced", 6, GroupDescriptor.gl(1), GroupDescriptor.gl(2), possibly_singular=True
        ),
    ]


# Each kind's payload keys in its JSON document, (required, optional), written
# out rather than read from SpaceDescriptor: a round trip through the class's
# own table cannot see a key it writes and reads under the wrong name.
DOCUMENT_KEYS = {
    "point": ((), ()),
    "cotangent_of_rep": ((), ("dims", "theory")),
    "cotangent_of_group": (("group",), ()),
    "group_times_slice": (("group", "partition"), ()),
    "orbit_closure": (("partition", "n"), ("group",)),
    "type_A_singularity": (("index",), ()),
    "torus_cotangent": (("rank",), ()),
    "product": (("factors",), ()),
    "coulomb_branch": (("theory",), ()),
    "reduced": (("dim",), ()),
}
COMMON_KEYS = {"kind", "dim", "left_group", "right_group"}


class TestDocumentSchema:
    @pytest.mark.parametrize("d", one_of_each_kind(), ids=lambda d: d.kind)
    def test_each_kind_writes_and_reads_exactly_its_keys(self, d):
        required, optional = DOCUMENT_KEYS[d.kind]
        doc = json.loads(json.dumps(d.to_json()))
        flags = {flag for flag in SpaceDescriptor.FLAGS if getattr(d, flag)}
        written = set(doc) - COMMON_KEYS - flags
        # orbit_closure writes its group, cotangent_of_rep one of dims / theory
        assert len(written & set(optional)) == min(len(optional), 1)
        assert written == set(required) - COMMON_KEYS | (written & set(optional))
        assert COMMON_KEYS <= set(doc)
        for key in required:
            with pytest.raises(ValueError, match=f"^{d.kind} document requires '{key}'$"):
                SpaceDescriptor.from_json({k: v for k, v in doc.items() if k != key})
        with pytest.raises(ValueError, match=re.escape(f"unknown keys ['extra'] in {d.kind} document")):
            SpaceDescriptor.from_json({**doc, "extra": 1})
        # the cotangent_of_rep samples carry only dims or only theory
        assert SpaceDescriptor.from_json(doc) == d
        if d.kind == "orbit_closure":
            assert SpaceDescriptor.from_json({k: v for k, v in doc.items() if k != "group"}) == d


class TestDescriptorConstruction:
    @pytest.mark.parametrize("flag", SpaceDescriptor.FLAGS)
    @pytest.mark.parametrize("bad", ["no", 1, 0, None])
    def test_the_raw_constructor_takes_only_bool_flags(self, flag, bad):
        with pytest.raises(ValueError, match=f"{flag} must be true or false, got {bad!r}"):
            SpaceDescriptor("point", 0, **{flag: bad})

    @pytest.mark.parametrize("side", ["left_group", "right_group"])
    @pytest.mark.parametrize("bad", [5, None, "T(1)", SpaceDescriptor.point()])
    def test_the_raw_constructor_takes_only_groups(self, side, bad):
        with pytest.raises(ValueError, match=rf"{side} must be a group, got {re.escape(repr(bad))}"):
            SpaceDescriptor("point", 0, **{side: bad})

    def test_the_raw_constructor_refuses_a_slot_its_kind_lacks(self):
        with pytest.raises(ValueError, match="a point space has no partition, got 5"):
            SpaceDescriptor("point", 0, partition=5)
        with pytest.raises(ValueError, match="a torus_cotangent space has no index, got 7"):
            SpaceDescriptor("torus_cotangent", 2, size=1, index=7)
        assert SpaceDescriptor("point", 0, factors=[]) == SpaceDescriptor.point()
        payload = set(SpaceDescriptor.__slots__) - {"kind", "dim", "left_group", "right_group"}
        payload -= set(SpaceDescriptor.FLAGS)
        for d in one_of_each_kind():
            slots = dict(zip(SpaceDescriptor.__slots__, d._slot_values(d)))
            assert SpaceDescriptor(**slots) == d
            for slot in payload - {field.attr for field in SpaceDescriptor.KINDS[d.kind][1]}:
                with pytest.raises(ValueError, match=rf"a {d.kind} space has no {slot}, got \(1,\)"):
                    SpaceDescriptor(**{**slots, slot: (1,)})

    def test_the_raw_constructor_checks_the_slots_its_kind_has(self):
        with pytest.raises(ValueError, match="^stated dim 5 differs from dim 0 of this point$"):
            SpaceDescriptor("point", 5)
        with pytest.raises(ValueError, match="size must be an integer, got 'a'"):
            SpaceDescriptor("torus_cotangent", 2, size="a")
        with pytest.raises(ValueError, match=re.escape("partition must be a partition, got (2, 1)")):
            SpaceDescriptor("orbit_closure", 4, partition=(2, 1), size=3)
        with pytest.raises(ValueError, match="group must be a group, got 'GL'"):
            SpaceDescriptor("cotangent_of_group", 8, group="GL")
        with pytest.raises(ValueError, match="index must be an integer, got 1.0"):
            SpaceDescriptor("type_A_singularity", 2, index=1.0)
        with pytest.raises(ValueError, match="rep_dims must be an integer, got True"):
            SpaceDescriptor("cotangent_of_rep", 2, rep_dims=(1, True))
        for rep_dims in ((5,), (1, 2, 3)):  # unchecked, the dimension rule or str() would raise
            with pytest.raises(ValueError, match=re.escape(f"rep_dims must be two integers, got {rep_dims}")):
                SpaceDescriptor("cotangent_of_rep", rep_dims=rep_dims)
        built = SpaceDescriptor("cotangent_of_rep", 4, rep_dims=[1, 2], left_group=GroupDescriptor.gl(1),
                                right_group=GroupDescriptor.gl(2))
        assert built == SpaceDescriptor.cotangent_of_rep(dims=(1, 2))
        assert built.rep_dims == (1, 2)
        for d in one_of_each_kind():
            slots = dict(zip(SpaceDescriptor.__slots__, d._slot_values(d)))
            for slot in SpaceDescriptor.PAYLOAD:
                if slots[slot] not in (None, ()):
                    with pytest.raises(ValueError, match=f"^{slot} must be"):
                        SpaceDescriptor(**{**slots, slot: "x"})

    def test_the_raw_constructor_derives_the_dimension(self):
        # Unchecked, each would render its stated dim, and from_json refuse its own document.
        with pytest.raises(ValueError, match="^stated dim 5 differs from dim 2 of this type_A_singularity$"):
            SpaceDescriptor("type_A_singularity", 5, index=2)
        with pytest.raises(ValueError, match="^stated dim 7 differs from dim 10 of this orbit_closure$"):
            SpaceDescriptor("orbit_closure", 7, partition=Partition([3, 1]), size=4)
        with pytest.raises(ValueError, match="^dimension must be an integer, got 2.0$"):
            SpaceDescriptor("type_A_singularity", 2.0, index=2)
        with pytest.raises(ValueError, match="^dimension must be an integer, got None$"):
            SpaceDescriptor("reduced")  # the one kind that states its dim
        for d in one_of_each_kind():
            slots = dict(zip(SpaceDescriptor.__slots__, d._slot_values(d)))
            if d.kind != "reduced":
                del slots["dim"]
            assert SpaceDescriptor(**slots) == d

    def test_the_raw_constructor_checks_theory_and_factors(self):
        # Unchecked, both would build, and str() and to_json() would raise AttributeError.
        with pytest.raises(ValueError, match=re.escape("factors must be spaces, got (5,)")):
            SpaceDescriptor("product", 0, factors=(5,))
        with pytest.raises(ValueError, match="theory must be a torus theory, got 5"):
            SpaceDescriptor("coulomb_branch", 2, theory=5)
        with pytest.raises(ValueError, match="theory must be a torus theory, got 'T'"):
            SpaceDescriptor("cotangent_of_rep", 2, theory="T")
        with pytest.raises(ValueError, match="factors must be spaces, got"):
            SpaceDescriptor("product", 0, factors=(SpaceDescriptor.point(), GroupDescriptor.gl(1)))

    def test_the_raw_constructor_refuses_a_missing_required_slot(self):
        # Unrefused, a group_times_slice without its group renders as "None x SliceNone".
        with pytest.raises(ValueError, match="^a group_times_slice space requires group$"):
            SpaceDescriptor("group_times_slice", 4)
        required = {  # per kind, the slots its documents must carry (factors and dim are never None)
            "cotangent_of_group": ("group",),
            "group_times_slice": ("group", "partition"),
            "orbit_closure": ("partition", "size"),
            "type_A_singularity": ("index",),
            "torus_cotangent": ("size",),
            "coulomb_branch": ("theory",),
        }
        for d in one_of_each_kind():
            slots = dict(zip(SpaceDescriptor.__slots__, d._slot_values(d)))
            for slot in required.get(d.kind, ()):
                with pytest.raises(ValueError, match=f"^a {d.kind} space requires {slot}$"):
                    SpaceDescriptor(**{**slots, slot: None})
        # The slots a document may leave out may be None.
        oc = SpaceDescriptor.orbit_closure(4, [3, 1])
        assert SpaceDescriptor("orbit_closure", oc.dim, oc.left_group, partition=oc.partition, size=4) == oc
        theory = TorusTheory(1, [[1]])
        assert SpaceDescriptor("cotangent_of_rep", 2, theory=theory).rep_dims is None

    def test_the_raw_constructor_fills_in_or_refuses_an_orbit_closure_group(self):
        # Unfilled, the group would make sdual_pair raise AttributeError and a
        # document round trip fill in GL(4). Unchecked, a wrong group or
        # partition would build, and from_json refuse the descriptor's own document.
        built = SpaceDescriptor("orbit_closure", 10, partition=Partition([3, 1]), size=4)
        assert built.group == GroupDescriptor.gl(4)
        assert SpaceDescriptor.from_json(built.to_json()) == built
        with pytest.raises(UnsupportedInputError, match="no dual of this orbit_closure keeps its acting groups"):
            sdual_pair(built)  # its left group is trivial, not GL(4)
        acted_on = SpaceDescriptor("orbit_closure", 10, GroupDescriptor.gl(4), partition=Partition([3, 1]),
                                   size=4)
        assert sdual_pair(acted_on) == sdual_pair(SpaceDescriptor.orbit_closure(4, [3, 1]))
        with pytest.raises(ValueError, match=re.escape("the orbit closure of [3,1] has group GL(4), not GL(7)")):
            SpaceDescriptor("orbit_closure", 10, partition=Partition([3, 1]), size=4,
                            group=GroupDescriptor.gl(7))
        with pytest.raises(ValueError, match=re.escape("[2,1] is not a partition of 4")):
            SpaceDescriptor("orbit_closure", 4, partition=Partition([2, 1]), size=4)

    def test_the_raw_constructor_takes_exactly_one_of_rep_dims_and_theory(self):
        # Unrefused, neither would make str() raise AttributeError and sdual_pair TypeError.
        theory = TorusTheory(1, [[1]])
        for payload in ({}, {"rep_dims": (1, 1), "theory": theory}):
            with pytest.raises(ValueError, match="^exactly one of dims / theory is required$"):
                SpaceDescriptor("cotangent_of_rep", 2, **payload)

    @pytest.mark.parametrize("side", ["left_group", "right_group"])
    def test_a_document_group_is_read_as_before(self, side):
        doc = SpaceDescriptor.point().to_json()
        for bad, message in ((5, "group document must be a JSON object, got 5"),
                             ({"kind": "torus"}, "torus group document requires 'rank'")):
            with pytest.raises(ValueError, match=re.escape(message)):
                SpaceDescriptor.from_json({**doc, side: bad})
        doc[side] = GroupDescriptor.gl(2).to_json()
        assert getattr(SpaceDescriptor.from_json(doc), side) == GroupDescriptor.gl(2)

    def test_dimension_consistency(self):
        assert SpaceDescriptor.point(GroupDescriptor.gl(2)).dim == 0
        assert SpaceDescriptor.cotangent_of_group(GroupDescriptor.gl(3)).dim == 18
        assert SpaceDescriptor.group_times_slice(GroupDescriptor.gl(3), [2, 1]).dim == 14
        assert SpaceDescriptor.orbit_closure(3, [2, 1]).dim == 4
        assert SpaceDescriptor.torus_cotangent(2).dim == 4
        assert SpaceDescriptor.m_circle(2, 3).dim == 12
        with pytest.raises(ValueError):
            SpaceDescriptor.orbit_closure(3, [2, 2])
        # A negative rank would give a negative dimension, with or without a left group.
        with pytest.raises(ValueError, match="nonnegative"):
            SpaceDescriptor.torus_cotangent(-2, left_group=GroupDescriptor.torus(2))

    def test_unsupported_groups_and_kinds(self):
        gl2 = GroupDescriptor.gl(2)
        with pytest.raises(ValueError, match="supports torus and gl groups"):
            SpaceDescriptor.group_times_slice(GroupDescriptor.product([gl2, gl2]), [2, 2])
        with pytest.raises(ValueError, match="unknown space kind 'sphere'"):
            SpaceDescriptor("sphere", 0)

    def test_the_trivial_group_carries_the_point(self):
        gl0 = GroupDescriptor.gl(0)
        assert SpaceDescriptor.cotangent_of_group(gl0) == SpaceDescriptor.point()
        assert SpaceDescriptor.group_times_slice(gl0, ()) == SpaceDescriptor.point()

    def test_zero_slice_is_whole_group_cotangent(self):
        d = SpaceDescriptor.group_times_slice(GroupDescriptor.gl(3), [1, 1, 1])
        assert d.kind == "cotangent_of_group"
        assert d.dim == 18
        one = GroupDescriptor.trivial()
        for n in range(1, 5):
            g = GroupDescriptor.gl(n)
            for left, right in ((g, one), (one, g)):
                d = SpaceDescriptor.group_times_slice(g, [1] * n, left, right)
                assert d == SpaceDescriptor.cotangent_of_group(g, left, right)

    def test_zero_orbit_is_point(self):
        d = SpaceDescriptor.orbit_closure(3, [1, 1, 1])
        assert d.kind == "point"
        assert d.left_group == GroupDescriptor.gl(3)

    def test_torus_cotangent_of_group_canonicalized(self):
        d = SpaceDescriptor.cotangent_of_group(GroupDescriptor.torus(2))
        assert d.kind == "torus_cotangent"
        assert d.dim == 4

    def test_degenerate_rep_is_point(self):
        d = SpaceDescriptor.m_circle(0, 3)
        assert d.kind == "point"
        assert d.right_group == GroupDescriptor.gl(3)

    def test_json_round_trip(self):
        samples = [
            SpaceDescriptor.point(GroupDescriptor.gl(2)),
            SpaceDescriptor.cotangent_of_group(GroupDescriptor.gl(3)),
            SpaceDescriptor.group_times_slice(GroupDescriptor.gl(4), [2, 1, 1]),
            SpaceDescriptor.orbit_closure(4, [3, 1]),
            SpaceDescriptor.type_a_singularity(2),
            SpaceDescriptor.torus_cotangent(3),
            SpaceDescriptor.m_circle(2, 3),
            SpaceDescriptor.m_cross(3, 1),
            SpaceDescriptor.m_cross(2, 2),
            SpaceDescriptor.cotangent_of_rep(theory=TorusTheory(1, [[1], [1]])),
            SpaceDescriptor(
                "reduced", 6, GroupDescriptor.gl(1), GroupDescriptor.gl(2), possibly_singular=True
            ),
        ]
        for d in samples:
            assert SpaceDescriptor.from_json(json.loads(json.dumps(d.to_json()))) == d

    def test_json_round_trip_every_kind(self):
        for conjecture in (False, True):
            samples = one_of_each_kind()
            assert {d.kind for d in samples} == set(SpaceDescriptor.KINDS)
            for d in samples:
                d.conjecture = conjecture
                back = SpaceDescriptor.from_json(json.loads(json.dumps(d.to_json())))
                assert back == d
                assert all(getattr(back, s) == getattr(d, s) for s in SpaceDescriptor.__slots__)

    def test_dual_outputs_round_trip(self):
        from sdualkit.abelian_coulomb import sdual_torus
        from sdualkit.spaces import sdual_pair

        duals = [
            sdual_torus(TorusTheory(1, [[1]])),
            sdual_torus(TorusTheory(1, [[1]] * 3)),
            sdual_torus(TorusTheory(2, [[1, 0], [2, 1]])),
            sdual_pair(SpaceDescriptor.point(GroupDescriptor.gl(2))),
            sdual_pair(SpaceDescriptor.m_circle(1, 2)),
        ]
        for d in duals:
            assert SpaceDescriptor.from_json(json.loads(json.dumps(d.to_json()))) == d

    def test_text_rendering(self):
        d = SpaceDescriptor.group_times_slice(GroupDescriptor.gl(3), [2, 1])
        assert str(d) == "GL(3) x Slice[2,1]  (dim 14)"


class TestCompose:
    def test_flag_chain_dimension(self):
        acc = SpaceDescriptor.m_circle(0, 1)
        for i in range(1, 3):
            acc = compose(acc, SpaceDescriptor.m_circle(i, i + 1), GroupDescriptor.gl(i))
        assert acc.dim == 6

    def test_reduction_by_trivial_group_absorbs_point(self):
        m = SpaceDescriptor.m_circle(2, 3)
        m = SpaceDescriptor(
            "cotangent_of_rep",
            m.dim,
            left_group=m.left_group,
            right_group=GroupDescriptor.trivial(),
            rep_dims=m.rep_dims,
        )
        assert compose(m, SpaceDescriptor.point(), GroupDescriptor.trivial()) == m

    def test_group_mismatch(self):
        with pytest.raises(ValueError, match=r"middle group GL\(1\) does not match GL\(1\) / GL\(2\)"):
            compose(
                SpaceDescriptor.m_circle(0, 1),
                SpaceDescriptor.m_circle(2, 3),
                GroupDescriptor.gl(1),
            )

    def test_dim_associative(self):
        rng = random.Random(6)
        for _ in range(100):
            dims = [0] + [rng.randint(0, 4) for _ in range(3)]
            blocks = [SpaceDescriptor.m_circle(dims[i], dims[i + 1]) for i in range(3)]
            groups = [GroupDescriptor.gl(dims[1]), GroupDescriptor.gl(dims[2])]
            left = compose(compose(blocks[0], blocks[1], groups[0]), blocks[2], groups[1])
            right_inner = compose(blocks[1], blocks[2], groups[1])
            right = compose(
                blocks[0],
                SpaceDescriptor(
                    "reduced",
                    right_inner.dim,
                    left_group=groups[0],
                    right_group=right_inner.right_group,
                    possibly_singular=True,
                ),
                groups[0],
            )
            assert left.dim == right.dim

    def test_not_free_marked_possibly_singular(self):
        out = compose(SpaceDescriptor.m_circle(0, 2), SpaceDescriptor.m_circle(2, 2), GroupDescriptor.gl(2))
        assert out.possibly_singular
        assert str(out) == "Reduced(1 | GL(2))  (dim 0) [possibly singular]"


class TestDualPairTable:
    def test_point_to_principal_slice(self):
        dual = sdual_pair(SpaceDescriptor.point(GroupDescriptor.gl(2)))
        assert dual.kind == "group_times_slice"
        assert dual.partition == Partition([2])
        assert dual.dim == 6

    def test_cotangent_group_to_cone(self):
        dual = sdual_pair(SpaceDescriptor.cotangent_of_group(GroupDescriptor.gl(3)))
        assert dual.kind == "orbit_closure"
        assert dual.partition == Partition([3])
        assert dual.dim == 6

    def test_slice_to_transposed_orbit(self):
        dual = sdual_pair(SpaceDescriptor.group_times_slice(GroupDescriptor.gl(3), [2, 1]))
        assert dual == SpaceDescriptor.orbit_closure(3, [2, 1])

    def test_exhaustive_slice_orbit_family(self):
        for n in range(1, 8):
            g = GroupDescriptor.gl(n)
            for lam in partitions_of(n):
                m = SpaceDescriptor.group_times_slice(g, lam)
                dual = sdual_pair(m)
                assert dual == SpaceDescriptor.orbit_closure(n, transpose(lam))
                assert sdual_pair(dual) == m

    def test_torus_pair_involution(self):
        m = SpaceDescriptor.point(GroupDescriptor.torus(2))
        dual = sdual_pair(m)
        assert dual.kind == "torus_cotangent" and dual.dim == 4
        assert sdual_pair(dual) == m

    def test_building_block_exchange_is_conjectural(self):
        circle, cross = SpaceDescriptor.m_circle(1, 2), SpaceDescriptor.m_cross(1, 2)
        dual = sdual_pair(circle)
        assert (dual.kind, dual.dim, dual.conjecture) == (cross.kind, cross.dim, True)
        back = sdual_pair(dual)
        assert (back.kind, back.dim, back.conjecture) == (circle.kind, circle.dim, True)

    def test_block_exchange_all_small_ranks(self):
        # A block with a zero rank is one-sided, and its exchange is exact.
        for vi in range(4):
            for vj in range(4):
                circle = SpaceDescriptor.m_circle(vi, vj)
                cross = SpaceDescriptor.m_cross(vi, vj)
                for m, image in ((circle, cross), (cross, circle)):
                    dual = sdual_pair(m)
                    assert (dual.kind, dual.dim, dual.conjecture) == (image.kind, image.dim, vi * vj > 0)

    def test_torus_theory_routes_to_engine(self):
        m = SpaceDescriptor.cotangent_of_rep(theory=TorusTheory(1, [[1]] * 3))
        dual = sdual_pair(m)
        assert dual.kind == "type_A_singularity"
        assert dual.index == 2

    def test_unknown_kind_raises(self):
        with pytest.raises(UnsupportedInputError, match="kind 'type_A_singularity' has no dual-pair entry"):
            sdual_pair(SpaceDescriptor.type_a_singularity(2))
        with pytest.raises(UnsupportedInputError, match="kind 'reduced' has no dual-pair entry"):
            sdual_pair(SpaceDescriptor.reduced(4))

    def test_the_dual_keeps_the_acting_groups(self):
        gl2, gl3 = GroupDescriptor.gl(2), GroupDescriptor.gl(3)
        theory = TorusTheory(1, [[1], [1]])
        lost = [
            # a second action
            SpaceDescriptor.torus_cotangent(2, right_group=gl2),
            SpaceDescriptor.point(gl2, right_group=gl3),
            SpaceDescriptor.cotangent_of_rep(theory=theory, right_group=gl2),
            SpaceDescriptor.cotangent_of_rep(theory=theory, right_group=GroupDescriptor.torus(1)),
            SpaceDescriptor.cotangent_of_group(gl3, right_group=gl2),
            SpaceDescriptor.orbit_closure(3, [2, 1], right_group=gl2),
            # a left action other than the one the entry assumes
            SpaceDescriptor.torus_cotangent(2, left_group=gl3),
            SpaceDescriptor.cotangent_of_rep(theory=theory, left_group=gl2),
            SpaceDescriptor.orbit_closure(3, [2, 1], left_group=gl2),
            SpaceDescriptor.cotangent_of_group(gl3, left_group=gl2),
            SpaceDescriptor.group_times_slice(gl3, [2, 1], left_group=gl2),
        ]
        for m in lost:
            with pytest.raises(UnsupportedInputError, match="keeps its acting groups"):
                sdual_pair(m)
        # Each descriptor above under its own group on the left, and nothing on
        # the right, keeps its entry.
        for m in lost:
            doc = {k: v for k, v in m.to_json().items() if k not in ("left_group", "right_group")}
            m = SpaceDescriptor.from_json(doc)
            dual = sdual_pair(m)
            assert (dual.left_group, dual.right_group) == (m.left_group, m.right_group)

    def test_a_space_acted_on_from_one_side_dualizes_on_that_side_and_back(self):
        one = GroupDescriptor.trivial()
        tori = [GroupDescriptor.torus(r) for r in range(1, 4)]
        for g in tori + [GroupDescriptor.gl(n) for n in range(1, 5)]:
            for left, right in ((g, one), (one, g)):
                spaces = [SpaceDescriptor.point(left, right)]
                if g.kind == "torus":
                    spaces.append(SpaceDescriptor.torus_cotangent(g.size, left, right))
                else:
                    spaces.append(SpaceDescriptor.cotangent_of_group(g, left, right))
                    for lam in partitions_of(g.size):
                        spaces.append(SpaceDescriptor.group_times_slice(g, lam, left, right))
                        spaces.append(SpaceDescriptor.orbit_closure(g.size, lam, left, right))
                for m in spaces:
                    dual = sdual_pair(m)
                    assert (dual.left_group, dual.right_group) == (left, right), m
                    assert sdual_pair(dual) == m
                assert sdual_pair(spaces[0]).dim == g.dim + g.rank

    def test_a_theory_on_the_right_dualizes_as_the_mirror_of_its_left_entry(self):
        theories = [
            TorusTheory(1, [[w] for w in weights])
            for size in range(7)
            for weights in itertools.combinations_with_replacement(range(-3, 4), size)
        ]
        theories += [TorusTheory(1, [], [[mult]]) for mult in range(1, 4)]
        theories += [TorusTheory(2, [[1, 0], [2, 1]]), TorusTheory(2, [[1, 0], [0, 1]], [[1, -1]])]
        one = GroupDescriptor.trivial()
        for theory in theories:
            g = GroupDescriptor.torus(theory.rank)
            on_left = SpaceDescriptor.cotangent_of_rep(theory=theory, left_group=g, right_group=one)
            on_right = SpaceDescriptor.cotangent_of_rep(theory=theory, left_group=one, right_group=g)
            doc = sdual_pair(on_left).to_json()
            doc["left_group"], doc["right_group"] = doc["right_group"], doc["left_group"]
            assert sdual_pair(on_right) == SpaceDescriptor.from_json(doc), theory

    def test_a_two_sided_slice_block_needs_gl_sides(self):
        gl2 = GroupDescriptor.gl(2)
        m = SpaceDescriptor.group_times_slice(gl2, [2], GroupDescriptor.torus(1), gl2)
        with pytest.raises(UnsupportedInputError, match="two-sided slice block not of hook shape"):
            sdual_pair(m)

    def test_the_one_sided_blocks_dualize_alike_on_either_side(self):
        for n in range(1, 5):
            blocks = (SpaceDescriptor.m_cross(0, n), SpaceDescriptor.m_cross(n, 0))
            on_right, on_left = [(d.kind, d.dim, d.conjecture) for d in map(sdual_pair, blocks)]
            assert on_right == on_left


class TestKostant:
    def test_trivial_matter(self):
        for n in range(1, 7):
            g = GroupDescriptor.gl(n)
            check = kostant_reduction_check(SpaceDescriptor.point(g), g)
            assert check.passed
            assert check.lhs_dim == 2 * n

    def test_group_cotangent_matter(self):
        for n in range(1, 7):
            g = GroupDescriptor.gl(n)
            check = kostant_reduction_check(SpaceDescriptor.cotangent_of_group(g), g)
            assert check.passed
            assert check.lhs_dim == 0

    def test_torus_cases(self):
        for r in range(1, 5):
            g = GroupDescriptor.torus(r)
            assert kostant_reduction_check(SpaceDescriptor.point(g), g).passed
            assert kostant_reduction_check(SpaceDescriptor.cotangent_of_group(g), g).passed

    def test_weight_one_hypermultiplet(self):
        g = GroupDescriptor.torus(1)
        m = SpaceDescriptor.cotangent_of_rep(theory=TorusTheory(1, [[1]]))
        check = kostant_reduction_check(m, g)
        assert check == (2, 2, True)

    def test_unknown_coulomb_dimension(self):
        g = GroupDescriptor.gl(2)
        with pytest.raises(UnsupportedInputError, match="no Coulomb dimension rule for kind 'orbit_closure'"):
            coulomb_dim(SpaceDescriptor.orbit_closure(2, [2]), g)
        m = SpaceDescriptor.cotangent_of_rep(theory=TorusTheory(1, [[1]]))
        with pytest.raises(UnsupportedInputError, match="theory rank does not match T\\(2\\)"):
            coulomb_dim(m, GroupDescriptor.torus(2))


class TestHypersphericalDeficit:
    def test_weight_one(self):
        g = GroupDescriptor.torus(1)
        m = SpaceDescriptor.cotangent_of_rep(theory=TorusTheory(1, [[1]]))
        assert hyperspherical_deficit(m, g) == 0

    def test_group_cotangent(self):
        for n in range(1, 5):
            g = GroupDescriptor.gl(n)
            assert hyperspherical_deficit(SpaceDescriptor.cotangent_of_group(g), g) == n * n - n

    def test_trivial_matter(self):
        g = GroupDescriptor.torus(1)
        assert hyperspherical_deficit(SpaceDescriptor.point(g), g) == -2
        g3 = GroupDescriptor.gl(3)
        assert hyperspherical_deficit(SpaceDescriptor.point(g3), g3) == -(9 + 3)


class TestDualityComposeShadow:
    def test_staircase_chain_dimensions(self):
        rng = random.Random(4)
        checked = 0
        for _ in range(60):
            steps = rng.randint(1, 5)
            deltas = sorted((rng.randint(0, 3) for _ in range(steps)), reverse=True)
            dims = [0]
            for delta in reversed(deltas):
                dims.append(dims[-1] + delta)
            if dims[-1] == 0 or dims[-1] > 8:
                continue
            chain = BraneDiagram(["o"] * steps, dims)
            lhs = sdual_pair(expected_space(chain))
            acc = SpaceDescriptor.m_cross(dims[0], dims[1])
            for i in range(1, steps):
                acc = compose(
                    acc, SpaceDescriptor.m_cross(dims[i], dims[i + 1]), GroupDescriptor.gl(dims[i])
                )
            assert lhs.dim == acc.dim
            checked += 1
        assert checked > 20
