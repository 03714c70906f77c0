"""The one equality, hash and repr rule of the value types, a guard that keeps
it the only one, and the one integer check of their constructors."""

import ast
import pathlib

import pytest

import sdualkit
from sdualkit import (
    BraneDiagram,
    CoulombElement,
    GroupDescriptor,
    LinearForm,
    LinkingData,
    Partition,
    Polynomial,
    QuiverData,
    RingPresentation,
    SpaceDescriptor,
    TorusTheory,
    chain_to_orbit,
    eval_product,
    hook,
    hw_move,
    partitions_of,
    present_rank1,
    rank_profile,
    structure_constant_table,
)
from sdualkit.abelian_coulomb import annihilating_cochars, cochar_box
from sdualkit.exactalg import Value

# One factory per value class; each call builds a fresh, equal value.
FACTORIES = {
    LinearForm: lambda: LinearForm((2, 1)),
    Polynomial: lambda: Polynomial(2, {(1, 0): 3, (0, 2): -1}),
    Partition: lambda: Partition((2, 1)),
    TorusTheory: lambda: TorusTheory(2, [[1, 0], [1, 1]], [[1, -1]]),
    CoulombElement: lambda: TorusTheory(1, [[1]]).monomial((1,), Polynomial(1, {(1,): 2})),
    RingPresentation: lambda: present_rank1(TorusTheory(1, [[1], [1]])),
    BraneDiagram: lambda: BraneDiagram.parse("0 o 1 x 1 x 1 o 0"),
    QuiverData: lambda: QuiverData((1, 2), (2, 0)),
    LinkingData: lambda: LinkingData((1, 2), (0, 3)),
    GroupDescriptor: lambda: GroupDescriptor.product([GroupDescriptor.gl(2), GroupDescriptor.torus(1)]),
    SpaceDescriptor: lambda: SpaceDescriptor.group_times_slice(GroupDescriptor.gl(3), (2, 1)),
}


def _slot_values(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_value_class_has_a_factory():
    assert set(_subclasses(Value)) == set(FACTORIES)


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_equal_values_hash_alike(cls):
    a, b = FACTORIES[cls](), FACTORIES[cls]()
    assert type(a) is cls and a is not b
    assert a == b and not a != b and hash(a) == hash(b)
    assert a in {b} and b in {a}


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_a_value_is_not_its_slot_values(cls):
    a = FACTORIES[cls]()
    values = _slot_values(a)
    others = [values] + list(values[:1] if len(values) == 1 else ())
    for other in others:
        assert a != other and other != a and not a == other
        try:
            hash(other)
        except TypeError:  # a dict slot value: no set can hold it
            continue
        assert other not in {a}


@pytest.mark.parametrize(
    "a, b",
    [
        (LinearForm((2, 1)), Partition((2, 1))),
        (QuiverData((1, 2), (0, 3)), LinkingData((1, 2), (0, 3))),
    ],
)
def test_classes_with_the_same_slot_values_differ(a, b):
    assert _slot_values(a) == _slot_values(b)
    assert a != b and b != a
    assert a not in {b} and b not in {a}


@pytest.mark.parametrize("cls", FACTORIES, ids=lambda cls: cls.__name__)
def test_a_repr_rebuilds_its_value(cls):
    a = FACTORIES[cls]()
    namespace = {c.__name__: c for c in _subclasses(Value)}
    assert eval(repr(a), namespace) == a


@pytest.mark.parametrize(
    "a, b",
    [
        # r[1] in two theories
        (TorusTheory(1, [[1]]).monomial((1,)), TorusTheory(1, [[2]]).monomial((1,))),
        # T*(C^x) under T(1) and under T(2)
        (
            SpaceDescriptor.torus_cotangent(1),
            SpaceDescriptor.torus_cotangent(1, left_group=GroupDescriptor.torus(2)),
        ),
    ],
)
def test_unequal_values_print_apart(a, b):
    assert str(a) == str(b)
    assert a != b and repr(a) != repr(b)


def test_a_constant_polynomial_is_not_an_int():
    five = Polynomial.constant(1, 5)
    assert five != 5 and 5 != five and not five == 5
    assert 5 not in {five} and five not in {5}


def _classes_defining(name: str) -> set[str]:
    """Names of the classes in the package source whose body defines ``name``."""
    found = set()
    for path in sorted(pathlib.Path(sdualkit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    names = [item.name]
                elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                    targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                if name in names:
                    found.add(node.name)
    return found


def test_the_value_base_holds_the_only_equality_hash_and_repr_rules():
    for name in ("__eq__", "__hash__", "__repr__"):
        assert _classes_defining(name) == {"Value"}, name


# Each builds from one entry that is not an int: bool and float never pass as one.
NOT_INTS = {
    "QuiverData": lambda bad: QuiverData([bad], [2]),
    "BraneDiagram": lambda bad: BraneDiagram(["o"], [0, bad]),
    "Partition": lambda bad: Partition([bad, 1]),
    "chain_to_orbit": lambda bad: chain_to_orbit([0, bad, 2]),
    "monomial": lambda bad: TorusTheory(1, [[1]]).monomial((bad,)),
    "CoulombElement.coefficient": lambda bad: TorusTheory(1, [[1]]).monomial((1,), bad),
    "LinearForm": lambda bad: LinearForm([bad, 2]),
    "TorusTheory.rank": lambda bad: TorusTheory(bad, []),
    "Polynomial.exponent": lambda bad: Polynomial(1, {(bad,): 1}),
    "Polynomial.coefficient": lambda bad: Polynomial(1, {(1,): bad}),
    "Polynomial.constant": lambda bad: Polynomial.constant(1, bad),
    "Polynomial.constant.rank": lambda bad: Polynomial.constant(bad, 3),
    "rank_profile.power": lambda bad: rank_profile([3, 1], bad),
    "structure_constant_table.cutoff": lambda bad: structure_constant_table(
        TorusTheory(1, [[1]]), cutoff=bad
    ),
    "annihilating_cochars.cutoff": lambda bad: annihilating_cochars(TorusTheory(1, [], [[1]]), bad),
    "cochar_box.cutoff": lambda bad: cochar_box(2, bad),
    "cochar_box.rank": lambda bad: cochar_box(bad, 1),
    "hw_move.index": lambda bad: hw_move(BraneDiagram(["o", "x", "o"], [0, 1, 1, 0]), bad),
    "eval_product.exponent.rank1": lambda bad: eval_product([(LinearForm([2]), bad)], 1),
    "eval_product.exponent.rank2": lambda bad: eval_product([(LinearForm([1, 2]), bad)], 2),
    "eval_product.rank": lambda bad: eval_product([(LinearForm([2]), 1)], bad),
    "partitions_of": lambda bad: list(partitions_of(bad)),
    "hook.leg": lambda bad: hook(2, bad),
    "LinkingData": lambda bad: LinkingData([bad], []),
    "GroupDescriptor": lambda bad: GroupDescriptor.gl(bad),
    "SpaceDescriptor.rep_dims": lambda bad: SpaceDescriptor.cotangent_of_rep(dims=(bad, 2)),
    "SpaceDescriptor.torus_cotangent": lambda bad: SpaceDescriptor.torus_cotangent(
        bad, left_group=GroupDescriptor.torus(1)
    ),
    "SpaceDescriptor.type_a_singularity": lambda bad: SpaceDescriptor.type_a_singularity(bad),
}


@pytest.mark.parametrize("bad", [1.7, 2.0, True], ids=["float", "integral-float", "bool"])
@pytest.mark.parametrize("build", NOT_INTS.values(), ids=NOT_INTS.keys())
def test_constructors_take_only_ints(build, bad):
    with pytest.raises(ValueError, match="integer"):
        build(bad)


@pytest.mark.parametrize("bad", [-1, -40_000], ids=["minus-one", "minus-many"])
@pytest.mark.parametrize("build", [annihilating_cochars, structure_constant_table])
def test_a_negative_cutoff_is_refused(build, bad):
    with pytest.raises(ValueError, match="^cutoff must be nonnegative$"):
        build(TorusTheory(1, [], [[1]]), bad)


@pytest.mark.parametrize("bad", [False, 0.0], ids=["false", "zero-float"])
def test_a_falsy_non_int_is_not_the_trivial_group(bad):
    with pytest.raises(ValueError, match="integer"):
        GroupDescriptor.gl(bad)


def _attribute_writes(node, scope: str, found: set) -> set:
    """(enclosing class.function, written object) for each attribute that the
    code under ``node`` sets or deletes, and (enclosing class.function, name)
    for each name or attribute called setattr or __setattr__."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            _attribute_writes(child, f"{scope}.{child.name}".lstrip("."), found)
            continue
        if isinstance(child, ast.Attribute) and not isinstance(child.ctx, ast.Load):
            found.add((scope, ast.unparse(child.value)))
        name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
        if name in ("setattr", "__setattr__"):
            found.add((scope, name))
        _attribute_writes(child, scope, found)
    return found


def test_values_are_written_only_while_they_are_built():
    # A value's fields are set once, by its __init__ or, on an object just
    # made by object.__new__, by its _trusted wrapper; nothing changes a built
    # value, so a value's hash and its equality never move.
    writes, allowed = set(), {("Value.__init_subclass__", "cls")}
    for path in sorted(pathlib.Path(sdualkit.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        _attribute_writes(tree, "", writes)
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
            for func in (item for item in cls.body if isinstance(item, ast.FunctionDef)):
                if func.name == "__init__":
                    allowed.add((f"{cls.name}.__init__", "self"))
                if func.name == "_trusted":
                    allowed.update(
                        (f"{cls.name}._trusted", target.id)
                        for node in ast.walk(func)
                        if isinstance(node, ast.Assign)
                        and ast.unparse(node.value) == "object.__new__(cls)"
                        for target in node.targets
                    )
    assert writes - allowed == set()
    assert ("Value.__init_subclass__", "cls") in writes
    assert {scope for scope, _ in writes} >= {"Polynomial._trusted", "SpaceDescriptor.__init__"}
