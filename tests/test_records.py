"""The frozen records built by ``errors.record``."""

import importlib
import inspect
import pkgutil

import pytest

import treerep

from treerep import (
    BushinessReport,
    Instance,
    InputError,
    MixedPartition,
    NormalizationResult,
    Orientation,
    PropertyWitness,
    RecognitionResult,
    SearchBudget,
    SearchResult,
    SimpleGraph,
    SubdivisionStep,
    SubtreeFamily,
    Tree,
    Violation,
)
from treerep.errors import record
from treerep.oracle import BUDGET_ENV_VAR

EDGE = frozenset({("a", "b")})


def test_records_are_equal_within_one_class_only():
    assert Tree(("a", "b"), EDGE) == Tree(("a", "b"), EDGE)
    assert SimpleGraph(("a", "b"), EDGE) == SimpleGraph(("a", "b"), EDGE)
    assert Tree(("a", "b"), EDGE) != SimpleGraph(("a", "b"), EDGE)
    assert SimpleGraph(("a", "b"), EDGE) != Tree(("a", "b"), EDGE)
    assert Tree(("a", "b"), EDGE) != Tree(("b", "a"), EDGE)
    assert Violation("x", "y") != ("x", "y")


def test_equal_records_hash_alike():
    assert hash(Violation("x", "y")) == hash(Violation("x", "y"))
    steps = {SubdivisionStep("a", "b", "x"), SubdivisionStep("a", "b", "x")}
    assert steps == {SubdivisionStep("a", "b", "x", frozenset())}


def test_records_are_frozen_but_keep_a_dict():
    g = SimpleGraph(("a", "b"), EDGE)
    with pytest.raises(AttributeError):
        g.vertices = ("a",)
    with pytest.raises(AttributeError):
        g.extra = 1
    with pytest.raises(AttributeError):
        del g.edges
    assert g.vertices == ("a", "b")
    assert g.adjacency() is g.__dict__["_adjacency"]


def test_construction_by_position_keyword_and_default():
    assert SubdivisionStep("a", "b", "x") == SubdivisionStep(x="x", w="b", v="a")
    assert SubdivisionStep("a", "b", "x").absorb == frozenset()
    assert PropertyWitness("none").payload is None
    result = SearchResult("none", detail="why")
    assert (result.status, result.value, result.detail) == ("none", None, "why")
    with pytest.raises(TypeError):
        SubdivisionStep("a", "b")
    with pytest.raises(TypeError):
        PropertyWitness("none", kind="none")


def test_post_init_checks_every_construction():
    with pytest.raises(InputError):
        SimpleGraph(("a",), EDGE)
    with pytest.raises(InputError):
        Tree(edges=frozenset(), vertices=("a", "b"))


def test_repr_names_the_class_and_each_field():
    assert repr(Violation("x", "y")) == "Violation(code='x', detail='y')"
    assert repr(Tree(("a",), frozenset())) == "Tree(vertices=('a',), edges=frozenset())"


def test_each_instance_gets_its_own_default_meta():
    first, second = Instance(), Instance()
    assert first.meta == {} and first.meta is not second.meta
    assert Instance(meta=None).meta == {}
    meta = {"seed": 1}
    assert Instance(meta=meta).meta is meta


def test_search_budget_reads_its_variable_when_built(monkeypatch):
    monkeypatch.setenv(BUDGET_ENV_VAR, "5")
    early = SearchBudget()
    monkeypatch.setenv(BUDGET_ENV_VAR, "9")
    assert early.time_limit_seconds == 5.0
    assert SearchBudget().time_limit_seconds == 9.0
    assert SearchBudget(time_limit_seconds=2).time_limit_seconds == 2


def test_a_record_extends_the_fields_of_the_record_it_subclasses():
    @record
    class Base:
        a: int
        b: tuple = ()

    @record
    class Sub(Base):
        c: str = "c"

    sub = Sub(1)
    assert (sub.a, sub.b, sub.c) == (1, (), "c")
    assert Sub(1, (2,), "d") == Sub(c="d", b=(2,), a=1)
    assert Sub(1) != Base(1)


def _record_classes() -> set:
    """Every class in treerep's modules made by ``record``."""
    found = set()
    for info in pkgutil.walk_packages(treerep.__path__, "treerep."):
        module = importlib.import_module(info.name)
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if obj.__module__ == info.name and "__record_fields__" in vars(obj):
                found.add(obj)
    return found


def _sample(cls):
    """A record of ``cls``, built afresh on each call."""
    tree = Tree(("a", "b"), EDGE)
    graph = SimpleGraph(("a", "b"), EDGE)
    family = SubtreeFamily(tree, (("m", frozenset({"a"})),))
    return {
        Violation: lambda: Violation("x", "y"),
        SubdivisionStep: lambda: SubdivisionStep("a", "b", "x", frozenset({"m"})),
        NormalizationResult: lambda: NormalizationResult(family, (), tree),
        SearchBudget: lambda: SearchBudget(5),
        SearchResult: lambda: SearchResult("found", 1, "d"),
        SimpleGraph: lambda: graph,
        Orientation: lambda: Orientation(graph, EDGE),
        Tree: lambda: tree,
        SubtreeFamily: lambda: family,
        BushinessReport: lambda: BushinessReport((("a", ()),), True),
        MixedPartition: lambda: MixedPartition(graph, EDGE, frozenset()),
        Instance: lambda: Instance(tree=tree, meta={"seed": 1}),
        PropertyWitness: lambda: PropertyWitness("none"),
        RecognitionResult: lambda: RecognitionResult("chordal", True, PropertyWitness("none")),
    }[cls]()


def test_every_record_class_keeps_its_equality_hash_and_repr():
    classes = _record_classes()
    assert len(classes) == 14
    samples = {cls: _sample(cls) for cls in classes}
    for cls, r in samples.items():
        values = tuple(getattr(r, n) for n in cls.__record_fields__)
        assert "__init__" in vars(cls)
        assert r == _sample(cls) and not r != _sample(cls)
        assert r != values
        for other in samples.values():
            assert (r == other) is (other is r)
        try:
            expected = hash(values)
        except TypeError:  # Instance's meta is a dict
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(r) == expected
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(cls.__record_fields__, values))
        assert repr(r) == f"{cls.__qualname__}({fields})"


def test_search_budget_checks_its_seconds_when_built(monkeypatch):
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    assert SearchBudget(None) == SearchBudget() == SearchBudget(30.0)
    assert type(SearchBudget(2).time_limit_seconds) is float
    for seconds in (0, -1, float("nan")):
        with pytest.raises(InputError, match="must be positive"):
            SearchBudget(seconds)
    for seconds in (10**400, "soon", [1]):
        with pytest.raises(InputError, match="fits a float"):
            SearchBudget(seconds)
