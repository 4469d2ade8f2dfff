"""The frozen records built by ``errors.record``."""

import pytest

from treerep import (
    Instance,
    InputError,
    PropertyWitness,
    SearchBudget,
    SearchResult,
    SimpleGraph,
    SubdivisionStep,
    Tree,
    Violation,
)
from treerep.errors import factory, record
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
        b: list = factory(list)

    @record
    class Sub(Base):
        c: str = "c"

    sub = Sub(1)
    assert (sub.a, sub.b, sub.c) == (1, [], "c")
    assert Sub(1, [2], "d") == Sub(c="d", b=[2], a=1)
    assert Sub(1) != Base(1)
