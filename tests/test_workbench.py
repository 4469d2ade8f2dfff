import hashlib
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treerep.interchange
from treerep import (
    Instance,
    InputError,
    SchemaError,
    Tree,
    derive_graph,
    fixtures,
    gen_cover,
    gen_family,
    gen_tree,
    induces_subtree,
    is_covering_subtree,
    minimal_covering_subtree,
    parse,
    serialize,
    to_dot,
    validate_family,
)


def test_gen_tree_smallest_cases():
    assert gen_tree(1, 7) == Tree.build(["v1"], [])
    assert gen_tree(2, 7) == Tree.build(["v1", "v2"], [("v1", "v2")])
    with pytest.raises(InputError):
        gen_tree(0, 7)


def test_gen_tree_is_deterministic_and_valid():
    assert gen_tree(8, 42) == gen_tree(8, 42)
    assert gen_tree(8, 42) != gen_tree(8, 43)
    for seed in range(40):
        gen_tree(seed % 12 + 1, seed)  # Tree constructor validates


def test_gen_tree_spreads_over_shapes():
    # n=4 has two shapes: the path and the star; both must occur
    from treerep import classify_tree

    shapes = set()
    for seed in range(60):
        tags = classify_tree(gen_tree(4, seed))
        shapes.add("star" if "star" in tags else "path")
    assert shapes == {"star", "path"}


def test_gen_family_modes():
    tree = gen_tree(9, 5)
    free = gen_family(tree, 5, 11)
    assert validate_family(free) == []
    assert free.names() == ("t1", "t2", "t3", "t4", "t5")

    shared = gen_family(tree, 5, 11, "shared-vertex")
    common = set(tree.vertices)
    for _, vs in shared.members:
        common &= vs
    assert common

    cover = gen_cover(tree, 3)
    covered = gen_family(tree, 5, 11, "covered-by", cover)
    assert is_covering_subtree(covered, cover)

    empty = gen_family(tree, 0, 11)
    assert empty.members == ()
    assert derive_graph(empty, "overlap").vertices == ()


def members_digest(fam) -> str:
    text = json.dumps([[name, sorted(vs)] for name, vs in fam.members])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_gen_family_outputs_are_pinned():
    fam = gen_family(gen_tree(8, 1), 3, 1, "free")
    assert {n: sorted(vs) for n, vs in fam.members} == {
        "t1": ["v2", "v3"],
        "t2": ["v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"],
        "t3": ["v1", "v2", "v3", "v5", "v6", "v7", "v8"],
    }
    fam = gen_family(gen_tree(12, 2), 4, 2, "shared-vertex")
    assert {n: sorted(vs) for n, vs in fam.members} == {
        "t1": ["v1", "v2"],
        "t2": ["v1", "v2", "v3", "v4", "v6", "v7"],
        "t3": ["v1", "v10", "v11", "v12", "v2", "v3", "v4", "v5", "v6", "v7"],
        "t4": ["v1"],
    }
    t = gen_tree(15, 3)
    cover = gen_cover(t, 3, "subtree")
    assert sorted(cover) == [
        "v1", "v10", "v11", "v12", "v13", "v14", "v15", "v2", "v4", "v8",
    ]
    fam = gen_family(t, 3, 3, "covered-by", cover)
    assert {n: sorted(vs) for n, vs in fam.members} == {
        "t1": sorted(cover),
        "t2": ["v1", "v10", "v11", "v12", "v14", "v15", "v2", "v4", "v8"],
        "t3": ["v1", "v10", "v11", "v12", "v15", "v2", "v3", "v4", "v5", "v6",
               "v8"],
    }
    assert members_digest(gen_family(gen_tree(200, 1), 60, 1, "free")) == (
        "db198611b33c27d2"
    )
    assert members_digest(gen_family(gen_tree(300, 5), 40, 5, "shared-vertex")) == (
        "e9cc029187e1f21b"
    )
    assert members_digest(gen_family(gen_tree(1000, 1), 150, 1, "free")) == (
        "f89d7ef4149fe889"
    )


def test_gen_family_rejects_bad_arguments():
    tree = gen_tree(5, 1)
    with pytest.raises(InputError):
        gen_family(tree, 3, 0, "covered-by")
    with pytest.raises(InputError):
        gen_family(tree, 3, 0, "warp")
    with pytest.raises(InputError):
        gen_family(tree, 3, 0, "covered-by", {"v1", "v3"} - set())


def test_gen_cover_shapes():
    tree = gen_tree(10, 9)
    assert len(gen_cover(tree, 0, "vertex")) == 1
    path = gen_cover(tree, 0, "path")
    assert induces_subtree(tree, path)
    sub = gen_cover(tree, 0, "subtree")
    assert induces_subtree(tree, sub)
    with pytest.raises(InputError):
        gen_cover(tree, 0, "blob")


def test_minimal_cover_of_the_path_fixture():
    fam = fixtures()["cycle4-path"].family
    cover = minimal_covering_subtree(fam)
    assert cover == {"p4", "p5"}
    assert is_covering_subtree(fam, cover)


@given(st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_serialize_parse_round_trip(seed):
    rng = random.Random(seed)
    tree = gen_tree(rng.randint(1, 10), rng.randrange(10**9))
    family = gen_family(tree, rng.randint(0, 6), rng.randrange(10**9))
    cover = frozenset(tree.vertices) if rng.random() < 0.5 else None
    instance = Instance(
        family=family,
        cover=cover,
        meta={"seed": seed, "params": {"b": 1, "a": [1, 2]}},
    )
    text = serialize(instance)
    back = parse(text)
    assert back == instance
    assert serialize(back) == text


def test_serialize_includes_mixed_and_graph():
    from treerep import overlap_to_mixed

    fam = fixtures()["cycle4-star"].family
    partition, certificate = overlap_to_mixed(fam, {"c"})
    inst = Instance(family=certificate, mixed=partition)
    back = parse(serialize(inst))
    assert back.mixed == partition
    assert back.graph == partition.base
    assert back.family == certificate


def test_parse_errors_name_the_offending_path():
    with pytest.raises(SchemaError, match="instance.bogus"):
        parse('{"bogus": 1}')
    with pytest.raises(SchemaError, match="unknown vertex"):
        parse('{"tree": {"vertices": ["a"], "edges": [["a", "b"]]}}')
    with pytest.raises(SchemaError, match="instance.subtrees"):
        parse('{"subtrees": {"m": ["a"]}}')
    with pytest.raises(SchemaError, match="instance.mixed"):
        parse('{"mixed": {"e1": [], "e2": []}}')
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse("{")
    with pytest.raises(SchemaError, match="instance.tree"):
        parse('{"tree": {"vertices": ["a", "b"], "edges": []}}')
    with pytest.raises(SchemaError, match=r"instance.tree.edges\[0\]"):
        parse('{"tree": {"vertices": ["a"], "edges": [["a", "a"]]}}')
    with pytest.raises(SchemaError, match="instance.cover"):
        parse(
            '{"tree": {"vertices": ["a"], "edges": []}, "cover": ["z"]}'
        )


def test_parse_rejects_duplicate_entries_at_their_path():
    two = '{"vertices": ["a", "b"], "edges": [["a", "b"]]}'
    cases = {
        r"instance.tree.vertices\[2\]: duplicate label 'a'":
            '{"tree": {"vertices": ["a", "b", "a"], "edges": [["a", "b"]]}}',
        r"instance.tree.edges\[1\]: duplicate edge":
            '{"tree": {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}}',
        r"instance.subtrees.t1\[1\]: duplicate label 'a'":
            '{"tree": %s, "subtrees": {"t1": ["a", "a"]}}' % two,
        r"instance.cover\[1\]: duplicate label 'b'":
            '{"tree": %s, "cover": ["b", "b"]}' % two,
        r"instance.graph.vertices\[1\]: duplicate label 'a'":
            '{"graph": {"vertices": ["a", "a"], "edges": []}}',
        r"instance.graph.edges\[1\]: duplicate edge":
            '{"graph": {"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]}}',
        r"instance.mixed.e1\[1\]: duplicate edge":
            '{"graph": %s, "mixed": {"e1": [["b", "a"], ["a", "b"]]}}' % two,
        r"instance.mixed.e2\[1\]: duplicate arc":
            '{"graph": %s, "mixed": {"e2": [["b", "a"], ["b", "a"]]}}' % two,
    }
    for message, text in cases.items():
        with pytest.raises(SchemaError, match=message):
            parse(text)
    # both directions of one pair in e2 are two arcs, left to the partition
    with pytest.raises(SchemaError, match="both directions"):
        parse('{"graph": %s, "mixed": {"e2": [["a", "b"], ["b", "a"]]}}' % two)



def test_parse_rejects_duplicate_keys():
    two = '{"vertices": ["a", "b"], "edges": [["a", "b"]]}'
    cases = {
        '{"tree": %s, "subtrees": {"t1": ["a"], "t1": ["b"]}}' % two:
            "instance.subtrees: duplicate key 't1'",
        '{"tree": %s, "tree": %s}' % (two, two): "instance: duplicate key 'tree'",
        '{"tree": {"vertices": [], "vertices": []}}':
            "instance.tree: duplicate key 'vertices'",
        # objects inside arrays, and a NaN after the duplicate
        '{"meta": {"x": [1, {"y": [{"z": 1, "z": 2}]}], "w": NaN}}':
            "instance.meta.x[1].y[0]: duplicate key 'z'",
        '[{"q": 1, "q": 2}]': "instance[0]: duplicate key 'q'",
        # the object that closes first is reported, as before
        '{"meta": {"a": {"q": 1, "q": 2}, "b": {"r": 1, "r": 2}}, "meta": 1}':
            "instance.meta.a: duplicate key 'q'",
        # malformed after the duplicate: its objects never close
        '{"meta": {"a": {"q": 1, "q": 2}, "b": ': "instance: duplicate key 'q'",
    }
    for text, message in cases.items():
        with pytest.raises(SchemaError) as info:
            parse(text)
        assert str(info.value) == message
    # an error met before the duplicate still wins
    with pytest.raises(SchemaError, match="NaN is not a JSON number"):
        parse('{"meta": {"x": NaN, "a": {"q": 1, "q": 2}}}')


def test_parse_refuses_json_nested_too_deeply(monkeypatch):
    depth = 100_000
    texts = (
        "[" * depth + "]" * depth,
        '{"a": ' * depth + "1" + "}" * depth,
        '{"a": ' * depth + '{"k": 1, "k": 2}' + "}" * depth,
    )
    for text in texts:
        with pytest.raises(SchemaError) as info:
            parse(text)
        assert str(info.value) == "instance: JSON nested too deeply"

    # a duplicate key too deep for the walk that finds its path
    def too_deep(value, path=""):
        raise RecursionError

    monkeypatch.setattr(treerep.interchange, "_duplicate_path", too_deep)
    with pytest.raises(SchemaError) as info:
        parse('{"meta": {"a": {"q": 1, "q": 2}}}')
    assert str(info.value) == "instance: duplicate key 'q'"


def test_nan_in_meta_is_rejected_both_ways():
    for constant in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(SchemaError, match=constant):
            parse('{"tree":{"vertices":["a"],"edges":[]},"meta":{"x":%s}}' % constant)
    with pytest.raises(ValueError):
        serialize(Instance(tree=gen_tree(1, 0), meta={"x": float("nan")}))

def test_instance_consistency_is_enforced():
    t1 = gen_tree(3, 0)
    t2 = gen_tree(4, 0)
    fam = gen_family(t1, 2, 0)
    with pytest.raises(InputError):
        Instance(tree=t2, family=fam)
    with pytest.raises(InputError):
        Instance(cover=frozenset({"v1"}))
    inst = Instance(family=fam)
    assert inst.tree == t1


DOT_EDGE = re.compile(r'^  "[^"]+" -- "[^"]+";$')
DOT_NODE = re.compile(r'^  "[^"]+"( \[fillcolor="[^"]+"\])?;$')


def assert_valid_dot(text: str, directed: bool = False):
    lines = text.strip().splitlines()
    assert re.match(r"^graph \w+ \{$", lines[0])
    assert lines[-1] == "}"
    for line in lines[1:-1]:
        assert (
            DOT_EDGE.match(line)
            or DOT_NODE.match(line)
            or line == "  node [style=filled];"
        ), f"bad DOT statement: {line!r}"


def test_to_dot_views_emit_valid_dot():
    inst = fixtures()["cycle4-star"]
    for view, member in (("tree", None), ("graph", None), ("rep-highlight", "t3")):
        if view == "graph":
            inst2 = Instance(
                family=inst.family,
                graph=derive_graph(inst.family, "overlap"),
            )
            text = to_dot(inst2, view)
        else:
            text = to_dot(inst, view, member)
        assert_valid_dot(text)


def test_to_dot_k2_tree_view():
    inst = Instance(tree=gen_tree(2, 0))
    text = to_dot(inst, "tree")
    assert '"v1" -- "v2";' in text
    assert text.count("--") == 1


def test_to_dot_highlight_shades_the_member():
    inst = fixtures()["bushy-demo"]
    text = to_dot(inst, "rep-highlight", "t")
    assert '"u" [fillcolor="grey45"];' in text
    assert '"b" [fillcolor="grey92"];' in text


def test_to_dot_errors():
    inst = Instance(tree=gen_tree(2, 0))
    with pytest.raises(InputError):
        to_dot(inst, "graph")
    with pytest.raises(InputError):
        to_dot(inst, "rep-highlight")
    with pytest.raises(InputError):
        to_dot(inst, "orbit")
    with pytest.raises(InputError):
        to_dot(Instance(graph=None), "graph")


def test_fixture_instances_are_consistent():
    table = fixtures()
    assert set(table) == {"cycle4-star", "cycle4-path", "bushy-demo"}
    for inst in table.values():
        assert validate_family(inst.family) == []
        back = parse(serialize(inst))
        assert back == inst
