import hashlib
import json
import re

import pytest

from treerep import (
    Instance,
    InputError,
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
