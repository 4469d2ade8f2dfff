import random
from itertools import combinations

import pytest
from helpers import random_family

from treerep import (
    InputError,
    MixedPartition,
    PairRelation,
    SimpleGraph,
    SubtreeFamily,
    Tree,
    classify_sets,
    complement,
    derive_graph,
    edge_key,
    fixtures,
    gen_cover,
    gen_family,
    gen_tree,
    induced_subtree,
    minimal_covering_subtree,
    normalize,
    overlap_to_mixed,
)


def test_star_family_overlap_graph_is_the_four_cycle():
    fam = fixtures()["cycle4-star"].family
    g = derive_graph(fam, "overlap")
    assert g.vertices == ("t1", "t2", "t3", "t4")
    assert g.edges == {
        ("t1", "t2"),
        ("t2", "t3"),
        ("t3", "t4"),
        ("t1", "t4"),
    }


def test_single_member_family_derives_k1():
    fam = SubtreeFamily.build(Tree.build("a", []), [("only", ["a"])])
    for mode in ("overlap", "intersection", "disjointness", "containment"):
        g = derive_graph(fam, mode)
        assert g.vertices == ("only",) and g.edges == frozenset()


def test_empty_family_derives_empty_graph():
    fam = SubtreeFamily.build(gen_tree(4, 0), [])
    g = derive_graph(fam, "overlap")
    assert g.vertices == () and g.edges == frozenset()


def test_unknown_mode_is_an_input_error():
    fam = fixtures()["cycle4-star"].family
    with pytest.raises(InputError):
        derive_graph(fam, "adjacency")


def test_intersection_and_disjointness_partition_all_pairs():
    rng = random.Random(31)
    for _ in range(150):
        fam = random_family(rng, max_host=9, max_members=6)
        inter = derive_graph(fam, "intersection")
        disj = derive_graph(fam, "disjointness")
        assert disj == complement(inter)
        every_pair = {
            edge_key(a, b) for a, b in combinations(fam.names(), 2)
        }
        assert inter.edges | disj.edges == every_pair
        assert not inter.edges & disj.edges


def test_overlap_and_containment_split_the_intersection_edges():
    rng = random.Random(32)
    for _ in range(150):
        fam = random_family(rng, max_host=9, max_members=6)
        over = derive_graph(fam, "overlap")
        cont = derive_graph(fam, "containment")
        inter = derive_graph(fam, "intersection")
        assert not over.edges & cont.edges
        assert over.edges | cont.edges == inter.edges


def test_equal_members_yield_a_containment_edge_not_overlap():
    host = Tree.build("ab", [("a", "b")])
    fam = SubtreeFamily.build(host, [("x", ["a", "b"]), ("y", ["a", "b"])])
    assert derive_graph(fam, "containment").edges == {("x", "y")}
    assert derive_graph(fam, "overlap").edges == frozenset()


def test_relation_preserving_transforms_keep_all_derived_graphs():
    rng = random.Random(33)
    for _ in range(40):
        fam = random_family(rng, max_host=8, max_members=5)
        out = normalize(fam).family
        for mode in ("overlap", "intersection", "disjointness", "containment"):
            assert derive_graph(fam, mode) == derive_graph(out, mode)


# ---------------------------------------------------------------------------
# Differential tests: the bitmask kernel against pairwise set classification

_REFERENCE_TAGS = {
    "overlap": {PairRelation.OVERLAP},
    "intersection": {
        PairRelation.OVERLAP,
        PairRelation.FIRST_IN_SECOND,
        PairRelation.SECOND_IN_FIRST,
        PairRelation.EQUAL,
    },
    "disjointness": {PairRelation.DISJOINT},
    "containment": {
        PairRelation.FIRST_IN_SECOND,
        PairRelation.SECOND_IN_FIRST,
        PairRelation.EQUAL,
    },
}


def reference_graph(fam, mode):
    wanted = _REFERENCE_TAGS[mode]
    return SimpleGraph(fam.names(), frozenset(
        edge_key(ni, nj)
        for (ni, vi), (nj, vj) in combinations(fam.members, 2)
        if classify_sets(vi, vj) in wanted
    ))


def reference_mixed(fam, cover):
    order = sorted(fam.members, key=lambda item: (len(item[1]), item[0]))
    e1, e2 = set(), set()
    for i, (ni, vi) in enumerate(order):
        for nj, vj in order[i + 1:]:
            rel = classify_sets(vi, vj)
            if rel is PairRelation.DISJOINT:
                e1.add(edge_key(ni, nj))
            elif rel in (PairRelation.FIRST_IN_SECOND, PairRelation.EQUAL):
                e2.add((ni, nj))
    base = complement(reference_graph(fam, "overlap"))
    certificate = SubtreeFamily(
        induced_subtree(fam.host, cover),
        tuple((name, vs & cover) for name, vs in fam.members),
    )
    return MixedPartition(base, frozenset(e1), frozenset(e2)), certificate


def shuffled_host(tree, rng):
    """The same tree with its vertex sequence out of label order."""
    vertices = list(tree.vertices)
    rng.shuffle(vertices)
    return Tree(tuple(vertices), tree.edges)


def seeded_families(seed, count):
    """(family, cover) pairs over every generator mode and hosts of 1 to 120
    vertices.  Each family also holds a copy of its first member and a
    single-vertex member inside the cover, and every fourth host has its
    vertex order shuffled."""
    rng = random.Random(seed)
    modes = ("free", "shared-vertex", "covered-by")
    for index in range(count):
        mode = modes[index % 3]
        n = rng.choice((1, 2, 3, rng.randint(4, 30), rng.randint(31, 120)))
        tree = gen_tree(n, rng.randrange(10**6))
        if index % 4 == 1:
            tree = shuffled_host(tree, rng)
        cover = gen_cover(tree, rng.randrange(10**6), "subtree")
        fam = gen_family(tree, rng.randint(1, 25), rng.randrange(10**6), mode, cover)
        if mode != "covered-by":
            cover = (
                minimal_covering_subtree(fam) if index % 2
                else frozenset(tree.vertices)
            )
        extra = (
            ("copy", fam.members[0][1]),
            ("single", frozenset({rng.choice(sorted(cover))})),
        )
        yield SubtreeFamily(tree, fam.members + extra), cover


def test_derive_graph_matches_pairwise_classification():
    for fam, _ in seeded_families(41, 90):
        for mode in ("overlap", "intersection", "disjointness", "containment"):
            assert derive_graph(fam, mode) == reference_graph(fam, mode)


def test_overlap_to_mixed_matches_pairwise_classification():
    for fam, cover in seeded_families(42, 90):
        partition, certificate = overlap_to_mixed(fam, cover)
        want_partition, want_certificate = reference_mixed(fam, cover)
        assert partition == want_partition
        assert partition.base.vertices == fam.names()
        assert certificate == want_certificate


def test_equal_members_point_from_the_lesser_name_in_e2():
    host = Tree.build("abc", [("a", "b"), ("b", "c")])
    fam = SubtreeFamily.build(
        host, [("y", "ab"), ("x", "ab"), ("z", "b"), ("w", "c")]
    )
    partition, _ = overlap_to_mixed(fam, "bc")
    assert partition.e2 == {("x", "y"), ("z", "x"), ("z", "y")}
    assert partition.e1 == {("w", "x"), ("w", "y"), ("w", "z")}
