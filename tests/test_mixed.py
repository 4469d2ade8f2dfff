import hashlib
import json
import random
from collections import Counter

import pytest
from helpers import all_graphs, cycle_graph, failure, path_graph, random_family, random_graph

import treerep.graphs
import treerep.mixed
import treerep.trees
from treerep import (
    MODES,
    InputError,
    MixedPartition,
    Orientation,
    SimpleGraph,
    SubtreeFamily,
    Tree,
    bushiness,
    classify_tree,
    complement,
    derive_graph,
    e1_certificate,
    edge_key,
    fixtures,
    gen_cover,
    gen_family,
    gen_tree,
    induced_subtree,
    is_covering_subtree,
    mixed_to_bushy,
    overlap_to_mixed,
    recognize,
    search_mixed_partition,
    search_overlap_rep,
    shrink_containments,
    star_rep_from_orientation,
    tree_isomorphic,
    validate_family,
    verify_mixed_partition,
)
from treerep.trees import _member_masks

TWO_K2 = SimpleGraph.build("1234", [("1", "3"), ("2", "4")])


def assert_marked_truly(*families):
    """Each family carries the valid mark, and an unmarked copy of it
    passes the full check."""
    for f in families:
        assert f.__dict__.get("_valid") is True
        assert validate_family(SubtreeFamily(f.host, f.members)) == []


def test_partition_type_invariants():
    with pytest.raises(InputError):
        MixedPartition(TWO_K2, frozenset({("1", "3")}), frozenset({("1", "3")}))
    with pytest.raises(InputError):
        MixedPartition(TWO_K2, frozenset(), frozenset({("1", "3")}))
    with pytest.raises(InputError):
        MixedPartition(
            TWO_K2, frozenset(), frozenset({("1", "3"), ("3", "1"), ("2", "4")})
        )


def test_verify_accepts_the_oriented_two_k2_partition():
    p = MixedPartition(TWO_K2, frozenset(), frozenset({("1", "3"), ("2", "4")}))
    assert verify_mixed_partition(p) == []


def test_verify_rejects_non_cochordal_e1():
    p = MixedPartition(TWO_K2, frozenset({("1", "3"), ("2", "4")}), frozenset())
    codes = [v.code for v in verify_mixed_partition(p)]
    assert codes == ["e1-not-cochordal"]


def test_verify_reports_missing_transitive_closure():
    base = path_graph("abc")
    p = MixedPartition(base, frozenset(), frozenset({("a", "b"), ("b", "c")}))
    codes = [v.code for v in verify_mixed_partition(p)]
    assert "not-transitive" in codes


def test_verify_reports_mixing_failures():
    # c->a oriented, ab in e1, but cb is not an edge at all
    base = path_graph("cab")  # edges ca, ab
    p = MixedPartition(base, frozenset({("a", "b")}), frozenset({("c", "a")}))
    codes = [v.code for v in verify_mixed_partition(p)]
    assert codes == ["mixing"]


def test_verify_lists_every_mixing_failure_in_vertex_order():
    # y is an e1 neighbour of both u and v, so only z and w fail for u->v
    base = SimpleGraph.build(
        ["z", "v", "u", "b", "a", "y", "x", "w"],
        [("u", "v"), ("a", "b"), ("v", "z"), ("v", "y"), ("v", "w"),
         ("u", "y"), ("b", "z"), ("b", "y"), ("b", "x")],
    )
    arcs = frozenset({("u", "v"), ("a", "b")})
    p = MixedPartition(base, base.edges - {("u", "v"), ("a", "b")}, arcs)
    mixing = [v.detail for v in verify_mixed_partition(p) if v.code == "mixing"]
    assert mixing == [
        "a->b with bz in e1 but az not in e1",
        "a->b with by in e1 but ay not in e1",
        "a->b with bx in e1 but ax not in e1",
        "u->v with vz in e1 but uz not in e1",
        "u->v with vw in e1 but uw not in e1",
    ]


def test_verify_uses_certificate_and_flags_mismatches():
    p = MixedPartition(TWO_K2, frozenset(), frozenset({("1", "3"), ("2", "4")}))
    host = Tree.build("r", [])
    good = SubtreeFamily.build(host, [(n, ["r"]) for n in "1234"])
    assert verify_mixed_partition(p, good) == []

    wrong_names = SubtreeFamily.build(host, [(n, ["r"]) for n in "1256"])
    codes = [v.code for v in verify_mixed_partition(p, wrong_names)]
    assert "e1-certificate" in codes and "internal-consistency" in codes

    # certificate whose disjointness graph is not (V, e1)
    host2 = Tree.build("rs", [("r", "s")])
    split = SubtreeFamily.build(
        host2, [("1", ["r"]), ("2", ["r"]), ("3", ["s"]), ("4", ["r"])]
    )
    codes = [v.code for v in verify_mixed_partition(p, split)]
    assert "e1-certificate" in codes


def test_overlap_to_mixed_on_the_star_fixture():
    fam = fixtures()["cycle4-star"].family
    partition, certificate = overlap_to_mixed(fam, {"c"})
    assert partition.e1 == frozenset()
    assert partition.e2 == {("t1", "t3"), ("t2", "t4")}
    assert partition.base == complement(derive_graph(fam, "overlap"))
    assert certificate.host.vertices == ("c",)
    assert all(vs == {"c"} for _, vs in certificate.members)
    assert verify_mixed_partition(partition, certificate) == []


def test_overlap_to_mixed_on_pairwise_disjoint_members():
    host = Tree.build("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    fam = SubtreeFamily.build(host, [("x", ["a"]), ("y", ["c"]), ("z", ["e"])])
    partition, _ = overlap_to_mixed(fam, set(host.vertices))
    assert partition.e2 == frozenset()
    assert partition.e1 == {("x", "y"), ("x", "z"), ("y", "z")}
    assert derive_graph(fam, "overlap").edges == frozenset()
    assert partition.base.edges == partition.e1  # base is complete


def test_overlap_to_mixed_directs_ties_by_size_then_name():
    host = Tree.build("abcde", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")])
    # y and x are equal, m is a strict superset of both, w is disjoint
    fam = SubtreeFamily.build(
        host, [("y", "ab"), ("x", "ab"), ("m", "abc"), ("w", "e")]
    )
    partition, _ = overlap_to_mixed(fam, set(host.vertices))
    assert partition.e1 == {("m", "w"), ("w", "x"), ("w", "y")}
    # the lesser (size, name) is the tail: x->y by name, then m by size
    assert partition.e2 == {("x", "y"), ("x", "m"), ("y", "m")}
    assert partition.base == SimpleGraph(
        ("y", "x", "m", "w"), partition.e1 | {("m", "x"), ("m", "y"), ("x", "y")}
    )


def test_overlap_to_mixed_requires_a_cover():
    host = Tree.build("abc", [("a", "b"), ("b", "c")])
    fam = SubtreeFamily.build(host, [("x", ["a"]), ("y", ["c"])])
    with pytest.raises(InputError):
        overlap_to_mixed(fam, {"a"})


def test_overlap_to_mixed_passes_verifier_on_random_covered_families():
    rng = random.Random(41)
    for _ in range(100):
        tree = gen_tree(rng.randint(2, 10), rng.randrange(10**9))
        cover = gen_cover(tree, rng.randrange(10**9))
        fam = gen_family(tree, rng.randint(1, 6), rng.randrange(10**9),
                         "covered-by", cover)
        partition, certificate = overlap_to_mixed(fam, cover)
        assert verify_mixed_partition(partition, certificate) == []
        assert partition.base == complement(derive_graph(fam, "overlap"))


def test_a_passing_certificate_settles_e1_without_recognition(monkeypatch):
    def no_recognition(*args):
        raise AssertionError("(V, e1) was recognized")

    p = MixedPartition(TWO_K2, frozenset(), frozenset({("1", "3"), ("2", "4")}))
    cert = SubtreeFamily.build(Tree.build("r", []), [(n, ["r"]) for n in "1234"])
    cases = [(complement(TWO_K2), p, cert)]
    rng = random.Random(47)
    for _ in range(40):
        tree = gen_tree(rng.randint(2, 10), rng.randrange(10**9))
        cover = gen_cover(tree, rng.randrange(10**9))
        fam = gen_family(tree, rng.randint(1, 6), rng.randrange(10**9),
                         "covered-by", cover)
        g = derive_graph(fam, "overlap")
        partition, certificate = overlap_to_mixed(fam, cover)
        cases.append((g, partition, certificate))
        cases.append((g, partition, e1_certificate(partition)))
    # the certificates are built, so no elimination scan may run from here
    monkeypatch.setattr(treerep.mixed, "_co_eliminate", no_recognition)
    with pytest.raises(AssertionError, match="recognized"):
        verify_mixed_partition(p)  # the verifier's scan is the one patched
    for g, partition, certificate in cases:
        assert verify_mixed_partition(partition, certificate) == []
        assert derive_graph(mixed_to_bushy(partition, certificate), "overlap") == g


def test_shrink_with_no_arcs_is_identity():
    fam = fixtures()["cycle4-path"].family
    assert shrink_containments(fam, frozenset()) == fam


def test_shrink_single_arc_example():
    host = Tree.build("abc", [("a", "b"), ("b", "c")])
    fam = SubtreeFamily.build(host, [("t1", ["a", "b"]), ("t2", ["b", "c"])])
    out = shrink_containments(fam, {("t1", "t2")})
    assert out.member("t1") == {"b"}
    assert out.member("t2") == {"b", "c"}
    before = derive_graph(fam, "disjointness")
    after = derive_graph(out, "disjointness")
    assert before == after


def test_shrink_rejects_disjoint_arc_members_and_bad_arc_sets():
    host = Tree.build("abc", [("a", "b"), ("b", "c")])
    fam = SubtreeFamily.build(host, [("t1", ["a"]), ("t2", ["c"])])
    with pytest.raises(InputError):
        shrink_containments(fam, {("t1", "t2")})
    with pytest.raises(InputError):
        shrink_containments(fam, {("t1", "t2"), ("t2", "t1")})
    fam3 = SubtreeFamily.build(
        host, [("t1", ["a", "b"]), ("t2", ["b"]), ("t3", ["b", "c"])]
    )
    with pytest.raises(InputError, match="t1->t2->t3"):
        # missing closure t1->t3
        shrink_containments(fam3, {("t1", "t2"), ("t2", "t3")})
    fam5 = SubtreeFamily.build(host, [(f"t{i}", ["b"]) for i in range(1, 6)])
    chain = {("t5", "t4"), ("t4", "t3"), ("t3", "t2"), ("t2", "t1")}
    # of the bad triples the sorted-first is named, whatever the set order
    with pytest.raises(InputError, match="not transitive: t3->t2->t1$"):
        shrink_containments(fam5, chain)


def _padded(cert: SubtreeFamily) -> SubtreeFamily:
    """``cert`` with each member grown by a private pendant leaf: the
    disjointness graph is the same, but shrinking must trim the pendants."""
    pendant = {n: f"{n}'" for n in cert.names()}
    edges = cert.host.edges | {edge_key(min(vs), pendant[n]) for n, vs in cert.members}
    host = Tree(cert.host.vertices + tuple(pendant.values()), edges)
    return SubtreeFamily.build(host, {n: vs | {pendant[n]} for n, vs in cert.members})


def test_shrink_reaches_arc_containment_on_random_partitions():
    rng = random.Random(42)
    changed = 0
    for _ in range(100):
        tree = gen_tree(rng.randint(2, 9), rng.randrange(10**9))
        cover = gen_cover(tree, rng.randrange(10**9))
        fam = gen_family(tree, rng.randint(1, 6), rng.randrange(10**9),
                         "covered-by", cover)
        partition, certificate = overlap_to_mixed(fam, cover)
        # The members of overlap_to_mixed's certificate nest along e2, and so
        # do those of e1_certificate's, maximal cliques of the complement of
        # (V, e1): mixing puts the head of every arc in each maximal clique
        # that holds its tail.  Padding the latter makes shrinking cut.
        e1_cert = e1_certificate(partition)
        for cert in (certificate, e1_cert, _padded(e1_cert)):
            shrunk = shrink_containments(cert, partition.e2)
            for u, v in partition.e2:
                assert shrunk.member(u) <= shrunk.member(v)
            for u in cert.names():
                successors = [cert.member(v) for t, v in partition.e2 if t == u]
                assert shrunk.member(u) == cert.member(u).intersection(*successors)
            assert derive_graph(shrunk, "disjointness") == derive_graph(
                cert, "disjointness"
            )
            if cert is certificate or cert is e1_cert:
                # an unchanged member keeps its vertex set
                assert all(a is b for (_, a), (_, b) in zip(
                    shrunk.members, cert.members))
            else:
                changed += shrunk != cert
                assert_marked_truly(
                    certificate, shrunk, mixed_to_bushy(partition, cert)
                )
    assert changed > 50


def test_shared_member_masks_are_never_mutated():
    def copy(f):
        return SubtreeFamily(Tree(f.host.vertices, f.host.edges), f.members)

    def outputs(f, r, arcs):
        return ([derive_graph(f, mode) for mode in MODES],
                overlap_to_mixed(f, r), shrink_containments(f, arcs))

    rng = random.Random(48)
    for _ in range(30):
        tree = gen_tree(rng.randint(2, 12), rng.randrange(10**9))
        cover = gen_cover(tree, rng.randrange(10**9))
        fam = gen_family(tree, rng.randint(1, 8), rng.randrange(10**9),
                         "covered-by", cover)
        partition = overlap_to_mixed(fam, cover)[0]
        # shrinking leaves fam as it is, and cuts the padded certificate
        padded = _padded(e1_certificate(partition))
        for f, r in ((fam, cover), (padded, padded.host.vertices)):
            first = outputs(f, r, partition.e2)
            assert outputs(f, r, partition.e2) == first
            assert first == outputs(copy(f), r, partition.e2)
            assert _member_masks(f) == _member_masks(copy(f))
        # the masks that shrinking and the bushy construction hand over are
        # those a fresh copy builds
        certificate = overlap_to_mixed(fam, cover)[1]
        for cert in (certificate, padded):
            for handed in (shrink_containments(cert, partition.e2),
                           mixed_to_bushy(partition, cert)):
                assert handed.__dict__["_member_masks"] == _member_masks(copy(handed))


def test_masks_are_built_once_per_record(monkeypatch):
    # a mask row is one map(bit.__getitem__, ...) in trees, or one of the
    # masks of a graphs._pair_masks call in graphs
    rows = Counter()
    pair_masks = treerep.graphs._pair_masks

    def counted_map(fn, *iterables):
        if getattr(fn, "__name__", None) == "__getitem__":
            rows["treerep.trees"] += 1
        return map(fn, *iterables)

    def counted_pair_masks(order, pairs):
        rows["treerep.graphs"] += len(order)
        return pair_masks(order, pairs)

    monkeypatch.setattr(treerep.trees, "map", counted_map, raising=False)
    monkeypatch.setattr(treerep.graphs, "_pair_masks", counted_pair_masks)

    tree = gen_tree(40, 5)
    cover = gen_cover(tree, 5)
    fam = gen_family(tree, 12, 5, "covered-by", cover)
    for mode in MODES:
        derive_graph(fam, mode)
    partition, certificate = overlap_to_mixed(fam, cover)
    assert rows == {"treerep.trees": 12}
    rows.clear()
    assert verify_mixed_partition(partition, certificate) == []
    treerep.mixed._shrink(certificate, partition.e2)
    assert rows == {"treerep.trees": 12}
    rows.clear()
    # on a fresh certificate, the bushy family and its derived graph reuse
    # the certificate's masks
    partition, certificate = overlap_to_mixed(fam, cover)
    derive_graph(mixed_to_bushy(partition, certificate), "overlap")
    assert rows == {"treerep.trees": 12}
    rows.clear()
    g = path_graph("abcdefghijkl")
    assert recognize(g, "interval").holds and recognize(g, "interval").holds
    assert rows == {"treerep.graphs": 12}


def test_a_round_trip_checks_only_the_callers_family(monkeypatch):
    checked = []
    real = treerep.trees.validate_family
    monkeypatch.setattr(
        treerep.trees, "validate_family", lambda f: checked.append(f) or real(f)
    )
    tree = gen_tree(40, 6)
    cover = gen_cover(tree, 6)
    fam = gen_family(tree, 12, 6, "covered-by", cover)
    derive_graph(fam, "overlap")
    partition, certificate = overlap_to_mixed(fam, cover)
    derive_graph(mixed_to_bushy(partition, certificate), "overlap")
    assert checked == [fam]
    # the library's certificate is taken on trust; a caller's is checked
    # once, and the family shrunk from it is built valid
    checked.clear()
    shrink_containments(certificate, partition.e2)
    assert checked == []
    padded = _padded(e1_certificate(partition))
    derive_graph(shrink_containments(padded, partition.e2), "overlap")
    assert checked == [padded]


def test_mixed_to_bushy_rebuilds_the_star_construction():
    base = complement(cycle_graph("1234"))
    partition = MixedPartition(
        base, frozenset(), frozenset({("1", "3"), ("2", "4")})
    )
    cert = SubtreeFamily.build(Tree.build("c", []), [(n, ["c"]) for n in "1234"])
    fam = mixed_to_bushy(partition, cert)
    assert derive_graph(fam, "overlap") == cycle_graph("1234")
    assert is_covering_subtree(fam, {"c"})
    assert bushiness(fam.host, {"c"}).bushy
    assert classify_tree(fam.host) >= {"star"}
    assert len(set(vs for _, vs in fam.members)) == 4  # pairwise distinct


def test_mixed_to_bushy_two_vertex_containment():
    base = SimpleGraph.build("ab", [("a", "b")])
    partition = MixedPartition(base, frozenset(), frozenset({("a", "b")}))
    cert = SubtreeFamily.build(Tree.build("r", []), [("a", ["r"]), ("b", ["r"])])
    fam = mixed_to_bushy(partition, cert)
    assert derive_graph(fam, "overlap").edges == frozenset()
    assert fam.member("a") < fam.member("b")


def test_mixed_to_bushy_rejects_failing_partitions():
    partition = MixedPartition(
        TWO_K2, frozenset({("1", "3"), ("2", "4")}), frozenset()
    )
    cert = SubtreeFamily.build(Tree.build("c", []), [(n, ["c"]) for n in "1234"])
    with pytest.raises(InputError):
        mixed_to_bushy(partition, cert)


def test_mixed_to_bushy_rejects_bad_input_with_the_verifiers_messages():
    root = Tree.build("r", [])
    path = Tree.build("abc", [("a", "b"), ("b", "c")])
    chain = MixedPartition(
        SimpleGraph.build("abc", [("a", "b"), ("b", "c")]),
        frozenset(),
        frozenset({("a", "b"), ("b", "c")}),
    )
    one_arc = MixedPartition(
        SimpleGraph.build("xyz", [("x", "y")]), frozenset(), frozenset({("x", "y")})
    )
    disagree = (
        "; internal-consistency: certificate check and cochordality recognition"
        " disagree (certificate=False, recognition=True)"
    )
    cases = [
        (chain, SubtreeFamily.build(root, [(n, ["r"]) for n in "abc"]),
         "not-transitive: a->b->c without a->c"),
        (one_arc,
         SubtreeFamily.build(path, [("x", ["a", "b"]), ("y", ["b"]), ("z", ["a", "c"])]),
         "e1-certificate: certificate is invalid: disconnected: member z = "
         "['a', 'c'] does not induce a subtree" + disagree),
        (one_arc,
         SubtreeFamily.build(path, [("x", ["a"]), ("y", ["a", "b"]), ("w", ["c"])]),
         "e1-certificate: certificate member names do not match the base "
         "vertices" + disagree),
    ]
    for partition, cert, message in cases:
        with pytest.raises(InputError) as info:
            mixed_to_bushy(partition, cert)
        assert str(info.value) == "not a verified mixed partition: " + message
    # z is disconnected, yet the disjointness graph is (V, e1), empty: only
    # the full check of the caller's certificate stands in the way
    cert = SubtreeFamily.build(
        path, [("x", ["a", "b"]), ("y", ["a", "b", "c"]), ("z", ["a", "c"])]
    )
    invalid = ("e1-certificate: certificate is invalid: disconnected: member z"
               " = ['a', 'c'] does not induce a subtree")
    for _ in range(2):  # a mark left by the first round would show in the second
        assert [str(v) for v in verify_mixed_partition(one_arc, cert)] == [
            invalid, disagree[2:]]
        with pytest.raises(InputError) as info:
            mixed_to_bushy(one_arc, cert)
        assert str(info.value) == "not a verified mixed partition: " + invalid + disagree
        with pytest.raises(InputError, match=r"member z = \['a', 'c'\]"):
            shrink_containments(cert, one_arc.e2)
        assert "_valid" not in cert.__dict__


def test_shrink_containments_keeps_each_of_its_own_errors():
    path = Tree.build("abc", [("a", "b"), ("b", "c")])
    fam = SubtreeFamily.build(path, [("t1", ["a"]), ("t2", ["c"]), ("t3", ["a", "b"])])
    cases = [
        ({("t1", "t2")}, "members t1 and t2 are disjoint despite arc t1->t2"),
        ({("t1", "zz")}, "arc ('t1', 'zz') references unknown members"),
        ({("t1", "t1")}, "arc set is not antisymmetric at ('t1', 't1')"),
        ({("t1", "t3"), ("t3", "t2")}, "arc set is not transitive: t1->t3->t2"),
    ]
    for arcs, message in cases:
        with pytest.raises(InputError) as info:
            shrink_containments(fam, arcs)
        assert str(info.value) == message
    with pytest.raises(InputError, match=r"not antisymmetric at \('t[13]', 't[13]'\)"):
        shrink_containments(fam, {("t1", "t3"), ("t3", "t1")})
    bad = SubtreeFamily.build(path, [("t1", ["a", "c"]), ("t2", ["b"])])
    for _ in range(2):
        with pytest.raises(InputError) as info:
            shrink_containments(bad, set())
        assert str(info.value) == (
            "disconnected: member t1 = ['a', 'c'] does not induce a subtree"
        )


# the per-entry checks that MixedPartition's bulk checks replaced
def reference_partition_checks(base, e1, e2):
    for u, v in e1:
        if (u, v) != edge_key(u, v):
            raise InputError(f"e1 pair {(u, v)!r} not in canonical order")
    pairs2 = [edge_key(u, v) for u, v in e2]
    if len(set(pairs2)) != len(pairs2):
        raise InputError("e2 contains both directions of some pair")
    if e1 & frozenset(pairs2):
        raise InputError("e1 and e2 share an edge")
    if e1 | frozenset(pairs2) != base.edges:
        raise InputError("e1 and e2 do not partition the base edge set")


def test_partition_checks_give_the_walks_first_error():
    rng = random.Random(19)
    labels = "abcd"
    base = SimpleGraph.build(labels, [("a", "b"), ("a", "c"), ("b", "c"), ("c", "d")])
    kinds = set()
    for _ in range(3000):
        e1, e2 = set(), set()
        for pair in base.edges:
            roll = rng.random()
            (e1 if roll < 0.5 else e2).add(pair if roll < 0.75 else pair[::-1])
        for _ in range(rng.choice((0, 0, 0, 1, 2))):
            size = rng.choice((2, 2, 2, 1, 3))
            extra = tuple(rng.choice(labels) for _ in range(size))
            rng.choice((e1, e2)).add(extra)
        if rng.random() < 0.2 and e1:
            e1.discard(rng.choice(sorted(e1)))
        e1, e2 = frozenset(e1), frozenset(e2)
        expected = failure(reference_partition_checks, base, e1, e2)
        assert failure(MixedPartition, base, e1, e2) == expected, (e1, e2)
        kinds.add(expected[1].split(" ")[0] if expected[1] else "ok")
    assert kinds == {"ok", "e1", "e2", "self-loop", "too", "not"}


def test_mixed_to_bushy_non_cover_vertices_are_pendant_leaves():
    rng = random.Random(43)
    for _ in range(60):
        tree = gen_tree(rng.randint(2, 8), rng.randrange(10**9))
        cover = gen_cover(tree, rng.randrange(10**9))
        fam = gen_family(tree, rng.randint(1, 5), rng.randrange(10**9),
                         "covered-by", cover)
        partition, certificate = overlap_to_mixed(fam, cover)
        rebuilt = mixed_to_bushy(partition, certificate)
        adj = rebuilt.host.adjacency()
        core = set(certificate.host.vertices)
        for v in rebuilt.host.vertices:
            if v not in core:
                assert len(adj[v]) == 1


def test_round_trip_reproduces_the_overlap_graph():
    rng = random.Random(44)
    for _ in range(100):
        tree = gen_tree(rng.randint(2, 9), rng.randrange(10**9))
        cover = gen_cover(tree, rng.randrange(10**9))
        fam = gen_family(tree, rng.randint(1, 6), rng.randrange(10**9),
                         "covered-by", cover)
        partition, certificate = overlap_to_mixed(fam, cover)
        rebuilt = mixed_to_bushy(partition, certificate)
        assert derive_graph(rebuilt, "overlap") == derive_graph(fam, "overlap")
        assert_marked_truly(
            certificate, shrink_containments(certificate, partition.e2), rebuilt
        )
        core = frozenset(certificate.host.vertices)
        assert is_covering_subtree(rebuilt, core)
        assert bushiness(rebuilt.host, core).bushy
        ok, _ = tree_isomorphic(
            induced_subtree(rebuilt.host, core), induced_subtree(tree, cover)
        )
        assert ok


def roundtrip_digest() -> str:
    """sha256 of overlap_to_mixed's partitions and certificates,
    mixed_to_bushy's families, and the violations of seeded mutants of each
    partition, on a seeded ladder of covered families."""

    def plain_family(f):
        return [list(f.host.vertices), sorted(f.host.edges),
                [[name, sorted(vs)] for name, vs in f.members]]

    ladder = [(6, 3, s) for s in range(12)] + [(20, 8, s) for s in range(12)]
    ladder += [(40, 16, 1), (100, 50, 1)]
    digest = hashlib.sha256()
    for n, k, seed in ladder:
        tree = gen_tree(n, seed)
        cover = gen_cover(tree, seed)
        fam = gen_family(tree, k, seed, "covered-by", cover)
        partition, certificate = overlap_to_mixed(fam, cover)
        padded = _padded(certificate)  # a certificate that shrinking cuts
        plain = [
            list(partition.base.vertices), sorted(partition.base.edges),
            sorted(partition.e1), sorted(partition.e2),
            plain_family(certificate),
            plain_family(mixed_to_bushy(partition, certificate)),
            plain_family(mixed_to_bushy(partition, padded)),
        ]
        # mutants: reverse an e2 arc (transitivity), move an e1 edge into e2
        # and an e2 arc into e1 (mixing, and the certificate's disjointness)
        rng = random.Random(seed)
        e1, e2 = sorted(partition.e1), sorted(partition.e2)
        mutants = []
        for _ in range(3):
            if e2:
                u, v = rng.choice(e2)
                mutants.append((partition.e1, partition.e2 - {(u, v)} | {(v, u)}))
                mutants.append((partition.e1 | {edge_key(u, v)},
                                partition.e2 - {(u, v)}))
            if e1:
                u, w = rng.choice(e1)
                arc = (u, w) if rng.random() < 0.5 else (w, u)
                mutants.append((partition.e1 - {(u, w)}, partition.e2 | {arc}))
        for m1, m2 in mutants:
            mutant = MixedPartition(partition.base, m1, m2)
            plain.append([str(x) for x in verify_mixed_partition(mutant)])
            plain.append(
                [str(x) for x in verify_mixed_partition(mutant, certificate)]
            )
        digest.update(json.dumps(plain, sort_keys=True).encode())
    return digest.hexdigest()


def test_roundtrip_outputs_are_frozen():
    # Regenerate (only for an intended change of the round trip's output) with
    #   PYTHONPATH=src python -c "import sys; sys.path[:0] = ['tests'];
    #   import test_mixed as t; print(t.roundtrip_digest())"
    assert roundtrip_digest() == (
        "2d01af3d9ef7954998a2b97be0008b314b985ff4d05380994235f83b214805f3"
    )


def verify_digest() -> tuple[str, Counter]:
    """sha256 of verify_mixed_partition's violations, code and detail in
    order, on the partitions search_mixed_partition finds for seeded 5- to
    7-vertex graphs (vertex order shuffled against label order) and on three
    corruptions of each: an e1 edge made an arc, an arc reversed, and an
    arc implied by two others moved to e1.  Each is checked with no
    certificate, with the found partition's e1_certificate, and with that
    certificate after one member is renamed.  Also the count of each code."""
    rng = random.Random(67)
    digest, codes = hashlib.sha256(), Counter()
    for _ in range(150):
        g = random_graph(rng, max_n=7, min_n=5, p=rng.choice([0.5, 0.7]))
        g = SimpleGraph(tuple(rng.sample(g.vertices, len(g.vertices))), g.edges)
        partition = search_mixed_partition(g).value
        certificate = e1_certificate(partition)
        first = certificate.names()[0]
        misnamed = SubtreeFamily.build(certificate.host, {
            "?" if n == first else n: vs for n, vs in certificate.members
        })
        e1, e2 = sorted(partition.e1), sorted(partition.e2)
        variants = [(partition.e1, partition.e2)]
        if e1:
            u, w = rng.choice(e1)
            arc = (u, w) if rng.random() < 0.5 else (w, u)
            variants.append((partition.e1 - {(u, w)}, partition.e2 | {arc}))
        if e2:
            u, v = rng.choice(e2)
            variants.append((partition.e1, partition.e2 - {(u, v)} | {(v, u)}))
        implied = [(u, w) for u, v in e2 for x, w in e2 if x == v]
        if implied:
            u, w = rng.choice(implied)
            variants.append((partition.e1 | {edge_key(u, w)}, partition.e2 - {(u, w)}))
        for m1, m2 in variants:
            mutant = MixedPartition(partition.base, m1, m2)
            for cert in (None, certificate, misnamed):
                found = [[x.code, x.detail] for x in verify_mixed_partition(mutant, cert)]
                codes.update(code for code, _ in found)
                digest.update(json.dumps(found).encode())
    return digest.hexdigest(), codes


def test_verify_outputs_are_frozen():
    # Regenerate (only for an intended change of the verifier's output) with
    #   PYTHONPATH=src python -c "import sys; sys.path[:0] = ['tests'];
    #   import test_mixed as t; print(t.verify_digest())"
    digest, codes = verify_digest()
    assert digest == "9f6410a4c27e2e26d10a5d699db4196fa9ecd1921b65fb9ce60690a26f3e420b"
    assert codes == {
        "mixing": 579, "e1-certificate": 516, "internal-consistency": 444,
        "not-transitive": 138, "e1-not-cochordal": 36,
    }


def test_path_covers_give_caterpillar_hosts():
    rng = random.Random(45)
    for _ in range(40):
        tree = gen_tree(rng.randint(2, 9), rng.randrange(10**9))
        cover = gen_cover(tree, rng.randrange(10**9), "path")
        fam = gen_family(tree, rng.randint(1, 6), rng.randrange(10**9),
                         "covered-by", cover)
        partition, certificate = overlap_to_mixed(fam, cover)
        rebuilt = mixed_to_bushy(partition, certificate)
        assert "caterpillar" in classify_tree(rebuilt.host)


def test_star_rep_from_orientation_examples():
    o = Orientation(TWO_K2, frozenset({("1", "3"), ("2", "4")}))
    fam = star_rep_from_orientation(o)
    assert fam.as_dict() == {
        "1": {"c", "1"},
        "2": {"c", "2"},
        "3": {"c", "1", "3"},
        "4": {"c", "2", "4"},
    }
    assert derive_graph(fam, "overlap") == cycle_graph("1234")
    assert is_covering_subtree(fam, {"c"})

    complete = SimpleGraph.build("xyz", [("x", "y"), ("x", "z"), ("y", "z")])
    o2 = Orientation(complement(complete), frozenset())
    fam2 = star_rep_from_orientation(o2)
    assert all(vs == {"c", n} for n, vs in fam2.members)
    assert derive_graph(fam2, "overlap") == complete

    p4 = path_graph("1234")
    o3 = Orientation(
        complement(p4), frozenset({("3", "1"), ("4", "1"), ("4", "2")})
    )
    assert derive_graph(star_rep_from_orientation(o3), "overlap") == p4


def hand_built_star(o):
    """The star representation written out by hand: every member holds the
    centre, its own leaf and the leaves of its predecessors."""
    names = o.graph.vertices
    centre = "c"
    k = 0
    while centre in names:
        k += 1
        centre = f"c#{k}"
    host = Tree(
        (centre,) + tuple(names),
        frozenset(edge_key(centre, n) for n in names),
    )
    predecessors = {n: set() for n in names}
    for u, v in o.arcs:
        predecessors[v].add(u)
    members = tuple(
        (n, frozenset({centre, n}) | predecessors[n]) for n in names
    )
    return SubtreeFamily(host, members)


def test_star_rep_equals_the_hand_built_star_on_five_vertices():
    checked = 0
    for g in all_graphs(5):
        result = recognize(g, "cocomparability")
        if result.holds:
            o = result.witness.payload
            assert star_rep_from_orientation(o) == hand_built_star(o), g
            checked += 1
    assert checked == 1087


def e1_certificate_digest() -> str:
    """Check that the certificate of the searched partition of every graph
    on up to five vertices rebuilds the graph, and return the sha256 of the
    certificates: host vertices, host edges and members."""
    digest = hashlib.sha256()
    for g in all_graphs(5):
        result = search_mixed_partition(g)
        assert result.found, g
        p = result.value
        cert = e1_certificate(p)
        assert derive_graph(cert, "disjointness").edges == p.e1, g
        bushy = mixed_to_bushy(p, cert)
        assert derive_graph(bushy, "overlap") == g
        # the search with no shape builds its family from this certificate
        assert search_overlap_rep(g).value == bushy, g
        assert recognize(SimpleGraph(g.vertices, p.e1), "cochordal").holds, g
        host = cert.host
        members = [(name, sorted(vs)) for name, vs in cert.members]
        plain = [host.vertices, sorted(host.edges), members]
        digest.update(json.dumps(plain).encode())
    return digest.hexdigest()


def test_e1_certificate_rebuilds_every_graph_on_five_vertices():
    # Regenerate (only for an intended change of the certificates) with
    #   PYTHONPATH=src python -c "import sys; sys.path[:0] = ['tests'];
    #   import test_mixed as t; print(t.e1_certificate_digest())"
    assert e1_certificate_digest() == (
        "5aadfc4d096fb0642195f48184df284142653a1293f796245ce60e9f954fccc4"
    )


def test_e1_certificate_is_the_clique_tree_of_the_complement():
    # e1 = the path 1-2-3-4: its complement has the maximal cliques 13, 14, 24
    p = MixedPartition(
        path_graph("1234"), frozenset({("1", "2"), ("2", "3"), ("3", "4")}),
        frozenset(),
    )
    cert = e1_certificate(p)
    assert cert.names() == ("1", "2", "3", "4")
    cliques = {frozenset(n for n, vs in cert.members if k in vs)
               for k in cert.host.vertices}
    assert cliques == {frozenset("13"), frozenset("14"), frozenset("24")}
    assert "path" in classify_tree(cert.host)


def test_e1_certificate_refuses_an_e1_that_is_not_cochordal():
    p = MixedPartition(TWO_K2, frozenset({("1", "3"), ("2", "4")}), frozenset())
    assert failure(e1_certificate, p) == (
        "InputError", "(V, e1) is not cochordal, so it has no certificate"
    )


def test_star_rep_rejects_non_transitive_orientations():
    comp = complement(path_graph("1234"))
    bad = Orientation(comp, frozenset({("1", "3"), ("4", "1"), ("4", "2")}))
    with pytest.raises(InputError):
        star_rep_from_orientation(bad)


def test_star_rep_centre_label_avoids_collisions():
    g = SimpleGraph.build(["c", "d"], [("c", "d")])
    o = Orientation(complement(g), frozenset())
    fam = star_rep_from_orientation(o)
    assert len(set(fam.host.vertices)) == 3


def test_shared_vertex_families_are_realized_by_star_reps():
    rng = random.Random(46)
    for _ in range(60):
        fam = random_family(rng, max_host=9, max_members=6, mode="shared-vertex")
        g = derive_graph(fam, "overlap")
        result = recognize(g, "cocomparability")
        assert result.holds
        back = star_rep_from_orientation(result.witness.payload)
        assert derive_graph(back, "overlap") == g


def test_e1_certificate_of_the_empty_partition_is_one_bare_vertex():
    p = MixedPartition(SimpleGraph((), frozenset()), frozenset(), frozenset())
    cert = e1_certificate(p)
    assert cert.host == Tree(("k1",), frozenset())
    assert cert.members == ()
    family = mixed_to_bushy(p, cert)
    assert family.members == () and derive_graph(family, "overlap") == p.base
