import random
from collections import deque

import pytest
from helpers import nx_graph, path_tree, star_tree
from hypothesis import given, settings
from hypothesis import strategies as st

from treerep import (
    InputError,
    PairRelation,
    SubdivisionStep,
    SubtreeFamily,
    Tree,
    Violation,
    add_leaf,
    bushiness,
    classify_pair,
    classify_sets,
    classify_tree,
    gen_cover,
    gen_family,
    gen_tree,
    induced_subtree,
    induces_subtree,
    is_covering_subtree,
    is_subdivision_of,
    minimal_covering_subtree,
    mixed_to_bushy,
    normalize,
    overlap_to_mixed,
    replay,
    similarly_related,
    smooth,
    subdivide_edge,
    subtree_leaves,
    tree_isomorphic,
    tree_path,
    validate_family,
)
from treerep.shapes import tree_centers


def test_tree_validation():
    with pytest.raises(InputError, match="^tree needs 2 edges for 3 vertices, got 1$"):
        Tree.build("abc", [("a", "b")])  # disconnected
    with pytest.raises(InputError, match="^tree needs 2 edges for 3 vertices, got 3$"):
        Tree.build("abc", [("a", "b"), ("b", "c"), ("a", "c")])  # cycle
    with pytest.raises(InputError, match="^a tree has at least one vertex$"):
        Tree.build([], [])
    # n - 1 edges, but a cycle leaves d out: only the walk can tell
    with pytest.raises(InputError, match="^tree is not connected$"):
        Tree.build("abcd", [("a", "b"), ("b", "c"), ("a", "c")])
    assert path_tree("a").leaves() == frozenset()
    assert path_tree("ab").leaves() == {"a", "b"}


def built_trees():
    """Fresh trees from the generator and from the transforms that grow a host."""
    for n in (1, 2, 60, 500):
        yield gen_tree(n, n + 7)
    host = gen_tree(40, 11)
    result = normalize(gen_family(host, 12, 12))
    yield result.preprocessed_host
    yield result.family.host
    cover = gen_cover(host, 13)
    fam = gen_family(host, 12, 14, "covered-by", cover)
    partition, certificate = overlap_to_mixed(fam, cover)
    yield certificate.host
    yield mixed_to_bushy(partition, certificate).host


def test_a_tree_builds_its_adjacency_only_when_asked():
    for t in built_trees():
        assert "_adjacency" not in t.__dict__
        nbrs = {v: set() for v in t.vertices}
        for u, v in t.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        assert t.adjacency() == nbrs
        assert t.adjacency() is t.adjacency()  # cached on the first call
        root = t.vertices[0]
        assert t._parent[root] is None
        for v in t.vertices[1:]:
            assert t._parent[v] == tree_path(t, root, v)[-2]
        order = {v: i for i, v in enumerate(t._parent)}  # parents come first
        assert all(order[p] < order[v] for v, p in t._parent.items() if p is not None)
    # the transforms read the input host's neighbour lists, not its adjacency
    made = gen_family(gen_tree(40, 11), 12, 12)
    transcript = normalize(made).transcript
    u, v = sorted(made.host.edges)[0]
    for grow in (
        normalize,
        lambda f: add_leaf(f, u, "new"),
        lambda f: subdivide_edge(f, SubdivisionStep(u, v, "new")),
        lambda f: replay(f, transcript),
    ):
        fam = SubtreeFamily(Tree(made.host.vertices, made.host.edges), made.members)
        grow(fam)
        assert "_adjacency" not in fam.host.__dict__


def test_validate_family_reports_disconnected_members():
    host = path_tree("abc")
    fam = SubtreeFamily.build(host, [("m", ["a", "c"])])
    [violation] = validate_family(fam)
    assert violation.code == "disconnected"
    assert "m" in violation.detail


def test_require_valid_checks_a_family_until_it_passes(monkeypatch):
    from treerep import trees

    calls = []
    real = trees.validate_family
    monkeypatch.setattr(
        trees, "validate_family", lambda f: calls.append(f) or real(f)
    )
    host = Tree.build("abc", [("a", "b"), ("b", "c")])
    bad = SubtreeFamily.build(host, [("t1", ["a", "c"])])
    for _ in range(3):
        with pytest.raises(InputError, match=r"member t1 = \['a', 'c'\]"):
            trees.require_valid(bad)
    assert len(calls) == 3
    good = SubtreeFamily.build(host, [("t1", ["a", "b"])])
    for _ in range(3):
        trees.require_valid(good)
    assert len(calls) == 4
    # an equal family is a different object and is checked afresh
    trees.require_valid(SubtreeFamily.build(host, [("t1", ["a", "b"])]))
    assert len(calls) == 5


def test_validate_family_accepts_adjacent_intervals():
    host = path_tree("abc")
    fam = SubtreeFamily.build(host, [("t1", ["a", "b"]), ("t2", ["b", "c"])])
    assert validate_family(fam) == []


def test_validate_family_reports_unknown_vertices_without_crashing():
    host = path_tree("ab")
    fam = SubtreeFamily.build(host, [("m", ["a", "z"]), ("n", [])])
    codes = {v.code for v in validate_family(fam)}
    assert codes == {"unknown-vertex", "empty-member"}


def reference_violations(fam):
    """validate_family's verdicts, recomputed by a search from each member's
    label-least vertex."""
    adj = fam.host.adjacency()
    out = []
    for name, vs in fam.members:
        unknown = vs - set(fam.host.vertices)
        if unknown:
            out.append(Violation(
                "unknown-vertex",
                f"member {name} references unknown vertices {sorted(unknown)}",
            ))
            continue
        if not vs:
            out.append(Violation("empty-member", f"member {name} is empty"))
            continue
        seen = {min(vs)}
        stack = [min(vs)]
        while stack:
            for u in adj[stack.pop()] & vs:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        if seen != vs:
            out.append(Violation(
                "disconnected",
                f"member {name} = {sorted(vs)} does not induce a subtree",
            ))
    return out


def test_validate_family_matches_a_search_on_random_subsets():
    rng = random.Random(43)
    kinds = {"connected": 0, "disconnected": 0, "empty": 0, "unknown": 0}
    for _ in range(200):
        tree = gen_tree(rng.randint(1, 60), rng.randrange(10**6))
        vertices = list(tree.vertices)
        rng.shuffle(vertices)
        host = Tree(tuple(vertices), tree.edges)
        grown = gen_family(host, rng.randint(1, 6), rng.randrange(10**6))
        members = list(grown.members)
        for i in range(rng.randint(0, 6)):
            members.append((f"r{i}", frozenset(
                rng.sample(vertices, rng.randint(1, len(vertices)))
            )))
        if rng.random() < 0.3:
            members.append(("empty", frozenset()))
        if rng.random() < 0.3:
            members.append(("unknown", frozenset({vertices[0], "zz"})))
        rng.shuffle(members)
        fam = SubtreeFamily(host, tuple(members))
        want = reference_violations(fam)
        assert validate_family(fam) == want
        for name, vs in members:
            if vs and vs <= set(vertices):
                single = SubtreeFamily(host, ((name, vs),))
                assert induces_subtree(host, vs) == (not reference_violations(single))
        codes = [v.code for v in want]
        kinds["connected"] += len(members) - len(codes)
        kinds["disconnected"] += codes.count("disconnected")
        kinds["empty"] += codes.count("empty-member")
        kinds["unknown"] += codes.count("unknown-vertex")
    assert min(kinds.values()) > 20, kinds


def reference_path(tree, a, b):
    """The a-b path read off a breadth-first search from a."""
    adj = tree.adjacency()
    parent = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        for u in adj[v] - parent.keys():
            parent[u] = v
            queue.append(u)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


def test_tree_path_matches_a_breadth_first_search():
    rng = random.Random(47)
    for _ in range(200):
        t = gen_tree(rng.randint(1, 40), rng.randrange(10**6))
        adj = t.adjacency()
        a, b = rng.choice(t.vertices), rng.choice(t.vertices)
        path = tree_path(t, a, b)
        assert path == reference_path(t, a, b)
        assert (path[0], path[-1]) == (a, b)
        assert all(v in adj[u] for u, v in zip(path, path[1:]))


def test_member_names_must_be_distinct():
    with pytest.raises(InputError):
        SubtreeFamily.build(path_tree("ab"), [("m", ["a"]), ("m", ["b"])])


def test_classify_pair_examples():
    host = path_tree("abc")
    fam = SubtreeFamily.build(host, [("t1", ["a", "b"]), ("t2", ["b", "c"])])
    assert classify_pair(fam, "t1", "t2") is PairRelation.OVERLAP

    star = star_tree("c", ["l1", "l2", "l3"])
    fam2 = SubtreeFamily.build(
        star, [("small", ["c", "l1"]), ("big", ["c", "l1", "l3"])]
    )
    assert classify_pair(fam2, "small", "big") is PairRelation.FIRST_IN_SECOND
    assert classify_pair(fam2, "big", "small") is PairRelation.SECOND_IN_FIRST

    fam3 = SubtreeFamily.build(path_tree("a"), [("x", ["a"]), ("y", ["a"])])
    assert classify_pair(fam3, "x", "y") is PairRelation.EQUAL
    with pytest.raises(InputError):
        classify_pair(fam3, "x", "missing")


def test_exactly_one_relation_holds_per_pair():
    rng = random.Random(11)
    tags = set()
    for _ in range(300):
        t = gen_tree(rng.randint(1, 9), rng.randrange(10**9))
        subs = sorted(
            {
                frozenset(tree_path(t, rng.choice(t.vertices), rng.choice(t.vertices)))
                for _ in range(2)
            }
        )
        a = subs[0]
        b = subs[-1]
        rel = classify_sets(a, b)
        tags.add(rel)
        others = set(PairRelation) - {rel}
        # recompute by first principles
        expected = (
            PairRelation.DISJOINT
            if not a & b
            else PairRelation.EQUAL
            if a == b
            else PairRelation.FIRST_IN_SECOND
            if a < b
            else PairRelation.SECOND_IN_FIRST
            if b < a
            else PairRelation.OVERLAP
        )
        assert rel is expected and rel not in others


def test_classify_is_symmetric_up_to_swapping_containment_tags():
    swap = {
        PairRelation.FIRST_IN_SECOND: PairRelation.SECOND_IN_FIRST,
        PairRelation.SECOND_IN_FIRST: PairRelation.FIRST_IN_SECOND,
    }
    rng = random.Random(12)
    for _ in range(200):
        t = gen_tree(rng.randint(1, 8), rng.randrange(10**9))
        a = frozenset(tree_path(t, rng.choice(t.vertices), rng.choice(t.vertices)))
        b = frozenset(tree_path(t, rng.choice(t.vertices), rng.choice(t.vertices)))
        r1, r2 = classify_sets(a, b), classify_sets(b, a)
        assert r2 is swap.get(r1, r1)


def test_similarly_related_table():
    assert similarly_related(PairRelation.OVERLAP, PairRelation.OVERLAP)
    assert similarly_related(PairRelation.FIRST_IN_SECOND, PairRelation.EQUAL)
    assert similarly_related(PairRelation.SECOND_IN_FIRST, PairRelation.EQUAL)
    assert not similarly_related(PairRelation.DISJOINT, PairRelation.OVERLAP)
    assert not similarly_related(PairRelation.OVERLAP, PairRelation.EQUAL)
    assert similarly_related(PairRelation.DISJOINT, PairRelation.DISJOINT)


def test_covering_subtree_examples():
    star = star_tree("c", ["l1", "l2", "l3", "l4"])
    fam = SubtreeFamily.build(
        star,
        [
            ("t1", ["c", "l1"]),
            ("t2", ["c", "l2"]),
            ("t3", ["c", "l1", "l3"]),
            ("t4", ["c", "l2", "l4"]),
        ],
    )
    assert is_covering_subtree(fam, {"c"})
    assert is_covering_subtree(fam, set(star.vertices))

    host = path_tree("abcd")
    fam2 = SubtreeFamily.build(host, [("m", ["a"]), ("n", ["c", "d"])])
    assert not is_covering_subtree(fam2, {"a"})
    with pytest.raises(InputError):
        is_covering_subtree(fam2, set())
    with pytest.raises(InputError):
        is_covering_subtree(fam2, {"a", "c"})


def test_is_covering_subtree_reads_an_iterator_once():
    tree = gen_tree(10, 1)
    fam = gen_family(tree, 4, 1, "free")
    assert is_covering_subtree(fam, frozenset(tree.vertices))
    assert is_covering_subtree(fam, (v for v in tree.vertices))


def test_minimal_cover_when_members_share_a_vertex():
    star = star_tree("c", ["l1", "l2"])
    fam = SubtreeFamily.build(
        star, [("t1", ["c", "l1"]), ("t2", ["c", "l2"]), ("t3", ["c"])]
    )
    assert minimal_covering_subtree(fam) == {"c"}


def test_minimal_cover_of_whole_host_member_is_one_vertex():
    t = path_tree("abc")
    fam = SubtreeFamily.build(t, [("all", ["a", "b", "c"])])
    assert len(minimal_covering_subtree(fam)) == 1


def test_minimal_cover_is_minimal_and_covering():
    rng = random.Random(13)
    for _ in range(150):
        t = gen_tree(rng.randint(2, 10), rng.randrange(10**9))
        fam = SubtreeFamily.build(
            t,
            [
                (
                    f"t{i}",
                    frozenset(
                        tree_path(t, rng.choice(t.vertices), rng.choice(t.vertices))
                    ),
                )
                for i in range(1, rng.randint(2, 6))
            ],
        )
        cover = minimal_covering_subtree(fam)
        assert is_covering_subtree(fam, cover)
        adj = t.adjacency()
        for v in sorted(cover):
            if len(cover) > 1 and len(adj[v] & cover) <= 1:
                assert not all(
                    (cover - {v}) & vs for _, vs in fam.members
                ), f"leaf {v} was removable"


def greedy_cover(fam: SubtreeFamily) -> frozenset:
    """The cover by a full rescan per deletion: the label-least removable
    leaf goes first, and the scan restarts after every removal."""
    adj = fam.host.adjacency()
    current = set(fam.host.vertices)
    sets = [vs for _, vs in fam.members]
    while len(current) > 1:
        for v in sorted(current):
            if len(adj[v] & current) <= 1:
                shrunk = current - {v}
                if all(shrunk & vs for vs in sets):
                    current = shrunk
                    break
        else:
            break
    return frozenset(current)


def test_minimal_cover_matches_the_greedy_rescan():
    rng = random.Random(14)
    modes = ("free", "shared-vertex", "covered-by")
    for i in range(300):
        mode = modes[i % 3]
        t = gen_tree(rng.randint(1, 30), rng.randrange(10**9))
        cover = gen_cover(t, rng.randrange(10**9)) if mode == "covered-by" else None
        fam = gen_family(t, rng.randint(0, 8), rng.randrange(10**9), mode, cover)
        assert minimal_covering_subtree(fam) == greedy_cover(fam)
    k1 = Tree.build(["a"], [])
    k2 = path_tree("ab")
    for fam in (
        SubtreeFamily.build(k1, []),
        SubtreeFamily.build(k1, [("t1", ["a"])]),
        SubtreeFamily.build(k2, []),
        SubtreeFamily.build(k2, [("t1", ["b"])]),
        SubtreeFamily.build(k2, [("t1", ["a"]), ("t2", ["b"])]),
        SubtreeFamily.build(k2, [("t1", ["a", "b"]), ("t2", ["b"])]),
    ):
        assert minimal_covering_subtree(fam) == greedy_cover(fam)
    assert minimal_covering_subtree(SubtreeFamily.build(k2, [])) == {"b"}
    assert minimal_covering_subtree(
        SubtreeFamily.build(k2, [("t1", ["a"]), ("t2", ["b"])])
    ) == {"a", "b"}


def test_bushiness_distinguishes_internal_and_leaf_outside_neighbours():
    # u's outside neighbour has degree 2, v's outside neighbour is a leaf
    host = Tree.build(
        ["u", "v", "m", "a", "b", "w"],
        [("u", "m"), ("m", "v"), ("u", "a"), ("a", "b"), ("v", "w")],
    )
    report = bushiness(host, {"u", "m", "v"})
    per_vertex = report.per_vertex()
    assert per_vertex == {"u": False, "m": True, "v": True}
    assert not report.bushy
    assert dict(report.blockers)["u"] == ("a",)


def test_whole_host_is_vacuously_bushy():
    t = gen_tree(7, 3)
    assert bushiness(t, set(t.vertices)).bushy


def test_core_plus_pendant_leaves_is_bushy():
    core = gen_tree(6, 4)
    vertices = list(core.vertices)
    edges = list(core.edges)
    for i, v in enumerate(core.vertices):
        vertices.append(f"p{i}")
        edges.append((v, f"p{i}"))
    host = Tree.build(vertices, edges)
    assert bushiness(host, set(core.vertices)).bushy


def test_smooth_path_and_subdivided_star():
    assert smooth(path_tree("abcde")) == Tree.build("ae", [("a", "e")])
    host = Tree.build(
        ["c", "m1", "m2", "m3", "l1", "l2", "l3"],
        [("c", "m1"), ("c", "m2"), ("c", "m3"),
         ("m1", "l1"), ("m2", "l2"), ("m3", "l3")],
    )
    assert smooth(host) == star_tree("c", ["l1", "l2", "l3"])
    assert smooth(path_tree("a")) == path_tree("a")
    assert smooth(path_tree("ab")) == path_tree("ab")


@given(st.integers(1, 12), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_smooth_is_idempotent(n, seed):
    t = gen_tree(n, seed)
    assert smooth(smooth(t)) == smooth(t)


def test_tree_isomorphism_basics():
    ok, mapping = tree_isomorphic(path_tree("abc"), path_tree("xyz"))
    assert ok and mapping["b"] == "y"
    ok, mapping = tree_isomorphic(star_tree("c", ["x", "y", "z"]), path_tree("abcd"))
    assert not ok and mapping is None


def test_isomorphism_mapping_is_checked_edge_by_edge():
    rng = random.Random(14)
    for _ in range(300):
        t = gen_tree(rng.randint(1, 10), rng.randrange(10**9))
        relabel = {v: f"w{i}" for i, v in enumerate(t.vertices)}
        shuffled = list(relabel.values())
        rng.shuffle(shuffled)
        relabel = dict(zip(relabel, shuffled))
        other = Tree.build(
            sorted(relabel.values()),
            [(relabel[u], relabel[v]) for u, v in t.edges],
        )
        ok, mapping = tree_isomorphic(t, other)
        assert ok
        assert sorted(mapping) == sorted(t.vertices)
        assert sorted(mapping.values()) == sorted(other.vertices)
        mapped = {tuple(sorted((mapping[u], mapping[v]))) for u, v in t.edges}
        assert mapped == other.edges


def test_subdivision_basics():
    assert is_subdivision_of(path_tree("abcde"), path_tree("xy"))
    assert not is_subdivision_of(path_tree("xy"), path_tree("abc"))
    assert is_subdivision_of(path_tree("a"), path_tree("b"))
    assert not is_subdivision_of(path_tree("abc"), path_tree("z"))
    assert not is_subdivision_of(path_tree("z"), path_tree("abc"))
    # stretching one branch of a star is a subdivision; adding a branch is not
    assert is_subdivision_of(
        Tree.build("cxyzw", [("c", "x"), ("c", "y"), ("c", "z"), ("z", "w")]),
        star_tree("s", ["1", "2", "3"]),
    )
    assert not is_subdivision_of(
        star_tree("s", ["1", "2", "3", "4"]), star_tree("s", ["1", "2", "3"])
    )


def test_mutual_subdivision_implies_isomorphism():
    rng = random.Random(15)
    for _ in range(100):
        r = gen_tree(rng.randint(1, 7), rng.randrange(10**9))
        t = _subdivide_randomly(r, rng, rng.randint(0, 4))
        assert is_subdivision_of(t, r)
        if is_subdivision_of(r, t):
            assert tree_isomorphic(t, r)[0]


def _subdivide_randomly(t: Tree, rng: random.Random, times: int) -> Tree:
    for i in range(times):
        if not t.edges:
            break
        u, v = sorted(t.edges)[rng.randrange(len(t.edges))]
        x = f"s{i}"
        t = Tree(
            t.vertices + (x,),
            (t.edges - {(u, v)})
            | {tuple(sorted((u, x))), tuple(sorted((x, v)))},
        )
    return t


def test_classify_tree_shapes():
    assert classify_tree(path_tree("abcd")) == {"path", "caterpillar"}
    assert classify_tree(star_tree("c", ["1", "2", "3", "4"])) == {
        "star",
        "caterpillar",
    }
    spider = Tree.build(
        ["c", "m1", "m2", "m3", "l1", "l2", "l3"],
        [("c", "m1"), ("c", "m2"), ("c", "m3"),
         ("m1", "l1"), ("m2", "l2"), ("m3", "l3")],
    )
    assert classify_tree(spider) == {"general"}
    assert classify_tree(path_tree("a")) == {"trivial", "path", "star", "caterpillar"}
    assert classify_tree(path_tree("ab")) == {
        "single-edge",
        "path",
        "star",
        "caterpillar",
    }
    labels = [f"v{i}" for i in range(20_000)]
    assert classify_tree(path_tree(labels)) == {"path", "caterpillar"}
    # a spine of 10,000 vertices with one leg each
    spine, legs = labels[:10_000], labels[10_000:]
    edges = list(zip(spine, spine[1:])) + list(zip(spine, legs))
    assert classify_tree(Tree.build(labels, edges)) == {"caterpillar"}


def test_tree_centers_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    trees = [gen_tree(rng.randint(1, 60), rng.randrange(10**9)) for _ in range(300)]
    trees += [path_tree([f"v{i:02d}" for i in range(n)]) for n in range(1, 12)]
    for t in trees:
        assert tree_centers(t) == sorted(nx.center(nx_graph(t))), t
    long_path = path_tree([f"v{i:05d}" for i in range(20_000)])
    assert tree_centers(long_path) == ["v09999", "v10000"]


@given(st.integers(1, 12), st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_paths_and_stars_are_caterpillars(n, seed):
    tags = classify_tree(gen_tree(n, seed))
    if "path" in tags or "star" in tags:
        assert "caterpillar" in tags
    if "general" in tags:
        assert tags == {"general"}


def test_subtree_leaves_counts_singletons():
    t = path_tree("abc")
    assert subtree_leaves(t, frozenset("abc")) == {"a", "c"}
    assert subtree_leaves(t, frozenset("b")) == {"b"}
    assert subtree_leaves(t, frozenset(["a", "b"])) == {"a", "b"}


def test_induced_subtree_preserves_order_and_rejects_disconnected():
    t = path_tree("abcd")
    sub = induced_subtree(t, {"b", "c"})
    assert sub.vertices == ("b", "c")
    with pytest.raises(InputError):
        induced_subtree(t, {"a", "c"})
