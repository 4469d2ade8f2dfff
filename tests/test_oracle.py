import random
from itertools import combinations, count

import pytest
from helpers import (K1, K2, K13, NO_MIXED_PARTITION, P3, P4, all_graphs, answers_digest,
                     atlas, checks, cycle_graph, path_shape, random_graph, represents,
                     spider_shape, star_shape)
from oracles import connected_subsets, host_search, hosts_from_parent_sequences

from treerep import (
    DeskScaleError,
    MixedPartition,
    SearchBudget,
    SimpleGraph,
    SubtreeFamily,
    Tree,
    canonical_code,
    complement,
    derive_graph,
    e1_certificate,
    edge_key,
    enumerate_chordless_cycles,
    fixtures,
    gen_cover,
    gen_family,
    gen_tree,
    induced_subtree,
    is_covering_subtree,
    mixed_to_bushy,
    recognize,
    search_mixed_partition,
    search_overlap_rep,
    tree_isomorphic,
    verify_mixed_partition,
)


def test_cycle4_has_one_chordless_cycle():
    assert enumerate_chordless_cycles(cycle_graph("1234")) == [("1", "2", "3", "4")]


def test_trees_have_no_chordless_cycles():
    for n, seed in [(1, 0), (5, 1), (9, 2)]:
        t = gen_tree(n, seed)
        assert enumerate_chordless_cycles(SimpleGraph(t.vertices, t.edges)) == []


def test_chordless_cycles_listed_once_up_to_rotation_reflection():
    g = cycle_graph("123456")
    assert enumerate_chordless_cycles(g) == [("1", "2", "3", "4", "5", "6")]
    wheel_rim = cycle_graph("12345")
    assert enumerate_chordless_cycles(wheel_rim) == [("1", "2", "3", "4", "5")]


def test_chordless_cycle_enumeration_is_capped():
    big = SimpleGraph.build([str(i) for i in range(11)], [])
    with pytest.raises(DeskScaleError):
        enumerate_chordless_cycles(big)


def _canonical_cycle(cycle) -> tuple[str, ...]:
    """``cycle`` rotated to its least vertex, then read towards the lesser
    of that vertex's two neighbours."""
    k = cycle.index(min(cycle))
    cycle = cycle[k:] + cycle[:k]
    return tuple(cycle if cycle[1] < cycle[-1] else cycle[:1] + cycle[:0:-1])


def test_chordless_cycles_agree_with_networkx():
    pytest.importorskip("networkx")
    rng = random.Random(83)
    graphs = atlas(6, 1)
    for _ in range(100):
        g = random_graph(rng, max_n=10, min_n=8, p=rng.choice([0.3, 0.5]))
        # vertex order against label order: "10" sorts before "2"
        graphs.append(SimpleGraph(tuple(rng.sample(g.vertices, len(g.vertices))), g.edges))
    # bit i of a mask is the i-th label, not the i-th vertex
    graphs.append(SimpleGraph.build("fdbeac", [
        ("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("c", "e"), ("e", "f"),
        ("f", "d"),
    ]))
    assert len(graphs) == 309
    for g in graphs:
        cycles = enumerate_chordless_cycles(g)
        # the same cycles as networkx's, each an induced cycle in its order
        assert checks().chordless_cycle_problems(g.vertices, g.edges, cycles) == []
        # so each set has one canonical tuple: these must be it, sorted
        assert cycles == sorted(map(_canonical_cycle, cycles))
    assert enumerate_chordless_cycles(graphs[-1]) == [
        ("a", "b", "c", "d"), ("c", "d", "f", "e"),
    ]


def test_chordal_recognition_agrees_with_the_oracle():
    rng = random.Random(51)
    for _ in range(300):
        g = random_graph(rng, max_n=6)
        cycles = enumerate_chordless_cycles(g)
        assert recognize(g, "chordal").holds == (not cycles)


def test_search_mixed_partition_on_cycle4():
    result = search_mixed_partition(cycle_graph("1234"))
    assert result.found
    partition = result.value
    assert verify_mixed_partition(partition) == []
    assert partition.base.edges == {("1", "3"), ("2", "4")}


def test_search_mixed_partition_on_complete_graph_is_trivial():
    complete = SimpleGraph.build(
        "abcd", [(u, v) for u, v in combinations("abcd", 2)]
    )
    result = search_mixed_partition(complete)
    assert result.found
    assert result.value.e1 == frozenset() and result.value.e2 == frozenset()


def test_search_mixed_partition_is_deterministic():
    g = cycle_graph("12345")
    first = search_mixed_partition(g)
    second = search_mixed_partition(g)
    assert first.found and second.found
    assert first.value == second.value


def test_search_mixed_partition_enforces_preconditions():
    assert search_mixed_partition(SimpleGraph.build(map(str, range(9)), [])).found
    # one vertex over the cap is refused, however few edges the complement has
    for edges in ([], combinations(map(str, range(10)), 2)):
        g = SimpleGraph.build(map(str, range(10)), edges)
        with pytest.raises(DeskScaleError, match="capped at 9 vertices"):
            search_mixed_partition(g)


def _bipartition_search(g):
    """The mixed-partition search as it was before the three-way search:
    every bipartition of the sorted complement edges in binary counting
    order (bit set = oriented), each oriented block searched for a
    transitive orientation that respects mixing against e1.  No caps."""
    comp = complement(g)
    comp_edges = sorted(comp.edges)
    m = len(comp_edges)
    for mask in range(1 << m):
        e2_pairs = [comp_edges[i] for i in range(m) if mask >> i & 1]
        e1 = frozenset(comp_edges[i] for i in range(m) if not mask >> i & 1)
        arcs = _orient_block(g.vertices, e1, e2_pairs)
        if arcs is not None and recognize(SimpleGraph(g.vertices, e1), "cochordal"):
            return MixedPartition(comp, e1, arcs)
    return None


def _orient_block(vertices, e1, pairs):
    e1_nbrs = {v: set() for v in vertices}
    for a, b in e1:
        e1_nbrs[a].add(b)
        e1_nbrs[b].add(a)
    options = []
    for u, v in pairs:
        # u->v is admissible only if every e1 neighbour of v is one of u's
        dirs = [(t, h) for t, h in ((u, v), (v, u)) if e1_nbrs[h] <= e1_nbrs[t] | {t}]
        if not dirs:
            return None
        options.append(dirs)
    pair_set = set(pairs)
    chosen = {}

    def available(a, b):
        return a != b and edge_key(a, b) in pair_set and (
            chosen.get(edge_key(a, b), (a, b)) == (a, b)
        )

    def solve(idx):
        if idx == len(options):
            arcs = frozenset(chosen.values())
            if any(b == c and a != d and (a, d) not in arcs
                   for a, b in arcs for c, d in arcs):
                return None
            return arcs
        for tail, head in options[idx]:
            if all(
                (b != tail or available(a, head)) and (a != head or available(tail, b))
                for a, b in chosen.values()
            ):
                chosen[edge_key(tail, head)] = (tail, head)
                got = solve(idx + 1)
                if got is not None:
                    return got
                del chosen[edge_key(tail, head)]
        return None

    return solve(0)


def test_three_way_search_agrees_with_the_bipartition_search():
    changed = 0
    for g in all_graphs(5):
        want = _bipartition_search(g)
        result = search_mixed_partition(g)
        assert result.status == ("none" if want is None else "found")
        if result.found:
            assert verify_mixed_partition(result.value) == []
            assert search_mixed_partition(g).value == result.value
            changed += result.value != want
    # the first partition found differs on 12 of the 1,099 graphs
    assert changed == 12


def test_every_seven_vertex_graph_has_a_mixed_partition():
    pytest.importorskip("networkx")
    graphs = atlas(7, 7)
    assert len(graphs) == 1044
    for g in graphs:
        result = search_mixed_partition(g)
        assert result.found
        assert verify_mixed_partition(result.value) == []


def test_the_smallest_graphs_without_a_mixed_partition():
    nx = pytest.importorskip("networkx")
    graphs = {name: nx.Graph(edges) for name, edges in NO_MIXED_PARTITION.items()}
    assert nx.is_isomorphic(graphs["cube"], nx.hypercube_graph(3))
    assert nx.is_isomorphic(graphs["wagner"], nx.circulant_graph(8, [1, 4]))
    assert len(graphs) == 12
    for a, b in combinations(graphs.values(), 2):
        assert not nx.is_isomorphic(a, b)
    for edges in NO_MIXED_PARTITION.values():
        g = SimpleGraph.build(map(str, range(8)), [(str(u), str(v)) for u, v in edges])
        assert search_mixed_partition(g).status == "none"


def test_search_mixed_partition_budget_is_inconclusive_not_none():
    result = search_mixed_partition(
        cycle_graph("123456"), SearchBudget(time_limit_seconds=1e-9)
    )
    assert result.status == "inconclusive"
    assert result.detail


def test_derived_overlap_graphs_always_admit_partitions():
    rng = random.Random(52)
    for _ in range(40):
        tree = gen_tree(rng.randint(2, 8), rng.randrange(10**9))
        cover = gen_cover(tree, rng.randrange(10**9))
        fam = gen_family(tree, rng.randint(1, 6), rng.randrange(10**9),
                         "covered-by", cover)
        g = derive_graph(fam, "overlap")
        result = search_mixed_partition(g, SearchBudget(time_limit_seconds=60))
        assert result.found
        assert verify_mixed_partition(result.value) == []


def test_host_tree_enumeration_counts():
    # unlabeled trees on 1..8 vertices: 1, 1, 1, 2, 3, 6, 11, 23
    by_size = {}
    for t in hosts_from_parent_sequences(8):
        by_size.setdefault(len(t.vertices), []).append(t)
    assert [len(by_size[n]) for n in range(1, 9)] == [1, 1, 1, 2, 3, 6, 11, 23]
    for group in by_size.values():
        codes = [canonical_code(t) for t in group]
        assert len(set(codes)) == len(codes)


def test_connected_subsets_of_a_path():
    subs = connected_subsets(Tree.build("abc", [("a", "b"), ("b", "c")]))
    assert subs == [
        frozenset("a"),
        frozenset("b"),
        frozenset("c"),
        frozenset("ab"),
        frozenset("bc"),
        frozenset("abc"),
    ]


def host_search_digest(shape) -> str:
    """Check the rep search under ``shape`` against the host search on the
    52 atlas graphs with at most five vertices, and return the digest of its
    answers; with no shape, of search_mixed_partition's answers too."""
    pytest.importorskip("networkx")
    graphs = atlas(5, 1)
    assert len(graphs) == 52
    answers = []
    for g in graphs:
        result = search_overlap_rep(g, cover_shape=shape)
        want = host_search(g, 6, shape)
        assert result.status == ("none" if want is None else "found")
        if result.found:
            assert represents(g, result.value, shape)
        answers.append(result)
        if shape is None:
            answers.append(search_mixed_partition(g))
    return answers_digest(answers)


@pytest.mark.parametrize(
    "shape, digest",
    [
        (None, "e6f78b51ca7b89490a008a3a8d38633da8117a327fed913ca491b967e6767f10"),
        (K2, "36b1e88aa5653dc2023cc9dcd676fa81bd22d86e2b52485d53357807709ccf9a"),
        (P3, "3fc76f5eaf3c5c2cc1c60bcbf48e0ed4e3cb40e294d5466438a1e86cbeec63db"),
    ],
    ids=["any", "k2", "p3"],
)
def test_rep_search_agrees_with_the_host_search(shape, digest):
    # Regenerate (only for an intended change of the searches' answers) with
    #   PYTHONPATH=src python -c "import sys; sys.path[:0] = ['tests'];
    #   import test_oracle as t;
    #   print([t.host_search_digest(s) for s in (None, t.K2, t.P3)])"
    assert host_search_digest(shape) == digest


def test_cycles_the_host_search_could_not_rule_out():
    c6, c7 = cycle_graph("123456"), cycle_graph("1234567")
    assert search_overlap_rep(c6, cover_shape=K2).status == "none"
    for shape, status in (
        (None, "found"), (K1, "none"), (K2, "none"), (P3, "none"),
        (P4, "found"), (K13, "none"),
    ):
        result = search_overlap_rep(c7, cover_shape=shape)
        assert result.status == status
        assert not result.found or represents(c7, result.value, shape)


def _shape_certificate(shape, g, e1):
    """The certificate that ``shape``'s cover class builds after its leaf
    test accepts the e1 masks ``e1`` (bit j of e1[i] pairs g's i-th and j-th
    labels), or None when the test refuses them."""
    from treerep import oracle

    test, certify = oracle._subtrees_of(shape, len(g.vertices), oracle._Deadline(None))
    spans = test(e1)
    if spans is None:
        return None
    labels = sorted(g.vertices)
    e1_pairs = frozenset(
        (labels[i], labels[j]) for i, m in enumerate(e1) for j in range(i + 1, len(e1))
        if m >> j & 1
    )
    base = SimpleGraph.build(g.vertices, e1_pairs)
    return certify(MixedPartition(base, e1_pairs, frozenset()), spans)


def test_shape_candidates_hold_every_point_a_model_needs():
    # The leaf test keeps n vertices of each chain of degree-2 vertices and
    # n leaves next to each vertex.  n members pairwise apart need n points,
    # and n members meeting in turn need n - 1 points in a row: shapes with
    # room to spare must still fit them, shapes a vertex short must not.
    for n in range(3, 10):
        g = SimpleGraph.build([str(i) for i in range(n)], [])
        full = (1 << n) - 1
        apart = tuple(full ^ 1 << i for i in range(n))
        in_turn = tuple(full & ~(7 << i >> 1) for i in range(n))
        for e1, shape, fits in (
            (apart, star_shape(n - 1), True),
            (apart, star_shape(n - 2), False),
            (apart, star_shape(30), True),
            (apart, path_shape(n), True),
            (apart, path_shape(n - 1), False),
            (apart, path_shape(30), True),
            (apart, spider_shape(3, 12), True),
            (in_turn, path_shape(n - 1), True),
            (in_turn, path_shape(n - 2), False),
            (in_turn, path_shape(30), True),
            (in_turn, spider_shape(3, 12), True),
        ):
            family = _shape_certificate(shape, g, e1)
            assert (family is not None) == fits, (n, e1, shape.vertices[-1])
            if fits:
                disjoint = derive_graph(family, "disjointness").edges
                assert disjoint == {
                    (str(i), str(j))
                    for i in range(n) for j in range(i + 1, n) if e1[i] >> j & 1
                }


def test_members_run_across_the_chain_vertices_left_out():
    # H, the members' intersection graph, is the claw with its edges
    # subdivided: a model needs a vertex of R with three branches.  Listed
    # from a leg's far end, the spider's one such vertex lies past the leg
    # vertices that are no candidates, so the central member holds them.
    h = SimpleGraph.build("zabcxyw", ["za", "zb", "zc", "ax", "by", "cw"])
    labels = sorted(h.vertices)
    e1 = [
        sum(1 << j for j, u in enumerate(labels) if u != v and not h.has_edge(u, v))
        for v in labels
    ]
    spider = spider_shape(3, 12)
    far_end = Tree.build(
        ["s0_11", *(v for v in spider.vertices if v != "s0_11")], spider.edges
    )
    assert _shape_certificate(path_shape(40), h, e1) is None
    for shape in (spider, far_end):
        family = _shape_certificate(shape, h, e1)
        assert derive_graph(family, "intersection") == h
    # s0_3 to s0_0 are the leg's left-out vertices
    assert {"s0_3", "s0_0", "s0"} <= family.member("z")


def test_a_shape_search_builds_its_certificate_once_after_the_search(monkeypatch):
    # The leaf test answers with spans alone; the one family is built from
    # the spans it accepted, once the search has returned the partition.
    from treerep import oracle

    built, built_by_search_end = [], []
    build, search = SubtreeFamily.build.__func__, oracle._search

    def counted_build(cls, host, members):
        built.append(host)
        return build(cls, host, members)

    def counted_search(*args):
        found = search(*args)  # the partition and the spans that certify it
        built_by_search_end.append(len(built))
        return found

    monkeypatch.setattr(SubtreeFamily, "build", classmethod(counted_build))
    monkeypatch.setattr(oracle, "_search", counted_search)
    test, _ = oracle._subtrees_of(K2, 4, oracle._Deadline(None))
    # four members on K2, 1 and 3 disjoint: 1 and 3 on one vertex each
    spans = test([0b0100, 0, 0b0001, 0])
    held = list(spans)
    # a later test, as of a suffix, leaves an earlier answer as it was
    assert test([0, 0, 0, 0]) is not None
    assert spans == held
    assert built == []
    for shape in (K2, P3):
        built.clear()
        built_by_search_end.clear()
        assert search_overlap_rep(cycle_graph("1234"), cover_shape=shape).found
        assert built_by_search_end == [0]
        assert built == [shape]


def test_cycles_separate_the_paths():
    # Observed on this search, not quoted from the paper: for n = 5 to 9,
    # C_n has a representation covered by the path P_{n-3} and none by
    # P_{n-4} (P1 = K1 goes through the star theorem); C4 has one under K1.
    for n in range(5, 10):
        c = cycle_graph("123456789"[:n])
        found = search_overlap_rep(c, cover_shape=path_shape(n - 3))
        assert found.found and represents(c, found.value, path_shape(n - 3))
        assert search_overlap_rep(c, cover_shape=path_shape(n - 4)).status == "none"
    c4 = search_overlap_rep(cycle_graph("1234"), cover_shape=K1)
    assert c4.found and represents(cycle_graph("1234"), c4.value, K1)


def test_edgeless_graphs_under_k2_are_found_through_the_suffix_cut():
    # K2's answer on E_n is a chain of nested members, e1 empty: the last
    # kind of leaf an e1-first search reaches, so without the suffix cut
    # E8 takes seconds and E9 minutes
    for n in (8, 9):
        e = SimpleGraph.build(map(str, range(n)), [])
        result = search_overlap_rep(e, SearchBudget(5), cover_shape=K2)
        assert result.found and represents(e, result.value, K2)


def test_a_suffix_that_gains_only_universal_vertices_is_not_tested(monkeypatch):
    # a suffix whose new vertices have no e1 partner in it passes whenever the
    # last one tested on its branch did; testing C6 under K2 anyway takes 28
    # suffix tests, of which the same 8 cut
    from treerep import oracle

    made = oracle._subtrees_of
    suffixes = []

    def counted_subtrees_of(shape, n, deadline):
        test, certify = made(shape, n, deadline)

        def counted(e1_masks):
            found = test(e1_masks)
            if len(e1_masks) < n:
                suffixes.append(found is None)
            return found

        return counted, certify

    monkeypatch.setattr(oracle, "_subtrees_of", counted_subtrees_of)
    assert search_overlap_rep(cycle_graph("123456"), cover_shape=K2).status == "none"
    assert (len(suffixes), sum(suffixes)) == (22, 8)


def test_search_overlap_rep_for_k1():
    result = search_overlap_rep(SimpleGraph.build("g", []))
    assert result.found
    assert len(result.value.members) == 1
    # the clique tree of (V, e1) plus the member's pendant leaf
    assert result.value.host.vertices == ("k1", "x_g")


def test_search_overlap_rep_for_cycle4_with_k2_cover():
    result = search_overlap_rep(cycle_graph("1234"), cover_shape=K2)
    assert result.found
    fam = result.value
    assert derive_graph(fam, "overlap") == cycle_graph("1234")
    hit = False
    for sub in connected_subsets(fam.host):
        if len(sub) != 2:
            continue
        if all(sub & vs for _, vs in fam.members):
            if tree_isomorphic(induced_subtree(fam.host, sub), K2)[0]:
                hit = True
    assert hit


def test_search_overlap_rep_finds_two_k2_on_a_path_host():
    two_k2 = SimpleGraph.build("1234", [("1", "2"), ("3", "4")])
    result = search_overlap_rep(two_k2)
    assert result.found
    assert derive_graph(result.value, "overlap") == two_k2


def test_search_overlap_rep_respects_the_vertex_cap():
    e10 = SimpleGraph.build(map(str, range(10)), [])
    for shape in (None, K2):
        with pytest.raises(DeskScaleError, match="capped at 9 vertices"):
            search_overlap_rep(e10, cover_shape=shape)
    # a one-vertex shape runs no search, and has no cap
    result = search_overlap_rep(e10, cover_shape=K1)
    assert result.found and derive_graph(result.value, "overlap") == e10


def test_search_overlap_rep_budget_is_inconclusive():
    result = search_overlap_rep(
        cycle_graph("1234"), SearchBudget(time_limit_seconds=1e-9)
    )
    assert (result.status, result.detail) == (
        "inconclusive", "time budget of 1e-09 s ran out"
    )


def test_search_mixed_partition_budget_detail_counts_search_nodes(monkeypatch):
    # _Deadline.check is a search's one exit: whichever of its calls finds
    # the budget spent, in a node or in a shape's place, ends the search
    # with the caller's detail
    from treerep import oracle

    check = oracle._Deadline.check

    def nodes_at_each_check(search) -> list[int]:
        seen = []

        def counted(deadline):
            seen.append(deadline.nodes)
            check(deadline)

        monkeypatch.setattr(oracle._Deadline, "check", counted)
        search()
        return seen

    def spent_at(k: int) -> None:
        calls = count(1)

        def spend(deadline):
            if next(calls) == k:
                raise oracle._BudgetUp

        monkeypatch.setattr(oracle._Deadline, "check", spend)

    c6, c5 = cycle_graph("123456"), cycle_graph("12345")
    assert nodes_at_each_check(lambda: search_mixed_partition(c6)) == list(range(1, 14))
    for k in range(1, 14):
        spent_at(k)
        result = search_mixed_partition(c6)
        assert (result.status, result.detail) == (
            "inconclusive", f"time budget hit after {k} search nodes"
        )
    seen = nodes_at_each_check(lambda: search_overlap_rep(c5, cover_shape=K2))
    # 9 of the 26 are in place, which finds the count where the check before left it
    assert (len(seen), sum(a == b for a, b in zip(seen, seen[1:]))) == (26, 9)
    for k in range(1, 27):
        spent_at(k)
        result = search_overlap_rep(c5, cover_shape=K2)
        assert (result.status, result.detail) == (
            "inconclusive", "time budget of 30 s ran out"
        )


def vertex_order_digest() -> str:
    """Check that with no shape the rep search builds e1_certificate's
    family of the partition search_mixed_partition finds, on 60 seeded
    graphs whose vertex order is shuffled against label order, and return
    the digest of those partitions."""
    # the leaf builds the family from its own masks, whose bits follow
    # label order, while the members follow the graph's vertex order; both
    # searches stop at the same first leaf
    rng = random.Random(3)
    answers = []
    for _ in range(60):
        labels = [f"x{i}" for i in range(rng.randint(3, 7))]
        rng.shuffle(labels)
        g = SimpleGraph.build(
            labels, [p for p in combinations(labels, 2) if rng.random() < 0.5]
        )
        found = search_mixed_partition(g)
        partition = found.value
        want = mixed_to_bushy(partition, e1_certificate(partition))
        assert search_overlap_rep(g).value == want
        answers.append(found)
    return answers_digest(answers)


def test_rep_search_builds_the_e1_certificate_in_any_vertex_order():
    # the search reads its partitions off masks indexed in label order, so
    # a slip to vertex order changes this digest.  Regenerate (only for an
    # intended change of the partitions) with
    #   PYTHONPATH=src python -c "import sys; sys.path[:0] = ['tests'];
    #   import test_oracle as t; print(t.vertex_order_digest())"
    assert vertex_order_digest() == (
        "8b21720522c1e859bf086a99e40b3728c4a21bdedac318f1a44ead99f03a7823"
    )


def test_search_overlap_rep_is_reproducible():
    g = cycle_graph("12345")
    a = search_overlap_rep(g)
    b = search_overlap_rep(g)
    assert a.status == b.status == "found"
    assert a.value == b.value


def test_k1_cover_matches_cocomparability_on_four_vertex_graphs():
    seen = set()
    for bits in range(64):
        vertices = tuple("1234")
        pairs = list(combinations(vertices, 2))
        edges = frozenset(pairs[i] for i in range(6) if bits >> i & 1)
        g = SimpleGraph(vertices, edges)
        result = search_overlap_rep(g, cover_shape=K1)
        cocomp = recognize(g, "cocomparability").holds
        assert result.status in ("found", "none")
        assert result.found == cocomp, f"mismatch on edges {sorted(edges)}"
        seen.add(result.status)
    assert seen == {"found"} or seen == {"found", "none"}


def test_k1_cover_matches_cocomparability_on_five_vertex_samples():
    rng = random.Random(53)
    for _ in range(8):
        g = random_graph(rng, max_n=5, min_n=5)
        result = search_overlap_rep(g, cover_shape=K1)
        assert result.status in ("found", "none")
        assert result.found == recognize(g, "cocomparability").holds


def test_k1_cover_says_none_only_off_cocomparability():
    # A cocomparability graph on 5 vertices has a star representation on 6
    # host vertices, so every one of them is found, with no host cap.
    rng = random.Random(54)
    graphs = []
    while len(graphs) < 40:
        g = random_graph(rng, max_n=5, min_n=5)
        if recognize(g, "cocomparability").holds:
            graphs.append(g)
    for g in graphs:
        result = search_overlap_rep(g, cover_shape=K1)
        assert result.found and represents(g, result.value, K1)
        assert len(result.value.host.vertices) == 6


def test_k1_cover_answers_none_before_any_host():
    # The star theorem runs no search, so a spent time budget changes no
    # answer under a one-vertex shape; any other shape searches and hits it.
    spent = SearchBudget(1e-9)
    assert search_overlap_rep(cycle_graph("12345"), spent, K1).status == "none"
    assert search_overlap_rep(cycle_graph("1234"), spent, K1).found
    assert search_overlap_rep(cycle_graph("1234"), spent, K2).status == "inconclusive"


def test_large_cover_shapes_are_never_coded(monkeypatch):
    from treerep import oracle, shapes

    def refuse(tree):
        raise AssertionError("a cover shape was coded")

    monkeypatch.setattr(shapes, "canonical_code", refuse)
    assert not hasattr(oracle, "canonical_code")
    for g, shape in (
        (cycle_graph("1234"), path_shape(20_000)),
        (cycle_graph("123456"), star_shape(20_000)),
    ):
        result = search_overlap_rep(g, cover_shape=shape)
        assert result.found
        assert derive_graph(result.value, "overlap") == g
        assert is_covering_subtree(result.value, frozenset(shape.vertices))


def test_repeat_searches_return_equal_families():
    graphs = [
        cycle_graph("1234"),
        SimpleGraph.build("g", []),
        *(
            derive_graph(fixtures()[name].family, "overlap")
            for name in ("cycle4-star", "cycle4-path")
        ),
    ]
    for g in graphs:
        for shape in (None, K1, K2):
            first = search_overlap_rep(g, cover_shape=shape)
            again = search_overlap_rep(g, cover_shape=shape)
            assert first.found and again.found
            assert again.value == first.value
