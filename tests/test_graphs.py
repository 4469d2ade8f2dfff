import functools
import hashlib
import importlib.util
import json
import random
from collections import Counter
from itertools import combinations, product
from pathlib import Path

import pytest
from helpers import (all_graphs, atlas, checks, cycle_graph, failure, matching_graph,
                     nx_graph, path_graph, permutation_graph, random_graph)
from hypothesis import given, settings
from hypothesis import strategies as st

from treerep import (
    PROPERTIES,
    InputError,
    Orientation,
    SimpleGraph,
    complement,
    derive_graph,
    edge_key,
    enumerate_chordless_cycles,
    gen_family,
    gen_tree,
    is_transitive,
    recognize,
    search_mixed_partition,
)
from treerep.graphs import (
    _clique_order,
    _eliminate,
    _find_transitive_orientation,
    _label_masks,
)


def test_complement_of_cycle4_is_two_disjoint_edges():
    c4 = cycle_graph("1234")
    assert complement(c4).edges == {("1", "3"), ("2", "4")}


def test_complement_of_empty_graph_is_complete():
    g = SimpleGraph.build("abc", [])
    assert complement(g).edges == {("a", "b"), ("a", "c"), ("b", "c")}


@given(st.integers(0, 10**6))
@settings(max_examples=200, deadline=None)
def test_complement_is_an_involution(seed):
    g = random_graph(random.Random(seed), max_n=8)
    assert complement(complement(g)) == g
    assert complement(g).vertices == g.vertices


def test_graph_rejects_self_loops_and_unknown_endpoints():
    with pytest.raises(InputError):
        SimpleGraph.build("ab", [("a", "a")])
    with pytest.raises(InputError):
        SimpleGraph.build("ab", [("a", "c")])
    with pytest.raises(InputError):
        SimpleGraph(("a", "a"), frozenset())


def test_transitive_orientation_of_path4_complement():
    comp = complement(path_graph("1234"))
    assert comp.edges == {("1", "3"), ("1", "4"), ("2", "4")}
    good = Orientation(comp, frozenset({("3", "1"), ("4", "1"), ("4", "2")}))
    assert is_transitive(good) == []
    # flipping 1-3 breaks it: 4->1->3 now needs 4->3, which is not an edge
    bad = Orientation(comp, frozenset({("1", "3"), ("4", "1"), ("4", "2")}))
    assert is_transitive(bad) == [("4", "1", "3")]


def test_missing_closure_is_reported_as_a_triple():
    g = path_graph("abc")
    o = Orientation(g, frozenset({("a", "b"), ("b", "c")}))
    assert is_transitive(o) == [("a", "b", "c")]


def test_is_transitive_lists_every_open_two_arc_path():
    """Every orientation of every graph on at most 4 vertices, against the
    definition: the sorted triples u->v->w, w != u, without u->w."""
    for g in all_graphs(4):
        edges = sorted(g.edges)
        for flips in product((False, True), repeat=len(edges)):
            arcs = frozenset((v, u) if flip else (u, v)
                             for (u, v), flip in zip(edges, flips))
            expected = sorted((u, v, w) for u, v in arcs for x, w in arcs
                              if x == v and w != u and (u, w) not in arcs)
            assert is_transitive(Orientation(g, arcs)) == expected, arcs


def test_orientation_without_directed_two_path_is_transitive():
    g = SimpleGraph.build("1234", [("1", "3"), ("2", "4")])
    o = Orientation(g, frozenset({("1", "3"), ("2", "4")}))
    assert is_transitive(o) == []


def test_orientation_must_cover_edges_exactly():
    g = path_graph("abc")
    uncovered = ("InputError", "arcs do not cover the edge set exactly")
    cases = [
        ({("a", "b")}, uncovered),  # an edge with no arc
        ({("a", "b"), ("b", "c"), ("a", "c")}, uncovered),  # an arc off the edges
        (
            {("a", "b"), ("b", "a"), ("b", "c")},
            ("InputError", "some edge received both directions"),
        ),
        ({("a", "a"), ("a", "b"), ("b", "c")}, ("InputError", "self-loop at 'a'")),
        # entries that are not pairs
        (
            {("a", "b"), ("b",)},
            ("ValueError", "not enough values to unpack (expected 2, got 1)"),
        ),
        (
            {("a", "b"), ("b", "c", "d")},
            ("ValueError", "too many values to unpack (expected 2)"),
        ),
        ({("a", "b"), 3}, ("TypeError", "cannot unpack non-iterable int object")),
    ]
    for arcs, error in cases:
        assert failure(Orientation, g, frozenset(arcs)) == error, arcs
    assert failure(Orientation, g, frozenset({("b", "a"), ("b", "c")})) == ("ok", None)


def test_cycle4_is_not_chordal():
    assert not recognize(cycle_graph("1234"), "chordal").holds


def test_cycle4_is_cocomparability_with_expected_witness():
    result = recognize(cycle_graph("1234"), "cocomparability")
    assert result.holds
    assert result.witness.kind == "transitive-orientation"
    assert result.witness.payload.arcs == {("1", "3"), ("2", "4")}


def test_two_disjoint_edges_are_not_cochordal():
    g = SimpleGraph.build("1234", [("1", "2"), ("3", "4")])
    assert not recognize(g, "cochordal").holds


def test_chordal_witness_is_a_perfect_elimination_order():
    rng = random.Random(5)
    for _ in range(150):
        g = random_graph(rng, max_n=8)
        result = recognize(g, "chordal")
        if not result.holds:
            continue
        order = result.witness.payload
        assert sorted(order) == sorted(g.vertices)
        adj = g.adjacency()
        for i, v in enumerate(order):
            later = adj[v] & set(order[i + 1 :])
            for a, b in combinations(sorted(later), 2):
                assert b in adj[a]


def test_cochordal_agrees_with_chordal_on_complement():
    rng = random.Random(6)
    for _ in range(150):
        g = random_graph(rng, max_n=7)
        assert (
            recognize(g, "cochordal").holds
            == recognize(complement(g), "chordal").holds
        )


def test_comparability_witness_passes_is_transitive():
    rng = random.Random(7)
    seen_yes = 0
    for _ in range(150):
        g = random_graph(rng, max_n=7)
        result = recognize(g, "comparability")
        if result.holds:
            seen_yes += 1
            assert is_transitive(result.witness.payload) == []
    assert seen_yes > 10


def test_comparability_no_answers_are_backed_by_exhaustion():
    # small graphs: compare the search against trying every orientation
    rng = random.Random(8)
    for _ in range(60):
        g = random_graph(rng, max_n=5)
        edges = sorted(g.edges)
        brute = False
        for dirs in product((0, 1), repeat=len(edges)):
            arcs = frozenset(
                (u, v) if d == 0 else (v, u) for (u, v), d in zip(edges, dirs)
            )
            if not is_transitive(Orientation(g, arcs)):
                brute = True
                break
        assert recognize(g, "comparability").holds == brute


def test_comparability_agrees_with_implication_classes():
    rng = random.Random(14)
    verdicts = set()
    for _ in range(300):
        g = random_graph(rng, max_n=14, min_n=7,
                         p=rng.choice((0.15, 0.3, 0.5, 0.7, 0.85)))
        for h in (g, complement(g)):
            holds = recognize(h, "comparability").holds
            # Golumbic's Thm 5.1: no implication class holds an arc and its reverse
            assert holds == checks().is_comparability(h.vertices, h.edges)
            verdicts.add(holds)
    assert verdicts == {True, False}


def test_permutation_graphs_and_their_complements_are_comparability():
    rng = random.Random(15)
    for _ in range(40):
        g = permutation_graph(rng, rng.randint(10, 60))
        for h in (g, complement(g)):
            result = recognize(h, "comparability")
            assert result.holds
            assert is_transitive(result.witness.payload) == []


def test_comparability_of_a_matching_with_1200_edges():
    # one implication class per edge; no depth limit on the class count
    result = recognize(matching_graph(1200), "comparability")
    assert result.holds
    assert is_transitive(result.witness.payload) == []


def test_chordal_agrees_with_chordless_cycle_oracle():
    rng = random.Random(9)
    for _ in range(200):
        g = random_graph(rng, max_n=6)
        assert recognize(g, "chordal").holds == (
            enumerate_chordless_cycles(g) == []
        )


def test_interval_recognition_on_known_graphs():
    assert recognize(path_graph("abcd"), "interval").holds
    assert not recognize(cycle_graph("1234"), "interval").holds
    star = SimpleGraph.build("cxyz", [("c", "x"), ("c", "y"), ("c", "z")])
    assert recognize(star, "interval").holds
    # 2K2 is the complement of C4, so it is cointerval iff C4 is interval
    assert not recognize(complement(cycle_graph("1234")), "cointerval").holds
    assert recognize(complement(path_graph("abcd")), "cointerval").holds


def _some_order_is_consecutive(cliques) -> bool:
    """Brute force over all orders of ``cliques``.

    A vertex is closed once a placed clique omits it after it appeared; the
    closed set is fixed by the cliques left and the last one placed, so the
    memo on those arguments keeps the search small.
    """

    @functools.cache
    def rest(left: frozenset, last: frozenset, closed: frozenset) -> bool:
        return not left or any(
            not c & closed and rest(left - {c}, c, closed | (last - c)) for c in left
        )

    return rest(frozenset(cliques), frozenset(), frozenset())


def test_interval_clique_order_witness_is_consecutive():
    g = path_graph("abcde")
    result = recognize(g, "interval")
    assert result.holds and result.witness.kind == "clique-order"
    assert checks().clique_order_problems(g.vertices, g.edges, result.witness.payload) == []


def fulkerson_gross_clique_order(h, peo, arcs):
    """The clique order from the Fulkerson-Gross cliques, the
    inclusion-maximal sets {v} + (later neighbours of v), sorted as
    ``_clique_order`` sorts them."""
    adj = h.adjacency()
    later = set(h.vertices)
    candidates = []
    for v in peo:
        later.remove(v)
        candidates.append(frozenset(adj[v] & later | {v}))
    cliques = [
        tuple(sorted(c)) for c in candidates if not any(c < d for d in candidates)
    ]
    preds = Counter(head for _, head in arcs)
    return tuple(sorted(cliques, key=lambda c: (max(preds[a] for a in c), c)))


def test_clique_order_equals_the_fulkerson_gross_order_on_five_vertices():
    checked = 0
    for g in all_graphs(5):
        for co in (False, True):
            result = recognize(g, "cointerval" if co else "interval")
            if not result.holds:
                continue
            h = complement(g) if co else g
            labels, closed = _label_masks(h, False)
            peo = tuple(labels[v] for v in _eliminate(closed))
            arcs = _find_transitive_orientation(*_label_masks(h, True))
            want = fulkerson_gross_clique_order(h, peo, arcs)
            assert result.witness.payload == want, (g, co)
            checked += 1
    assert checked == 1788


def test_forty_vertex_interval_graph_is_recognized():
    # intersection graph of seeded subpaths of the path 0..59
    rng = random.Random(40)
    spans = {}
    for i in range(40):
        a, b = sorted(rng.sample(range(60), 2))
        spans[f"v{i:02d}"] = (a, min(b, a + 8))
    g = SimpleGraph.build(
        spans,
        [
            (u, v)
            for u, v in combinations(spans, 2)
            if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]
        ],
    )
    result = recognize(g, "interval")
    assert result.holds
    assert checks().clique_order_problems(g.vertices, g.edges, result.witness.payload) == []
    assert recognize(complement(g), "cointerval").witness == result.witness


def test_interval_recognition_agrees_with_networkx_cliques():
    nx = pytest.importorskip("networkx")
    rng = random.Random(12)
    verdicts = set()
    for _ in range(300):
        g = random_graph(rng, max_n=7)
        for prop in ("interval", "cointerval"):
            h = g if prop == "interval" else complement(g)
            cliques = {frozenset(c) for c in nx.find_cliques(nx_graph(h))}
            result = recognize(g, prop)
            verdicts.add(result.holds)
            if result.holds:
                order = result.witness.payload
                assert checks().clique_order_problems(h.vertices, h.edges, order) == []
            else:
                assert not _some_order_is_consecutive(cliques)
    assert verdicts == {True, False}


def test_recognizers_leave_the_shared_adjacency_intact():
    rng = random.Random(31)
    for _ in range(200):
        g = random_graph(rng, max_n=9)
        g.adjacency()
        for prop in PROPERTIES:
            recognize(g, prop)
        assert g.adjacency() == SimpleGraph(g.vertices, g.edges).adjacency()


def test_shared_label_masks_are_never_mutated():
    rng = random.Random(32)
    for _ in range(60):
        g = random_graph(rng, max_n=8)
        # vertices out of label order, as the masks are in label order
        g = SimpleGraph(g.vertices[::-1], g.edges)
        answers = [recognize(g, prop) for _ in range(2) for prop in PROPERTIES]
        found = search_mixed_partition(g)

        def fresh():
            return SimpleGraph(g.vertices, g.edges)

        assert answers == [recognize(fresh(), prop) for prop in PROPERTIES] * 2
        assert found == search_mixed_partition(fresh())
        for complemented in (False, True):
            assert _label_masks(g, complemented) == _label_masks(fresh(), complemented)


def test_orientation_scaling_sweep_times_a_path_complement():
    # the sweep is not collected, so this call keeps it in step with the search
    path = Path(__file__).parent / "sweeps" / "orientation_scaling.py"
    spec = importlib.util.spec_from_file_location("orientation_scaling", path)
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    assert sweep.seconds(sweep.path(6), complemented=True) >= 0


def test_unknown_property_is_an_input_error():
    with pytest.raises(InputError):
        recognize(path_graph("ab"), "planar")


def test_edge_key_orders_endpoints():
    assert edge_key("b", "a") == ("a", "b")
    with pytest.raises(InputError):
        edge_key("a", "a")


# ---------------------------------------------------------------------------
# The bitmask orientation search against the set search it replaced


def reference_transitive_orientation(g):
    """The set search: G-decomposition on a copy of the adjacency, taking
    the edges in sorted order, with each class held as a set of arcs."""
    adj = {v: set(ns) for v, ns in g.adjacency().items()}
    arcs = set()
    for u, v in sorted(g.edges):
        if v not in adj[u]:
            continue
        cls = {(u, v)}
        stack = [(u, v)]
        while stack:
            a, b = stack.pop()
            forced = [(a, c) for c in adj[a] if c != b and c not in adj[b]]
            forced += [(c, b) for c in adj[b] if c != a and c not in adj[a]]
            for arc in forced:
                if arc in cls:
                    continue
                if arc[::-1] in cls:
                    return None
                cls.add(arc)
                stack.append(arc)
        for a, b in cls:
            adj[a].remove(b)
            adj[b].remove(a)
        arcs |= cls
    return Orientation(g, frozenset(arcs))


def reference_recognize(g, prop):
    """Verdict and witness payload of ``recognize`` as it was composed from
    the set search: the co-classes ran it on the built complement."""
    co = prop in ("cocomparability", "cointerval")
    if prop.endswith("comparability"):
        orient = reference_transitive_orientation(complement(g) if co else g)
        return orient is not None, orient
    order = recognize(g, "cochordal" if co else "chordal").witness.payload
    if order is None:
        return False, None
    orient = reference_transitive_orientation(g if co else complement(g))
    if orient is None:
        return False, None
    labels, closed = _label_masks(g, co)
    bits = [labels.index(v) for v in order]
    return True, _clique_order(labels, closed, bits, orient.arcs)


def _assert_same_answer(g, prop):
    result = recognize(g, prop)
    holds, want = reference_recognize(g, prop)
    assert result.holds == holds, (prop, g)
    got = result.witness.payload
    if isinstance(want, Orientation):
        assert got.arcs == want.arcs, (prop, g)
        assert got.graph.vertices == want.graph.vertices, (prop, g)
        assert got.graph.edges == want.graph.edges, (prop, g)
    else:
        assert got == want, (prop, g)
    return holds


ORIENTED = ("comparability", "cocomparability", "interval", "cointerval")


def oriented_digest() -> str:
    """sha256 of the verdict and witness of each oriented recognizer on every
    graph of the networkx atlas (all graphs with up to 7 vertices)."""
    pytest.importorskip("networkx")
    digest = hashlib.sha256()
    for g in atlas():
        for prop in ORIENTED:
            result = recognize(g, prop)
            payload = result.witness.payload
            if isinstance(payload, Orientation):
                payload = sorted(payload.arcs)
            plain = [prop, result.holds, result.witness.kind, payload]
            digest.update(json.dumps(plain).encode())
    return digest.hexdigest()


def test_oriented_recognizer_outputs_are_frozen():
    # Regenerate (only for an intended change of these outputs) with
    #   PYTHONPATH=src python -c "import sys; sys.path[:0] = ['tests'];
    #   import test_graphs as t; print(t.oriented_digest())"
    assert oriented_digest() == (
        "8166e9f1a2d38467e97f4710a211af02b844f73c1c44c9baf93e39c31c4243f9"
    )


def test_orientation_search_matches_the_set_search_on_random_graphs():
    verdicts = set()
    for n, p, seed in product(range(15), (0.15, 0.3, 0.5, 0.7, 0.85), range(4)):
        g = random_graph(random.Random(f"{n} {p} {seed}"), max_n=n, min_n=n, p=p)
        for prop in ORIENTED:
            verdicts.add((prop, _assert_same_answer(g, prop), n > 8))
    # yes and no answers for every property, on small and larger graphs
    assert len(verdicts) == 16


def test_orientation_search_matches_the_set_search_on_permutation_graphs():
    rng = random.Random(16)
    for _ in range(20):
        g = permutation_graph(rng, rng.randint(10, 60))
        for prop in ORIENTED:
            _assert_same_answer(g, prop)
        # a permutation graph and its complement are both comparability
        assert recognize(g, "cocomparability").holds


# ---------------------------------------------------------------------------
# The bitmask elimination scan against the set scan it replaced, and against
# networkx


def reference_perfect_elimination_order(g):
    """The set scan: take the label-least simplicial vertex, delete it from
    a copy of the adjacency, repeat."""
    adj = {v: set(ns) for v, ns in g.adjacency().items()}
    candidates = sorted(g.vertices)
    order = []
    while candidates:
        for i, v in enumerate(candidates):
            nbrs = adj[v]
            if all(len(adj[a] & nbrs) == len(nbrs) - 1 for a in nbrs):
                break
        else:
            return None
        del candidates[i]
        order.append(v)
        for a in adj[v]:
            adj[a].remove(v)
    return tuple(order)


def test_elimination_scan_matches_the_set_scan_order_for_order():
    verdicts = set()
    for n, p, seed in product(range(15), (0.15, 0.3, 0.5, 0.7, 0.85), range(4)):
        g = random_graph(random.Random(f"{n} {p} {seed}"), max_n=n, min_n=n, p=p)
        for prop, h in (("chordal", g), ("cochordal", complement(g))):
            want = reference_perfect_elimination_order(h)
            result = recognize(g, prop)
            verdicts.add((prop, result.holds, n > 8))
            assert result.holds == (want is not None), (prop, g)
            if want is not None:
                assert result.witness.payload == want, (prop, g)
    # yes and no answers for both properties, on small and larger graphs
    assert len(verdicts) == 8


def _is_elimination_order(h, order):
    """Each vertex's later neighbours, bar the first, are neighbours of that
    first one (Rose-Tarjan-Lueker); ``h`` is a networkx graph."""
    position = {v: i for i, v in enumerate(order)}
    if sorted(position) != sorted(h):
        return False
    for v in order:
        later = sorted((u for u in h[v] if position[u] > position[v]),
                       key=position.__getitem__)
        if later and not set(later[1:]) <= set(h[later[0]]):
            return False
    return True


@pytest.fixture(scope="module")
def intersection_400():
    """The intersection graph of 400 members (73,844 edges)."""
    return derive_graph(gen_family(gen_tree(1000, 1), 400, 1), "intersection")


def test_chordal_verdicts_match_networkx_on_400_members(intersection_400):
    nx = pytest.importorskip("networkx")
    g = intersection_400
    h = nx_graph(g)
    # nx.is_chordal takes about 20 s on this graph, so the yes is checked
    # through its witness, and nx.is_chordal runs on a smaller one below
    result = recognize(g, "chordal")
    assert result.holds and _is_elimination_order(h, result.witness.payload)
    assert recognize(g, "cochordal").holds == nx.is_chordal(nx.complement(h))
    small = derive_graph(gen_family(gen_tree(300, 1), 100, 1), "intersection")
    hs = nx_graph(small)
    assert recognize(small, "chordal").holds == nx.is_chordal(hs)
    assert recognize(small, "cochordal").holds == nx.is_chordal(nx.complement(hs))


def test_complement_matches_networkx(intersection_400):
    nx = pytest.importorskip("networkx")
    rng = random.Random(13)
    graphs = [random_graph(rng, max_n=12, min_n=0, p=rng.random()) for _ in range(100)]
    for g in graphs + [intersection_400]:
        expected = nx.complement(nx_graph(g))
        assert complement(g).edges == {edge_key(u, v) for u, v in expected.edges}
        assert complement(g).vertices == g.vertices


# ---------------------------------------------------------------------------
# SimpleGraph's bulk checks against the per-edge walk they replaced


def reference_simple_graph_checks(vertices, edges):
    seen = set()
    for v in vertices:
        if v in seen:
            raise InputError(f"duplicate vertex label {v!r}")
        seen.add(v)
    for e in edges:
        if len(e) != 2 or e[0] == e[1]:
            raise InputError(f"bad edge {e!r}")
        if e[0] > e[1]:
            raise InputError(f"edge {e!r} not in canonical order")
        if e[0] not in seen or e[1] not in seen:
            raise InputError(f"edge {e!r} references unknown vertex")


def test_graph_checks_give_the_walks_first_error():
    rng = random.Random(17)
    pool = ("a", "b", "c", "d", "z")
    kinds = set()
    for _ in range(3000):
        vertices = tuple(rng.choice(pool[:4]) for _ in range(rng.randint(0, 4)))
        if rng.random() < 0.05:
            vertices += (["a"],)
        edges = set()
        for _ in range(rng.randint(0, 4)):
            size = rng.choice((2, 2, 2, 2, 1, 3))
            edges.add(tuple(rng.choice(pool) for _ in range(size)))
        edges = frozenset(edges)
        expected = failure(reference_simple_graph_checks, vertices, edges)
        assert failure(SimpleGraph, vertices, edges) == expected, (vertices, edges)
        kinds.add(expected[1].split(" ")[0] if expected[1] else "ok")
    assert kinds == {"ok", "duplicate", "bad", "edge", "unhashable"}
