"""Tree isomorphism and subdivision by rooted matching.

``tree_isomorphic`` and ``is_subdivision_of`` are checked against a
test-local copy of the permutation search they replaced, against networkx,
and on trees whose size or symmetry made that search fail: a recursion
deeper than Python's limit, or time factorial in the number of equal legs.
"""

import random
from itertools import permutations

import pytest
from helpers import nx_graph
from oracles import hosts_from_parent_sequences

from treerep import (
    Tree,
    canonical_code,
    edge_key,
    is_subdivision_of,
    tree_isomorphic,
)
from treerep.shapes import _smoothed_with_lengths, tree_centers

# --- the permutation search that was replaced, as the reference ---------


def _ref_rooted_codes(t, root):
    adj = t.adjacency()
    codes = {}
    order = []
    stack = [(root, None)]
    while stack:
        v, parent = stack.pop()
        order.append((v, parent))
        for u in adj[v]:
            if u != parent:
                stack.append((u, v))
    for v, parent in reversed(order):
        kids = sorted(codes[u] for u in adj[v] if u != parent)
        codes[v] = "(" + "".join(kids) + ")"
    return codes


def _ref_canonical_code(t):
    return min(_ref_rooted_codes(t, c)[c] for c in tree_centers(t))


def _ref_isomorphisms(t1, t2):
    if len(t1.vertices) != len(t2.vertices):
        return
    c1 = tree_centers(t1)
    c2 = tree_centers(t2)
    if len(c1) != len(c2):
        return
    adj1, adj2 = t1.adjacency(), t2.adjacency()
    root1 = c1[0]
    codes1 = _ref_rooted_codes(t1, root1)
    for root2 in c2:
        codes2 = _ref_rooted_codes(t2, root2)
        if codes1[root1] != codes2[root2]:
            continue
        yield from _ref_match(adj1, adj2, codes1, codes2, root1, root2, None, None, {})


def _ref_match(adj1, adj2, codes1, codes2, v1, v2, p1, p2, acc):
    kids1 = sorted(u for u in adj1[v1] if u != p1)
    kids2 = sorted(u for u in adj2[v2] if u != p2)
    acc = dict(acc)
    acc[v1] = v2
    if not kids1 and not kids2:
        yield acc
        return
    groups1, groups2 = {}, {}
    for u in kids1:
        groups1.setdefault(codes1[u], []).append(u)
    for u in kids2:
        groups2.setdefault(codes2[u], []).append(u)
    if sorted(groups1) != sorted(groups2):
        return
    if any(len(groups1[c]) != len(groups2[c]) for c in groups1):
        return

    def per_group(codes_left, acc_now):
        if not codes_left:
            yield acc_now
            return
        code = codes_left[0]
        left = groups1[code]
        for images in permutations(groups2[code]):
            def pair_up(idx, acc_inner):
                if idx == len(left):
                    yield from per_group(codes_left[1:], acc_inner)
                    return
                for merged in _ref_match(
                    adj1, adj2, codes1, codes2,
                    left[idx], images[idx], v1, v2, acc_inner,
                ):
                    yield from pair_up(idx + 1, merged)

            yield from pair_up(0, acc_now)

    yield from per_group(sorted(groups1), acc)


def _ref_tree_isomorphic(t1, t2):
    if _ref_canonical_code(t1) != _ref_canonical_code(t2):
        return False, None
    return True, next(_ref_isomorphisms(t1, t2))


def _ref_is_subdivision_of(t, r):
    st, tlen = _smoothed_with_lengths(t)
    sr, rlen = _smoothed_with_lengths(r)
    if len(t.vertices) < len(r.vertices):
        return False
    return any(
        all(tlen[edge_key(iso[a], iso[b])] >= rlen[edge_key(a, b)] for a, b in sr.edges)
        for iso in _ref_isomorphisms(sr, st)
    )


# --- builders -----------------------------------------------------------


def _relabelled(t, rng, prefix="w"):
    """``t`` under a random bijection onto fresh labels."""
    fresh = [f"{prefix}{i}" for i in range(len(t.vertices))]
    rng.shuffle(fresh)
    name = dict(zip(t.vertices, fresh))
    return Tree.build(sorted(fresh), [(name[u], name[v]) for u, v in t.edges])


def _subdivided(t, rng, times):
    """``t`` with ``times`` random edges subdivided, one new vertex each."""
    vertices, edges = list(t.vertices), sorted(t.edges)
    for i in range(times if edges else 0):
        u, v = edges.pop(rng.randrange(len(edges)))
        vertices.append(f"s{i}")
        edges += [(u, f"s{i}"), (f"s{i}", v)]
    return Tree.build(vertices, edges)


def _random_tree(rng, n, prefix="r"):
    labels = [f"{prefix}{i}" for i in range(n)]
    edges = [(labels[i], labels[rng.randrange(i)]) for i in range(1, n)]
    return Tree.build(labels, edges)


def _spider(legs, prefix):
    """A centre with one path of each given length hanging off it."""
    centre = f"{prefix}c"
    vertices, edges = [centre], []
    for i, length in enumerate(legs):
        prev = centre
        for j in range(length):
            v = f"{prefix}{i}_{j}"
            vertices.append(v)
            edges.append((prev, v))
            prev = v
    return Tree.build(vertices, edges)


def _caterpillar(spine, prefix, leg=1):
    """A path of ``spine`` vertices with a pendant path of ``leg`` edges at each."""
    vertices = [f"{prefix}s{i}" for i in range(spine)]
    edges = list(zip(vertices, vertices[1:]))
    for i in range(spine):
        prev = vertices[i]
        for j in range(leg):
            v = f"{prefix}l{i}_{j}"
            vertices.append(v)
            edges.append((prev, v))
            prev = v
    return Tree.build(vertices, edges)


def _path(n, prefix):
    return _spider([n - 1], prefix)


def _assert_isomorphism(t1, t2, mapping):
    assert sorted(mapping) == sorted(t1.vertices)
    assert sorted(mapping.values()) == sorted(t2.vertices)
    assert {edge_key(mapping[u], mapping[v]) for u, v in t1.edges} == t2.edges


SMALL_TREES = list(hosts_from_parent_sequences(8))


def test_small_trees_are_the_48_classes():
    assert len(SMALL_TREES) == 48


# --- the permutation search as the reference ----------------------------


def test_isomorphism_matches_the_permutation_search_on_small_trees():
    rng = random.Random(20)
    others = [_relabelled(t, rng) for t in SMALL_TREES]
    for t1 in SMALL_TREES:
        assert canonical_code(t1) == _ref_canonical_code(t1)
        for t2 in others:
            ok, mapping = tree_isomorphic(t1, t2)
            want_ok, want = _ref_tree_isomorphic(t1, t2)
            assert ok == want_ok
            if ok:  # the same pairs, in the same order
                assert list(mapping.items()) == list(want.items())
            else:
                assert mapping is None


def test_isomorphism_matches_the_permutation_search_on_random_trees():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(1, 14)
        t1 = _random_tree(rng, n)
        t2 = _relabelled(t1, rng) if rng.random() < 0.5 else _random_tree(rng, n, "q")
        assert canonical_code(t2) == _ref_canonical_code(t2)
        assert tree_isomorphic(t1, t2) == _ref_tree_isomorphic(t1, t2)


def test_subdivision_matches_the_permutation_search_on_small_trees():
    rng = random.Random(22)
    for r in SMALL_TREES:
        t = _relabelled(_subdivided(r, rng, rng.randint(0, 3)), rng)
        for other in SMALL_TREES:
            assert is_subdivision_of(t, other) == _ref_is_subdivision_of(t, other)
            assert is_subdivision_of(other, t) == _ref_is_subdivision_of(other, t)


def test_subdivision_matches_the_permutation_search_on_random_subdivisions():
    rng = random.Random(23)
    answers = set()
    for _ in range(400):
        base = _random_tree(rng, rng.randint(1, 10))
        t = _relabelled(_subdivided(base, rng, rng.randint(0, 6)), rng, "t")
        r = _relabelled(_subdivided(base, rng, rng.randint(0, 6)), rng, "u")
        got = is_subdivision_of(t, r)
        assert got == _ref_is_subdivision_of(t, r)
        answers.add(got)
    assert answers == {True, False}


# --- networkx as an independent oracle ----------------------------------


def _check_against_networkx(nx, t1, t2, h1, h2):
    """``tree_isomorphic`` and ``canonical_code`` give networkx's verdict on
    ``t1`` and ``t2``, whose networkx graphs are ``h1`` and ``h2``."""
    same = nx.is_isomorphic(h1, h2)
    ok, mapping = tree_isomorphic(t1, t2)
    assert ok == same
    assert (canonical_code(t1) == canonical_code(t2)) == same
    if ok:
        _assert_isomorphism(t1, t2, mapping)
    else:
        assert mapping is None
    return same


def test_isomorphism_agrees_with_networkx_on_small_trees():
    nx = pytest.importorskip("networkx")
    rng = random.Random(24)
    others = [_relabelled(t, rng) for t in SMALL_TREES]
    graphs = {t: nx_graph(t) for t in SMALL_TREES + others}
    hits = sum(
        _check_against_networkx(nx, t1, t2, graphs[t1], graphs[t2])
        for t1 in SMALL_TREES
        for t2 in others
    )
    assert hits == len(SMALL_TREES)


def test_isomorphism_agrees_with_networkx_on_random_trees():
    nx = pytest.importorskip("networkx")
    rng = random.Random(25)
    verdicts = set()
    for _ in range(200):
        n = rng.randint(1, 30)
        t1 = _random_tree(rng, n)
        t2 = _relabelled(t1, rng) if rng.random() < 0.5 else _random_tree(rng, n, "q")
        verdicts.add(
            _check_against_networkx(nx, t1, t2, nx_graph(t1), nx_graph(t2))
        )
    assert verdicts == {True, False}


# --- sizes and symmetries the permutation search could not handle -------


def test_spider_with_twenty_equal_legs_is_decided():
    # r: 19 legs of length 2 and one of 3; t: one leg of length 1 and 19 of 5
    r = _spider([2] * 19 + [3], "r")
    t = _spider([1] + [5] * 19, "t")
    assert not is_subdivision_of(t, r)
    assert is_subdivision_of(_spider([3] + [5] * 19, "t"), r)


@pytest.mark.parametrize(
    "build",
    [
        lambda p: _path(1000, p),
        lambda p: _caterpillar(1000, p),
        lambda p: _spider([1] * 1000, p),
    ],
    ids=["path-1000", "caterpillar-1000", "star-1000"],
)
def test_large_trees_need_no_recursion(build):
    t1, t2 = build("a"), _relabelled(build("b"), random.Random(26))
    ok, mapping = tree_isomorphic(t1, t2)
    assert ok
    _assert_isomorphism(t1, t2, mapping)
    stretched = _subdivided(t2, random.Random(27), 50)
    assert is_subdivision_of(stretched, t1)


def _broom(lengths, prefix):
    """A centre whose i-th child hangs off it by a path of ``lengths[i]``
    edges and holds two leaves of its own."""
    centre = f"{prefix}c"
    vertices, edges = [centre], []
    for i, length in enumerate(lengths):
        prev = centre
        for j in range(length):
            v = f"{prefix}{i}_{j}"
            vertices.append(v)
            edges.append((prev, v))
            prev = v
        for leaf in ("x", "y"):
            vertices.append(f"{prefix}{i}{leaf}")
            edges.append((prev, f"{prefix}{i}{leaf}"))
    return Tree.build(vertices, edges)


def test_matching_needs_an_augmenting_path():
    # Each child of the centre has two leaves, so all children share one
    # non-leaf code.  The first child pair tried (r0 to t0) fits, but r1
    # fits only t0, so an augmenting path moves r0 to t1.
    r = _broom([1, 2, 4], "r")
    assert is_subdivision_of(_broom([2, 1, 4], "t"), r)
    assert not is_subdivision_of(_broom([2, 2, 4], "t"), _broom([1, 3, 4], "r"))
    # with eight children only the reversed pairing fits; the permutation
    # search tried 8! pairings of the children times 2^8 of their leaves
    r = _broom(range(1, 9), "r")
    assert is_subdivision_of(_broom(range(8, 0, -1), "t"), r)
    # same sizes, but no chain of t is as long as r's last one
    r = _broom([1, 2, 3, 4, 5, 6, 7, 9], "r")
    assert not is_subdivision_of(_broom([8, 8, 6, 5, 4, 3, 2, 1], "t"), r)
