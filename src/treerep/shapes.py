"""Tree shapes: smoothing, centres, canonical codes, isomorphism,
subdivision, and shape tags.

None of this is needed to build or check a family, so of the CLI's verbs
only ``classify-tree`` loads it.
"""

from __future__ import annotations

from operator import le

from .simple import edge_key
from .trees import Tree, _parents


def smooth(t: Tree) -> Tree:
    """Suppress all degree-2 vertices; K1 and K2 are fixed points.

    Keeps the labels of vertices with degree != 2 and discards the interior
    labels of each suppressed path, so the result is canonical.
    """
    return _smoothed_with_lengths(t)[0]


def _smoothed_with_lengths(t: Tree) -> tuple[Tree, dict[tuple[str, str], int]]:
    """Smoothed tree plus, per smoothed edge, the length of the path it replaced."""
    adj = t.adjacency()
    kept = [v for v in t.vertices if len(adj[v]) != 2]
    if not kept:
        raise AssertionError("a tree always has a vertex of degree != 2")
    if len(kept) == 1:
        return Tree((kept[0],), frozenset()), {}
    keep = set(kept)
    edges = set()
    lengths: dict[tuple[str, str], int] = {}
    for v in kept:
        for first in adj[v]:
            prev, cur, steps = v, first, 1
            while cur not in keep:
                nxt = next(iter(adj[cur] - {prev}))
                prev, cur, steps = cur, nxt, steps + 1
            key = edge_key(v, cur)
            edges.add(key)
            lengths[key] = steps
    return Tree(tuple(kept), frozenset(edges)), lengths


def tree_centers(t: Tree) -> list[str]:
    """The one or two middle vertices, by iterative leaf stripping: a vertex
    joins the next layer of leaves when its count of unstripped neighbours
    falls to one, so each vertex is visited once."""
    adj = t.adjacency()
    degree = {v: len(ns) for v, ns in adj.items()}
    layer = [v for v in t.vertices if degree[v] <= 1]
    remaining = len(t.vertices)
    while remaining > 2:
        remaining -= len(layer)
        inner = []
        for v in layer:
            for u in adj[v]:
                degree[u] -= 1
                if degree[u] == 1:
                    inner.append(u)
        layer = inner
    return sorted(layer)


def _rooted(t: Tree, root: str) -> tuple[dict[str, str | None], dict[str, str]]:
    """Parent and canonical parenthesis code of every vertex, rooted at ``root``."""
    adj = t.adjacency()
    parent = _parents(adj, root)
    codes: dict[str, str] = {}
    for v in reversed(parent):  # children before their parents
        p = parent[v]
        codes[v] = "(" + "".join(sorted([codes[u] for u in adj[v] if u != p])) + ")"
    return parent, codes


def _code_groups(parent, codes) -> dict[str, dict[str, list[str]]]:
    """Every vertex's children grouped by code, the codes in sorted order and
    each group in label order."""
    groups: dict[str, dict[str, list[str]]] = {v: {} for v in parent}
    for u in sorted(parent, key=lambda u: (codes[u], u)):
        if parent[u] is not None:
            groups[parent[u]].setdefault(codes[u], []).append(u)
    return groups


def canonical_code(t: Tree) -> str:
    """Label-free canonical form of a tree, rooted at its center(s)."""
    return min(_rooted(t, c)[1][c] for c in tree_centers(t))


def _aligned_rootings(t1: Tree, t2: Tree):
    """Yield ``(root1, root2, groups1, groups2)`` for ``t1`` rooted at its
    first centre and each centre of ``t2`` with the same rooted code."""
    root1 = tree_centers(t1)[0]
    parent1, codes1 = _rooted(t1, root1)
    for root2 in tree_centers(t2):
        parent2, codes2 = _rooted(t2, root2)
        if codes2[root2] == codes1[root1]:
            groups2 = _code_groups(parent2, codes2)
            yield root1, root2, _code_groups(parent1, codes1), groups2


def tree_isomorphic(t1: Tree, t2: Tree) -> tuple[bool, dict[str, str] | None]:
    """Decide isomorphism; on success also return one explicit mapping.

    The trees are isomorphic iff their codes rooted at some centres agree.
    Equal codes mean isomorphic rooted subtrees, so from those roots down the
    mapping pairs the label-sorted children of each code group in order."""
    for root1, root2, groups1, groups2 in _aligned_rootings(t1, t2):
        mapping = {}
        stack = [(root1, root2)]
        while stack:
            v1, v2 = stack.pop()
            mapping[v1] = v2
            for code, kids in reversed(groups1[v1].items()):
                stack.extend(reversed(list(zip(kids, groups2[v2][code]))))
        return True, mapping
    return False, None


def _has_perfect_matching(n: int, allowed) -> bool:
    """Whether pairs ``(i, j)`` with ``allowed(i, j)`` match all of 0..n-1
    on both sides: Kuhn's augmenting paths, with an explicit stack."""
    owner: dict[int, int] = {}
    for start in range(n):
        seen: set[int] = set()
        path, tried = [(start, iter(range(n)))], []
        while path:
            i, options = path[-1]
            j = next((j for j in options if j not in seen and allowed(i, j)), None)
            if j is None:  # dead end: back up one step
                path.pop()
                if tried:
                    tried.pop()
                continue
            seen.add(j)
            tried.append(j)
            if j not in owner:  # flip the path: each left vertex takes its j
                owner.update(zip(tried, (x for x, _ in path)))
                break
            path.append((owner[j], iter(range(n))))
        else:
            return False
    return True


def is_subdivision_of(t: Tree, r: Tree) -> bool:
    """Can ``t`` be produced from ``r`` by zero or more edge subdivisions?

    Iff some isomorphism of the smoothed trees maps each chain of ``r`` to
    one of ``t`` at least as long.  Rooted at centres of equal code, pairs
    of equal-code vertices are decided children first (Matula 1978): a pair
    fits when each code group of its children has a perfect matching of
    fitting pairs whose chain in ``t`` is at least as long as in ``r`` --
    by sorted chain length for leaves, by augmenting paths otherwise."""
    if len(t.vertices) < len(r.vertices):
        return False
    st, tlen = _smoothed_with_lengths(t)
    sr, rlen = _smoothed_with_lengths(r)
    for root1, root2, groups1, groups2 in _aligned_rootings(sr, st):
        pairs = [(root1, root2)]
        for a, b in pairs:  # grows by each pair's non-leaf child pairs
            for code, xs in groups1[a].items():
                if code != "()":
                    pairs.extend((x, y) for x in xs for y in groups2[b][code])
        fit: set[tuple[str, str]] = set()
        for a, b in reversed(pairs):
            for code, xs in groups1[a].items():
                ys = groups2[b][code]
                need = [rlen[edge_key(a, x)] for x in xs]
                have = [tlen[edge_key(b, y)] for y in ys]
                if not (
                    all(map(le, sorted(need), sorted(have)))
                    if code == "()"
                    else _has_perfect_matching(
                        len(xs),
                        lambda i, j: need[i] <= have[j] and (xs[i], ys[j]) in fit,
                    )
                ):
                    break
            else:
                fit.add((a, b))
        if (root1, root2) in fit:
            return True
    return False


def classify_tree(t: Tree) -> frozenset[str]:
    """All applicable shape tags; 'general' exactly when nothing else fits.

    A path is also a caterpillar, a star is also a caterpillar, and K1 is
    trivial, path, star, and caterpillar at once.
    """
    adj = t.adjacency()
    n = len(t.vertices)
    degrees = [len(adj[v]) for v in t.vertices]
    tags = set()
    if n == 1:
        tags.add("trivial")
    if n == 2:
        tags.add("single-edge")
    if all(d <= 2 for d in degrees):
        tags.add("path")
    if n == 1 or max(degrees) == n - 1:
        tags.add("star")
    interior = {v for v in t.vertices if len(adj[v]) > 1}
    if all(len(adj[v] & interior) <= 2 for v in interior):
        tags.add("caterpillar")
    if not tags:
        tags.add("general")
    return frozenset(tags)
