"""Trees, subtree families, pair relations, covers, bushiness, and shape tests.

A subtree is always handled as a vertex subset of its host tree that
induces a connected subgraph.  Pairwise relations between subsets are
classified exactly (disjoint / overlap / proper containments / equal),
and `similarly_related` is the coarsening that only remembers
disjointness and overlap.
"""

from __future__ import annotations

import heapq
from enum import Enum
from operator import le

from .errors import InputError, Violation, record
from .graphs import SimpleGraph, edge_key


@record
class Tree(SimpleGraph):
    """Connected acyclic graph; the host for all representations.  It keeps
    the parent map of its connectivity check, rooted at ``vertices[0]``."""

    def __post_init__(self):
        super().__post_init__()
        n = len(self.vertices)
        if n == 0:
            raise InputError("a tree has at least one vertex")
        if len(self.edges) != n - 1:
            raise InputError(
                f"tree needs {n - 1} edges for {n} vertices, got {len(self.edges)}"
            )
        parent = _parents(self, self.vertices[0])
        if len(parent) != n:
            raise InputError("tree is not connected")
        self.__dict__["_parent"] = parent

    def leaves(self) -> frozenset[str]:
        """Vertices of degree exactly one (K1 has none)."""
        adj = self.adjacency()
        return frozenset(v for v in self.vertices if len(adj[v]) == 1)


def induces_subtree(tree: Tree, subset: frozenset[str]) -> bool:
    """True iff ``subset`` is nonempty, known, and induces a connected subgraph.

    Each component of a vertex subset has exactly one vertex whose parent,
    in the tree's own rooting, lies outside the subset (the root counts as
    such a vertex): the component's top.  So a known, nonempty subset
    induces a subtree iff exactly one of its vertices is a top.
    """
    parent = tree._parent
    if not subset or not parent.keys() >= subset:
        return False
    return sum(parent[v] not in subset for v in subset) == 1


def subtree_leaves(tree: Tree, subset: frozenset[str]) -> frozenset[str]:
    """Leaves of the induced subtree: degree <= 1 inside the subset.

    A single-vertex subtree's vertex counts as a leaf.
    """
    adj = tree.adjacency()
    return frozenset(v for v in subset if len(adj[v] & subset) <= 1)


def induced_subtree(tree: Tree, subset) -> Tree:
    """The subtree induced by ``subset``, preserving host vertex order."""
    subset = frozenset(subset)
    if not induces_subtree(tree, subset):
        raise InputError(f"{sorted(subset)} does not induce a subtree")
    return Tree(
        tuple(v for v in tree.vertices if v in subset),
        frozenset(e for e in tree.edges if e[0] in subset and e[1] in subset),
    )


def tree_path(tree: Tree, a: str, b: str) -> tuple[str, ...]:
    """The unique path between two vertices, endpoints included."""
    adj = tree.adjacency()
    if a not in adj or b not in adj:
        raise InputError(f"unknown vertex in path query: {a!r}, {b!r}")
    parent = _parents(tree, a)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


@record
class SubtreeFamily:
    """Ordered multiset of named vertex subsets of a host tree.

    Names are pairwise distinct; the subsets themselves may repeat.  The
    constructor checks only naming; use :func:`validate_family` to check
    that every member actually induces a subtree.
    """

    host: Tree
    members: tuple[tuple[str, frozenset[str]], ...]

    def __post_init__(self):
        names = [name for name, _ in self.members]
        if len(set(names)) != len(names):
            raise InputError("member names must be pairwise distinct")

    @classmethod
    def build(cls, host: Tree, members) -> "SubtreeFamily":
        """Accept a mapping or an iterable of (name, vertices) pairs."""
        if hasattr(members, "items"):
            members = members.items()
        return cls(host, tuple((name, frozenset(vs)) for name, vs in members))

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.members)

    def member(self, name: str) -> frozenset[str]:
        for n, vs in self.members:
            if n == name:
                return vs
        raise InputError(f"unknown member {name!r}")

    def as_dict(self) -> dict[str, frozenset[str]]:
        return {name: vs for name, vs in self.members}


def _member_masks(f: SubtreeFamily) -> tuple[int, ...]:
    """Every member as an int whose bit i stands for ``f.host.vertices[i]``.

    Members must hold host vertices only.  The masks are built once per
    family and shared by every caller, as a tuple that none can mutate.
    """
    masks = f.__dict__.get("_member_masks")
    if masks is None:
        bit = {v: 1 << i for i, v in enumerate(f.host.vertices)}
        masks = tuple(sum(map(bit.__getitem__, vs)) for _, vs in f.members)
        f.__dict__["_member_masks"] = masks
    return masks


def _parents(tree: Tree, root: str) -> dict[str, str | None]:
    """Parent of every vertex with the tree rooted at ``root``, whose parent
    is None; every vertex comes after its parent in the dict's order."""
    adj = tree.adjacency()
    parent: dict[str, str | None] = {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in parent:
                parent[u] = v
                stack.append(u)
    return parent


def validate_family(f: SubtreeFamily) -> list[Violation]:
    """Check that every member is a nonempty connected subset of the host."""
    out = []
    parent = f.host._parent
    for name, vs in f.members:
        # one parent lookup per vertex: a KeyError is an unknown vertex, and
        # a subtree has one vertex, its top, whose parent is not inside it
        try:
            inside = sum(map(vs.__contains__, [parent[v] for v in vs]))
        except KeyError:
            out.append(
                Violation(
                    "unknown-vertex",
                    f"member {name} references unknown vertices "
                    f"{sorted(vs.difference(parent))}",
                )
            )
            continue
        if not vs:
            out.append(Violation("empty-member", f"member {name} is empty"))
        elif len(vs) - inside != 1:
            out.append(
                Violation(
                    "disconnected",
                    f"member {name} = {sorted(vs)} does not induce a subtree",
                )
            )
    return out


def require_valid(f: SubtreeFamily) -> None:
    """Raise InputError listing the family's violations, if any.

    A family is frozen, so one that passes records the pass in its
    ``__dict__`` and later calls return at once; a failing family is
    checked again on every call."""
    if f.__dict__.get("_valid"):
        return
    violations = validate_family(f)
    if violations:
        raise InputError("; ".join(str(v) for v in violations))
    f.__dict__["_valid"] = True


class PairRelation(Enum):
    DISJOINT = "disjoint"
    OVERLAP = "overlap"
    FIRST_IN_SECOND = "first-contained-proper"
    SECOND_IN_FIRST = "second-contained-proper"
    EQUAL = "equal"


def classify_sets(a: frozenset, b: frozenset) -> PairRelation:
    """Exactly one relation holds for any two nonempty sets."""
    if not a or not b:
        raise InputError("pair relations are defined for nonempty sets only")
    if not a & b:
        return PairRelation.DISJOINT
    if a == b:
        return PairRelation.EQUAL
    if a < b:
        return PairRelation.FIRST_IN_SECOND
    if b < a:
        return PairRelation.SECOND_IN_FIRST
    return PairRelation.OVERLAP


def classify_pair(f: SubtreeFamily, i: str, j: str) -> PairRelation:
    return classify_sets(f.member(i), f.member(j))


def similarly_related(r1: PairRelation, r2: PairRelation) -> bool:
    """Agreement on disjointness and on overlap; containment and equality
    are indistinguishable under this coarsening."""
    return (
        (r1 is PairRelation.DISJOINT) == (r2 is PairRelation.DISJOINT)
        and (r1 is PairRelation.OVERLAP) == (r2 is PairRelation.OVERLAP)
    )


def is_covering_subtree(f: SubtreeFamily, r: frozenset[str]) -> bool:
    """Does the subtree induced by ``r`` intersect every member?"""
    r = frozenset(r)
    if not induces_subtree(f.host, r):
        raise InputError(f"cover candidate {sorted(r)} does not induce a subtree")
    return all(not r.isdisjoint(vs) for _, vs in f.members)


def minimal_covering_subtree(f: SubtreeFamily) -> frozenset[str]:
    """Inclusion-minimal cover, by greedy leaf deletion in label order.

    Starts from the whole host (which always covers) and repeatedly removes
    the label-least leaf whose removal keeps every member intersected.  The
    result still covers, and removing any of its leaves breaks coverage.

    Leaves wait in a label-ordered heap, and each member counts its vertices
    still in the cover.  A leaf is blocked when some member holding it has
    only that vertex left; that member can then never lose it, so a blocked
    leaf stays blocked and is dropped from the heap for good.
    """
    require_valid(f)
    adj = f.host.adjacency()
    current = set(f.host.vertices)
    hits = [len(vs) for _, vs in f.members]
    holders: dict[str, list[int]] = {v: [] for v in current}
    for i, (_, vs) in enumerate(f.members):
        for v in vs:
            holders[v].append(i)
    degree = {v: len(adj[v]) for v in current}
    heap = [v for v in current if degree[v] == 1]
    heapq.heapify(heap)
    while heap and len(current) > 1:
        v = heapq.heappop(heap)
        if any(hits[i] == 1 for i in holders[v]):
            continue
        current.remove(v)
        for i in holders[v]:
            hits[i] -= 1
        for u in adj[v]:
            if u in current:
                degree[u] -= 1
                if degree[u] == 1:
                    heapq.heappush(heap, u)
    return frozenset(current)


@record
class BushinessReport:
    """Per-vertex bushiness plus the overall verdict.

    ``blockers[v]`` lists v's neighbours outside the subtree that are not
    leaves of the host; a vertex is bushy iff its list is empty.
    """

    blockers: tuple[tuple[str, tuple[str, ...]], ...]
    bushy: bool

    def per_vertex(self) -> dict[str, bool]:
        return {v: not bs for v, bs in self.blockers}


def bushiness(t: Tree, r) -> BushinessReport:
    r = frozenset(r)
    if not induces_subtree(t, r):
        raise InputError(f"{sorted(r)} does not induce a subtree of the host")
    adj = t.adjacency()
    entries = []
    for v in sorted(r):
        bad = tuple(sorted(u for u in adj[v] - r if len(adj[u]) != 1))
        entries.append((v, bad))
    return BushinessReport(tuple(entries), all(not bad for _, bad in entries))


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
    parent = _parents(t, root)
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


#: Shape tags produced by classify_tree.
SHAPE_TAGS = ("trivial", "single-edge", "path", "star", "caterpillar", "general")


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
