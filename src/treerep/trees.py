"""Trees, subtree families, pair relations, covers, bushiness, and shape tests.

A subtree is always handled as a vertex subset of its host tree that
induces a connected subgraph.  Pairwise relations between subsets are
classified exactly (disjoint / overlap / proper containments / equal),
and `similarly_related` is the coarsening that only remembers
disjointness and overlap.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import permutations

from .errors import InputError, Violation
from .graphs import SimpleGraph, edge_key


@dataclass(frozen=True)
class Tree(SimpleGraph):
    """Connected acyclic graph; the host for all representations."""

    def __post_init__(self):
        super().__post_init__()
        n = len(self.vertices)
        if n == 0:
            raise InputError("a tree has at least one vertex")
        if len(self.edges) != n - 1:
            raise InputError(
                f"tree needs {n - 1} edges for {n} vertices, got {len(self.edges)}"
            )
        if n > 1:
            adj = self.adjacency()
            seen = {self.vertices[0]}
            stack = [self.vertices[0]]
            while stack:
                for u in adj[stack.pop()]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
            if len(seen) != n:
                raise InputError("tree is not connected")

    def leaves(self) -> frozenset[str]:
        """Vertices of degree exactly one (K1 has none)."""
        adj = self.adjacency()
        return frozenset(v for v in self.vertices if len(adj[v]) == 1)


def induces_subtree(tree: Tree, subset: frozenset[str]) -> bool:
    """True iff ``subset`` is nonempty, known, and induces a connected subgraph."""
    adj = tree.adjacency()
    if not subset or not adj.keys() >= subset:
        return False
    start = min(subset)
    seen = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()] & subset:
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == subset


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
    parent = {a: None}
    queue = deque([a])
    while queue:
        v = queue.popleft()
        if v == b:
            break
        for u in sorted(adj[v]):
            if u not in parent:
                parent[u] = v
                queue.append(u)
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return tuple(reversed(path))


@dataclass(frozen=True)
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

    def replace_members(self, mapping) -> "SubtreeFamily":
        """Same host and member order, new vertex sets."""
        return SubtreeFamily(
            self.host,
            tuple((name, frozenset(mapping[name])) for name, _ in self.members),
        )


def _member_masks(f: SubtreeFamily) -> list[int]:
    """Every member as an int whose bit i stands for ``f.host.vertices[i]``.

    Members must hold host vertices only.
    """
    bit = {v: 1 << i for i, v in enumerate(f.host.vertices)}
    return [sum(map(bit.__getitem__, vs)) for _, vs in f.members]


def _parents(tree: Tree) -> dict[str, str | None]:
    """Parent of every vertex with the tree rooted at its first vertex; the
    root's parent is None."""
    adj = tree.adjacency()
    root = tree.vertices[0]
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
    """Check that every member is a nonempty connected subset of the host.

    The host is rooted once.  Each component of a vertex subset has exactly
    one vertex whose parent lies outside the subset (the root counts as
    such a vertex): the component's top.  So a known, nonempty member
    induces a subtree iff exactly one of its vertices is a top.
    """
    parent = _parents(f.host)
    out = []
    for name, vs in f.members:
        unknown = vs.difference(parent)
        if unknown:
            out.append(
                Violation(
                    "unknown-vertex",
                    f"member {name} references unknown vertices {sorted(unknown)}",
                )
            )
            continue
        if not vs:
            out.append(Violation("empty-member", f"member {name} is empty"))
        elif sum(parent[v] not in vs for v in vs) != 1:
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
    return all(r & vs for _, vs in f.members)


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


@dataclass(frozen=True)
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
    """The one or two middle vertices, by iterative leaf stripping."""
    adj = {v: set(ns) for v, ns in t.adjacency().items()}
    remaining = set(t.vertices)
    while len(remaining) > 2:
        layer = [v for v in remaining if len(adj[v]) <= 1]
        for v in layer:
            for u in adj[v]:
                adj[u].discard(v)
            adj[v].clear()
            remaining.remove(v)
    return sorted(remaining)


def _rooted_codes(t: Tree, root: str) -> dict[str, str]:
    """Canonical parenthesis code of every subtree of the rooting at ``root``."""
    adj = t.adjacency()
    codes: dict[str, str] = {}
    order: list[tuple[str, str | None]] = []
    stack: list[tuple[str, str | None]] = [(root, None)]
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


def canonical_code(t: Tree) -> str:
    """Label-free canonical form of a tree, rooted at its center(s)."""
    centers = tree_centers(t)
    return min(_rooted_codes(t, c)[c] for c in centers)


def _isomorphisms(t1: Tree, t2: Tree):
    """Yield every isomorphism t1 -> t2 as a dict, deterministically ordered."""
    if len(t1.vertices) != len(t2.vertices):
        return
    c1 = tree_centers(t1)
    c2 = tree_centers(t2)
    if len(c1) != len(c2):
        return
    adj1, adj2 = t1.adjacency(), t2.adjacency()
    root1 = c1[0]
    codes1 = _rooted_codes(t1, root1)
    for root2 in c2:
        codes2 = _rooted_codes(t2, root2)
        if codes1[root1] != codes2[root2]:
            continue
        yield from _match(adj1, adj2, codes1, codes2, root1, root2, None, None, {})


def _match(adj1, adj2, codes1, codes2, v1, v2, p1, p2, acc):
    kids1 = sorted(u for u in adj1[v1] if u != p1)
    kids2 = sorted(u for u in adj2[v2] if u != p2)
    acc = dict(acc)
    acc[v1] = v2
    if not kids1 and not kids2:
        yield acc
        return
    groups1: dict[str, list[str]] = {}
    for u in kids1:
        groups1.setdefault(codes1[u], []).append(u)
    groups2: dict[str, list[str]] = {}
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
                for merged in _match(
                    adj1, adj2, codes1, codes2,
                    left[idx], images[idx], v1, v2, acc_inner,
                ):
                    yield from pair_up(idx + 1, merged)

            yield from pair_up(0, acc_now)

    yield from per_group(sorted(groups1), acc)


def tree_isomorphic(t1: Tree, t2: Tree) -> tuple[bool, dict[str, str] | None]:
    """Canonical-form comparison; on success also returns one explicit mapping."""
    if canonical_code(t1) != canonical_code(t2):
        return False, None
    mapping = next(_isomorphisms(t1, t2), None)
    if mapping is None:
        raise AssertionError("equal canonical codes must admit an isomorphism")
    return True, mapping


def is_subdivision_of(t: Tree, r: Tree) -> bool:
    """Can ``t`` be produced from ``r`` by zero or more edge subdivisions?

    Subdividing stretches one smoothed edge and changes nothing else, so the
    test matches smoothed shapes and then looks for an isomorphism of the
    smoothed trees under which every chain of ``t`` is at least as long as
    the corresponding chain of ``r``.
    """
    st, tlen = _smoothed_with_lengths(t)
    sr, rlen = _smoothed_with_lengths(r)
    if len(t.vertices) < len(r.vertices):
        return False
    for iso in _isomorphisms(sr, st):
        if all(
            tlen[edge_key(iso[a], iso[b])] >= rlen[edge_key(a, b)]
            for a, b in sr.edges
        ):
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
    interior = [v for v in t.vertices if len(adj[v]) > 1]
    if not interior or all(len(adj[v] & set(interior)) <= 2 for v in interior):
        tags.add("caterpillar")
    if not tags:
        tags.add("general")
    return frozenset(tags)
