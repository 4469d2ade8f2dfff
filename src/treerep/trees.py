"""Trees, subtree families, pair relations, covers, and bushiness.

A subtree is always handled as a vertex subset of its host tree that
induces a connected subgraph.  Pairwise relations between subsets are
classified exactly (disjoint / overlap / proper containments / equal),
and `similarly_related` is the coarsening that only remembers
disjointness and overlap.
"""

from __future__ import annotations

import heapq
from enum import Enum

from .errors import InputError, Violation, record
from .simple import SimpleGraph, _neighbour_lists


@record
class Tree(SimpleGraph):
    """Connected acyclic graph; the host for all representations.

    The connectivity check walks fresh neighbour lists from ``vertices[0]``
    and keeps the parent map it finds, rooted there; the frozenset
    :meth:`adjacency` is built only on its first call."""

    def __post_init__(self):
        super().__post_init__()
        n = len(self.vertices)
        if n == 0:
            raise InputError("a tree has at least one vertex")
        if len(self.edges) != n - 1:
            raise InputError(
                f"tree needs {n - 1} edges for {n} vertices, got {len(self.edges)}"
            )
        parent = _parents(_neighbour_lists(self), self.vertices[0])
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
    parent = _parents(adj, a)
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


def _parents(adj, root: str) -> dict[str, str | None]:
    """Parent of each vertex found over ``adj`` from ``root`` (None), parents first."""
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


def _valid_family(host: Tree, members, masks=None) -> SubtreeFamily:
    """A family whose caller has proved each member a subtree of ``host``,
    built with the record of :func:`require_valid`'s pass and, when given,
    ``masks`` as its :func:`_member_masks`."""
    f = SubtreeFamily(host, members)
    f.__dict__["_valid"] = True
    if masks is not None:
        f.__dict__["_member_masks"] = masks
    return f


def require_valid(f: SubtreeFamily) -> None:
    """Raise InputError listing the family's violations, if any.

    A family is frozen, so one that passes records the pass in its
    ``__dict__`` and later calls return at once; a failing family is
    checked again on every call.  A family built by :func:`_valid_family`
    from checked parts carries the record from birth.  Families from
    ``parse`` or a caller are checked in full; ``verify_mixed_partition``
    still checks every certificate a caller hands it."""
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
