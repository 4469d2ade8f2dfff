"""Brute-force ground truth at tiny scale.

Everything here trades speed for exhaustiveness: chordless-cycle listing,
and one depth-first search over mixed partitions, for graphs with up to 9
vertices, whose leaf test on e1's masks picks the class: a cochordal
(V, e1), or under a cover shape of ``search_overlap_rep`` the disjointness
graph of subtrees of the shape, which by the paper's equivalence decides
the representation; its certificate is built once, after the search.
Budget exhaustion is a first-class 'inconclusive' outcome, never converted
into a mathematical claim.  A 'found' value or a 'none' is the same on
every host; the budget is wall-clock time, so the same input can be
'found' on a fast host and 'inconclusive' on a slow one.
"""

from __future__ import annotations

import time
from collections import Counter

from .derive import derive_graph
from .errors import DeskScaleError, InputError, record
from .graphs import _clique_tree, _co_eliminate, _label_masks, recognize
from .mixed import (
    MixedPartition,
    e1_certificate,
    mixed_to_bushy,
    star_rep_from_orientation,
    verify_mixed_partition,
)
from .simple import SimpleGraph, _bits, complement
from .trees import SubtreeFamily, Tree

DEFAULT_BUDGET_SECONDS = 30

#: Both searches refuse a graph with more vertices than this.
MIXED_MAX_VERTICES = 9


@record
class SearchBudget:
    """The time a search may take, fixed before it starts: with no seconds
    given, ``DEFAULT_BUDGET_SECONDS``."""

    time_limit_seconds: float | None = None

    def __post_init__(self):
        seconds = self.time_limit_seconds
        if seconds is None:
            seconds = DEFAULT_BUDGET_SECONDS
        try:
            seconds = float(seconds)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError("the time budget must be a number that fits a float") from exc
        if not seconds > 0:
            raise InputError("the time budget must be positive")
        object.__setattr__(self, "time_limit_seconds", seconds)


@record
class SearchResult:
    """'found' with a value, definite 'none', or 'inconclusive' on budget."""

    status: str
    value: object = None
    detail: str = ""

    @property
    def found(self) -> bool:
        return self.status == "found"


class _Deadline:
    """The nodes a search has counted, and its one exit: ``check``."""

    def __init__(self, budget: SearchBudget | None):
        self.seconds = (SearchBudget() if budget is None else budget).time_limit_seconds
        self.expires = time.monotonic() + self.seconds
        self.nodes = 0

    def check(self) -> None:
        if time.monotonic() >= self.expires:
            raise _BudgetUp


def enumerate_chordless_cycles(g: SimpleGraph) -> list[tuple[str, ...]]:
    """Every chordless cycle of length >= 4, once per cycle.

    Cycles are canonicalized: least vertex first, lesser neighbour second.
    An empty result certifies chordality.

    Bit i of a mask stands for the i-th label.  A path s, u, ... carries
    the mask of what it may not step to: the vertices up to s, its own,
    the neighbours of its interior (a chord), and those of s below u or
    next to both s and u (no cycle starting s, u).  So a step's candidates
    are one AND, and those adjacent to s close a cycle.
    """
    if len(g.vertices) > 10:
        raise DeskScaleError("chordless-cycle enumeration is capped at 10 vertices")
    labels, closed = _label_masks(g, False)
    adj = [m ^ 1 << i for i, m in enumerate(closed)]
    cycles: list[tuple[str, ...]] = []

    def extend(path: tuple[str, ...], last: int, blocked: int, start: int) -> None:
        candidates = adj[last] & ~blocked
        blocked |= adj[last]  # last is interior once the path goes on
        for w in _bits(candidates & start):
            cycles.append(path + (labels[w],))
        for w in _bits(candidates & ~start):
            extend(path + (labels[w],), w, blocked, start)

    for s, start in enumerate(adj):
        for u in _bits(start & -2 << s):
            blocked = (2 << s) - 1 | start & ((2 << u) - 1 | adj[u])
            extend((labels[s], labels[u]), u, blocked, start)
    return sorted(cycles)


def search_mixed_partition(
    g: SimpleGraph, budget: SearchBudget | None = None
) -> SearchResult:
    """Exhaustive mixed-partition search over the complement's edges: the
    first leaf of :func:`_search` whose (V, e1) is cochordal, as
    :func:`graphs._co_eliminate` decides on the leaf's e1 masks.  'none'
    only after full exhaustion.
    """
    deadline = _Deadline(budget)
    try:
        found = _search("mixed-partition", g, deadline, _co_eliminate)
    except _BudgetUp:
        return SearchResult(
            "inconclusive", detail=f"time budget hit after {deadline.nodes} search nodes"
        )
    if found is None:
        return SearchResult("none")
    partition, _ = found
    if verify_mixed_partition(partition):
        raise AssertionError("search produced a partition failing the verifier")
    return SearchResult("found", partition)


def _search(name: str, g: SimpleGraph, deadline: _Deadline, test):
    """The depth-first search over the mixed partitions of g's complement.

    It gives each complement edge uv (u < v) one of three states, tried in
    the order e1, u->v, v->u, taking the edges from the highest in sorted
    order down, and cuts a branch once a triple of decided pairs (an edge
    of ``g`` is decided) breaks transitivity (x->y->z without x->z) or
    mixing (x->y and yz in e1 without xz in e1).  Its whole state is the
    partition: per vertex, in label order (``graphs._label_masks``), a mask
    of its e1 partners, of the heads of its arcs and of the tails of its
    incoming arcs.  The first leaf whose e1 masks ``test`` reads, without
    changing them, and answers with anything but None ends it: the
    partition read off those masks comes back with that answer, and
    ``test`` keeps nothing between calls.  None once exhausted;
    ``_BudgetUp`` from ``deadline.check()``, which each node calls once it
    is counted in ``deadline.nodes``, and a shape's ``place`` uncounted.  The
    ``name``d search refuses a graph of more than ``MIXED_MAX_VERTICES``
    vertices.

    It also cuts on every decided suffix.  At the first depth whose pair
    starts at vertex u, every pair among the vertices above u is decided,
    so their e1 is final; both leaf classes are hereditary (a cochordal
    graph, or a disjointness graph of subtrees of R, stays one when
    vertices go), so if ``test`` refuses those masks no leaf below passes,
    and the cut changes no answer.  A search that takes its first leaf
    never backtracks, so the suffixes are tested only once it has come back
    from a branch, that is once more nodes were visited than its depth.  A
    suffix passes without its test when the last one tested on the branch,
    ``passed``, did, and no vertex since has an e1 partner in it: its
    complement gains universal vertices only, which a cochordal complement
    keeps, and which under a shape are members on all of R.
    """
    if len(g.vertices) > MIXED_MAX_VERTICES:
        raise DeskScaleError(f"{name} search is capped at {MIXED_MAX_VERTICES} vertices")
    comp = complement(g)
    labels, closed = _label_masks(g, False)
    pairs = [(labels.index(u), labels.index(v)) for u, v in sorted(comp.edges, reverse=True)]
    # the depths where the pairs' first vertex drops to u: the start u + 1 of a decided suffix
    starts = {d: pairs[d][0] + 1 for d in range(1, len(pairs)) if pairs[d][0] < pairs[d - 1][0]}
    # a pair is decided once it is an edge of g (in ``closed``, which also
    # holds the vertex) or in one of the three blocks, which are disjoint
    e1, out, into = ([0] * len(labels) for _ in range(3))

    def e1_breaks(u, v) -> int:
        """Nonzero if uv in e1 breaks a decided triple: only arcs at u or v can."""
        return (
            out[u] & into[v]
            or out[v] & into[u]
            or into[u] & (closed[v] | out[v] | into[v])
            or into[v] & (closed[u] | out[u] | into[u])
        )

    def arc_breaks(u, v) -> int:
        """Nonzero if the arc u->v breaks a decided triple."""
        return (
            out[v] & (closed[u] | e1[u] | into[u])
            or into[u] & (closed[v] | e1[v] | out[v])
            or e1[v] & (closed[u] | out[u] | into[u])
            or out[u] & e1[v]
            or out[v] & e1[u]
        )

    def extend(depth: int, passed: int | None) -> tuple[MixedPartition, object] | None:
        deadline.nodes += 1
        deadline.check()
        if depth == len(pairs):
            if (value := test(e1)) is None:
                return None
            e1_pairs = {(labels[u], labels[v]) for u, v in pairs if e1[u] >> v & 1}
            arcs = {(labels[a], labels[b]) for a, m in enumerate(out) for b in _bits(m)}
            return MixedPartition(comp, frozenset(e1_pairs), frozenset(arcs)), value
        if deadline.nodes > depth + 1 and depth in starts:
            s = starts[depth]
            # free when no vertex since ``passed`` has an e1 partner in the suffix
            if passed is None or any(m >> s for m in e1[s:passed]):
                if test([m >> s for m in e1[s:]]) is None:
                    return None
            passed = s
        u, v = pairs[depth]
        e1[u] |= 1 << v
        e1[v] |= 1 << u
        if not e1_breaks(u, v) and (found := extend(depth + 1, passed)) is not None:
            return found
        e1[u] ^= 1 << v
        e1[v] ^= 1 << u
        for a, b in ((u, v), (v, u)):
            out[a] |= 1 << b
            into[b] |= 1 << a
            if not arc_breaks(a, b) and (found := extend(depth + 1, passed)) is not None:
                return found
            out[a] ^= 1 << b
            into[b] ^= 1 << a
        return None

    return extend(0, None)


def search_overlap_rep(
    g: SimpleGraph,
    budget: SearchBudget | None = None,
    cover_shape: Tree | None = None,
) -> SearchResult:
    """Exhaustive search for an overlap representation of ``g`` whose
    covering subtree, when ``cover_shape`` is given, is isomorphic to it.

    By the paper's equivalence, g has one covered by a tree R iff its
    complement has a mixed partition whose (V, e1) is the disjointness
    graph of nonempty subtrees of R; with no shape the host covers, and
    (V, e1) need only be cochordal (Gavril 1974).  Each class is a leaf
    test on e1's masks and a certificate on R built once from the partition
    found and the test's answer at its leaf: :func:`graphs._co_eliminate`
    and :func:`e1_certificate`, or a shape's (:func:`_subtrees_of`); the
    family found is ``mixed_to_bushy`` of the two.  Under a one-vertex
    shape the complement of g is the members' containment order, so no
    search runs, and no vertex cap applies: g must be cocomparability
    (``star_rep_from_orientation``).  So 'none' is proved, and
    'inconclusive' means the time budget ran out.
    """
    if cover_shape is not None and len(cover_shape.vertices) == 1:
        cocomparability = recognize(g, "cocomparability")
        if not cocomparability.holds:
            return SearchResult("none")
        family = star_rep_from_orientation(cocomparability.witness.payload)
    else:
        deadline = _Deadline(budget)
        if cover_shape is None:
            test, certify = _co_eliminate, lambda p, _: e1_certificate(p)
        else:
            test, certify = _subtrees_of(cover_shape, len(g.vertices), deadline)
        try:
            found = _search("overlap-representation", g, deadline, test)
        except _BudgetUp:
            return SearchResult(
                "inconclusive",
                detail=f"time budget of {deadline.seconds:g} s ran out",
            )
        if found is None:
            return SearchResult("none")
        partition, value = found
        family = mixed_to_bushy(partition, certify(partition, value))
    if derive_graph(family, "overlap").edges != g.edges:
        raise AssertionError("search produced a family of another overlap graph")
    return SearchResult("found", family)


def _subtrees_of(shape: Tree, n: int, deadline: _Deadline):
    """The cover class of a shape R of two or more vertices, for n members:
    a leaf test that returns the members' spans on R, or None, building no
    family and keeping nothing between calls, and the certificate built from
    a partition and the spans the test returned for its e1, subtrees of R
    named after the partition's base whose disjointness graph is (V, e1).

    The members' intersection graph H must be chordal.  By the Helly property
    (Gavril 1974) each maximal clique of H has a point of R in all its
    members, no two cliques the same one; shrinking each member to the span
    of its cliques' points keeps every meeting pair.  So a backtrack puts the
    cliques, in clique-tree order, on distinct vertices of R, and cuts a
    branch once the spans of two e1 partners meet.  Only n of the leaves next
    to one vertex, and n vertices of each chain of degree-2 vertices, are
    candidates: such leaves are interchangeable, and moving a chain's points
    in order along it changes no intersection.  Bit i of a span stands for
    candidate i, taken breadth first from R's first vertex with children in
    label order, not in hash order, so the answer is the same in every
    process; a path is the symmetric difference of two root paths plus the
    deepest common vertex.
    """
    parent, adj = shape._parent, shape.adjacency()
    order = [shape.vertices[0]]
    for v in order:
        order += sorted(adj[v] - {parent[v]})
    chain, used, kept = {}, Counter(), []
    root_path = {None: 0}  # the candidates on each vertex's root path
    for v in order:  # n candidates per chain, per parent's leaves, per other vertex
        p = parent[v]
        if len(adj[v]) == 2:
            group = chain[v] = chain.get(p, ("chain", v))
        else:
            group = ("leaf", p) if len(adj[v]) == 1 else v
        root_path[v] = root_path[p]
        if used[group] < n:
            used[group] += 1
            root_path[v] |= 1 << len(kept)
            kept.append(v)

    def path(a: int, b: int) -> int:
        ra, rb = root_path[kept[a]], root_path[kept[b]]
        return ra ^ rb | 1 << (ra & rb).bit_length() - 1

    def test(e1_masks: list[int]) -> list[int] | None:
        cochordal = _co_eliminate(e1_masks)
        if cochordal is None:
            return None
        cliques, _ = _clique_tree(*cochordal)
        if len(cliques) > len(kept):
            return None
        spans = [0] * len(e1_masks)

        def place(k: int, free: int) -> bool:
            deadline.check()
            if k == len(cliques):
                return True
            members = list(_bits(cliques[k]))
            saved = spans[:]
            for x in _bits(free):
                for v in members:  # joined to any vertex of the span so far
                    s = spans[v]
                    spans[v] = s | path(x, (s & -s).bit_length() - 1) if s else 1 << x
                if not any(
                    spans[v] & spans[w] for v in members for w in _bits(e1_masks[v])
                ) and place(k + 1, free ^ 1 << x):
                    return True
                spans[:] = saved
            return False

        return spans if place(0, (1 << len(kept)) - 1) else None

    def certify(p: MixedPartition, spans: list[int]) -> SubtreeFamily:
        """The members on R: each span's candidates and the walks from them
        up to its first, their common ancestor."""
        members = {}
        for v, span in zip(sorted(p.base.vertices), spans):
            members[v] = {kept[(span & -span).bit_length() - 1]}
            for i in _bits(span):
                w = kept[i]
                while w not in members[v]:
                    members[v].add(w)
                    w = parent[w]
        return SubtreeFamily.build(shape, {v: members[v] for v in p.base.vertices})

    return test, certify


class _BudgetUp(Exception):
    pass
