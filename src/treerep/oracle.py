"""Brute-force ground truth at tiny scale.

Everything here trades speed for exhaustiveness: chordless-cycle listing,
mixed-partition search by one depth-first search that puts each complement
edge in e1 or orients it either way, cutting a branch once a triple of
decided pairs breaks transitivity or mixing, and overlap-representation
search over all small host trees (up to isomorphism) and all assignments
of connected subsets to members.  The mixed-partition search takes graphs
with up to 9 vertices, and answers every graph with 8.  The hosts of each
size, with their connected subsets as vertex bitmasks, are built once per
process, when a search first reaches that size.  Budget exhaustion is a
first-class 'inconclusive' outcome, never converted into a mathematical
claim, and identical inputs with identical budgets always yield identical
outputs.
"""

from __future__ import annotations

import os
import time
from functools import cache
from itertools import chain, product

from .derive import derive_graph
from .errors import DeskScaleError, InputError, factory, record
from .graphs import (
    SimpleGraph,
    _eliminate,
    _find_transitive_orientation,
    _label_masks,
    complement,
    edge_key,
)
from .mixed import MixedPartition, verify_mixed_partition
from .trees import (
    SubtreeFamily,
    Tree,
    canonical_code,
    induced_subtree,
)

BUDGET_ENV_VAR = "TREEREP_BUDGET_SECONDS"
DEFAULT_BUDGET_SECONDS = 30

#: Host enumeration beyond this is not desk scale.
MAX_ENUMERABLE_HOST = 8

#: The mixed-partition search refuses a graph with more vertices than this.
MIXED_MAX_VERTICES = 9


def _default_seconds() -> float:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return float(DEFAULT_BUDGET_SECONDS)
    try:
        return float(int(raw))
    except ValueError as exc:
        raise InputError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc


@record
class SearchBudget:
    """Caps enforced before a search starts, never mid-result."""

    max_host_vertices: int = 6
    time_limit_seconds: float = factory(_default_seconds)

    def __post_init__(self):
        if self.max_host_vertices <= 0 or self.time_limit_seconds <= 0:
            raise InputError("budget fields must all be positive")
        if self.max_host_vertices > MAX_ENUMERABLE_HOST:
            raise DeskScaleError(
                f"host enumeration is capped at {MAX_ENUMERABLE_HOST} vertices"
            )


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
    def __init__(self, seconds: float):
        self.expires = time.monotonic() + seconds

    def expired(self) -> bool:
        return time.monotonic() >= self.expires


def enumerate_chordless_cycles(g: SimpleGraph) -> list[tuple[str, ...]]:
    """Every chordless cycle of length >= 4, once per cycle.

    Cycles are canonicalized: least vertex first, lesser neighbour second.
    An empty result certifies chordality.
    """
    if len(g.vertices) > 10:
        raise DeskScaleError(
            "chordless-cycle enumeration is capped at 10 vertices"
        )
    adj = g.adjacency()
    cycles: list[tuple[str, ...]] = []

    def extend(path: list[str]) -> None:
        start = path[0]
        interior = set(path[1:-1])
        for w in sorted(adj[path[-1]]):
            if w <= start or w in path:
                continue
            if adj[w] & interior:
                continue  # chord back into the path
            if start in adj[w]:
                # closing edge; a longer walk through w would leave a chord
                if len(path) >= 3 and path[1] < w:
                    cycles.append(tuple(path) + (w,))
                continue
            extend(path + [w])

    for v in sorted(g.vertices):
        for u in sorted(adj[v]):
            if u > v:
                extend([v, u])
    return sorted(cycles)


def search_mixed_partition(
    g: SimpleGraph, budget: SearchBudget | None = None
) -> SearchResult:
    """Exhaustive mixed-partition search over the complement's edges.

    One depth-first search gives each complement edge uv (u < v) one of
    three states, tried in the order e1, u->v, v->u, taking the edges from
    the highest in sorted order down.  After each choice it checks every
    triple whose three pairs are decided (an edge of ``g`` is), and cuts
    the branch once one breaks transitivity (x->y->z without x->z) or
    mixing (x->y and yz in e1 without xz in e1).  Its masks have one bit
    per vertex in label order, the decided pairs seeded with the graph's
    own (``graphs._label_masks``).  The first leaf whose (V, e1) is
    cochordal is returned: the closed neighbourhoods of its complement,
    every vertex but a vertex's e1 partners, go straight to the
    elimination scan.  'none' only after full exhaustion.

    Refused when ``g`` has more than ``MIXED_MAX_VERTICES`` vertices.
    """
    budget = budget or SearchBudget()
    if len(g.vertices) > MIXED_MAX_VERTICES:
        raise InputError(
            f"mixed-partition search is capped at {MIXED_MAX_VERTICES} vertices"
        )
    comp = complement(g)
    deadline = _Deadline(budget.time_limit_seconds)
    pairs = sorted(comp.edges, reverse=True)
    labels, closed = _label_masks(g, False)
    bit = {v: 1 << i for i, v in enumerate(labels)}
    full = (1 << len(bit)) - 1
    # per vertex, as masks: the partners whose pair is decided (and, unread,
    # itself), its e1 partners, the heads of its arcs and the tails of its
    # incoming arcs
    done = dict(zip(labels, closed))
    e1, out, into = (dict.fromkeys(labels, 0) for _ in range(3))
    e1_pairs, arcs = [], []
    nodes = 0

    def e1_breaks(u, v) -> int:
        """Nonzero if uv in e1 breaks a decided triple: only arcs at u or v can."""
        return (
            out[u] & into[v]
            or out[v] & into[u]
            or into[u] & done[v] & ~e1[v]
            or into[v] & done[u] & ~e1[u]
        )

    def arc_breaks(u, v) -> int:
        """Nonzero if the arc u->v breaks a decided triple."""
        return (
            out[v] & done[u] & ~out[u]
            or into[u] & done[v] & ~into[v]
            or e1[v] & done[u] & ~e1[u]
            or out[u] & e1[v]
            or out[v] & e1[u]
        )

    def extend(depth: int) -> MixedPartition | None:
        nonlocal nodes
        nodes += 1
        if deadline.expired():
            raise _BudgetUp()
        if depth == len(pairs):
            if _eliminate([full ^ m for m in e1.values()]) is not None:
                return MixedPartition(comp, frozenset(e1_pairs), frozenset(arcs))
            return None
        u, v = pair = pairs[depth]
        done[u] |= bit[v]
        done[v] |= bit[u]
        e1[u] |= bit[v]
        e1[v] |= bit[u]
        if not e1_breaks(u, v):
            e1_pairs.append(pair)
            if (found := extend(depth + 1)) is not None:
                return found
            e1_pairs.pop()
        e1[u] ^= bit[v]
        e1[v] ^= bit[u]
        for a, b in (pair, pair[::-1]):
            out[a] |= bit[b]
            into[b] |= bit[a]
            if not arc_breaks(a, b):
                arcs.append((a, b))
                if (found := extend(depth + 1)) is not None:
                    return found
                arcs.pop()
            out[a] ^= bit[b]
            into[b] ^= bit[a]
        done[u] ^= bit[v]
        done[v] ^= bit[u]
        return None

    try:
        partition = extend(0)
    except _BudgetUp:
        return SearchResult(
            "inconclusive", detail=f"time budget hit after {nodes} search nodes"
        )
    if partition is None:
        return SearchResult("none")
    if verify_mixed_partition(partition):
        raise AssertionError("search produced a partition failing the verifier")
    return SearchResult("found", partition)


def enumerate_host_trees(max_vertices: int) -> list[Tree]:
    """All trees on 1..max_vertices vertices, one per isomorphism class.

    Generated from parent sequences and deduplicated by canonical code;
    ordered by vertex count then code, labels h1..hk.  Each size is built
    once per process, when first asked for, and shared with
    ``search_overlap_rep``; the list returned is a fresh one.
    """
    if max_vertices > MAX_ENUMERABLE_HOST:
        raise DeskScaleError(
            f"host enumeration is capped at {MAX_ENUMERABLE_HOST} vertices"
        )
    # the one-vertex host is always included
    sizes = range(1, max(max_vertices, 1) + 1)
    return [host for k in sizes for host, _, _ in _hosts(k)]


@cache
def _hosts(k: int) -> tuple[tuple[Tree, tuple, tuple], ...]:
    """The hosts on k vertices, in ``enumerate_host_trees`` order, each with
    its connected subsets (smallest first) and their vertex bitmasks."""
    labels = tuple(f"h{i}" for i in range(1, k + 1))
    bit = {v: 1 << i for i, v in enumerate(labels)}
    seen: dict[str, Tree] = {}
    for parents in product(*(range(i) for i in range(1, k))):
        edges = (edge_key(labels[i + 1], labels[p]) for i, p in enumerate(parents))
        tree = Tree(labels, frozenset(edges))
        seen.setdefault(canonical_code(tree), tree)
    out = []
    for _, host in sorted(seen.items()):
        subs = tuple(connected_subsets(host))
        out.append((host, subs, tuple(sum(bit[v] for v in s) for s in subs)))
    return tuple(out)


def connected_subsets(t: Tree) -> list[frozenset[str]]:
    """All nonempty vertex subsets inducing a subtree, smallest first."""
    adj = t.adjacency()
    found = {frozenset({v}) for v in t.vertices}
    frontier = list(found)
    while frontier:
        base = frontier.pop()
        reachable = set()
        for v in base:
            reachable |= adj[v]
        for u in reachable - base:
            grown = base | {u}
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def search_overlap_rep(
    g: SimpleGraph,
    budget: SearchBudget | None = None,
    cover_shape: Tree | None = None,
) -> SearchResult:
    """Exhaustive search for an overlap representation of ``g``.

    Hosts are enumerated up to isomorphism within the budget; member
    subtrees are assigned by backtracking against the required pairwise
    overlap pattern.  When ``cover_shape`` is given, a family only counts
    if some covering subtree of the host is isomorphic to that tree.

    'none' comes before any host is tried, and only where a theorem rules
    every host out: the cover shape has one vertex and ``g`` is not
    cocomparability.  With no family up to the cap, it is 'inconclusive'.
    """
    budget = budget or SearchBudget()
    n = len(g.vertices)
    if n > 5:
        raise InputError("overlap-representation search is capped at 5 vertices")
    # Under a one-vertex cover every member holds that vertex, so the
    # complement of g is their containment order; conversely a
    # cocomparability graph has a star representation on len(g) + 1 host
    # vertices (mixed.star_rep_from_orientation).
    star = cover_shape is not None and len(cover_shape.vertices) == 1
    if star and _find_transitive_orientation(*_label_masks(g, True)) is None:
        return SearchResult("none")
    cap_reached = SearchResult(
        "inconclusive",
        detail=f"host cap {budget.max_host_vertices} reached with no representation",
    )
    # a shape larger than every host fits none, so it is never coded
    if cover_shape is not None and len(cover_shape.vertices) > budget.max_host_vertices:
        return cap_reached
    deadline = _Deadline(budget.time_limit_seconds)
    shape_code = canonical_code(cover_shape) if cover_shape is not None else None
    names = g.vertices
    overlap_wanted = {
        (i, j): g.has_edge(names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
    }

    sizes = range(1, budget.max_host_vertices + 1)
    for host, subs, masks in chain.from_iterable(map(_hosts, sizes)):
        covers = None
        if cover_shape is not None:
            covers = [
                m
                for s, m in zip(subs, masks)
                if canonical_code(induced_subtree(host, s)) == shape_code
            ]
            if not covers:
                continue
        chosen: list[int] = []

        def matches(idx: int, pick: int) -> bool:
            a = masks[pick]
            for j, other in enumerate(chosen):
                b = masks[other]
                x = a & b
                if bool(x and x != a and x != b) != overlap_wanted[(j, idx)]:
                    return False
            return True

        def assign(idx: int):
            if deadline.expired():
                raise _BudgetUp()
            if idx == n:
                if covers is None or any(
                    all(c & masks[i] for i in chosen) for c in covers
                ):
                    return SubtreeFamily(
                        host, tuple((names[i], subs[chosen[i]]) for i in range(n))
                    )
                return None
            for pick in range(len(subs)):
                if matches(idx, pick):
                    chosen.append(pick)
                    got = assign(idx + 1)
                    if got is not None:
                        return got
                    chosen.pop()
            return None

        try:
            family = assign(0)
        except _BudgetUp:
            return SearchResult(
                "inconclusive",
                detail=f"time budget hit while searching host {host.vertices}",
            )
        if family is not None:
            assert derive_graph(family, "overlap").edges == g.edges
            return SearchResult("found", family)
    return cap_reached


class _BudgetUp(Exception):
    pass
