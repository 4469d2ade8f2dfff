"""Brute-force ground truth at tiny scale.

Everything here trades speed for exhaustiveness: chordless-cycle listing,
mixed-partition search by trying every bipartition of the complement's
edges, and overlap-representation search over all small host trees (up to
isomorphism) and all assignments of connected subsets to members.  The
hosts of each size, with their connected subsets as vertex bitmasks, are
built once per process, when a search first reaches that size.  Budget
exhaustion is a first-class 'inconclusive' outcome, never converted into a
mathematical claim, and identical inputs with identical budgets always
yield identical outputs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, product

from .derive import derive_graph
from .errors import DeskScaleError, InputError
from .graphs import SimpleGraph, complement, edge_key, recognize
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


def _default_seconds() -> float:
    raw = os.environ.get(BUDGET_ENV_VAR)
    if raw is None:
        return float(DEFAULT_BUDGET_SECONDS)
    try:
        return float(int(raw))
    except ValueError as exc:
        raise InputError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from exc


@dataclass(frozen=True)
class SearchBudget:
    """Caps enforced before a search starts, never mid-result."""

    max_host_vertices: int = 6
    max_members: int = 8
    time_limit_seconds: float = field(default_factory=_default_seconds)

    def __post_init__(self):
        if (
            self.max_host_vertices <= 0
            or self.max_members <= 0
            or self.time_limit_seconds <= 0
        ):
            raise InputError("budget fields must all be positive")
        if self.max_host_vertices > MAX_ENUMERABLE_HOST:
            raise DeskScaleError(
                f"host enumeration is capped at {MAX_ENUMERABLE_HOST} vertices"
            )


@dataclass(frozen=True)
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


def enumerate_chordless_cycles(
    g: SimpleGraph, min_length: int = 4
) -> list[tuple[str, ...]]:
    """Every chordless cycle of length >= min_length, once per cycle.

    Cycles are canonicalized: least vertex first, lesser neighbour second.
    An empty result (with min_length 4) certifies chordality.
    """
    if len(g.vertices) > 10:
        raise DeskScaleError(
            "chordless-cycle enumeration is capped at 10 vertices"
        )
    if min_length < 4:
        raise InputError("min_length below 4 is not meaningful here")
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
                if len(path) + 1 >= min_length and path[1] < w:
                    cycles.append(tuple(path) + (w,))
                continue
            extend(path + [w])

    for v in sorted(g.vertices):
        for u in sorted(adj[v]):
            if u > v:
                extend([v, u])
    return sorted(cycles)


def search_mixed_partition(
    g: SimpleGraph,
    budget: SearchBudget | None = None,
    *,
    max_complement_edges: int = 8,
    max_vertices: int = 6,
) -> SearchResult:
    """Exhaustive mixed-partition search over the complement's edges.

    Bipartitions are enumerated in binary counting order over the sorted
    complement edges (bit set = oriented block); for each bipartition the
    oriented block is searched for a transitive orientation whose every arc
    respects the mixing condition against e1.  The first partition passing
    the verifier is returned; 'none' only after full exhaustion.

    Refused unless the complement has at most ``max_complement_edges`` edges
    or the graph has at most ``max_vertices`` vertices.
    """
    budget = budget or SearchBudget()
    comp = complement(g)
    comp_edges = sorted(comp.edges)
    if len(comp_edges) > max_complement_edges and len(g.vertices) > max_vertices:
        raise InputError(
            f"mixed-partition search needs a complement with "
            f"<= {max_complement_edges} edges or a graph with "
            f"<= {max_vertices} vertices"
        )
    deadline = _Deadline(budget.time_limit_seconds)
    m = len(comp_edges)
    for mask in range(1 << m):
        if deadline.expired():
            return SearchResult(
                "inconclusive", detail=f"time budget hit after {mask} bipartitions"
            )
        e2_pairs = [comp_edges[i] for i in range(m) if mask >> i & 1]
        e1 = frozenset(comp_edges[i] for i in range(m) if not mask >> i & 1)
        arcs = _orient_mixed_block(g.vertices, e1, e2_pairs)
        if arcs is None:
            continue
        e1_graph = SimpleGraph(g.vertices, e1)
        if not recognize(e1_graph, "cochordal").holds:
            continue
        partition = MixedPartition(comp, e1, arcs)
        if verify_mixed_partition(partition):
            raise AssertionError("search produced a partition failing the verifier")
        return SearchResult("found", partition)
    return SearchResult("none")


def _orient_mixed_block(vertices, e1, pairs) -> frozenset | None:
    """First transitive, mixing-respecting orientation of ``pairs``, or None.

    Direction u->v is admissible only if every e1 neighbour of v is an e1
    neighbour of u; backtracking then searches admissible directions in
    order, checking transitivity incrementally.
    """
    e1_nbrs: dict[str, set[str]] = {v: set() for v in vertices}
    for a, b in e1:
        e1_nbrs[a].add(b)
        e1_nbrs[b].add(a)

    def admissible(tail, head) -> bool:
        return e1_nbrs[head] <= e1_nbrs[tail] | {tail}

    options = []
    for u, v in pairs:
        dirs = [d for d in ((u, v), (v, u)) if admissible(*d)]
        if not dirs:
            return None
        options.append(dirs)

    pair_set = {edge_key(u, v) for u, v in pairs}
    chosen: dict[tuple[str, str], tuple[str, str]] = {}

    def closure_ok(a: str, b: str) -> bool:
        """Arc a->b must be available: pair present, direction not contradicted."""
        if a == b:
            return False
        key = edge_key(a, b)
        if key not in pair_set:
            return False
        return chosen.get(key, (a, b)) == (a, b)

    def consistent(tail, head) -> bool:
        for a, b in chosen.values():
            if b == tail and not closure_ok(a, head):
                return False
            if a == head and not closure_ok(tail, b):
                return False
        return True

    def solve(idx: int) -> frozenset | None:
        if idx == len(options):
            arcs = frozenset(chosen.values())
            for a, b in arcs:
                for c, d in arcs:
                    if b == c and a != d and (a, d) not in arcs:
                        return None
            return arcs
        key = edge_key(*options[idx][0])
        for tail, head in options[idx]:
            if consistent(tail, head):
                chosen[key] = (tail, head)
                got = solve(idx + 1)
                if got is not None:
                    return got
                del chosen[key]
        return None

    return solve(0)


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
    """
    budget = budget or SearchBudget()
    n = len(g.vertices)
    if n > 5:
        raise InputError("overlap-representation search is capped at 5 vertices")
    if n > budget.max_members:
        raise InputError(f"{n} members exceed the budget's {budget.max_members}")
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
    return SearchResult("none")


class _BudgetUp(Exception):
    pass
