"""Simple graphs and orientations: the graph core every other module builds on.

A :class:`SimpleGraph` keeps its vertex order and its edges as sorted
label pairs; an :class:`Orientation` gives each edge one direction.  The
recognizers that decide graph classes on them are in :mod:`treerep.graphs`.
"""

from __future__ import annotations

from itertools import chain, combinations, starmap
from operator import lt

from .errors import InputError, record

PROPERTIES = (
    "chordal",
    "cochordal",
    "comparability",
    "cocomparability",
    "interval",
    "cointerval",
)


def edge_key(u: str, v: str) -> tuple[str, str]:
    """Canonical unordered pair: endpoints sorted by label."""
    if u == v:
        raise InputError(f"self-loop at {u!r}")
    return (u, v) if u < v else (v, u)


def _all_canonical(pairs) -> bool:
    """Every entry is a pair of labels, the first sorting strictly before the
    second, checked in one C-level pass.  An entry that is not a pair of
    comparable labels makes the answer False."""
    try:
        return all(starmap(lt, pairs))
    except TypeError:
        return False


@record
class SimpleGraph:
    """Labeled undirected simple graph.

    ``vertices`` is an ordered sequence of distinct labels; ``edges`` is a
    set of label pairs, each stored sorted.  The vertex order is preserved
    by operations that promise it (e.g. :func:`complement`).
    """

    vertices: tuple[str, ...]
    edges: frozenset[tuple[str, str]]

    def __post_init__(self):
        try:
            known = frozenset(self.vertices)
        except TypeError:  # an unhashable label, for the walk to meet
            known = frozenset()
        if (
            len(known) == len(self.vertices)
            and _all_canonical(self.edges)
            and known.issuperset(chain.from_iterable(self.edges))
        ):
            return
        # the per-entry walk, only to name the first bad entry
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise InputError(f"duplicate vertex label {v!r}")
            seen.add(v)
        for e in self.edges:
            if len(e) != 2 or e[0] == e[1]:
                raise InputError(f"bad edge {e!r}")
            if e[0] > e[1]:
                raise InputError(f"edge {e!r} not in canonical order")
            if e[0] not in seen or e[1] not in seen:
                raise InputError(f"edge {e!r} references unknown vertex")

    @classmethod
    def build(cls, vertices, edges) -> "SimpleGraph":
        """Construct from any iterables, canonicalising edge pairs."""
        return cls(tuple(vertices), frozenset(edge_key(u, v) for u, v in edges))

    def adjacency(self) -> dict[str, frozenset[str]]:
        """Neighbour set of every vertex, built once per graph and shared by
        every caller, so callers must not mutate the map."""
        adj = self.__dict__.get("_adjacency")
        if adj is None:
            adj = {v: frozenset(ns) for v, ns in _neighbour_lists(self).items()}
            self.__dict__["_adjacency"] = adj
        return adj

    def has_edge(self, u: str, v: str) -> bool:
        return edge_key(u, v) in self.edges

    def __len__(self) -> int:
        return len(self.vertices)


def _neighbour_lists(g: SimpleGraph) -> dict[str, list[str]]:
    """A fresh list of the neighbours of every vertex, in vertex order."""
    nbrs: dict[str, list[str]] = {v: [] for v in g.vertices}
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def complement(g: SimpleGraph) -> SimpleGraph:
    """Complement over the same vertex sequence."""
    # pairs of sorted labels are canonical already
    missing = frozenset(combinations(sorted(g.vertices), 2)) - g.edges
    return SimpleGraph(g.vertices, missing)


@record
class Orientation:
    """One direction per edge of ``graph``; arcs are (tail, head) pairs."""

    graph: SimpleGraph
    arcs: frozenset[tuple[str, str]]

    def __post_init__(self):
        edges = self.graph.edges
        try:
            keys = [(u, v) if u < v else (v, u) for u, v in self.arcs]
        except (TypeError, ValueError):  # an entry that is not a pair of labels
            keys = None
        # a self-loop's key is never an edge, and two directions of one edge
        # give one key twice, so a set of len(edges) keys equal to edges is exact
        if keys is not None and len(keys) == len(edges) and edges == set(keys):
            return
        # the per-entry walk, only to name the fault
        pairs = [edge_key(u, v) for u, v in self.arcs]
        if len(set(pairs)) != len(pairs):
            raise InputError("some edge received both directions")
        if set(pairs) != set(self.graph.edges):
            raise InputError("arcs do not cover the edge set exactly")


def is_transitive(o: Orientation) -> list[tuple[str, str, str]]:
    """All triples (u, v, w) with u->v and v->w present but u->w missing.

    Empty result means the orientation is transitive.
    """
    return _intransitive_triples(o.arcs)


def _intransitive_triples(arcs) -> list[tuple[str, str, str]]:
    """:func:`is_transitive` on a bare arc set, which needs no graph.

    On successor masks, the w of the bad triples (u, v, w) through an arc
    u->v are the successors of v, less u itself, that u does not reach.
    """
    bit = {v: 1 << i for i, v in enumerate(set(chain.from_iterable(arcs)))}
    labels = list(bit)
    succ = dict.fromkeys(bit, 0)
    for u, v in arcs:
        succ[u] |= bit[v]
    bad = []
    for u, v in arcs:
        m = succ[v] & ~succ[u] & ~bit[u]
        if m:
            bad += [(u, v, labels[i]) for i in _bits(m)]
    return sorted(bad)


def _bits(m: int):
    """The indices of the set bits of ``m``, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low
