"""Desk-scale recognition of graph classes.

Recognition covers chordal, cochordal, comparability, cocomparability,
interval, and cointerval.  Every positive answer carries an explicit
witness (a perfect elimination order, a transitive orientation, or a
consecutive maximal-clique order).  Both recognisers are polynomial and
need no backtracking -- greedy simplicial elimination, and Golumbic's
G-decomposition into implication classes -- and both break ties by vertex
label order so witnesses are deterministic.  Interval recognition composes
the two: a graph is interval iff it is chordal and cocomparability.

Every recognition core -- the elimination scan, the G-decomposition and
the clique tree -- takes only int bitmask closed neighbourhoods.
`_pair_masks` alone builds masks from label pairs, and `_label_masks`
alone chooses between a graph's masks, in label order, and its
complement's, read off the former; the complement is built only for a
cocomparability witness.  A graph's cochordality is decided by `_eliminate`
on `_label_masks(g, True)`, in `recognize`; that of a list of open
neighbourhood masks, such as a mixed partition's e1, by `_co_eliminate`.

The graph core lives in :mod:`treerep.simple`; its public names are
re-exported here.
"""

from __future__ import annotations

from collections import Counter

from .errors import InputError, record
from .simple import (  # noqa: F401 -- the core's public names, re-exported
    PROPERTIES,
    Orientation,
    SimpleGraph,
    _bits,
    complement,
    edge_key,
    is_transitive,
)


@record
class PropertyWitness:
    """Evidence attached to a recognition answer.

    kind 'perfect-elimination-order' carries a vertex order, kind
    'transitive-orientation' an :class:`Orientation`, kind 'clique-order'
    a consecutive arrangement of maximal cliques, and kind 'none' nothing.
    For the co-classes the witness refers to the complement graph.
    """

    kind: str
    payload: object = None


@record
class RecognitionResult:
    prop: str
    holds: bool
    witness: PropertyWitness

    def __bool__(self) -> bool:
        return self.holds


_NO_WITNESS = PropertyWitness("none")


def recognize(g: SimpleGraph, prop: str) -> RecognitionResult:
    """Decide a graph-class membership and produce a witness.

    chordal        greedy simplicial elimination (perfect elimination order)
    cochordal      the same elimination on the complement's neighbourhoods
    comparability  G-decomposition into implication classes (Golumbic);
                   the witness is a transitive orientation
    cocomparability  the same decomposition on the complement's masks
    interval       chordal and cocomparability (Gilmore-Hoffman); the
                   witness is a consecutive order of the maximal cliques
    cointerval     interval on the complement

    Every search runs on the label-order masks of h, the graph that must be
    in the class (``g`` or its complement), and interval on those of h's
    complement too.
    """
    if prop not in PROPERTIES:
        raise InputError(f"unknown property {prop!r}; expected one of {PROPERTIES}")
    co = prop in ("cochordal", "cocomparability", "cointerval")
    labels, closed = _label_masks(g, co)
    if prop.endswith("comparability"):
        arcs = _find_transitive_orientation(labels, closed)
        if arcs is None:
            return RecognitionResult(prop, False, _NO_WITNESS)
        orient = Orientation(complement(g) if co else g, arcs)
        return RecognitionResult(
            prop, True, PropertyWitness("transitive-orientation", orient)
        )
    order = _eliminate(closed)
    if order is None:
        return RecognitionResult(prop, False, _NO_WITNESS)
    if prop.endswith("chordal"):
        peo = tuple(labels[v] for v in order)
        return RecognitionResult(
            prop, True, PropertyWitness("perfect-elimination-order", peo)
        )
    arcs = _find_transitive_orientation(*_label_masks(g, not co))
    if arcs is None:
        return RecognitionResult(prop, False, _NO_WITNESS)
    cliques = _clique_order(labels, closed, order, arcs)
    return RecognitionResult(prop, True, PropertyWitness("clique-order", cliques))


def _label_masks(g: SimpleGraph, complemented: bool) -> tuple:
    """The labels of ``g`` in sorted order, and each one's closed
    neighbourhood in ``g``, or in its complement when ``complemented``, as
    an int mask: bit i stands for the i-th label.  In the complement, that
    is every vertex but the vertex's neighbours in ``g``.  The masks are
    built once per graph, but the list is fresh, for a caller to clear."""
    cached = g.__dict__.get("_label_masks")
    if cached is None:
        labels = tuple(sorted(g.vertices))
        masks = tuple(_pair_masks(labels, g.edges).values())
        cached = g.__dict__["_label_masks"] = labels, masks
    labels, masks = cached
    if complemented:
        full = (1 << len(labels)) - 1
        return labels, [full ^ m for m in masks]
    return labels, [m | 1 << i for i, m in enumerate(masks)]


def _pair_masks(order, pairs) -> dict:
    """Each vertex of ``order`` mapped to its open neighbourhood mask in the
    graph whose edges are ``pairs``; bit i stands for ``order[i]``."""
    bit = {v: 1 << i for i, v in enumerate(order)}
    masks = dict.fromkeys(order, 0)
    for u, v in pairs:
        masks[u] |= bit[v]
        masks[v] |= bit[u]
    return masks


def _co_eliminate(masks) -> tuple[list[int], list[int]] | None:
    """The closed neighbourhood masks of the complement of the graph whose
    open neighbourhood masks are ``masks``, and a perfect elimination order
    of that complement, or None when the graph is not cochordal."""
    full = (1 << len(masks)) - 1
    closed = [full ^ m for m in masks]
    order = _eliminate(closed)
    return None if order is None else (closed, order)


def _eliminate(closed: list[int]) -> list[int] | None:
    """A perfect elimination order, as bit indices, of the graph whose
    closed neighbourhood masks are ``closed``, or None.

    Succeeds exactly on chordal graphs: every nonempty chordal graph has a
    simplicial vertex and deleting one preserves chordality.

    The lowest live bit is the first candidate.  With m the live part of
    ``closed[v]``, v is simplicial iff m lies inside ``closed[a]`` for
    every live neighbour a: each neighbour then sees all the others.
    Eliminating v clears its bit of ``live``; nothing else changes.
    """
    live = (1 << len(closed)) - 1
    stuck = 0  # live vertices found not simplicial since a neighbour went
    order = []
    while live:
        rest = live & ~stuck
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            m = closed[v] & live
            nbrs = m ^ low
            while nbrs:
                b = nbrs & -nbrs
                if m & ~closed[b.bit_length() - 1]:
                    break
                nbrs ^= b
            else:
                break
            stuck |= low
            rest ^= low
        else:
            return None
        live ^= low
        stuck &= ~closed[v]
        order.append(v)
    return order


def _find_transitive_orientation(
    labels: tuple[str, ...], nbrs: list[int]
) -> frozenset[tuple[str, str]] | None:
    """The arcs, as label pairs, of a transitive orientation of the graph
    whose closed neighbourhood masks are ``nbrs``, by G-decomposition
    (Golumbic 1980, Alg. 5.1); ``nbrs`` is consumed.

    Edges are taken in label order.  Each edge not yet oriented is oriented
    forward together with its implication class in the graph of edges still
    unoriented, and that class is then removed.  The graph is comparability
    iff no class holds both directions of an edge, and then the union of
    the classes is transitive (Thm 5.3; asserted regardless).

    ``nbrs`` holds, as the search goes, the masks of the edges still
    unoriented.  Edges ab, ac with bc missing both leave a, and ab, cb with
    ac missing both enter b: a->b forces a->c for c in nbrs[a] - nbrs[b],
    and c->b for c in nbrs[b] - nbrs[a] (a and b are in both masks).
    ``out[a]`` and ``into[a]`` mask the arcs oriented so far out of and
    into a, so one AND drops the arcs a class holds already and another
    finds a reversed one.  They need no clearing between classes: an arc of
    an earlier class is an edge already gone from ``nbrs``, and every bit
    tested against them comes from ``nbrs``.  ``span`` masks the vertices a
    class touched, so removing its edges from ``nbrs`` walks only those.
    """
    n = len(labels)
    out, into = [0] * n, [0] * n
    for u in range(n):
        while higher := nbrs[u] >> u + 1:
            v = u + (higher & -higher).bit_length()
            out[u] |= 1 << v
            into[v] |= 1 << u
            span = 1 << u | 1 << v
            stack = [(u, v)]
            while stack:
                a, b = stack.pop()
                na, nb = nbrs[a], nbrs[b]
                # arcs forced out of a ...
                if new := na & ~nb & ~out[a]:
                    if new & into[a]:
                        return None
                    out[a] |= new
                    span |= new
                    bit = 1 << a
                    while new:
                        low = new & -new
                        c = low.bit_length() - 1
                        into[c] |= bit
                        stack.append((a, c))
                        new ^= low
                # ... and into b
                if new := nb & ~na & ~into[b]:
                    if new & out[b]:
                        return None
                    into[b] |= new
                    span |= new
                    bit = 1 << b
                    while new:
                        low = new & -new
                        c = low.bit_length() - 1
                        out[c] |= bit
                        stack.append((c, b))
                        new ^= low
            for a in _bits(span):
                nbrs[a] &= ~(out[a] | into[a])
    # the label arcs, with Thm 5.3 asserted regardless: a's successors'
    # successors are a's
    arcs = []
    for a, m in enumerate(out):
        reach = 0
        for b in _bits(m):
            reach |= out[b]
            arcs.append((labels[a], labels[b]))
        if reach & ~m:
            raise AssertionError("orientation search produced a non-transitive result")
    return frozenset(arcs)


def _clique_tree(closed: list[int], order: list[int]) -> tuple[list[int], list[int]]:
    """The maximal cliques of a chordal graph h, as masks, and each one's
    parent index in a clique tree (-1 for the first), in one reverse pass
    over the perfect elimination order ``order`` of h (Blair-Peyton 1993);
    ``closed`` holds h's closed neighbourhood masks.

    Each vertex v, taken from last to first, sees its later neighbours L, a
    clique inside ``home[u]``, the clique that u, the first of L, opened or
    joined.  If L is all of it, v joins it; otherwise {v} + L is a new
    clique, hung under it.  With L empty, v's new clique hangs under the
    previous one, which joins the components.  Every vertex's cliques form
    a subtree (Gavril 1974).
    """
    rank = {v: i for i, v in enumerate(order)}
    home, seen, cliques, parents = {}, 0, [], []
    for v in reversed(order):
        later = closed[v] & seen
        k = home[min(_bits(later), key=rank.__getitem__)] if later else len(cliques) - 1
        if not later or later != cliques[k]:
            parents.append(k)
            k = len(cliques)
            cliques.append(later)
        cliques[k] |= 1 << v
        home[v] = k
        seen |= 1 << v
    return cliques, parents


def _clique_order(
    labels: tuple[str, ...], closed: list[int], order: list[int], arcs: frozenset
) -> tuple[tuple[str, ...], ...]:
    """The maximal cliques of an interval graph h in consecutive order.

    The maximal cliques come from :func:`_clique_tree` on h's closed
    neighbourhood masks ``closed`` and its perfect elimination order
    ``order``, bit i standing for ``labels[i]``.  ``arcs``, a transitive
    orientation of the complement of h, are an interval order, so
    predecessor sets are nested (Fishburn); each maximal clique is the
    antichain of elements whose predecessors lie inside its largest
    predecessor set, and sorting by the size of that set puts every
    vertex's cliques next to each other.  Ties cannot occur; breaking them
    by the clique's labels keeps the order deterministic.
    """
    masks, _ = _clique_tree(closed, order)
    cliques = [tuple(labels[v] for v in _bits(c)) for c in masks]
    preds = Counter(head for _, head in arcs)
    return tuple(sorted(cliques, key=lambda c: (max(preds[a] for a in c), c)))
