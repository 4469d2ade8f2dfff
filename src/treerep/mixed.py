"""Cochordal-mixed partitions and the constructive equivalences.

A mixed partition splits the edges of a base graph (the complement of the
represented graph) into an undirected block e1 and a transitively oriented
block e2 such that heads of e2 arcs pass their e1 neighbourhoods back to
their tails.  `overlap_to_mixed` reads such a partition off any covered
overlap family, classifying each pair of member masks once, together with
a disjointness certificate on the cover tree R; `e1_certificate` builds
one from e1 alone, on the clique tree of its complement.  A certificate
proves (V, e1) cochordal by itself (Gavril 1974); without one, or when one
fails, the verifier decides it by `graphs._co_eliminate` on e1's masks.
`mixed_to_bushy` rebuilds, from a partition plus a certificate, an overlap
family whose host is R plus pendant leaves and in which R is bushy.  It
shrinks the certificate on the member masks its check built, and the
families it makes keep their masks for later stages.
`star_rep_from_orientation` is its case with e1 empty.

Three families are built from checked parts by :func:`trees._valid_family`,
which marks them valid as they are made for :func:`trees.require_valid`:
`overlap_to_mixed`'s certificate (each member is a checked subtree met
with the covering subtree r, and two subtrees of a tree meet in a
subtree), `_shrink`'s new family (both callers check its input first, and
each member is a nonempty intersection of subtrees) and `mixed_to_bushy`'s
family (each member is a shrunk subtree of R plus pendant leaves hung from
the label-least vertices of its own and its e2 tails' shrunk members, all
inside its own by the containment fixpoint).  `verify_mixed_partition`
still checks in full every certificate a caller hands it.
"""

from __future__ import annotations

from itertools import combinations

from .derive import derive_graph
from .errors import InputError, Violation, record
from .graphs import _clique_tree, _co_eliminate, _pair_masks
from .simple import (
    Orientation,
    SimpleGraph,
    _all_canonical,
    _bits,
    _intransitive_triples,
    edge_key,
)
from .trees import (
    SubtreeFamily,
    Tree,
    _member_masks,
    _valid_family,
    induced_subtree,
    is_covering_subtree,
    require_valid,
)


@record
class MixedPartition:
    """Edge split of ``base``: undirected block e1, oriented block e2.

    The underlying pairs of e1 and e2 partition the base edge set exactly;
    e2 holds at most one arc per pair.
    """

    base: SimpleGraph
    e1: frozenset[tuple[str, str]]
    e2: frozenset[tuple[str, str]]

    def __post_init__(self):
        e1, e2 = self.e1, self.e2
        try:
            pairs2 = frozenset([(u, v) if u < v else (v, u) for u, v in e2])
        except (TypeError, ValueError):  # an arc that is not a pair of labels
            pairs2 = None
        # base has no self-loop, so neither has an e2 that passes
        if (
            pairs2 is not None
            and _all_canonical(e1)
            and len(pairs2) == len(e2)
            and not e1 & pairs2
            and e1 | pairs2 == self.base.edges
        ):
            return
        # the per-entry walk, only to name the first bad pair
        for u, v in e1:
            if (u, v) != edge_key(u, v):
                raise InputError(f"e1 pair {(u, v)!r} not in canonical order")
        pairs2 = [edge_key(u, v) for u, v in e2]
        if len(set(pairs2)) != len(pairs2):
            raise InputError("e2 contains both directions of some pair")
        pairs2 = frozenset(pairs2)
        if e1 & pairs2:
            raise InputError("e1 and e2 share an edge")
        if e1 | pairs2 != self.base.edges:
            raise InputError("e1 and e2 do not partition the base edge set")


def verify_mixed_partition(
    p: MixedPartition, e1_certificate: SubtreeFamily | None = None
) -> list[Violation]:
    """Itemized checks of the mixed-partition conditions.

    (a) (V, e1) is cochordal -- settled by a certificate family alone when
        its disjointness graph is exactly (V, e1) (Gavril 1974), else by
        the elimination scan on the complement of (V, e1); a failed
        certificate of a cochordal (V, e1) is also an internal inconsistency.
    (b) e2 is transitive.
    (c) mixing: u->v in e2 and vw in e1 imply uw in e1.
    (d) e2 is irreflexive and antisymmetric: the type guarantees it.
    """
    out = []
    vertices = p.base.vertices
    # e1 neighbourhood masks, bit i for vertices[i]; for u->v, u is not in nbr[v]
    nbr = _pair_masks(vertices, p.e1)

    if e1_certificate is not None:
        problem = None
        if set(e1_certificate.names()) != set(vertices):
            problem = "certificate member names do not match the base vertices"
        else:
            try:
                if derive_graph(e1_certificate, "disjointness").edges != p.e1:
                    problem = "certificate disjointness graph differs from (V, e1)"
            except InputError as exc:
                problem = f"certificate is invalid: {exc}"
        if problem:
            out.append(Violation("e1-certificate", problem))
            if _co_eliminate(nbr.values()) is not None:
                out.append(
                    Violation(
                        "internal-consistency",
                        "certificate check and cochordality recognition disagree "
                        "(certificate=False, recognition=True)",
                    )
                )
    elif _co_eliminate(nbr.values()) is None:
        out.append(Violation("e1-not-cochordal", "(V, e1) is not cochordal"))

    for u, v, w in _intransitive_triples(p.e2):
        out.append(
            Violation("not-transitive", f"{u}->{v}->{w} without {u}->{w}")
        )
    for u, v in sorted(a for a in p.e2 if nbr[a[1]] & ~nbr[a[0]]):
        out.extend(
            Violation("mixing", f"{u}->{v} with {v}{w} in e1 but {u}{w} not in e1")
            for w in map(vertices.__getitem__, _bits(nbr[v] & ~nbr[u]))
        )
    return out


def e1_certificate(p: MixedPartition) -> SubtreeFamily:
    """A disjointness certificate for ``p`` read off e1 alone.

    (V, e1) must be cochordal.  The host is the clique tree of its
    complement, its cliques labelled k1, k2, ... as they open, and member v
    is the set of cliques that hold v.  Two members meet exactly when their
    vertices share a clique, that is when they are adjacent in the
    complement, so the disjointness graph is (V, e1) (Gavril 1974).  With
    no vertex, the host is the single vertex k1 and there is no member.
    The clique tree is built on :func:`graphs._co_eliminate` of e1's masks.
    """
    vertices = sorted(p.base.vertices)
    cochordal = _co_eliminate(_pair_masks(vertices, p.e1).values())
    if cochordal is None:
        raise InputError("(V, e1) is not cochordal, so it has no certificate")
    cliques, parents = _clique_tree(*cochordal)
    labels = [f"k{i}" for i in range(1, len(cliques) + 1)] or ["k1"]
    host = Tree.build(labels, zip(labels[1:], [labels[k] for k in parents[1:]]))
    members = {v: set() for v in p.base.vertices}
    for label, clique in zip(labels, cliques):
        for v in _bits(clique):
            members[vertices[v]].add(label)
    return SubtreeFamily.build(host, members)


def overlap_to_mixed(
    f: SubtreeFamily, r
) -> tuple[MixedPartition, SubtreeFamily]:
    """Read a mixed partition of the complement off a covered overlap family.

    e1 is the family's disjointness graph, and e2 directs each edge of its
    containment graph (equal members included) from the member of lesser
    (size, name) to the greater.  Every pair is disjoint, contained or
    overlapping, so the base graph, the complement of the overlap graph,
    is the union of the two.  One pass classifies each pair of member masks
    as :func:`derive_graph` does, and orients e2 as it goes.

    The returned certificate hosts the cover-restricted members on the
    subtree induced by ``r``; its disjointness graph equals (V, e1)
    because the cover meets every member.
    """
    require_valid(f)
    r = frozenset(r)
    if not is_covering_subtree(f, r):
        raise InputError(f"{sorted(r)} is not a covering subtree of the family")
    names = f.names()
    e1, e2, edges = [], [], []
    for (ni, a), (nj, b) in combinations(sorted(zip(names, _member_masks(f))), 2):
        x = a & b
        if not x:
            e1.append((ni, nj))
        elif x == a or x == b:  # ni < nj, so with x == a ni is the lesser
            e2.append((ni, nj) if x == a else (nj, ni))
        else:
            continue
        edges.append((ni, nj))
    base = SimpleGraph(names, frozenset(edges))
    partition = MixedPartition(base, frozenset(e1), frozenset(e2))

    # valid: r covers the checked f, and two subtrees meet in a subtree
    certificate = _valid_family(
        induced_subtree(f.host, r), tuple((name, vs & r) for name, vs in f.members)
    )
    return partition, certificate


def shrink_containments(f: SubtreeFamily, arcs) -> SubtreeFamily:
    """Intersect each member into its arc-successors until every arc i->j
    has member i contained in member j.

    ``arcs`` must be transitive and antisymmetric, and arc-joined members
    must intersect (an empty intersection signals an invalid partition /
    certificate pairing).  Transitivity makes every successor of a
    successor a direct successor, so intersecting each member with the
    original members of its direct successors reaches the fixpoint in any
    order; the disjointness graph of the family is unchanged.
    """
    require_valid(f)
    arcs = frozenset(arcs)
    names = f.names()
    known = set(names)
    for u, v in arcs:
        if u not in known or v not in known:
            raise InputError(f"arc {(u, v)!r} references unknown members")
        if u == v or (v, u) in arcs:
            raise InputError(f"arc set is not antisymmetric at {(u, v)!r}")
    bad = _intransitive_triples(arcs)
    if bad:
        u, v, x = bad[0]
        raise InputError(f"arc set is not transitive: {u}->{v}->{x}")
    return _shrink(f, arcs)


def _shrink(f: SubtreeFamily, arcs) -> SubtreeFamily:
    """The fixpoint of :func:`shrink_containments`, for a valid family and a
    transitive, antisymmetric arc set on its names, by one AND of member
    masks per arc; a member whose mask is unchanged keeps its vertex set.
    The returned family keeps the final masks as its member masks; with no
    arc to cut (every tail inside its head, so no two disjoint) it is ``f``."""
    index = {n: i for i, n in enumerate(f.names())}
    original = _member_masks(f)
    if not any(original[index[u]] & ~original[index[v]] for u, v in arcs):
        return f
    current = list(original)
    for n, m in sorted(arcs):
        i = index[n]
        current[i] &= original[index[m]]
        if not current[i]:
            raise InputError(
                f"members {n} and {m} are disjoint despite arc {n}->{m}"
            )
    if any(current[index[u]] & ~current[index[v]] for u, v in arcs):
        raise AssertionError("containment fixpoint not reached")
    vertices = f.host.vertices
    # valid: both callers check f, and a nonempty meet of subtrees is a subtree
    return _valid_family(f.host, tuple(
        (name, vs if m == o else frozenset(vertices[b] for b in _bits(m)))
        for (name, vs), m, o in zip(f.members, current, original)
    ), tuple(current))


def _fresh(label: str, taken) -> str:
    """``label``, or else ``label#k`` for the least k >= 1, not in ``taken``."""
    fresh, k = label, 0
    while fresh in taken:
        k += 1
        fresh = f"{label}#{k}"
    return fresh


def mixed_to_bushy(p: MixedPartition, cert: SubtreeFamily) -> SubtreeFamily:
    """Build an overlap family for the complement of ``p.base`` whose host is
    the certificate tree R plus one pendant leaf per member, with R bushy.

    After shrinking the certificate along e2, every member receives a
    private pendant attached at its label-least vertex, plus the pendants
    of its e2 predecessors.  The result's overlap graph is exactly the
    complement of the base, R covers it, and R is bushy in the new host.
    """
    violations = verify_mixed_partition(p, cert)
    if violations:
        details = "; ".join(map(str, violations))
        raise InputError(f"not a verified mixed partition: {details}")
    # verification found the certificate valid and named as the base, and
    # e2 transitive and antisymmetric: what shrink_containments would check
    shrunk = _shrink(cert, p.e2)
    host = shrunk.host
    taken, pendant = set(host.vertices), {}
    for n in shrunk.names():
        pendant[n] = _fresh(f"x_{n}", taken)
        taken.add(pendant[n])
    edges = host.edges | {edge_key(min(vs), pendant[n]) for n, vs in shrunk.members}
    new_host = Tree(host.vertices + tuple(pendant.values()), edges)

    gains = {n: [n] for n in pendant}  # whose pendants n gains: n's, its e2 tails'
    for u, v in p.e2:
        gains[v].append(u)
    # R leads the new host, so each shrunk mask needs only its pendants' bits
    bit = {n: 1 << i for i, n in enumerate(pendant, len(host.vertices))}
    masks = tuple(
        m | sum(map(bit.__getitem__, gains[n]))
        for n, m in zip(pendant, _member_masks(shrunk))
    )
    # valid: n's pendants hang from min(shrunk[u]) for u in gains[n], in shrunk[n]
    return _valid_family(new_host, tuple(
        (n, vs.union(map(pendant.__getitem__, gains[n]))) for n, vs in shrunk.members
    ), masks)


def star_rep_from_orientation(o: Orientation) -> SubtreeFamily:
    """Overlap family on a star realizing the complement of ``o.graph``:
    :func:`mixed_to_bushy` with e1 empty and e2 the (transitive) orientation,
    on the certificate whose members are all the centre, each pendant leaf
    then named after its member.  The centre alone is a covering subtree.
    """
    names = tuple(o.graph.vertices)
    centre = _fresh("c", names)
    point = Tree((centre,), frozenset())
    certificate = SubtreeFamily.build(point, {n: {centre} for n in names})
    star = mixed_to_bushy(MixedPartition(o.graph, frozenset(), o.arcs), certificate)
    label = dict(zip(star.host.vertices, (centre,) + names))
    edges = frozenset(edge_key(label[u], label[v]) for u, v in star.host.edges)
    members = {n: map(label.get, vs) for n, vs in star.members}
    return SubtreeFamily.build(Tree((centre,) + names, edges), members)
