"""Representation-preserving host transformations.

`add_leaf` and `subdivide_edge` never change how any two members relate
(disjoint / overlap / containment-or-equal), which makes them safe to
compose.  `normalize` chains them to rebuild any family into one whose
members are nontrivial, whose intersecting members share at least two
vertices, and whose members have pairwise distinct leaves, while the
host only grows by subdivision (after an initial round of pendant
leaves shielding covered host leaves).

All four entry points run their steps on one private mutable state,
`_Growth`: the host as neighbour sets in vertex order, the members as
vertex sets in name order, and per vertex a member mask (bit i for the
i-th member by name).  `_Growth.path` replaces an edge by a path of new
vertices in one edit and marks each in the masks of its gainers;
`_Growth.gain` adds new vertices to the vertex sets of the members of a
mask.  A single subdivision is a path of one: `_Growth.subdivide_named`
works its gainers out by the rule `SubdivisionStep` documents and hands
x over at once, for `subdivide_edge` and `replay`.  `normalize` edits
one path per preprocessed edge in stage 2 and one per shared leaf in
stage 3, passes the gainers in closed form and hands each member its
new vertices in bulk (see its stage comments).  Names become masks only
where steps are named, and names again only in the transcript.  A step
changes only the few sets and masks it touches, so `normalize` and
`replay` cost one copy of the family in and one validated `Tree` out,
however many steps they take.
"""

from __future__ import annotations

from bisect import insort
from collections import defaultdict
from itertools import count

from .errors import InputError, Violation, record
from .simple import _bits, _neighbour_lists, edge_key
from .trees import (
    SubtreeFamily,
    Tree,
    _member_masks,
    require_valid,
    subtree_leaves,
)


@record
class SubdivisionStep:
    """Subdivide host edge vw with fresh vertex x.

    ``absorb`` names members that receive x outright; each of them must
    contain v.  Independently, members containing both v and w, and members
    strictly containing some absorbed member, also receive x.
    """

    v: str
    w: str
    x: str
    absorb: frozenset[str] = frozenset()


class _Growth:
    """A family being grown step by step, held mutably.

    The host is a neighbour set per vertex, keyed in vertex order (new
    vertices last), and the members are vertex sets in name order beside
    their names, all copied from the input family, which is never changed:
    its host's neighbour lists are read afresh, so its frozenset adjacency
    is never built.  ``inside[u]`` is the member mask of vertex u: bit i is
    set when the i-th member by name contains u, so a mask's bits, lowest
    first, read out as sorted names.  It covers every vertex a member names,
    host vertex or not, and reads 0 for any other.  :meth:`path` edits the
    host and marks its new vertices in ``inside`` for the gainers it is
    given; :meth:`gain` (or, for one member, its own ``set.update``) adds
    vertices to ``sets``, so between the two ``sets`` lags behind
    ``inside``.  Only the gain rule of :meth:`subdivide_named` (which hands
    x over at once), the size sort of ``normalize``'s stage 3 (which runs
    after each leaf's hand-over) and :meth:`family` read ``sets``.
    :meth:`family` builds the immutable result once, in input member order,
    through the validating ``Tree`` constructor.
    """

    def __init__(self, f: SubtreeFamily):
        self.adj = {v: set(ns) for v, ns in _neighbour_lists(f.host).items()}
        self.given = f.names()
        self.names = sorted(self.given)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.sets = [set(vs) for _, vs in sorted(f.members)]  # by name: names differ
        self.inside: defaultdict[str, int] = defaultdict(int)
        for i, vs in enumerate(self.sets):
            for u in vs:
                self.inside[u] |= 1 << i

    def add_leaf(self, attach: str, new: str) -> None:
        if attach not in self.adj:
            raise InputError(f"attach vertex {attach!r} is not in the host")
        if new in self.adj:
            raise InputError(f"label {new!r} already used in the host")
        self.adj[attach].add(new)
        self.adj[new] = {attach}

    def subdivide_named(self, v: str, w: str, x: str, absorb) -> None:
        """Split host edge vw by new x under the gain rule, absorbing the
        named members; checked in the order the public functions document:
        edge, label, names, then v."""
        edge_key(v, w)  # rejects a self-loop before the edge lookup
        if w not in self.adj.get(v, ()):
            raise InputError(f"{v!r}-{w!r} is not a host edge")
        if x in self.adj:
            raise InputError(f"subdivision label {x!r} already used in the host")
        unknown = [name for name in absorb if name not in self.index]
        if unknown:
            raise InputError(f"absorb names unknown members {sorted(unknown)}")
        inside, sets = self.inside, self.sets
        mask = sum(1 << self.index[name] for name in set(absorb))
        if stray := mask & ~inside[v]:
            name = self.names[next(_bits(stray))]
            raise InputError(f"absorbed member {name} does not contain endpoint {v!r}")
        # every way to gain x needs v, since absorbed members contain it
        gain = inside[v] & (inside[w] | mask)
        rest = inside[v] & ~gain
        if rest and mask:
            absorbed = [sets[i] for i in _bits(mask)]
            for i in _bits(rest):
                if any(s < sets[i] for s in absorbed):
                    gain |= 1 << i
        self.path(v, w, (x,), (gain,))
        self.gain(gain, (x,))

    def path(self, v: str, w: str, xs, gains) -> None:
        """Replace host edge vw by the path v, xs[0], ..., xs[-1], w and mark
        each xs[k] in the masks of the members in mask ``gains[k]``;
        :meth:`gain` must hand the new vertices over to them."""
        adj, inside = self.adj, self.inside
        adj[v].remove(w)
        adj[w].remove(v)
        adj[v].add(xs[0])
        adj[w].add(xs[-1])
        ends = (v, *xs, w)
        for k, x in enumerate(xs):
            adj[x] = {ends[k], ends[k + 2]}
            inside[x] |= gains[k]

    def gain(self, mask: int, new) -> None:
        """Add the vertices ``new`` to each member in ``mask``; members
        already naming one of them keep it."""
        sets = self.sets
        while mask:
            low = mask & -mask
            sets[low.bit_length() - 1].update(new)
            mask ^= low

    def host(self) -> Tree:
        edges = frozenset((u, w) for u, ns in self.adj.items() for w in ns if u < w)
        return Tree(tuple(self.adj), edges)

    def family(self) -> SubtreeFamily:
        members = tuple((n, frozenset(self.sets[self.index[n]])) for n in self.given)
        return SubtreeFamily(self.host(), members)


def add_leaf(f: SubtreeFamily, attach: str, new: str) -> SubtreeFamily:
    """Grow the host by a pendant vertex; no member changes."""
    growth = _Growth(f)
    growth.add_leaf(attach, new)
    return growth.family()


def subdivide_edge(f: SubtreeFamily, step: SubdivisionStep) -> SubtreeFamily:
    """Replace host edge vw by v-x-w and extend the members that need x.

    A member gains x exactly when it contains both v and w, or it is named
    in ``absorb``, or some absorbed member is a proper subset of it.  All
    pairwise relations are preserved.
    """
    growth = _Growth(f)
    growth.subdivide_named(step.v, step.w, step.x, step.absorb)
    return growth.family()


def normal_form_violations(f: SubtreeFamily) -> list[Violation]:
    """Check the three normal-form clauses, itemized.

    nontrivial        every member has at least two vertices
    thin-intersection every intersecting pair shares at least two vertices
    shared-leaf       no host vertex is a leaf of two distinct members
    """
    out = []
    sets = f.members
    for name, vs in sets:
        if len(vs) < 2:
            out.append(Violation("nontrivial", f"member {name} has < 2 vertices"))
    names, masks, vertices = f.names(), _member_masks(f), f.host.vertices
    for i, a in enumerate(masks):
        for j in range(i + 1, len(masks)):
            # one shared vertex: a nonzero mask with a single bit
            x = a & masks[j]
            if x and not x & (x - 1):
                common = [vertices[x.bit_length() - 1]]
                out.append(
                    Violation(
                        "thin-intersection",
                        f"members {names[i]} and {names[j]} share only {common}",
                    )
                )
    leaf_owners: dict[str, list[str]] = {}
    for name, vs in sets:
        for v in subtree_leaves(f.host, vs):
            leaf_owners.setdefault(v, []).append(name)
    for v in sorted(leaf_owners):
        owners = leaf_owners[v]
        if len(owners) > 1:
            out.append(
                Violation(
                    "shared-leaf",
                    f"vertex {v} is a leaf of members {sorted(owners)}",
                )
            )
    return out


@record
class NormalizationResult:
    family: SubtreeFamily
    transcript: tuple[dict, ...]
    preprocessed_host: Tree


def _fresh_labels(taken):
    """Monotone 'x#k' labels, skipping those in ``taken``."""
    taken = frozenset(taken)
    return (x for x in map("x#{}".format, count(1)) if x not in taken)


def replay(f: SubtreeFamily, transcript) -> SubtreeFamily:
    """Re-run a transcript action by action; 'mark' entries are no-ops."""
    growth = _Growth(f)
    for entry in transcript:
        action = entry["action"]
        if action == "add-leaf":
            growth.add_leaf(entry["attach"], entry["new"])
        elif action == "subdivide":
            growth.subdivide_named(entry["v"], entry["w"], entry["x"], entry["absorb"])
        elif action != "mark":
            raise InputError(f"unknown transcript action {action!r}")
    return growth.family()


def normalize(f: SubtreeFamily) -> NormalizationResult:
    """Rebuild the family so it satisfies all three normal-form clauses.

    Stage 1 adds a pendant leaf next to every host leaf contained in some
    member (so no member touches a host leaf).  Stage 2 subdivides every
    edge of the preprocessed host twice, each time absorbing the members
    containing the chosen endpoint.  Stage 3 repeatedly picks the least
    vertex that is a leaf of two or more members and hands each of those
    members its own private subdivision vertex, largest member first.

    All relations are preserved throughout, the transcript replays to the
    output exactly, and the final host is a subdivision of the preprocessed
    host.
    """
    if len(f.host.vertices) < 2:
        raise InputError("normalization needs a host with at least two vertices")
    require_valid(f)
    fresh = _fresh_labels(f.host.vertices)
    transcript: list[dict] = []
    growth = _Growth(f)
    names, sets, adj, inside = growth.names, growth.sets, growth.adj, growth.inside

    # stage 1: shield covered host leaves behind fresh pendants
    for leaf in sorted(u for u, ns in adj.items() if len(ns) == 1):
        if inside[leaf]:
            new = next(fresh)
            growth.add_leaf(leaf, new)
            transcript.append({"action": "add-leaf", "attach": leaf, "new": new})
    preprocessed = growth.host()
    transcript.append({"action": "mark", "label": "preprocessed-host"})

    def step(v, w, absorb):
        """Name the vertex that splits vw and write its entry; callers edit paths."""
        x = next(fresh)
        transcript.append(
            {"action": "subdivide", "v": v, "w": w, "x": x, "absorb": absorb}
        )
        return x

    # stage 2: two subdivisions per original edge, absorbing at each endpoint.
    # pq split by x absorbing inside[p] gains exactly inside[p]: the rule's
    # inside[p] & (inside[q] | inside[p]) is all of it, which leaves no one
    # for the strict-superset clause; so does q-x absorbing inside[q].  No
    # split changes the mask of a vertex it does not add, so each vertex's
    # names are listed once, and every entry gets its own copy of the list.
    # For the same reason every vertex added beside u goes to exactly the
    # members of inside[u]; nothing in the stage reads sets, so each
    # preprocessed vertex hands its new vertices over once, after the stage.
    # The two splits of pq leave the path p, x, y, q: one edit.
    listed = {u: [names[i] for i in _bits(inside[u])] for u in preprocessed.vertices}
    added: defaultdict[str, list[str]] = defaultdict(list)
    for p, q in sorted(preprocessed.edges):
        x = step(p, q, listed[p][:])
        y = step(q, x, listed[q][:])
        growth.path(p, q, (x, y), (inside[p], inside[q]))
        added[p].append(x)
        added[q].append(y)
    for u, new in added.items():
        growth.gain(inside[u], new)

    # stage 3: give every shared member-leaf its own subdivision vertex.
    # owners(u) masks the members that have u as a leaf: those containing u
    # but not two or more of u's neighbours.  Subdividing vw by x changes
    # the leaves only of the members that gain x, and only at v and x (w
    # swaps neighbour v for x, in or out of each member alike), so bad, the
    # shared leaves with their owners, is built once; a leaf's own splits
    # must take it out, and the check after them reads owners(p) afresh.
    #
    # A shared leaf p has two neighbours, one in every owner and w0 in none,
    # so the members holding p that are not owners hold both, w0 included.
    # Split k absorbs the first k owners, absorb_k, and gains exactly
    # base | absorb_k, with base = inside[p] & ~own.  For the rule's
    # inside[p] & (inside[w] | absorb_k): w is w0 or split k-1's vertex,
    # and inside[w] & inside[p] is base, or base | absorb_(k-1).  The
    # strict-superset clause adds no one: the owners not yet absorbed have
    # gained nothing since the sort put them after every absorbed owner, in
    # falling size, so none is larger than an absorbed one.  The owners of
    # split k's vertex are its gainers without w: absorb_k's newest member
    # alone.  So no vertex enters bad, and one sorted pass visits its
    # leaves, least first.
    #
    # Split k puts x_k between p and x_(k-1), so p's splits leave the path
    # w0, x_1, ..., x_t, p: one edit, after the last split.  Hand-over:
    # x_k goes to base and the first k owners, so base gains the whole chain
    # x_1..x_t and owner k gains x_k..x_t.  Within the stage only the sort at
    # the next leaf reads sets (for the sizes), and nothing reads the host,
    # so p's path and chain are settled after its last split, before it.
    def owners(u):
        once = twice = 0
        for n in adj[u]:
            twice |= once & inside[n]
            once |= inside[n]
        return inside[u] & ~twice

    bad = {}
    for u in adj:
        own = owners(u)
        if own & (own - 1):  # two owners or more
            bad[u] = own
    for p in sorted(bad):
        own = bad[p]
        neighbours = sorted(adj[p])
        within = [u for u in neighbours if inside[u] & own == own]
        outside = [u for u in neighbours if not inside[u] & own]
        if len(neighbours) != 2 or len(within) != 1 or len(outside) != 1:
            raise AssertionError(
                f"shared leaf {p} lacks the expected one-in/one-out neighbourhood"
            )
        # in falling (size, name) order, each split absorbing one more member;
        # names sort as bits do, so the absorbed names are kept sorted as they
        # come, and every entry gets its own copy of the list
        w = w0 = outside[0]
        base, absorb, taken, chain, gains = inside[p] & ~own, 0, [], [], []
        order = sorted(_bits(own), key=lambda i: (len(sets[i]), i), reverse=True)
        for i in order:
            absorb |= 1 << i
            insort(taken, names[i])
            w = step(p, w, taken[:])
            chain.append(w)
            gains.append(base | absorb)
        growth.path(w0, p, chain, gains)
        growth.gain(base, chain)
        for k, i in enumerate(order):
            sets[i].update(chain[k:])  # one member: no mask to walk
        own = owners(p)
        if own & (own - 1):
            raise AssertionError("shared-leaf elimination failed to make progress")

    return NormalizationResult(growth.family(), tuple(transcript), preprocessed)
