"""Instance generators, DOT export, and the built-in fixtures.

The interchange format lives in :mod:`treerep.interchange`; its
:class:`Instance`, :func:`parse` and :func:`serialize` are re-exported here.
"""

from __future__ import annotations

import heapq
import random
from bisect import bisect_left

from .errors import InputError
from .interchange import Instance, parse, serialize  # noqa: F401 -- re-exported
from .simple import SimpleGraph, edge_key
from .trees import SubtreeFamily, Tree, induces_subtree, tree_path

GEN_MODES = ("free", "shared-vertex", "covered-by")


def gen_tree(n: int, seed: int) -> Tree:
    """Uniformly random labeled tree on n vertices, deterministic per (n, seed).

    Decodes a uniformly random parent sequence in the classic bijective
    encoding of labeled trees, with label-order tie-breaking.
    """
    if n < 1:
        raise InputError("a tree needs at least one vertex")
    labels = tuple(f"v{i}" for i in range(1, n + 1))
    if n == 1:
        return Tree(labels, frozenset())
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = set()
    leaves = [i for i in range(n) if degree[i] == 1]
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.add(edge_key(labels[leaf], labels[s]))
        degree[leaf] -= 1
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    last = [i for i in range(n) if degree[i] == 1]
    edges.add(edge_key(labels[last[0]], labels[last[1]]))
    return Tree(labels, frozenset(edges))


def _grow_connected(rng: random.Random, adj, start: str, size: int) -> frozenset[str]:
    """Grow from ``start`` by a uniform choice among the label-sorted
    outside neighbours, until ``size`` vertices or no neighbour is left.

    The sorted frontier is kept up to date with ``bisect`` as each vertex
    joins.  ``rng.choice`` must see exactly this list, or a seed no longer
    gives the same family.
    """
    current = {start}
    frontier = sorted(adj[start])
    while len(current) < size and frontier:
        v = rng.choice(frontier)
        del frontier[bisect_left(frontier, v)]
        current.add(v)
        for u in adj[v]:
            if u not in current:
                i = bisect_left(frontier, u)
                if i == len(frontier) or frontier[i] != u:
                    frontier.insert(i, u)
    return frozenset(current)


def gen_family(
    t: Tree, k: int, seed: int, mode: str = "free", cover=None
) -> SubtreeFamily:
    """k random connected subsets of the host, named t1..tk.

    'shared-vertex' forces one common vertex into every member;
    'covered-by' makes every member intersect the given cover subtree.
    Deterministic per (t, k, seed, mode, cover).
    """
    if k < 0:
        raise InputError("member count must be nonnegative")
    if mode not in GEN_MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of {GEN_MODES}")
    rng = random.Random(seed)
    adj = t.adjacency()
    labels = sorted(t.vertices)
    anchor = rng.choice(labels) if mode == "shared-vertex" else None
    if mode == "covered-by":
        if cover is None:
            raise InputError("covered-by mode needs a cover subset")
        cover = frozenset(cover)
        if not induces_subtree(t, cover):
            raise InputError("cover does not induce a subtree of the host")
    members = []
    for i in range(1, k + 1):
        if mode == "shared-vertex":
            start = anchor
        elif mode == "covered-by":
            start = rng.choice(sorted(cover))
        else:
            start = rng.choice(labels)
        size = rng.randint(1, len(labels))
        members.append((f"t{i}", _grow_connected(rng, adj, start, size)))
    return SubtreeFamily(t, tuple(members))


def gen_cover(t: Tree, seed: int, shape: str = "subtree") -> frozenset[str]:
    """Random cover candidate: a connected subset, a path, or one vertex."""
    rng = random.Random(seed)
    labels = sorted(t.vertices)
    if shape == "vertex":
        return frozenset({rng.choice(labels)})
    if shape == "path":
        a, b = rng.choice(labels), rng.choice(labels)
        return frozenset(tree_path(t, a, b))
    if shape == "subtree":
        start = rng.choice(labels)
        size = rng.randint(1, len(labels))
        return _grow_connected(rng, t.adjacency(), start, size)
    raise InputError(f"unknown cover shape {shape!r}")


# ---------------------------------------------------------------------------
# DOT export

DOT_VIEWS = ("tree", "graph", "rep-highlight")


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(instance: Instance, view: str, member: str | None = None) -> str:
    """Graphviz text for one view of the instance.

    'tree' and 'graph' render the respective piece; 'rep-highlight' renders
    the host tree with one member's vertices shaded dark grey.
    """
    if view not in DOT_VIEWS:
        raise InputError(f"unknown view {view!r}; expected one of {DOT_VIEWS}")
    if view == "graph":
        if instance.graph is None:
            raise InputError("instance has no graph to export")
        return _dot_graph("derived", instance.graph, {})
    if instance.tree is None:
        raise InputError("instance has no tree to export")
    shaded: dict[str, str] = {}
    if view == "rep-highlight":
        if instance.family is None:
            raise InputError("rep-highlight needs subtrees")
        if member is None:
            raise InputError("rep-highlight needs a member name")
        for v in instance.tree.vertices:
            shaded[v] = "grey92"
        for v in instance.family.member(member):
            shaded[v] = "grey45"
    return _dot_graph("host", instance.tree, shaded)


def _dot_graph(name: str, g: SimpleGraph, fill: dict[str, str]) -> str:
    lines = [f"graph {name} {{"]
    if fill:
        lines.append("  node [style=filled];")
    for v in g.vertices:
        attrs = f" [fillcolor={_dot_quote(fill[v])}]" if v in fill else ""
        lines.append(f"  {_dot_quote(v)}{attrs};")
    for u, v in sorted(g.edges):
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fixtures

def fixtures() -> dict[str, Instance]:
    """Built-in demonstration instances.

    cycle4-star   four subtrees of a star whose overlap graph is the 4-cycle;
                  the centre alone is a covering subtree.
    cycle4-path   four subpaths of an 8-vertex path with the same overlap
                  graph; a 2-vertex mid-path cover exists.
    bushy-demo    a host with a highlighted subtree containing one bushy and
                  one non-bushy vertex (u's outside neighbour is internal,
                  v's outside neighbour is a leaf).
    """
    star = Tree.build(
        ["c", "l1", "l2", "l3", "l4"],
        [("c", "l1"), ("c", "l2"), ("c", "l3"), ("c", "l4")],
    )
    star_family = SubtreeFamily.build(
        star,
        [
            ("t1", ["c", "l1"]),
            ("t2", ["c", "l2"]),
            ("t3", ["c", "l1", "l3"]),
            ("t4", ["c", "l2", "l4"]),
        ],
    )

    path = Tree.build(
        [f"p{i}" for i in range(1, 9)],
        [(f"p{i}", f"p{i + 1}") for i in range(1, 8)],
    )
    path_family = SubtreeFamily.build(
        path,
        [
            ("t1", ["p1", "p2", "p3", "p4"]),
            ("t2", ["p3", "p4", "p5", "p6"]),
            ("t3", ["p5", "p6", "p7", "p8"]),
            ("t4", ["p2", "p3", "p4", "p5", "p6", "p7"]),
        ],
    )

    bushy_host = Tree.build(
        ["u", "v", "m", "a", "b", "w"],
        [("u", "m"), ("m", "v"), ("u", "a"), ("a", "b"), ("v", "w")],
    )
    bushy_family = SubtreeFamily.build(bushy_host, [("t", ["u", "m", "v"])])

    return {
        "cycle4-star": Instance(
            family=star_family,
            cover=frozenset({"c"}),
            meta={"note": "overlap graph is the 4-cycle; centre covers"},
        ),
        "cycle4-path": Instance(
            family=path_family,
            meta={"note": "overlap graph is the 4-cycle on a path host"},
        ),
        "bushy-demo": Instance(
            family=bushy_family,
            cover=frozenset({"u", "m", "v"}),
            meta={"note": "u is not bushy (neighbour a is internal); v is"},
        ),
    }
