"""Correctness checks for benchmark outputs, written apart from treerep.

Every function here takes plain data (label tuples, sets of pairs, dicts of
member name -> vertex set) and returns a list of problems; an empty list
means the output passed.  The checks use networkx and set arithmetic only,
never treerep's own verifiers, so a fault in the program cannot hide behind
the same fault in its checker.
"""

from __future__ import annotations

from itertools import combinations

import networkx as nx


def _graph(vertices, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    return g


def _pair(u, v) -> frozenset:
    return frozenset((u, v))


def pairs_of(edges) -> set[frozenset]:
    """Unordered pairs of an edge collection, as frozensets."""
    return {_pair(u, v) for u, v in edges}


def chordal(vertices, edges) -> bool:
    return nx.is_chordal(_graph(vertices, edges))


def complement_pairs(vertices, edges) -> set[frozenset]:
    present = pairs_of(edges)
    return {_pair(u, v) for u, v in combinations(vertices, 2)} - present


# ---------------------------------------------------------------------------
# Families on host trees

def overlap_pairs(members: dict) -> set[frozenset]:
    """Pairs of members that intersect with neither containing the other."""
    out = set()
    for (a, va), (b, vb) in combinations(members.items(), 2):
        if va & vb and not va <= vb and not vb <= va:
            out.add(_pair(a, b))
    return out


def tree_problems(vertices, edges) -> list[str]:
    g = _graph(vertices, edges)
    if len(set(vertices)) != len(vertices):
        return ["host has duplicate vertex labels"]
    if g.number_of_nodes() != len(vertices) or not nx.is_tree(g):
        return ["host is not a tree"]
    return []


def member_problems(vertices, edges, members: dict) -> list[str]:
    """Every member is a nonempty set of host vertices inducing a subtree."""
    g = _graph(vertices, edges)
    out = []
    for name, vs in members.items():
        if not vs:
            out.append(f"member {name} is empty")
        elif not set(vs) <= set(vertices):
            out.append(f"member {name} has vertices outside the host")
        elif not nx.is_connected(g.subgraph(vs)):
            out.append(f"member {name} is disconnected")
    return out


def cover_problems(vertices, edges, members: dict, cover) -> list[str]:
    """The cover induces a subtree that meets every member."""
    cover = set(cover)
    out = member_problems(vertices, edges, {"<cover>": cover})
    out += [f"cover misses member {n}" for n, vs in members.items() if not vs & cover]
    return out


def minimal_cover_problems(vertices, edges, members: dict, cover) -> list[str]:
    """A cover from which removing any one of its leaves loses coverage."""
    out = cover_problems(vertices, edges, members, cover)
    if out or len(cover) == 1:
        return out
    sub = _graph(vertices, edges).subgraph(cover)
    for leaf in (v for v in sub if sub.degree(v) == 1):
        rest = set(cover) - {leaf}
        if all(vs & rest for vs in members.values()):
            out.append(f"cover still covers without its leaf {leaf}")
    return out


def bushy_problems(vertices, edges, cover) -> list[str]:
    """Every neighbour outside the cover of a cover vertex is a host leaf."""
    g = _graph(vertices, edges)
    cover = set(cover)
    return [
        f"cover vertex {v} has internal outside neighbour {u}"
        for v in sorted(cover)
        for u in sorted(g[v])
        if u not in cover and g.degree(u) != 1
    ]


def family_problems(vertices, edges, members: dict) -> list[str]:
    out = tree_problems(vertices, edges)
    return out or member_problems(vertices, edges, members)


# ---------------------------------------------------------------------------
# Mixed partitions

def transitivity_problems(arcs) -> list[str]:
    arcs = set(arcs)
    out = [f"arc {u}->{v} has its reverse" for u, v in arcs if (v, u) in arcs]
    succ: dict = {}
    for u, v in arcs:
        succ.setdefault(u, set()).add(v)
    for u, v in arcs:
        for w in succ.get(v, ()):
            if w != u and (u, w) not in arcs:
                out.append(f"{u}->{v}->{w} without {u}->{w}")
    return out


def mixed_problems(vertices, base_pairs: set, e1, e2) -> list[str]:
    """e1 and e2 split the base edges; (V, e1) is cochordal; e2 is a
    transitive orientation that passes e1 neighbourhoods from head to tail."""
    e1 = pairs_of(e1)
    e2 = set(e2)
    e2_pairs = pairs_of(e2)
    out = []
    if len(e2_pairs) != len(e2):
        out.append("e2 holds both directions of a pair")
    if e1 & e2_pairs or e1 | e2_pairs != base_pairs:
        out.append("e1 and e2 do not partition the base edges")
    e1_graph = _graph(vertices, [tuple(p) for p in e1])
    if not nx.is_chordal(nx.complement(e1_graph)):
        out.append("(V, e1) is not cochordal")
    out += transitivity_problems(e2)
    for u, v in e2:
        for w in e1_graph[v]:
            if w != u and _pair(u, w) not in e1:
                out.append(f"mixing fails: {u}->{v}, {v}{w} in e1, {u}{w} not")
    return out


# ---------------------------------------------------------------------------
# Normal form and transcripts

def subtree_leaves(adj: dict, vs) -> set:
    vs = set(vs)
    return {v for v in vs if len(adj[v] & vs) <= 1}


def _adjacency(vertices, edges) -> dict:
    adj = {v: set() for v in vertices}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def normal_form_problems(vertices, edges, members: dict) -> list[str]:
    """The three clauses: members have two or more vertices, intersecting
    members share two or more, and no vertex is a leaf of two members."""
    out = [f"member {n} is trivial" for n, vs in members.items() if len(vs) < 2]
    for (a, va), (b, vb) in combinations(members.items(), 2):
        if len(va & vb) == 1:
            out.append(f"thin intersection of {a} and {b}")
    adj = _adjacency(vertices, edges)
    owners: dict = {}
    for name, vs in members.items():
        for v in subtree_leaves(adj, vs):
            owners.setdefault(v, []).append(name)
    out += [f"{v} is a leaf of {sorted(ns)}" for v, ns in owners.items() if len(ns) > 1]
    return out


def _relation(a: frozenset, b: frozenset) -> str:
    if not a & b:
        return "disjoint"
    if a <= b or b <= a:
        return "nested"
    return "overlap"


def relation_changes(before: dict, after: dict) -> list[str]:
    """Pairs whose disjoint / overlap / nested class differs."""
    if set(before) != set(after):
        return ["member names changed"]
    return [
        f"{a},{b} went from {_relation(before[a], before[b])} "
        f"to {_relation(after[a], after[b])}"
        for a, b in combinations(sorted(before), 2)
        if _relation(before[a], before[b]) != _relation(after[a], after[b])
    ]


def replay(vertices, edges, members: dict, transcript):
    """Apply a normalize transcript with the documented step semantics.

    add-leaf attaches a fresh pendant.  subdivide replaces edge vw by
    v-x-w; a member gains x when it holds both v and w, is named in
    absorb, or strictly contains an absorbed member.
    """
    vertices = list(vertices)
    edges = pairs_of(edges)
    members = {n: set(vs) for n, vs in members.items()}
    for step in transcript:
        action = step["action"]
        if action == "add-leaf":
            vertices.append(step["new"])
            edges.add(_pair(step["attach"], step["new"]))
        elif action == "subdivide":
            v, w, x = step["v"], step["w"], step["x"]
            edges.remove(_pair(v, w))
            edges |= {_pair(v, x), _pair(x, w)}
            vertices.append(x)
            absorbed = [frozenset(members[n]) for n in step["absorb"]]
            for name, vs in members.items():
                if (v in vs and w in vs) or name in step["absorb"] or any(
                    s < vs for s in absorbed
                ):
                    vs.add(x)
        elif action != "mark":
            raise ValueError(f"unknown transcript action {action!r}")
    return tuple(vertices), edges, {n: frozenset(vs) for n, vs in members.items()}


# ---------------------------------------------------------------------------
# Recognition witnesses

def peo_problems(vertices, edges, order) -> list[str]:
    """Each vertex's neighbours later in the order form a clique."""
    if sorted(order) != sorted(vertices) or len(set(order)) != len(order):
        return ["elimination order is not a permutation of the vertices"]
    adj = _adjacency(vertices, edges)
    pos = {v: i for i, v in enumerate(order)}
    out = []
    for v in order:
        later = [u for u in adj[v] if pos[u] > pos[v]]
        for a, b in combinations(later, 2):
            if b not in adj[a]:
                out.append(f"later neighbours {a},{b} of {v} are not adjacent")
                break
    return out


def orientation_problems(vertices, edges, arcs) -> list[str]:
    """The arcs orient every edge exactly once, transitively."""
    arcs = set(arcs)
    if len(pairs_of(arcs)) != len(arcs) or pairs_of(arcs) != pairs_of(edges):
        return ["arcs do not orient every edge exactly once"]
    return transitivity_problems(arcs)


def is_comparability(vertices, edges) -> bool:
    """Golumbic's theorem: a graph is a comparability graph iff no
    implication class holds both an arc and its reverse.

    Arcs (a, b) and (a, c) with b, c non-adjacent are forced alike, as are
    (b, a) and (c, a); classes are the union-find closure of that relation.
    """
    adj = _adjacency(vertices, edges)
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for a in vertices:
        for b, c in combinations(sorted(adj[a]), 2):
            if c not in adj[b]:
                union((a, b), (a, c))
                union((b, a), (c, a))
    return all(find((u, v)) != find((v, u)) for u, v in edges)


def clique_order_problems(vertices, edges, cliques) -> list[str]:
    """The order lists exactly the maximal cliques, and each vertex's
    cliques are consecutive."""
    found = {frozenset(c) for c in nx.find_cliques(_graph(vertices, edges))}
    listed = [frozenset(c) for c in cliques]
    if len(set(listed)) != len(listed) or set(listed) != found:
        return ["clique order does not list exactly the maximal cliques"]
    out = []
    for v in vertices:
        where = [i for i, c in enumerate(listed) if v in c]
        if where and where[-1] - where[0] + 1 != len(where):
            out.append(f"cliques of {v} are not consecutive")
    return out


def chordless_cycle_problems(vertices, edges, cycles) -> list[str]:
    """The cycles are induced cycles of length four or more, listed once
    each, and they are all of them."""
    adj = _adjacency(vertices, edges)
    out = []
    for cyc in cycles:
        n = len(cyc)
        for i, j in combinations(range(n), 2):
            consecutive = j - i == 1 or (i == 0 and j == n - 1)
            if (cyc[j] in adj[cyc[i]]) != consecutive:
                out.append(f"{cyc} is not an induced cycle")
                break
    want = {
        frozenset(c)
        for c in nx.chordless_cycles(_graph(vertices, edges))
        if len(c) >= 4
    }
    got = [frozenset(c) for c in cycles]
    if len(set(got)) != len(got) or set(got) != want:
        out.append("chordless cycles differ from networkx's")
    return out
