"""The inputs the tests and the sweeps in ``tests/sweeps/`` share: random
and exhaustive graphs, the networkx atlas, paths, stars and cover shapes,
the pinned graphs with no mixed partition, a networkx bridge, and the
checks written apart from treerep (``bench/verdicts.py``) that they ask.

Only the standard library and treerep are imported here at module level;
networkx is imported on first use, so that a test without it can skip, and
pytest only when ``checks()`` finds networkx missing."""

from __future__ import annotations

import hashlib
import importlib.util
import json
import random
from functools import cache
from itertools import combinations
from pathlib import Path

from treerep import (
    MixedPartition,
    SimpleGraph,
    SubtreeFamily,
    Tree,
    edge_key,
    gen_family,
    gen_tree,
)


def random_graph(
    rng: random.Random, max_n: int = 6, min_n: int = 1, p: float = 0.5
) -> SimpleGraph:
    n = rng.randint(min_n, max_n)
    vertices = tuple(str(i) for i in range(1, n + 1))
    edges = frozenset(
        edge_key(u, v) for u, v in combinations(vertices, 2) if rng.random() < p
    )
    return SimpleGraph(vertices, edges)


def random_family(
    rng: random.Random,
    max_host: int = 12,
    max_members: int = 8,
    mode: str = "free",
    min_host: int = 2,
) -> SubtreeFamily:
    tree = gen_tree(rng.randint(min_host, max_host), rng.randrange(10**9))
    k = rng.randint(1, max_members)
    return gen_family(tree, k, rng.randrange(10**9), mode)


@cache
def all_graphs(max_n: int) -> tuple[SimpleGraph, ...]:
    """Every labelled graph on 1 to ``max_n`` vertices, labelled "1", "2", ..."""
    graphs = []
    for n in range(1, max_n + 1):
        vertices = tuple(str(i) for i in range(1, n + 1))
        pairs = list(combinations(vertices, 2))
        for bits in range(1 << len(pairs)):
            edges = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            graphs.append(SimpleGraph(vertices, edges))
    return tuple(graphs)


@cache
def nx_atlas() -> tuple:
    """The networkx atlas, every graph with up to 7 vertices, loaded once."""
    import networkx as nx

    return tuple(nx.graph_atlas_g())


def atlas(max_n: int = 7, min_n: int = 0) -> list[SimpleGraph]:
    """The atlas graphs with ``min_n`` to ``max_n`` vertices, in atlas order,
    as fresh graphs on the labels "0", "1", ...: by default all 1,253, the
    empty graph first."""
    return [
        SimpleGraph.build(map(str, h.nodes), [(str(u), str(v)) for u, v in h.edges])
        for h in nx_atlas()
        if min_n <= h.number_of_nodes() <= max_n
    ]


def nx_graph(g: SimpleGraph):
    """``g`` (a graph or a tree) as a networkx graph, its vertices in order."""
    import networkx as nx

    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def path_graph(labels: str | list) -> SimpleGraph:
    labels = list(labels)
    return SimpleGraph.build(
        labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    )


def cycle_graph(labels: str | list) -> SimpleGraph:
    labels = list(labels)
    edges = [(labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels))]
    return SimpleGraph.build(labels, edges)


def matching_graph(edges: int) -> SimpleGraph:
    """A perfect matching of ``edges`` edges: v0-v1, v2-v3, ..."""
    vertices = [f"v{i}" for i in range(2 * edges)]
    return SimpleGraph.build(vertices, zip(vertices[::2], vertices[1::2]))


def permutation_graph(rng: random.Random, n: int) -> SimpleGraph:
    """The comparability graph of the intersection of two seeded linear
    orders of n elements; its complement is the graph of the pairs the two
    orders disagree on."""
    first, second = rng.sample(range(n), n), rng.sample(range(n), n)
    vertices = [f"p{i}" for i in range(n)]
    return SimpleGraph.build(
        vertices,
        [
            (vertices[i], vertices[j])
            for i, j in combinations(range(n), 2)
            if (first[i] < first[j]) == (second[i] < second[j])
        ],
    )


def path_tree(labels: str | list) -> Tree:
    labels = list(labels)
    return Tree.build(labels, zip(labels, labels[1:]))


def star_tree(centre: str, leaves) -> Tree:
    return Tree.build([centre, *leaves], [(centre, leaf) for leaf in leaves])


def path_shape(k: int) -> Tree:
    """The cover shape P_k, on s1, ..., sk."""
    return path_tree([f"s{i}" for i in range(1, k + 1)])


def star_shape(leaves: int) -> Tree:
    """The cover shape K1,leaves: centre s0, leaves s1, s2, ..."""
    return star_tree("s0", [f"s{i}" for i in range(1, leaves + 1)])


def spider_shape(legs: int, length: int) -> Tree:
    """A centre s0 with ``legs`` paths of ``length`` vertices hung from it."""
    vertices, edges = ["s0"], []
    for leg in range(legs):
        labels = [f"s{leg}_{i}" for i in range(length)]
        edges += zip(["s0"] + labels, labels)
        vertices += labels
    return Tree.build(vertices, edges)


K1, K2, P3, P4 = (path_shape(k) for k in range(1, 5))
K13 = star_shape(3)

#: One graph of each isomorphism class of 8-vertex graphs that has no mixed
#: partition, as edge lists on vertices 0..7.  tests/sweeps/mixed_sweep.py
#: finds these 12 classes, and only these, among all 8-vertex graphs; as
#: every 7-vertex graph has a partition, they are the smallest without one.
NO_MIXED_PARTITION = {
    "cube": [(0, 1), (0, 5), (0, 6), (1, 2), (1, 7), (2, 3), (2, 6), (3, 4), (3, 7),
             (4, 5), (4, 6), (5, 7)],
    "wagner": [(0, 1), (0, 3), (0, 6), (1, 2), (1, 4), (2, 3), (2, 7), (3, 5),
               (4, 5), (4, 6), (5, 7), (6, 7)],
    "e12": [(0, 1), (0, 5), (0, 6), (1, 2), (1, 7), (2, 3), (2, 7), (3, 4), (3, 6),
            (4, 5), (4, 7), (5, 7)],
    "e13a": [(0, 1), (0, 4), (0, 7), (1, 2), (1, 4), (1, 5), (2, 3), (2, 6), (3, 4),
             (3, 7), (5, 6), (5, 7), (6, 7)],
    "e13b": [(0, 1), (0, 5), (0, 6), (1, 2), (1, 6), (1, 7), (2, 3), (2, 7), (3, 4),
             (3, 6), (4, 5), (4, 7), (5, 7)],
    "e13c": [(0, 1), (0, 3), (0, 6), (1, 2), (1, 4), (2, 3), (2, 7), (3, 5), (3, 7),
             (4, 5), (4, 6), (5, 7), (6, 7)],
    "e13d": [(0, 1), (0, 5), (0, 6), (0, 7), (1, 2), (1, 7), (2, 3), (2, 6), (3, 4),
             (3, 7), (4, 5), (4, 6), (5, 7)],
    "e14a": [(0, 1), (0, 4), (0, 7), (1, 2), (1, 5), (1, 6), (2, 3), (2, 7), (3, 4),
             (3, 5), (3, 7), (4, 5), (5, 6), (6, 7)],
    "e14b": [(0, 1), (0, 5), (0, 7), (1, 2), (1, 6), (1, 7), (2, 3), (2, 4), (2, 6),
             (3, 4), (3, 7), (4, 5), (4, 7), (5, 6)],
    "e14c": [(0, 1), (0, 5), (0, 7), (1, 2), (1, 6), (1, 7), (2, 3), (2, 6), (3, 4),
             (3, 7), (4, 5), (4, 6), (4, 7), (5, 6)],
    "e14d": [(0, 3), (0, 4), (0, 7), (1, 2), (1, 3), (1, 4), (2, 5), (2, 6), (2, 7),
             (3, 6), (4, 5), (5, 6), (5, 7), (6, 7)],
    "e15": [(0, 1), (0, 2), (0, 3), (0, 6), (1, 4), (1, 7), (2, 4), (2, 5), (2, 6),
            (3, 5), (3, 6), (3, 7), (4, 5), (5, 7), (6, 7)],
}


def relations_preserved(before: SubtreeFamily, after: SubtreeFamily) -> bool:
    """Do ``before`` and ``after`` name the same members, each pair of them
    disjoint, overlapping or nested in both?"""
    return not checks().relation_changes(dict(before.members), dict(after.members))


def represents(g: SimpleGraph, family: SubtreeFamily, shape: Tree | None = None) -> bool:
    """Is ``family`` a valid family on a host tree whose members, named and
    ordered as g's vertices, overlap exactly on g's edges?  Under ``shape``,
    some cover must also induce it: one vertex under a one-vertex shape,
    else the shape's own vertices, which the search keeps in the host."""
    v = checks()
    host, members = family.host, dict(family.members)
    if (
        v.family_problems(host.vertices, host.edges, members)
        or family.names() != g.vertices
        or v.overlap_pairs(members) != v.pairs_of(g.edges)
    ):
        return False
    if shape is None:
        return True
    if len(shape.vertices) == 1:
        return any(not v.cover_problems(host.vertices, host.edges, members, {x})
                   for x in host.vertices)
    import networkx as nx

    r = set(shape.vertices)
    return not v.cover_problems(host.vertices, host.edges, members, r) and nx.is_isomorphic(
        nx.from_edgelist(e for e in host.edges if r.issuperset(e)), nx.from_edgelist(shape.edges)
    )


def failure(fn, *args):
    """The type name and text of what ``fn(*args)`` raises, or ("ok", None)."""
    try:
        fn(*args)
    except Exception as exc:  # the type and text are what tests compare
        return type(exc).__name__, str(exc)
    return "ok", None


def answers_digest(results) -> str:
    """sha256 of search results in a form the same in every process: each
    one's status and detail, and a partition's sorted e1 and e2, or a
    family's host vertices, sorted host edges and sorted members.  Equal
    digests from two commits mean equal answers."""
    plain = []
    for result in results:
        value = result.value
        if isinstance(value, MixedPartition):
            value = [sorted(value.e1), sorted(value.e2)]
        elif value is not None:
            value = [list(value.host.vertices), sorted(value.host.edges),
                     sorted([name, sorted(vs)] for name, vs in value.members)]
        plain.append([result.status, result.detail, value])
    return hashlib.sha256(json.dumps(plain).encode()).hexdigest()


@cache
def checks():
    """``bench/verdicts.py``, the checks written apart from treerep, loaded
    once.  It imports networkx, so without it the calling test skips."""
    try:
        return load_bench("verdicts")
    except ImportError:
        import pytest  # only here, as the sweeps load this module too

        pytest.importorskip("networkx")
        raise


def load_bench(name: str):
    """``bench/<name>.py``, loaded by path, as ``bench`` is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
