"""Shared builders for randomized sweeps, and the checks written apart from
treerep (``bench/verdicts.py``) that the tests ask."""

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


def path_graph(labels: str | list) -> SimpleGraph:
    labels = list(labels)
    return SimpleGraph.build(
        labels, [(labels[i], labels[i + 1]) for i in range(len(labels) - 1)]
    )


def cycle_graph(labels: str | list) -> SimpleGraph:
    labels = list(labels)
    edges = [(labels[i], labels[(i + 1) % len(labels)]) for i in range(len(labels))]
    return SimpleGraph.build(labels, edges)


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
    """``bench/verdicts.py``, the checks written apart from treerep, loaded once."""
    return load_bench("verdicts")


def load_bench(name: str):
    """``bench/<name>.py``, loaded by path, as ``bench`` is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
