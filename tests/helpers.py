"""Shared builders for randomized sweeps."""

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
    classify_sets,
    edge_key,
    gen_family,
    gen_tree,
    similarly_related,
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
    """Is each pair of ``before``'s members related in ``after`` as it was
    in ``before``, up to ``similarly_related``?"""

    def table(fam: SubtreeFamily) -> dict:
        return {
            (a, b): classify_sets(fam.member(a), fam.member(b))
            for a, b in combinations(fam.names(), 2)
        }

    rb, ra = table(before), table(after)
    return all(similarly_related(rb[pair], ra[pair]) for pair in rb)


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


def load_bench(name: str):
    """``bench/<name>.py``, loaded by path, as ``bench`` is not a package."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
