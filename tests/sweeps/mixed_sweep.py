"""Sweep ``search_mixed_partition`` over every 8-vertex graph and two
9-vertex sets, print what it answers, and rebuild each graph from the
partition found.

Every 8-vertex graph is, up to isomorphism, a 7-vertex graph of the atlas
(``helpers.nx_atlas``) plus an eighth vertex, so the sweep tries all 1,044
of them with each of the 128 neighbourhoods of vertex 7: 133,632 labelled
graphs.  It prints how many answer 'none', the isomorphism classes of those
graphs as edge lists (the data of ``helpers.NO_MIXED_PARTITION``, which it
checks them against) and the slowest answer.  The 9-vertex sets are 1,500
seeded random graphs (edge probability drawn from 0.2-0.6 per graph) and
every one-vertex extension of each class found.  Every partition found goes
through ``e1_certificate`` and ``mixed_to_bushy``; the sweep asserts that
an unmarked copy of each rebuilt family passes ``validate_family`` (the
family is marked valid as it is built), and counts the graphs whose rebuilt
family's overlap graph is not the graph.  It exits 1 when some graph is not
rebuilt, or when the 8-vertex classes answering 'none' are not the pinned
ones.  Run from the repository root, with networkx installed (about a
minute):

    PYTHONPATH=src python tests/sweeps/mixed_sweep.py
"""

from __future__ import annotations

import random
import sys
import time
from itertools import combinations
from pathlib import Path

import networkx as nx

from treerep import (
    SimpleGraph,
    SubtreeFamily,
    derive_graph,
    e1_certificate,
    mixed_to_bushy,
    search_mixed_partition,
    validate_family,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import NO_MIXED_PARTITION, nx_atlas  # noqa: E402


def answer(n: int, edges) -> tuple[str, float, bool]:
    """The search's answer, its time, and whether the graph is rebuilt from
    the partition found (True when none is found)."""
    g = SimpleGraph.build(map(str, range(n)), [(str(u), str(v)) for u, v in edges])
    start = time.perf_counter()
    result = search_mixed_partition(g)
    seconds = time.perf_counter() - start
    if not result.found:
        return result.status, seconds, True
    p = result.value
    bushy = mixed_to_bushy(p, e1_certificate(p))
    assert validate_family(SubtreeFamily(bushy.host, bushy.members)) == []
    rebuilt = derive_graph(bushy, "overlap") == g
    return result.status, seconds, rebuilt


def extensions(h: nx.Graph):
    """``h`` plus one vertex, once for each neighbourhood of the new vertex."""
    n = h.number_of_nodes()
    for mask in range(1 << n):
        yield sorted(h.edges) + [(i, n) for i in range(n) if mask >> i & 1]


def sweep(name: str, n: int, edge_lists) -> tuple[list[list], int]:
    """Answer each graph on ``n`` vertices, print the counts, the slowest
    answer and the graphs not rebuilt, and return the edge lists of the
    graphs answering 'none' and the count of graphs not rebuilt."""
    counts: dict[str, int] = {}
    slowest = (0.0, None)
    nones = []
    not_rebuilt = 0
    start = time.perf_counter()
    for edges in edge_lists:
        status, seconds, rebuilt = answer(n, edges)
        counts[status] = counts.get(status, 0) + 1
        not_rebuilt += not rebuilt
        if seconds > slowest[0]:
            slowest = (seconds, edges)
        if status == "none":
            nones.append(edges)
    total = time.perf_counter() - start
    print(f"{name}: {sum(counts.values())} graphs in {total:.1f} s, "
          f"{dict(sorted(counts.items()))}")
    print(f"  slowest: {slowest[0]:.3f} s, edges {slowest[1]}")
    print(f"  {counts.get('found', 0)} partitions found, {not_rebuilt} graphs "
          "not rebuilt through e1_certificate and mixed_to_bushy")
    return nones, not_rebuilt


def main() -> None:
    atlas = [h for h in nx_atlas() if h.number_of_nodes() == 7]
    classes: list[nx.Graph] = []
    nones, not_rebuilt = sweep("8 vertices", 8, (e for h in atlas for e in extensions(h)))
    for edges in nones:
        h = nx.Graph(edges)
        if not any(nx.is_isomorphic(h, c) for c in classes):
            classes.append(h)
    print(f"  {len(classes)} isomorphism classes answer 'none':")
    for h in classes:
        degrees = sorted(d for _, d in h.degree)
        edges = sorted(tuple(sorted(e)) for e in h.edges)
        print(f"  {len(edges)} edges, degrees {degrees}: {edges}")
    pinned = [nx.Graph(edges) for edges in NO_MIXED_PARTITION.values()]
    matched = len(classes) == len(pinned) and all(
        any(nx.is_isomorphic(h, p) for p in pinned) for h in classes
    )
    print(f"  they are the {len(pinned)} pinned classes: {matched}")

    rng = random.Random(9)
    randoms = []
    for _ in range(1500):
        p = rng.uniform(0.2, 0.6)
        randoms.append([e for e in combinations(range(9), 2) if rng.random() < p])
    not_rebuilt += sweep("9 vertices, random", 9, randoms)[1]
    not_rebuilt += sweep("9 vertices, extensions of the classes", 9,
                         (e for h in classes for e in extensions(h)))[1]
    if not_rebuilt:
        raise SystemExit(f"FAILED: {not_rebuilt} graphs not rebuilt")
    if not matched:
        raise SystemExit("FAILED: the classes answering 'none' are not the pinned ones")


if __name__ == "__main__":
    main()
