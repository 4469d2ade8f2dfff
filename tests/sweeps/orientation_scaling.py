"""Time ``graphs._find_transitive_orientation`` on families of growing
graphs and print how its time grows with each doubling of the size.

Three families, each doubling its size from one step to the next:

- perfect matchings of 300 to 2,400 edges (comparability; one implication
  class per edge, so the per-class cost shows);
- complements of paths on 100 to 400 vertices (cocomparability of the path,
  read off the path's own masks);
- seeded random permutation graphs on 50 to 400 vertices
  (``helpers.permutation_graph``; comparability).

A ratio near 2 per doubling means time linear in the size that doubles,
near 4 quadratic in it.  The neighbourhood masks are built before the
clock starts, so the figures are the walk alone; each is the best of five
calls.  It needs no test extra.  Run from the repository root (a few
seconds):

    PYTHONPATH=src python tests/sweeps/orientation_scaling.py
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

from treerep import SimpleGraph
from treerep.graphs import _find_transitive_orientation, _label_masks

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import matching_graph, path_graph, permutation_graph  # noqa: E402


def path(n: int) -> SimpleGraph:
    return path_graph([f"p{i}" for i in range(n)])


def permutation(n: int) -> SimpleGraph:
    return permutation_graph(random.Random(n), n)


def seconds(g: SimpleGraph, complemented: bool) -> float:
    best = float("inf")
    for _ in range(5):
        labels, nbrs = _label_masks(g, complemented)
        start = time.perf_counter()
        arcs = _find_transitive_orientation(labels, nbrs)
        best = min(best, time.perf_counter() - start)
    assert arcs is not None
    return best


def sweep(name: str, build, sizes, complemented: bool = False) -> None:
    print(name)
    previous = None
    for size in sizes:
        t = seconds(build(size), complemented)
        growth = f"x{t / previous:.2f}" if previous else ""
        print(f"  {size:>6}  {t * 1e3:9.2f} ms  {growth}")
        previous = t


def main() -> None:
    sweep("perfect matching, edges", matching_graph, (300, 600, 1200, 2400))
    sweep("path complement, vertices", path, (100, 200, 400), complemented=True)
    sweep("permutation graph, vertices", permutation, (50, 100, 200, 400))


if __name__ == "__main__":
    main()
