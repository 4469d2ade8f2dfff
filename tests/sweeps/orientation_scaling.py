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
calls.  Each family ends with a sha256 over the sorted arcs the walk
returns at each size, and the sweep exits 1 when one is not its pin in
``DIGESTS``, the same under every ``PYTHONHASHSEED``.  It needs no test
extra.  Run from the repository root (a few seconds):

    PYTHONPATH=src python tests/sweeps/orientation_scaling.py
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from pathlib import Path

from treerep import SimpleGraph
from treerep.graphs import _find_transitive_orientation, _label_masks

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import matching_graph, path_graph, permutation_graph  # noqa: E402

#: Each family's digest; change one only with an intended change of outputs.
DIGESTS = {
    "perfect matching, edges":
        "5bd939c9457a2ddcca9a6b34d93f3d8d95de342df7e2c675210ca7c046e9311b",
    "path complement, vertices":
        "04f093d07790ea30809ab0800f02b65fa3e9a4147f9d3846cdf07407f28c38da",
    "permutation graph, vertices":
        "928cb65c6c6e1358efa61ef15e961ebf9d795c827426cb49ab5a4fe58c2c2cea",
}


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


def sweep(name: str, build, sizes, complemented: bool) -> str:
    """Print the family's times and digest, and return the digest."""
    print(name)
    previous, digest = None, hashlib.sha256()
    for size in sizes:
        g = build(size)
        t = seconds(g, complemented)
        arcs = _find_transitive_orientation(*_label_masks(g, complemented))
        digest.update(json.dumps(sorted(arcs)).encode())
        growth = f"x{t / previous:.2f}" if previous else ""
        print(f"  {size:>6}  {t * 1e3:9.2f} ms  {growth}")
        previous = t
    print(f"  sha256 {digest.hexdigest()}")
    return digest.hexdigest()


def main() -> None:
    changed = []
    for name, build, sizes, complemented in (
        ("perfect matching, edges", matching_graph, (300, 600, 1200, 2400), False),
        ("path complement, vertices", path, (100, 200, 400), True),
        ("permutation graph, vertices", permutation, (50, 100, 200, 400), False),
    ):
        if sweep(name, build, sizes, complemented) != DIGESTS[name]:
            changed.append(name)
    if changed:
        raise SystemExit(f"FAILED: the arcs changed for {', '.join(changed)}")


if __name__ == "__main__":
    main()
