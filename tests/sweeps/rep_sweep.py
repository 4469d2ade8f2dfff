"""Sweep ``search_overlap_rep`` over every graph of the atlas, 1,253 graphs
with at most 7 vertices, with no cover shape and under K1, K2, P3, P4 and
K1,3, and check what it answers.

Three checks, each printed with its count of failures:
- every family found represents the graph under the shape, by
  ``helpers.represents``: it is valid, its overlap graph is the graph, and
  the shape's own vertices, which the search keeps in the host, meet every
  member and induce the shape (with no shape, the host covers itself);
- answers are monotone under subtree containment: K1 in K2 in P3 in P4,
  P3 in K1,3, and every shape in no shape.  A pendant leaf, in no member,
  grows a cover to any tree that holds it, so a graph found under a shape
  must be found under every larger one;
- under K1 the answer is 'found' exactly for cocomparability graphs.

It prints how many graphs answer 'none' under each shape, by graph size,
the slowest answer, and a sha256 over every answer (``helpers.answers_digest``):
equal digests from two commits mean equal answers.  It exits 1 when a check
counts a failure or the digest is not ``DIGEST``, the same under every
``PYTHONHASHSEED``.  Run from the repository root, with networkx installed
(under a minute):

    PYTHONPATH=src python tests/sweeps/rep_sweep.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

from treerep import Tree, recognize, search_overlap_rep

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from helpers import K1, K2, P3, P4, answers_digest, atlas, represents  # noqa: E402


#: The digest of every answer; change it only with an intended change of them.
DIGEST = "61a4d0625bfcc4e25d82fb92371eea3c63da6c7c2c909609ce88ba3d8e79f879"


SHAPES = {
    "any": None,
    "K1": K1,
    "K2": K2,
    "P3": P3,
    "P4": P4,
    "K1,3": Tree.build(["c", "a", "b", "d"], [("c", "a"), ("c", "b"), ("c", "d")]),
}

#: (smaller, larger): a graph found under the smaller is found under the larger.
CONTAINED = [("K1", "K2"), ("K2", "P3"), ("P3", "P4"), ("P3", "K1,3")] + [
    (name, "any") for name in SHAPES if name != "any"
]


def main() -> None:
    graphs = atlas()
    start = time.perf_counter()
    found = {name: [] for name in SHAPES}
    nones = {name: {} for name in SHAPES}  # graph size -> graphs answering 'none'
    bad_families, answers = 0, []
    slowest = (0.0, None, None)
    for name, shape in SHAPES.items():
        for g in graphs:
            began = time.perf_counter()
            result = search_overlap_rep(g, cover_shape=shape)
            seconds = time.perf_counter() - began
            if result.status == "inconclusive":
                raise SystemExit(f"{name}: inconclusive on {sorted(g.edges)}")
            if seconds > slowest[0]:
                slowest = (seconds, name, sorted(g.edges))
            found[name].append(result.found)
            answers.append(result)
            if not result.found:
                n = len(g.vertices)
                nones[name][n] = nones[name].get(n, 0) + 1
            bad_families += result.found and not represents(g, result.value, shape)
    not_monotone = sum(
        small and not large
        for smaller, larger in CONTAINED
        for small, large in zip(found[smaller], found[larger])
    )
    k1_off = sum(
        f != recognize(g, "cocomparability").holds for g, f in zip(graphs, found["K1"])
    )
    print(f"{len(graphs)} graphs x {len(SHAPES)} shapes in "
          f"{time.perf_counter() - start:.1f} s")
    print("  'none' per shape, by graph size:")
    for name, by_size in nones.items():
        print(f"    {name}: {sum(by_size.values())} {by_size}")
    print(f"  slowest: {slowest[0]:.3f} s, under {slowest[1]}, edges {slowest[2]}")
    print(f"  families invalid, not the graph or not covered: {bad_families}")
    print(f"  graphs found under a shape but not under a larger one: {not_monotone}")
    print(f"  graphs where K1 differs from cocomparability: {k1_off}")
    digest = answers_digest(answers)
    print(f"  sha256 over every answer: {digest}")
    if bad_families or not_monotone or k1_off:
        raise SystemExit("FAILED: a check above counts a failure")
    if digest != DIGEST:
        raise SystemExit(f"FAILED: the answers changed, digest not {DIGEST}")


if __name__ == "__main__":
    main()
