"""Time ``normalize`` on free families of growing size and print how its
time grows with each doubling.

The families are ``gen_family(gen_tree(n, s), k, s, "free")`` for seeds
1-3, doubling n/k from 60/20 to 480/160.  For each size and seed the sweep
prints the transform steps of each stage (pendant leaves, edge
subdivisions, shared-leaf splits), the member-vertex incidences of the
output, and the best of three calls, each after a ``gc.collect()``; then
the ratio of the seeds' summed best times to the previous size's, and a
sha256 over the size's transcripts, output members and both hosts.  A
ratio near 2 per doubling means time linear in n, near 4 quadratic in it.
Equal digests from two commits mean equal outputs.  Run from the
repository root (about ten seconds):

    PYTHONPATH=src python tests/sweeps/normalize_scaling.py
"""

from __future__ import annotations

import gc
import hashlib
import json
import time

from treerep import gen_family, gen_tree, normalize

SIZES = ((60, 20), (120, 40), (240, 80), (480, 160))
SEEDS = (1, 2, 3)
REPEATS = 3


def stage_steps(result) -> tuple[int, int, int]:
    """Steps per stage: stage 2 splits each preprocessed edge twice."""
    actions = [entry["action"] for entry in result.transcript]
    leaves = actions.count("add-leaf")
    edges = 2 * len(result.preprocessed_host.edges)
    return leaves, edges, actions.count("subdivide") - edges


def best_seconds(fam) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(REPEATS):
        gc.collect()
        start = time.perf_counter()
        result = normalize(fam)
        best = min(best, time.perf_counter() - start)
    return best, result


def plain(result) -> list:
    """The result as JSON data: transcript, both hosts and the members."""
    hosts = [result.preprocessed_host, result.family.host]
    return [
        list(result.transcript),
        [[list(h.vertices), sorted(h.edges)] for h in hosts],
        [[name, sorted(vs)] for name, vs in result.family.members],
    ]


def main() -> None:
    print(f"{'n/k':>8} {'seed':>4} {'stage 1':>7} {'stage 2':>7} {'stage 3':>7}"
          f" {'incidences':>10} {'best ms':>9}")
    previous = None
    for n, k in SIZES:
        total, digest = 0.0, hashlib.sha256()
        for seed in SEEDS:
            fam = gen_family(gen_tree(n, seed), k, seed, "free")
            t, result = best_seconds(fam)
            total += t
            digest.update(json.dumps(plain(result), sort_keys=True).encode())
            incidences = sum(len(vs) for _, vs in result.family.members)
            s1, s2, s3 = stage_steps(result)
            print(f"{n:>4}/{k:<3} {seed:>4} {s1:>7} {s2:>7} {s3:>7}"
                  f" {incidences:>10} {t * 1e3:9.2f}")
        growth = f"x{total / previous:.2f}" if previous else ""
        print(f"{'':>8} sum {total * 1e3:9.2f} ms  {growth}")
        print(f"{'':>8} sha256 {digest.hexdigest()}")
        previous = total


if __name__ == "__main__":
    main()
