"""``treerep roundtrip``: gen covered family -> to-mixed -> from-mixed ->
derive; report overlap-graph equality."""

from __future__ import annotations

from ..derive import derive_graph
from ..mixed import mixed_to_bushy, overlap_to_mixed
from ..workbench import gen_cover, gen_family, gen_tree
from . import NEGATIVE, OK, _write, positive_int


def arguments(p) -> None:
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=positive_int, default=1)
    p.add_argument("--cover", choices=("vertex", "path", "subtree"),
                   default="subtree")


def run(args) -> int:
    failures = 0
    for offset in range(args.count):
        seed = args.seed + offset
        tree = gen_tree(args.n, seed)
        cover = gen_cover(tree, seed, args.cover)
        family = gen_family(tree, args.k, seed, "covered-by", cover)
        original = derive_graph(family, "overlap")
        partition, certificate = overlap_to_mixed(family, cover)
        rebuilt = mixed_to_bushy(partition, certificate)
        final = derive_graph(rebuilt, "overlap")
        ok = final.edges == original.edges and set(final.vertices) == set(
            original.vertices
        )
        _write(args, f"seed={seed} overlap-graph-equal={'yes' if ok else 'NO'}\n")
        if not ok:
            failures += 1
    return OK if failures == 0 else NEGATIVE
