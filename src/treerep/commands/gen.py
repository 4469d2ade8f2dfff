"""``treerep gen``: generate a tree and optionally a family."""

from __future__ import annotations

from ..errors import InputError
from ..interchange import Instance, serialize
from ..workbench import GEN_MODES, fixtures, gen_cover, gen_family, gen_tree
from . import OK, _emit, _write, positive_int


def arguments(p) -> None:
    p.add_argument("--n", type=int, default=8, help="host tree size")
    p.add_argument("--k", type=int, default=0, help="number of members")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=GEN_MODES, default="free")
    p.add_argument(
        "--cover",
        choices=("none", "vertex", "path", "subtree"),
        default="none",
        help="also generate a cover of this shape",
    )
    p.add_argument("--count", type=positive_int, default=1,
                   help="emit this many instances (seeds seed..seed+count-1)")
    p.add_argument("--fixture", help="emit a built-in fixture instead")
    p.add_argument("-o", "--output", default="-")


def run(args) -> int:
    if args.fixture:
        table = fixtures()
        if args.fixture not in table:
            raise InputError(
                f"unknown fixture {args.fixture!r}; available: {sorted(table)}"
            )
        _emit(args, table[args.fixture])
        return OK
    chunks = []
    for offset in range(args.count):
        seed = args.seed + offset
        tree = gen_tree(args.n, seed)
        meta = {"seed": seed, "n": args.n}
        cover = None
        family = None
        if args.cover != "none":
            cover = gen_cover(tree, seed, args.cover)
            meta["cover_shape"] = args.cover
        if args.k:
            mode = args.mode
            if mode == "covered-by" and cover is None:
                cover = gen_cover(tree, seed, "subtree")
                meta["cover_shape"] = "subtree"
            family = gen_family(tree, args.k, seed, mode, cover)
            meta.update({"k": args.k, "mode": mode})
        chunks.append(
            serialize(
                Instance(tree=tree, family=family, cover=cover, meta=meta)
            )
        )
    _write(args, "".join(chunks))
    return OK
