"""``treerep to-mixed``: covered family -> mixed partition."""

from __future__ import annotations

from ..interchange import Instance
from ..mixed import overlap_to_mixed
from . import OK, _add_io, _emit, _read_instance, _require


def arguments(p) -> None:
    p.add_argument("--cover", help="comma-separated cover vertices")
    _add_io(p)


def run(args) -> int:
    instance = _read_instance(args)
    family = _require(instance, "family")
    if args.cover:
        cover = frozenset(args.cover.split(","))
    else:
        cover = _require(instance, "cover")
    partition, certificate = overlap_to_mixed(family, cover)
    _emit(
        args,
        Instance(family=certificate, mixed=partition, meta=instance.meta),
    )
    return OK
