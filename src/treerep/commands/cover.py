"""``treerep cover``: find or check a covering subtree."""

from __future__ import annotations

from ..interchange import Instance
from ..trees import is_covering_subtree, minimal_covering_subtree
from . import NEGATIVE, OK, _add_io, _emit, _read_instance, _require


def arguments(p) -> None:
    p.add_argument("action", choices=("find", "check"))
    _add_io(p)


def run(args) -> int:
    instance = _read_instance(args)
    family = _require(instance, "family")
    if args.action == "find":
        cover = minimal_covering_subtree(family)
        _emit(args, Instance(family=family, cover=cover, meta=instance.meta))
        return OK
    cover = _require(instance, "cover")
    return OK if is_covering_subtree(family, cover) else NEGATIVE
