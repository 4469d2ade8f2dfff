"""``treerep derive``: derive a graph from the family."""

from __future__ import annotations

from ..derive import MODES, derive_graph
from ..interchange import Instance
from . import OK, _add_io, _emit, _read_instance, _require


def arguments(p) -> None:
    p.add_argument("--mode", choices=MODES, required=True)
    _add_io(p)


def run(args) -> int:
    instance = _read_instance(args)
    family = _require(instance, "family")
    graph = derive_graph(family, args.mode)
    _emit(
        args,
        Instance(family=family, graph=graph, cover=instance.cover,
                 meta=instance.meta),
    )
    return OK
