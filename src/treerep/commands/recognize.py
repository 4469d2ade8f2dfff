"""``treerep recognize``: decide a graph property with witness."""

from __future__ import annotations

from ..graphs import recognize
from ..simple import PROPERTIES
from . import NEGATIVE, OK, _add_input, _read_instance, _require, _write


def arguments(p) -> None:
    p.add_argument("--property", choices=PROPERTIES, required=True)
    _add_input(p)


def run(args) -> int:
    instance = _read_instance(args)
    graph = _require(instance, "graph")
    result = recognize(graph, args.property)
    if not result.holds:
        _write(args, f"{args.property}: no\n")
        return NEGATIVE
    witness = result.witness
    if witness.kind == "perfect-elimination-order":
        detail = " ".join(witness.payload)
    elif witness.kind == "transitive-orientation":
        detail = " ".join(f"{u}->{v}" for u, v in sorted(witness.payload.arcs))
    else:  # clique-order
        detail = " | ".join(",".join(c) for c in witness.payload)
    _write(args, f"{args.property}: yes ({witness.kind}: {detail})\n")
    return OK
