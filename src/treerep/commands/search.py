"""``treerep search``: exhaustive searches at tiny scale."""

from __future__ import annotations

import sys

from ..errors import InputError
from ..interchange import Instance, parse
from ..oracle import (DEFAULT_BUDGET_SECONDS, SearchBudget, search_mixed_partition,
                      search_overlap_rep)
from ..trees import Tree
from . import (
    INCONCLUSIVE,
    NEGATIVE,
    OK,
    _add_io,
    _emit,
    _read_instance,
    _read_text,
    _require,
)


def arguments(p) -> None:
    p.add_argument("target", choices=("mixed", "rep"))
    p.add_argument("--budget", type=int, default=None,
                   help=f"time budget in whole seconds (default {DEFAULT_BUDGET_SECONDS})")
    p.add_argument("--cover-shape",
                   help="k1, k2, or a JSON instance file with a tree: the shape "
                   "of the subtree that meets every member; rep search only")
    _add_io(p)


def _cover_shape_tree(source: str) -> Tree:
    builtin = {
        "k1": Tree(("s1",), frozenset()),
        "k2": Tree(("s1", "s2"), frozenset({("s1", "s2")})),
    }
    if source.lower() in builtin:
        return builtin[source.lower()]
    instance = parse(_read_text(source))
    if instance.tree is None:
        raise InputError(f"{source} holds no tree to use as a cover shape")
    return instance.tree


def run(args) -> int:
    if args.target == "mixed" and args.cover_shape is not None:
        raise InputError("--cover-shape is for search rep only")
    instance = _read_instance(args)
    graph = _require(instance, "graph")
    budget = SearchBudget(args.budget)
    if args.target == "mixed":
        result = search_mixed_partition(graph, budget)
        if result.found:
            _emit(args, Instance(mixed=result.value, meta=instance.meta))
    else:
        shape = _cover_shape_tree(args.cover_shape) if args.cover_shape else None
        result = search_overlap_rep(graph, budget, shape)
        if result.found:
            _emit(args, Instance(family=result.value, meta=instance.meta))
    if result.found:
        return OK
    if result.status == "none":
        print("none: search space exhausted", file=sys.stderr)
        return NEGATIVE
    print(f"inconclusive: {result.detail}", file=sys.stderr)
    return INCONCLUSIVE
