"""Derived graphs of a subtree family: overlap, intersection, disjointness,
containment.  One graph vertex per member, named by the member's name."""

from __future__ import annotations

from itertools import combinations

from .errors import InputError
from .graphs import SimpleGraph, edge_key
from .trees import SubtreeFamily, _member_masks, require_valid

MODES = ("overlap", "intersection", "disjointness", "containment")

# Each test sees two member masks a, b and their meet x = a & b.
_MODE_TESTS = {
    "overlap": lambda a, b, x: x and x != a and x != b,
    "intersection": lambda a, b, x: x,
    "disjointness": lambda a, b, x: not x,
    # equal members count as contained one in the other, not as overlapping
    "containment": lambda a, b, x: x and (x == a or x == b),
}


def derive_graph(f: SubtreeFamily, mode: str) -> SimpleGraph:
    """Graph on the member names with an edge wherever the pair relation
    matches the mode.

    Members are classified as int bitmasks over the host's vertices: for
    masks a and b with x = a & b, the pair is disjoint when x is 0,
    contained or equal when x is a or b, and overlapping otherwise.
    """
    if mode not in _MODE_TESTS:
        raise InputError(f"unknown mode {mode!r}; expected one of {MODES}")
    require_valid(f)
    test = _MODE_TESTS[mode]
    names = f.names()
    edges = frozenset(
        edge_key(ni, nj)
        for (ni, a), (nj, b) in combinations(zip(names, _member_masks(f)), 2)
        if test(a, b, a & b)
    )
    return SimpleGraph(names, edges)
