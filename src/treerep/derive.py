"""Derived graphs of a subtree family: overlap, intersection, disjointness,
containment.  One graph vertex per member, named by the member's name."""

from __future__ import annotations

from itertools import combinations

from .errors import InputError
from .simple import SimpleGraph
from .trees import SubtreeFamily, _member_masks, require_valid

MODES = ("overlap", "intersection", "disjointness", "containment")


def derive_graph(f: SubtreeFamily, mode: str) -> SimpleGraph:
    """Graph on the member names with an edge wherever the pair relation
    matches the mode.

    Members are classified as int bitmasks over the host's vertices: for
    masks a and b with x = a & b, the pair is disjoint when x is 0,
    contained or equal when x is a or b, and overlapping otherwise.  The
    members are sorted by name first, so each pair is already an edge key.
    """
    if mode not in MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of {MODES}")
    require_valid(f)
    names = f.names()
    pairs = combinations(sorted(zip(names, _member_masks(f))), 2)
    if mode == "overlap":
        edges = [(ni, nj) for (ni, a), (nj, b) in pairs
                 if (x := a & b) and x != a and x != b]
    elif mode == "intersection":
        edges = [(ni, nj) for (ni, a), (nj, b) in pairs if a & b]
    elif mode == "disjointness":
        edges = [(ni, nj) for (ni, a), (nj, b) in pairs if not a & b]
    else:  # equal members count as contained one in the other, not as overlapping
        edges = [(ni, nj) for (ni, a), (nj, b) in pairs
                 if (x := a & b) and (x == a or x == b)]
    return SimpleGraph(names, frozenset(edges))
