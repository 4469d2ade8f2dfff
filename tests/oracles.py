"""Test-side ground truth for ``search_overlap_rep``: every small host tree,
up to isomorphism, and every assignment of its connected subsets to the
members, with no budget and no theorem."""

from __future__ import annotations

from functools import cache
from itertools import product

from treerep import SimpleGraph, SubtreeFamily, Tree, canonical_code, induced_subtree


@cache
def hosts_from_parent_sequences(max_vertices: int) -> tuple[Tree, ...]:
    """Every parent sequence in product order, the first tree of each
    canonical code kept, sorted by size then code, labels h1..hk."""
    out = [Tree(("h1",), frozenset())]
    for n in range(2, max_vertices + 1):
        labels = tuple(f"h{i}" for i in range(1, n + 1))
        seen = {}
        for parents in product(*(range(i) for i in range(1, n))):
            tree = Tree(labels, frozenset(
                tuple(sorted((labels[i + 1], labels[parents[i]])))
                for i in range(n - 1)
            ))
            seen.setdefault(canonical_code(tree), tree)
        out.extend(tree for _, tree in sorted(seen.items()))
    return tuple(out)


def connected_subsets(t: Tree) -> list[frozenset[str]]:
    """All nonempty vertex subsets inducing a subtree, smallest first."""
    adj = t.adjacency()
    found = {frozenset({v}) for v in t.vertices}
    frontier = list(found)
    while frontier:
        base = frontier.pop()
        reachable = set()
        for v in base:
            reachable |= adj[v]
        for u in reachable - base:
            grown = base | {u}
            if grown not in found:
                found.add(grown)
                frontier.append(grown)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


@cache
def _subsets(host: Tree) -> tuple[tuple[frozenset[str], ...], tuple[int, ...], tuple]:
    """The host's connected subsets, their vertex bitmasks and, for each,
    the set of subsets that overlap it, bit j standing for subset j."""
    bit = {v: 1 << i for i, v in enumerate(host.vertices)}
    subs = tuple(connected_subsets(host))
    masks = tuple(sum(bit[v] for v in s) for s in subs)
    overlaps = tuple(
        sum(1 << j for j, b in enumerate(masks) if a & b not in (0, a, b))
        for a in masks
    )
    return subs, masks, overlaps


def host_search(
    g: SimpleGraph, max_host: int, cover_shape: Tree | None = None
) -> SubtreeFamily | None:
    """The first overlap representation of ``g`` on a host of at most
    ``max_host`` vertices, hosts in ``hosts_from_parent_sequences`` order,
    members assigned by backtracking against the wanted overlaps.  Under a
    ``cover_shape`` a family counts only if some connected subset of the
    host that meets every member induces a tree isomorphic to the shape.
    None when no host up to the cap has one."""
    names = g.vertices
    n = len(names)
    overlap_wanted = {
        (i, j): g.has_edge(names[i], names[j])
        for i in range(n)
        for j in range(i + 1, n)
    }
    shape_code = canonical_code(cover_shape) if cover_shape is not None else None
    for host in hosts_from_parent_sequences(max_host):
        subs, masks, overlaps = _subsets(host)
        covers = None
        if cover_shape is not None:
            covers = [
                m for s, m in zip(subs, masks)
                if len(s) == len(cover_shape.vertices)
                and canonical_code(induced_subtree(host, s)) == shape_code
            ]
            if not covers:
                continue
        chosen: list[int] = []

        def assign(idx: int) -> bool:
            if idx == n:
                return covers is None or any(
                    all(c & masks[i] for i in chosen) for c in covers
                )
            allowed = (1 << len(subs)) - 1
            for j, other in enumerate(chosen):
                wanted = overlap_wanted[(j, idx)]
                allowed &= overlaps[other] if wanted else ~overlaps[other]
            for pick in range(len(subs)):
                if allowed >> pick & 1:
                    chosen.append(pick)
                    if assign(idx + 1):
                        return True
                    chosen.pop()
            return False

        if assign(0):
            members = tuple((names[i], subs[c]) for i, c in enumerate(chosen))
            return SubtreeFamily(host, members)
    return None
