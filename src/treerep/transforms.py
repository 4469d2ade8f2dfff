"""Representation-preserving host transformations.

`add_leaf` and `subdivide_edge` never change how any two members relate
(disjoint / overlap / containment-or-equal), which makes them safe to
compose.  `normalize` chains them to rebuild any family into one whose
members are nontrivial, whose intersecting members share at least two
vertices, and whose members have pairwise distinct leaves, while the
host only grows by subdivision (after an initial round of pendant
leaves shielding covered host leaves).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, Violation
from .graphs import edge_key
from .trees import (
    SubtreeFamily,
    Tree,
    require_valid,
    subtree_leaves,
)


@dataclass(frozen=True)
class SubdivisionStep:
    """Subdivide host edge vw with fresh vertex x.

    ``absorb`` names members that receive x outright; each of them must
    contain v.  Independently, members containing both v and w, and members
    strictly containing some absorbed member, also receive x.
    """

    v: str
    w: str
    x: str
    absorb: frozenset[str] = frozenset()


def add_leaf(f: SubtreeFamily, attach: str, new: str) -> SubtreeFamily:
    """Grow the host by a pendant vertex; no member changes."""
    adj = f.host.adjacency()
    if attach not in adj:
        raise InputError(f"attach vertex {attach!r} is not in the host")
    if new in adj:
        raise InputError(f"label {new!r} already used in the host")
    return SubtreeFamily(f.host._grown(new, (attach,)), f.members)


def subdivide_edge(f: SubtreeFamily, step: SubdivisionStep) -> SubtreeFamily:
    """Replace host edge vw by v-x-w and extend the members that need x.

    A member gains x exactly when it contains both v and w, or it is named
    in ``absorb``, or some absorbed member is a proper subset of it.  All
    pairwise relations are preserved.
    """
    key = edge_key(step.v, step.w)
    if key not in f.host.edges:
        raise InputError(f"{step.v!r}-{step.w!r} is not a host edge")
    if step.x in f.host.adjacency():
        raise InputError(f"subdivision label {step.x!r} already used in the host")
    sets = f.as_dict()
    unknown = step.absorb - set(sets)
    if unknown:
        raise InputError(f"absorb names unknown members {sorted(unknown)}")
    for name in sorted(step.absorb):
        if step.v not in sets[name]:
            raise InputError(
                f"absorbed member {name} does not contain endpoint {step.v!r}"
            )
    absorbed_sets = [sets[name] for name in step.absorb]
    host = f.host._grown(step.x, (step.v, step.w))
    new_members = []
    for name, vs in f.members:
        gains = (
            (step.v in vs and step.w in vs)
            or name in step.absorb
            or any(s < vs for s in absorbed_sets)
        )
        new_members.append((name, vs | {step.x} if gains else vs))
    return SubtreeFamily(host, tuple(new_members))


def normal_form_violations(f: SubtreeFamily) -> list[Violation]:
    """Check the three normal-form clauses, itemized.

    nontrivial        every member has at least two vertices
    thin-intersection every intersecting pair shares at least two vertices
    shared-leaf       no host vertex is a leaf of two distinct members
    """
    out = []
    sets = f.members
    for name, vs in sets:
        if len(vs) < 2:
            out.append(Violation("nontrivial", f"member {name} has < 2 vertices"))
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            ni, vi = sets[i]
            nj, vj = sets[j]
            common = vi & vj
            if len(common) == 1:
                out.append(
                    Violation(
                        "thin-intersection",
                        f"members {ni} and {nj} share only {sorted(common)}",
                    )
                )
    leaf_owners: dict[str, list[str]] = {}
    for name, vs in sets:
        for v in subtree_leaves(f.host, vs):
            leaf_owners.setdefault(v, []).append(name)
    for v in sorted(leaf_owners):
        owners = leaf_owners[v]
        if len(owners) > 1:
            out.append(
                Violation(
                    "shared-leaf",
                    f"vertex {v} is a leaf of members {sorted(owners)}",
                )
            )
    return out


@dataclass(frozen=True)
class NormalizationResult:
    family: SubtreeFamily
    transcript: tuple[dict, ...]
    preprocessed_host: Tree


class _FreshLabels:
    """Monotone 'x#k' labels, skipping anything already taken."""

    def __init__(self, taken):
        self.taken = set(taken)
        self.counter = 0

    def next(self, base: str = "x") -> str:
        while True:
            self.counter += 1
            label = f"{base}#{self.counter}"
            if label not in self.taken:
                self.taken.add(label)
                return label


def replay(f: SubtreeFamily, transcript) -> SubtreeFamily:
    """Re-run a transcript action by action; 'mark' entries are no-ops."""
    for entry in transcript:
        action = entry["action"]
        if action == "add-leaf":
            f = add_leaf(f, entry["attach"], entry["new"])
        elif action == "subdivide":
            f = subdivide_edge(
                f,
                SubdivisionStep(
                    entry["v"], entry["w"], entry["x"], frozenset(entry["absorb"])
                ),
            )
        elif action == "mark":
            pass
        else:
            raise InputError(f"unknown transcript action {action!r}")
    return f


def normalize(f: SubtreeFamily) -> NormalizationResult:
    """Rebuild the family so it satisfies all three normal-form clauses.

    Stage 1 adds a pendant leaf next to every host leaf contained in some
    member (so no member touches a host leaf).  Stage 2 subdivides every
    edge of the preprocessed host twice, each time absorbing the members
    containing the chosen endpoint.  Stage 3 repeatedly picks the least
    vertex that is a leaf of two or more members and hands each of those
    members its own private subdivision vertex, largest member first.

    All relations are preserved throughout, the transcript replays to the
    output exactly, and the final host is a subdivision of the preprocessed
    host.
    """
    if len(f.host.vertices) < 2:
        raise InputError("normalization needs a host with at least two vertices")
    require_valid(f)
    fresh = _FreshLabels(f.host.vertices)
    transcript: list[dict] = []

    # stage 1: shield covered host leaves behind fresh pendants
    for leaf in sorted(f.host.leaves()):
        if any(leaf in vs for _, vs in f.members):
            new = fresh.next()
            f = add_leaf(f, leaf, new)
            transcript.append({"action": "add-leaf", "attach": leaf, "new": new})
    preprocessed = f.host
    transcript.append({"action": "mark", "label": "preprocessed-host"})

    def subdivide(v, w, absorb):
        nonlocal f
        x = fresh.next()
        f = subdivide_edge(f, SubdivisionStep(v, w, x, absorb))
        transcript.append(
            {"action": "subdivide", "v": v, "w": w, "x": x,
             "absorb": sorted(absorb)}
        )
        return x

    # stage 2: two subdivisions per original edge, absorbing at each endpoint
    for p, q in sorted(preprocessed.edges):
        x = subdivide(p, q, frozenset(n for n, vs in f.members if p in vs))
        subdivide(q, x, frozenset(n for n, vs in f.members if q in vs))

    # stage 3: give every shared member-leaf its own subdivision vertex
    previous_bad = None
    while True:
        leaf_owners: dict[str, list[str]] = {}
        for name, vs in f.members:
            for v in subtree_leaves(f.host, vs):
                leaf_owners.setdefault(v, []).append(name)
        bad = sorted(v for v, owners in leaf_owners.items() if len(owners) > 1)
        if not bad:
            break
        if previous_bad is not None and len(bad) >= previous_bad:
            raise AssertionError("shared-leaf elimination failed to make progress")
        previous_bad = len(bad)

        p = bad[0]
        owners = sorted(leaf_owners[p])
        sets = f.as_dict()
        neighbours = sorted(f.host.adjacency()[p])
        inside = [u for u in neighbours if all(u in sets[n] for n in owners)]
        outside = [u for u in neighbours if all(u not in sets[n] for n in owners)]
        if len(neighbours) != 2 or len(inside) != 1 or len(outside) != 1:
            raise AssertionError(
                f"shared leaf {p} lacks the expected one-in/one-out neighbourhood"
            )
        r_side = outside[0]
        ordered = sorted(owners, key=lambda n: (len(sets[n]), n))
        w = subdivide(p, r_side, frozenset({ordered[-1]}))
        for pos in range(len(ordered) - 1, 0, -1):
            w = subdivide(p, w, frozenset(ordered[pos - 1:]))

    return NormalizationResult(f, tuple(transcript), preprocessed)
