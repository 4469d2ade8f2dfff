"""Instance generators, the JSON interchange format, and DOT export.

The interchange object holds any subset of {tree, subtrees, graph, mixed,
cover, meta}, mutually consistent.  On write, order-bearing sequences
(vertex order, member order) are preserved and every set-valued array is
sorted, so equal instances serialize to identical bytes and parsing is
lossless.
"""

from __future__ import annotations

import heapq
import json
import random
import re
from bisect import bisect_left
from itertools import chain
from operator import eq
from typing import TYPE_CHECKING

from .errors import InputError, SchemaError, factory, record
from .graphs import SimpleGraph, edge_key
from .trees import SubtreeFamily, Tree, induces_subtree, tree_path

if TYPE_CHECKING:
    from .mixed import MixedPartition

GEN_MODES = ("free", "shared-vertex", "covered-by")


@record
class Instance:
    """A bundle of mutually consistent pieces plus generator metadata."""

    tree: Tree | None = None
    family: SubtreeFamily | None = None
    graph: SimpleGraph | None = None
    mixed: MixedPartition | None = None
    cover: frozenset[str] | None = None
    meta: dict = factory(dict)

    def __post_init__(self):
        if self.family is not None:
            if self.tree is None:
                object.__setattr__(self, "tree", self.family.host)
            elif self.tree != self.family.host:
                raise InputError("instance tree differs from the family's host")
        if self.mixed is not None:
            if self.graph is None:
                object.__setattr__(self, "graph", self.mixed.base)
            elif self.graph != self.mixed.base:
                raise InputError("instance graph differs from the partition's base")
        if self.cover is not None:
            if self.tree is None:
                raise InputError("a cover needs a tree")
            if not frozenset(self.cover) <= set(self.tree.vertices):
                raise InputError("cover references vertices outside the tree")


def gen_tree(n: int, seed: int) -> Tree:
    """Uniformly random labeled tree on n vertices, deterministic per (n, seed).

    Decodes a uniformly random parent sequence in the classic bijective
    encoding of labeled trees, with label-order tie-breaking.
    """
    if n < 1:
        raise InputError("a tree needs at least one vertex")
    labels = tuple(f"v{i}" for i in range(1, n + 1))
    if n == 1:
        return Tree(labels, frozenset())
    if n == 2:
        return Tree(labels, frozenset({edge_key(*labels)}))
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for s in seq:
        degree[s] += 1
    edges = set()
    leaves = [i for i in range(n) if degree[i] == 1]
    for s in seq:
        leaf = heapq.heappop(leaves)
        edges.add(edge_key(labels[leaf], labels[s]))
        degree[leaf] -= 1
        degree[s] -= 1
        if degree[s] == 1:
            heapq.heappush(leaves, s)
    last = [i for i in range(n) if degree[i] == 1]
    edges.add(edge_key(labels[last[0]], labels[last[1]]))
    return Tree(labels, frozenset(edges))


def _grow_connected(rng: random.Random, adj, start: str, size: int) -> frozenset[str]:
    """Grow from ``start`` by a uniform choice among the label-sorted
    outside neighbours, until ``size`` vertices or no neighbour is left.

    The sorted frontier is kept up to date with ``bisect`` as each vertex
    joins.  ``rng.choice`` must see exactly this list, or a seed no longer
    gives the same family.
    """
    current = {start}
    frontier = sorted(adj[start])
    while len(current) < size and frontier:
        v = rng.choice(frontier)
        del frontier[bisect_left(frontier, v)]
        current.add(v)
        for u in adj[v]:
            if u not in current:
                i = bisect_left(frontier, u)
                if i == len(frontier) or frontier[i] != u:
                    frontier.insert(i, u)
    return frozenset(current)


def gen_family(
    t: Tree, k: int, seed: int, mode: str = "free", cover=None
) -> SubtreeFamily:
    """k random connected subsets of the host, named t1..tk.

    'shared-vertex' forces one common vertex into every member;
    'covered-by' makes every member intersect the given cover subtree.
    Deterministic per (t, k, seed, mode, cover).
    """
    if k < 0:
        raise InputError("member count must be nonnegative")
    if mode not in GEN_MODES:
        raise InputError(f"unknown mode {mode!r}; expected one of {GEN_MODES}")
    rng = random.Random(seed)
    adj = t.adjacency()
    labels = sorted(t.vertices)
    anchor = rng.choice(labels) if mode == "shared-vertex" else None
    if mode == "covered-by":
        if cover is None:
            raise InputError("covered-by mode needs a cover subset")
        cover = frozenset(cover)
        if not induces_subtree(t, cover):
            raise InputError("cover does not induce a subtree of the host")
    members = []
    for i in range(1, k + 1):
        if mode == "shared-vertex":
            start = anchor
        elif mode == "covered-by":
            start = rng.choice(sorted(cover))
        else:
            start = rng.choice(labels)
        size = rng.randint(1, len(labels))
        members.append((f"t{i}", _grow_connected(rng, adj, start, size)))
    return SubtreeFamily(t, tuple(members))


def gen_cover(t: Tree, seed: int, shape: str = "subtree") -> frozenset[str]:
    """Random cover candidate: a connected subset, a path, or one vertex."""
    rng = random.Random(seed)
    labels = sorted(t.vertices)
    if shape == "vertex":
        return frozenset({rng.choice(labels)})
    if shape == "path":
        a, b = rng.choice(labels), rng.choice(labels)
        return frozenset(tree_path(t, a, b))
    if shape == "subtree":
        start = rng.choice(labels)
        size = rng.randint(1, len(labels))
        return _grow_connected(rng, t.adjacency(), start, size)
    raise InputError(f"unknown cover shape {shape!r}")


# ---------------------------------------------------------------------------
# JSON interchange

_TOP_FIELDS = ("tree", "subtrees", "graph", "mixed", "cover", "meta")

# The writer builds json.dumps(indent=2, ensure_ascii=False) text directly
# for its arrays of labels and of label pairs; meta goes through json.dumps
# itself, re-indented to its depth.
_encode = json.encoder.encode_basestring


def _json_labels(labels, pad: str) -> str:
    """A JSON array of label strings whose first line is indented by ``pad``."""
    if not labels:
        return "[]"
    inner = "\n" + pad + "  "
    items = ("," + inner).join(map(_encode, labels))
    return "[" + inner + items + "\n" + pad + "]"


def _json_pairs(pairs, pad: str) -> str:
    """A JSON array of label pairs, sorted, whose first line is indented
    by ``pad``."""
    if not pairs:
        return "[]"
    ordered = sorted(pairs)
    inner, item = "\n" + pad + "  ", "\n" + pad + "    "
    labels = list(map(_encode, chain.from_iterable(ordered)))
    rendered = map(("," + item).join, zip(labels[::2], labels[1::2]))
    between = inner + "]," + inner + "[" + item
    body = between.join(rendered)
    return "[" + inner + "[" + item + body + inner + "]\n" + pad + "]"


def _json_object(items, pad: str) -> str:
    """A JSON object of (encoded key, JSON value) items whose first line is
    indented by ``pad``."""
    if not items:
        return "{}"
    inner = "\n" + pad + "  "
    body = ("," + inner).join(k + ": " + v for k, v in items)
    return "{" + inner + body + "\n" + pad + "}"


def _json_graph(g: SimpleGraph) -> str:
    return _json_object(
        [('"vertices"', _json_labels(g.vertices, "    ")),
         ('"edges"', _json_pairs(g.edges, "    "))],
        "  ",
    )


def serialize(instance: Instance) -> str:
    """Byte-stable JSON for an instance (UTF-8, trailing newline): the text
    ``json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)``
    writes for the instance's JSON object.  Labels and member names must be
    strings: any other type raises ``TypeError``."""
    items = []
    if instance.tree is not None:
        items.append(('"tree"', _json_graph(instance.tree)))
    if instance.family is not None:
        members = [(_encode(name), _json_labels(sorted(vs), "    "))
                   for name, vs in instance.family.members]
        items.append(('"subtrees"', _json_object(members, "  ")))
    if instance.graph is not None:
        items.append(('"graph"', _json_graph(instance.graph)))
    if instance.mixed is not None:
        items.append(('"mixed"', _json_object(
            [('"e1"', _json_pairs(instance.mixed.e1, "    ")),
             ('"e2"', _json_pairs(instance.mixed.e2, "    "))],
            "  ",
        )))
    if instance.cover is not None:
        items.append(('"cover"', _json_labels(sorted(instance.cover), "  ")))
    if instance.meta:
        meta = json.dumps(instance.meta, indent=2, ensure_ascii=False,
                          allow_nan=False, sort_keys=True)
        items.append(('"meta"', meta.replace("\n", "\n  ")))
    return _json_object(items, "") + "\n"


def _expect(obj, path: str, kind, what: str):
    if not isinstance(obj, kind):
        raise SchemaError(path, f"expected {what}")
    return obj


_STR, _LIST, _TWO = frozenset({str}), frozenset({list}), frozenset({2})
_SURROGATE = re.compile("[\ud800-\udfff]")


def _parse_labels(obj, path: str) -> frozenset[str]:
    """The set of a JSON array of distinct label strings.

    The array is checked in bulk; only when that fails does the walk over
    its entries run, to find the first bad one and name it in the error.
    """
    _expect(obj, path, list, "an array of labels")
    if _STR.issuperset(map(type, obj)):
        labels = frozenset(obj)
        if len(labels) == len(obj):
            return labels
    seen: set[str] = set()
    for i, v in enumerate(obj):
        _expect(v, f"{path}[{i}]", str, "a label string")
        if v in seen:
            raise SchemaError(f"{path}[{i}]", f"duplicate label {v!r}")
        seen.add(v)
    return frozenset(seen)


def _parse_pairs(obj, path: str, known, ordered: bool = False):
    """The set of a JSON array of label pairs over ``known``, canonical
    unless ``ordered``, checked in bulk like :func:`_parse_labels`."""
    _expect(obj, path, list, "an array of pairs")
    if (
        _LIST.issuperset(map(type, obj))
        and _TWO.issuperset(map(len, obj))
        and _STR.issuperset(map(type, chain.from_iterable(obj)))
        and known.issuperset(chain.from_iterable(obj))
    ):
        low, high = list(map(min, obj)), list(map(max, obj))
        pairs = frozenset(map(tuple, obj) if ordered else zip(low, high))
        if len(pairs) == len(obj) and not any(map(eq, low, high)):
            return pairs
    pairs = set()
    for i, pair in enumerate(obj):
        where = f"{path}[{i}]"
        _expect(pair, where, list, "a two-element array")
        if len(pair) != 2:
            raise SchemaError(where, "expected exactly two labels")
        u, v = pair
        _expect(u, f"{where}[0]", str, "a label string")
        _expect(v, f"{where}[1]", str, "a label string")
        for lab in (u, v):
            if lab not in known:
                raise SchemaError(where, f"unknown vertex {lab!r}")
        if u == v:
            raise SchemaError(where, "self-loop")
        pair = (u, v) if ordered else edge_key(u, v)
        if pair in pairs:
            raise SchemaError(where, f"duplicate {'arc' if ordered else 'edge'}")
        pairs.add(pair)
    return frozenset(pairs)


def _known_labels(obj, known, path: str) -> None:
    """Name the first of ``obj``'s labels outside ``known``, if any."""
    if not known.issuperset(obj):
        lab = next(lab for lab in obj if lab not in known)
        raise SchemaError(path, f"unknown vertex {lab!r}")


class _DuplicateKey(Exception):
    """A JSON object repeats the key ``args[0]``."""


def _unique_keys(pairs) -> dict:
    obj = dict(pairs)
    if len(obj) != len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise _DuplicateKey(key)
            seen.add(key)
    return obj


def _duplicate_path(value, path: str = "") -> str | None:
    """The path from ``value`` to the first object, children before their
    parent, that repeats a key; objects are tuples of (key, value) pairs."""
    if isinstance(value, tuple):
        items = [(f"{path}.{key}", item) for key, item in value]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", item) for i, item in enumerate(value)]
    else:
        return None
    for where, item in items:
        found = _duplicate_path(item, where)
        if found is not None:
            return found
    if isinstance(value, tuple) and len(dict(value)) != len(value):
        return path
    return None


def _duplicate_key_error(text: str, key: str) -> SchemaError:
    """The error for the repeated ``key`` that the first parse met, at the
    path of its object: the first parse closes objects children first, so
    that is the first such object :func:`_duplicate_path` visits."""
    try:
        path = _duplicate_path(json.loads(text, object_pairs_hook=tuple))
    except (json.JSONDecodeError, RecursionError):
        # the text is malformed after the duplicate, so the objects around
        # it never close, or it nests too deeply to walk: its path is unknown
        path = None
    return SchemaError(f"instance{path or ''}", f"duplicate key {key!r}")


def _no_constant(name: str):
    raise SchemaError("instance", f"{name} is not a JSON number")


def _finite(text: str) -> float:
    value = float(text)
    if abs(value) == float("inf"):
        raise SchemaError("instance", f"number {text} is out of range")
    return value


def _surrogate_path(obj) -> str | None:
    """The path of the first string in ``obj``, depth first, that holds a
    lone surrogate (``json`` joins valid pairs); a key's is its object's."""
    stack = [("instance", obj)]
    while stack:
        path, value = stack.pop()
        if isinstance(value, dict):
            if _SURROGATE.search("".join(value)):
                return path
            stack += reversed([(f"{path}.{k}", v) for k, v in value.items()])
        elif isinstance(value, list):
            stack += reversed([(f"{path}[{i}]", v) for i, v in enumerate(value)])
        elif isinstance(value, str) and _SURROGATE.search(value):
            return path
    return None


def _parse_graph(obj, key: str, cls):
    """The ``key`` section of ``obj`` as a ``cls`` (:class:`Tree` or
    :class:`SimpleGraph`), and the set of its vertex labels."""
    path = f"instance.{key}"
    section = _expect(obj[key], path, dict, "an object")
    for name in section:
        if name not in ("vertices", "edges"):
            raise SchemaError(f"{path}.{name}", "unknown field")
    vertices = section.get("vertices", [])
    labels = _parse_labels(vertices, f"{path}.vertices")
    edges = _parse_pairs(section.get("edges", []), f"{path}.edges", labels)
    try:
        return cls(tuple(vertices), edges), labels
    except InputError as exc:
        raise SchemaError(path, str(exc)) from exc


def parse(text: str) -> Instance:
    """Parse and validate interchange JSON with path-precise errors."""
    try:
        obj = json.loads(
            text, object_pairs_hook=_unique_keys, parse_constant=_no_constant,
            parse_float=_finite,
        )
    except json.JSONDecodeError as exc:
        raise SchemaError("instance", f"not valid JSON: {exc}") from exc
    except ValueError:  # int()'s digit limit (JSONDecodeError, a subclass, is above)
        raise SchemaError("instance", "an integer has too many digits") from None
    except RecursionError:
        raise SchemaError("instance", "JSON nested too deeply") from None
    except _DuplicateKey as dup:
        raise _duplicate_key_error(text, dup.args[0]) from None
    # a lone surrogate, which UTF-8 cannot write, needs an escape or a raw one
    suspect = "\\" in text or not text.isascii() and _SURROGATE.search(text)
    if suspect and (path := _surrogate_path(obj)):
        raise SchemaError(path, "a string holds a lone surrogate")
    _expect(obj, "instance", dict, "a JSON object")
    for key in obj:
        if key not in _TOP_FIELDS:
            raise SchemaError(f"instance.{key}", "unknown field")

    tree = None
    if "tree" in obj:
        tree, tree_labels = _parse_graph(obj, "tree", Tree)

    family = None
    if "subtrees" in obj:
        if tree is None:
            raise SchemaError("instance.subtrees", "subtrees need a tree")
        section = _expect(obj["subtrees"], "instance.subtrees", dict, "an object")
        members = []
        for name, vs in section.items():
            path = f"instance.subtrees.{name}"
            labels = _parse_labels(vs, path)
            _known_labels(vs, tree_labels, path)
            members.append((name, labels))
        family = SubtreeFamily(tree, tuple(members))

    graph = None
    if "graph" in obj:
        graph, graph_labels = _parse_graph(obj, "graph", SimpleGraph)

    mixed = None
    if "mixed" in obj:
        from .mixed import MixedPartition

        if graph is None:
            raise SchemaError("instance.mixed", "a partition needs a graph")
        section = _expect(obj["mixed"], "instance.mixed", dict, "an object")
        for key in section:
            if key not in ("e1", "e2"):
                raise SchemaError(f"instance.mixed.{key}", "unknown field")
        e1 = _parse_pairs(section.get("e1", []), "instance.mixed.e1", graph_labels)
        e2 = _parse_pairs(
            section.get("e2", []), "instance.mixed.e2", graph_labels, ordered=True
        )
        try:
            mixed = MixedPartition(graph, e1, e2)
        except InputError as exc:
            raise SchemaError("instance.mixed", str(exc)) from exc

    cover = None
    if "cover" in obj:
        if tree is None:
            raise SchemaError("instance.cover", "a cover needs a tree")
        cover = _parse_labels(obj["cover"], "instance.cover")
        _known_labels(obj["cover"], tree_labels, "instance.cover")

    meta = {}
    if "meta" in obj:
        meta = _expect(obj["meta"], "instance.meta", dict, "an object")

    return Instance(
        tree=tree, family=family, graph=graph, mixed=mixed, cover=cover, meta=meta
    )


# ---------------------------------------------------------------------------
# DOT export

DOT_VIEWS = ("tree", "graph", "rep-highlight")


def _dot_quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(instance: Instance, view: str, member: str | None = None) -> str:
    """Graphviz text for one view of the instance.

    'tree' and 'graph' render the respective piece; 'rep-highlight' renders
    the host tree with one member's vertices shaded dark grey.
    """
    if view not in DOT_VIEWS:
        raise InputError(f"unknown view {view!r}; expected one of {DOT_VIEWS}")
    if view == "graph":
        if instance.graph is None:
            raise InputError("instance has no graph to export")
        return _dot_graph("derived", instance.graph, {})
    if instance.tree is None:
        raise InputError("instance has no tree to export")
    shaded: dict[str, str] = {}
    if view == "rep-highlight":
        if instance.family is None:
            raise InputError("rep-highlight needs subtrees")
        if member is None:
            raise InputError("rep-highlight needs a member name")
        for v in instance.tree.vertices:
            shaded[v] = "grey92"
        for v in instance.family.member(member):
            shaded[v] = "grey45"
    return _dot_graph("host", instance.tree, shaded)


def _dot_graph(name: str, g: SimpleGraph, fill: dict[str, str]) -> str:
    lines = [f"graph {name} {{"]
    if fill:
        lines.append("  node [style=filled];")
    for v in g.vertices:
        attrs = f" [fillcolor={_dot_quote(fill[v])}]" if v in fill else ""
        lines.append(f"  {_dot_quote(v)}{attrs};")
    for u, v in sorted(g.edges):
        lines.append(f"  {_dot_quote(u)} -- {_dot_quote(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Fixtures

def fixtures() -> dict[str, Instance]:
    """Built-in demonstration instances.

    cycle4-star   four subtrees of a star whose overlap graph is the 4-cycle;
                  the centre alone is a covering subtree.
    cycle4-path   four subpaths of an 8-vertex path with the same overlap
                  graph; a 2-vertex mid-path cover exists.
    bushy-demo    a host with a highlighted subtree containing one bushy and
                  one non-bushy vertex (u's outside neighbour is internal,
                  v's outside neighbour is a leaf).
    """
    star = Tree.build(
        ["c", "l1", "l2", "l3", "l4"],
        [("c", "l1"), ("c", "l2"), ("c", "l3"), ("c", "l4")],
    )
    star_family = SubtreeFamily.build(
        star,
        [
            ("t1", ["c", "l1"]),
            ("t2", ["c", "l2"]),
            ("t3", ["c", "l1", "l3"]),
            ("t4", ["c", "l2", "l4"]),
        ],
    )

    path = Tree.build(
        [f"p{i}" for i in range(1, 9)],
        [(f"p{i}", f"p{i + 1}") for i in range(1, 8)],
    )
    path_family = SubtreeFamily.build(
        path,
        [
            ("t1", ["p1", "p2", "p3", "p4"]),
            ("t2", ["p3", "p4", "p5", "p6"]),
            ("t3", ["p5", "p6", "p7", "p8"]),
            ("t4", ["p2", "p3", "p4", "p5", "p6", "p7"]),
        ],
    )

    bushy_host = Tree.build(
        ["u", "v", "m", "a", "b", "w"],
        [("u", "m"), ("m", "v"), ("u", "a"), ("a", "b"), ("v", "w")],
    )
    bushy_family = SubtreeFamily.build(bushy_host, [("t", ["u", "m", "v"])])

    return {
        "cycle4-star": Instance(
            family=star_family,
            cover=frozenset({"c"}),
            meta={"note": "overlap graph is the 4-cycle; centre covers"},
        ),
        "cycle4-path": Instance(
            family=path_family,
            meta={"note": "overlap graph is the 4-cycle on a path host"},
        ),
        "bushy-demo": Instance(
            family=bushy_family,
            cover=frozenset({"u", "m", "v"}),
            meta={"note": "u is not bushy (neighbour a is internal); v is"},
        ),
    }
