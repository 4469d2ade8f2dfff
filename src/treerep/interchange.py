"""The JSON interchange format: :class:`Instance`, :func:`parse` and
:func:`serialize`.

The interchange object holds any subset of {tree, subtrees, graph, mixed,
cover, meta}, mutually consistent.  On write, order-bearing sequences
(vertex order, member order) are preserved and every set-valued array is
sorted, so equal instances serialize to identical bytes and parsing is
lossless.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from operator import eq
from typing import TYPE_CHECKING

from .errors import InputError, SchemaError, record
from .simple import SimpleGraph, edge_key
from .trees import SubtreeFamily, Tree

if TYPE_CHECKING:
    from .mixed import MixedPartition


@record
class Instance:
    """A bundle of mutually consistent pieces plus generator metadata."""

    tree: Tree | None = None
    family: SubtreeFamily | None = None
    graph: SimpleGraph | None = None
    mixed: MixedPartition | None = None
    cover: frozenset[str] | None = None
    meta: dict | None = None

    def __post_init__(self):
        if self.meta is None:
            object.__setattr__(self, "meta", {})
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


_TOP_FIELDS = ("tree", "subtrees", "graph", "mixed", "cover", "meta")

# One writer, _json, builds the json.dumps(indent=2, ensure_ascii=False)
# text of every section but meta, which json.dumps writes itself,
# re-indented to its depth.
_encode = json.encoder.encode_basestring
_TUPLE = frozenset({tuple})
_STR, _LIST, _TWO = frozenset({str}), frozenset({list}), frozenset({2})


class _Text(str):
    """JSON text, which :func:`_json` copies as it stands."""


def _json(value, pad: str = "") -> str:
    """What ``json.dumps(value, indent=2, ensure_ascii=False)`` writes for
    ``value``, with each line after the first indented by ``pad``: a label
    string, a :class:`_Text`, a pair (a tuple of two labels), or a list,
    tuple or dict of such values.  A list or tuple whose first item is a
    string is an array of labels.  A label or key that is not a string
    raises ``TypeError``.  Arrays of labels and of pairs, the bulk of an
    instance, are encoded in one pass each."""
    inner, ends = "\n" + pad + "  ", "[]"
    if isinstance(value, dict):
        items = [_encode(k) + ": " + _json(v, pad + "  ") for k, v in value.items()]
        ends = "{}"
    elif not isinstance(value, (list, tuple)):
        return value if type(value) is _Text else _encode(value)
    elif not value or type(value[0]) is str:
        items = list(map(_encode, value))
    elif _TUPLE.issuperset(map(type, value)) and _TWO.issuperset(map(len, value)):
        labels = list(map(_encode, chain.from_iterable(value)))
        item = inner + "  "
        rows = map(("," + item).join, zip(labels[::2], labels[1::2]))
        # one join writes all the pairs: its separator closes one, opens the next
        between = inner + "]," + inner + "[" + item
        items = ["[" + item + between.join(rows) + inner + "]"]
    else:
        items = [_json(v, pad + "  ") for v in value]
    if not items:
        return ends
    return ends[0] + inner + ("," + inner).join(items) + "\n" + pad + ends[1]


def serialize(instance: Instance) -> str:
    """Byte-stable JSON for an instance (UTF-8, trailing newline): the text
    ``json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)``
    writes for the instance's JSON object, its sections in the order of
    ``_TOP_FIELDS``, vertex and member order kept and every set-valued
    array sorted.  :func:`_json` writes it, with ``meta`` written by
    ``json.dumps`` with sorted keys.  Labels and member names must be
    strings: any other type raises ``TypeError``."""

    def graph(g: SimpleGraph) -> dict:
        return {"vertices": g.vertices, "edges": sorted(g.edges)}

    obj = {}
    if instance.tree is not None:
        obj["tree"] = graph(instance.tree)
    if instance.family is not None:
        obj["subtrees"] = {name: sorted(vs) for name, vs in instance.family.members}
    if instance.graph is not None:
        obj["graph"] = graph(instance.graph)
    if (mixed := instance.mixed) is not None:
        obj["mixed"] = {"e1": sorted(mixed.e1), "e2": sorted(mixed.e2)}
    if instance.cover is not None:
        obj["cover"] = sorted(instance.cover)
    if instance.meta:
        meta = json.dumps(instance.meta, indent=2, ensure_ascii=False,
                          allow_nan=False, sort_keys=True)
        obj["meta"] = _Text(meta.replace("\n", "\n  "))
    return _json(obj) + "\n"


def _expect(obj, path: str, kind, what: str):
    if not isinstance(obj, kind):
        raise SchemaError(path, f"expected {what}")
    return obj


# a pattern, which ``re`` compiles on first use: most texts never need it
_SURROGATE = "[\ud800-\udfff]"


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
            if re.search(_SURROGATE, "".join(value)):
                return path
            stack += reversed([(f"{path}.{k}", v) for k, v in value.items()])
        elif isinstance(value, list):
            stack += reversed([(f"{path}[{i}]", v) for i, v in enumerate(value)])
        elif isinstance(value, str) and re.search(_SURROGATE, value):
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
    suspect = "\\" in text or not text.isascii() and re.search(_SURROGATE, text)
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
