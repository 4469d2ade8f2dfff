"""In-memory spans around treerep's public functions, for the traced mode.

A :class:`Tracer` wraps each function in :data:`TARGETS` and, because the
modules import each other's functions by name, rebinds every treerep
module attribute that holds the original (``recognize``, for instance, is
bound in ``graphs``, ``mixed``, ``oracle``, ``cli`` and the package).  A
span's self time is its duration minus the durations of its direct child
spans; calls are strictly nested, as the benchmark runs no threads.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

#: (module, attribute path, span name).  ``graphs.recognize`` is named per
#: property, as ``graphs.recognize.<property>``.
TARGETS = (
    ("workbench", "gen_tree", "workbench.gen_tree"),
    ("workbench", "gen_cover", "workbench.gen_cover"),
    ("workbench", "gen_family", "workbench.gen_family"),
    ("workbench", "parse", "workbench.parse"),
    ("workbench", "serialize", "workbench.serialize"),
    ("cli", "main", "cli.main"),
    ("trees", "Tree.__init__", "trees.Tree.init"),
    ("graphs", "SimpleGraph.adjacency", "graphs.SimpleGraph.adjacency"),
    ("trees", "subtree_leaves", "trees.subtree_leaves"),
    ("trees", "require_valid", "trees.require_valid"),
    ("trees", "minimal_covering_subtree", "trees.minimal_covering_subtree"),
    ("transforms", "normalize", "transforms.normalize"),
    ("transforms", "add_leaf", "transforms.add_leaf"),
    ("transforms", "subdivide_edge", "transforms.subdivide_edge"),
    ("derive", "derive_graph", "derive.derive_graph"),
    ("graphs", "recognize", "graphs.recognize"),
    ("graphs", "complement", "graphs.complement"),
    ("graphs", "is_transitive", "graphs.is_transitive"),
    ("mixed", "overlap_to_mixed", "mixed.overlap_to_mixed"),
    ("mixed", "verify_mixed_partition", "mixed.verify_mixed_partition"),
    ("mixed", "shrink_containments", "mixed.shrink_containments"),
    ("mixed", "mixed_to_bushy", "mixed.mixed_to_bushy"),
    ("oracle", "enumerate_chordless_cycles", "oracle.enumerate_chordless_cycles"),
    ("oracle", "search_mixed_partition", "oracle.search_mixed_partition"),
    ("oracle", "search_overlap_rep", "oracle.search_overlap_rep"),
)

PROPERTIES = (
    "chordal", "cochordal", "comparability", "cocomparability",
    "interval", "cointerval",
)

#: Span names reported by the traced mode, ``cli.startup`` included: it is
#: measured by the child wrapper, from spawn to the call of ``cli.main``.
SPAN_NAMES = tuple(
    name for _, _, name in TARGETS if name != "graphs.recognize"
) + tuple(f"graphs.recognize.{p}" for p in PROPERTIES) + ("cli.startup",)


class Tracer:
    """Aggregates calls and self time per span name while installed.

    When ``capture`` is a list, finished top-level spans are appended to it
    as trees ``{"name", "ms", "self_ms", "children"}``.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.capture: list | None = None
        self._stack: list = []
        self._saved: list = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()

    def record(self, name: str, seconds: float) -> None:
        """Add a span measured elsewhere (a child process)."""
        self.calls[name] += 1
        self.self_s[name] += seconds

    def merge(self, spans: dict) -> None:
        """Add spans aggregated elsewhere: name -> [calls, self seconds]."""
        for name, (calls, self_s) in spans.items():
            self.calls[name] += calls
            self.self_s[name] += self_s

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0, []])

    def _exit(self) -> None:
        name, start, child_s, kids = self._stack.pop()
        dur = time.perf_counter() - start
        self.calls[name] += 1
        self.self_s[name] += dur - child_s
        node = None
        if self.capture is not None:
            node = {"name": name, "ms": dur * 1e3,
                    "self_ms": (dur - child_s) * 1e3, "children": kids}
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            if node is not None:
                parent[3].append(node)
        elif node is not None:
            self.capture.append(node)

    def _wrap(self, name: str, fn):
        tracer = self

        if name == "graphs.recognize":
            @functools.wraps(fn)
            def wrapper(g, prop, *args, **kwargs):
                tracer._enter(f"graphs.recognize.{prop}")
                try:
                    return fn(g, prop, *args, **kwargs)
                finally:
                    tracer._exit()
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit()
        return wrapper

    def install(self) -> None:
        if self._saved:
            return
        owners = {m: importlib.import_module(f"treerep.{m}") for m, _, _ in TARGETS}
        modules = [m for n, m in list(sys.modules.items())
                   if n == "treerep" or n.startswith("treerep.")]
        for module, attr, name in TARGETS:
            owner = owners[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(name, original)
            if path:  # a method: one binding, on its class
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._saved):
            setattr(owner, key, original)
        self._saved.clear()


def collapse(node: dict) -> dict:
    """Merge same-named sibling spans, recursively, keeping their totals, so
    that a span called thousands of times in one op prints as one line."""
    groups: dict = {}
    for kid in node["children"]:
        g = groups.setdefault(kid["name"], {"name": kid["name"], "calls": 0,
                                            "ms": 0.0, "self_ms": 0.0, "children": []})
        g["calls"] += kid.get("calls", 1)
        g["ms"] += kid["ms"]
        g["self_ms"] += kid["self_ms"]
        g["children"] += kid["children"]
    return {**node, "children": [collapse(g) for g in groups.values()]}


def render(node: dict, depth: int = 0) -> list[str]:
    """Indented lines of a span tree: calls, total and self milliseconds."""
    lines = [f"{'  ' * depth}{node['name']} x{node.get('calls', 1)}  "
             f"{node['ms']:.3f} ms  (self {node['self_ms']:.3f} ms)"]
    for kid in node["children"]:
        lines += render(kid, depth + 1)
    return lines
