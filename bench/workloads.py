"""The four benchmark workloads: corpus builders, operations and checks.

Each workload builds a corpus from the run's seed with treerep's own
generators, then exposes it as a list of :class:`Op`.  ``Op.run`` is the
timed call into the program; ``Op.check`` inspects its output with the
independent checks in :mod:`verdicts` and returns a list of problems.
The checks import :mod:`verdicts`, and with it networkx, only when they
run, after the timed passes, so networkx is not in ``peak_rss_mb``.

treerep is called through module attributes (``tr.normalize``), never
through names bound at import, so the traced mode's wrappers see the calls.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import treerep as tr

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: A CLI process running longer than this is killed and its op counted failed.
CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]


def plain_tree(t) -> dict:
    return {"vertices": list(t.vertices), "edges": sorted(map(list, t.edges))}


def plain_members(f) -> dict:
    return {name: frozenset(vs) for name, vs in f.members}


def fingerprint(data) -> str:
    """sha256 of the corpus as canonical JSON (sets sorted)."""

    def canon(x):
        if isinstance(x, (set, frozenset)):
            return sorted(canon(v) for v in x)
        if isinstance(x, dict):
            return {str(k): canon(v) for k, v in x.items()}
        if isinstance(x, (list, tuple)):
            return [canon(v) for v in x]
        return x

    text = json.dumps(canon(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def sub_seed(seed: int, index: int) -> int:
    """Distinct, reproducible generator seed for instance ``index``."""
    return seed * 1000 + index


def _family_plain(f) -> dict:
    return {"tree": plain_tree(f.host), "members": plain_members(f)}


# ---------------------------------------------------------------------------
# roundtrip: the paper's construction, in process

class Roundtrip:
    """derive_graph -> overlap_to_mixed -> mixed_to_bushy -> derive_graph on
    covered-by families with subtree covers."""

    name = "roundtrip"
    N, K, COUNT = 100, 50, 32

    def build(self, seed: int):
        corpus = []
        for i in range(self.COUNT):
            s = sub_seed(seed, i)
            tree = tr.gen_tree(self.N, s)
            cover = tr.gen_cover(tree, s, "subtree")
            corpus.append((cover, tr.gen_family(tree, self.K, s, "covered-by", cover)))
        return corpus

    def plain(self, corpus):
        return [[sorted(c), _family_plain(f)] for c, f in corpus]

    def ops(self, corpus) -> list[Op]:
        return [Op(f"instance{i}", _roundtrip_run(f, c), _roundtrip_check(f))
                for i, (c, f) in enumerate(corpus)]


def _roundtrip_run(family, cover):
    def run():
        original = tr.derive_graph(family, "overlap")
        partition, certificate = tr.overlap_to_mixed(family, cover)
        bushy = tr.mixed_to_bushy(partition, certificate)
        return original, partition, certificate, bushy, tr.derive_graph(bushy, "overlap")
    return run


def _roundtrip_check(family):
    def check(out) -> list[str]:
        import verdicts as v
        original, partition, certificate, bushy, rebuilt = out
        members = plain_members(family)
        want = v.overlap_pairs(members)
        problems = []
        if v.pairs_of(original.edges) != want:
            problems.append("derived overlap graph differs from the family's")
        new_members = plain_members(bushy)
        if v.overlap_pairs(new_members) != want:
            problems.append("rebuilt family's overlap graph differs from the original")
        if v.pairs_of(rebuilt.edges) != want:
            problems.append("derived graph of the rebuilt family differs")
        host = plain_tree(bushy.host)
        problems += v.family_problems(host["vertices"], host["edges"], new_members)
        cover = set(certificate.host.vertices)
        problems += v.cover_problems(host["vertices"], host["edges"], new_members, cover)
        problems += v.bushy_problems(host["vertices"], host["edges"], cover)
        names = list(members)
        base = {frozenset(p) for p in combinations(names, 2)} - want
        problems += v.mixed_problems(names, base, partition.e1, partition.e2)
        for a, b in partition.e2:
            if not members[a] <= members[b]:
                problems.append(f"e2 arc {a}->{b} does not point to a superset")
        return problems
    return check


# ---------------------------------------------------------------------------
# normalize: relation-preserving transforms

class Normalize:
    """normalize on free-mode families."""

    name = "normalize"
    N, K, COUNT = 60, 20, 16

    def build(self, seed: int):
        return [tr.gen_family(tr.gen_tree(self.N, s), self.K, s, "free")
                for s in (sub_seed(seed, i) for i in range(self.COUNT))]

    def plain(self, corpus):
        return [_family_plain(f) for f in corpus]

    def ops(self, corpus) -> list[Op]:
        return [Op(f"instance{i}", _normalize_run(f), _normalize_check(f))
                for i, f in enumerate(corpus)]


def _normalize_run(family):
    return lambda: tr.normalize(family)


def _normalize_check(family):
    def check(result) -> list[str]:
        import verdicts as v
        host = plain_tree(result.family.host)
        members = plain_members(result.family)
        problems = v.family_problems(host["vertices"], host["edges"], members)
        problems += v.normal_form_problems(host["vertices"], host["edges"], members)
        problems += v.relation_changes(plain_members(family), members)
        start = plain_tree(family.host)
        vertices, edges, replayed = v.replay(
            start["vertices"], start["edges"], plain_members(family), result.transcript
        )
        if (set(vertices), edges, replayed) != (
            set(host["vertices"]), v.pairs_of(host["edges"]), members
        ):
            problems.append("replaying the transcript does not reproduce the output")
        return problems
    return check


# ---------------------------------------------------------------------------
# decide: recognizers and oracles on small overlap graphs

class Decide:
    """Decision procedures on overlap graphs derived from seeded families."""

    name = "decide"
    #: (member counts cycled through, how many graphs, host size).  Few of
    #: the large graphs hold any property, so every recognizer also runs on
    #: the small ones, which yield witnesses of every kind; interval and
    #: cointerval run only there, below the clique-order search's cliff.
    RECOGNIZE = ((20, 25, 30, 35, 40), 100, 60)
    SMALL = ((6, 7), 150, 30)
    CYCLES = ((8, 9, 10), 100, 30)
    MIXED = ((5, 6), 100, 12)
    REP = ((4,), 24, 6)

    def _graphs(self, seed: int, base: int, spec):
        ks, count, n = spec
        out = []
        for i in range(count):
            s = sub_seed(seed, base + i)
            family = tr.gen_family(tr.gen_tree(n, s), ks[i % len(ks)], s, "free")
            out.append(tr.derive_graph(family, "overlap"))
        return out

    def build(self, seed: int):
        return {
            "recognize": self._graphs(seed, 0, self.RECOGNIZE),
            "small": self._graphs(seed, 200, self.SMALL),
            "cycles": self._graphs(seed, 400, self.CYCLES),
            "mixed": self._graphs(seed, 600, self.MIXED),
            "rep": self._graphs(seed, 800, self.REP),
        }

    def plain(self, corpus):
        return {key: [plain_tree(g) for g in graphs] for key, graphs in corpus.items()}

    def ops(self, corpus) -> list[Op]:
        ops = []
        for i, g in enumerate(corpus["recognize"]):
            for prop in ("chordal", "cochordal", "comparability", "cocomparability"):
                ops.append(_recognize_op(f"{prop}{i}", g, prop))
        for i, g in enumerate(corpus["small"]):
            for prop in tr.PROPERTIES:
                ops.append(_recognize_op(f"small-{prop}{i}", g, prop))
        for i, g in enumerate(corpus["cycles"]):
            ops.append(Op(f"cycles{i}", _call(tr.oracle, "enumerate_chordless_cycles", g),
                          _cycles_check(g)))
        for i, g in enumerate(corpus["mixed"]):
            ops.append(Op(f"mixed-search{i}", _call(tr.oracle, "search_mixed_partition", g),
                          _mixed_search_check(g)))
        for i, g in enumerate(corpus["rep"]):
            ops.append(Op(f"rep-search{i}", _call(tr.oracle, "search_overlap_rep", g),
                          _rep_search_check(g)))
        return ops


def _call(module, attr, *args):
    return lambda: getattr(module, attr)(*args)


def _recognize_op(label, g, prop) -> Op:
    def check(result) -> list[str]:
        import verdicts as v
        vertices, edges = list(g.vertices), list(g.edges)
        kind = prop
        if prop in ("cochordal", "cocomparability", "cointerval"):
            edges = [tuple(p) for p in v.complement_pairs(vertices, edges)]
            kind = prop[2:]
        chordal = v.chordal(vertices, edges)
        if kind == "chordal":
            expected = chordal
        elif kind == "comparability":
            expected = v.is_comparability(vertices, edges)
        else:  # Gilmore-Hoffman: interval = chordal and cocomparability
            comp = [tuple(p) for p in v.complement_pairs(vertices, edges)]
            expected = chordal and v.is_comparability(vertices, comp)
        if result.holds != expected:
            return [f"{prop} verdict {result.holds}, expected {expected}"]
        if not result.holds:
            return []
        payload = result.witness.payload
        if kind == "chordal":
            return v.peo_problems(vertices, edges, payload)
        if kind == "comparability":
            if v.pairs_of(payload.graph.edges) != v.pairs_of(edges):
                return ["orientation is of another graph"]
            return v.orientation_problems(vertices, edges, payload.arcs)
        return v.clique_order_problems(vertices, edges, payload)

    return Op(label, lambda: tr.graphs.recognize(g, prop), check)


def _cycles_check(g):
    def check(cycles) -> list[str]:
        import verdicts as v
        return v.chordless_cycle_problems(list(g.vertices), list(g.edges), cycles)
    return check


def _mixed_search_check(g):
    def check(result) -> list[str]:
        import verdicts as v
        if result.status != "found":
            return [f"mixed-partition search returned {result.status}"]
        p = result.value
        vertices = list(g.vertices)
        base = v.complement_pairs(vertices, g.edges)
        return v.mixed_problems(vertices, base, p.e1, p.e2)
    return check


def _rep_search_check(g):
    def check(result) -> list[str]:
        import verdicts as v
        if result.status != "found":
            return [f"overlap-representation search returned {result.status}"]
        host = plain_tree(result.value.host)
        members = plain_members(result.value)
        problems = v.family_problems(host["vertices"], host["edges"], members)
        if set(members) != set(g.vertices):
            problems.append("representation names differ from the graph's vertices")
        elif v.overlap_pairs(members) != v.pairs_of(g.edges):
            problems.append("representation's overlap graph differs from the input")
        return problems
    return check


# ---------------------------------------------------------------------------
# cli: the command line, one subprocess at a time

class Cli:
    """One sequential pipeline of treerep CLI processes per instance file."""

    name = "cli"
    N, K, COUNT = 500, 90, 2
    PROPERTY = "chordal"

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.launch = self.plain_launch
        self.peak_rss_kb = 0  # largest VmHWM of any CLI process so far
        #: Called with the host-speed probe times each CLI process reports
        #: (the runner passes them to hostspeed.Clock.add_inside).
        self.on_probes = lambda samples: None

    def build(self, seed: int):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        corpus = []
        for i in range(self.COUNT):
            s = sub_seed(seed, i)
            tree = tr.gen_tree(self.N, s)
            cover = tr.gen_cover(tree, s, "path")
            family = tr.gen_family(tree, self.K, s, "covered-by", cover)
            path = self.work_dir / f"instance{i}.json"
            path.write_text(tr.workbench.serialize(tr.Instance(family=family)),
                            encoding="utf-8")
            corpus.append((path, family))
        return corpus

    def plain(self, corpus):
        return [_family_plain(f) for _, f in corpus]

    def ops(self, corpus) -> list[Op]:
        return [Op(f"instance{i}", self._pipeline(path), _cli_check(family, self.PROPERTY))
                for i, (path, family) in enumerate(corpus)]

    def _spawn(self, argv, **env):
        """Run one CLI process through ``cli_child.py``, which starts the CLI
        as its console script does and reports its peak memory and the
        host's speed where it ran."""
        report_file = self.work_dir / "report.json"
        env = dict(self.env, BENCH_REPORT_OUT=str(report_file), **env)
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "cli_child.py"), *argv],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              check=False, timeout=CHILD_TIMEOUT_S)
        report = json.loads(report_file.read_text(encoding="ascii"))
        self.peak_rss_kb = max(self.peak_rss_kb, report["rss_kb"])
        self.on_probes(report["probe_s"])
        return proc

    def plain_launch(self, argv):
        """Run one CLI process as a user would, without spans."""
        return self._spawn(argv)

    def traced_launch(self, tracer):
        """A launcher whose processes install the spans and hand them back
        to ``tracer``."""
        spans_file = self.work_dir / "spans.json"

        def launch(argv):
            start = time.perf_counter()
            proc = self._spawn(
                argv, BENCH_SPANS_OUT=str(spans_file),
                BENCH_SPAN_TREE="1" if tracer.capture is not None else "",
                BENCH_SPAWN_T=repr(time.monotonic()))
            wall_ms = (time.perf_counter() - start) * 1e3
            data = json.loads(spans_file.read_text(encoding="utf-8"))
            tracer.merge(data["spans"])
            if tracer.capture is not None:
                inner = sum(k["ms"] for k in data["tree"])
                tracer.capture.append({"name": f"process {argv[0]}", "ms": wall_ms,
                                       "self_ms": wall_ms - inner,
                                       "children": data["tree"]})
            return proc
        return launch

    def _pipeline(self, source: Path):
        stem = source.with_suffix("")
        files = {k: f"{stem}.{k}.json" for k in ("cover", "derived", "mixed", "bushy")}
        steps = [
            ["cover", "find", "-i", str(source), "-o", files["cover"]],
            ["derive", "--mode", "overlap", "-i", files["cover"], "-o", files["derived"]],
            ["to-mixed", "-i", files["derived"], "-o", files["mixed"]],
            ["verify", "--what", "mixed", "-i", files["mixed"]],
            ["from-mixed", "-i", files["mixed"], "-o", files["bushy"]],
            ["verify", "--what", "bushy", "-i", files["bushy"]],
            ["recognize", "--property", self.PROPERTY, "-i", files["derived"]],
        ]

        def run():
            codes, stdout = [], ""
            for argv in steps:
                proc = self.launch(argv)
                codes.append(proc.returncode)
                stdout = proc.stdout
                if proc.returncode not in (0, 1):
                    sys.stderr.write(proc.stderr)
                    break
            texts = {k: Path(p).read_text(encoding="utf-8")
                     for k, p in files.items() if os.path.exists(p)}
            return tuple(codes), stdout, texts
        return run


def _cli_check(family, prop):
    def check(out) -> list[str]:
        import verdicts as v
        codes, stdout, texts = out
        members = plain_members(family)
        derived = json.loads(texts["derived"])["graph"]
        verdict = v.chordal(derived["vertices"], [tuple(e) for e in derived["edges"]])
        expected = (0, 0, 0, 0, 0, 0, 0 if verdict else 1)
        if codes != expected:
            return [f"exit codes {codes}, expected {expected}"]
        problems = []
        if stdout.startswith(f"{prop}: yes") != verdict:
            problems.append(f"recognize printed {stdout.strip()!r}")
        if v.pairs_of(map(tuple, derived["edges"])) != v.overlap_pairs(members):
            problems.append("derived overlap graph differs from the family's")
        host = plain_tree(family.host)
        cover = set(json.loads(texts["cover"])["cover"])
        problems += v.minimal_cover_problems(host["vertices"], host["edges"], members, cover)
        bushy = json.loads(texts["bushy"])
        b_host = bushy["tree"]
        b_members = {n: frozenset(vs) for n, vs in bushy["subtrees"].items()}
        problems += v.family_problems(b_host["vertices"], [tuple(e) for e in b_host["edges"]],
                                      b_members)
        if v.overlap_pairs(b_members) != v.overlap_pairs(members):
            problems.append("bushy family's overlap graph differs from the generated one")
        b_edges = [tuple(e) for e in b_host["edges"]]
        problems += v.cover_problems(b_host["vertices"], b_edges, b_members, bushy["cover"])
        problems += v.bushy_problems(b_host["vertices"], b_edges, bushy["cover"])
        return problems
    return check


def workload(name: str, work_dir: Path):
    table = {"roundtrip": Roundtrip, "normalize": Normalize, "decide": Decide}
    if name == "cli":
        return Cli(work_dir)
    return table[name]()

