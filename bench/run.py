"""Benchmark for treerep: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload {roundtrip,normalize,decide,cli} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the program is imported from ``src/``.  The
run builds the workload's corpus from the seed, times whole passes over it
for at least ``--seconds`` seconds after one untimed warm-up pass, checks
the outputs with checks written apart from the program, and prints as its
last line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, from
spans around treerep's public functions, plus the tracing overhead.  A
copy of the result goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Corpus builds per run; setup_s reports the median.
SETUP_REPEATS = 3

_FAILED = object()  # an operation that raised


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("roundtrip", "normalize", "decide", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_op(op):
    """Run one operation; _FAILED if it raises (the traceback goes to stderr)."""
    try:
        return op.run()
    except Exception:  # a failing operation is counted, not fatal
        sys.stderr.write(f"{op.label} raised:\n{traceback.format_exc()}")
        return _FAILED


def timed_pass(ops, reference, mismatches, clock):
    """One pass; gc.collect() runs before each operation, outside the timer.
    Returns the raw wall seconds of each operation and the factor that
    scales them to the reference host; counts outputs unlike the reference."""
    times = []
    clock.start_pass()
    for i, op in enumerate(ops):
        gc.collect()
        out, took = clock.time(lambda: run_op(op))
        times.append(took)
        if out is _FAILED or out != reference[i]:
            mismatches[i] += 1
    return times, clock.end_pass()


def warm_up(ops):
    """The untimed first pass; its outputs are the ones checked.

    Freezing the heap afterwards keeps the corpus and these outputs out of
    the collector's scans, so the gc.collect() between timed operations
    costs microseconds and no operation pays for scanning the corpus.
    """
    reference = [run_op(op) for op in ops]
    gc.collect()
    gc.freeze()
    return reference


def check_outputs(ops, reference):
    """Independent checks of the warm-up outputs: per op, a list of problems
    (None when the op raised)."""
    verdicts = []
    for op, out in zip(ops, reference):
        if out is _FAILED:
            verdicts.append(None)
            continue
        try:
            problems = op.check(out)
        except Exception as exc:  # a malformed output is a wrong output
            problems = [f"check raised {exc!r}"]
        for problem in problems:
            print(f"WRONG {op.label}: {problem}")
        verdicts.append(problems)
    return verdicts


def set_up(name, seed, work_dir, repeats, clock):
    """Import the program and build the corpus, ``repeats`` times from a
    fresh import each time.  Returns the workload, its corpus, and the
    scaled and the raw seconds each import-plus-build took."""
    scaled, raw = [], []
    w = corpus = None
    for _ in range(repeats):
        w = corpus = None
        for mod in [m for m in sys.modules
                    if m in ("treerep", "workloads") or m.startswith("treerep.")]:
            del sys.modules[mod]
        gc.collect()
        clock.start_pass()
        _, import_s = clock.time(lambda: importlib.import_module("treerep"))
        w = importlib.import_module("workloads").workload(name, work_dir)
        corpus, build_s = clock.time(lambda: w.build(seed))
        raw.append(import_s + build_s)
        scaled.append(raw[-1] * clock.end_pass())
    return w, corpus, scaled, raw


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "treerep" / "__init__.py").is_file():
        print(f"error: treerep sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            result = traced_run(args, work_dir)
        else:
            result = plain_run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    suffix = "-trace" if args.trace else ""
    (OUT_DIR / f"{args.workload}-seed{args.seed}{suffix}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))
    return 0


def report_corpus(w, args, corpus, ops):
    import workloads
    digest = workloads.fingerprint(w.plain(corpus))
    print(f"corpus {args.workload} seed={args.seed} ops_per_pass={len(ops)} "
          f"sha256={digest}")
    return digest


def finish(ops, reference, mismatches, passes):
    """Count failures: ops that raised, failed their check, or produced an
    output unlike the checked warm-up output."""
    verdicts = check_outputs(ops, reference)
    failed = 0
    correct = True
    for i, problems in enumerate(verdicts):
        if problems is None or problems:
            failed += passes
            correct = correct and problems is None
        else:
            failed += mismatches[i]
            correct = correct and mismatches[i] == 0
    return correct, failed


def pass_clock(w, args):
    """The clock for the timed passes.  CLI work runs in child processes,
    which probe the host's speed themselves and report to it."""
    if args.workload != "cli":
        return hostspeed.Clock()
    clock = hostspeed.Clock(local=False)
    w.on_probes = clock.add_inside
    return clock


def plain_run(args, work_dir):
    w, corpus, setups, setups_raw = set_up(
        args.workload, args.seed, work_dir, SETUP_REPEATS, hostspeed.Clock())
    clock = pass_clock(w, args)
    ops = w.ops(corpus)
    digest = report_corpus(w, args, corpus, ops)
    reference = warm_up(ops)

    mismatches = [0] * len(ops)
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(timed_pass(ops, reference, mismatches, clock))
    if args.workload == "cli":
        peak_kb = w.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    correct, failed = finish(ops, reference, mismatches, len(passes))

    def timings(passes, setups):
        op_times = [t for times, _ in passes for t in times]
        return (len(ops) / statistics.median(sum(times) for times, _ in passes),
                statistics.median(op_times) * 1e3, statistics.median(setups))

    scaled = [([t * f for t in times], f) for times, f in passes]
    rate, p50, setup = timings(scaled, setups)
    raw_rate, raw_p50, raw_setup = timings(passes, setups_raw)
    metrics = {
        "ops_per_s": {"value": rate, "unit": "1/s"},
        "op_p50_ms": {"value": p50, "unit": "ms"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }
    raw = {"ops_per_s": raw_rate, "op_p50_ms": raw_p50, "setup_s": raw_setup}
    print(f"passes={len(passes)} ops={len(passes) * len(ops)} "
          f"host speed factors={[round(f, 3) for _, f in passes]}")
    for name, m in metrics.items():
        print(f"  {name:12s} {m['value']:12.4f} {m['unit']:4s}"
              + (f"  (raw {raw[name]:.4f})" if name in raw else ""))
    return {"correct": correct, "attempted": len(passes) * len(ops),
            "failed": failed, "metrics": metrics, "raw": raw,
            "workload": args.workload, "seed": args.seed, "corpus_sha256": digest,
            "pass_raw_s": [sum(times) for times, _ in passes],
            "pass_factor": [f for _, f in passes],
            "setup_raw_s": setups_raw, "setup_s": setups}


def traced_run(args, work_dir):
    """Alternate untraced and traced passes; per-layer metrics come from the
    traced ones plus one traced corpus build, charged to one pass."""
    import spans
    import workloads
    setup_clock = hostspeed.Clock()
    w = workloads.workload(args.workload, work_dir)
    clock = pass_clock(w, args)
    tracer = spans.Tracer()
    tracer.install()
    setup_clock.start_pass()
    corpus, _ = setup_clock.time(lambda: w.build(args.seed))
    factor = setup_clock.end_pass()
    tracer.uninstall()
    setup_calls = dict(tracer.calls)
    setup_self = {name: s * factor for name, s in tracer.self_s.items()}
    tracer.reset()

    ops = w.ops(corpus)
    digest = report_corpus(w, args, corpus, ops)
    reference = warm_up(ops)

    mismatches = [0] * len(ops)
    untraced, traced = [], []  # scaled seconds per pass
    pass_calls, pass_self = Counter(), defaultdict(float)
    tree = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        times, factor = timed_pass(ops, reference, mismatches, clock)
        untraced.append(sum(times) * factor)
        if args.workload == "cli":
            w.launch = w.traced_launch(tracer)
        tracer.install()
        if tree is None:
            tracer.capture = []
            tree = capture_first(ops[0], tracer, spans)
        times, factor = timed_pass(ops, reference, mismatches, clock)
        traced.append(sum(times) * factor)
        tracer.uninstall()
        if args.workload == "cli":
            w.launch = w.plain_launch
        pass_calls.update(tracer.calls)
        for name, s in tracer.self_s.items():
            pass_self[name] += s * factor
        tracer.reset()
    passes = len(untraced) + len(traced)
    correct, failed = finish(ops, reference, mismatches, passes)

    n = len(traced)
    metrics = {}
    calls = {}
    for name in spans.SPAN_NAMES:
        calls[name] = setup_calls.get(name, 0) + pass_calls[name] // n
        self_s = setup_self.get(name, 0.0) + pass_self[name] / n
        metrics[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        metrics[f"{name}.self_ms_per_op"] = {
            "value": self_s * 1e3 / len(ops), "unit": "ms"}
    trees = calls["trees.Tree.init"]
    metrics["trees.adjacency_per_tree"] = {
        "value": calls["graphs.SimpleGraph.adjacency"] / trees if trees else 0.0,
        "unit": "ratio"}
    plain_rate = len(ops) / statistics.median(untraced)
    traced_rate = len(ops) / statistics.median(traced)
    metrics["trace.untraced_ops_per_s"] = {"value": plain_rate, "unit": "1/s"}
    metrics["trace.traced_ops_per_s"] = {"value": traced_rate, "unit": "1/s"}
    metrics["trace.overhead"] = {"value": plain_rate / traced_rate, "unit": "ratio"}

    print(f"traced passes={n} untraced passes={len(untraced)} "
          f"ops_per_s untraced={plain_rate:.4f} traced={traced_rate:.4f} "
          f"overhead={plain_rate / traced_rate:.4f}x")
    print("per-layer (calls per pass incl. one corpus build; self ms per op):")
    for name in spans.SPAN_NAMES:
        c = metrics[f"{name}.calls"]["value"]
        if c:
            ms = metrics[f"{name}.self_ms_per_op"]["value"]
            print(f"  {name:38s} {c:8d} calls {ms:12.4f} ms/op")
    print(f"  trees.adjacency_per_tree {metrics['trees.adjacency_per_tree']['value']:.4f}")
    print(f"span tree of {ops[0].label} (raw ms):")
    for line in spans.render(tree):
        print("  " + line)
    return {"correct": correct, "attempted": passes * len(ops), "failed": failed,
            "metrics": metrics, "workload": args.workload, "seed": args.seed,
            "corpus_sha256": digest, "span_tree": tree}


def capture_first(op, tracer, spans):
    """Run ``op`` once with span capture on; its span tree under a root."""
    gc.collect()
    start = time.perf_counter()
    run_op(op)
    dur = time.perf_counter() - start
    kids, tracer.capture = tracer.capture, None
    tracer.reset()
    inner = sum(k["ms"] for k in kids)
    return spans.collapse({"name": f"op {op.label}", "ms": dur * 1e3,
                           "self_ms": dur * 1e3 - inner, "children": kids})


if __name__ == "__main__":
    sys.exit(main())
