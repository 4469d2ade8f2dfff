"""Start the treerep CLI as its console script does, for the benchmark.

    BENCH_REPORT_OUT=<file> python3 bench/cli_child.py <treerep arguments>

On exit the process writes to ``BENCH_REPORT_OUT``, as JSON, its peak
resident memory (``VmHWM``; the parent's ``RUSAGE_CHILDREN`` figure would
not do, as a child inherits its parent's high-water mark through fork and
exec) and the times of the host-speed probes it ran before and after the
CLI's work (``hostspeed.py``; the speed of the host where the work ran).

With ``BENCH_SPANS_OUT`` set as well (the traced mode), the process also
installs the benchmark's spans and writes them to that file as JSON,
with its span tree when ``BENCH_SPAN_TREE`` is set.  ``cli.startup`` is
the time from ``BENCH_SPAWN_T`` (``time.monotonic()`` at spawn) to the
call of ``cli.main``: interpreter start and the program's imports.
"""

import json
import os
import sys
import time

import hostspeed
import treerep.cli

#: Probes at each end of the process.
PROBES = 2


def peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def traced_main(argv, spans_out, reached) -> int:
    import spans

    startup = reached - float(os.environ["BENCH_SPAWN_T"])
    tracer = spans.Tracer()
    tracer.record("cli.startup", startup)
    if os.environ.get("BENCH_SPAN_TREE"):
        tracer.capture = [{"name": "cli.startup", "ms": startup * 1e3,
                           "self_ms": startup * 1e3, "children": []}]
    tracer.install()
    try:
        return treerep.cli.main(argv)
    finally:
        tracer.uninstall()
        data = {"spans": {n: [tracer.calls[n], tracer.self_s[n]] for n in tracer.calls},
                "tree": tracer.capture or []}
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump(data, fh)


def main() -> int:
    reached = time.monotonic()
    probes = [hostspeed.timed_probe() for _ in range(PROBES)]
    spans_out = os.environ.get("BENCH_SPANS_OUT")
    try:
        if spans_out:
            return traced_main(sys.argv[1:], spans_out, reached)
        return treerep.cli.main(sys.argv[1:])
    finally:
        probes += [hostspeed.timed_probe() for _ in range(PROBES)]
        with open(os.environ["BENCH_REPORT_OUT"], "w", encoding="ascii") as fh:
            json.dump({"rss_kb": peak_rss_kb(), "probe_s": probes}, fh)


if __name__ == "__main__":
    sys.exit(main())
