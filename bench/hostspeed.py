"""Host-speed probe: scales measured times to a host of fixed speed.

On a shared host the same pass over the same corpus takes up to 1.7 times
longer at some moments than at others, for seconds or minutes at a time, as
other tenants load the machine (README, "Noise study").  A median over a
run cannot remove a slow spell that lasts the whole run.  So the benchmark
times a fixed piece of pure-Python work, the probe, between operations, and
reports every time multiplied by ``PROBE_REF_S / mean probe time`` of the
same pass: the time the operation would take on a host where the probe
takes exactly ``PROBE_REF_S``.  The probe shares no code with treerep, so a
change to the program moves the scaled times as much as the raw ones.
"""

from __future__ import annotations

import random
import statistics
import time

#: The probe's time on the reference host: scaled times are in its seconds.
PROBE_REF_S = 0.0015
#: The probe runs before an operation once this much operation time has
#: passed since the last probe, so that it costs a few percent at most.
PROBE_GAP_S = 0.05
#: Probes at the start and at the end of each pass.
EDGE_PROBES = 3


def probe_work() -> int:
    """Breadth-first searches and set intersections on a fixed random graph."""
    rng = random.Random(12345)
    n = 120
    adj = {i: set() for i in range(n)}
    for _ in range(360):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    total = 0
    for source in range(12):
        seen = {source}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for u in adj[v]:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        total += len(seen)
    for i in range(0, n, 3):
        for j in range(i + 1, min(n, i + 20)):
            total += len(adj[i] & adj[j])
    return total


def timed_probe() -> float:
    """Seconds one run of the probe takes."""
    start = time.perf_counter()
    probe_work()
    return time.perf_counter() - start


class Clock:
    """Times operations and samples the host's speed around them.

    Between ``start_pass`` and ``end_pass``, ``time`` runs a callable and
    returns its wall time, less any probe time reported from inside it
    through ``add_inside``.  ``end_pass`` returns the factor that scales
    the pass's times to the reference host.

    A clock for work done in child processes (``local=False``) runs no
    probes itself: the children probe, where the work runs, and report.
    """

    def __init__(self, local: bool = True):
        self.local = local
        self._samples: list[float] = []
        self._since = 0.0
        self._inside = 0.0

    def _probe(self) -> None:
        self._samples.append(timed_probe())
        self._since = 0.0

    def add_inside(self, samples) -> None:
        """Probe times measured inside the running operation."""
        self._samples.extend(samples)
        self._inside += sum(samples)

    def start_pass(self) -> None:
        self._samples = []
        if self.local:
            for _ in range(EDGE_PROBES):
                self._probe()

    def time(self, fn):
        """(result of ``fn()``, its wall seconds without inner probes)."""
        if self.local and self._since >= PROBE_GAP_S:
            self._probe()
        self._inside = 0.0
        start = time.perf_counter()
        out = fn()
        took = time.perf_counter() - start - self._inside
        self._since += took
        return out, took

    def end_pass(self) -> float:
        if self.local:
            for _ in range(EDGE_PROBES):
                self._probe()
        return PROBE_REF_S / statistics.fmean(self._samples)
