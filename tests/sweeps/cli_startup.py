"""Time each step of the CLI pipeline in fresh processes, with bytecode
caching off and on, and count the source lines each step compiles.

The pipeline is the paper's construction as a user runs it, one process
per step: ``cover find``, ``derive``, ``to-mixed``, ``verify --what
mixed``, ``from-mixed``, ``verify --what bushy`` and ``recognize``, on a
covered family of ``--k`` members on a ``--n``-vertex host (by default the
sizes of the benchmark's ``cli`` workload).  Each process times ``import
treerep.cli`` and ``treerep.cli.main`` apart (``main`` imports the verb's
module and what it uses); the sweep prints the median of ``--repeats``
processes per step and mode.

- off: ``PYTHONDONTWRITEBYTECODE=1`` and no cache prefix, so every
  treerep module is compiled from source, while the standard library
  reads the bytecode its installation ships.
- on: ``PYTHONPYCACHEPREFIX`` on a temporary directory, filled by one
  warm-up process per step, so nothing is compiled.

"lines" is the sum of the source lines of the treerep modules the step
loads, that is what it compiles with caching off.  The cache never lands
in the repository.  Run from the repository root (about 15 s):

    PYTHONPATH=src python tests/sweeps/cli_startup.py [--repeats 9]
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import treerep
from treerep.cli import main as cli_main

SRC = Path(treerep.__file__).resolve().parents[1]

#: One step's process: its own import and main times, its exit code and the
#: treerep modules it loaded with their files, as the last line of its output.
CHILD = """\
import sys, time
start = time.perf_counter()
import treerep.cli
imported = time.perf_counter()
code = treerep.cli.main(sys.argv[1:])
done = time.perf_counter()
import json
files = {n: m.__file__ for n, m in sys.modules.items() if n.split(".")[0] == "treerep"}
sys.stdout.write("\\n" + json.dumps([imported - start, done - imported, code, files]))
"""


def pipeline(work: Path, n: int, k: int, seed: int) -> dict[str, list[str]]:
    """The steps' arguments, after writing the source instance to ``work``."""
    def at(name):
        return str(work / f"{name}.json")

    code = cli_main(["gen", "--n", str(n), "--k", str(k), "--seed", str(seed),
                     "--mode", "covered-by", "--cover", "path", "-o", at("source")])
    assert code == 0
    return {
        "cover find": ["cover", "find", "-i", at("source"), "-o", at("cover")],
        "derive": ["derive", "--mode", "overlap", "-i", at("cover"),
                   "-o", at("derived")],
        "to-mixed": ["to-mixed", "-i", at("derived"), "-o", at("mixed")],
        "verify mixed": ["verify", "--what", "mixed", "-i", at("mixed")],
        "from-mixed": ["from-mixed", "-i", at("mixed"), "-o", at("bushy")],
        "verify bushy": ["verify", "--what", "bushy", "-i", at("bushy")],
        "recognize": ["recognize", "--property", "chordal", "-i", at("derived")],
    }


def run(argv: list[str], env: dict) -> tuple[float, float, int, dict[str, str]]:
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return tuple(json.loads(proc.stdout.rsplit("\n", 1)[-1]))


def lines_of(files: dict[str, str]) -> int:
    return sum(len(Path(f).read_text(encoding="utf-8").splitlines())
               for f in files.values())


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--n", type=int, default=500)
    parser.add_argument("--k", type=int, default=90)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if (SRC / "treerep" / "__pycache__").exists():
        sys.exit(f"{SRC / 'treerep' / '__pycache__'} exists, so the 'off' runs "
                 "would read it; remove it first")
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    base["PYTHONPATH"] = str(SRC)
    with tempfile.TemporaryDirectory() as work, tempfile.TemporaryDirectory() as cache:
        steps = pipeline(Path(work), args.n, args.k, args.seed)
        modes = {"off": dict(base, PYTHONDONTWRITEBYTECODE="1"),
                 "on": dict(base, PYTHONPYCACHEPREFIX=cache)}
        files, codes = {}, {}
        for step, argv in steps.items():  # warm the cache, in pipeline order
            _, _, codes[step], files[step] = run(argv, modes["on"])
        times = {(step, mode): [] for step in steps for mode in modes}
        for _ in range(args.repeats):
            for step, argv in steps.items():
                for mode, env in modes.items():
                    imp, call, code, loaded = run(argv, env)
                    assert (code, loaded) == (codes[step], files[step]), step
                    times[step, mode].append((imp, call))

    def median_ms(step, mode, part):
        return statistics.median(t[part] for t in times[step, mode]) * 1e3

    print(f"n={args.n} k={args.k} seed={args.seed}, median of {args.repeats} "
          f"processes per step and mode (ms)")
    print(f"{'step':<13} {'modules':>7} {'lines':>6} {'import off':>10} "
          f"{'import on':>9} {'main off':>8} {'main on':>7} {'exit':>4}")
    total = [0.0] * 4
    for step in steps:
        cells = [median_ms(step, mode, part) for part in (0, 1) for mode in modes]
        total = [a + b for a, b in zip(total, cells)]
        print(f"{step:<13} {len(files[step]):>7} {lines_of(files[step]):>6} "
              f"{cells[0]:>10.1f} {cells[1]:>9.1f} {cells[2]:>8.1f} "
              f"{cells[3]:>7.1f} {codes[step]:>4}")
    print(f"{'sum':<13} {'':>7} {'':>6} {total[0]:>10.1f} {total[1]:>9.1f} "
          f"{total[2]:>8.1f} {total[3]:>7.1f}")
    for step in steps:
        print(f"{step}: {' '.join(sorted(files[step]))}")


if __name__ == "__main__":
    main()
