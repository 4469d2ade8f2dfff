"""Reference-only size ladder: times the super-linear cliffs above desk scale.

    python3 bench/ladder.py [--seed N]

Not part of the gated benchmark (one run takes about a minute and each
rung is a single timing).  It reproduces the cliffs ROADMAP lists, so a
change that removes one can quote before and after figures:

    normalize            host n=200, k=60 free members
    gen_family           host n=1000, k=150
    minimal_covering_subtree  on that n=1000 family
    parse                that n=1000 instance, serialized
    mixed_to_bushy       k=150 covered-by members on a host of n=300
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import treerep as tr  # noqa: E402


def timed(label, fn):
    start = time.perf_counter()
    out = fn()
    print(f"{label:48s} {time.perf_counter() - start:8.3f} s", flush=True)
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    seed = p.parse_args(argv).seed

    family = tr.gen_family(tr.gen_tree(200, seed), 60, seed, "free")
    timed("normalize n=200 k=60", lambda: tr.normalize(family))

    big = tr.gen_tree(1000, seed)
    family = timed("gen_family n=1000 k=150",
                   lambda: tr.gen_family(big, 150, seed, "free"))
    timed("minimal_covering_subtree n=1000 k=150",
          lambda: tr.minimal_covering_subtree(family))
    text = tr.serialize(tr.Instance(family=family))
    timed("parse n=1000 k=150", lambda: tr.parse(text))

    host = tr.gen_tree(300, seed)
    cover = tr.gen_cover(host, seed, "subtree")
    family = tr.gen_family(host, 150, seed, "covered-by", cover)
    partition, certificate = tr.overlap_to_mixed(family, cover)
    timed("mixed_to_bushy n=300 k=150",
          lambda: tr.mixed_to_bushy(partition, certificate))
    return 0


if __name__ == "__main__":
    sys.exit(main())
