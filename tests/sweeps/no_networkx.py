"""Run the tests under ``tests/`` as on a host without networkx, and check
that every test that needs it skips instead of failing.

The child process runs ``python -m pytest -q tests/`` with a stub
``networkx`` package first on ``PYTHONPATH``, whose import raises the
``ModuleNotFoundError`` of a missing module.  The sweep prints the child's
one-line summary and exits 1 unless that summary reports 0 failed and 0
errors.  The tests under ``bench/`` are not run: ``bench/verdicts.py``
imports networkx at module level.  Run from the repository root (about as
long as the suite):

    PYTHONPATH=src python tests/sweeps/no_networkx.py
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def main() -> None:
    with tempfile.TemporaryDirectory() as stub:
        package = Path(stub) / "networkx"
        package.mkdir()
        (package / "__init__.py").write_text(
            "raise ModuleNotFoundError(\"No module named 'networkx'\", name='networkx')\n",
            encoding="utf-8",
        )
        path = [stub, str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "tests/"],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
    lines = child.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    print(f"without networkx: {summary or child.stderr.strip()}")
    if " in " not in summary or re.search(r"\d+ (failed|errors?)\b", summary):
        raise SystemExit(1)


if __name__ == "__main__":
    main()
