"""Rewrite the golden CLI corpus from the current code.

``cases.json`` lists the commands: a name, the arguments after ``treerep``
and, optionally, a file of this directory to feed on standard input.  Each
command runs in process through ``treerep.cli.main``, with this directory
as the working directory, so a file argument is named relative to it.  Its
standard output goes to ``<name>.out``, its standard error to
``<name>.err`` and its exit code to ``exit_codes.json``.  A later case may
read an earlier case's ``.out`` file.

``tests/test_golden.py`` compares the same runs with these files, byte for
byte.  Run this script by hand, from the repository root, only when a
change of output is intended, and name the changed files in CHANGES.md:

    PYTHONPATH=src python tests/golden/regen.py

With ``--check`` it writes nothing: it lists the cases whose standard
output, standard error or exit code would change, and exits 1 if there is
any such case.
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from treerep.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent


def load_cases() -> list[dict]:
    return json.loads((GOLDEN_DIR / "cases.json").read_text(encoding="utf-8"))


def run_case(case: dict) -> tuple[int, str, str]:
    """Exit code, standard output and standard error of one case."""
    stdin = ""
    if "stdin" in case:
        stdin = (GOLDEN_DIR / case["stdin"]).read_text(encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    saved_stdin, saved_cwd = sys.stdin, os.getcwd()
    saved_columns = os.environ.get("COLUMNS")
    sys.stdin = io.StringIO(stdin)
    os.chdir(GOLDEN_DIR)
    # argparse wraps help and usage text to COLUMNS, else to the terminal
    os.environ["COLUMNS"] = "80"
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(case["argv"])
            except SystemExit as exc:
                code = exc.code
    finally:
        sys.stdin = saved_stdin
        os.chdir(saved_cwd)
        if saved_columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved_columns
    return code, out.getvalue(), err.getvalue()


def _read(path: Path) -> bytes | None:
    return path.read_bytes() if path.is_file() else None


def changed_cases() -> list[str]:
    """Names of the cases whose run differs from the committed files, each
    with the parts that differ."""
    codes = json.loads(_read(GOLDEN_DIR / "exit_codes.json") or b"{}")
    changed = []
    for case in load_cases():
        name = case["name"]
        try:
            code, stdout, stderr = run_case(case)
        except FileNotFoundError as exc:
            changed.append(f"{name}: cannot run ({exc.strerror}: {exc.filename})")
            continue
        parts = [
            part
            for part, differs in (
                ("stdout", _read(GOLDEN_DIR / f"{name}.out") != stdout.encode()),
                ("stderr", _read(GOLDEN_DIR / f"{name}.err") != stderr.encode()),
                ("exit code", codes.get(name) != code),
            )
            if differs
        ]
        if parts:
            changed.append(f"{name}: {', '.join(parts)}")
    return changed


def regenerate() -> None:
    codes = {}
    for case in load_cases():
        code, stdout, stderr = run_case(case)
        codes[case["name"]] = code
        (GOLDEN_DIR / f"{case['name']}.out").write_bytes(stdout.encode("utf-8"))
        (GOLDEN_DIR / f"{case['name']}.err").write_bytes(stderr.encode("utf-8"))
    (GOLDEN_DIR / "exit_codes.json").write_text(
        json.dumps(codes, indent=2) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--check"]:
        changed = changed_cases()
        print("\n".join(changed) if changed else "no case would change")
        sys.exit(1 if changed else 0)
    if sys.argv[1:]:
        sys.exit("usage: regen.py [--check]")
    regenerate()
