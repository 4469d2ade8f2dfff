"""The CLI's verbs, one module each, and what they share.

A verb's module ``treerep.commands.<verb>`` (with ``_`` for ``-``) has
``arguments(parser)``, which adds the verb's arguments, and ``run(args)``,
which runs it and returns the exit code.  A process imports only the
module of the verb it runs, and that module imports only what the verb
uses.  This package holds the exit codes and the reading and writing of
instances.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import InputError
from ..interchange import Instance, parse, serialize

OK, NEGATIVE, BAD_INPUT, INCONCLUSIVE = 0, 1, 2, 3


def _read_text(source: str) -> str:
    """The UTF-8 text of a file, or of standard input for ``-``.  A source
    that cannot be opened, read or decoded is an input error."""
    try:
        if source == "-":
            if sys.stdin is None:  # the process was started with it closed
                raise InputError("cannot read standard input: it is closed")
            if hasattr(sys.stdin, "reconfigure"):  # over bytes, not in-memory text
                sys.stdin.reconfigure(encoding="utf-8", errors="strict")
            return sys.stdin.read()
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        name = "standard input" if source == "-" else source
        raise InputError(f"cannot read {name}: {exc}") from exc


def _read_instance(args) -> Instance:
    return parse(_read_text(args.input))


def _write(args, text: str) -> None:
    """Write to standard output, or to the ``-o`` file; a file that cannot
    be opened or written is an input error."""
    if getattr(args, "output", "-") == "-":
        if sys.stdout is None:  # the process was started with it closed
            raise InputError("cannot write standard output: it is closed")
        sys.stdout.write(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {args.output}: {exc}") from exc


def _emit(args, instance: Instance) -> None:
    _write(args, serialize(instance))


def _require(instance: Instance, piece: str):
    value = getattr(instance, piece)
    if value is None:
        raise InputError(f"instance has no {piece}")
    return value


def _add_input(parser) -> None:
    parser.add_argument(
        "-i", "--input", default="-", help="instance JSON file, or - for stdin"
    )


def _add_io(parser) -> None:
    _add_input(parser)
    parser.add_argument(
        "-o", "--output", default="-", help="output file, or - for stdout"
    )


def positive_int(text: str) -> int:
    """argparse type for counts: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value
