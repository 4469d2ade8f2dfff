"""Command-line interface.

Exit codes: 0 success / affirmative, 1 negative decision, 2 input error,
3 inconclusive (the time budget ran out).  ``search rep`` decides by the
paper's equivalence, so its 'none' is a proof under every cover shape.

Each verb is a module of :mod:`treerep.commands`, and a process imports
only the module of the verb it runs, with what that verb uses.  Every verb
loads ``interchange``, ``simple``, ``trees`` and ``errors``.  ``derive``
loads for ``derive`` and with ``mixed``, which loads for ``to-mixed``,
``from-mixed``, ``verify --what mixed``, ``search`` and ``roundtrip``;
``graphs`` for ``recognize`` and with ``mixed``; ``transforms`` for
``normalize`` and the normal-form checks of ``verify``; ``oracle`` for
``search``; ``shapes`` for ``classify-tree``; ``workbench`` (generators,
fixtures, DOT) for ``gen``, ``roundtrip`` and ``export-dot``.  So
``cover``, ``derive`` and ``verify --what bushy`` never load ``graphs``.
Each process also parses only for its verb: ``build_parser`` adds the
subparser of the verb that starts the arguments, and adds all twelve only
for top-level help or a missing or unknown verb.  Help, usage and error
text stay those of the full parser.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from .commands import BAD_INPUT
from .errors import TreeRepError

#: Verb -> help line, in the order ``treerep --help`` lists them.  A verb's
#: module is ``treerep.commands.<verb>``, with ``_`` for ``-``.
VERBS = {
    "gen": "generate a tree and optionally a family",
    "derive": "derive a graph from the family",
    "cover": "find or check a covering subtree",
    "normalize": "rebuild the family in normal form",
    "to-mixed": "covered family -> mixed partition",
    "from-mixed": "mixed partition -> bushy covered family",
    "verify": "run a validator; exit 1 on violations",
    "classify-tree": "print shape tags of the tree",
    "recognize": "decide a graph property with witness",
    "search": "exhaustive searches at tiny scale",
    "roundtrip": "gen covered family -> to-mixed -> from-mixed -> derive; "
                 "report overlap-graph equality",
    "export-dot": "render a view as Graphviz text",
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The CLI's parser.  When ``argv`` starts with a verb, only that verb's
    subparser is built, and a fixed metavar keeps all twelve verbs in the
    top-level usage; otherwise all twelve subparsers are built, for help
    and for the error that names the verbs."""
    parser = argparse.ArgumentParser(
        prog="treerep",
        description="Subtree overlap representations: transforms, mixed "
        "partitions, covers, and brute-force searches.",
    )
    verbs, metavar = list(VERBS), None
    if argv and argv[0] in VERBS:
        verbs, metavar = [argv[0]], "{" + ",".join(VERBS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for verb in verbs:
        command = import_module(f"{__package__}.commands.{verb.replace('-', '_')}")
        p = sub.add_parser(verb, help=VERBS[verb])
        command.arguments(p)
        p.set_defaults(func=command.run)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:
            sys.stdout.flush()
        return code
    except TreeRepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    except OSError as exc:
        # reads and -o writes raise InputError, so a write to stdout failed;
        # the interpreter flushes stdout again at exit, into the null device
        try:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        except (OSError, ValueError):  # a stdout with no descriptor
            pass
        print(f"error: cannot write standard output: {exc}", file=sys.stderr)
        return BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
