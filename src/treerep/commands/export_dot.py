"""``treerep export-dot``: render a view as Graphviz text."""

from __future__ import annotations

from ..workbench import DOT_VIEWS, to_dot
from . import OK, _add_io, _read_instance, _write


def arguments(p) -> None:
    p.add_argument("--view", choices=DOT_VIEWS, required=True)
    p.add_argument("--member", help="member to shade in rep-highlight view")
    _add_io(p)


def run(args) -> int:
    instance = _read_instance(args)
    _write(args, to_dot(instance, args.view, args.member))
    return OK
