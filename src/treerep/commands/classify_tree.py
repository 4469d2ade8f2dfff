"""``treerep classify-tree``: print shape tags of the tree."""

from __future__ import annotations

from ..shapes import classify_tree
from . import OK, _add_input, _read_instance, _require, _write

arguments = _add_input


def run(args) -> int:
    instance = _read_instance(args)
    tree = _require(instance, "tree")
    _write(args, " ".join(sorted(classify_tree(tree))) + "\n")
    return OK
