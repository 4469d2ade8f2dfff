"""``treerep normalize``: rebuild the family in normal form."""

from __future__ import annotations

from ..interchange import Instance
from ..transforms import normalize
from . import OK, _add_io, _emit, _read_instance, _require

arguments = _add_io


def run(args) -> int:
    instance = _read_instance(args)
    family = _require(instance, "family")
    result = normalize(family)
    meta = dict(instance.meta)
    meta["transcript"] = list(result.transcript)
    _emit(args, Instance(family=result.family, meta=meta))
    return OK
