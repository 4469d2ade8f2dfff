"""``treerep from-mixed``: mixed partition -> bushy covered family."""

from __future__ import annotations

from ..interchange import Instance
from ..mixed import e1_certificate, mixed_to_bushy
from . import OK, _add_io, _emit, _read_instance, _require

arguments = _add_io


def run(args) -> int:
    instance = _read_instance(args)
    partition = _require(instance, "mixed")
    certificate = instance.family or e1_certificate(partition)
    family = mixed_to_bushy(partition, certificate)
    _emit(
        args,
        Instance(
            family=family,
            cover=frozenset(certificate.host.vertices),
            meta=instance.meta,
        ),
    )
    return OK
