"""``treerep verify``: run a validator; exit 1 on violations.  The
normal-form and mixed checks load ``transforms`` and ``mixed`` only when
asked for."""

from __future__ import annotations

from ..trees import bushiness, is_covering_subtree, validate_family
from . import NEGATIVE, OK, _add_input, _read_instance, _require, _write


def arguments(p) -> None:
    p.add_argument(
        "--what",
        choices=("family", "property1", "normal-form", "mixed", "cover", "bushy"),
        required=True,
    )
    _add_input(p)


def run(args) -> int:
    instance = _read_instance(args)
    if args.what == "family":
        violations = validate_family(_require(instance, "family"))
    elif args.what in ("property1", "normal-form"):
        from ..transforms import normal_form_violations

        violations = normal_form_violations(_require(instance, "family"))
    elif args.what == "mixed":
        from ..mixed import verify_mixed_partition

        violations = verify_mixed_partition(
            _require(instance, "mixed"), instance.family
        )
    elif args.what == "cover":
        ok = is_covering_subtree(
            _require(instance, "family"), _require(instance, "cover")
        )
        violations = [] if ok else ["cover: does not intersect every member"]
    else:  # bushy
        report = bushiness(
            _require(instance, "tree"), _require(instance, "cover")
        )
        violations = [
            f"not-bushy: {v} has non-leaf outside neighbours {list(bs)}"
            for v, bs in report.blockers
            if bs
        ]
    if violations:
        _write(args, "".join(f"{violation}\n" for violation in violations))
    return OK if not violations else NEGATIVE
