"""Command-line interface.

Exit codes: 0 success / affirmative, 1 negative decision, 2 input error,
3 inconclusive (the time budget ran out).  ``search rep`` decides by the
paper's equivalence, so its 'none' is a proof under every cover shape.

Each process imports only what its verb runs: ``mixed``, ``oracle`` and
``transforms`` load inside the verbs that use them.  It also parses only
for its verb: ``build_parser`` adds the subparser of the verb that starts
the arguments, and adds all twelve only for top-level help or a missing or
unknown verb.  Help, usage and error text stay those of the full parser.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import workbench
from .derive import MODES, derive_graph
from .errors import InputError, TreeRepError
from .graphs import PROPERTIES, recognize
from .trees import (
    Tree,
    bushiness,
    classify_tree,
    is_covering_subtree,
    minimal_covering_subtree,
    validate_family,
)
from .workbench import Instance, fixtures, gen_cover, gen_family, gen_tree

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
    return workbench.parse(_read_text(args.input))


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
    _write(args, workbench.serialize(instance))


def _require(instance: Instance, piece: str):
    value = getattr(instance, piece)
    if value is None:
        raise InputError(f"instance has no {piece}")
    return value


def cmd_gen(args) -> int:
    if args.fixture:
        table = fixtures()
        if args.fixture not in table:
            raise InputError(
                f"unknown fixture {args.fixture!r}; available: {sorted(table)}"
            )
        _emit(args, table[args.fixture])
        return OK
    chunks = []
    for offset in range(args.count):
        seed = args.seed + offset
        tree = gen_tree(args.n, seed)
        meta = {"seed": seed, "n": args.n}
        cover = None
        family = None
        if args.cover != "none":
            cover = gen_cover(tree, seed, args.cover)
            meta["cover_shape"] = args.cover
        if args.k:
            mode = args.mode
            if mode == "covered-by" and cover is None:
                cover = gen_cover(tree, seed, "subtree")
                meta["cover_shape"] = "subtree"
            family = gen_family(tree, args.k, seed, mode, cover)
            meta.update({"k": args.k, "mode": mode})
        chunks.append(
            workbench.serialize(
                Instance(tree=tree, family=family, cover=cover, meta=meta)
            )
        )
    _write(args, "".join(chunks))
    return OK


def cmd_derive(args) -> int:
    instance = _read_instance(args)
    family = _require(instance, "family")
    graph = derive_graph(family, args.mode)
    _emit(
        args,
        Instance(family=family, graph=graph, cover=instance.cover,
                 meta=instance.meta),
    )
    return OK


def cmd_cover(args) -> int:
    instance = _read_instance(args)
    family = _require(instance, "family")
    if args.action == "find":
        cover = minimal_covering_subtree(family)
        _emit(args, Instance(family=family, cover=cover, meta=instance.meta))
        return OK
    cover = _require(instance, "cover")
    return OK if is_covering_subtree(family, cover) else NEGATIVE


def cmd_normalize(args) -> int:
    from .transforms import normalize

    instance = _read_instance(args)
    family = _require(instance, "family")
    result = normalize(family)
    meta = dict(instance.meta)
    meta["transcript"] = list(result.transcript)
    _emit(args, Instance(family=result.family, meta=meta))
    return OK


def cmd_to_mixed(args) -> int:
    from .mixed import overlap_to_mixed

    instance = _read_instance(args)
    family = _require(instance, "family")
    if args.cover:
        cover = frozenset(args.cover.split(","))
    else:
        cover = _require(instance, "cover")
    partition, certificate = overlap_to_mixed(family, cover)
    _emit(
        args,
        Instance(family=certificate, mixed=partition, meta=instance.meta),
    )
    return OK


def cmd_from_mixed(args) -> int:
    from .mixed import e1_certificate, mixed_to_bushy

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


def cmd_verify(args) -> int:
    instance = _read_instance(args)
    if args.what == "family":
        violations = validate_family(_require(instance, "family"))
    elif args.what in ("property1", "normal-form"):
        from .transforms import normal_form_violations

        violations = normal_form_violations(_require(instance, "family"))
    elif args.what == "mixed":
        from .mixed import verify_mixed_partition

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


def cmd_classify_tree(args) -> int:
    instance = _read_instance(args)
    tree = _require(instance, "tree")
    _write(args, " ".join(sorted(classify_tree(tree))) + "\n")
    return OK


def cmd_recognize(args) -> int:
    instance = _read_instance(args)
    graph = _require(instance, "graph")
    result = recognize(graph, args.property)
    if not result.holds:
        _write(args, f"{args.property}: no\n")
        return NEGATIVE
    witness = result.witness
    if witness.kind == "perfect-elimination-order":
        detail = " ".join(witness.payload)
    elif witness.kind == "transitive-orientation":
        detail = " ".join(f"{u}->{v}" for u, v in sorted(witness.payload.arcs))
    else:  # clique-order
        detail = " | ".join(",".join(c) for c in witness.payload)
    _write(args, f"{args.property}: yes ({witness.kind}: {detail})\n")
    return OK


def _budget(args):
    from .oracle import SearchBudget

    if args.budget is None:
        return SearchBudget()
    return SearchBudget(time_limit_seconds=float(args.budget))


def _cover_shape_tree(source: str) -> Tree:
    builtin = {
        "k1": Tree(("s1",), frozenset()),
        "k2": Tree(("s1", "s2"), frozenset({("s1", "s2")})),
    }
    if source.lower() in builtin:
        return builtin[source.lower()]
    instance = workbench.parse(_read_text(source))
    if instance.tree is None:
        raise InputError(f"{source} holds no tree to use as a cover shape")
    return instance.tree


def cmd_search(args) -> int:
    from .oracle import search_mixed_partition, search_overlap_rep

    if args.target == "mixed" and args.cover_shape is not None:
        raise InputError("--cover-shape is for search rep only")
    instance = _read_instance(args)
    graph = _require(instance, "graph")
    budget = _budget(args)
    if args.target == "mixed":
        result = search_mixed_partition(graph, budget)
        if result.found:
            _emit(args, Instance(mixed=result.value, meta=instance.meta))
    else:
        shape = _cover_shape_tree(args.cover_shape) if args.cover_shape else None
        result = search_overlap_rep(graph, budget, shape)
        if result.found:
            _emit(args, Instance(family=result.value, meta=instance.meta))
    if result.found:
        return OK
    if result.status == "none":
        print("none: search space exhausted", file=sys.stderr)
        return NEGATIVE
    print(f"inconclusive: {result.detail}", file=sys.stderr)
    return INCONCLUSIVE


def cmd_roundtrip(args) -> int:
    from .mixed import mixed_to_bushy, overlap_to_mixed

    failures = 0
    for offset in range(args.count):
        seed = args.seed + offset
        tree = gen_tree(args.n, seed)
        cover = gen_cover(tree, seed, args.cover)
        family = gen_family(tree, args.k, seed, "covered-by", cover)
        original = derive_graph(family, "overlap")
        partition, certificate = overlap_to_mixed(family, cover)
        rebuilt = mixed_to_bushy(partition, certificate)
        final = derive_graph(rebuilt, "overlap")
        ok = final.edges == original.edges and set(final.vertices) == set(
            original.vertices
        )
        _write(args, f"seed={seed} overlap-graph-equal={'yes' if ok else 'NO'}\n")
        if not ok:
            failures += 1
    return OK if failures == 0 else NEGATIVE


def cmd_export_dot(args) -> int:
    instance = _read_instance(args)
    _write(args, workbench.to_dot(instance, args.view, args.member))
    return OK


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


def _gen_args(p) -> None:
    p.add_argument("--n", type=int, default=8, help="host tree size")
    p.add_argument("--k", type=int, default=0, help="number of members")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mode", choices=workbench.GEN_MODES, default="free")
    p.add_argument(
        "--cover",
        choices=("none", "vertex", "path", "subtree"),
        default="none",
        help="also generate a cover of this shape",
    )
    p.add_argument("--count", type=positive_int, default=1,
                   help="emit this many instances (seeds seed..seed+count-1)")
    p.add_argument("--fixture", help="emit a built-in fixture instead")
    p.add_argument("-o", "--output", default="-")


def _derive_args(p) -> None:
    p.add_argument("--mode", choices=MODES, required=True)
    _add_io(p)


def _cover_args(p) -> None:
    p.add_argument("action", choices=("find", "check"))
    _add_io(p)


def _to_mixed_args(p) -> None:
    p.add_argument("--cover", help="comma-separated cover vertices")
    _add_io(p)


def _verify_args(p) -> None:
    p.add_argument(
        "--what",
        choices=("family", "property1", "normal-form", "mixed", "cover", "bushy"),
        required=True,
    )
    _add_input(p)


def _recognize_args(p) -> None:
    p.add_argument("--property", choices=PROPERTIES, required=True)
    _add_input(p)


def _search_args(p) -> None:
    p.add_argument("target", choices=("mixed", "rep"))
    p.add_argument("--budget", type=int, default=None,
                   help="time budget in whole seconds (default from "
                   "TREEREP_BUDGET_SECONDS)")
    p.add_argument("--cover-shape",
                   help="k1, k2, or a JSON instance file with a tree: the shape "
                   "of the subtree that meets every member; rep search only")
    _add_io(p)


def _roundtrip_args(p) -> None:
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=positive_int, default=1)
    p.add_argument("--cover", choices=("vertex", "path", "subtree"),
                   default="subtree")


def _export_dot_args(p) -> None:
    p.add_argument("--view", choices=workbench.DOT_VIEWS, required=True)
    p.add_argument("--member", help="member to shade in rep-highlight view")
    _add_io(p)


#: Verb -> (help line, function adding its arguments, command), in the
#: order ``treerep --help`` lists them.
VERBS = {
    "gen": ("generate a tree and optionally a family", _gen_args, cmd_gen),
    "derive": ("derive a graph from the family", _derive_args, cmd_derive),
    "cover": ("find or check a covering subtree", _cover_args, cmd_cover),
    "normalize": ("rebuild the family in normal form", _add_io, cmd_normalize),
    "to-mixed": ("covered family -> mixed partition", _to_mixed_args,
                 cmd_to_mixed),
    "from-mixed": ("mixed partition -> bushy covered family", _add_io,
                   cmd_from_mixed),
    "verify": ("run a validator; exit 1 on violations", _verify_args,
               cmd_verify),
    "classify-tree": ("print shape tags of the tree", _add_input,
                      cmd_classify_tree),
    "recognize": ("decide a graph property with witness", _recognize_args,
                  cmd_recognize),
    "search": ("exhaustive searches at tiny scale", _search_args, cmd_search),
    "roundtrip": ("gen covered family -> to-mixed -> from-mixed -> derive; "
                  "report overlap-graph equality", _roundtrip_args,
                  cmd_roundtrip),
    "export-dot": ("render a view as Graphviz text", _export_dot_args,
                   cmd_export_dot),
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
        help_line, add_args, command = VERBS[verb]
        p = sub.add_parser(verb, help=help_line)
        add_args(p)
        p.set_defaults(func=command)
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
