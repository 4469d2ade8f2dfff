"""The package's public names, the modules a CLI process imports, the
state written into its records, and the sweeps that load it."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import load_bench

import treerep

SRC = str(Path(treerep.__file__).resolve().parents[1])

#: The public names as they stood when every submodule was imported eagerly,
#: plus ``e1_certificate``, added since, less ``connected_subsets`` and
#: ``enumerate_host_trees``, which went with the host search, and plus the
#: submodules ``interchange``, ``shapes`` and ``simple``, split out of
#: ``workbench``, ``trees`` and ``graphs`` so that a CLI verb compiles less.
PUBLIC_NAMES = [
    "BushinessReport", "DeskScaleError", "InputError", "Instance", "MODES",
    "MixedPartition", "NormalizationResult", "Orientation", "PROPERTIES",
    "PairRelation", "PropertyWitness", "RecognitionResult", "SchemaError",
    "SearchBudget", "SearchResult", "SimpleGraph", "SubdivisionStep",
    "SubtreeFamily", "Tree", "TreeRepError", "Violation", "add_leaf",
    "bushiness", "canonical_code", "classify_pair", "classify_sets",
    "classify_tree", "complement", "derive",
    "derive_graph", "e1_certificate", "edge_key", "enumerate_chordless_cycles",
    "errors", "fixtures", "gen_cover", "gen_family",
    "gen_tree", "graphs", "induced_subtree", "induces_subtree", "interchange",
    "is_covering_subtree", "is_subdivision_of", "is_transitive",
    "minimal_covering_subtree", "mixed", "mixed_to_bushy",
    "normal_form_violations", "normalize", "oracle", "overlap_to_mixed",
    "parse", "recognize", "replay", "search_mixed_partition",
    "search_overlap_rep", "serialize", "shapes", "shrink_containments",
    "similarly_related", "simple", "smooth", "star_rep_from_orientation",
    "subdivide_edge", "subtree_leaves", "to_dot", "transforms",
    "tree_isomorphic", "tree_path", "trees", "validate_family",
    "verify_mixed_partition", "workbench",
]

SUBMODULES = ["derive", "errors", "graphs", "interchange", "mixed", "oracle",
              "shapes", "simple", "transforms", "trees", "workbench"]


def loaded_after(statement: str) -> list[str]:
    """The treerep modules a fresh interpreter holds after ``statement``."""
    code = (f"{statement}\nimport json, sys\n"
            "loaded = [m for m in sys.modules if m.startswith('treerep')]\n"
            "print(json.dumps(sorted(loaded)))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True, timeout=60)
    return json.loads(proc.stdout)


def test_public_names_are_unchanged():
    assert treerep.__all__ == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 74
    assert set(PUBLIC_NAMES) <= set(dir(treerep))


def test_each_name_is_its_submodule_attribute():
    for module in SUBMODULES:
        assert getattr(treerep, module) is importlib.import_module(f"treerep.{module}")
    homes = {name: module for module in SUBMODULES
             for name in treerep._EXPORTS[module]}
    assert sorted([*homes, *SUBMODULES]) == PUBLIC_NAMES
    for name, module in homes.items():
        owner = importlib.import_module(f"treerep.{module}")
        assert getattr(treerep, name) is getattr(owner, name), name


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from treerep import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(treerep, name), name


def test_a_name_rebound_in_its_submodule_is_seen_through_the_package(monkeypatch):
    marker = object()
    monkeypatch.setattr(treerep.transforms, "normalize", marker)
    assert treerep.normalize is marker


def test_unknown_names_raise_attribute_error():
    try:
        treerep.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("treerep.no_such_name resolved")


def test_import_loads_submodules_on_demand():
    assert loaded_after("import treerep") == ["treerep"]
    loaded = loaded_after("import treerep\ntreerep.Tree")
    assert "treerep.trees" in loaded
    for module in ("treerep.mixed", "treerep.oracle", "treerep.transforms",
                   "treerep.workbench"):
        assert module not in loaded


def test_the_cli_leaves_unused_modules_unloaded():
    loaded = loaded_after("import treerep.cli")
    assert "treerep.cli" in loaded and "treerep.interchange" in loaded
    for module in ("treerep.graphs", "treerep.mixed", "treerep.oracle",
                   "treerep.shapes", "treerep.transforms", "treerep.workbench"):
        assert module not in loaded


#: What ``import treerep.cli`` loads, and so what every verb loads.
CLI_CORE = ["treerep", "treerep.cli", "treerep.commands", "treerep.errors",
            "treerep.interchange", "treerep.simple", "treerep.trees"]


def test_each_pipeline_verb_loads_only_the_modules_it_runs(tmp_path):
    # the paper's construction as a user runs it, one verb per step; the
    # verbs that load the same modules share one fresh process
    from treerep.cli import main

    def at(name):
        return str(tmp_path / f"{name}.json")

    assert main(["gen", "--n", "12", "--k", "5", "--seed", "4", "--mode",
                 "covered-by", "-o", at("source")]) == 0
    steps = {
        "cover": ["cover", "find", "-i", at("source"), "-o", at("cover")],
        "derive": ["derive", "--mode", "overlap", "-i", at("cover"),
                   "-o", at("derived")],
        "to-mixed": ["to-mixed", "-i", at("derived"), "-o", at("mixed")],
        "verify mixed": ["verify", "--what", "mixed", "-i", at("mixed")],
        "from-mixed": ["from-mixed", "-i", at("mixed"), "-o", at("bushy")],
        "verify bushy": ["verify", "--what", "bushy", "-i", at("bushy")],
        "recognize": ["recognize", "--property", "chordal", "-i", at("derived")],
    }
    codes = {verb: main(argv) for verb, argv in steps.items()}  # the inputs
    assert [code for verb, code in codes.items() if verb != "recognize"] == [0] * 6
    groups = [
        (["cover", "derive", "verify bushy"],
         ["commands.cover", "commands.derive", "commands.verify", "derive"]),
        (["to-mixed", "verify mixed", "from-mixed"],
         ["commands.from_mixed", "commands.to_mixed", "commands.verify", "derive",
          "graphs", "mixed"]),
        (["recognize"], ["commands.recognize", "graphs"]),
    ]
    for verbs, extra in groups:
        expected = sorted([*CLI_CORE, *(f"treerep.{m}" for m in extra)])
        argvs = [steps[verb] for verb in verbs]
        program = ("import contextlib, io, json, sys\nimport treerep.cli\n"
                   "with contextlib.redirect_stdout(io.StringIO()):\n"
                   f"    codes = [treerep.cli.main(argv) for argv in {argvs!r}]\n"
                   "loaded = [m for m in sys.modules if m.startswith('treerep')]\n"
                   "print(json.dumps([codes, sorted(loaded)]))")
        proc = subprocess.run([sys.executable, "-c", program],
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        got_codes, loaded = json.loads(proc.stdout)
        assert got_codes == [codes[verb] for verb in verbs], verbs
        assert loaded == expected, verbs


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    code = ("import json, sys\nimport treerep.cli\n"
            "print(json.dumps([m for m in ('dataclasses', 'inspect') "
            "if m in sys.modules]))")
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=True, timeout=60)
    assert json.loads(proc.stdout) == []


def test_every_bench_span_target_is_defined_where_the_tracer_reads_it():
    # bench/spans.py wraps each target by reading it from its module's or
    # class's own __dict__, so a target that is renamed, moved or inherited
    # fails traced benchmark runs with a KeyError.
    spans = load_bench("spans")
    for module, attr, _ in spans.TARGETS:
        owner = importlib.import_module(f"treerep.{module}")
        *parts, leaf = attr.split(".")
        for part in parts:
            owner = getattr(owner, part)
        assert leaf in vars(owner), f"{module}.{attr}"


def test_bench_tracer_installs_and_restores_every_binding():
    # the traced benchmark rebinds each target in every treerep module that
    # holds it; uninstalling must leave each module as it was
    spans = load_bench("spans")
    tracer = spans.Tracer()
    for module, _, _ in spans.TARGETS:
        importlib.import_module(f"treerep.{module}")
    modules = [m for n, m in sorted(sys.modules.items()) if n.startswith("treerep")]
    before = [dict(vars(m)) for m in modules]
    tracer.install()
    try:
        assert treerep.workbench.parse("{}") == treerep.Instance()
        assert tracer.calls["workbench.parse"] == 1
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


#: The trusted state each module writes into records beside their fields,
#: by the key of each ``__dict__["..."]`` assignment: caches and marks that
#: later reads take on trust.
TRUSTED_KEYS = {
    "graphs": ["_label_masks"],
    "simple": ["_adjacency"],
    "trees": ["_member_masks", "_parent", "_valid"],
}


def test_every_key_written_into_a_record_is_listed():
    # a new cache or mark fails here until it is added to TRUSTED_KEYS
    package = Path(treerep.__file__).parent
    written = {}
    for path in sorted(package.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        if "__dict__" not in source:  # parsing every module costs 0.1 s
            continue
        module = ".".join(path.relative_to(package).with_suffix("").parts)
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "__dict__"):
                written.setdefault(module, set()).add(node.slice.value)
    assert {module: sorted(keys) for module, keys in written.items()} == TRUSTED_KEYS


def test_each_sweep_loads_and_imports_no_test_module(monkeypatch):
    # the sweeps run outside the suite, so one that imports a test module
    # would break unseen when that module changes; loading one runs its
    # imports but not its main
    pytest.importorskip("networkx")  # mixed_sweep.py imports it
    monkeypatch.setattr(sys, "path", list(sys.path))
    sweeps = sorted((Path(__file__).parent / "sweeps").glob("*.py"))
    assert len(sweeps) == 5
    test_modules = {}
    for path in sweeps:
        spec = importlib.util.spec_from_file_location(f"sweep_{path.stem}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert callable(module.main), path.name
        nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
        names = [a.name for n in nodes if isinstance(n, ast.Import) for a in n.names]
        names += [n.module or "" for n in nodes if isinstance(n, ast.ImportFrom)]
        test_modules[path.name] = [part for name in names for part in name.split(".")
                                   if part.startswith("test_")]
    assert {name: found for name, found in test_modules.items() if found} == {}
