import argparse
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from helpers import matching_graph

import treerep.graphs
import treerep.oracle
from treerep import (Instance, Orientation, SearchBudget, SubtreeFamily, is_transitive,
                     mixed_to_bushy, parse, serialize)
from treerep.cli import VERBS, build_parser, main


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_instance(capsys, tmp_path, name, *argv):
    path = tmp_path / name
    code, out, err = run(capsys, *argv, "-o", str(path))
    assert code == 0, err
    return path


def c4_file(tmp_path) -> Path:
    path = tmp_path / "c4.json"
    path.write_text(json.dumps({
        "graph": {
            "vertices": ["1", "2", "3", "4"],
            "edges": [["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"]],
        }
    }))
    return path


def test_gen_writes_parseable_instances(capsys, tmp_path):
    path = gen_instance(
        capsys, tmp_path, "inst.json",
        "gen", "--n", "7", "--k", "4", "--seed", "3",
    )
    inst = parse(path.read_text())
    assert inst.tree is not None and len(inst.family.members) == 4
    assert inst.meta["seed"] == 3


def test_gen_count_emits_multiple_objects(capsys, tmp_path):
    path = gen_instance(
        capsys, tmp_path, "multi.json",
        "gen", "--n", "4", "--count", "3", "--seed", "5",
    )
    blobs = path.read_text().split("}\n{")
    assert len(blobs) == 3


def test_gen_fixture_and_unknown_fixture(capsys, tmp_path):
    path = gen_instance(
        capsys, tmp_path, "fx.json", "gen", "--fixture", "cycle4-star"
    )
    inst = parse(path.read_text())
    assert inst.cover == {"c"}
    code, _, err = run(capsys, "gen", "--fixture", "nope")
    assert code == 2 and "unknown fixture" in err


def test_derive_and_recognize_pipeline(capsys, tmp_path):
    inst = gen_instance(
        capsys, tmp_path, "inst.json", "gen", "--fixture", "cycle4-star"
    )
    derived = tmp_path / "derived.json"
    code, _, _ = run(
        capsys, "derive", "--mode", "overlap", "-i", str(inst), "-o", str(derived)
    )
    assert code == 0
    graph = parse(derived.read_text()).graph
    assert len(graph.edges) == 4

    code, out, _ = run(capsys, "recognize", "--property", "chordal",
                       "-i", str(derived))
    assert code == 1 and "chordal: no" in out
    code, out, _ = run(capsys, "recognize", "--property", "cocomparability",
                       "-i", str(derived))
    assert code == 0 and "transitive-orientation" in out


def test_cover_find_and_check(capsys, tmp_path):
    inst = gen_instance(
        capsys, tmp_path, "inst.json", "gen", "--fixture", "cycle4-path"
    )
    found = tmp_path / "cover.json"
    code, _, _ = run(capsys, "cover", "find", "-i", str(inst), "-o", str(found))
    assert code == 0
    assert parse(found.read_text()).cover == {"p4", "p5"}
    code, _, _ = run(capsys, "cover", "check", "-i", str(found))
    assert code == 0

    bad = json.loads(found.read_text())
    bad["cover"] = ["p1"]
    badfile = tmp_path / "bad.json"
    badfile.write_text(json.dumps(bad))
    code, _, _ = run(capsys, "cover", "check", "-i", str(badfile))
    assert code == 1


def test_normalize_then_verify(capsys, tmp_path):
    inst = gen_instance(
        capsys, tmp_path, "inst.json",
        "gen", "--n", "6", "--k", "3", "--seed", "9",
    )
    code, _, _ = run(capsys, "verify", "--what", "family", "-i", str(inst))
    assert code == 0

    normalized = tmp_path / "norm.json"
    code, _, _ = run(capsys, "normalize", "-i", str(inst), "-o", str(normalized))
    assert code == 0
    for what in ("family", "property1", "normal-form"):
        code, out, _ = run(capsys, "verify", "--what", what, "-i", str(normalized))
        assert code == 0, out
    transcript = parse(normalized.read_text()).meta["transcript"]
    assert any(entry["action"] == "subdivide" for entry in transcript)


def test_verify_reports_violations_with_exit_one(capsys, tmp_path):
    blob = {
        "tree": {"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]]},
        "subtrees": {"m": ["a", "c"]},
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(blob))
    code, out, _ = run(capsys, "verify", "--what", "family", "-i", str(path))
    assert code == 1 and "disconnected" in out


def test_to_mixed_from_mixed_round_trip(capsys, tmp_path):
    inst = gen_instance(
        capsys, tmp_path, "inst.json", "gen", "--fixture", "cycle4-star"
    )
    mixed = tmp_path / "mixed.json"
    code, _, _ = run(capsys, "to-mixed", "-i", str(inst), "-o", str(mixed))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--what", "mixed", "-i", str(mixed))
    assert code == 0

    rebuilt = tmp_path / "rebuilt.json"
    code, _, _ = run(capsys, "from-mixed", "-i", str(mixed), "-o", str(rebuilt))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--what", "bushy", "-i", str(rebuilt))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--what", "cover", "-i", str(rebuilt))
    assert code == 0

    derived = tmp_path / "final.json"
    code, _, _ = run(
        capsys, "derive", "--mode", "overlap", "-i", str(rebuilt), "-o", str(derived)
    )
    assert code == 0
    final = parse(derived.read_text()).graph
    assert len(final.edges) == 4


def test_from_mixed_without_subtrees_eliminates_e1_once(capsys, tmp_path, monkeypatch):
    inst = gen_instance(
        capsys, tmp_path, "inst.json", "gen", "--n", "40", "--k", "12",
        "--seed", "3", "--mode", "covered-by", "--cover", "subtree",
    )
    mixed = tmp_path / "mixed.json"
    assert run(capsys, "to-mixed", "-i", str(inst), "-o", str(mixed))[0] == 0
    blob = json.loads(mixed.read_text())
    del blob["tree"], blob["subtrees"]
    assert len(blob["mixed"]["e1"]) == 17
    mixed.write_text(json.dumps(blob))

    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    originals = {"_eliminate": treerep.graphs._eliminate,
                 "complement": treerep.graphs.complement}
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != "treerep":
            continue
        for attr, fn in originals.items():
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, counted(attr.lstrip("_"), fn))
    code, out, err = run(capsys, "from-mixed", "-i", str(mixed))
    assert code == 0, err
    assert calls == {"eliminate": 1}
    assert parse(out).family is not None


def test_classify_tree_output(capsys, tmp_path):
    inst = gen_instance(
        capsys, tmp_path, "inst.json", "gen", "--fixture", "cycle4-path"
    )
    code, out, _ = run(capsys, "classify-tree", "-i", str(inst))
    assert code == 0 and out.split() == ["caterpillar", "path"]


def test_search_mixed_and_rep(capsys, tmp_path):
    path = c4_file(tmp_path)

    found = tmp_path / "mixedfound.json"
    code, _, _ = run(capsys, "search", "mixed", "-i", str(path), "-o", str(found))
    assert code == 0
    code, _, _ = run(capsys, "verify", "--what", "mixed", "-i", str(found))
    assert code == 0

    rep = tmp_path / "rep.json"
    code, _, _ = run(
        capsys, "search", "rep", "--cover-shape", "k2", "--budget", "10",
        "-i", str(path), "-o", str(rep),
    )
    assert code == 0
    fam = parse(rep.read_text()).family
    assert len(fam.members) == 4


def test_search_rep_none_exit_code(capsys, tmp_path):
    c5 = {
        "graph": {
            "vertices": ["1", "2", "3", "4", "5"],
            "edges": [["1", "2"], ["2", "3"], ["3", "4"], ["4", "5"], ["1", "5"]],
        }
    }
    path = tmp_path / "c5.json"
    path.write_text(json.dumps(c5))
    code, _, err = run(
        capsys, "search", "rep", "--cover-shape", "k1", "-i", str(path)
    )
    assert code == 1 and "exhausted" in err


def test_search_budget_exhaustion_exits_three(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(treerep.oracle, "DEFAULT_BUDGET_SECONDS", 1e-9)
    path = c4_file(tmp_path)
    code, _, err = run(capsys, "search", "mixed", "-i", str(path))
    assert code == 3 and "inconclusive" in err


def test_the_default_search_budget_reads_no_environment(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("TREEREP_BUDGET_SECONDS", "soon")
    assert SearchBudget() == SearchBudget(30.0)
    path = c4_file(tmp_path)
    code, _, err = run(capsys, "search", "rep", "--cover-shape", "k1", "-i", str(path))
    assert code == 0, err


def test_roundtrip_verb(capsys):
    code, out, _ = run(
        capsys, "roundtrip", "--n", "7", "--k", "4", "--seed", "2",
        "--count", "5", "--cover", "path",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all("overlap-graph-equal=yes" in line for line in lines)


def test_roundtrip_reports_a_changed_overlap_graph(capsys, monkeypatch):
    from treerep.commands import roundtrip

    calls = []

    def drop_a_member_once(partition, certificate):
        family = mixed_to_bushy(partition, certificate)
        calls.append(family)
        if len(calls) > 1:
            return family
        return SubtreeFamily(family.host, family.members[1:])

    monkeypatch.setattr(roundtrip, "mixed_to_bushy", drop_a_member_once)
    code, out, _ = run(capsys, "roundtrip", "--n", "7", "--k", "4", "--seed", "2",
                       "--count", "2")
    assert code == 1 and len(calls) == 2
    assert out == "seed=2 overlap-graph-equal=NO\nseed=3 overlap-graph-equal=yes\n"


def test_export_dot_views(capsys, tmp_path):
    inst = gen_instance(
        capsys, tmp_path, "inst.json", "gen", "--fixture", "bushy-demo"
    )
    out_path = tmp_path / "view.dot"
    code, _, _ = run(
        capsys, "export-dot", "--view", "rep-highlight", "--member", "t",
        "-i", str(inst), "-o", str(out_path),
    )
    assert code == 0
    assert out_path.read_text().startswith("graph host {")
    code, _, err = run(capsys, "export-dot", "--view", "graph", "-i", str(inst))
    assert code == 2 and "no graph" in err


def test_missing_input_file_is_an_input_error(capsys):
    code, _, err = run(capsys, "verify", "--what", "family", "-i", "/no/such.json")
    assert code == 2 and "cannot read" in err


def test_undecodable_input_is_an_input_error(capsys, tmp_path, monkeypatch):
    path = tmp_path / "bin.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run(capsys, "derive", "--mode", "overlap", "-i", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")
    monkeypatch.setattr(
        sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff\xfe{}"), encoding="utf-8")
    )
    code, _, err = run(capsys, "classify-tree")
    assert code == 2
    assert err.startswith("error: cannot read standard input: 'utf-8' codec")


def test_closed_standard_input_is_an_input_error(capsys, monkeypatch):
    # a process started with file descriptor 0 closed has sys.stdin None
    monkeypatch.setattr(sys, "stdin", None)
    code, out, err = run(capsys, "classify-tree")
    assert (code, out) == (2, "")
    assert err == "error: cannot read standard input: it is closed\n"


def test_closed_standard_output_is_an_input_error(capsys, monkeypatch, tmp_path):
    # a process started with file descriptor 1 closed has sys.stdout None
    monkeypatch.setattr(sys, "stdout", None)
    code, out, err = run(capsys, "gen", "--n", "3")
    assert (code, out) == (2, "")
    assert err == "error: cannot write standard output: it is closed\n"
    assert run(capsys, "gen", "--n", "3", "-o", str(tmp_path / "x.json")) == (0, "", "")


@pytest.mark.parametrize("verb", ["classify-tree", "recognize", "verify", "roundtrip"])
def test_verbs_that_answer_in_text_report_a_closed_standard_output(
    capsys, monkeypatch, tmp_path, verb
):
    inst = gen_instance(capsys, tmp_path, "inst.json", "gen", "--fixture",
                        "cycle4-star")
    graph = gen_instance(capsys, tmp_path, "graph.json", "derive", "--mode", "overlap",
                         "-i", str(inst))
    demo = gen_instance(capsys, tmp_path, "demo.json", "gen", "--fixture", "bushy-demo")
    argv = {
        "classify-tree": ["-i", str(inst)],
        "recognize": ["--property", "chordal", "-i", str(graph)],
        "verify": ["--what", "bushy", "-i", str(demo)],  # one vertex is not
        "roundtrip": ["--n", "6", "--k", "3"],
    }[verb]
    monkeypatch.setattr(sys, "stdout", None)
    code, out, err = run(capsys, verb, *argv)
    assert (code, out) == (2, "")
    assert err == "error: cannot write standard output: it is closed\n"


def test_unwritable_output_file_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run(capsys, "gen", "--n", "3", "-o", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: [Errno 2] No such file")
    assert not path.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_standard_output_exits_two(capsys, monkeypatch):
    # commands._write's write fails; the handler points the file's
    # descriptor at the null device, so closing the file flushes without an
    # error
    with open("/dev/full", "w") as full:
        monkeypatch.setattr(sys, "stdout", full)
        code, _, err = run(capsys, "gen", "--n", "3")
    assert (code, err) == (
        2, "error: cannot write standard output: [Errno 28] No space left on device\n"
    )


def test_closed_pipe_on_standard_output_exits_two(capsys, tmp_path):
    # a verb that prints its result itself, into a pipe no one reads; only a
    # real process shows that nothing is printed at exit
    inst = gen_instance(
        capsys, tmp_path, "inst.json", "gen", "--fixture", "cycle4-star"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(treerep.__file__).resolve().parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "treerep.cli", "classify-tree", "-i", str(inst)],
            env=env, stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (
        2, "error: cannot write standard output: [Errno 32] Broken pipe\n"
    )


def test_bytes_on_standard_input_that_are_not_utf8_exit_two():
    # the interpreter decodes standard input with surrogateescape, so only a
    # real process shows whether the CLI reads it as strictly as a file
    env = dict(os.environ, PYTHONPATH=str(Path(treerep.__file__).resolve().parents[1]))
    text = (b'{"tree":{"vertices":["\xff","b"],"edges":[["\xff","b"]]},'
            b'"subtrees":{"t1":["b"]}}')
    done = subprocess.run(
        [sys.executable, "-m", "treerep.cli", "cover", "find"],
        input=text, env=env, capture_output=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (2, b"")
    assert done.stderr.startswith(
        b"error: cannot read standard input: 'utf-8' codec can't decode byte 0xff"
    )


def test_deeply_nested_json_exits_two_without_a_traceback(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(treerep.__file__).resolve().parents[1]))
    texts = ("[" * 990 + "]" * 990, '{"a": ' * 3000 + '{"k": 1, "k": 2}' + "}" * 3000)
    for text in texts:
        path = tmp_path / "deep.json"
        path.write_text(text)
        done = subprocess.run(
            [sys.executable, "-m", "treerep.cli", "cover", "check", "-i", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr.startswith("error: instance")
        assert "Traceback" not in done.stderr


def test_missing_cover_shape_file_is_an_input_error(capsys, tmp_path):
    graph = tmp_path / "g.json"
    graph.write_text('{"graph": {"vertices": ["a", "b"], "edges": [["a", "b"]]}}')
    missing = tmp_path / "nonexistent"
    code, out, err = run(capsys, "search", "rep", "--cover-shape", str(missing),
                         "-i", str(graph))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {missing}: [Errno 2]")


def test_schema_errors_exit_two(capsys, tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"wat": 1}')
    code, _, err = run(capsys, "classify-tree", "-i", str(path))
    assert code == 2 and "unknown field" in err
    path.write_text('{"tree": {"vertices": ["a"], "edges": []}, "tree": {}}')
    code, _, err = run(capsys, "classify-tree", "-i", str(path))
    assert code == 2 and "duplicate key 'tree'" in err
    path.write_text(
        '{"tree": {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}}'
    )
    code, _, err = run(capsys, "classify-tree", "-i", str(path))
    assert code == 2 and "instance.tree.edges[1]: duplicate edge" in err
    path.write_text(
        '{"tree": {"vertices": ["a", "b"], "edges": [["a", "b"]]},'
        ' "subtrees": {"t1": ["a", "a"]}}'
    )
    code, _, err = run(capsys, "verify", "--what", "family", "-i", str(path))
    assert code == 2 and "instance.subtrees.t1[1]: duplicate label 'a'" in err


def test_counts_must_be_positive(capsys):
    for argv in (["gen", "--count", "-1"], ["roundtrip", "--count", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "not a positive integer" in capsys.readouterr().err


def test_recognize_comparability_of_a_matching_with_1200_edges(capsys, tmp_path):
    path = tmp_path / "matching.json"
    path.write_text(serialize(Instance(graph=matching_graph(1200))))
    code, out, err = run(capsys, "recognize", "--property", "comparability",
                         "-i", str(path))
    assert code == 0, err
    prefix = "comparability: yes (transitive-orientation: "
    assert out.startswith(prefix) and out.endswith(")\n")
    arcs = frozenset(tuple(arc.split("->")) for arc in out[len(prefix):-2].split())
    graph = parse(path.read_text()).graph
    assert is_transitive(Orientation(graph, arcs)) == []


#: Runs each command of the JSON list in argv[1] through cli.main, which
#: must return 0, and prints the list of their standard outputs as JSON.
_RUN_IN_ONE_PROCESS = """
import io, json, sys
from contextlib import redirect_stdout
from treerep.cli import main
outputs = []
for argv in json.loads(sys.argv[1]):
    with redirect_stdout(io.StringIO()) as out:
        if main(argv) != 0:
            sys.exit(f"exit code not 0: {argv}")
    outputs.append(out.getvalue())
print(json.dumps(outputs))
"""


def test_output_does_not_depend_on_the_hash_seed(capsys, tmp_path):
    inst = gen_instance(
        capsys, tmp_path, "inst.json", "gen", "--n", "30", "--k", "12", "--seed", "7"
    )
    derived = tmp_path / "derived.json"
    code, _, _ = run(capsys, "derive", "--mode", "intersection",
                     "-i", str(inst), "-o", str(derived))
    assert code == 0
    covered = gen_instance(
        capsys, tmp_path, "covered.json", "gen", "--n", "30", "--k", "12",
        "--seed", "7", "--mode", "covered-by", "--cover", "subtree",
    )
    mixed = tmp_path / "mixed.json"
    code, _, _ = run(capsys, "to-mixed", "-i", str(covered), "-o", str(mixed))
    assert code == 0
    src = str(Path(treerep.__file__).resolve().parents[1])
    commands = (
        ["normalize", "-i", str(inst)],
        ["recognize", "--property", "chordal", "-i", str(derived)],
        ["derive", "--mode", "overlap", "-i", str(inst)],
        ["to-mixed", "-i", str(covered)],
        ["from-mixed", "-i", str(mixed)],
        ["recognize", "--property", "cochordal", "-i", str(derived)],
        ["recognize", "--property", "cointerval", "-i", str(derived)],
        ["recognize", "--property", "comparability", "-i", str(derived)],
        ["recognize", "--property", "cocomparability", "-i", str(derived)],
    )
    outputs = {}
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        # the first command through the module's entry point, the rest
        # through cli.main in one more process
        first = subprocess.run(
            [sys.executable, "-m", "treerep.cli", *commands[0]],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        rest = subprocess.run(
            [sys.executable, "-c", _RUN_IN_ONE_PROCESS, json.dumps(commands[1:])],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        ).stdout
        outputs[hash_seed] = [first, *json.loads(rest)]
    assert outputs["0"] == outputs["1"]
    assert '"transcript"' in outputs["0"][0]
    assert outputs["0"][1].startswith("chordal: yes (perfect-elimination-order: ")
    assert '"graph"' in outputs["0"][2]
    assert outputs["0"][3] == mixed.read_text()
    assert '"subtrees"' in outputs["0"][4]
    assert outputs["0"][5].startswith("cochordal: yes (perfect-elimination-order: ")
    assert outputs["0"][6].startswith("cointerval: yes (clique-order: ")
    assert outputs["0"][7].startswith("comparability: yes (transitive-orientation: ")
    assert outputs["0"][8].startswith(
        "cocomparability: yes (transitive-orientation: "
    )


def test_the_parser_builds_only_the_verb_it_runs():
    def built(parser):
        (sub,) = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    assert built(build_parser(["derive", "--mode", "overlap"])) == ["derive"]
    for argv in (None, [], ["--help"], ["frobnicate"], ["-h", "derive"]):
        assert built(build_parser(argv)) == list(VERBS), argv
