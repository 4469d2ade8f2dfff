"""The JSON interchange layer against its reference behaviour.

* ``parse`` checks label and pair arrays in bulk.  Its errors must be
  those of the per-entry walks it replaced, kept here as references.
* ``serialize`` writes its arrays and objects itself, through one
  recursive writer.  Its text must be that of
  ``json.dumps(indent=2, ensure_ascii=False, allow_nan=False)``.
* Mutated instances fed to the CLI must give an exit code, never a
  traceback.
* Whole instances survive the round trip, and ``parse`` names each error
  by its path.
"""

import copy
import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import treerep.interchange
from treerep import (
    InputError,
    Instance,
    MixedPartition,
    SchemaError,
    SimpleGraph,
    SubtreeFamily,
    Tree,
    classify_sets,
    derive_graph,
    edge_key,
    fixtures,
    gen_cover,
    gen_family,
    gen_tree,
    interchange,
    minimal_covering_subtree,
    mixed_to_bushy,
    overlap_to_mixed,
    parse,
    serialize,
    tree_path,
)
from treerep.cli import main

# ---------------------------------------------------------------------------
# References: the per-entry walks and the json.dumps writer


def _expect(obj, path, kind, what):
    if not isinstance(obj, kind):
        raise SchemaError(path, f"expected {what}")
    return obj


def reference_parse_labels(obj, path):
    _expect(obj, path, list, "an array of labels")
    seen = set()
    for i, v in enumerate(obj):
        _expect(v, f"{path}[{i}]", str, "a label string")
        if v in seen:
            raise SchemaError(f"{path}[{i}]", f"duplicate label {v!r}")
        seen.add(v)
    return frozenset(obj)


def reference_parse_pairs(obj, path, known, ordered=False):
    _expect(obj, path, list, "an array of pairs")
    pairs = set()
    for i, pair in enumerate(obj):
        where = f"{path}[{i}]"
        _expect(pair, where, list, "a two-element array")
        if len(pair) != 2:
            raise SchemaError(where, "expected exactly two labels")
        u, v = pair
        _expect(u, f"{where}[0]", str, "a label string")
        _expect(v, f"{where}[1]", str, "a label string")
        for lab in (u, v):
            if lab not in known:
                raise SchemaError(where, f"unknown vertex {lab!r}")
        if u == v:
            raise SchemaError(where, "self-loop")
        pair = (u, v) if ordered else edge_key(u, v)
        if pair in pairs:
            raise SchemaError(where, f"duplicate {'arc' if ordered else 'edge'}")
        pairs.add(pair)
    return frozenset(pairs)


def reference_known_labels(obj, known, path):
    for lab in obj:
        if lab not in known:
            raise SchemaError(path, f"unknown vertex {lab!r}")


def _meta_sorted(value):
    if isinstance(value, dict):
        return {k: _meta_sorted(value[k]) for k in sorted(value)}
    if isinstance(value, list):
        return [_meta_sorted(v) for v in value]
    return value


def reference_serialize(instance):
    def pairs(ps):
        return sorted([list(p) for p in ps])

    obj = {}
    if instance.tree is not None:
        obj["tree"] = {"vertices": list(instance.tree.vertices),
                       "edges": pairs(instance.tree.edges)}
    if instance.family is not None:
        obj["subtrees"] = {name: sorted(vs) for name, vs in instance.family.members}
    if instance.graph is not None:
        obj["graph"] = {"vertices": list(instance.graph.vertices),
                        "edges": pairs(instance.graph.edges)}
    if instance.mixed is not None:
        obj["mixed"] = {"e1": pairs(instance.mixed.e1), "e2": pairs(instance.mixed.e2)}
    if instance.cover is not None:
        obj["cover"] = sorted(instance.cover)
    if instance.meta:
        obj["meta"] = _meta_sorted(instance.meta)
    return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# Valid instances and their mutations


def pipeline_instances(n: int, k: int, seed: int) -> list[Instance]:
    """What the CLI steps ``cover find``, ``derive --mode overlap``,
    ``to-mixed`` and ``from-mixed`` write, in turn, for a covered family of
    k members on an n-vertex host: the family with its minimal cover, its
    overlap graph, its mixed partition and the bushy family rebuilt from it."""
    tree = gen_tree(n, seed)
    cover = gen_cover(tree, seed, "path")
    family = gen_family(tree, k, seed, "covered-by", cover)
    cover = minimal_covering_subtree(family)
    partition, certificate = overlap_to_mixed(family, cover)
    bushy = mixed_to_bushy(partition, certificate)
    return [
        Instance(family=family, cover=cover),
        Instance(family=family, graph=derive_graph(family, "overlap"), cover=cover),
        Instance(family=certificate, mixed=partition),
        Instance(family=bushy, cover=frozenset(certificate.host.vertices)),
    ]


@lru_cache(maxsize=None)
def valid_instances(seed: int) -> tuple[dict, ...]:
    """JSON objects of the pipeline instances at n = 9 and k = 4, the
    first with meta."""
    covered, *rest = pipeline_instances(9, 4, seed)
    covered = Instance(family=covered.family, cover=covered.cover,
                       meta={"seed": seed, "note": "é"})
    return tuple(json.loads(serialize(inst)) for inst in (covered, *rest))


REPLACEMENTS = (0, -3, 1.5, True, None, "", "v1", "t1", "zz", [], {}, ["v1"],
                [["v1", "v2"]], {"v1": []}, math.nan)


def replacement(rng: random.Random):
    return copy.deepcopy(rng.choice(REPLACEMENTS))


def containers(value):
    if isinstance(value, (list, dict)):
        yield value
        for child in (value.values() if isinstance(value, dict) else value):
            yield from containers(child)


def strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, (list, dict)):
        for child in (value.values() if isinstance(value, dict) else value):
            yield from strings(child)


def mutate(obj, rng: random.Random):
    """One to three random edits of a JSON value: drop, duplicate, retype or
    relabel an entry (give it another entry's value or label), or add an
    unknown label or field."""
    obj = copy.deepcopy(obj)
    labels = sorted(set(strings(obj)))
    for _ in range(rng.choice((1, 1, 2, 3))):
        pool = list(containers(obj))
        if rng.random() < 0.8:  # mostly spare the many two-label pairs
            pool = [c for c in pool if not (isinstance(c, list) and len(c) == 2
                                            and all(isinstance(x, str) for x in c))]
        target = rng.choice(pool)
        action = rng.choice(
            ("drop", "duplicate", "retype", "unknown", "relabel", "relabel"))
        if isinstance(target, dict):
            keys = list(target)
            if action == "unknown" or not keys:
                target[rng.choice(("zz", "t9", "vertices", "e1"))] = replacement(rng)
                continue
            key = rng.choice(keys)
            if action == "drop":
                del target[key]
            elif action == "duplicate":
                target[key + "x"] = copy.deepcopy(target[key])
            elif action == "retype":
                target[key] = replacement(rng)
            else:
                target[key] = copy.deepcopy(target[rng.choice(keys)])
            continue
        if action == "unknown" or not target:
            target.insert(rng.randint(0, len(target)), rng.choice(("zz", "v1", "t1")))
            continue
        i = rng.randrange(len(target))
        if action == "drop":
            del target[i]
        elif action == "duplicate":
            target.insert(rng.randint(0, len(target)), copy.deepcopy(target[i]))
        elif action == "retype":
            target[i] = replacement(rng)
        else:
            target[i] = rng.choice(labels)
    return obj


def mutated_text(seed: int) -> str:
    rng = random.Random(seed)
    obj = rng.choice(valid_instances(rng.randrange(50)))
    return json.dumps(mutate(obj, rng), ensure_ascii=False)


# ---------------------------------------------------------------------------
# Parse: bulk checks against the per-entry walks


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except SchemaError as exc:
        return "error", str(exc)


def reference_parse(text, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(interchange, "_parse_labels", reference_parse_labels)
        patch.setattr(interchange, "_parse_pairs", reference_parse_pairs)
        patch.setattr(interchange, "_known_labels", reference_known_labels)
        return outcome(parse, text)


def test_parse_errors_match_the_per_entry_walks(monkeypatch):
    kinds = set()
    for seed in range(600):
        text = mutated_text(seed)
        expected = reference_parse(text, monkeypatch)
        assert outcome(parse, text) == expected, text
        if expected[0] == "error":
            kinds.add(expected[1].split(": ", 1)[1].split(" '")[0])
    assert {"expected a label string", "duplicate label", "unknown vertex",
            "expected a two-element array", "expected exactly two labels",
            "unknown field"} <= kinds


LABEL_POOL = ("a", "b", "c", "d", "z", 0, None, ["a"], "a", "y")


def test_label_and_pair_checks_match_the_walks_entry_by_entry():
    rng = random.Random(5)
    known = frozenset("abcd")
    for _ in range(3000):
        labels = [rng.choice(LABEL_POOL) for _ in range(rng.randint(0, 6))]
        assert outcome(interchange._parse_labels, labels, "p") == outcome(
            reference_parse_labels, labels, "p")
        valid = list(dict.fromkeys(lab for lab in labels if isinstance(lab, str)))
        assert outcome(interchange._known_labels, valid, known, "p") == outcome(
            reference_known_labels, valid, known, "p")
        pairs = []
        for _ in range(rng.randint(0, 5)):
            size = rng.choice((2, 2, 2, 1, 3))
            pair = [rng.choice(LABEL_POOL[:6]) for _ in range(size)]
            pairs.append(pair if rng.random() < 0.9 else rng.choice(("ab", 7, None)))
        for ordered in (False, True):
            args = (pairs, "q", known, ordered)
            assert outcome(interchange._parse_pairs, *args) == outcome(
                reference_parse_pairs, *args), pairs


# ---------------------------------------------------------------------------
# CLI: mutated inputs give an exit code, never a traceback

VERBS = (
    ["cover", "find"], ["cover", "check"], ["derive", "--mode", "overlap"],
    ["derive", "--mode", "containment"], ["normalize"], ["to-mixed"],
    ["from-mixed"], ["verify", "--what", "family"],
    ["verify", "--what", "normal-form"], ["verify", "--what", "mixed"],
    ["verify", "--what", "cover"], ["verify", "--what", "bushy"],
    ["classify-tree"], ["recognize", "--property", "chordal"],
    ["recognize", "--property", "cointerval"], ["export-dot", "--view", "tree"],
    ["export-dot", "--view", "rep-highlight", "--member", "t1"],
)


def run_cli(argv, text):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        saved, sys.stdin = sys.stdin, io.StringIO(text)
        try:
            code = main(argv)
        finally:
            sys.stdin = saved
    return code, err.getvalue()


@given(st.integers(0, 10**6), st.sampled_from(VERBS))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_mutated_instances_give_an_exit_code(seed, argv):
    code, err = run_cli(argv, mutated_text(seed))
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# Serialize: the writer against json.dumps


def seeded_instances(seed: int):
    tree = gen_tree(1 + seed % 12, seed)
    cover = gen_cover(tree, seed, ("vertex", "path", "subtree")[seed % 3])
    family = gen_family(tree, seed % 6, seed, "covered-by", cover)
    yield Instance()
    yield Instance(tree=tree)
    yield Instance(family=family, cover=cover, meta={"seed": seed, "k": seed % 6})
    graph = derive_graph(family, ("overlap", "intersection", "containment")[seed % 3])
    yield Instance(graph=graph)
    yield Instance(family=family, graph=graph, cover=cover)
    if family.members:
        partition, certificate = overlap_to_mixed(family, cover)
        yield Instance(family=certificate, mixed=partition, meta={"k": seed % 6})


def test_serialize_matches_json_dumps_on_seeded_instances():
    count = 0
    for seed in range(120):
        for inst in seeded_instances(seed):
            assert serialize(inst) == reference_serialize(inst)
            count += 1
    assert count > 600
    # the sizes of the benchmark's CLI pipeline: long label and pair arrays
    for inst in pipeline_instances(500, 90, 7):
        assert serialize(inst) == reference_serialize(inst)


ADVERSARIAL_META = {
    "empty_list": [], "empty_dict": {}, "nested": [[], [[]], {}, [{}], {"a": []}],
    "text": "naïve — ünïcödé 漢字 🌳", "quotes": 'say "hi"',
    "backslash": "a\\b\\\\",
    "control": "tab\tnew\nline\x00\x1f\x7f", "big": 10**40, "negative": -7,
    "floats": [0.1, -2.5e-300, 1e300, 3.0], "bools": [True, False], "none": None,
    "keys": {"z": 1, "é": 2, "A": 3, "": 4, "\n": 5},
    "transcript": [{"action": "add-leaf", "attach": "v1", "new": "v1'"}],
}


def test_serialize_matches_json_dumps_on_adversarial_text():
    labels = ["plain", "naïve", 'q"uote', "back\\slash", "ctl\x01\t", "漢字", "🌳",
              ""]
    tree = Tree.build(labels, [(labels[0], other) for other in labels[1:]])
    family = SubtreeFamily.build(tree, [("é t1", labels[:3]), ('"t2"', labels[:1])])
    graph = SimpleGraph.build(["x\\", "y\n", "z"], [("x\\", "y\n")])
    mixed = MixedPartition(graph, frozenset(), frozenset({("y\n", "x\\")}))
    for inst in (
        Instance(family=family, cover=frozenset(labels[:2]), meta=ADVERSARIAL_META),
        Instance(mixed=mixed, meta={"only": ADVERSARIAL_META["nested"]}),
        Instance(meta=ADVERSARIAL_META),
    ):
        text = serialize(inst)
        assert text == reference_serialize(inst)
        assert parse(text) == inst


def test_serialize_refuses_labels_that_are_not_strings():
    # parse would refuse the text json.dumps writes for them, so the writer
    # takes string labels only, as it takes string member names
    tree = Tree.build([3, 1, 2], [(1, 3), (2, 3)])
    with pytest.raises(TypeError):
        serialize(Instance(family=SubtreeFamily.build(tree, [("t1", [1, 3])])))
    with pytest.raises(TypeError):
        serialize(Instance(graph=SimpleGraph.build(["a", 2], [("a", 2)])))
    named = Tree.build("ab", [("a", "b")])
    with pytest.raises(TypeError):
        serialize(Instance(family=SubtreeFamily.build(named, [(1, ["a"])])))


def test_equal_instances_with_dicts_in_tuples_in_meta_serialize_alike():
    a = Instance(meta={"x": ({"b": 1, "a": 2},)})
    b = Instance(meta={"x": ({"a": 2, "b": 1},)})
    assert a == b
    assert serialize(a) == serialize(b)
    assert json.loads(serialize(a)) == {"meta": {"x": [{"a": 2, "b": 1}]}}


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1, math.nan]])
def test_serialize_still_refuses_non_finite_meta(value):
    with pytest.raises(ValueError):
        serialize(Instance(meta={"x": value}))


# ---------------------------------------------------------------------------
# Parse: text that could not be written back


@pytest.mark.parametrize("text, error", [
    ('{"tree": {"vertices": ["a", "\\udfff"]}}',
     "instance.tree.vertices[1]: a string holds a lone surrogate"),
    ('{"tree": {"vertices": ["a"]}, "subtrees": {"t\\ud800": ["a"]}}',
     "instance.subtrees: a string holds a lone surrogate"),
    ('{"meta": {"x": [1, {"y": "\\ud83c"}]}}',
     "instance.meta.x[1].y: a string holds a lone surrogate"),
    ('{"meta": {"x": "\ud800"}}',
     "instance.meta.x: a string holds a lone surrogate"),
    ('{"meta": {"x": -1e400}}', "instance: number -1e400 is out of range"),
])
def test_parse_refuses_text_that_cannot_be_written_back(text, error):
    with pytest.raises(SchemaError) as caught:
        parse(text)
    assert str(caught.value) == error


def test_parse_keeps_surrogate_pairs_escaped_backslashes_and_small_floats():
    text = ('{"tree": {"vertices": ["\\ud83c\\udf33"]},'
            ' "meta": {"x": "\\\\ud800", "y": 1e-400}}')
    inst = parse(text)
    assert inst.tree.vertices == ("🌳",)
    assert inst.meta == {"x": "\\ud800", "y": 0.0}
    assert parse(serialize(inst)) == inst


_PATH = Tree(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
_EDGE = SimpleGraph(("a", "b"), frozenset({("a", "b")}))


# checks that no CLI input reaches: parse refuses such an instance before
# it builds one, and the CLI never asks trees these questions
@pytest.mark.parametrize("build, error", [
    (lambda: tree_path(_PATH, "a", "z"), "unknown vertex in path query: 'a', 'z'"),
    (lambda: classify_sets(frozenset(), frozenset({"a"})),
     "pair relations are defined for nonempty sets only"),
    (lambda: Instance(graph=SimpleGraph(("a", "b"), frozenset()),
                      mixed=MixedPartition(_EDGE, _EDGE.edges, frozenset())),
     "instance graph differs from the partition's base"),
    (lambda: Instance(tree=_PATH, cover=frozenset({"a", "z"})),
     "cover references vertices outside the tree"),
])
def test_library_only_input_checks_raise_input_errors(build, error):
    with pytest.raises(InputError) as caught:
        build()
    assert str(caught.value) == error


# ---------------------------------------------------------------------------
# Whole instances: the round trip, errors at their path, and consistency


@given(st.integers(0, 10**6))
@settings(max_examples=300, deadline=None)
def test_serialize_parse_round_trip(seed):
    rng = random.Random(seed)
    tree = gen_tree(rng.randint(1, 10), rng.randrange(10**9))
    family = gen_family(tree, rng.randint(0, 6), rng.randrange(10**9))
    cover = frozenset(tree.vertices) if rng.random() < 0.5 else None
    instance = Instance(
        family=family,
        cover=cover,
        meta={"seed": seed, "params": {"b": 1, "a": [1, 2]}},
    )
    text = serialize(instance)
    back = parse(text)
    assert back == instance
    assert serialize(back) == text


def test_serialize_includes_mixed_and_graph():
    from treerep import overlap_to_mixed

    fam = fixtures()["cycle4-star"].family
    partition, certificate = overlap_to_mixed(fam, {"c"})
    inst = Instance(family=certificate, mixed=partition)
    back = parse(serialize(inst))
    assert back.mixed == partition
    assert back.graph == partition.base
    assert back.family == certificate


def test_parse_errors_name_the_offending_path():
    with pytest.raises(SchemaError, match="instance.bogus"):
        parse('{"bogus": 1}')
    with pytest.raises(SchemaError, match="unknown vertex"):
        parse('{"tree": {"vertices": ["a"], "edges": [["a", "b"]]}}')
    with pytest.raises(SchemaError, match="instance.subtrees"):
        parse('{"subtrees": {"m": ["a"]}}')
    with pytest.raises(SchemaError, match="instance.mixed"):
        parse('{"mixed": {"e1": [], "e2": []}}')
    with pytest.raises(SchemaError, match="not valid JSON"):
        parse("{")
    with pytest.raises(SchemaError, match="instance.tree"):
        parse('{"tree": {"vertices": ["a", "b"], "edges": []}}')
    with pytest.raises(SchemaError, match=r"instance.tree.edges\[0\]"):
        parse('{"tree": {"vertices": ["a"], "edges": [["a", "a"]]}}')
    with pytest.raises(SchemaError, match="instance.cover"):
        parse(
            '{"tree": {"vertices": ["a"], "edges": []}, "cover": ["z"]}'
        )


def test_parse_rejects_duplicate_entries_at_their_path():
    two = '{"vertices": ["a", "b"], "edges": [["a", "b"]]}'
    cases = {
        r"instance.tree.vertices\[2\]: duplicate label 'a'":
            '{"tree": {"vertices": ["a", "b", "a"], "edges": [["a", "b"]]}}',
        r"instance.tree.edges\[1\]: duplicate edge":
            '{"tree": {"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}}',
        r"instance.subtrees.t1\[1\]: duplicate label 'a'":
            '{"tree": %s, "subtrees": {"t1": ["a", "a"]}}' % two,
        r"instance.cover\[1\]: duplicate label 'b'":
            '{"tree": %s, "cover": ["b", "b"]}' % two,
        r"instance.graph.vertices\[1\]: duplicate label 'a'":
            '{"graph": {"vertices": ["a", "a"], "edges": []}}',
        r"instance.graph.edges\[1\]: duplicate edge":
            '{"graph": {"vertices": ["a", "b"], "edges": [["a", "b"], ["a", "b"]]}}',
        r"instance.mixed.e1\[1\]: duplicate edge":
            '{"graph": %s, "mixed": {"e1": [["b", "a"], ["a", "b"]]}}' % two,
        r"instance.mixed.e2\[1\]: duplicate arc":
            '{"graph": %s, "mixed": {"e2": [["b", "a"], ["b", "a"]]}}' % two,
    }
    for message, text in cases.items():
        with pytest.raises(SchemaError, match=message):
            parse(text)
    # both directions of one pair in e2 are two arcs, left to the partition
    with pytest.raises(SchemaError, match="both directions"):
        parse('{"graph": %s, "mixed": {"e2": [["a", "b"], ["b", "a"]]}}' % two)


def test_parse_rejects_duplicate_keys():
    two = '{"vertices": ["a", "b"], "edges": [["a", "b"]]}'
    cases = {
        '{"tree": %s, "subtrees": {"t1": ["a"], "t1": ["b"]}}' % two:
            "instance.subtrees: duplicate key 't1'",
        '{"tree": %s, "tree": %s}' % (two, two): "instance: duplicate key 'tree'",
        '{"tree": {"vertices": [], "vertices": []}}':
            "instance.tree: duplicate key 'vertices'",
        # objects inside arrays, and a NaN after the duplicate
        '{"meta": {"x": [1, {"y": [{"z": 1, "z": 2}]}], "w": NaN}}':
            "instance.meta.x[1].y[0]: duplicate key 'z'",
        '[{"q": 1, "q": 2}]': "instance[0]: duplicate key 'q'",
        # the object that closes first is reported, as before
        '{"meta": {"a": {"q": 1, "q": 2}, "b": {"r": 1, "r": 2}}, "meta": 1}':
            "instance.meta.a: duplicate key 'q'",
        # malformed after the duplicate: its objects never close
        '{"meta": {"a": {"q": 1, "q": 2}, "b": ': "instance: duplicate key 'q'",
    }
    for text, message in cases.items():
        with pytest.raises(SchemaError) as info:
            parse(text)
        assert str(info.value) == message
    # an error met before the duplicate still wins
    with pytest.raises(SchemaError, match="NaN is not a JSON number"):
        parse('{"meta": {"x": NaN, "a": {"q": 1, "q": 2}}}')


def test_parse_refuses_json_nested_too_deeply(monkeypatch):
    depth = 100_000
    texts = (
        "[" * depth + "]" * depth,
        '{"a": ' * depth + "1" + "}" * depth,
        '{"a": ' * depth + '{"k": 1, "k": 2}' + "}" * depth,
    )
    for text in texts:
        with pytest.raises(SchemaError) as info:
            parse(text)
        assert str(info.value) == "instance: JSON nested too deeply"

    # a duplicate key too deep for the walk that finds its path
    def too_deep(value, path=""):
        raise RecursionError

    monkeypatch.setattr(treerep.interchange, "_duplicate_path", too_deep)
    with pytest.raises(SchemaError) as info:
        parse('{"meta": {"a": {"q": 1, "q": 2}}}')
    assert str(info.value) == "instance: duplicate key 'q'"


def test_nan_in_meta_is_rejected_both_ways():
    for constant in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(SchemaError, match=constant):
            parse('{"tree":{"vertices":["a"],"edges":[]},"meta":{"x":%s}}' % constant)
    with pytest.raises(ValueError):
        serialize(Instance(tree=gen_tree(1, 0), meta={"x": float("nan")}))


def test_instance_consistency_is_enforced():
    t1 = gen_tree(3, 0)
    t2 = gen_tree(4, 0)
    fam = gen_family(t1, 2, 0)
    with pytest.raises(InputError):
        Instance(tree=t2, family=fam)
    with pytest.raises(InputError):
        Instance(cover=frozenset({"v1"}))
    inst = Instance(family=fam)
    assert inst.tree == t1
