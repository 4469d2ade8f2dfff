"""The benchmark's output checks reject planted faults.

Each test runs a real operation of a workload, confirms its check accepts
the output, then corrupts one thing and expects a rejection.  No timing is
checked here.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import treerep as tr  # noqa: E402
import workloads  # noqa: E402


def _roundtrip_output(seed=3):
    tree = tr.gen_tree(20, seed)
    cover = tr.gen_cover(tree, seed, "subtree")
    family = tr.gen_family(tree, 8, seed, "covered-by", cover)
    run = workloads._roundtrip_run(family, cover)
    check = workloads._roundtrip_check(family)
    out = run()
    assert check(out) == []
    return family, out, check


def test_dropped_overlap_edge_is_rejected():
    _, (original, partition, cert, bushy, rebuilt), check = _roundtrip_output()
    edge = min(rebuilt.edges)
    dropped = tr.SimpleGraph(rebuilt.vertices, rebuilt.edges - {edge})
    problems = check((original, partition, cert, bushy, dropped))
    assert "derived graph of the rebuilt family differs" in problems


def test_reversed_e2_arc_is_rejected():
    family, (original, partition, cert, bushy, rebuilt), check = _roundtrip_output()
    members = workloads.plain_members(family)
    a, b = min((a, b) for a, b in partition.e2 if members[a] < members[b])
    e2 = (partition.e2 - {(a, b)}) | {(b, a)}
    reversed_arc = tr.MixedPartition(partition.base, partition.e1, e2)
    problems = check((original, reversed_arc, cert, bushy, rebuilt))
    assert f"e2 arc {b}->{a} does not point to a superset" in problems


def test_disconnected_member_is_rejected():
    family = tr.gen_family(tr.gen_tree(12, 5), 4, 5, "free")
    result = workloads._normalize_run(family)()
    check = workloads._normalize_check(family)
    assert check(result) == []
    host = result.family.host
    adj = host.adjacency()
    a = host.vertices[0]
    b = next(v for v in host.vertices if v != a and v not in adj[a])
    name = result.family.names()[0]
    members = dict(result.family.as_dict(), **{name: frozenset({a, b})})
    broken = tr.SubtreeFamily(host, tuple(members.items()))
    problems = check(tr.NormalizationResult(broken, result.transcript,
                                            result.preprocessed_host))
    assert f"member {name} is disconnected" in problems


def test_thin_intersection_in_normal_form_is_rejected():
    host = tr.Tree.build(
        ["x1", "x2", "x3", "x4", "x5", "y"],
        [("x1", "x2"), ("x2", "x3"), ("x3", "x4"), ("x4", "x5"), ("x3", "y")],
    )
    family = tr.SubtreeFamily.build(
        host, [("t1", ["x1", "x2", "x3"]), ("t2", ["x3", "x4", "y"])]
    )
    check = workloads._normalize_check(family)
    problems = check(tr.NormalizationResult(family, (), host))
    assert problems == ["thin intersection of t1 and t2"]


def test_swapped_elimination_order_is_rejected():
    g = tr.SimpleGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    op = workloads._recognize_op("chordal0", g, "chordal")
    result = op.run()
    assert op.check(result) == []
    order = list(result.witness.payload)
    order[0], order[1] = order[1], order[0]
    swapped = tr.RecognitionResult(
        "chordal", True, tr.PropertyWitness("perfect-elimination-order", tuple(order))
    )
    assert op.check(swapped)


def test_wrong_verdicts_are_rejected():
    c4 = tr.SimpleGraph.build("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")])
    none = tr.PropertyWitness("none")
    for prop, holds in (("chordal", True), ("comparability", False),
                        ("interval", True)):
        op = workloads._recognize_op(prop, c4, prop)
        assert op.check(op.run()) == []
        assert op.check(tr.RecognitionResult(prop, holds, none))
