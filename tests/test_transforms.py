import hashlib
import json
import random
from collections import Counter
from itertools import combinations, groupby

import pytest
from helpers import random_family, relations_preserved

from treerep import (
    InputError,
    SubdivisionStep,
    SubtreeFamily,
    Tree,
    Violation,
    add_leaf,
    classify_sets,
    gen_cover,
    gen_family,
    gen_tree,
    is_subdivision_of,
    normal_form_violations,
    normalize,
    replay,
    similarly_related,
    subdivide_edge,
    subtree_leaves,
    validate_family,
)
from treerep.transforms import _Growth


def test_add_leaf_to_trivial_host():
    k1 = Tree.build("a", [])
    fam = SubtreeFamily.build(k1, [("m", ["a"])])
    grown = add_leaf(fam, "a", "b")
    assert grown.host == Tree.build("ab", [("a", "b")])
    assert grown.host.adjacency() == {"a": {"b"}, "b": {"a"}}
    assert grown.member("m") == {"a"}


def test_add_leaf_rejects_collisions_and_unknown_attach():
    fam = SubtreeFamily.build(Tree.build("ab", [("a", "b")]), [("m", ["a"])])
    with pytest.raises(InputError):
        add_leaf(fam, "z", "c")
    with pytest.raises(InputError):
        add_leaf(fam, "a", "b")


def test_add_leaf_preserves_all_relations():
    rng = random.Random(21)
    for _ in range(300):
        fam = random_family(rng, max_host=10, max_members=6)
        attach = rng.choice(sorted(fam.host.vertices))
        grown = add_leaf(fam, attach, "fresh")
        assert relations_preserved(fam, grown)


def test_subdivide_without_absorption_leaves_members_alone():
    host = Tree.build("abc", [("a", "b"), ("b", "c")])
    fam = SubtreeFamily.build(host, [("t1", ["a"]), ("t2", ["c"])])
    out = subdivide_edge(fam, SubdivisionStep("a", "b", "x", frozenset()))
    assert out.host.edges == {("a", "x"), ("b", "x"), ("b", "c")}
    assert out.member("t1") == {"a"}
    assert out.member("t2") == {"c"}
    assert validate_family(out) == []


def test_subdivide_absorbing_a_contained_member():
    host = Tree.build("ab", [("a", "b")])
    fam = SubtreeFamily.build(host, [("t1", ["a", "b"]), ("t2", ["a"])])
    out = subdivide_edge(fam, SubdivisionStep("a", "b", "x", frozenset({"t2"})))
    assert out.member("t1") == {"a", "b", "x"}  # contains both endpoints
    assert out.member("t2") == {"a", "x"}  # absorbed
    assert relations_preserved(fam, out)
    assert validate_family(out) == []


def test_subdivide_keeps_overlap_at_shared_vertex():
    host = Tree.build("abc", [("a", "b"), ("b", "c")])
    fam = SubtreeFamily.build(host, [("t1", ["a", "b"]), ("t2", ["b", "c"])])
    out = subdivide_edge(fam, SubdivisionStep("a", "b", "x", frozenset()))
    assert out.member("t1") == {"a", "b", "x"}
    assert out.member("t2") == {"b", "c"}
    assert relations_preserved(fam, out)


def test_subdivide_rejects_bad_steps():
    host = Tree.build("abc", [("a", "b"), ("b", "c")])
    fam = SubtreeFamily.build(host, [("t1", ["a"])])
    with pytest.raises(InputError):
        subdivide_edge(fam, SubdivisionStep("a", "c", "x", frozenset()))
    with pytest.raises(InputError):
        subdivide_edge(fam, SubdivisionStep("a", "b", "c", frozenset()))
    with pytest.raises(InputError):
        subdivide_edge(fam, SubdivisionStep("a", "b", "x", frozenset({"ghost"})))
    with pytest.raises(InputError):
        # t1 does not contain endpoint b
        subdivide_edge(fam, SubdivisionStep("b", "c", "x", frozenset({"t1"})))


def test_step_errors_name_the_first_fault():
    host = Tree.build("abc", [("a", "b"), ("b", "c")])
    fam = SubtreeFamily.build(host, [("t1", ["a"]), ("t2", ["c"])])
    cases = [
        (SubdivisionStep("a", "a", "x"), "self-loop at 'a'"),
        (SubdivisionStep("a", "c", "b", frozenset({"ghost"})),
         "'a'-'c' is not a host edge"),
        (SubdivisionStep("a", "b", "c", frozenset({"ghost"})),
         "subdivision label 'c' already used in the host"),
        (SubdivisionStep("b", "c", "x", frozenset({"ghost", "t1", "t2"})),
         r"absorb names unknown members \['ghost'\]"),
        (SubdivisionStep("b", "c", "x", frozenset({"t2", "t1"})),
         "absorbed member t1 does not contain endpoint 'b'"),
    ]
    for step, message in cases:
        with pytest.raises(InputError, match=f"^{message}$"):
            subdivide_edge(fam, step)
        # replay takes the names from a transcript, in reverse name order here
        entry = {"action": "subdivide", "v": step.v, "w": step.w, "x": step.x,
                 "absorb": sorted(step.absorb, reverse=True)}
        with pytest.raises(InputError, match=f"^{message}$"):
            replay(fam, [entry])
    with pytest.raises(InputError, match="^attach vertex 'z' is not in the host$"):
        add_leaf(fam, "z", "a")
    with pytest.raises(InputError, match="^label 'a' already used in the host$"):
        add_leaf(fam, "b", "a")
    for attach, new, message in [("z", "a", "attach vertex 'z' is not in the host"),
                                 ("b", "a", "label 'a' already used in the host")]:
        with pytest.raises(InputError, match=f"^{message}$"):
            replay(fam, [{"action": "add-leaf", "attach": attach, "new": new}])


def test_subdivide_preserves_relations_on_random_instances():
    rng = random.Random(22)
    for _ in range(300):
        fam = random_family(rng, max_host=10, max_members=6)
        u, v = sorted(fam.host.edges)[rng.randrange(len(fam.host.edges))]
        v_end = u if rng.random() < 0.5 else v
        w_end = v if v_end == u else u
        candidates = [n for n, vs in fam.members if v_end in vs]
        absorb = frozenset(n for n in candidates if rng.random() < 0.5)
        out = subdivide_edge(fam, SubdivisionStep(v_end, w_end, "x#new", absorb))
        assert relations_preserved(fam, out)
        assert validate_family(out) == []
        # members that gained the fresh vertex contain the chosen endpoint
        for name, vs in fam.members:
            if "x#new" in out.member(name):
                assert v_end in vs


def with_copy_and_chain(rng: random.Random, fam: SubtreeFamily, v: str):
    """``fam`` plus a copy of one member under a second name and a chain of
    nested subtrees of it, each containing ``v`` (peeled one leaf at a time)."""
    holders = [(n, vs) for n, vs in fam.members if v in vs]
    name, vs = rng.choice(holders or list(fam.members))
    members = list(fam.members) + [(f"{name}-copy", vs)]
    chain = set(vs)
    for depth in range(rng.randint(0, 4)):
        leaves = sorted(subtree_leaves(fam.host, frozenset(chain)) - {v})
        if not leaves:
            break
        chain.discard(rng.choice(leaves))
        members.append((f"chain{depth}", frozenset(chain)))
    rng.shuffle(members)
    return SubtreeFamily.build(fam.host, members)


def test_subdivide_gains_exactly_the_documented_members():
    rng = random.Random(29)
    by_superset_only = by_copy = 0
    for _ in range(400):
        fam = random_family(rng, max_host=10, max_members=5)
        v, w = sorted(fam.host.edges)[rng.randrange(len(fam.host.edges))]
        if rng.random() < 0.5:
            v, w = w, v
        fam = with_copy_and_chain(rng, fam, v)
        absorb = frozenset(
            n for n, vs in fam.members if v in vs and rng.random() < 0.4
        )
        out = subdivide_edge(fam, SubdivisionStep(v, w, "x#new", absorb))
        absorbed = [fam.member(n) for n in absorb]
        expected = set()
        for name, vs in fam.members:
            superset = any(s < vs for s in absorbed)
            if (v in vs and w in vs) or name in absorb or superset:
                expected.add(name)
            if superset and name not in absorb and w not in vs:
                by_superset_only += 1
            if name not in absorb and vs in absorbed and not superset:
                by_copy += 1
        for name, vs in fam.members:
            assert out.member(name) == (vs | {"x#new"} if name in expected else vs)
    # the superset rule alone decides some members, and members equal to an
    # absorbed one (but not strictly containing any) stay out
    assert by_superset_only > 30
    assert by_copy > 100


def test_normal_form_violation_clauses():
    host = Tree.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    fam = SubtreeFamily.build(host, [("solo", ["b"])])
    assert [v.code for v in normal_form_violations(fam)] == ["nontrivial"]

    fam = SubtreeFamily.build(host, [("t1", ["a", "b"]), ("t2", ["b", "c"])])
    codes = [v.code for v in normal_form_violations(fam)]
    # t1 and t2 share only b, and b is a leaf of both members
    assert codes.count("thin-intersection") == 1
    assert codes.count("shared-leaf") == 1

    fam = SubtreeFamily.build(
        host, [("t1", ["a", "b", "c"]), ("t2", ["b", "c", "d"])]
    )
    assert normal_form_violations(fam) == []


def reference_normal_form_violations(f):
    """``normal_form_violations`` with the thin intersections found by a loop
    over pairs of member sets."""
    out = [
        Violation("nontrivial", f"member {name} has < 2 vertices")
        for name, vs in f.members
        if len(vs) < 2
    ]
    for (ni, vi), (nj, vj) in combinations(f.members, 2):
        common = vi & vj
        if len(common) == 1:
            out.append(Violation(
                "thin-intersection",
                f"members {ni} and {nj} share only {sorted(common)}",
            ))
    leaf_owners = {}
    for name, vs in f.members:
        for v in subtree_leaves(f.host, vs):
            leaf_owners.setdefault(v, []).append(name)
    for v in sorted(leaf_owners):
        if len(leaf_owners[v]) > 1:
            out.append(Violation(
                "shared-leaf",
                f"vertex {v} is a leaf of members {sorted(leaf_owners[v])}",
            ))
    return out


def test_normal_form_violations_match_the_set_loop_on_seeded_families():
    codes = Counter()
    for seed in range(60):
        rng = random.Random(seed)
        fam = gen_family(gen_tree(rng.randint(2, 40), seed), rng.randint(1, 30), seed)
        want = reference_normal_form_violations(fam)
        assert normal_form_violations(fam) == want, seed
        codes.update(v.code for v in want)
    # every clause is met, and thin intersections often
    assert codes.keys() == {"nontrivial", "thin-intersection", "shared-leaf"}
    assert codes["thin-intersection"] > 100


def test_normalize_rejects_trivial_host():
    fam = SubtreeFamily.build(Tree.build("a", []), [("m", ["a"])])
    with pytest.raises(InputError):
        normalize(fam)


def test_normalize_duplicate_singletons():
    host = Tree.build("ab", [("a", "b")])
    fam = SubtreeFamily.build(host, [("t1", ["a"]), ("t2", ["a"])])
    result = normalize(fam)
    out = result.family
    assert normal_form_violations(out) == []
    assert out.member("t1") != out.member("t2")
    assert all(len(vs) >= 2 for _, vs in out.members)
    # the equal pair may only drift to containment-or-equal
    rel = classify_sets(out.member("t1"), out.member("t2"))
    assert similarly_related(rel, classify_sets(frozenset("a"), frozenset("a")))


def test_normalize_runs_all_stages_even_when_already_clean():
    host = Tree.build("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    fam = SubtreeFamily.build(host, [("t1", ["b", "c"])])
    result = normalize(fam)
    assert normal_form_violations(result.family) == []
    assert relations_preserved(fam, result.family)
    # no member touches a host leaf, so stage 1 adds nothing
    assert all(entry["action"] != "add-leaf" for entry in result.transcript)
    assert result.preprocessed_host == host
    # stage 2 always subdivides twice per edge
    subdivisions = [e for e in result.transcript if e["action"] == "subdivide"]
    assert len(subdivisions) >= 2 * len(host.edges)


def test_normalize_random_instances():
    rng = random.Random(23)
    for _ in range(120):
        fam = random_family(rng, max_host=9, max_members=5)
        result = normalize(fam)
        assert normal_form_violations(result.family) == []
        assert relations_preserved(fam, result.family)
        assert validate_family(result.family) == []
        assert is_subdivision_of(result.family.host, result.preprocessed_host)


def test_normalize_transcript_replays_exactly():
    rng = random.Random(24)
    for _ in range(40):
        fam = random_family(rng, max_host=8, max_members=4)
        result = normalize(fam)
        assert replay(fam, result.transcript) == result.family


def test_normalize_leaves_of_members_have_host_degree_two():
    rng = random.Random(25)
    for _ in range(60):
        fam = random_family(rng, max_host=8, max_members=5)
        out = normalize(fam).family
        adj = out.host.adjacency()
        for _, vs in out.members:
            for leaf in subtree_leaves(out.host, vs):
                assert len(adj[leaf]) == 2


def assert_same_as_validated(host: Tree) -> None:
    fresh = Tree(host.vertices, host.edges)
    assert host == fresh
    assert host.adjacency() == fresh.adjacency()


def test_grown_hosts_equal_validated_trees():
    rng = random.Random(26)
    for _ in range(60):
        fam = random_family(rng, max_host=10, max_members=5)
        attach = rng.choice(fam.host.vertices)
        assert_same_as_validated(add_leaf(fam, attach, "x#leaf").host)
        v, w = sorted(fam.host.edges)[rng.randrange(len(fam.host.edges))]
        step = SubdivisionStep(w, v, "x#sub")
        assert_same_as_validated(subdivide_edge(fam, step).host)
        # every intermediate host of a normalization, grown step by step
        result = normalize(fam)
        replayed = fam
        for entry in result.transcript:
            replayed = replay(replayed, [entry])
            assert_same_as_validated(replayed.host)
        assert replayed == result.family


def apply_entry(fam: SubtreeFamily, entry: dict) -> SubtreeFamily:
    """One transcript entry through the public single-step functions."""
    if entry["action"] == "add-leaf":
        return add_leaf(fam, entry["attach"], entry["new"])
    if entry["action"] == "subdivide":
        step = SubdivisionStep(
            entry["v"], entry["w"], entry["x"], frozenset(entry["absorb"])
        )
        return subdivide_edge(fam, step)
    return fam


def ladder_family(n: int, k: int, seed: int, mode: str) -> SubtreeFamily:
    tree = gen_tree(n, seed)
    cover = gen_cover(tree, seed) if mode == "covered-by" else None
    return gen_family(tree, k, seed, mode, cover)


def test_public_steps_agree_with_normalize_and_replay():
    # normalize hands its splits their gainers in closed form, while replay
    # and subdivide_edge work them out by the documented rule; each x is new
    # and only its own step adds it, so equal final families mean equal
    # gains at every step.  Stepping through the public functions copies the
    # family per step, so that leg stops at 20/8.
    rng = random.Random(27)
    stepped_too = [random_family(rng, max_host=12, max_members=6) for _ in range(60)]
    replayed = []
    for mode in ("free", "shared-vertex", "covered-by"):
        stepped_too += [ladder_family(6, 3, seed, mode) for seed in range(4)]
        stepped_too += [ladder_family(20, 8, seed, mode) for seed in range(2)]
        replayed += [ladder_family(n, k, 1, mode) for n, k in ((60, 20), (100, 40))]
    for fam in stepped_too:
        result = normalize(fam)
        stepped = fam
        for entry in result.transcript:
            stepped = apply_entry(stepped, entry)
        assert stepped == result.family
        assert replay(fam, result.transcript) == result.family
    for fam in replayed:
        result = normalize(fam)
        assert replay(fam, result.transcript) == result.family


def stage_three_orders(fam: SubtreeFamily, result) -> list[tuple[list, list]]:
    """Per shared leaf, in stage-3 order: its owners as its splits absorb
    them, each as (size before the leaf's first split, name), with the sizes
    taken after every earlier leaf's splits and, second, after stage 2."""
    entries = list(result.transcript)
    start = entries.index({"action": "mark", "label": "preprocessed-host"})
    start += 1 + 2 * len(result.preprocessed_host.edges)
    after_stage_two = state = replay(fam, entries[:start])
    orders = []
    for _, group in groupby(entries[start:], key=lambda e: e["v"]):
        group = list(group)
        absorbed = [set()] + [set(e["absorb"]) for e in group]
        order = [(b - a).pop() for a, b in zip(absorbed, absorbed[1:])]
        orders.append((
            [(len(state.member(n)), n) for n in order],
            [(len(after_stage_two.member(n)), n) for n in order],
        ))
        state = replay(state, group)
    return orders


def test_stage_three_sorts_owners_after_the_earlier_chains():
    # Leaf x#14's chain gives t4, t1 and t3 three, two and one vertices, so
    # at the last leaf, x#8, t2 (10 vertices) comes before t3 (9), while by
    # their sizes after stage 2 (7 each) t3 would come first, by name.
    host = Tree.build(
        ["v1", "v2", "v3", "v4"], [("v1", "v2"), ("v2", "v3"), ("v2", "v4")]
    )
    fam = SubtreeFamily.build(host, [
        ("t1", ["v1", "v2", "v4"]), ("t2", ["v1", "v2"]),
        ("t3", ["v2", "v4"]), ("t4", ["v2", "v3", "v4"]),
    ])
    result = normalize(fam)
    assert replay(fam, result.transcript) == result.family
    orders = stage_three_orders(fam, result)
    assert [len(now) for now, _ in orders] == [3, 2, 2, 3]
    for now, _ in orders:
        assert now == sorted(now, reverse=True)
    now, then = orders[-1]
    assert now == [(16, "t1"), (10, "t2"), (9, "t3")]
    assert then != sorted(then, reverse=True)


def test_gain_hands_over_in_bulk_and_keeps_named_vertices():
    host = Tree.build("abc", [("a", "b"), ("b", "c")])
    fam = SubtreeFamily.build(
        host, [("m", ["a", "b", "zz"]), ("n", ["a", "zz"]), ("o", ["c"])]
    )
    growth = _Growth(fam)
    # b-a becomes b, zz, y, a in one edit, zz added first
    growth.path("b", "a", ("zz", "y"), (0b011, 0b011))
    assert list(growth.adj) == ["a", "b", "c", "zz", "y"]
    # path only marks its vertices in the masks; m and n already name zz
    assert growth.inside["zz"] == growth.inside["y"] == 0b011
    assert growth.sets == [{"a", "b", "zz"}, {"a", "zz"}, {"c"}]
    growth.gain(0b011, ("zz", "y"))
    grown = growth.family()
    assert grown.as_dict() == {
        "m": {"a", "b", "y", "zz"}, "n": {"a", "y", "zz"}, "o": {"c"},
    }
    assert grown.host.edges == {("a", "y"), ("y", "zz"), ("b", "zz"), ("b", "c")}


def test_transcript_entries_share_no_absorb_list():
    for mode in ("free", "shared-vertex", "covered-by"):
        result = normalize(ladder_family(20, 8, 7, mode))
        entries = [e for e in result.transcript if e["action"] == "subdivide"]
        before = [list(e["absorb"]) for e in entries]
        # marking each entry's list once leaves every other entry's alone
        for i, entry in enumerate(entries):
            entry["absorb"].append(f"#{i}")
        assert [e["absorb"] for e in entries] == [
            absorb + [f"#{i}"] for i, absorb in enumerate(before)
        ]


def snapshot(fam: SubtreeFamily):
    adj = {v: set(ns) for v, ns in fam.host.adjacency().items()}
    return fam.host.vertices, fam.host.edges, adj, fam.members


def test_growth_leaves_the_input_family_unchanged():
    rng = random.Random(28)
    for _ in range(40):
        fam = random_family(rng, max_host=10, max_members=5)
        before = snapshot(fam)
        result = normalize(fam)
        assert snapshot(fam) == before
        replay(fam, result.transcript)
        assert snapshot(fam) == before
        v, w = sorted(fam.host.edges)[0]
        absorb = frozenset(n for n, vs in fam.members if v in vs)
        subdivide_edge(fam, SubdivisionStep(v, w, "x#sub", absorb))
        add_leaf(fam, v, "x#leaf")
        assert snapshot(fam) == before


def test_normalize_at_two_hundred_vertices_and_sixty_members():
    fam = gen_family(gen_tree(200, 1), 60, 1, "free")
    result = normalize(fam)
    assert normal_form_violations(result.family) == []
    assert relations_preserved(fam, result.family)
    assert replay(fam, result.transcript) == result.family


def normalize_digest() -> str:
    """sha256 of normalize's transcripts and families on a seeded ladder."""
    ladder = [(6, 3, s) for s in range(10)] + [(20, 8, s) for s in range(10)]
    ladder += [(60, 20, 1), (200, 60, 1)]
    digest = hashlib.sha256()
    for n, k, seed in ladder:
        result = normalize(gen_family(gen_tree(n, seed), k, seed, "free"))
        hosts = [result.preprocessed_host, result.family.host]
        plain = [
            list(result.transcript),
            [[list(h.vertices), sorted(h.edges)] for h in hosts],
            [[name, sorted(vs)] for name, vs in result.family.members],
        ]
        digest.update(json.dumps(plain, sort_keys=True).encode())
    return digest.hexdigest()


def test_normalize_outputs_are_frozen():
    # Regenerate (only for an intended change of normalize's output) with
    #   PYTHONPATH=src python -c "import sys; sys.path[:0] = ['tests'];
    #   import test_transforms as t; print(t.normalize_digest())"
    assert normalize_digest() == (
        "b8072d30925377d5f9e1ca35771c92e9d734c98cbbcbfe636c500d2858c35d31"
    )


def test_steps_carry_member_vertices_outside_the_host():
    host = Tree.build("abc", [("a", "b"), ("b", "c")])
    fam = SubtreeFamily.build(
        host, [("m", ["a", "b", "zz"]), ("n", ["a", "zz"]), ("o", ["zz"])]
    )
    assert add_leaf(fam, "a", "y").members == fam.members
    out = subdivide_edge(fam, SubdivisionStep("a", "b", "x", frozenset({"n"})))
    assert out.as_dict() == {
        "m": {"a", "b", "x", "zz"}, "n": {"a", "x", "zz"}, "o": {"zz"},
    }
    # a subdivision may take the outside label; members naming it keep it
    out = subdivide_edge(fam, SubdivisionStep("a", "b", "zz", frozenset({"n"})))
    assert out.members == fam.members
    assert out.host.adjacency()["zz"] == {"a", "b"}
    # once the label is a host vertex, the members naming it hold it there
    transcript = [
        {"action": "add-leaf", "attach": "c", "new": "zz"},
        {"action": "subdivide", "v": "zz", "w": "c", "x": "x", "absorb": ["o"]},
    ]
    out = replay(fam, transcript)
    assert out.as_dict() == {
        "m": {"a", "b", "x", "zz"}, "n": {"a", "x", "zz"}, "o": {"x", "zz"},
    }
    assert out.host.edges == {("a", "b"), ("b", "c"), ("c", "x"), ("x", "zz")}
    # a step taking the outside label keeps the members that name it there,
    # so n = {a, zz}, joined once zz splits a-b, gains the split of a-zz
    transcript = [
        {"action": "subdivide", "v": "a", "w": "b", "x": "zz", "absorb": []},
        {"action": "subdivide", "v": "a", "w": "zz", "x": "y", "absorb": []},
    ]
    out = replay(fam, transcript)
    assert out.as_dict() == {
        "m": {"a", "b", "y", "zz"}, "n": {"a", "y", "zz"}, "o": {"zz"},
    }
    assert out.host.edges == {("a", "y"), ("y", "zz"), ("b", "zz"), ("b", "c")}


def test_replay_rejects_unknown_actions():
    fam = SubtreeFamily.build(Tree.build("ab", [("a", "b")]), [("m", ["a"])])
    with pytest.raises(InputError):
        replay(fam, [{"action": "warp"}])
