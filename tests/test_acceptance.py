"""Acceptance suite: one test per criterion, one printed line per criterion.

Every sweep is seeded, every tolerance is pinned here, and each criterion
asserts zero failures at its stated sample size (plus its stated runtime
bound where one applies).  Run with `pytest tests/test_acceptance.py -v -rA`.
"""

import random
import time

from helpers import K2, cycle_graph, random_graph, relations_preserved

from treerep import (
    SearchBudget,
    SimpleGraph,
    SubdivisionStep,
    bushiness,
    classify_tree,
    derive_graph,
    enumerate_chordless_cycles,
    gen_cover,
    gen_family,
    gen_tree,
    induced_subtree,
    is_covering_subtree,
    is_subdivision_of,
    mixed_to_bushy,
    normal_form_violations,
    normalize,
    overlap_to_mixed,
    recognize,
    search_mixed_partition,
    search_overlap_rep,
    star_rep_from_orientation,
    subdivide_edge,
    tree_isomorphic,
    verify_mixed_partition,
)


def report(name: str, failures: int, total: int, elapsed: float, limit=None):
    verdict = "PASS" if failures == 0 and (limit is None or elapsed < limit) else "FAIL"
    bound = f" (limit {limit:.0f}s)" if limit else ""
    print(
        f"{verdict}: {name} — {total - failures}/{total} ok "
        f"in {elapsed:.1f}s{bound}"
    )
    assert failures == 0
    if limit is not None:
        assert elapsed < limit


def test_criterion_1_subdivision_preserves_relations():
    rng = random.Random(1001)
    start = time.perf_counter()
    failures = 0
    total = 1000
    for _ in range(total):
        tree = gen_tree(rng.randint(2, 12), rng.randrange(10**9))
        fam = gen_family(tree, rng.randint(1, 8), rng.randrange(10**9))
        u, v = sorted(tree.edges)[rng.randrange(len(tree.edges))]
        v_end, w_end = (u, v) if rng.random() < 0.5 else (v, u)
        eligible = [n for n, vs in fam.members if v_end in vs]
        absorb = frozenset(n for n in eligible if rng.random() < 0.5)
        out = subdivide_edge(fam, SubdivisionStep(v_end, w_end, "x#a", absorb))
        if not relations_preserved(fam, out):
            failures += 1
    report(
        "criterion 1: edge subdivision preserves every pair relation",
        failures, total, time.perf_counter() - start, limit=30,
    )


def test_criterion_2_normalization():
    rng = random.Random(1002)
    start = time.perf_counter()
    failures = 0
    total = 500
    for _ in range(total):
        tree = gen_tree(rng.randint(2, 12), rng.randrange(10**9))
        fam = gen_family(tree, rng.randint(1, 8), rng.randrange(10**9))
        result = normalize(fam)
        ok = (
            normal_form_violations(result.family) == []
            and relations_preserved(fam, result.family)
            and is_subdivision_of(result.family.host, result.preprocessed_host)
        )
        if not ok:
            failures += 1
    report(
        "criterion 2: normalization reaches normal form, preserves relations, "
        "hosts stay subdivisions",
        failures, total, time.perf_counter() - start, limit=60,
    )


def test_criterion_3_mixed_round_trip():
    rng = random.Random(1003)
    start = time.perf_counter()
    failures = 0
    total = 300
    for _ in range(total):
        tree = gen_tree(rng.randint(2, 10), rng.randrange(10**9))
        cover = gen_cover(tree, rng.randrange(10**9))
        fam = gen_family(
            tree, rng.randint(1, 8), rng.randrange(10**9), "covered-by", cover
        )
        partition, certificate = overlap_to_mixed(fam, cover)
        if verify_mixed_partition(partition, certificate):
            failures += 1
            continue
        rebuilt = mixed_to_bushy(partition, certificate)
        core = frozenset(certificate.host.vertices)
        ok = (
            derive_graph(rebuilt, "overlap") == derive_graph(fam, "overlap")
            and tree_isomorphic(
                induced_subtree(rebuilt.host, core),
                induced_subtree(tree, cover),
            )[0]
            and is_covering_subtree(rebuilt, core)
            and bushiness(rebuilt.host, core).bushy
        )
        if not ok:
            failures += 1
    report(
        "criterion 3: covered family -> partition -> bushy family round-trip",
        failures, total, time.perf_counter() - start,
    )


def test_criterion_4_single_vertex_cover_is_cocomparability():
    rng = random.Random(1004)
    start = time.perf_counter()
    failures = 0
    total = 0
    for _ in range(300):
        total += 1
        tree = gen_tree(rng.randint(1, 10), rng.randrange(10**9))
        fam = gen_family(
            tree, rng.randint(1, 8), rng.randrange(10**9), "shared-vertex"
        )
        g = derive_graph(fam, "overlap")
        if not recognize(g, "cocomparability").holds:
            failures += 1
    for _ in range(200):
        total += 1
        g = random_graph(rng, max_n=6)
        result = recognize(g, "cocomparability")
        if not result.holds:
            continue
        back = star_rep_from_orientation(result.witness.payload)
        if derive_graph(back, "overlap") != g:
            failures += 1
    report(
        "criterion 4: single-vertex covers match cocomparability both ways",
        failures, total, time.perf_counter() - start,
    )


def test_criterion_5_four_cycle_fixtures():
    c4 = cycle_graph("1234")
    start = time.perf_counter()
    rep = search_overlap_rep(c4, SearchBudget(time_limit_seconds=10), K2)
    rep_elapsed = time.perf_counter() - start
    assert rep.found and derive_graph(rep.value, "overlap") == c4

    start = time.perf_counter()
    mixed = search_mixed_partition(c4, SearchBudget(time_limit_seconds=10))
    mixed_elapsed = time.perf_counter() - start
    assert mixed.found and verify_mixed_partition(mixed.value) == []

    start = time.perf_counter()
    two_k2 = SimpleGraph.build("1234", [("1", "2"), ("3", "4")])
    cochordal = recognize(two_k2, "cochordal").holds
    rec_elapsed = time.perf_counter() - start
    assert not cochordal

    worst = max(rep_elapsed, mixed_elapsed, rec_elapsed)
    print(
        f"PASS: criterion 5: 4-cycle fixtures — rep search {rep_elapsed:.2f}s, "
        f"partition search {mixed_elapsed:.2f}s, complement check "
        f"{rec_elapsed:.2f}s (limit 10s each)"
    )
    assert worst < 10


def test_criterion_6_path_covers_build_caterpillars():
    rng = random.Random(1006)
    start = time.perf_counter()
    failures = 0
    total = 100
    for _ in range(total):
        tree = gen_tree(rng.randint(2, 10), rng.randrange(10**9))
        cover = gen_cover(tree, rng.randrange(10**9), "path")
        fam = gen_family(
            tree, rng.randint(1, 8), rng.randrange(10**9), "covered-by", cover
        )
        partition, certificate = overlap_to_mixed(fam, cover)
        rebuilt = mixed_to_bushy(partition, certificate)
        if "caterpillar" not in classify_tree(rebuilt.host):
            failures += 1
    report(
        "criterion 6: path covers rebuild to caterpillar hosts",
        failures, total, time.perf_counter() - start,
    )


def test_criterion_7_oracle_agreement():
    rng = random.Random(1007)
    start = time.perf_counter()
    failures = 0
    total = 500
    statuses = {"found": 0, "none": 0, "inconclusive": 0}
    for _ in range(total):
        g = random_graph(rng, max_n=6)
        if recognize(g, "chordal").holds != (not enumerate_chordless_cycles(g)):
            failures += 1
            continue
        result = search_mixed_partition(g, SearchBudget(time_limit_seconds=30))
        statuses[result.status] += 1
        if result.found and verify_mixed_partition(result.value):
            failures += 1
    report(
        "criterion 7: recognizer/oracle agreement and verifier-clean searches "
        f"(found={statuses['found']}, none={statuses['none']}, "
        f"inconclusive={statuses['inconclusive']})",
        failures, total, time.perf_counter() - start,
    )
