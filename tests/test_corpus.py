"""Tests for the shipped counter-example corpus and the randomized
counterexample search."""

import json
import random
from dataclasses import replace

import numpy as np
import pytest

from conegraph import corpus, voidcheck
from conegraph.construct import build, undirect, build_directed_theta, build_directed_yao
from conegraph.corpus import (
    CorpusEntry,
    load_corpus,
    random_nodeset,
    search_counterexample,
    validate_entry,
    validate_v2_constraints,
)
from conegraph.geometry import Point
from conegraph.model import NodeSet, distance, graphs_equal
from conegraph.voidcheck import check_void_free, has_void


def entry(name):
    return next(e for e in load_corpus() if e.name == name)


def moved(ns, label, point):
    return NodeSet((i, point if i == label else p) for i, p in ns.nodes)


# ---------------------------------------------------------------------------
# shipped entries


def test_corpus_has_three_entries_with_expected_shapes():
    entries = load_corpus()
    assert [e.name for e in entries] == ["V0", "V1", "V2"]
    assert len(entries[0].nodes) == 4
    assert len(entries[1].nodes) == 6
    assert len(entries[2].nodes) == 6
    assert entries[0].applicable_k == (1, 2, 3)
    assert entries[1].applicable_k == (4,)
    assert entries[2].applicable_k == (5,)
    for e in entries:
        assert e.expected_witness == ("u", "v")


def test_every_entry_validates():
    for e in load_corpus():
        assert validate_entry(e) == []


def test_v0_yao1_is_exactly_the_two_pair_edges():
    v0 = entry("V0")
    g = undirect(build_directed_yao(v0.nodes, 1))
    want = {
        tuple(sorted((v0.nodes.index_of("u"), v0.nodes.index_of("a")))),
        tuple(sorted((v0.nodes.index_of("v"), v0.nodes.index_of("b")))),
    }
    assert set(g.edges) == want
    assert g.neighbors(v0.nodes.index_of("u")) == (v0.nodes.index_of("a"),)


def test_v0_yao2_equals_yao3():
    v0 = entry("V0")
    g2 = undirect(build_directed_yao(v0.nodes, 2))
    g3 = undirect(build_directed_yao(v0.nodes, 3))
    assert graphs_equal(g2, g3)


def test_entries_nodes_outside_circle():
    for e in load_corpus():
        r = distance(e.nodes.point_of("u"), e.nodes.point_of("v"))
        for label in e.outside_circle:
            assert distance(e.nodes.point_of(label), e.nodes.point_of("v")) > r


def test_theta_equals_yao_on_every_entry():
    for e in load_corpus():
        for k in e.applicable_k:
            yao = undirect(build_directed_yao(e.nodes, k))
            theta = undirect(build_directed_theta(e.nodes, k))
            assert graphs_equal(yao, theta)


@pytest.mark.parametrize("name, ks, want", [
    ("V1", (2,), ["yao and theta graphs differ at k=2"]),
    ("V0", (4,), ["yao graph at k=4 lacks the (u,v) witness",
                  "theta graph at k=4 lacks the (u,v) witness"]),
])
def test_validate_entry_reports_a_k_it_does_not_hold_for(name, ks, want):
    assert validate_entry(replace(entry(name), applicable_k=ks)) == want


def test_validate_entry_reports_a_node_inside_the_circle():
    v0 = entry("V0")
    u, v = v0.nodes.point_of("u"), v0.nodes.point_of("v")
    bad = replace(v0, nodes=moved(v0.nodes, "a", Point((u.x + v.x) / 2, (u.y + v.y) / 2)))
    assert validate_entry(bad)[0] == "a inside C_v"


# ---------------------------------------------------------------------------
# V2 constraint audit


def test_v2_constraints_pass_on_shipped_coordinates():
    assert validate_v2_constraints(entry("V2")) == []


def test_v2_rejects_wrong_entry():
    with pytest.raises(ValueError, match="V2"):
        validate_v2_constraints(entry("V0"))


def test_v2_detects_d_moved_out_of_its_cone():
    v2 = entry("V2")
    # push d south of v into c(v,3)
    v_pt = v2.nodes.point_of("v")
    bad = CorpusEntry(
        "V2",
        moved(v2.nodes, "d", Point(v_pt.x - 0.5, v_pt.y - 3.0)),
        v2.applicable_k,
        v2.expected_witness,
        v2.outside_circle,
    )
    assert "d not in c(v,4)" in validate_v2_constraints(bad)


def test_v2_detects_c_moved_inside_circle():
    v2 = entry("V2")
    v_pt = v2.nodes.point_of("v")
    u_pt = v2.nodes.point_of("u")
    mid = Point((u_pt.x + v_pt.x) / 2, (u_pt.y + v_pt.y) / 2)
    bad = CorpusEntry(
        "V2",
        moved(v2.nodes, "c", mid),
        v2.applicable_k,
        v2.expected_witness,
        v2.outside_circle,
    )
    assert "c inside C_v" in validate_v2_constraints(bad)


def test_v2_detects_v_off_the_ray():
    v2 = entry("V2")
    bad = CorpusEntry(
        "V2",
        moved(v2.nodes, "v", Point(1.0, 10.0)),  # well inside c(u,1), far from l_2
        v2.applicable_k,
        v2.expected_witness,
        v2.outside_circle,
    )
    assert any("trailing ray" in v for v in validate_v2_constraints(bad))


# ---------------------------------------------------------------------------
# random_nodeset


def test_random_nodeset_single_node():
    ns = random_nodeset(1, seed=0)
    assert len(ns) == 1


def test_random_nodeset_deterministic():
    a = random_nodeset(50, seed=77)
    b = random_nodeset(50, seed=77)
    assert a.ids == b.ids
    assert all(p.x == q.x and p.y == q.y for p, q in zip(a.points, b.points))


def test_random_nodeset_rejects_nonpositive():
    with pytest.raises(ValueError):
        random_nodeset(0, seed=1)


def test_random_nodeset_mass_self_test():
    # generator invariants across many seeds: distinct ids, distinct
    # coordinates, all in the unit square
    for seed in range(1000):
        ns = random_nodeset(50, seed=seed)
        assert len(ns) == 50
        assert len(set(ns.ids)) == 50
        assert len({(p.x, p.y) for p in ns.points}) == 50
        assert all(0 <= p.x < 1 and 0 <= p.y < 1 for p in ns.points)


# ---------------------------------------------------------------------------
# search_counterexample


def test_search_yao_k1_finds_fast():
    result = search_counterexample("yao", 1, n_nodes=4, seed=5, budget=5_000)
    assert result.found
    g = build(result.nodes, "yao", 1)
    assert not check_void_free(g).void_free


def test_search_rejects_k_outside_range():
    with pytest.raises(ValueError, match="theorem guarantees no counterexample"):
        search_counterexample("yao", 6)
    with pytest.raises(ValueError, match="theorem guarantees no counterexample"):
        search_counterexample("theta", 0)


def test_search_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        search_counterexample("gabriel", 2)


def test_search_deterministic_given_seed():
    r1 = search_counterexample("theta", 3, seed=9, budget=100_000)
    r2 = search_counterexample("theta", 3, seed=9, budget=100_000)
    assert r1.found and r2.found
    assert r1.trials == r2.trials
    assert all(
        p.x == q.x and p.y == q.y for p, q in zip(r1.nodes.points, r2.nodes.points)
    )


def test_search_budget_exhaustion_reports_trials():
    # k=5 voids are rare; a tiny budget will miss
    result = search_counterexample("yao", 5, seed=1, budget=3)
    assert not result.found
    assert result.trials == 3


@pytest.mark.parametrize("n_nodes", [1, 0, -2])
def test_search_rejects_fewer_than_two_nodes(n_nodes):
    with pytest.raises(ValueError, match=f"need at least two nodes, got {n_nodes}"):
        search_counterexample("yao", 1, n_nodes=n_nodes, budget=5)


@pytest.mark.parametrize("budget", [0, -3])
def test_search_rejects_nonpositive_budget(budget):
    with pytest.raises(ValueError, match="budget"):
        search_counterexample("yao", 1, budget=budget)


def test_search_theta_k5_eight_nodes_within_budget():
    result = search_counterexample("theta", 5, n_nodes=8, seed=0, budget=1_000_000)
    assert result.found
    assert len(result.nodes) == 8
    assert not check_void_free(build(result.nodes, "theta", 5)).void_free


def test_search_result_revalidates():
    result = search_counterexample("theta", 2, seed=11, budget=10_000)
    assert result.found
    g = build(result.nodes, "theta", 2)
    report = check_void_free(g)
    assert not report.void_free


def test_sampler_draws_an_exact_duplicate_again():
    class Scripted:
        def __init__(self, values):
            self.values = iter(values)

        def random(self):
            return next(self.values)

    rng = Scripted([0.1, 0.2, 0.1, 0.2, 0.3, 0.4, 0.5])
    assert corpus._sample_points(rng, 2) == [0.1, 0.2, 0.3, 0.4]
    assert next(rng.values) == 0.5


def test_search_takes_numpy_integers():
    want = search_counterexample("theta", 3, n_nodes=5, seed=2, budget=40)
    got = search_counterexample("theta", np.int64(3), n_nodes=np.int32(5), seed=2,
                                budget=np.int64(40))
    assert (got.trials, got.nodes) == (want.trials, want.nodes)


@pytest.mark.parametrize("bad", [2.5, True, False, np.True_, np.float64(3.0), "3", None])
def test_search_rejects_non_integer_k(bad):
    with pytest.raises(ValueError, match="k must be an integer"):
        search_counterexample("yao", bad, budget=5)


@pytest.mark.parametrize("bad", [2.5, True, "4"])
def test_search_rejects_non_integer_node_count(bad):
    with pytest.raises(ValueError, match="node count must be an integer"):
        search_counterexample("yao", 1, n_nodes=bad, budget=5)


@pytest.mark.parametrize("bad", [2.5, True, "10", None])
def test_search_rejects_non_integer_budget(bad):
    with pytest.raises(ValueError, match="trial budget must be an integer"):
        search_counterexample("yao", 1, budget=bad)


# ---------------------------------------------------------------------------
# the speculative batches against the one-trial-at-a-time loop


def reference_points(rng, n):
    """The search's point sampler: n distinct uniform draws, a duplicate
    drawn again."""
    points, seen = [], set()
    while len(points) < n:
        xy = (rng.random(), rng.random())
        if xy in seen:
            continue
        seen.add(xy)
        points.append(Point(*xy))
    return points


def trial_node_sets(seed, n_nodes=None):
    """The node sets of trials 1, 2, ... in the order the search draws them."""
    rng = random.Random(seed)
    while True:
        n = n_nodes if n_nodes is not None else rng.randint(4, 8)
        yield NodeSet(zip((f"p{i}" for i in range(n)), reference_points(rng, n)))


def reference_search(family, k, n_nodes=None, seed=0, budget=1_000_000):
    """The search one trial at a time: build, then has_void, until the
    first graph with a void or the end of the budget."""
    for trial, nodes in zip(range(1, budget + 1), trial_node_sets(seed, n_nodes)):
        if has_void(build(nodes, family, k)):
            return trial, nodes
    return budget, None


def outcome(result):
    return result.trials, result.nodes


@pytest.mark.parametrize("n_nodes", [None, 2, 4, 8])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("family", ["yao", "theta"])
def test_search_matches_reference(family, k, n_nodes):
    # budgets 7 and 300 end inside a batch (trials 4..7, then 256..300).
    # The reference at budget 300 runs up to 300 per-graph trials; where
    # it seldom stops early (two nodes never have a void, and past k = 3
    # voids are rare) it runs on the first 6 seeds only.
    seldom = n_nodes == 2 or k > 3
    for seed in range(30):
        budgets = (1, 2, 3, 7) if seldom and seed >= 6 else (1, 2, 3, 7, 300)
        # a first-hit loop run to the largest budget gives every smaller one
        trials, nodes = reference_search(family, k, n_nodes, seed, budgets[-1])
        for budget in budgets:
            want = (trials, nodes) if nodes is not None and trials <= budget else (budget, None)
            got = search_counterexample(family, k, n_nodes, seed, budget)
            assert outcome(got) == want, (seed, budget)


@pytest.mark.parametrize("seed, voids, sizes", [
    (77, (2, 3), (7, 7)),  # the whole first batch, one size
    (16, (5, 7), (7, 6, 8, 5)),
    # trial 7's size group starts at trial 4 and is scanned before trial 5's
    (181, (5, 7), (6, 8, 8, 6)),
    (6, (11, 12), (7, 5, 4, 7, 8, 7, 6, 4)),
    (14, (10, 13), (8, 4, 6, 8, 7, 8, 4, 4)),
])
def test_search_reports_first_of_two_voids_in_one_batch(seed, voids, sizes):
    # batches hold trials 2..3, 4..7 and 8..15
    lo = len(sizes)
    node_sets = trial_node_sets(seed)
    drawn = [next(node_sets) for _ in range(2 * lo - 1)]
    found = [t for t, ns in enumerate(drawn, 1) if has_void(build(ns, "yao", 3))]
    assert tuple(found) == voids
    assert tuple(len(ns) for ns in drawn[lo - 1:]) == sizes
    result = search_counterexample("yao", 3, seed=seed, budget=100)
    assert outcome(result) == (voids[0], drawn[voids[0] - 1])


@pytest.mark.parametrize("block, sizes", [
    (64, [1] * 19),  # one 8-node set per block
    (3 * 64, [2, 3, 3, 3, 3, 3, 2]),
    (corpus._BLOCK_PAIRS, [2, 4, 8, 5]),  # doubling, the last batch cut by the budget
])
def test_search_batches_capped_by_the_block_size(monkeypatch, block, sizes):
    seen, real = [], corpus._first_void

    def first_void(batch, family, k):
        seen.append(len(batch))
        return real(batch, family, k)

    monkeypatch.setattr(corpus, "_BLOCK_PAIRS", block)
    monkeypatch.setattr(corpus, "_first_void", first_void)
    assert reference_search("yao", 5, seed=1, budget=20) == (20, None)
    assert outcome(search_counterexample("yao", 5, seed=1, budget=20)) == (20, None)
    assert seen == sizes
    for seed in range(6):
        for family, k in (("yao", 4), ("theta", 3)):
            want = reference_search(family, k, seed=seed, budget=20)
            assert outcome(search_counterexample(family, k, seed=seed, budget=20)) == want


def test_search_on_large_node_sets_uses_one_trial_batches():
    # 200 nodes: one set exceeds a construction block, so batches hold one trial
    want = reference_search("theta", 5, 200, seed=3, budget=3)
    assert outcome(search_counterexample("theta", 5, 200, seed=3, budget=3)) == want


@pytest.mark.parametrize("k, trials, scans", [
    (1, 1, 0),  # trial 1's has_void verdict stands without a second scan
    (3, 5, 1),  # a void in the batch of trials 4..7 is rebuilt and scanned
])
def test_search_scans_again_only_a_batch_hit(monkeypatch, k, trials, scans):
    calls = {"has_void": 0, "check_void_free": 0}

    def counted(name):
        real = getattr(corpus, name)

        def wrapper(g):
            calls[name] += 1
            return real(g)
        return wrapper

    for name in calls:
        monkeypatch.setattr(corpus, name, counted(name))
    assert search_counterexample("yao", k, seed=0, budget=100).trials == trials
    assert calls == {"has_void": 1, "check_void_free": scans}


def test_batch_verdict_is_confirmed_by_the_scan(monkeypatch):
    assert reference_search("yao", 5, seed=1, budget=3) == (3, None)
    monkeypatch.setattr(corpus, "_first_void", lambda batch, family, k: 0)
    with pytest.raises(RuntimeError, match="trial 2 is not confirmed"):
        search_counterexample("yao", 5, seed=1, budget=3)


@pytest.mark.parametrize("family, k, seed, budget, trials", [
    ("yao", 1, 0, 100, 1),  # a void at trial 1, before any batch
    ("yao", 3, 0, 100, 5),  # a void in the batch of trials 4..7
    ("theta", 5, 0, np.int64(100), 100),  # the budget runs out
])
def test_search_reports_trials_as_a_plain_int(family, k, seed, budget, trials):
    result = search_counterexample(family, k, seed=seed, budget=budget)
    assert result.trials == trials and type(result.trials) is int
    assert json.dumps(result.trials) == str(trials)


def test_search_batch_of_mixed_sizes_is_one_kernel_and_one_scan_pass(monkeypatch):
    calls, sizes = [], []

    def counted(name):
        real = getattr(voidcheck, name)

        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    for name in ("_build_directed", "_void_witnesses"):
        monkeypatch.setattr(voidcheck, name, counted(name))
    real_first_void = corpus._first_void

    def first_void(batch, family, k):
        sizes.append({len(coords) // 2 for coords in batch})
        calls.append("batch")
        return real_first_void(batch, family, k)

    monkeypatch.setattr(corpus, "_first_void", first_void)
    assert outcome(search_counterexample("yao", 5, seed=1, budget=20)) == (20, None)
    # batches of 2, 4, 8 and 5 trials; the last three mix 2 to 5 set sizes
    assert [len(s) for s in sizes] == [1, 3, 5, 2]
    # trial 1's has_void scans the matrix once; each batch is one kernel
    # pass and one scan pass
    batch = ["batch", "_build_directed", "_void_witnesses"]
    assert calls == ["_void_witnesses"] + batch * len(sizes)
