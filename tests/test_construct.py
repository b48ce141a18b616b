"""Tests for Yao/Theta construction against independent rescan oracles,
and of the numpy kernel against the scalar per-pair cone scan."""

import math
import random

import numpy as np
import pytest

from conegraph import construct
from conegraph.construct import (
    _BLOCK_PAIRS,
    _build_directed,
    build,
    build_directed_theta,
    build_directed_yao,
    undirect,
)
from conegraph.corpus import random_nodeset
from conegraph.geometry import Point, bisector_projection, cone_of
from conegraph.model import GeometricGraph, NodeSet, distance, graph_to_json, graphs_equal


def rescan_pick(nodes, u, i, k, family):
    """Independent per-cone argmin: scan every other node, recompute its
    cone, and track the best (key, index) pair."""
    pts = nodes.points
    best = None
    for v in range(len(pts)):
        if v == u or cone_of(pts[u], pts[v], k) != i:
            continue
        if family == "yao":
            key = distance(pts[u], pts[v])
        else:
            key = abs(bisector_projection(pts[u], pts[v], i, k))
        if best is None or (key, v) < best:
            best = (key, v)
    return best


def assert_minimal_build(nodes, k, family):
    g = build_directed_yao(nodes, k) if family == "yao" else build_directed_theta(nodes, k)
    pts = nodes.points
    seen_cones = set()
    for u, w in g.edges:
        i = cone_of(pts[u], pts[w], k)
        assert (u, i) not in seen_cones, "two edges from one cone"
        seen_cones.add((u, i))
        best = rescan_pick(nodes, u, i, k, family)
        assert best is not None and best[1] == w, (u, i, w, best)
    # every non-empty cone produced an edge
    for u in range(len(pts)):
        for v in range(len(pts)):
            if v != u:
                assert (u, cone_of(pts[u], pts[v], k)) in seen_cones
    # out-degree bound
    out = {}
    for u, _ in g.edges:
        out[u] = out.get(u, 0) + 1
    assert all(c <= k for c in out.values())


def test_two_node_sets_agree_across_families():
    ns = NodeSet([("u", Point(0.4, 0.2)), ("v", Point(-1.5, 3.0))])
    for k in (1, 2, 3, 6, 9):
        yao = build_directed_yao(ns, k)
        theta = build_directed_theta(ns, k)
        assert set(yao.edges) == {(0, 1), (1, 0)}
        assert graphs_equal(undirect(yao), undirect(theta))


def test_yao_minimality_random_30_nodes_k6():
    assert_minimal_build(random_nodeset(30, seed=21), 6, "yao")


def test_theta_minimality_random_30_nodes_k6():
    assert_minimal_build(random_nodeset(30, seed=22), 6, "theta")


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 7, 12])
@pytest.mark.parametrize("family", ["yao", "theta"])
def test_minimality_across_k(k, family):
    assert_minimal_build(random_nodeset(16, seed=100 + k), k, family)


def test_yao_k1_is_nearest_neighbor_graph():
    for seed in (31, 32, 33):
        ns = random_nodeset(20, seed=seed)
        g = build_directed_yao(ns, 1)
        assert len(g.edges) == 20
        for u, w in g.edges:
            dmin = min(
                distance(ns.points[u], ns.points[v]) for v in range(20) if v != u
            )
            assert distance(ns.points[u], ns.points[w]) == dmin


def test_undirect_collapses_mutual_pair():
    ns = NodeSet([("u", Point(0, 0)), ("v", Point(1, 0))])
    g = build_directed_yao(ns, 4)
    assert set(g.edges) == {(0, 1), (1, 0)}
    assert undirect(g).edges == ((0, 1),)


def test_undirect_keeps_one_way_edge():
    ns = NodeSet([("u", Point(0, 0)), ("v", Point(1, 0)), ("w", Point(2.1, 0))])
    g = build_directed_yao(ns, 1)
    # w->v is one-way (v's own nearest is u), yet v-w survives undirection
    assert set(g.edges) == {(0, 1), (1, 0), (2, 1)}
    assert undirect(g).edges == ((0, 1), (1, 2))


def test_undirect_rejects_undirected_input():
    g = undirect(build_directed_yao(random_nodeset(4, seed=1), 2))
    with pytest.raises(ValueError, match="already undirected"):
        undirect(g)


def test_undirected_edge_count_bounded_by_directed():
    ns = random_nodeset(20, seed=35)
    g = build_directed_yao(ns, 6)
    assert len(undirect(g).edges) <= len(g.edges)


def test_cone_correctness_of_edges():
    ns = random_nodeset(25, seed=36)
    for family in ("yao", "theta"):
        g = build(ns, family, 5, directed=True)
        for u, w in g.edges:
            assert 1 <= cone_of(ns.points[u], ns.points[w], 5) <= 5


def test_tie_break_picks_smallest_index():
    # three nodes equidistant east of u: indices 1..3 tie at distance 2
    ns = NodeSet([
        ("u", Point(0.0, 0.0)),
        ("p", Point(2.0, 0.0)),
        ("q", Point(0.0, 2.0)),
        ("r", Point(math.sqrt(2), math.sqrt(2))),
    ])
    g = build_directed_yao(ns, 1)
    picked = [w for (s, w) in g.edges if s == 0]
    assert picked == [1]  # p wins the tie by index


def test_theta_warning_flag_for_wide_cones():
    ns = random_nodeset(6, seed=40)
    for k in (1, 2):
        g = build_directed_theta(ns, k)
        assert g.warning is not None
        assert undirect(g).warning == g.warning
    assert build_directed_theta(ns, 3).warning is None
    assert build_directed_yao(ns, 1).warning is None


def test_build_rejects_bad_family_and_k():
    ns = random_nodeset(3, seed=41)
    with pytest.raises(ValueError, match="family"):
        build(ns, "delaunay", 4)
    with pytest.raises(ValueError):
        build_directed_yao(ns, 0)


@pytest.mark.parametrize("k", [0, -2, True, 2.5, "6", np.True_, np.int64(0), np.float64(6.0)])
@pytest.mark.parametrize("n", [1, 5])
def test_bad_k_raises_value_error(k, n):
    ns = random_nodeset(n, seed=42)
    for family in ("yao", "theta"):
        for directed in (True, False):
            with pytest.raises(ValueError, match="cone count"):
                build(ns, family, k, directed=directed)


@pytest.mark.parametrize("k", [np.int64(6), np.int32(2), np.uint8(1)])
@pytest.mark.parametrize("family", ["yao", "theta"])
def test_numpy_integer_k_builds_the_plain_int_graph(k, family):
    ns = random_nodeset(12, seed=8)
    builder = build_directed_yao if family == "yao" else build_directed_theta
    assert builder(ns, k) == builder(ns, int(k)) and type(builder(ns, k).k) is int
    for directed in (True, False):
        g = build(ns, family, k, directed=directed)
        assert type(g.k) is int
        assert graph_to_json(g) == graph_to_json(build(ns, family, int(k), directed=directed))


def test_single_node_graph_has_no_edges():
    ns = NodeSet([("solo", Point(0, 0))])
    g = build_directed_yao(ns, 5)
    assert g.edges == ()


# ---------------------------------------------------------------------------
# kernel against the scalar cone scan


def reference_build_directed(nodes, k, family):
    """The per-pair scalar cone scan: the oracle for the construction
    kernel. It builds through the public constructor, which checks it."""
    pts = nodes.points
    edges = []
    for u, pu in enumerate(pts):
        best = {}
        for v, pv in enumerate(pts):
            if v == u:
                continue
            i = cone_of(pu, pv, k)
            if family == "theta":
                key = abs(bisector_projection(pu, pv, i, k))
            else:
                key = distance(pu, pv)
            # strict < keeps the smallest node index on ties (v ascends)
            if i not in best or key < best[i][0]:
                best[i] = (key, v)
        edges.extend((u, v) for _, v in best.values())
    return GeometricGraph(family, k, True, nodes, tuple(sorted(edges)))


def assert_matches_reference(nodes, k, family):
    built = build(nodes, family, k, directed=True)
    want = reference_build_directed(nodes, k, family)
    assert built.edges == want.edges, (family, k, len(nodes))
    # what build returns passes the public constructor's edge check
    undirected = build(nodes, family, k)
    for g in (built, undirected):
        assert g == GeometricGraph(family, k, g.directed, nodes, g.edges)


def nodes_at(coords):
    return NodeSet((f"p{i}", Point(x, y)) for i, (x, y) in enumerate(coords))


@pytest.mark.parametrize("family", ["yao", "theta"])
def test_kernel_matches_reference_on_lattice(family):
    lattice = nodes_at((x, y) for x in range(12) for y in range(12))
    for k in range(1, 17):
        assert_matches_reference(lattice, k, family)


@pytest.mark.parametrize("family", ["yao", "theta"])
def test_kernel_matches_reference_on_boundary_rays_and_ties(family):
    # the origin sees points exactly on the N/E/S/W rays and the 45 degree
    # diagonals, two at each direction, so ties and cone boundaries meet
    rays = [(0, 0)] + [(r * dx, r * dy) for r in (1, 2)
                       for dx, dy in ((0, 1), (1, 1), (1, 0), (1, -1),
                                      (0, -1), (-1, -1), (-1, 0), (-1, 1))]
    # every point but the centre is at distance 5 from it
    circle = [(0, 0), (5, 0), (0, 5), (-5, 0), (0, -5),
              (3, 4), (4, 3), (-3, 4), (4, -3), (-4, -3), (-3, -4)]
    collinear = [(i, 2 * i + 1) for i in range(-4, 5)]
    # angle * k / 2pi underflows to 0 for the first point; it is in cone 1
    tiny_angle = [(0, 0), (5e-324, 1.0), (0.5, 1.0), (-0.5, 1.0)]
    for coords in (rays, circle, collinear, tiny_angle):
        for k in range(1, 17):
            assert_matches_reference(nodes_at(coords), k, family)


@pytest.mark.parametrize("family", ["yao", "theta"])
def test_kernel_matches_reference_on_one_and_two_nodes(family):
    for coords in ([(0.5, -2.0)], [(0, 0), (0, 1)], [(0, 0), (3, -1e-9)]):
        for k in range(1, 17):
            assert_matches_reference(nodes_at(coords), k, family)


def test_kernel_matches_reference_on_random_sets():
    rng = random.Random(2013)
    for trial in range(2000):
        n = rng.randint(2, 60)
        k = rng.randint(1, 16)
        family = rng.choice(["yao", "theta"])
        assert_matches_reference(random_nodeset(n, seed=trial), k, family)


@pytest.mark.parametrize("n", [300, 257])
def test_kernel_matches_reference_across_blocks(n):
    rows = _BLOCK_PAIRS // n
    assert rows < n and n % rows, "n must span blocks and leave a partial last one"
    ns = random_nodeset(n, seed=n)
    assert_matches_reference(ns, 6, "yao")
    assert_matches_reference(ns, 5, "theta")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e200])
@pytest.mark.parametrize("family", ["yao", "theta"])
def test_kernel_matches_reference_at_extreme_scales(scale, family):
    # squared differences underflow to 0 at 1e-200 and overflow to inf at
    # 1e200; the kernel must do whatever the scan does there
    ns = nodes_at([(0, 0), (scale, 0), (3 * scale, 0), (0, scale)])
    for k in range(1, 17):
        assert_matches_reference(ns, k, family)


@pytest.mark.parametrize("family", ["yao", "theta"])
def test_kernel_memory_does_not_grow_with_k(family):
    # cones far outnumber nodes; a per-cone table would need k entries
    ns = random_nodeset(20, seed=43)
    for k in (10**9, 10**18):
        assert_matches_reference(ns, k, family)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_kernel_picks_one_node_per_cone_when_differences_overflow():
    # coordinate differences of 3.4e308 are inf, and theta keys inf - inf
    # are NaN; every non-empty cone must still get exactly one pick
    big = 1.7e308
    ns = nodes_at([(big, big), (-big, -big), (0, 0), (big, -big), (-big, big)])
    pts = ns.points
    for k in range(1, 9):
        g = build_directed_theta(ns, k)
        for u in range(len(pts)):
            picked = [cone_of(pts[u], pts[w], k) for s, w in g.edges if s == u]
            occupied = {cone_of(pts[u], pts[v], k) for v in range(len(pts)) if v != u}
            assert sorted(picked) == sorted(occupied), (k, u)
        assert_matches_reference(ns, k, "yao")


# ---------------------------------------------------------------------------
# node sets of mixed sizes in one kernel call


def candidate_table(sizes):
    """The counterexample search's candidate table for node sets of these
    sizes, numbered one set after another: each node's row is its set's
    nodes, padded to the largest size by repeating the set's last node."""
    ends = np.cumsum(sizes)
    rows = np.minimum((ends - sizes)[:, None] + np.arange(max(sizes)), ends[:, None] - 1)
    return rows.repeat(sizes, axis=0)


def assert_batch_matches_per_graph(node_sets, k, family):
    """The kernel over node sets of any sizes, numbered one set after
    another with the search's candidate table, picks exactly the keys
    build_directed_* picks for each set alone, set after set, as u*N + v
    over all N nodes: no key is stray, repeated or out of range."""
    sizes = [len(ns) for ns in node_sets]
    x, y = (np.concatenate(c) for c in zip(*(ns.coordinates() for ns in node_sets)))
    n = len(x)
    keys = _build_directed(x, y, candidate_table(sizes), k, family)
    builder = build_directed_yao if family == "yao" else build_directed_theta
    want = []
    for ns, start in zip(node_sets, np.cumsum(sizes) - sizes):
        u, v = np.divmod(builder(ns, k).keys, len(ns))
        want.append((u + start) * n + v + start)
    assert keys.tolist() == np.concatenate(want).tolist(), (family, k)


def turned(coords, quarter_turns):
    for _ in range(quarter_turns):
        coords = [(-y, x) for x, y in coords]
    return coords


ONE_AND_TWO_NODE_SETS = [[(0, 0)], [(0, 0), (0, 1)], [(0, 0), (3, -1e-9)], [(0, 0), (-1, 0)],
                         [(2, 2), (1, 1)]]


@pytest.mark.parametrize("family", ["yao", "theta"])
def test_batch_matches_per_graph_on_lattices(family):
    # 144 nodes: one set's rows exceed a block, so blocks cut through sets
    lattice = [(x, y) for x in range(12) for y in range(12)]
    assert len(lattice) ** 2 > _BLOCK_PAIRS
    sets = [nodes_at(turned(lattice, q)) for q in range(3)]
    sets.insert(1, nodes_at(lattice[:30]))
    sets.append(nodes_at([(x + 0.5 * (y % 2), y * 0.75) for x, y in lattice]))
    sets[2:2] = map(nodes_at, ONE_AND_TWO_NODE_SETS)
    for k in (1, 2, 4, 5, 6, 12):
        assert_batch_matches_per_graph(sets, k, family)


@pytest.mark.parametrize("family", ["yao", "theta"])
def test_batch_matches_per_graph_on_rays_ties_and_two_nodes(family):
    rays = [(0, 0)] + [(r * dx, r * dy) for r in (1, 2)
                       for dx, dy in ((0, 1), (1, 1), (1, 0), (1, -1),
                                      (0, -1), (-1, -1), (-1, 0), (-1, 1))]
    sets = [nodes_at(turned(rays, q)) for q in range(4)]
    sets[1:1] = map(nodes_at, ONE_AND_TWO_NODE_SETS)
    sets.append(nodes_at(rays[:5]))
    for k in list(range(1, 17)) + [10**9, 10**18]:
        assert_batch_matches_per_graph(sets, k, family)
        assert_batch_matches_per_graph(list(map(nodes_at, ONE_AND_TWO_NODE_SETS)), k, family)


def test_batch_matches_per_graph_on_random_sets():
    rng = random.Random(7)
    for trial in range(300):
        sets = [random_nodeset(rng.randint(1, 12), seed=1000 * trial + b)
                for b in range(rng.randint(1, 40))]
        assert_batch_matches_per_graph(sets, rng.randint(1, 8), rng.choice(["yao", "theta"]))


@pytest.mark.parametrize("block", [_BLOCK_PAIRS, 1, 500])
def test_batch_of_mixed_sizes_across_kernel_blocks(monkeypatch, block):
    # blocks of many rows, of one row, and of a few rows: each cuts through
    # sets of other sizes, 1- and 2-node sets included
    monkeypatch.setattr(construct, "_BLOCK_PAIRS", block)
    rng = random.Random(12)
    sizes = [1, 2, 40] + [rng.randint(1, 40) for _ in range(45)]
    sets = [random_nodeset(n, seed=300 + b) for b, n in enumerate(sizes)]
    assert sum(sizes) * max(sizes) > 2 * _BLOCK_PAIRS
    for family, k in (("yao", 1), ("yao", 6), ("theta", 3), ("theta", 7)):
        assert_batch_matches_per_graph(sets, k, family)
