"""Tests for Yao/Theta construction against independent rescan oracles,
and of the numpy kernel against the scalar per-pair cone scan."""

import importlib.util
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conegraph import construct, geometry
from conegraph.construct import (
    _BLOCK_PAIRS,
    _build_directed,
    build,
    build_directed_theta,
    build_directed_yao,
    undirect,
)
from conegraph.corpus import random_nodeset
from conegraph.geometry import _EPS, Point, _cones, _grid, bisector_projection, cone_of
from conegraph.model import GeometricGraph, NodeSet, distance, graph_to_json, graphs_equal
from conegraph.voidcheck import check_theta_cone_relay, check_yao_cone_relay


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


def source_cones(nodes, k):
    """Row u holds the cone of every node around node u, as cone_of gives
    it: the array formula geometry._cones, called once per source row,
    with cone_of's clamp to k. Entry u of row u is meaningless."""
    x, y = nodes.coordinates()
    return [[min(int(c), k) for c in _cones(x - x[u], y - y[u], k).tolist()] for u in range(len(x))]


def reference_build_directed(nodes, k, family):
    """The per-pair scalar cone scan: the oracle for the construction
    kernel. It builds through the public constructor, which checks it."""
    pts = nodes.points
    cones = source_cones(nodes, k)
    edges = []
    for u, pu in enumerate(pts):
        best = {}
        for v, pv in enumerate(pts):
            if v == u:
                continue
            i = cones[u][v]
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


# the origin sees points exactly on the N/E/S/W rays and the 45 degree
# diagonals, two at each direction, so ties and cone boundaries meet
RAYS = [(0, 0)] + [(r * dx, r * dy) for r in (1, 2)
                   for dx, dy in ((0, 1), (1, 1), (1, 0), (1, -1),
                                  (0, -1), (-1, -1), (-1, 0), (-1, 1))]


@pytest.mark.parametrize("family", ["yao", "theta"])
def test_kernel_matches_reference_on_lattice(family):
    lattice = nodes_at((x, y) for x in range(12) for y in range(12))
    for k in range(1, 17):
        assert_matches_reference(lattice, k, family)


@pytest.mark.parametrize("family", ["yao", "theta"])
def test_kernel_matches_reference_on_boundary_rays_and_ties(family):
    # every point but the centre is at distance 5 from it
    circle = [(0, 0), (5, 0), (0, 5), (-5, 0), (0, -5),
              (3, 4), (4, 3), (-3, 4), (4, -3), (-4, -3), (-3, -4)]
    collinear = [(i, 2 * i + 1) for i in range(-4, 5)]
    # angle * k / 2pi underflows to 0 for the first point; it is in cone 1
    tiny_angle = [(0, 0), (5e-324, 1.0), (0.5, 1.0), (-0.5, 1.0)]
    for coords in (RAYS, circle, collinear, tiny_angle):
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


def test_kernel_matches_reference_on_cone_rays(ray_sets):
    # the reference takes its cones from the kernel's array formula, so
    # points on cone rays land in the same cones on both sides
    for nodes, k in ray_sets(800, range(3, 17), seed=15):
        for family in ("yao", "theta"):
            assert_matches_reference(nodes, k, family)


@pytest.mark.parametrize("n", [300, 257])
def test_kernel_matches_reference_across_blocks(n):
    rows = _BLOCK_PAIRS // n
    assert rows < n and n % rows, "n must span blocks and leave a partial last one"
    ns = random_nodeset(n, seed=n)
    assert_matches_reference(ns, 6, "yao")
    assert_matches_reference(ns, 5, "theta")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("scale", [1e-200, 1e200, 2.0**-495, 2.0**505])
@pytest.mark.parametrize("family", ["yao", "theta"])
def test_kernel_matches_reference_at_extreme_scales(scale, family):
    # squared differences underflow to 0 at 1e-200 and overflow to inf at
    # 1e200; the kernel must do whatever the scan does there
    ns = nodes_at([(0, 0), (scale, 0), (3 * scale, 0), (0, scale)])
    for k in range(1, 17):
        assert_matches_reference(ns, k, family)
    # a set the grid path serves up to k = 6: at 2**-495 and 2**505 it runs
    # the certificate, whose key and span bounds send the others to the
    # shared row
    x, y = random_nodeset(construct._GRID_CONE_NODES * 6, seed=45).coordinates()
    coords = list(zip((x * scale).tolist(), (y * scale).tolist()))
    for k in range(3, 7):
        assert_grid_matches_shared_row(coords, k, family)


@pytest.mark.parametrize("family", ["yao", "theta"])
def test_kernel_memory_does_not_grow_with_k(family, monkeypatch):
    # cones far outnumber nodes; a per-cone table would need k entries
    ns = random_nodeset(20, seed=43)
    for k in (10**9, 10**18):
        assert_matches_reference(ns, k, family)
    # nor does the grid path's: at its size gate every table row holds 6k
    # candidates or more, so the certificate's (rows, k) arrays hold at most
    # a sixth of a table's entries, or one row
    k, sizes, cone_gaps = 40, [], geometry._Grid.cone_gaps

    def recorded(grid, rows, r, k):
        gap = cone_gaps(grid, rows, r, k)
        sizes.append(gap.size)
        return gap

    monkeypatch.setattr(geometry._Grid, "cone_gaps", recorded)
    big = random_nodeset(construct._GRID_CONE_NODES * k, seed=44)
    x, y = big.coordinates()
    builder = build_directed_yao if family == "yao" else build_directed_theta
    assert builder(big, k).keys.tolist() == _build_directed(
        x, y, np.arange(len(x))[None], k, family).tolist()
    assert sizes and max(sizes) <= max(construct._TABLE_ENTRIES // 6, k)


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
    keys = np.sort(_build_directed(x, y, candidate_table(sizes), k, family, np.arange(n))[0])
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
    sets = [nodes_at(turned(RAYS, q)) for q in range(4)]
    sets[1:1] = map(nodes_at, ONE_AND_TWO_NODE_SETS)
    sets.append(nodes_at(RAYS[:5]))
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


@pytest.mark.parametrize("k", [2**16 - 1, 2**16, 2**64 - 1, 2**70])
@pytest.mark.parametrize("family", ["yao", "theta"])
def test_kernel_matches_reference_at_sort_key_boundaries(k, family):
    # at these k a block's rows * (k + 1) is far above 2 * _BLOCK_PAIRS, so
    # the kernel numbers its (row, cone) groups compactly, and 2**64 - 1
    # rounds to 2**64 as a double. Lattice points due north of a node are in
    # its cone k, its row's last group; the 17 ray points fill many cones.
    lattice = [(x, y) for x in range(5) for y in range(6)]
    sets = [nodes_at(lattice), nodes_at(turned(lattice, 1)), nodes_at(RAYS),
            random_nodeset(60, seed=k % 997)]
    for ns in sets:
        assert_matches_reference(ns, k, family)
    assert_batch_matches_per_graph(sets + list(map(nodes_at, ONE_AND_TWO_NODE_SETS)), k, family)


# the origin sees the last two points at keys that are equal as doubles, in
# one cone: both families must pick the smaller index
TIES = [(0, 0), (1e8, 2e-5), (1e8, 1e-5)]


@pytest.mark.parametrize("k", [2**14 - 1, 2**14, 2**15])
@pytest.mark.parametrize("family", ["yao", "theta"])
def test_dense_and_compact_group_ids_agree_within_one_call(k, family, monkeypatch):
    # each call runs blocks of rows - 1 rows with compact (row, cone) ids,
    # then one row with dense ones: rows * (k + 1) crosses 2 * _BLOCK_PAIRS
    dense, cone_groups = [], construct._cone_groups

    def recorded(cone, k):
        g, cones = cone_groups(cone, k)
        dense.append(cones is None)
        return g, cones

    def crossing(rows, m):
        block = (rows - 1) * m
        assert (rows - 1) * (k + 1) > 2 * block >= k + 1
        monkeypatch.setattr(construct, "_BLOCK_PAIRS", block)

    monkeypatch.setattr(construct, "_cone_groups", recorded)
    lattice = nodes_at([(x, y) for x in range(14) for y in range(14)] + TIES[1:])
    crossing(len(lattice), len(lattice))
    assert_matches_reference(lattice, k, family)
    assert set(dense) == {False, True}
    sets = [lattice, nodes_at(TIES), nodes_at(RAYS)] + list(map(nodes_at, ONE_AND_TWO_NODE_SETS))
    rows = sum(map(len, sets))
    crossing(rows, len(lattice))
    dense.clear()
    assert_batch_matches_per_graph(sets, k, family)
    assert set(dense) == {False, True}


@pytest.mark.parametrize("family", ["yao", "theta"])
def test_relay_checks_agree_on_dense_and_compact_group_ids(family, monkeypatch):
    check = check_yao_cone_relay if family == "yao" else check_theta_cone_relay
    lattice = nodes_at([(x, y) for x in range(9) for y in range(9)] + TIES[1:])
    for k in (6, 12, 2**14):
        found = []
        for block in (1 << 30, 1):  # every block dense, then every block compact
            monkeypatch.setattr(construct, "_BLOCK_PAIRS", block)
            found.append(check(lattice, k))
        assert found[0] == found[1], (family, k)


# ---------------------------------------------------------------------------
# grid candidate tables against the shared row


def assert_grid_matches_shared_row(coords, k, family):
    """build_directed_*, with the grid path on at any size, gives the keys
    of the shared-row kernel over all nodes."""
    nodes = nodes_at(coords)
    x, y = nodes.coordinates()
    want = _build_directed(x, y, np.arange(len(x))[None], k, family)
    builder = build_directed_yao if family == "yao" else build_directed_theta
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_GRID_CONE_NODES", 0)
        got = builder(nodes, k).keys
    assert got.tolist() == want.tolist(), (family, k, len(nodes))


@st.composite
def lattices(draw):
    """Square, rotated square and hexagonal lattices: exact distance ties,
    and many points on one another's cone rays."""
    kind = draw(st.sampled_from(["square", "rotated", "hexagonal"]))
    step = 2.0 ** draw(st.integers(-3, 3))
    ij = [(i, j) for i in range(draw(st.integers(2, 14))) for j in range(draw(st.integers(2, 14)))]
    if kind == "hexagonal":
        return [((i + 0.5 * (j % 2)) * step, j * step * math.sqrt(3) / 2) for i, j in ij]
    if kind == "rotated":
        turn = draw(st.floats(0.0, math.tau))
        c, s = math.cos(turn) * step, math.sin(turn) * step
        return [(i * c - j * s, i * s + j * c) for i, j in ij]
    return [(i * step, j * step) for i, j in ij]


@st.composite
def on_cell_edges(draw):
    """2g**2 points of the lattice i/4g in the unit square, corners
    included: the grid path's cells are then 1/g wide, up to rounding, so
    their edges fall on or within an ulp of every fourth lattice line."""
    g = draw(st.integers(2, 7))
    grid = [(i / (4 * g), j / (4 * g)) for i in range(4 * g + 1) for j in range(4 * g + 1)]
    inner = draw(st.lists(st.sampled_from(grid[1:-1]), min_size=2 * g * g - 2,
                          max_size=2 * g * g - 2, unique=True))
    return [grid[0], grid[-1], *inner]


@st.composite
def on_cone_rays(draw):
    """Points on the cone rays of a few centres, at three distances, each
    moved by up to three ulps per coordinate."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    rays = draw(st.integers(3, 16))
    centres = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                            min_size=1, max_size=4, unique=True))

    def nudge(v):
        steps = rng.randint(-3, 3)
        for _ in range(abs(steps)):
            v = math.nextafter(v, math.copysign(math.inf, steps))
        return v

    points = {(float(cx), float(cy)): None for cx, cy in centres}
    for cx, cy in centres:
        for j in range(rays):
            for r in (0.5, 1.0, 1.5):
                t = j * math.tau / rays
                points[nudge(cx + r * math.sin(t)), nudge(cy + r * math.cos(t))] = None
    return list(points)


@st.composite
def clusters(draw):
    """8 Gaussian clusters of sigma 0.01 in the unit square, as the
    benchmark's `large` workload draws them."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    centres = [(0.1 + 0.8 * rng.random(), 0.1 + 0.8 * rng.random()) for _ in range(8)]
    points = {}
    for i in range(draw(st.integers(16, 240))):
        cx, cy = centres[i % 8]
        points[rng.gauss(cx, 0.01), rng.gauss(cy, 0.01)] = None
    return list(points)


@st.composite
def far_outliers(draw):
    """A cluster of 20 to 200 points plus 1 to 3 points 10**2 to 10**6 of its
    spans away, which lie outside the grid's cell box and are clamped into
    its edge cells."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    points = {(rng.gauss(0.5, 0.1), rng.gauss(0.5, 0.1)): None
              for _ in range(draw(st.integers(20, 200)))}
    for _ in range(draw(st.integers(1, 3))):
        far, turn = 10.0 ** draw(st.integers(2, 6)), draw(st.floats(0.0, math.tau))
        points[0.5 + far * math.cos(turn), 0.5 + far * math.sin(turn)] = None
    return list(points)


# Exact rescalings. Below a span of 2**-500 and from 2**510 on, the grid path
# hands the whole set to the shared row; anchoring a scaled-down set between
# two far corners keeps the grid on, with keys below the certificate's floor.
SCALES = [1.0, 2.0**-700, 2.0**-600, 2.0**600]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("points", [lattices(), on_cell_edges(), on_cone_rays(), clusters()],
                         ids=["lattices", "cell_edges", "cone_rays", "clusters"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_grid_matches_shared_row(points, data):
    scale = data.draw(st.sampled_from(SCALES), "scale")
    # a nudged zero underflows at 2**-600 and less: drop repeated points
    coords = list(dict.fromkeys((x * scale, y * scale) for x, y in data.draw(points, "points")))
    if scale != 1.0 and data.draw(st.booleans(), "anchored"):
        coords += [(-2.0, -2.0), (2.0, 2.0)]
    k = data.draw(st.integers(3, 16), "k")
    for family in ("yao", "theta"):
        assert_grid_matches_shared_row(coords, k, family)


def large_sets(seed):
    """The uniform and the clustered 1,000-node sets of the benchmark's
    `large` workload for a seed."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("large_workload", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [nodes_at((x, y) for _, x, y in rows) for rows in workloads.large_inputs(seed)]


@pytest.mark.parametrize("seed", [0, 8675309])
def test_grid_matches_shared_row_on_large_sets(seed):
    for nodes in large_sets(seed):
        coords = [(p.x, p.y) for p in nodes.points]
        # theta k = 3 has the widest cones, where lim = cos(pi/3 + _DELTA)
        # matters most
        for family, k in (("yao", 4), ("yao", 6), ("yao", 8), ("theta", 3), ("theta", 6)):
            assert_grid_matches_shared_row(coords, k, family)
        # an independent oracle: selection minimality in every cone, and
        # one selected neighbor in every non-empty one
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(construct, "_GRID_CONE_NODES", 0)
            for k in (6, 8):
                assert check_yao_cone_relay(nodes, k) == []
                assert check_theta_cone_relay(nodes, k) == []


def shaped_set(shape, n):
    """n points in the unit square of one of three shapes that a grid over
    the bounding box serves badly: one point 10**6 away ("one_outlier"), half
    of them in one Gaussian cluster of sigma 0.01 ("half_cluster"), or all
    within about 10**-3 of the diagonal ("near_line")."""
    rng = np.random.default_rng(n)
    p = rng.random((n, 2))
    if shape == "one_outlier":
        p[0] = (1e6, 0.5)
    elif shape == "half_cluster":
        p[: n // 2] = rng.normal(0.4, 0.01, (n // 2, 2))
    else:
        p[:, 1] = p[:, 0] + rng.normal(0.0, 1e-3, n)
    return list(dict.fromkeys(map(tuple, p.tolist())))


SHAPES = ["one_outlier", "half_cluster", "near_line"]


def gated_ks(n):
    """The k in 3..16 for which the grid path serves n nodes."""
    return range(3, min(16, n // construct._GRID_CONE_NODES) + 1)


@pytest.mark.parametrize("shape", SHAPES)
def test_grid_matches_shared_row_on_shaped_sets(shape):
    for n in (1200, 3000):
        coords = shaped_set(shape, n)
        for k in gated_ks(n):
            for family in ("yao", "theta"):
                assert_grid_matches_shared_row(coords, k, family)


@pytest.mark.parametrize("k", [33, 48])
def test_grid_matches_shared_row_above_k_32(k):
    # the grid path has no cap on k: uniform and 8-cluster sets of 150*k
    # nodes go through its tables, and give the shared row's keys
    tabled = []

    def kernel(x, y, cols, k, family, src=None):
        if cols.shape != (1, len(x)):
            tabled.append(len(src))
        return _build_directed(x, y, cols, k, family, src)

    n = construct._GRID_CONE_NODES * k
    rng = np.random.default_rng(k)
    centres = 0.1 + 0.8 * rng.random((8, 2))
    for p in (rng.random((n, 2)), centres[np.arange(n) % 8] + rng.normal(0.0, 0.01, (n, 2))):
        coords = list(dict.fromkeys(map(tuple, p.tolist())))
        for family in ("yao", "theta"):
            tabled.clear()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(construct, "_build_directed", kernel)
                assert_grid_matches_shared_row(coords, k, family)
            assert sum(tabled) >= len(coords)


def test_grid_certifies_most_nodes_of_uniform_and_clustered_sets(monkeypatch):
    # the equivalence tests would pass if every node fell through to the
    # shared row; on the benchmark's sets the first round must certify most
    # nodes, and few may reach the shared row
    tabled, shared = [], []

    def kernel(x, y, cols, k, family, src=None):
        (shared if cols.shape == (1, len(x)) else tabled).append(len(src))
        return _build_directed(x, y, cols, k, family, src)

    monkeypatch.setattr(construct, "_build_directed", kernel)
    uniform, clustered = large_sets(0)
    for nodes, k, second_round, last in ((uniform, 6, 0.15, 0.05), (clustered, 4, 0.2, 0.15)):
        tabled.clear()
        shared.clear()
        build_directed_yao(nodes, k)
        n = len(nodes)
        assert n <= sum(tabled) < (1 + second_round) * n
        assert sum(shared) < last * n


def test_grid_work_stays_near_linear_on_an_outlier_and_a_wide_box(monkeypatch):
    # a grid over the bounding box puts the one-outlier set's 2,999 other
    # nodes in one cell, so every block holds all n nodes: n**2 table entries
    rows = {"tabled": 0, "entries": 0, "shared": 0}

    def kernel(x, y, cols, k, family, src=None):
        if cols.shape == (1, len(x)):
            rows["shared"] += len(src)
        else:
            rows["tabled"] += len(src)
            rows["entries"] += cols.size
        return _build_directed(x, y, cols, k, family, src)

    monkeypatch.setattr(construct, "_build_directed", kernel)
    nodes = nodes_at(shaped_set("one_outlier", 3000))
    n = len(nodes)
    build_directed_yao(nodes, 4)
    assert n <= rows["tabled"] and rows["entries"] < 150 * n
    assert rows["shared"] < 0.05 * n
    # a core 10**-6 wide holds 98% of the nodes, and the rest spread over a
    # box 10**6 wide stretch the cell box: cells that the core's occupancy
    # sizes would far outnumber the nodes, and the cap keeps them O(n)
    rng = np.random.default_rng(5)
    core = np.concatenate([rng.random((2940, 2)) * 1e-6, rng.random((60, 2)) * 1e6])
    x, y = nodes_at(dict.fromkeys(map(tuple, core.tolist()))).coordinates()
    cap = geometry._MAX_CELLS * len(x)
    grid = _grid(x, y)
    assert grid.gx * grid.gy <= cap
    monkeypatch.setattr(geometry, "_MAX_CELLS", 10**6)
    grid = _grid(x, y)
    assert grid.gx * grid.gy > cap


# ---------------------------------------------------------------------------
# the grid's block query against a brute-force cell filter


def block_members(grid, r):
    """members[u, v] counts the times node v is gathered into u's block of
    radius r (one int, or one per node)."""
    n = len(grid.cx)
    count, nodes = grid.count(np.arange(n), r), grid.gather(np.arange(n), r)
    assert count.sum() == nodes.size
    members = np.zeros((n, n), int)
    np.add.at(members, (np.repeat(np.arange(n), count), nodes), 1)
    return members


def cell_places(grid, x, y):
    """Brute force: each node's place in cell units, its coordinates clamped
    into the grid's cell box, and its cell."""
    x0, x1, y0, y1 = grid.cells
    tx, ty = (np.clip(x, x0, x1) - x0) / grid.h, (np.clip(y, y0, y1) - y0) / grid.h
    return tx, ty, np.floor(tx).astype(int), np.floor(ty).astype(int)


@pytest.mark.parametrize("points", [lattices(), on_cell_edges(), clusters(), far_outliers()],
                         ids=["lattices", "cell_edges", "clusters", "far_outliers"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_grid_block_query_matches_brute_force(points, data):
    x, y = nodes_at(dict.fromkeys(data.draw(points, "points"))).coordinates()
    grid = _grid(x, y)
    n, h = len(x), grid.h
    tx, ty, cx, cy = cell_places(grid, x, y)
    # every node lies in a cell of the grid, at its clamped place
    assert (grid.cx == cx).all() and (grid.cy == cy).all()
    assert cx.max() < grid.gx and cy.max() < grid.gy
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    beyond = max(grid.gx, grid.gy) + 1
    dist = np.hypot(x - x[:, None], y - y[:, None])
    # radii that clip at every side of small grids, exceed the grid, or
    # differ per node
    for r in (0, 1, 2, 4, beyond, rng.integers(0, beyond + 1, n)):
        rr = np.broadcast_to(r, n)[:, None]
        inside = (abs(cx - cx[:, None]) <= rr) & (abs(cy - cy[:, None]) <= rr)
        # each block holds every node of the cells within r, once
        assert (block_members(grid, r) == inside).all()
        # gaps are the distances from the clamped places to the block sides
        # with cells beyond them
        lo_x, hi_x, lo_y, hi_y = cx - rr[:, 0], cx + rr[:, 0] + 1, cy - rr[:, 0], cy + rr[:, 0] + 1
        want = h * np.array([np.where(lo_x > 0, tx - lo_x, np.inf),
                             np.where(hi_x < grid.gx, hi_x - tx, np.inf),
                             np.where(lo_y > 0, ty - lo_y, np.inf),
                             np.where(hi_y < grid.gy, hi_y - ty, np.inf)])
        gaps = grid.gaps(np.arange(n), r)
        assert (np.isinf(gaps) == np.isinf(want)).all()
        assert np.allclose(gaps[np.isfinite(gaps)], want[np.isfinite(want)],
                           rtol=4 * _EPS, atol=h * _EPS)
        # from r = 1 on they bound the true distance to every node off the
        # block, clamped or not
        if np.all(r >= 1):
            assert (np.where(inside, np.inf, dist) >= gaps.min(0)[:, None]).all()
    # the radius for a distance holds every node within it: none, the
    # distance to a random node, which lies on the edge, any, and all
    for d in (np.zeros(n), dist[np.arange(n), rng.integers(0, n, n)],
              rng.random(n) * dist.max(), np.full(n, np.inf)):
        assert (block_members(grid, grid.radius(d)) >= (dist <= d[:, None])).all()
    # the radius for a node count is the least from 1 on whose block holds
    # that many nodes, or the span where none does; a block of radius r
    # holds the nodes whose cells are at most r apart in x and in y
    span = max(grid.gx, grid.gy, 2) - 1
    apart = np.sort(np.maximum(abs(cx - cx[:, None]), abs(cy - cy[:, None])), axis=1)
    rows = rng.permutation(n)[: max(1, n // 2)]
    for count in (1, 2, int(rng.integers(1, n + 1)), n, n + 1):
        want = np.maximum(apart[:, count - 1], 1) if count <= n else np.full(n, span)
        assert (grid.fill(rows, count) == want[rows]).all()


@pytest.mark.parametrize("points", [lattices(), on_cell_edges(), clusters(), far_outliers()],
                         ids=["lattices", "cell_edges", "clusters", "far_outliers"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_grid_cone_gaps_match_brute_force(points, data):
    x, y = nodes_at(dict.fromkeys(data.draw(points, "points"))).coordinates()
    grid = _grid(x, y)
    n = len(x)
    _, _, cx, cy = cell_places(grid, x, y)
    # the grid path has no cap on k, so k reaches above 32 too
    k = data.draw(st.integers(3, 64), "k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
    beyond = max(grid.gx, grid.gy) + 1
    dist = np.hypot(x - x[:, None], y - y[:, None])
    # the cone of v around u, as the construction kernel assigns it
    cone = _cones(x - x[:, None], y - y[:, None], k).astype(np.intp) - 1
    for r in (1, 2, 4, beyond, rng.integers(1, beyond + 1, n)):
        rr = np.broadcast_to(r, n)[:, None]
        off = ~((abs(cx - cx[:, None]) <= rr) & (abs(cy - cy[:, None]) <= rr))
        gap = grid.cone_gaps(np.arange(n), r, k)
        assert gap.shape == (n, k)
        # every gap is at least the least side gap
        assert (gap >= grid.gaps(np.arange(n), r).min(0)[:, None]).all()
        at = np.take_along_axis(gap, cone, axis=1)
        # a cone whose gap is +inf holds no node off the block, and each node
        # off u's block is at least its cone's gap from u
        assert not np.isinf(at[off]).any()
        assert (at[off] <= dist[off]).all()
