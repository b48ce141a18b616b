"""Tests for void detection, the routing oracle, and the cone-relay
geometry checks."""

import math
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_construct import (
    SCALES, SHAPES, clusters, gated_ks, large_sets, lattices, nodes_at, on_cell_edges, on_cone_rays,
    shaped_set, source_cones,
)

from conegraph import model, voidcheck
from conegraph.construct import build, build_directed_yao
from conegraph.corpus import load_corpus, random_nodeset
from conegraph.geometry import TAU, Point, bisector_projection, cone_of
from conegraph.model import (
    GeometricGraph, NodeSet, RouteResult, VoidWitness, _csr, _distances, distance,
)
from conegraph.routing import greedy_route, greedy_step
from conegraph.voidcheck import (
    VoidReport,
    check_by_routing,
    check_theta_cone_relay,
    check_void_free,
    check_yao_cone_relay,
    has_void,
    witness_report_dict,
)


def complete_graph(ns):
    n = len(ns)
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return GeometricGraph("yao", n, False, ns, edges)


def test_complete_graph_is_void_free():
    report = check_void_free(complete_graph(random_nodeset(12, seed=1)))
    assert report.void_free and not report.witnesses


def test_single_node_graph_is_vacuously_void_free():
    ns = NodeSet([("solo", Point(0, 0))])
    g = GeometricGraph("yao", 3, False, ns, ())
    assert check_void_free(g).void_free
    assert not has_void(g)


def test_check_rejects_directed_graph():
    g = build_directed_yao(random_nodeset(5, seed=2), 3)
    with pytest.raises(ValueError, match="undirected"):
        check_void_free(g)
    with pytest.raises(ValueError, match="undirected"):
        check_by_routing(g)
    with pytest.raises(ValueError, match="undirected"):
        has_void(g)


def test_corpus_v1_yao4_has_u_v_witness():
    v1 = next(e for e in load_corpus() if e.name == "V1")
    g = build(v1.nodes, "yao", 4)
    report = check_void_free(g)
    assert not report.void_free
    pairs = {(w.u, w.v) for w in report.witnesses}
    assert (v1.nodes.index_of("u"), v1.nodes.index_of("v")) in pairs


def test_corpus_v0_k2_routing_stuck_includes_u_v():
    v0 = next(e for e in load_corpus() if e.name == "V0")
    g = build(v0.nodes, "yao", 2)
    report = check_by_routing(g)
    assert not report.void_free
    pairs = {(w.u, w.v) for w in report.witnesses}
    assert (v0.nodes.index_of("u"), v0.nodes.index_of("v")) in pairs


def test_witnesses_sorted_and_sound():
    v0 = next(e for e in load_corpus() if e.name == "V0")
    for k in (1, 2, 3):
        g = build(v0.nodes, "yao", k)
        report = check_void_free(g)
        keys = [(w.u, w.v) for w in report.witnesses]
        assert keys == sorted(keys)
        for w in report.witnesses:
            assert w.u != w.v
            # re-verify by direct neighbor rescan with scalar distances
            duv = distance(g.nodes.points[w.u], g.nodes.points[w.v])
            best = min(
                (distance(g.nodes.points[x], g.nodes.points[w.v]) for x in g.neighbors(w.u)),
                default=math.inf,
            )
            assert w.d_uv == duv
            assert w.min_neighbor_distance == best
            assert best >= duv


def reference_void_witnesses(g):
    """Pure-Python pair scan on scalar distances, the reference for the
    numpy kernel behind check_void_free and has_void."""
    pts = g.nodes.points
    d = [[distance(p, q) for q in pts] for p in pts]
    witnesses = []
    for u in range(len(pts)):
        nbrs = g.neighbors(u)
        for v in range(len(pts)):
            if u == v:
                continue
            best = min((d[w][v] for w in nbrs), default=math.inf)
            if not best < d[u][v]:
                witnesses.append(VoidWitness(u, v, d[u][v], best))
    return witnesses


def test_has_void_agrees_with_full_scan(monkeypatch):
    graphs = []
    for seed in range(40):
        k = 1 + seed % 8
        ns = random_nodeset(3 + seed % 12, seed=seed)
        graphs.append(build(ns, "yao" if seed % 2 else "theta", k))
    lattice = NodeSet((f"g{x}_{y}", Point(x, y)) for x in range(12) for y in range(12))
    collinear = NodeSet((f"c{i}", Point(i, 2 * i)) for i in range(9))
    for family in ("yao", "theta"):
        graphs.extend(build(lattice, family, k) for k in range(1, 13))
        graphs.extend(build(collinear, family, k) for k in (1, 2, 3, 6))
        graphs.extend(build(random_nodeset(n, seed=n), family, k)
                      for n in (1, 2) for k in (1, 6))
    ns = random_nodeset(12, seed=21)
    # a star: the center's degree is 11 and every leaf's is 1, so most of
    # the neighbor table is padding
    graphs.append(GeometricGraph("yao", 12, False, ns, tuple((0, j) for j in range(1, 12))))
    # a path with isolated nodes, first, last and in between
    graphs.append(GeometricGraph("yao", 2, False, ns, ((1, 2), (2, 3), (3, 5), (5, 9))))
    graphs.append(GeometricGraph("yao", 2, False, ns, ()))
    two = NodeSet([("a", Point(0, 0)), ("b", Point(1, 1))])
    graphs.append(GeometricGraph("yao", 2, False, two, ()))
    graphs.append(GeometricGraph("yao", 2, False, two, ((0, 1),)))
    # at the default block size this one spans two blocks, the last partial
    rows = voidcheck._SCAN_BLOCK // 200
    assert 100 <= rows < 200
    graphs.append(build(random_nodeset(200, seed=3), "yao", 3))
    expected = [reference_void_witnesses(g) for g in graphs]
    assert any(expected) and not all(expected)
    # the default, one row per block, and blocks of a few rows
    for block in (voidcheck._SCAN_BLOCK, 1, 500):
        monkeypatch.setattr(voidcheck, "_SCAN_BLOCK", block)
        for g, witnesses in zip(graphs, expected):
            assert list(check_void_free(g).witnesses) == witnesses
            assert has_void(g) == bool(witnesses)


def batch_witnesses(graphs):
    """Run the pair scan once over undirected graphs of any sizes, numbered
    one graph after another with the counterexample search's candidate
    table: each node's row is its graph's nodes, padded to the largest size
    by repeating the graph's last node. Returns every graph's witnesses,
    mapped back to its own nodes."""
    sizes = [len(g.nodes) for g in graphs]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    x, y = (np.concatenate(c) for c in zip(*(g.nodes.coordinates() for g in graphs)))
    n = len(x)
    cols = np.minimum(starts[:, None] + np.arange(max(sizes)), ends[:, None] - 1)
    cols = cols.repeat(sizes, axis=0)
    keys = []
    for g, start in zip(graphs, starts):
        u, v = np.divmod(g.keys, len(g.nodes))
        keys.append((u + start) * n + v + start)
    csr = _csr(np.concatenate(keys), n)
    found, last = [[] for _ in graphs], None
    for block in voidcheck._void_witnesses(_distances(x, y, cols), cols, *csr):
        for u, v, d, best in zip(*(a.tolist() for a in block)):
            b = int(starts.searchsorted(u, side="right")) - 1
            if (u, v) == last and v == ends[b] - 1:  # padded slots repeat the last node
                continue
            last = (u, v)
            found[b].append(VoidWitness(u - starts[b], v - starts[b], d, best))
    return found


def test_batch_scan_matches_per_graph(monkeypatch):
    lattice = NodeSet((f"g{x}_{y}", Point(x, y)) for x in range(12) for y in range(12))
    rays = NodeSet([("o", Point(0, 0))] + [
        (f"r{r}{i}", Point(r * dx, r * dy)) for r in (1, 2)
        for i, (dx, dy) in enumerate(((0, 1), (1, 1), (1, 0), (1, -1),
                                      (0, -1), (-1, -1), (-1, 0), (-1, 1)))])
    ns = random_nodeset(12, seed=21)
    small = ([build(random_nodeset(1, seed=0), "yao", 1)]
             + [build(random_nodeset(2, seed=s), "yao", 1) for s in range(3)]
             + [GeometricGraph("yao", 2, False, random_nodeset(2, seed=9), ())])
    batches = [
        [build(lattice, family, k) for family in ("yao", "theta") for k in (1, 4, 6, 10**18)]
        + small,
        small[::-1]
        + [build(rays, family, k) for family in ("yao", "theta") for k in (1, 2, 3, 5, 8, 10**18)],
        # a star, an isolated-node path and an empty graph: most slots are padding
        [GeometricGraph("yao", 12, False, ns, tuple((0, j) for j in range(1, 12))),
         small[0],
         GeometricGraph("yao", 2, False, ns, ((1, 2), (2, 3), (3, 5), (5, 9))),
         GeometricGraph("yao", 2, False, ns, ()),
         small[1],
         build(ns, "theta", 2)],
        [build(random_nodeset(1 + s % 8, seed=s), "yao" if s % 2 else "theta", 1 + s % 5)
         for s in range(100)],
    ]
    expected = [[list(check_void_free(g).witnesses) for g in batch] for batch in batches]
    assert all(any(w) and not all(w) for w in expected)
    # the default, one row per block, and blocks of a few rows
    for block in (voidcheck._SCAN_BLOCK, 1, 500):
        monkeypatch.setattr(voidcheck, "_SCAN_BLOCK", block)
        for batch, want in zip(batches, expected):
            assert batch_witnesses(batch) == want
            assert [bool(w) for w in want] == [has_void(g) for g in batch]


# ---------------------------------------------------------------------------
# the cell-bounded scan against the distance-matrix scan


def assert_cell_scan_matches_matrix(g):
    """check_void_free and has_void, with the cell scan on at any size, give
    the matrix scan's witnesses and verdict on the undirected graph g, and
    build no distance matrix where the grid serves the set."""
    copy = GeometricGraph._from_keys(g.family, g.k, False, g.nodes, g.keys)
    scan = voidcheck._void_witnesses(copy.dist_matrix, np.arange(len(g.nodes))[None], *copy.csr)
    want = [VoidWitness(*w) for block in scan for w in zip(*(a.tolist() for a in block))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(voidcheck, "_CELL_SCAN_NODES", 0)
        assert list(check_void_free(g).witnesses) == want, (g.family, g.k, len(g.nodes))
        assert has_void(g) == bool(want)
    if g.nodes._grid is not None:
        assert "dist_matrix" not in g.__dict__


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("points", [lattices(), on_cell_edges(), on_cone_rays(), clusters()],
                         ids=["lattices", "cell_edges", "cone_rays", "clusters"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cell_scan_matches_matrix_scan(points, data):
    scale = data.draw(st.sampled_from(SCALES), "scale")
    coords = list(dict.fromkeys((x * scale, y * scale) for x, y in data.draw(points, "points")))
    if scale != 1.0 and data.draw(st.booleans(), "anchored"):
        coords += [(-2.0, -2.0), (2.0, 2.0)]
    k = data.draw(st.integers(3, 16), "k")
    for family in ("yao", "theta"):
        assert_cell_scan_matches_matrix(build(nodes_at(coords), family, k))


@pytest.mark.parametrize("seed", [0, 8675309])
def test_cell_scan_matches_matrix_scan_on_large_sets(seed):
    for nodes in large_sets(seed):
        for family, k in (("yao", 3), ("yao", 4), ("yao", 6), ("yao", 8), ("yao", 12),
                          ("theta", 3), ("theta", 6)):
            assert_cell_scan_matches_matrix(build(nodes, family, k))


@pytest.mark.parametrize("shape", SHAPES)
def test_cell_scan_matches_matrix_scan_on_shaped_sets(shape):
    for n in (1200, 3000):
        nodes = nodes_at(shaped_set(shape, n))
        for k in gated_ks(n):
            for family in ("yao", "theta"):
                assert_cell_scan_matches_matrix(build(nodes, family, k))


def test_cell_scan_matches_matrix_scan_on_sparse_graphs():
    # isolated nodes, a star and graphs with most edges dropped: cells that
    # reach the bounding box, and nodes without a certified reach
    ns = random_nodeset(80, seed=17)
    yao = build(ns, "yao", 6)
    rng = np.random.default_rng(17)
    graphs = [GeometricGraph("yao", 3, False, ns, ()),
              GeometricGraph("yao", 3, False, ns, tuple((0, j) for j in range(1, 80))),
              GeometricGraph("yao", 3, False, ns, ((1, 2), (2, 3), (3, 5), (5, 9)))]
    for keep in (0.2, 0.5, 0.8):
        edges = [e for e in yao.edges if rng.random() < keep]
        graphs.append(GeometricGraph("yao", 6, False, ns, tuple(edges)))
    for g in graphs:
        assert_cell_scan_matches_matrix(g)


def test_cell_scan_keeps_targets_that_doubles_cannot_separate():
    # u's neighbor w is 1e-17 east of it, so u's cell ends just east of u and
    # v lies outside it; but d(w, v) rounds to d(u, v) = 1, so (u, v) is a
    # witness in doubles, and u's reach must not be certified
    ns = nodes_at([(0.0, 0.0), (1e-17, 0.0), (1.0, 0.0), (-0.5, 0.5), (-0.5, -0.5)])
    g = GeometricGraph("yao", 3, False, ns, ((0, 1),))
    assert_cell_scan_matches_matrix(g)
    assert (0, 2) in [(w.u, w.v) for w in check_void_free(g).witnesses]


def test_cell_scan_certifies_most_nodes_of_uniform_and_clustered_sets(monkeypatch):
    # the equivalence tests would pass if every node scanned every target; on
    # the benchmark's sets the cells must keep a few targets per node, and
    # few nodes may go without a certified reach. Reach pieces hold at most
    # _CELL_ENTRIES padded q's, or one row, and give the reaches of one call
    # over all rows
    kept, reaches = [], []
    nearest_of, reach_of = voidcheck._nearest, voidcheck._cell_reach

    def nearest(x, y, u, v, indptr, indices):
        kept.append(len(u))
        return nearest_of(x, y, u, v, indptr, indices)

    def reach(grid, indptr, indices, src):
        deg = indptr[src + 1] - indptr[src]
        assert len(src) * (deg.max() + 4) <= voidcheck._CELL_ENTRIES or len(src) == 1
        reaches.append((src, reach_of(grid, indptr, indices, src)))
        return reaches[-1][1]

    monkeypatch.setattr(voidcheck, "_nearest", nearest)
    monkeypatch.setattr(voidcheck, "_cell_reach", reach)
    uniform, clustered = large_sets(0)
    for nodes, k, most in ((uniform, 6, 5), (clustered, 4, 40)):
        kept.clear()
        reaches.clear()
        g = build(nodes, "yao", k)
        check_void_free(g)
        n = len(nodes)
        assert n <= sum(kept) <= most * n
        pieced = np.full(n, np.nan)
        for src, r in reaches:
            pieced[src] = r
        whole = reach_of(g.nodes._grid, *g.csr, np.arange(n))
        assert pieced.tobytes() == whole.tobytes()
        assert np.isinf(whole).sum() < 0.05 * n


def test_void_scan_of_3000_nodes_builds_no_distance_matrix():
    # the 3,000 x 3,000 distance matrix alone takes 69 MiB
    g = build(random_nodeset(3000, seed=16), "yao", 6)
    g.csr
    for scan in (check_void_free, has_void):
        tracemalloc.start()
        try:
            scan(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "dist_matrix" not in g.__dict__
        assert peak < 10 * 2**20, scan.__name__


def test_one_grid_per_node_set(monkeypatch):
    # construction and the cell scan share the node set's grid: its builds,
    # scans and void checks index the nodes once, and a set below both size
    # gates never does
    calls = []
    grid_of = model._grid

    def counted(x, y):
        calls.append(len(x))
        return grid_of(x, y)

    monkeypatch.setattr(model, "_grid", counted)
    for nodes in [*large_sets(0), random_nodeset(60, seed=60)]:
        calls.clear()
        for family, k in (("yao", 4), ("yao", 6), ("theta", 6)):
            g = build(nodes, family, k)
            check_void_free(g)
            has_void(g)
        assert calls == ([len(nodes)] if len(nodes) >= 500 else [])


def test_routing_oracle_agrees_on_random_graphs():
    # differential test across families and k values
    for seed in range(60):
        k = 1 + seed % 12
        n = 2 + seed % 14
        ns = random_nodeset(n, seed=1000 + seed)
        g = build(ns, "yao" if seed % 2 else "theta", k)
        assert check_by_routing(g) == check_void_free(g)


def reference_step(g, u, t):
    """One greedy hop from u toward t, kept apart from routing's _hop: the
    distance to t of u's neighbor nearest it (model.distance over
    g.neighbors, ties to the smallest index; +inf when u is isolated), and
    that neighbor, or None unless it is strictly closer to t than u is."""
    pts = g.nodes.points
    best, nxt = math.inf, None
    for w in g.neighbors(u):
        d = distance(pts[w], pts[t])
        if d < best:
            best, nxt = d, w
    return best, (nxt if best < distance(pts[u], pts[t]) else None)


def reference_route(g, s, t, step=reference_step):
    """greedy_route by reference_step, or by step with its signature."""
    path = [s]
    while path[-1] != t:
        best, nxt = step(g, path[-1], t)
        if nxt is None:
            return RouteResult(delivered=False, path=tuple(path), stuck=path[-1],
                               best_neighbor_distance=best)
        path.append(nxt)
    return RouteResult(delivered=True, path=tuple(path))


def reference_routing_report(g):
    """Greedy-route every ordered pair by reference_route and collect the
    (stuck node, target) pairs: the all-pairs reference for check_by_routing's
    first-step test. Routes toward one target share their steps, so each
    step is taken once."""
    n = len(g.nodes)
    steps = {}

    def step(g, u, t):
        if (u, t) not in steps:
            steps[u, t] = reference_step(g, u, t)
        return steps[u, t]

    stuck = {}
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            result = reference_route(g, s, t, step)
            if not result.delivered:
                stuck.setdefault((result.stuck, t), result.best_neighbor_distance)
    witnesses = tuple(
        VoidWitness(u, v, g.dist(u, v), best) for (u, v), best in sorted(stuck.items())
    )
    return VoidReport(void_free=not witnesses, witnesses=witnesses)


def routing_graphs(side, count):
    """count random graphs of 1 to 30 nodes, a side x side integer lattice (ties),
    a collinear set, one- and two-node sets, a neighbor exactly as far from the
    target as its source, and an isolated node (the last two graphs)."""
    graphs = []
    for seed in range(count):
        n = 1 + seed % 30
        k = 1 + (seed * 7) % 12
        family = "yao" if seed % 2 else "theta"
        graphs.append(build(random_nodeset(n, seed=2000 + seed), family, k))
    lattice = NodeSet((f"g{x}_{y}", Point(x, y)) for x in range(side) for y in range(side))
    collinear = NodeSet((f"c{i}", Point(i, 2 * i)) for i in range(9))
    # one family per lattice k: a 144-node reference costs 20,592 routes
    graphs.extend(build(lattice, ("yao", "theta")[k % 2], k) for k in range(1, 13))
    for family in ("yao", "theta"):
        graphs.extend(build(collinear, family, k) for k in (1, 2, 3, 6))
        graphs.extend(build(random_nodeset(n, seed=n), family, k)
                      for n in (1, 2) for k in (1, 6))
    # u's only neighbor w is exactly as far from t as u: greedy stalls at u
    tie = NodeSet([("u", Point(0, 0)), ("w", Point(2, 0)), ("t", Point(1, 1))])
    graphs.append(GeometricGraph("yao", 2, False, tie, ((0, 1), (1, 2))))
    # w is isolated: its witnesses carry an infinite neighbor distance
    ns = NodeSet([("u", Point(0, 0)), ("v", Point(1, 0)), ("w", Point(5, 5))])
    graphs.append(GeometricGraph("yao", 2, False, ns, ((0, 1),)))
    return graphs


def test_routing_oracle_matches_reference():
    graphs = routing_graphs(12, 240)
    for g in graphs:
        report = check_by_routing(g)
        assert report == reference_routing_report(g)
        # the oracle's stuck pairs are stuck for greedy forwarding too
        for w in report.witnesses:
            assert greedy_step(g, w.u, w.v) is None
            assert greedy_route(g, w.u, w.v).best_neighbor_distance == w.min_neighbor_distance
    assert (0, 2) in {(w.u, w.v) for w in check_by_routing(graphs[-2]).witnesses}
    isolated = [w for w in check_by_routing(graphs[-1]).witnesses if w.u == 2]
    assert [w.v for w in isolated] == [0, 1]
    assert all(math.isinf(w.min_neighbor_distance) for w in isolated)


def test_greedy_route_matches_reference_route():
    # every pair, on a smaller lattice and fewer random graphs than the oracle
    # test, which routes only its witnesses
    for g in routing_graphs(5, 30):
        n = len(g.nodes)
        for s in range(n):
            for t in range(n):
                assert greedy_route(g, s, t) == reference_route(g, s, t), (s, t)
                if s != t:
                    assert greedy_step(g, s, t) == reference_step(g, s, t)[1]


def test_adding_the_pair_edge_removes_its_witness():
    v1 = next(e for e in load_corpus() if e.name == "V1")
    g = build(v1.nodes, "yao", 4)
    u = v1.nodes.index_of("u")
    v = v1.nodes.index_of("v")
    pairs = {(w.u, w.v) for w in check_void_free(g).witnesses}
    assert (u, v) in pairs
    patched = GeometricGraph(
        g.family, g.k, False, g.nodes,
        tuple(sorted(set(g.edges) | {(min(u, v), max(u, v))})),
    )
    patched_pairs = {(w.u, w.v) for w in check_void_free(patched).witnesses}
    assert (u, v) not in patched_pairs


@pytest.mark.parametrize("scale", [1, 4_000_000_000, 2**70])
def test_integer_points_match_float_points(scale):
    # integers must reach the kernels as doubles: int64 squares wrap past
    # about 3e9, and ints beyond int64 make object arrays
    coords = [(0, 0), (3, 1), (-2, 5), (7, -4), (1, 9), (-6, -3), (4, 4)]
    ints = NodeSet((f"p{i}", Point(x * scale, y * scale)) for i, (x, y) in enumerate(coords))
    floats = NodeSet((f"p{i}", Point(float(x * scale), float(y * scale)))
                     for i, (x, y) in enumerate(coords))
    for family in ("yao", "theta"):
        for k in (2, 4, 6):
            g, h = build(ints, family, k), build(floats, family, k)
            assert g.edges == h.edges
            assert check_void_free(g) == check_void_free(h)
            assert np.array_equal(g.dist_matrix, h.dist_matrix)
    assert check_yao_cone_relay(ints, 6) == check_yao_cone_relay(floats, 6) == []
    assert check_theta_cone_relay(ints, 7) == check_theta_cone_relay(floats, 7) == []


def test_witness_report_dict_uses_ids():
    v2 = next(e for e in load_corpus() if e.name == "V2")
    g = build(v2.nodes, "yao", 5)
    report = witness_report_dict(g, check_void_free(g))
    assert report["void_free"] is False
    assert any(w["u"] == "u" and w["v"] == "v" for w in report["witnesses"])
    for w in report["witnesses"]:
        assert set(w) == {"u", "v", "d_uv", "min_neighbor_d"}


def test_isolated_witness_serializes_inf_as_null():
    ns = NodeSet([("u", Point(0, 0)), ("v", Point(1, 0)), ("w", Point(5, 5))])
    g = GeometricGraph("yao", 2, False, ns, ((0, 1),))
    report = witness_report_dict(g, check_void_free(g))
    isolated = [w for w in report["witnesses"] if w["u"] == "w"]
    assert isolated and all(w["min_neighbor_d"] is None for w in isolated)


@pytest.mark.parametrize("nodes", [
    next(e for e in load_corpus() if e.name == "V0").nodes, random_nodeset(300, seed=0),
], ids=["V0", "random300"])
def test_witness_records_are_plain_named_tuples(nodes):
    g = build(nodes, "yao", 2)
    witnesses = check_void_free(g).witnesses
    assert witnesses and witnesses == check_by_routing(g).witnesses
    for w in witnesses:
        assert type(w) is VoidWitness
        assert [type(f) for f in w] == [int, int, float, float]
    w = witnesses[0]
    assert w == VoidWitness(*w) and hash(w) == hash(VoidWitness(*w))
    copy = pickle.loads(pickle.dumps(w))
    assert copy == w and type(copy) is VoidWitness
    with pytest.raises(AttributeError):
        w.u = 1


def test_witness_repr():
    assert repr(VoidWitness(0, 1, 0.5, math.inf)) == (
        "VoidWitness(u=0, v=1, d_uv=0.5, min_neighbor_distance=inf)")


# ---------------------------------------------------------------------------
# cone-relay geometry


def test_relay_checks_reject_small_k():
    ns = random_nodeset(5, seed=3)
    with pytest.raises(ValueError):
        check_yao_cone_relay(ns, 5)
    with pytest.raises(ValueError):
        check_theta_cone_relay(ns, 5)


@pytest.mark.parametrize("check", [check_yao_cone_relay, check_theta_cone_relay])
@pytest.mark.parametrize("k, message", [
    *((bad, "cone count must be an integer >= 1")
      for bad in ("6", None, True, 2.5, np.True_, np.float64(6.0))),
    (5, "cone angle exceeds pi/3"),
    (np.int64(5), "cone angle exceeds pi/3"),
])
def test_relay_checks_validate_k_first(check, k, message):
    with pytest.raises(ValueError, match=message):
        check(random_nodeset(5, seed=3), k)


@pytest.mark.parametrize("k", [np.int64(6), np.int32(7)])
def test_relay_checks_take_numpy_integer_k(k):
    ns = random_nodeset(30, seed=4)
    assert check_yao_cone_relay(ns, k) == check_yao_cone_relay(ns, int(k)) == []
    assert check_theta_cone_relay(ns, k) == check_theta_cone_relay(ns, int(k)) == []


def test_relay_two_nodes_trivially_pass():
    # a lone in-cone node is its own pick; no rival to test
    ns = NodeSet([("u", Point(0, 0)), ("w", Point(0.3, 0.8))])
    assert check_yao_cone_relay(ns, 6) == []
    assert check_theta_cone_relay(ns, 6) == []


def test_relay_collinear_case_passes():
    # w between u and v on one ray: angle zero, strict distance holds
    ns = NodeSet([("u", Point(0, 0)), ("w", Point(0.5, 0.5)), ("v", Point(2, 2))])
    assert check_yao_cone_relay(ns, 6) == []
    assert check_theta_cone_relay(ns, 6) == []


def test_relay_near_boundary_fixture_k6():
    # w on the trailing ray of cone 1, v just inside the leading ray:
    # the angle approaches pi/3 from below and the distance inequality
    # stays strict
    w = Point(0.5 * math.sin(TAU / 6), 0.5 * math.cos(TAU / 6))
    v = Point(math.sin(1e-6), math.cos(1e-6))
    ns = NodeSet([("u", Point(0, 0)), ("w", w), ("v", v)])
    assert check_yao_cone_relay(ns, 6) == []
    ang = math.atan2(abs(w.x * v.y - w.y * v.x), w.x * v.x + w.y * v.y)  # angle wuv
    assert math.pi / 3 - 1e-5 < ang < math.pi / 3
    assert distance(w, v) < distance(Point(0, 0), v)


def test_relay_theta_two_triangle_orientations():
    # the selected neighbor's angle at its projection foot can open
    # toward or away from the in-cone rival; both must pass
    same_side = NodeSet([
        ("u", Point(0, 0)),
        ("w", Point(0.6 * math.sin(math.radians(10)), 0.6 * math.cos(math.radians(10)))),
        ("v", Point(math.sin(math.radians(5)), math.cos(math.radians(5)))),
    ])
    opposite_side = NodeSet([
        ("u", Point(0, 0)),
        ("w", Point(0.6 * math.sin(math.radians(50)), 0.6 * math.cos(math.radians(50)))),
        ("v", Point(math.sin(math.radians(5)), math.cos(math.radians(5)))),
    ])
    assert check_theta_cone_relay(same_side, 6) == []
    assert check_theta_cone_relay(opposite_side, 6) == []


def test_relay_checks_clean_on_random_sets():
    for k in (6, 8, 12):
        for seed in (5, 6):
            ns = random_nodeset(40, seed=seed)
            assert check_yao_cone_relay(ns, k) == []
            assert check_theta_cone_relay(ns, k) == []


def reference_relay_violations(nodes, k, family):
    """The per-pair scalar relay loop: the reference for the array pass
    behind check_yao_cone_relay and check_theta_cone_relay. Like them, it
    looks the builder up in voidcheck at call time."""
    if family == "yao":
        g = voidcheck.build_directed_yao(nodes, k)
    else:
        g = voidcheck.build_directed_theta(nodes, k)
    violations = []
    pts = nodes.points
    cones = source_cones(nodes, k)
    picks = {(u, cones[u][w]): w for u, w in g.edges}
    for u in range(len(pts)):
        pu = pts[u]
        for v in range(len(pts)):
            if v == u:
                continue
            i = cones[u][v]
            w = picks[(u, i)]
            if w == v:
                continue
            if family == "yao":
                if not distance(pu, pts[w]) <= distance(pu, pts[v]):
                    violations.append(
                        f"selected neighbor {w} of node {u} does not minimize the "
                        f"distance in cone {i}"
                    )
            elif not bisector_projection(pu, pts[w], i, k) <= bisector_projection(pu, pts[v], i, k):
                violations.append(
                    f"selected neighbor {w} of node {u} does not minimize the "
                    f"projection in cone {i}"
                )
            if not distance(pts[w], pts[v]) < distance(pu, pts[v]):
                violations.append(
                    f"selected neighbor {w} of node {u} is not closer to {v}"
                )
    return violations


def relay(nodes, k, family):
    check = check_yao_cone_relay if family == "yao" else check_theta_cone_relay
    return check(nodes, k)


def farthest_in_cone(family):
    """A directed builder that selects each non-empty cone's node with the
    largest key (distance for Yao, bisector projection for Theta), ties to
    the largest index: the wrong pick, so that the relay checks report."""

    def builder(nodes, k):
        pts = nodes.points
        picks = {}
        for u, pu in enumerate(pts):
            for v, pv in enumerate(pts):
                if v != u:
                    i = cone_of(pu, pv, k)
                    key = distance(pu, pv) if family == "yao" else bisector_projection(pu, pv, i, k)
                    if (u, i) not in picks or key >= picks[(u, i)][0]:
                        picks[(u, i)] = (key, v)
        edges = tuple(sorted((u, v) for (u, _), (_, v) in picks.items()))
        return GeometricGraph(family, k, True, nodes, edges)

    return builder


def relay_fixtures():
    yield NodeSet([("u", Point(0, 0)), ("w", Point(0.3, 0.8))])
    yield NodeSet([("u", Point(0, 0)), ("w", Point(0.5, 0.5)), ("v", Point(2, 2))])
    w = Point(0.5 * math.sin(TAU / 6), 0.5 * math.cos(TAU / 6))
    yield NodeSet([("u", Point(0, 0)), ("w", w), ("v", Point(math.sin(1e-6), math.cos(1e-6)))])
    for deg in (10, 50):
        yield NodeSet([
            ("u", Point(0, 0)),
            ("w", Point(0.6 * math.sin(math.radians(deg)), 0.6 * math.cos(math.radians(deg)))),
            ("v", Point(math.sin(math.radians(5)), math.cos(math.radians(5)))),
        ])
    # a and b tie on the projection onto cone 2's bisector (east at k = 6):
    # a is picked, and b's projection equals a's, which passes
    yield NodeSet([("u", Point(0, 0)), ("a", Point(1, 0.1)), ("b", Point(1, -0.1))])
    yield NodeSet([("solo", Point(1, 2))])
    yield NodeSet((f"g{x}_{y}", Point(x, y)) for x in range(8) for y in range(8))
    yield NodeSet((f"c{i}", Point(i, 2 * i)) for i in range(9))


def test_relay_matches_reference():
    for nodes in relay_fixtures():
        for family in ("yao", "theta"):
            for k in (6, 7, 12, 10**9, 10**18):
                assert relay(nodes, k, family) == reference_relay_violations(nodes, k, family)
    for seed in range(1000):
        nodes = random_nodeset(1 + seed % 60, seed=4000 + seed)
        family = ("yao", "theta")[seed % 2]
        k = 6 + (seed // 2) % 11
        assert relay(nodes, k, family) == reference_relay_violations(nodes, k, family)


def test_relay_matches_reference_on_cone_rays(ray_sets):
    # the reference takes its cones from the relay's array formula, so
    # points on cone rays land in the same cones on both sides
    for nodes, k in ray_sets(400, range(6, 17), seed=16):
        for family in ("yao", "theta"):
            assert relay(nodes, k, family) == reference_relay_violations(nodes, k, family)


@pytest.mark.parametrize("family", ["yao", "theta"])
def test_relay_reports_what_the_reference_reports(monkeypatch, family):
    monkeypatch.setattr(voidcheck, f"build_directed_{family}", farthest_in_cone(family))
    sets = [(random_nodeset(3 + seed % 38, seed=5000 + seed), 6 + seed % 11) for seed in range(40)]
    sets += list(zip(relay_fixtures(), (6, 7, 8, 9, 10, 11, 6, 12, 6)))
    # due north is cone k, which rounds up to 2**64 as a double
    sets.append((NodeSet([("u", Point(0, 0)), ("a", Point(0, 1)), ("b", Point(0, 2))]), 2**64 - 1))
    reported = []
    for nodes, k in sets:
        expected = reference_relay_violations(nodes, k, family)
        assert relay(nodes, k, family) == expected
        reported += expected
    assert any("is not closer to" in m for m in reported)
    measure = "distance" if family == "yao" else "projection"
    assert any(f"does not minimize the {measure}" in m for m in reported)
    # blocks of one row, and of two rows with the last one partial
    for block in (1, 2 * 41):
        monkeypatch.setattr(voidcheck, "_BLOCK_PAIRS", block)
        nodes = random_nodeset(41, seed=6)
        expected = reference_relay_violations(nodes, 9, family)
        assert expected and relay(nodes, 9, family) == expected


def test_relay_rejects_a_builder_that_skips_a_cone(monkeypatch):
    nodes = random_nodeset(5, seed=7)
    empty = lambda nodes, k: GeometricGraph("yao", k, True, nodes, ())  # noqa: E731
    monkeypatch.setattr(voidcheck, "build_directed_yao", empty)
    with pytest.raises(RuntimeError, match="no selected neighbor"):
        check_yao_cone_relay(nodes, 6)


def test_void_free_for_k6_and_up_small_scale():
    for seed in range(20):
        ns = random_nodeset(2 + seed * 2, seed=seed)
        for family in ("yao", "theta"):
            assert check_void_free(build(ns, family, 6)).void_free


@pytest.mark.xfail(strict=True, reason="dx*dx + dy*dy underflows to 0 at 1e-200 scale, "
                   "so distinct nodes look coincident and both checkers report voids")
def test_void_free_for_k6_at_tiny_scale():
    ns = NodeSet([("a", Point(0, 0)), ("b", Point(1e-200, 0)),
                  ("c", Point(3e-200, 0)), ("d", Point(0, 1e-200))])
    g = build(ns, "yao", 6)
    assert check_void_free(g).void_free
    assert check_by_routing(g).void_free


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="dx*dx + dy*dy overflows to inf at 1e200 scale, so inf >= inf "
                   "reads as the void (0, 2) and both relay checks report violations")
def test_void_free_for_k6_at_huge_scale():
    # the same points at unit scale are void-free; the report would print
    # "d_uv": Infinity, which is not JSON, and "min_neighbor_d": null, which
    # is kept for isolated nodes
    ns = NodeSet([("a", Point(0, 0)), ("b", Point(1e200, 0)),
                  ("c", Point(3e200, 0)), ("d", Point(0, 1e200))])
    g = build(ns, "theta", 6)
    assert check_void_free(g).void_free
    assert check_by_routing(g).void_free
    assert check_yao_cone_relay(ns, 6) == []
    assert check_theta_cone_relay(ns, 6) == []


@pytest.mark.xfail(strict=True, reason="each side of this near-equilateral triangle lies on a "
                   "k = 6 cone ray, and double-precision cone and distance rounding turn "
                   "the exact void-free Yao graph into one with the void (2, 0)")
def test_void_free_for_k6_at_unit_scale():
    ns = NodeSet([("u", Point(0, 0)),
                  ("w", Point(-0.8660254037844388, -0.4999999999999996)),
                  ("v", Point(-0.8660254037844386, 0.5000000000000001))])
    g = build(ns, "yao", 6)
    assert check_void_free(g).void_free
    assert check_by_routing(g).void_free
    assert check_yao_cone_relay(ns, 6) == []
    assert check_theta_cone_relay(ns, 6) == []
