"""Tests for node sets, graphs, and serialization."""

import copy
import csv
import io
import itertools
import json
import math
import pickle
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conegraph.construct import build, build_directed_theta, build_directed_yao, undirect
from conegraph.corpus import random_nodeset
from conegraph.geometry import Point
from conegraph.model import (
    GeometricGraph,
    NodeSet,
    distance,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
    graphs_equal,
    node_set_from_csv,
    node_set_from_json,
    node_set_to_csv,
    node_set_to_json,
)
from conegraph.render import render_svg
from conegraph.voidcheck import (
    check_by_routing,
    check_theta_cone_relay,
    check_void_free,
    check_yao_cone_relay,
)


def nset(*coords):
    return NodeSet((f"n{i}", Point(x, y)) for i, (x, y) in enumerate(coords))


# ---------------------------------------------------------------------------
# distance


def test_distance_three_four_five():
    assert distance(Point(0, 0), Point(3, 4)) == 5.0


def test_distance_identity():
    assert distance(Point(1, 1), Point(1, 1)) == 0.0


def test_distance_unit_diagonal():
    assert distance(Point(0, 0), Point(1, 1)) == math.sqrt(2)


def test_distance_matches_matrix_bitwise():
    ns = random_nodeset(40, seed=5)
    g = undirect(build_directed_yao(ns, 6))
    m = g.dist_matrix
    for i in range(40):
        for j in range(40):
            assert m[i, j] == distance(ns.points[i], ns.points[j])
            assert g.dist(i, j) == m[i, j]


def test_dist_builds_no_distance_matrix():
    # one lookup is one scalar distance, not the n x n matrix and its lists
    ns = random_nodeset(30, seed=6)
    g = build_directed_yao(ns, 6)
    for i in range(30):
        for j in range(30):
            assert g.dist(i, j) == distance(ns.points[i], ns.points[j])
    assert "dist_matrix" not in g.__dict__ and "_dist_rows" not in g.__dict__


# ---------------------------------------------------------------------------
# NodeSet


def test_node_set_requires_a_node():
    with pytest.raises(ValueError):
        NodeSet([])


def test_node_set_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate node ids"):
        NodeSet([("a", Point(0, 0)), ("a", Point(1, 1))])


def test_node_set_rejects_duplicate_coordinates():
    with pytest.raises(ValueError, match="duplicate node coordinates"):
        NodeSet([("a", Point(2, 3)), ("b", Point(2, 3))])


@pytest.mark.parametrize("entries, message", [
    ([("a", (0.0, 1.0))], "node set entry 0 is not an (id, Point) pair: ('a', (0.0, 1.0))"),
    ([("a", Point(0, 0)), ("b", SimpleNamespace(x=math.inf, y=0.0))],
     "node set entry 1 is not an (id, Point) pair: ('b', namespace(x=inf, y=0.0))"),
    ([("a", SimpleNamespace(x=math.nan, y=0.0)), ("b", SimpleNamespace(x=math.nan, y=0.0))],
     "node set entry 0 is not an (id, Point) pair: ('a', namespace(x=nan, y=0.0))"),
    ([("a", Point(0, 0)), ("b",)], "node set entry 1 is not an (id, Point) pair: ('b',)"),
    ([("a", Point(0, 0), "z")],
     "node set entry 0 is not an (id, Point) pair: ('a', Point(x=0.0, y=0.0), 'z')"),
    ([7], "node set entry 0 is not an (id, Point) pair: 7"),
    # the entry check runs before the id and coordinate checks
    ([("a", Point(0, 0)), ("a", Point(0, 0)), ("c", None)],
     "node set entry 2 is not an (id, Point) pair: ('c', None)"),
])
def test_node_set_takes_only_id_point_pairs(entries, message):
    with pytest.raises(ValueError) as exc:
        NodeSet(entries)
    assert str(exc.value) == message


def test_node_set_lookup():
    ns = NodeSet([("u", Point(0, 0)), ("v", Point(1, 2))])
    assert ns.index_of("v") == 1
    assert ns.point_of("v") == Point(1, 2)
    with pytest.raises(ValueError, match="unknown node id"):
        ns.index_of("w")


def test_node_set_value_semantics():
    # equal coordinates, -0.0 and 0.0 included, make equal sets that hash alike
    neg, pos = NodeSet([("a", Point(-0.0, 1.0))]), NodeSet([("a", Point(0.0, 1.0))])
    assert neg == pos and hash(neg) == hash(pos)
    assert NodeSet([("b", Point(0.0, 1.0))]) != pos
    assert NodeSet([("a", Point(0.0, 2.0))]) != pos
    assert repr(neg) == "NodeSet(nodes=(('a', Point(x=-0.0, y=1.0)),))"
    ns = random_nodeset(20, seed=7)
    for copied in (pickle.loads(pickle.dumps(ns)), copy.deepcopy(ns)):
        assert copied == ns and copied.ids == ns.ids
        assert not copied.x.flags.writeable and not copied.y.flags.writeable
    assert set(ns.__dict__) == {"ids", "x", "y"}  # copying built no view


def test_node_set_stores_read_only_coordinate_arrays():
    ns = nset((0.5, 1.0), (2.0, -3.0))
    assert ns.coordinates()[0] is ns.x and ns.coordinates()[1] is ns.y
    assert ns.x.tolist() == [0.5, 2.0] and ns.y.tolist() == [1.0, -3.0]
    with pytest.raises(ValueError, match="read-only"):
        ns.x[0] = 7.0
    with pytest.raises(ValueError):
        ns.y.flags.writeable = True
    with pytest.raises(AttributeError):
        ns.x = np.zeros(2)
    assert ns.points == (Point(0.5, 1.0), Point(2.0, -3.0))
    assert ns.nodes == (("n0", Point(0.5, 1.0)), ("n1", Point(2.0, -3.0)))


@pytest.mark.parametrize("n, k", [(30, 6), (1000, 6)])
def test_hot_paths_build_no_point_view(n, k):
    # 30 nodes take the shared row and the matrix scan; 1,000 at k = 6 the
    # grid construction and the cell scan
    ns = random_nodeset(n, seed=8)
    g = build(ns, "yao", k)
    assert check_void_free(g) == check_by_routing(g)
    assert check_yao_cone_relay(ns, k) == check_theta_cone_relay(ns, k) == []
    graph_to_json(g)
    render_svg(g, highlight_pair=(0, 1))
    g.dist(0, 1)
    assert "points" not in ns.__dict__ and "nodes" not in ns.__dict__


# ---------------------------------------------------------------------------
# GeometricGraph invariants


def test_graph_rejects_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'gabriel'"):
        GeometricGraph("gabriel", 1, False, nset((0, 0), (1, 0)), ())


def test_graph_rejects_self_loop():
    ns = nset((0, 0), (1, 0))
    with pytest.raises(ValueError, match="self-loop"):
        GeometricGraph("yao", 1, False, ns, ((0, 0),))


def test_graph_rejects_bad_endpoint():
    ns = nset((0, 0), (1, 0))
    with pytest.raises(ValueError, match="missing node"):
        GeometricGraph("yao", 1, False, ns, ((0, 2),))


def test_graph_rejects_unnormalized_undirected_edge():
    ns = nset((0, 0), (1, 0))
    with pytest.raises(ValueError, match="not normalized"):
        GeometricGraph("yao", 1, False, ns, ((1, 0),))


def test_graph_rejects_duplicate_edge():
    ns = nset((0, 0), (1, 0), (0, 1))
    for directed in (True, False):
        with pytest.raises(ValueError, match=r"duplicate edge \(0, 1\)"):
            GeometricGraph("yao", 2, directed, ns, ((0, 1), (0, 1), (0, 2)))


def test_graph_rejects_unsorted_edges():
    ns = nset((0, 0), (1, 0), (0, 1))
    for directed in (True, False):
        with pytest.raises(ValueError, match="edges must be sorted"):
            GeometricGraph("yao", 2, directed, ns, ((0, 2), (0, 1)))
    with pytest.raises(ValueError, match="edges must be sorted"):
        GeometricGraph("yao", 2, True, ns, ((1, 0), (0, 1)))


def test_graph_rejects_out_degree_above_k():
    ns = nset((0, 0), (1, 0), (0, 1))
    with pytest.raises(ValueError, match="out-degree"):
        GeometricGraph("yao", 1, True, ns, ((0, 1), (0, 2)))


@pytest.mark.parametrize("directed", [False, True])
def test_graph_copies_and_pickles_are_their_fields(directed):
    ns = random_nodeset(30, seed=9)
    g = build(ns, "yao", 6, directed=directed)
    g.keys, g.csr, g.edges, g.dist_matrix
    if not directed:  # the scan is defined on the undirected graph
        check_void_free(g)
    fresh = build(random_nodeset(30, seed=9), "yao", 6, directed=directed)
    assert len(pickle.dumps(g)) == len(pickle.dumps(fresh))
    for c in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert set(c.__dict__) == {"family", "k", "directed", "nodes", "_key_bytes"}
        assert c == g and hash(c) == hash(g)
        with pytest.raises(ValueError, match="read-only"):
            c.keys[0] = 0


BIG = 10**30  # beyond intp: numpy would make an object array of it

# (directed, k, edges, the exact message) over three nodes; the later
# rows hold two faults each, and the message names the first edge at
# fault, tested in the order endpoint type, range, self-loop, order, then
# out-degree (directed) or normalization (undirected)
EDGE_FAULTS = [
    (True, 2, ((-1, 0),), "edge (-1, 0) references a missing node"),
    (False, 2, ((0, 3),), "edge (0, 3) references a missing node"),
    (True, 2, ((BIG, 0),), f"edge ({BIG}, 0) references a missing node"),
    (False, 2, ((0, 1), (1, 2**63)), f"edge (1, {2**63}) references a missing node"),
    (True, 2, ((1, 1),), "self-loop at node 1"),
    (False, 2, ((0, 1), (0, 1)), "duplicate edge (0, 1)"),
    (True, 2, ((0, 2), (0, 1)), "edges must be sorted"),
    (True, 1, ((0, 1), (0, 2)), "out-degree exceeds k=1"),
    (False, 2, ((1, 0),), "undirected edge (1, 0) not normalized as (i, j) with i < j"),
    (True, 2, ((0, 2), (0, 1), (BIG, 0)), "edges must be sorted"),
    (False, 2, ((3, 0), (1, 1)), "edge (3, 0) references a missing node"),
    (True, 2, ((3, 3),), "edge (3, 3) references a missing node"),
    (True, 2, ((2, 2), (-1, 0)), "self-loop at node 2"),
    (True, 2, ((2, 1), (1, 1)), "self-loop at node 1"),
    (False, 2, ((0, 1), (0, 1), (1, 1)), "duplicate edge (0, 1)"),
    (True, 1, ((0, 1), (0, 2), (1, 1)), "out-degree exceeds k=1"),
    (True, 1, ((1, 0), (1, 2), (1, 2)), "out-degree exceeds k=1"),
    (True, 2, ((0, 1), (0, 2), (1, 0), (0, 1)), "edges must be sorted"),
    (False, 2, ((1, 2), (1, 0)), "edges must be sorted"),
    (False, 2, ((0, 2), (2, 1), (2, 2)),
     "undirected edge (2, 1) not normalized as (i, j) with i < j"),
    (True, 2, ((0, 5), ("x", 1)), "edge (0, 5) references a missing node"),
    (True, 2, ((0, 2), (0, 1), (2, 1.5)), "edges must be sorted"),
    (True, 2, ((0, 1), (0, 1, 2)), "edges must be (source, target) pairs"),
]


@pytest.mark.parametrize("directed, k, edges, message", EDGE_FAULTS)
def test_edge_check_names_the_first_faulty_edge(directed, k, edges, message):
    ns = nset((0, 0), (1, 0), (0, 1))
    assert reference_edge_fault(edges, len(ns), k, directed) == message
    with pytest.raises(ValueError) as exc:
        GeometricGraph("yao", k, directed, ns, edges)
    assert str(exc.value) == message


# graph_from_dict makes every edge a pair of ints, naming the first that
# is not one, then sorts the pairs, so only faults that survive sorting
# reach the constructor's check
DICT_FAULTS = [
    (True, 2, [[0, 1], [-1, 2]], "edge (-1, 2) references a missing node"),
    (False, 2, [[0, 3]], "edge (0, 3) references a missing node"),
    (True, 2, [[BIG, 0], [0, 1]], f"edge ({BIG}, 0) references a missing node"),
    (True, 2, [[2, 2], [0, 1]], "self-loop at node 2"),
    (False, 2, [[1, 2], [0, 1], [0, 1]], "duplicate edge (0, 1)"),
    (True, 1, [[1, 2], [1, 0]], "out-degree exceeds k=1"),
    (False, 2, [[2, 1], [0, 1]], "undirected edge (2, 1) not normalized as (i, j) with i < j"),
    (True, 1, [[0, 2], [1, 1], [0, 1]], "out-degree exceeds k=1"),
    (True, 2, [["0", 1], [0, 2]], "edge endpoint must be an integer, got '0'"),
    (True, 2, [[0, 1], [None, 2]], "edge endpoint must be an integer, got None"),
    (True, 2, [[0]], "edges must be (source, target) pairs"),
    (True, 2, [[0, 1, 2]], "edges must be (source, target) pairs"),
    (True, 2, [5], "edges must be (source, target) pairs"),
]


@pytest.mark.parametrize("directed, k, edges, message", DICT_FAULTS)
def test_graph_from_dict_names_the_first_faulty_edge(directed, k, edges, message):
    data = graph_to_dict(GeometricGraph("yao", k, directed, nset((0, 0), (1, 0), (0, 1)), ()))
    data["edges"] = edges
    with pytest.raises(ValueError) as exc:
        graph_from_dict(data)
    assert str(exc.value) == message


def reference_edge_fault(edges, n, k, directed):
    """A scalar statement of the edge contract: the message for the first
    faulty edge, or None. Each edge's endpoints must be plain ints (no
    bools) before its other tests run; the strategies below draw no other
    kind of integer."""
    prev = (-1, -1)
    out_deg = 0
    for e in edges:
        if len(e) != 2:
            return "edges must be (source, target) pairs"
        for v in e:
            if type(v) is not int:
                return f"edge endpoint must be an integer, got {v!r}"
        a, b = e
        if not (0 <= a < n and 0 <= b < n):
            return f"edge {e} references a missing node"
        if a == b:
            return f"self-loop at node {a}"
        if e <= prev:
            return f"duplicate edge {e}" if e == prev else "edges must be sorted"
        if directed:
            out_deg = out_deg + 1 if a == prev[0] else 1
            if out_deg > k:
                return f"out-degree exceeds k={k}"
        elif a > b:
            return f"undirected edge {e} not normalized as (i, j) with i < j"
        prev = e
    return None


endpoints = st.one_of(st.integers(-1, 4),
                      st.sampled_from([BIG, -BIG, 2**63, None, "0", 1.5, True]))


@given(st.lists(st.tuples(endpoints, endpoints), max_size=8), st.integers(1, 3), st.booleans(),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_edge_check_agrees_with_the_per_edge_loop(edges, k, directed, presorted):
    ns = nset((0, 0), (1, 0), (0, 1), (1, 1))
    if presorted and all(type(v) is int for e in edges for v in e):
        edges = sorted(edges)
    edges = tuple(edges)
    want = reference_edge_fault(edges, len(ns), k, directed)
    if want is None:
        g = GeometricGraph("yao", k, directed, ns, edges)
        assert g.edges == edges
    else:
        with pytest.raises(ValueError) as exc:
            GeometricGraph("yao", k, directed, ns, edges)
        assert str(exc.value) == want


def test_edges_are_stored_as_flat_keys_and_csr():
    ns = nset((0, 0), (1, 0), (0, 1), (5, 5))
    directed = GeometricGraph("yao", 2, True, ns, ((0, 1), (0, 2), (2, 0)))
    assert directed.keys.tolist() == [1, 2, 8]
    undirected = undirect(directed)
    # both directions of every edge, each once: (0, 1), (0, 2), (1, 0), (2, 0)
    assert undirected.keys.tolist() == [1, 2, 4, 8]
    assert undirected.edges == ((0, 1), (0, 2))
    indptr, indices = undirected.csr
    assert indptr.tolist() == [0, 2, 3, 4, 4] and indices.tolist() == [1, 2, 0, 0]
    rows = [undirected.neighbors(u) for u in range(4)]
    assert rows == [(1, 2), (0,), (0,), ()]
    assert all(type(w) is int for row in rows for w in row)
    assert undirected == GeometricGraph("yao", 2, False, ns, [[0, 1], [0, 2]])
    assert hash(undirected) == hash(GeometricGraph("yao", 2, False, ns, ((0, 1), (0, 2))))
    assert undirected != directed and undirected != GeometricGraph("yao", 3, False, ns, ((0, 1),))
    assert "edges=((0, 1), (0, 2))" in repr(undirected)
    with pytest.raises(AttributeError):
        undirected.k = 3
    with pytest.raises(ValueError):
        undirected.keys[0] = 0


def test_edge_endpoints_must_be_integers():
    ns = nset((0, 0), (1, 0), (0, 1))
    for edges in (((0, 1.5),), ((0.0, 1),), (("0", 1),), ((0, 1, 2),), ((0,),),
                  ((True, 0),), ((0, np.True_),), ((np.False_, 1),)):
        with pytest.raises(ValueError):
            GeometricGraph("yao", 2, True, ns, edges)


def test_directed_graph_has_no_undirected_adjacency():
    ns = nset((0, 0), (1, 0))
    g = GeometricGraph("yao", 1, True, ns, ((0, 1),))
    with pytest.raises(ValueError, match="undirected"):
        g.neighbors(0)


# ---------------------------------------------------------------------------
# neighbors


def test_neighbors_single_edge():
    ns = nset((0, 0), (1, 0), (5, 5))
    g = GeometricGraph("yao", 2, False, ns, ((0, 1),))
    assert g.neighbors(0) == (1,)
    assert g.neighbors(1) == (0,)
    assert g.neighbors(2) == ()  # isolated


def test_neighbors_unknown_node():
    g = GeometricGraph("yao", 2, False, nset((0, 0), (1, 0)), ((0, 1),))
    with pytest.raises(ValueError, match="unknown node"):
        g.neighbors(7)


@pytest.mark.parametrize("u, v", [(-1, 0), (0, -1), (2, 0), (0, 2), (True, 0), (0, False)])
def test_dist_rejects_bad_indices(u, v):
    g = GeometricGraph("yao", 2, False, nset((0, 0), (1, 0)), ((0, 1),))
    with pytest.raises(ValueError, match="unknown node index"):
        g.dist(u, v)


def test_numpy_integer_indices_are_plain_ints():
    # np.nonzero hands out numpy integers; they name nodes like ints do
    g = GeometricGraph("yao", 2, False, nset((0, 0), (1, 0), (3, 0)), ((0, 1), (1, 2)))
    assert g.neighbors(np.int64(1)) == (0, 2)
    assert g.neighbors(np.intp(0)) == (1,)
    assert g.dist(np.int64(0), np.int32(2)) == 3.0
    assert type(g._check_node(np.uint8(2))) is int


@pytest.mark.parametrize("k", [np.int64(2), np.int32(2)])
def test_numpy_integer_k_is_stored_as_a_plain_int(k):
    ns = nset((0, 0), (1, 0), (3, 0))
    g = GeometricGraph("yao", k, True, ns, ((0, 1), (1, 2)))
    assert type(g.k) is int
    assert graph_to_json(g) == graph_to_json(GeometricGraph("yao", 2, True, ns, ((0, 1), (1, 2))))


@pytest.mark.parametrize("k", [np.True_, True, 2.5, "6", np.int64(0)])
def test_graph_rejects_non_integer_k(k):
    with pytest.raises(ValueError, match="cone count must be an integer >= 1"):
        GeometricGraph("yao", k, True, nset((0, 0), (1, 0)), ())


@pytest.mark.parametrize("u", [np.True_, np.float64(1.0), 1.0, "1", None, np.int64(3), np.int64(-1)])
def test_node_index_rejects_non_integers_and_out_of_range(u):
    g = GeometricGraph("yao", 2, False, nset((0, 0), (1, 0), (3, 0)), ((0, 1), (1, 2)))
    with pytest.raises(ValueError, match="unknown node index"):
        g.neighbors(u)
    with pytest.raises(ValueError, match="unknown node index"):
        g.dist(0, u)


def test_neighbors_symmetric_on_random_graph():
    ns = random_nodeset(25, seed=9)
    g = undirect(build_directed_yao(ns, 5))
    for u in range(25):
        for w in g.neighbors(u):
            assert u in g.neighbors(w)


# ---------------------------------------------------------------------------
# graphs_equal


def test_graph_equals_itself():
    g = undirect(build_directed_yao(random_nodeset(12, seed=1), 4))
    assert graphs_equal(g, g)


def test_graphs_equal_rejects_different_node_sets():
    g1 = undirect(build_directed_yao(random_nodeset(5, seed=1), 3))
    g2 = undirect(build_directed_yao(random_nodeset(5, seed=2), 3))
    with pytest.raises(ValueError, match="different node sets"):
        graphs_equal(g1, g2)
    # the same ids at other coordinates
    moved = NodeSet((i, Point(p.x, p.y + 1)) for i, p in g1.nodes.nodes)
    with pytest.raises(ValueError, match="different node sets"):
        graphs_equal(g1, undirect(build_directed_yao(moved, 3)))


def test_graphs_equal_undirects_directed_graphs():
    ns = random_nodeset(15, seed=4)
    for family in ("yao", "theta"):
        for k in (1, 3, 6):
            directed = build_directed_yao(ns, k) if family == "yao" else build_directed_theta(ns, k)
            undirected = undirect(directed)
            assert graphs_equal(directed, undirected) and graphs_equal(undirected, directed)
            assert graphs_equal(directed, directed) and graphs_equal(undirected, undirected)
            other = undirect(build_directed_yao(ns, k + 1))
            assert graphs_equal(directed, other) == graphs_equal(undirected, other)
            assert graphs_equal(directed, other) == (set(undirected.edges) == set(other.edges))
    # one edge in both directions, or in one, is the same undirected edge
    two = random_nodeset(3, seed=5)
    both = GeometricGraph("yao", 2, True, two, ((0, 1), (1, 0)))
    one = GeometricGraph("yao", 2, True, two, ((1, 0),))
    assert graphs_equal(both, one)
    assert graphs_equal(one, GeometricGraph("theta", 5, False, two, ((0, 1),)))
    assert not graphs_equal(one, GeometricGraph("yao", 2, False, two, ((0, 2),)))
    assert not graphs_equal(one, GeometricGraph("yao", 2, False, two, ()))


def test_yao_6_differs_from_yao_7_on_random_set():
    ns = random_nodeset(20, seed=3)
    g6 = undirect(build_directed_yao(ns, 6))
    g7 = undirect(build_directed_yao(ns, 7))
    assert len(g6.edges) != len(g7.edges)  # oracle: differing edge counts
    assert not graphs_equal(g6, g7)


def test_edge_count_ordering():
    # undirected count <= directed count <= n * k
    for seed, k in ((1, 1), (2, 4), (3, 9)):
        ns = random_nodeset(18, seed=seed)
        d = build_directed_yao(ns, k)
        u = undirect(d)
        assert len(u.edges) <= len(d.edges) <= len(ns) * k


# ---------------------------------------------------------------------------
# serialization


def test_node_set_json_round_trip_bit_exact():
    ns = random_nodeset(30, seed=11)
    back = node_set_from_json(node_set_to_json(ns))
    assert back.ids == ns.ids
    for p, q in zip(back.points, ns.points):
        assert p.x == q.x and p.y == q.y


def test_node_set_csv_round_trip_bit_exact():
    ns = random_nodeset(30, seed=12)
    back = node_set_from_csv(node_set_to_csv(ns))
    assert back.ids == ns.ids
    for p, q in zip(back.points, ns.points):
        assert p.x == q.x and p.y == q.y


def test_csv_requires_header():
    with pytest.raises(ValueError, match="header"):
        node_set_from_csv("a,0,0\n")


@pytest.mark.parametrize("row", ["a,1", "a,1,y", "a,1,1e999", "a,1,1,1"])
def test_csv_rejects_malformed_rows(row):
    with pytest.raises(ValueError, match="malformed CSV node row"):
        node_set_from_csv(f"id,x,y\nb,0,0\n{row}\n")


def test_node_set_json_rejects_garbage():
    with pytest.raises(ValueError, match="invalid JSON"):
        node_set_from_json("{nope")
    with pytest.raises(ValueError, match="^malformed node-set data: 'nodes'$"):
        node_set_from_json('{"wrong": []}')
    # a JSON integer beyond the double range
    with pytest.raises(ValueError, match="malformed node-set data"):
        node_set_from_json('{"nodes": [{"id": "a", "x": 1%s, "y": 0}]}' % ("0" * 400))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no integer digit limit")
def test_json_integers_past_the_digit_limit_are_invalid_json():
    # json.loads raises a plain ValueError, not JSONDecodeError, for these
    digits = "1" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ValueError, match="^invalid JSON: Exceeds the limit"):
        node_set_from_json('{"nodes": [{"id": "a", "x": %s, "y": 0}]}' % digits)
    text = graph_to_json(build(nset((0, 0), (1, 0)), "yao", 6))
    with pytest.raises(ValueError, match="^invalid JSON: Exceeds the limit"):
        graph_from_json(text.replace("[\n      0,", "[\n      %s," % digits, 1))


@pytest.mark.parametrize("node_id", ["null", "true", "[1]", '{"a": 1}', "1.5"])
def test_node_set_json_ids_must_be_strings_or_integers(node_id):
    text = '{"nodes": [{"id": %s, "x": 0, "y": 0}]}'
    message = f"node id must be a string or an integer, got {json.loads(node_id)!r}"
    with pytest.raises(ValueError, match=re.escape(f"malformed node-set data: entry 0: {message}")):
        node_set_from_json(text % node_id)
    assert node_set_from_json(text % "7").ids == ("7",)


@pytest.mark.parametrize("x", ["true", '" 2e0 "', '"1_000"', "null", "[1]"])
def test_node_set_json_coordinates_must_be_numbers(x):
    with pytest.raises(ValueError, match="malformed node-set data"):
        node_set_from_json('{"nodes": [{"id": "a", "x": %s, "y": 0}]}' % x)
    with pytest.raises(ValueError, match="malformed node-set data"):
        node_set_from_json('{"nodes": [{"id": "a", "x": 0, "y": %s}]}' % x)


@pytest.mark.parametrize("nodes, message", [
    ([{"id": "a", "x": 0, "y": 0}, [1, 2]],
     "entry 1: list indices must be integers or slices, not str"),
    ([{"id": "a", "x": 0, "y": 0}, {"id": "b", "y": 0}], "entry 1: 'x'"),
    (5, '"nodes" must be a list'),
])
def test_json_entry_faults_name_the_entry_and_others_do_not(nodes, message):
    # 0-based, as NodeSet names its entries; graphs read their nodes alike
    with pytest.raises(ValueError) as exc:
        node_set_from_json(json.dumps({"nodes": nodes}))
    assert str(exc.value) == f"malformed node-set data: {message}"
    data = {"family": "yao", "k": 6, "directed": False, "nodes": nodes, "edges": []}
    with pytest.raises(ValueError) as exc:
        graph_from_dict(data)
    assert str(exc.value) == f"malformed node-set data: {message}"


# The parsers check each entry in order, its keys or fields, then its id,
# then its coordinates, and name the first faulty one; NodeSet alone raises
# the set-level faults, with the same message for JSON and CSV
SET_FAULTS = [
    ([], "a node set needs at least one node"),
    ([("a", 0, 0), ("a", 1, 1)], "duplicate node ids"),
    ([("a", 0, 0), ("b", -0.0, 0)], "duplicate node coordinates"),
]


@pytest.mark.parametrize("rows, message", SET_FAULTS)
def test_set_level_faults_are_unprefixed_in_both_formats(rows, message):
    csv_text = "id,x,y\n" + "".join(f"{i},{x},{y}\n" for i, x, y in rows)
    json_text = json.dumps({"nodes": [{"id": i, "x": x, "y": y} for i, x, y in rows]})
    for parse, text in ((node_set_from_csv, csv_text), (node_set_from_json, json_text)):
        with pytest.raises(ValueError) as exc:
            parse(text)
        assert str(exc.value) == message


def reference_set_fault(nodes):
    """The set-level message for (id, (x, y)) pairs that passed their
    entry checks, or None."""
    if not nodes:
        return "a node set needs at least one node"
    if len({i for i, _ in nodes}) != len(nodes):
        return "duplicate node ids"
    if len({p for _, p in nodes}) != len(nodes):  # -0.0 == 0.0, as in NodeSet
        return "duplicate node coordinates"
    return None


def reference_json_fault(entries):
    """A scalar statement of the JSON node-set contract: the message for
    the first faulty entry, naming its index, else the set-level message,
    else None. Within an entry: its keys, then its id, then x and y in turn."""
    for n, e in enumerate(entries):
        fault = f"malformed node-set data: entry {n}: "
        for key in ("id", "x", "y"):
            if key not in e:
                return fault + repr(key)
        if type(e["id"]) not in (str, int):
            return fault + f"node id must be a string or an integer, got {e['id']!r}"
        for name in ("x", "y"):
            v = e[name]
            if type(v) not in (int, float):
                return fault + f"coordinates must be real numbers, got {v!r}"
            if type(v) is int and abs(v) > 10**308:
                return fault + f"{name} coordinate is beyond the double range"
        x, y = float(e["x"]), float(e["y"])
        if not (math.isfinite(x) and math.isfinite(y)):
            return fault + f"non-finite coordinates: ({x}, {y})"
    return reference_set_fault([(str(e["id"]), (float(e["x"]), float(e["y"]))) for e in entries])


# CSV coordinate fields and the double each parses to; None where it is no
# number: float() reads digit-group underscores and non-ASCII digits (here
# Arabic-Indic 12 and a fullwidth 1), which the parser refuses
CSV_FIELDS = {"0": 0.0, "1.5": 1.5, "-2": -2.0, " 2 ": 2.0, "-0": -0.0, "1e999": math.inf,
              "inf": math.inf, "nan": math.nan, "zz": None, "": None,
              "1_000": None, "\u0661\u0662": None, "\uff11": None}


def reference_csv_fault(rows):
    """The same contract for CSV rows of text fields: the first faulty row's
    message, naming the row, else the set-level message, else None. Within
    a row: its field count, then x and y in turn (a CSV id is always text)."""
    for row in rows:
        fault = f"malformed CSV node row {row}: "
        if len(row) != 3:
            return fault + f"{len(row)} fields, not 3"
        for field in row[1:]:
            if CSV_FIELDS[field] is None:
                return fault + f"could not convert string to float: {field!r}"
        x, y = CSV_FIELDS[row[1]], CSV_FIELDS[row[2]]
        if not (math.isfinite(x) and math.isfinite(y)):
            return fault + f"non-finite coordinates: ({x}, {y})"
    return reference_set_fault([(i, (CSV_FIELDS[x], CSV_FIELDS[y])) for i, x, y in rows])


# most draws are good, so that faults come late and sets are often whole
good_ids = st.sampled_from(["a", "b", "c", "d"])
json_ids = st.one_of(*[good_ids] * 4, st.integers(0, 3), st.sampled_from([None, True, 1.5, [1]]))
good_coords = st.one_of(st.sampled_from([0.0, 1.0, -0.0]), st.integers(-1, 1))
json_coords = st.one_of(*[good_coords] * 4,
                        st.sampled_from([math.inf, -math.inf, math.nan, 10**400, "s", None,
                                         False, [1]]))
json_entries = st.builds(
    lambda i, x, y, drop: {k: v for k, v in (("id", i), ("x", x), ("y", y)) if k != drop},
    json_ids, json_coords, json_coords, st.sampled_from([None] * 12 + ["id", "x", "y"]))
finite_fields = [f for f, v in CSV_FIELDS.items() if v is not None and math.isfinite(v)]
csv_fields = st.sampled_from(finite_fields * 3 + list(CSV_FIELDS))
csv_rows = st.builds(lambda i, x, y, width: [i, x, y, "0"][:width],
                     good_ids, csv_fields, csv_fields, st.sampled_from([3] * 10 + [2, 4]))


@given(st.lists(json_entries, max_size=6))
@settings(max_examples=400, deadline=None)
def test_json_node_faults_agree_with_the_per_entry_loop(entries):
    text = json.dumps({"nodes": entries})
    want = reference_json_fault(entries)
    if want is None:
        assert node_set_from_json(text).ids == tuple(str(e["id"]) for e in entries)
    else:
        with pytest.raises(ValueError) as exc:
            node_set_from_json(text)
        assert str(exc.value) == want


@given(st.lists(csv_rows, max_size=6))
@settings(max_examples=400, deadline=None)
def test_csv_node_faults_agree_with_the_per_row_loop(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([["id", "x", "y"], *rows])
    want = reference_csv_fault(rows)
    if want is None:
        assert node_set_from_csv(out.getvalue()).ids == tuple(row[0] for row in rows)
    else:
        with pytest.raises(ValueError) as exc:
            node_set_from_csv(out.getvalue())
        assert str(exc.value) == want


def test_graph_json_round_trip():
    ns = random_nodeset(15, seed=13)
    for build_directed, k, directed in itertools.product(
        (build_directed_yao, build_directed_theta), (1, 2, 5, 6), (False, True)
    ):
        g = build_directed(ns, k)
        if not directed:
            g = undirect(g)
        back = graph_from_json(graph_to_json(g))
        assert back == g
        assert hash(back) == hash(g)
        assert back.warning == g.warning
        assert back.family == g.family
        assert back.k == g.k
        assert back.directed == g.directed
        assert back.edges == g.edges
        assert graphs_equal(back, g)
        for p, q in zip(back.nodes.points, g.nodes.points):
            assert p.x == q.x and p.y == q.y


@pytest.mark.parametrize(
    "field, value",
    [
        ("directed", "false"),
        ("directed", 0),
        ("k", 3.9),
        ("k", 3.0),
        ("k", "3"),
        ("k", True),
        ("edges", [[0, 1.0]]),
        ("edges", [[0.0, 1]]),
        ("edges", [[False, True]]),
        ("edges", [["0", 1]]),
    ],
)
def test_graph_from_dict_rejects_non_json_types(field, value):
    g = undirect(build_directed_yao(nset((0, 0), (1, 0), (0, 1)), 3))
    data = graph_to_dict(g)
    assert g.edges and graph_from_dict(data).edges == g.edges
    data[field] = value
    with pytest.raises(ValueError):
        graph_from_dict(data)


@pytest.mark.parametrize("key", ["family", "k", "directed", "nodes", "edges"])
def test_graph_from_dict_rejects_a_missing_key(key):
    data = graph_to_dict(undirect(build_directed_yao(nset((0, 0), (1, 0), (0, 1)), 3)))
    del data[key]
    with pytest.raises(ValueError, match=f"malformed graph data: '{key}'"):
        graph_from_dict(data)


def test_undirected_export_uses_sorted_low_high_pairs():
    g = undirect(build_directed_yao(random_nodeset(10, seed=14), 4))
    for a, b in g.edges:
        assert a < b
    assert list(g.edges) == sorted(g.edges)


@given(st.integers(1, 40), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_random_nodeset_serialization_property(n, seed):
    ns = random_nodeset(n, seed)
    back = node_set_from_json(node_set_to_json(ns))
    assert back.ids == ns.ids
    assert all(p.x == q.x and p.y == q.y for p, q in zip(back.points, ns.points))
