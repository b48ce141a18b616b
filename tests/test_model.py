"""Tests for node sets, graphs, and serialization."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conegraph.construct import build_directed_theta, build_directed_yao, undirect
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


def test_node_set_lookup():
    ns = NodeSet([("u", Point(0, 0)), ("v", Point(1, 2))])
    assert ns.index_of("v") == 1
    assert ns.point_of("v") == Point(1, 2)
    with pytest.raises(ValueError, match="unknown node id"):
        ns.index_of("w")


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


BIG = 10**30  # beyond intp: numpy would make an object array of it

# (directed, k, edges, the exact message) over three nodes; the later
# rows hold two faults each, and the message names the first edge at
# fault, tested in the order range, self-loop, order, then out-degree
# (directed) or normalization (undirected)
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
]


@pytest.mark.parametrize("directed, k, edges, message", EDGE_FAULTS)
def test_edge_check_names_the_first_faulty_edge(directed, k, edges, message):
    ns = nset((0, 0), (1, 0), (0, 1))
    assert reference_edge_fault(edges, len(ns), k, directed) == message
    with pytest.raises(ValueError) as exc:
        GeometricGraph("yao", k, directed, ns, edges)
    assert str(exc.value) == message


# graph_from_dict sorts the edges first, so only faults that survive
# sorting reach the check; an endpoint that is not an integer sorts
# without error and is named
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
]


@pytest.mark.parametrize("directed, k, edges, message", DICT_FAULTS)
def test_graph_from_dict_names_the_first_faulty_edge(directed, k, edges, message):
    data = graph_to_dict(GeometricGraph("yao", k, directed, nset((0, 0), (1, 0), (0, 1)), ()))
    data["edges"] = edges
    with pytest.raises(ValueError) as exc:
        graph_from_dict(data)
    assert str(exc.value) == message


def reference_edge_fault(edges, n, k, directed):
    """The per-edge check loop the vectorised check replaced: its message
    for the first faulty edge, or None."""
    prev = (-1, -1)
    out_deg = 0
    for e in edges:
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


endpoints = st.one_of(st.integers(-1, 4), st.sampled_from([BIG, -BIG, 2**63]))


@given(st.lists(st.tuples(endpoints, endpoints), max_size=8), st.integers(1, 3), st.booleans(),
       st.booleans())
@settings(max_examples=400, deadline=None)
def test_edge_check_agrees_with_the_per_edge_loop(edges, k, directed, presorted):
    ns = nset((0, 0), (1, 0), (0, 1), (1, 1))
    edges = tuple(sorted(edges) if presorted else edges)
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
    assert undirected.adjacency == ((1, 2), (0,), (0,), ())
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


@pytest.mark.parametrize("row", ["a,1", "a,1,y", "a,1,1e999"])
def test_csv_rejects_malformed_rows(row):
    with pytest.raises(ValueError, match="malformed CSV node row"):
        node_set_from_csv(f"id,x,y\nb,0,0\n{row}\n")


def test_node_set_json_rejects_garbage():
    with pytest.raises(ValueError, match="invalid JSON"):
        node_set_from_json("{nope")
    with pytest.raises(ValueError, match="malformed"):
        node_set_from_json('{"wrong": []}')
    # a JSON integer beyond the double range
    with pytest.raises(ValueError, match="malformed node-set data"):
        node_set_from_json('{"nodes": [{"id": "a", "x": 1%s, "y": 0}]}' % ("0" * 400))


@pytest.mark.parametrize("x", ["true", '" 2e0 "', '"1_000"', "null", "[1]"])
def test_node_set_json_coordinates_must_be_numbers(x):
    with pytest.raises(ValueError, match="malformed node-set data"):
        node_set_from_json('{"nodes": [{"id": "a", "x": %s, "y": 0}]}' % x)
    with pytest.raises(ValueError, match="malformed node-set data"):
        node_set_from_json('{"nodes": [{"id": "a", "x": 0, "y": %s}]}' % x)


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
