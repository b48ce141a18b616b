"""Tests for node sets, graphs, and serialization."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conegraph.construct import build_directed_yao, undirect
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


def test_graph_rejects_out_degree_above_k():
    ns = nset((0, 0), (1, 0), (0, 1))
    with pytest.raises(ValueError, match="out-degree"):
        GeometricGraph("yao", 1, True, ns, ((0, 1), (0, 2)))


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


def test_node_set_json_rejects_garbage():
    with pytest.raises(ValueError, match="invalid JSON"):
        node_set_from_json("{nope")
    with pytest.raises(ValueError, match="malformed"):
        node_set_from_json('{"wrong": []}')


def test_graph_json_round_trip():
    ns = random_nodeset(15, seed=13)
    for directed in (False, True):
        g = build_directed_yao(ns, 5)
        if not directed:
            g = undirect(g)
        back = graph_from_json(graph_to_json(g))
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
