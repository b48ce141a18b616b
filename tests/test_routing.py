"""Tests for greedy forwarding."""

import math

import numpy as np
import pytest

from conegraph.construct import build, build_directed_yao
from conegraph.corpus import load_corpus, random_nodeset
from conegraph.geometry import Point
from conegraph.model import GeometricGraph, NodeSet, distance
from conegraph.routing import greedy_route, greedy_step
from conegraph.voidcheck import check_void_free


def chain3():
    ns = NodeSet([("u", Point(0, 0)), ("m", Point(1, 0)), ("t", Point(2, 0))])
    return build(ns, "yao", 6)


def test_step_collinear_chain():
    g = chain3()
    assert greedy_step(g, 0, 2) == 1


def test_route_collinear_chain():
    r = greedy_route(chain3(), 0, 2)
    assert r.delivered and r.path == (0, 1, 2)


def test_step_ties_go_to_the_smallest_index():
    # a and b are both exactly sqrt(2) from t and closer to t than u is
    ns = NodeSet([("u", Point(0, 0)), ("a", Point(1, 1)), ("b", Point(1, -1)),
                  ("t", Point(2, 0))])
    g = GeometricGraph("yao", 2, False, ns, ((0, 1), (0, 2), (1, 3), (2, 3)))
    assert g.dist(1, 3) == g.dist(2, 3) < g.dist(0, 3)
    assert greedy_step(g, 0, 3) == 1
    r = greedy_route(g, 0, 3)
    assert r.delivered and r.path == (0, 1, 3)


def test_route_source_equals_target():
    r = greedy_route(chain3(), 1, 1)
    assert r.delivered and r.path == (1,)


def test_step_rejects_delivered_packet():
    with pytest.raises(ValueError, match="already delivered"):
        greedy_step(chain3(), 2, 2)


def test_step_rejects_directed_graph():
    ns = random_nodeset(5, seed=1)
    with pytest.raises(ValueError, match="undirected"):
        greedy_step(build_directed_yao(ns, 3), 0, 1)


@pytest.mark.parametrize("s, t", [(0, 0), (0, 1)])
def test_route_rejects_directed_graph(s, t):
    g = build_directed_yao(random_nodeset(5, seed=1), 3)
    # raised before the first hop, not by the neighbor lookup
    with pytest.raises(ValueError, match="greedy forwarding is defined on the undirected graph"):
        greedy_route(g, s, t)


def test_route_and_step_accept_numpy_indices():
    # witness pairs come out of np.nonzero as numpy integers
    g = chain3()
    r = greedy_route(g, np.int64(0), np.int64(2))
    assert r.delivered and r.path == (0, 1, 2)
    assert all(type(u) is int for u in r.path)
    assert greedy_route(g, np.int64(1), np.int64(1)).path == (1,)
    assert type(greedy_route(g, np.int64(1), np.int64(1)).path[0]) is int
    assert greedy_step(g, np.int32(0), np.int64(2)) == 1
    with pytest.raises(ValueError, match="already delivered"):
        greedy_step(g, np.int64(2), 2)
    with pytest.raises(ValueError, match="unknown node index"):
        greedy_route(g, np.True_, 2)


def test_route_and_step_build_no_distance_matrix():
    # a hop reads the CSR and the coordinates, not the n x n matrix or its lists
    g = build(random_nodeset(40, seed=8), "yao", 3)
    for s in range(0, 40, 3):
        for t in range(0, 40, 5):
            greedy_route(g, s, t)
            if s != t:
                greedy_step(g, s, t)
    assert "dist_matrix" not in g.__dict__ and "_dist_rows" not in g.__dict__


def test_route_and_step_read_no_coordinate_arrays(monkeypatch):
    # a hop reads u's CSR slice and the points it names: O(degree), not the
    # O(n) coordinate arrays of the whole set
    g = build(random_nodeset(40, seed=8), "yao", 3)

    def unread(self):
        raise AssertionError("routing built the coordinate arrays")

    monkeypatch.setattr(NodeSet, "coordinates", unread)
    for s in range(40):
        for t in range(40):
            greedy_route(g, s, t)
            if s != t:
                greedy_step(g, s, t)


def test_isolated_node_yields_void_signal():
    ns = NodeSet([("u", Point(0, 0)), ("v", Point(1, 0)), ("w", Point(5, 5))])
    g = GeometricGraph("yao", 2, False, ns, ((0, 1),))
    assert greedy_step(g, 2, 0) is None
    r = greedy_route(g, 2, 0)
    assert not r.delivered
    assert r.stuck == 2
    assert math.isinf(r.best_neighbor_distance)


def test_corpus_v0_step_and_route_stick_at_u():
    v0 = next(e for e in load_corpus() if e.name == "V0")
    u = v0.nodes.index_of("u")
    v = v0.nodes.index_of("v")
    for k in (1, 2):
        g = build(v0.nodes, "yao", k)
        assert greedy_step(g, u, v) is None
        r = greedy_route(g, u, v)
        assert not r.delivered and r.stuck == u
        assert r.best_neighbor_distance >= g.dist(u, v)


def test_corpus_v2_route_sticks_at_u():
    v2 = next(e for e in load_corpus() if e.name == "V2")
    g = build(v2.nodes, "yao", 5)
    r = greedy_route(g, v2.nodes.index_of("u"), v2.nodes.index_of("v"))
    assert not r.delivered
    assert r.stuck == v2.nodes.index_of("u")


def test_step_matches_exhaustive_argmin_on_void_free_graph():
    ns = random_nodeset(40, seed=50)
    g = build(ns, "yao", 7)
    assert check_void_free(g).void_free
    import random

    rng = random.Random(123)
    pts = ns.points
    for _ in range(100):
        u = rng.randrange(40)
        t = rng.randrange(40)
        if u == t:
            continue
        # independent recomputation with scalar distances
        best = min(
            ((distance(pts[w], pts[t]), w) for w in g.neighbors(u)),
            default=None,
        )
        expected = best[1] if best and best[0] < distance(pts[u], pts[t]) else None
        assert greedy_step(g, u, t) == expected


def test_delivered_paths_strictly_decrease_and_never_revisit():
    for seed in (60, 61, 62):
        ns = random_nodeset(25, seed=seed)
        g = build(ns, "theta", 8)
        for s in range(0, 25, 3):
            for t in range(0, 25, 4):
                r = greedy_route(g, s, t)
                assert r.delivered  # k=8 guarantees it
                assert len(set(r.path)) == len(r.path)
                assert r.path[0] == s and r.path[-1] == t
                dists = [g.dist(x, t) for x in r.path]
                assert all(a > b for a, b in zip(dists, dists[1:]))
                assert len(r.path) <= len(ns)


def test_route_terminates_within_node_count():
    ns = random_nodeset(30, seed=70)
    g = build(ns, "yao", 6)
    for t in range(0, 30, 5):
        r = greedy_route(g, 0, t)
        assert len(r.path) <= 30
