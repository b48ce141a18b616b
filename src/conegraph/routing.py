"""Greedy forwarding over undirected geometric graphs.

Each hop goes to the neighbor closest to the target; a packet is stuck
(a void) when no neighbor is strictly closer to the target than the
current node. Distances to the target strictly decrease along any
delivered path, so routes terminate in fewer than |V| steps.

A hop (_hop) reads u's neighbors from the graph's CSR and their distances
to the target through model.distance, which matches the void scan's
array distances bit for bit. It costs O(degree) and builds no array, so
routes answer at any n.
"""

import math

from .model import GeometricGraph, RouteResult, distance


def greedy_step(g: GeometricGraph, u: int, t: int) -> int | None:
    """Next hop from u toward t, or None when u has no neighbor strictly
    closer to t (the void signal).

    Neighbor ties on distance-to-target break by smallest node index.
    Raises ValueError when u == t (already delivered) or on a directed
    graph.
    """
    u = g._check_node(u)
    t = g._check_node(t)
    if u == t:
        raise ValueError("already delivered: node is the target")
    _check_undirected(g)
    return _hop(g, u, t)[1]


def greedy_route(g: GeometricGraph, s: int, t: int) -> RouteResult:
    """Forward greedily from s until t is reached or a void is hit.

    Raises ValueError on a directed graph, even when s == t.
    """
    _check_undirected(g)
    s = g._check_node(s)
    t = g._check_node(t)
    path = [s]
    while path[-1] != t:
        u = path[-1]
        best, nxt = _hop(g, u, t)
        if nxt is None:
            return RouteResult(
                delivered=False, path=tuple(path), stuck=u, best_neighbor_distance=best
            )
        path.append(nxt)
        if len(path) > len(g.nodes):  # unreachable: distance to t strictly decreases
            raise RuntimeError("greedy route revisited a node")
    return RouteResult(delivered=True, path=tuple(path))


def _check_undirected(g: GeometricGraph):
    if g.directed:
        raise ValueError("greedy forwarding is defined on the undirected graph")


def _hop(g: GeometricGraph, u: int, t: int) -> tuple[float, int | None]:
    """The distance to t of u's neighbor nearest to it (+inf when u is
    isolated), and that neighbor, or None unless it is strictly closer to
    t than u is. Neighbors ascend, so ties go to the smallest index."""
    indptr, indices = g.csr
    pts = g.nodes.points
    target = pts[t]
    best, nxt = math.inf, None
    for w in indices[indptr[u]:indptr[u + 1]].tolist():
        d = distance(pts[w], target)
        if d < best:
            best, nxt = d, w
    return best, (nxt if best < distance(pts[u], target) else None)
