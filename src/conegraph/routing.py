"""Greedy forwarding over undirected geometric graphs.

Each hop goes to the neighbor closest to the target; a packet is stuck
(a void) when no neighbor is strictly closer to the target than the
current node. Distances to the target strictly decrease along any
delivered path, so routes terminate in fewer than |V| steps.

One array step, _next_hops, takes the hop of many (node, target) pairs
at once. It reads neighbors from the graph's CSR and distances from the
coordinates through model._norm, so no n x n array is built.
greedy_step and greedy_route run it on one-element arrays at each hop,
and voidcheck.check_by_routing on all of its stuck pairs in one call.
"""

import numpy as np

from .construct import _ranges
from .model import GeometricGraph, RouteResult, _norm


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
    return _hop(*g.nodes.coordinates(), *g.csr, u, t)[1]


def greedy_route(g: GeometricGraph, s: int, t: int) -> RouteResult:
    """Forward greedily from s until t is reached or a void is hit.

    Raises ValueError on a directed graph, even when s == t.
    """
    _check_undirected(g)
    s = g._check_node(s)
    t = g._check_node(t)
    x, y = g.nodes.coordinates()
    indptr, indices = g.csr
    path = [s]
    while path[-1] != t:
        u = path[-1]
        best, nxt = _hop(x, y, indptr, indices, u, t)
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


def _hop(x, y, indptr, indices, u: int, t: int) -> tuple[float, int | None]:
    """_next_hops for the one pair (u, t), with None for -1."""
    best, nxt = _next_hops(x, y, indptr, indices, np.array([u]), np.array([t]))
    return float(best[0]), (int(nxt[0]) if nxt[0] >= 0 else None)


def _next_hops(x, y, indptr, indices, u, t):
    """For each pair (u[i], t[i]) of nodes at x, y, with u[i]'s neighbors
    indices[indptr[u[i]]:indptr[u[i] + 1]] ascending: the distance to t[i]
    of u[i]'s neighbor nearest to it (+inf when u[i] is isolated), and that
    neighbor, or -1 when it is not strictly closer to t[i] than u[i] is.
    Ties go to the smallest index."""
    first = indptr.take(u)
    deg = indptr.take(u + 1) - first
    w = indices.take(_ranges(first, deg))
    tw = np.repeat(t, deg)
    d = _norm(x.take(w) - x.take(tw), y.take(w) - y.take(tw))
    best = np.full(len(u), np.inf)
    nxt = np.full(len(u), -1, np.intp)
    some = deg > 0
    if some.any():
        start = (deg.cumsum() - deg)[some]
        best[some] = np.minimum.reduceat(d, start)
        # each pair's first slot at its minimum (distances are never NaN):
        # neighbors ascend, so it holds the smallest-index nearest one
        slot = np.where(d == np.repeat(best, deg), np.arange(d.size), d.size)
        nxt[some] = w.take(np.minimum.reduceat(slot, start))
    nxt[~(best < _norm(x.take(u) - x.take(t), y.take(u) - y.take(t)))] = -1
    return best, nxt
