"""Greedy forwarding over undirected geometric graphs.

Each hop goes to the neighbor closest to the target; a packet is stuck
(a void) when no neighbor is strictly closer to the target than the
current node. Distances to the target strictly decrease along any
delivered path, so routes terminate in fewer than |V| steps.
"""

import math

from .model import GeometricGraph, RouteResult


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
    return _next_hop(g, u, t)[1]


def greedy_route(g: GeometricGraph, s: int, t: int) -> RouteResult:
    """Forward greedily from s until t is reached or a void is hit.

    Raises ValueError on a directed graph, even when s == t.
    """
    if g.directed:
        raise ValueError("greedy forwarding is defined on the undirected graph")
    s = g._check_node(s)
    t = g._check_node(t)
    path = [s]
    while path[-1] != t:
        u = path[-1]
        best, nxt = _next_hop(g, u, t)
        if nxt is None:
            return RouteResult(
                delivered=False, path=tuple(path), stuck=u, best_neighbor_distance=best
            )
        path.append(nxt)
        if len(path) > len(g.nodes):  # unreachable: distance to t strictly decreases
            raise RuntimeError("greedy route revisited a node")
    return RouteResult(delivered=True, path=tuple(path))


def _next_hop(g: GeometricGraph, u: int, t: int) -> tuple[float, int | None]:
    """Distance to t of u's neighbor nearest t (+inf when u is isolated),
    and that neighbor, or None when it is not strictly closer to t than u."""
    row = g._dist_rows[t]
    best, nxt = math.inf, None
    for w in g.neighbors(u):
        if row[w] < best:  # strict: ties keep the smallest index
            best, nxt = row[w], w
    return best, (nxt if best < row[u] else None)
