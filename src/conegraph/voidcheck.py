"""Void-freeness verdicts, witnesses, and the cone-relay geometry checks
behind the k >= 6 guarantees.

A graph is void-free when every node u has, for every other node v,
some neighbor strictly closer to v than u itself. The exhaustive pair
scan is the reference semantics; check_by_routing is an independent
oracle exploiting the equivalence with greedy forwarding succeeding
between all ordered pairs. It tabulates every node's next hop toward
every target, finds where all n(n-1) routes end by pointer doubling on
that table, and replays greedy_route once per stuck (node, target) pair.
"""

import math
from dataclasses import dataclass

import numpy as np

from .geometry import angle_at, bisector_projection, cone_of
from .model import THETA, YAO, GeometricGraph, NodeSet, VoidWitness, distance
from .construct import build_directed_theta, build_directed_yao
from .routing import greedy_route

# Tolerance for the angle bound in the cone-relay checks only; the
# void-free verdict itself compares distances exactly.
ANGLE_TOL = 1e-9


@dataclass(frozen=True)
class VoidReport:
    void_free: bool
    witnesses: tuple[VoidWitness, ...]


def check_void_free(g: GeometricGraph) -> VoidReport:
    """Exhaustively scan all ordered node pairs for voids.

    Emits a witness for every pair (u, v) where no neighbor of u is
    strictly closer to v; witnesses come out sorted by (u, v). A
    single-node graph is vacuously void-free.
    """
    witnesses = tuple(_void_witnesses(g))
    return VoidReport(void_free=not witnesses, witnesses=witnesses)


def has_void(g: GeometricGraph) -> bool:
    """Short-circuit variant of check_void_free: True at the first void.

    Runs the same scan and stops at its first witness; used in bulk by
    the counterexample search.
    """
    return next(_void_witnesses(g), None) is not None


def _void_witnesses(g: GeometricGraph):
    """The pair scan: yields every witness in (u, v) order."""
    if g.directed:
        raise ValueError("void-freeness is defined on the undirected graph")
    n = len(g.nodes)
    if n < 2:
        return
    dist = g.dist_matrix
    for u, nbrs in enumerate(g.adjacency):
        if nbrs:
            best = dist[list(nbrs)].min(axis=0)
        else:
            best = np.full(n, math.inf)
        mask = best >= dist[u]
        mask[u] = False
        for v in np.nonzero(mask)[0]:
            yield VoidWitness(u, int(v), float(dist[u, v]), float(best[v]))


def check_by_routing(g: GeometricGraph) -> VoidReport:
    """Independent void oracle: resolve greedy forwarding between every
    ordered pair and report where packets get stuck.

    hop[u, t] is greedy_route's next hop from u toward t, or u itself
    when no neighbor is strictly closer to t. Pointer doubling over hop
    gives every route's end node in O(log n) array steps; each distinct
    (end, t) with end != t is a witness, replayed once through
    greedy_route for its neighbor distance. The void_free verdict always
    agrees with check_void_free. Raises RuntimeError if a route never
    settles or a replay is not stuck at its source, both unreachable
    because distances to the target strictly decrease along a route.
    """
    if g.directed:
        raise ValueError("void-freeness is defined on the undirected graph")
    n = len(g.nodes)
    dist = g.dist_matrix  # symmetric: dist[t, w] is w's distance to t
    targets = np.arange(n)
    hop = np.empty((n, n), dtype=np.intp)
    for u, nbrs in enumerate(g.adjacency):
        hop[u] = u
        if nbrs:
            nbrs = np.array(nbrs)
            cols = dist[:, nbrs]
            first = cols.argmin(axis=1)  # sorted neighbors: ties go to the smallest index
            moves = cols[targets, first] < dist[:, u]
            hop[u, moves] = nbrs[first[moves]]
    end = hop
    for _ in range(n.bit_length() + 1):
        nxt = end[end, targets]
        if np.array_equal(nxt, end):
            break
        end = nxt
    if not np.array_equal(hop[end, targets], end):
        raise RuntimeError("greedy route revisited a node")
    stuck = np.zeros((n, n), dtype=bool)
    stuck[end, targets] = True
    stuck[targets, targets] = False
    witnesses = []
    for u, v in zip(*(a.tolist() for a in np.nonzero(stuck))):
        result = greedy_route(g, u, v)
        if result.path != (u,):  # a one-node path toward v != u is stuck at u
            raise RuntimeError(f"greedy route {u} -> {v} is not stuck at its source")
        witnesses.append(VoidWitness(u, v, g.dist(u, v), result.best_neighbor_distance))
    return VoidReport(void_free=not witnesses, witnesses=tuple(witnesses))


def witness_report_dict(g: GeometricGraph, report: VoidReport) -> dict:
    """JSON-ready form of a report, with node ids instead of indices."""
    ids = g.nodes.ids
    return {
        "void_free": report.void_free,
        "witnesses": [
            {
                "u": ids[w.u],
                "v": ids[w.v],
                "d_uv": w.d_uv,
                "min_neighbor_d": (
                    None if math.isinf(w.min_neighbor_distance) else w.min_neighbor_distance
                ),
            }
            for w in report.witnesses
        ],
    }


def check_yao_cone_relay(nodes: NodeSet, k: int) -> list[str]:
    """Verify the geometry that makes Yao graphs void-free for k >= 6.

    For every node u, every cone holding its selected neighbor w, and
    every other node v in that cone: the angle at u between w and v
    stays below pi/3 (cones are at most that wide, and w and v cannot
    sit on different cone boundaries), and w is strictly closer to v
    than u is. Collinear triples keep the strict distance inequality at
    angle zero. Returns a list of violation descriptions, empty on pass.
    """
    return _check_cone_relay(nodes, k, YAO)


def check_theta_cone_relay(nodes: NodeSet, k: int) -> list[str]:
    """Theta counterpart of check_yao_cone_relay for k >= 6.

    The selected neighbor w must have the minimal bisector projection in
    its cone and still be strictly closer to every other in-cone node v
    than u is; this holds whether or not w is nearer to u than v.
    """
    return _check_cone_relay(nodes, k, THETA)


def _check_cone_relay(nodes: NodeSet, k: int, family: str) -> list[str]:
    if k < 6:
        raise ValueError("cone angle exceeds pi/3 below k = 6")
    build_directed = build_directed_yao if family == YAO else build_directed_theta
    g = build_directed(nodes, k)
    violations = []
    limit = math.pi / 3 + ANGLE_TOL
    pts = nodes.points
    picks = {(u, cone_of(pts[u], pts[w], k)): w for u, w in g.edges}
    for u in range(len(pts)):
        pu = pts[u]
        for v in range(len(pts)):
            if v == u:
                continue
            i = cone_of(pu, pts[v], k)
            w = picks[(u, i)]
            if w == v:
                continue
            # selection: Yao's angle bound, or Theta's projection minimality
            if family == YAO:
                ang = angle_at(pu, pts[w], pts[v])
                if ang >= limit:
                    violations.append(
                        f"angle({w},{u},{v}) = {ang} >= pi/3 for cone {i} of node {u}"
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
