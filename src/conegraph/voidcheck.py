"""Void-freeness verdicts, witnesses, and the cone-relay geometry checks
behind the k >= 6 guarantees.

A graph is void-free when every node u has, for every other node v,
some neighbor strictly closer to v than u itself. The exhaustive pair
scan is the reference semantics; check_by_routing is an independent
oracle exploiting the equivalence with greedy forwarding succeeding
between all ordered pairs.
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
    """Independent void oracle: run greedy forwarding between every
    ordered pair and report where packets get stuck.

    The void_free verdict always agrees with check_void_free; each
    stuck pair (stuck node, target) is itself a witness pair, though
    greedy may stall at an intermediate node rather than the source.
    """
    if g.directed:
        raise ValueError("void-freeness is defined on the undirected graph")
    n = len(g.nodes)
    stuck: dict[tuple[int, int], float] = {}
    for s in range(n):
        for t in range(n):
            if s == t:
                continue
            result = greedy_route(g, s, t)
            if not result.delivered:
                stuck.setdefault((result.stuck, t), result.best_neighbor_distance)
    witnesses = tuple(
        VoidWitness(u, v, g.dist(u, v), best)
        for (u, v), best in sorted(stuck.items())
    )
    return VoidReport(void_free=not witnesses, witnesses=witnesses)


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
