"""Void-freeness verdicts, witnesses, and the cone-relay geometry checks
behind the k >= 6 guarantees.

A graph is void-free when every node u has, for every other node v,
some neighbor strictly closer to v than u itself. The exhaustive pair
scan is the reference semantics. It works on blocks of source rows: per
block it folds in the distance rows of each source's neighbors, a few
neighbor slots at a time, keeping every target's minimum, so has_void
stops after the first block that holds a witness. Like the construction
kernel, it reads each node's targets from a candidate table, so one pass
covers one graph (check_void_free, has_void) or the counterexample
search's batch of small graphs. check_by_routing is an independent
oracle through greedy forwarding.

The cone-relay checks also run over blocks of source rows, so no step
makes a per-pair Python call. Like the construction kernel, they take
cones and bisectors from geometry._cones and geometry._bisectors and
distances from model._norm, so both decide every pair the same way.
"""

import math
from dataclasses import dataclass

import numpy as np

# cone_of is not called here; the benchmark harness counts calls to it
# through this module's namespace, so the name stays importable
from .geometry import _bisectors, _check_k, _cones, _ranks, cone_of  # noqa: F401
from .model import THETA, YAO, GeometricGraph, NodeSet, VoidWitness, _norm
from .construct import _BLOCK_PAIRS, _own_slots, build_directed_theta, build_directed_yao
from .routing import greedy_route

# Distance-matrix entries per pair-scan gather. A block of
# _SCAN_BLOCK // n source rows gathers the distance rows of as many of
# their neighbor slots at a time as fit, one slot at a time at large n.
# Gathering all slots at once is up to maxdeg times larger, and raised
# the sweep benchmark's peak RSS by about 0.5 MiB. On a 2-core x86-64 VM
# 1,000-node scans ran fastest near 2**15 entries (256 KiB per gather).
_SCAN_BLOCK = 1 << 15


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
    witnesses = []
    for r0, mask, d, best in _scan(g):
        us, vs = mask.nonzero()
        witnesses.extend(map(VoidWitness, (us + r0).tolist(), vs.tolist(),
                             d[mask].tolist(), best[mask].tolist()))
    return VoidReport(void_free=not witnesses, witnesses=tuple(witnesses))


def has_void(g: GeometricGraph) -> bool:
    """Short-circuit variant of check_void_free: True at the first void.

    Runs the same scan and stops after the first block of source rows
    that holds a witness; used in bulk by the counterexample search.
    """
    return next(_scan(g), None) is not None


def _scan(g: GeometricGraph):
    if g.directed:
        raise ValueError("void-freeness is defined on the undirected graph")
    return _void_witnesses(g.dist_matrix, np.arange(len(g.nodes))[None], *g.csr)


def _void_witnesses(dist, cols, indptr, indices):
    """The pair scan over undirected graphs, each of whose nodes has the same
    row in the candidate table cols (see construct._build_directed):
    dist[u, j] = d(u, cols[u, j]), and indptr, indices are the keys' CSR.
    Yields each block of source rows that holds a witness, in order, as
    (r0, mask, d, best): over rows u = r0 + r and columns j, mask marks the
    witnesses (u, cols[u, j]), d[r, j] = dist[u, j], and best[r, j] is the
    distance to cols[u, j] of u's neighbor nearest to it."""
    n, m = dist.shape
    deg = indptr[1:] - indptr[:-1]
    width = max(1, int(deg.max()))
    # nb[u] is u's neighbors, padded to the largest degree with its own last
    # neighbor, which cannot change a minimum; an isolated node gets an
    # arbitrary one and +inf below
    at = np.minimum(indptr[:-1, None] + np.arange(width), indptr[1:, None] - 1)
    nb = indices.take(at, mode="clip") if indices.size else np.zeros((n, width), np.intp)
    rows = max(1, _SCAN_BLOCK // m)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        # best[r, j] is the distance to cols[u, j] of u's neighbor nearest to
        # it, from the neighbors' rows, which list u's candidates too. Gathers
        # take `step` slots, slot-major for a fast min, at most _SCAN_BLOCK
        # entries; slots past the block's largest degree hold padding only
        step = max(1, _SCAN_BLOCK // ((r1 - r0) * m))
        best = dist.take(nb[r0:r1, :step].T, axis=0).min(axis=0)
        for j in range(step, deg[r0:r1].max() if step < width else 0, step):
            np.minimum(best, dist.take(nb[r0:r1, j:j + step].T, axis=0).min(axis=0), out=best)
        best[deg[r0:r1] == 0] = np.inf
        d = dist[r0:r1]
        mask = best >= d
        mask.reshape(-1)[_own_slots(cols, r0, r1)] = False  # u == v
        if np.count_nonzero(mask):
            yield r0, mask, d, best


def check_by_routing(g: GeometricGraph) -> VoidReport:
    """Independent void oracle: report every (node, target) pair at which
    greedy forwarding between some ordered pair of nodes gets stuck.

    Every node is itself a source, so these are exactly the pairs (u, t),
    u != t, at which greedy forwarding's first step from u fails: no
    neighbor of u is strictly closer to t than u. One numpy step per
    node marks them, reading its neighbors from the CSR rather than
    through the pair scan's kernel, which this checks; each is replayed
    once through greedy_route for its neighbor distance. The report
    equals check_void_free's. Raises RuntimeError if a replay is not
    stuck at its source (unreachable).
    """
    if g.directed:
        raise ValueError("void-freeness is defined on the undirected graph")
    n = len(g.nodes)
    dist = g.dist_matrix  # symmetric: dist[w, t] is w's distance to t
    indptr, indices = g.csr
    ptr = indptr.tolist()
    stuck = np.empty((n, n), dtype=bool)
    for u in range(n):
        best = dist.take(indices[ptr[u]:ptr[u + 1]], axis=0).min(axis=0, initial=np.inf)
        np.greater_equal(best, dist[u], out=stuck[u])
    np.fill_diagonal(stuck, False)
    witnesses = []
    us, vs = np.nonzero(stuck)
    for u, v, d_uv in zip(us.tolist(), vs.tolist(), dist[us, vs].tolist()):
        result = greedy_route(g, u, v)
        if result.path != (u,):  # a one-node path toward v != u is stuck at u
            raise RuntimeError(f"greedy route {u} -> {v} is not stuck at its source")
        witnesses.append(VoidWitness(u, v, d_uv, result.best_neighbor_distance))
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
    every other node v in that cone: w is no farther from u than v is
    (selection minimality, with the construction kernel's distance key),
    and w is strictly closer to v than u is. A cone is at most pi/3
    wide, so the first implies the second in exact arithmetic. Returns
    a list of violation descriptions, empty on pass.
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
    k = _check_k(k)
    if k < 6:
        raise ValueError("cone angle exceeds pi/3 below k = 6")
    build_directed = build_directed_yao if family == YAO else build_directed_theta
    keys = build_directed(nodes, k).keys
    n = len(nodes)
    x, y = nodes.coordinates()
    measure = "distance" if family == YAO else "projection"
    violations = []
    rows = max(1, _BLOCK_PAIRS // n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        b = r1 - r0
        # dx, dy are v - u for source rows u and target columns v
        dx = x - x[r0:r1, None]
        dy = y - y[r0:r1, None]
        cone = _cones(dx, dy, k)
        # ranking the cone values makes (row, cone) a dense slot whatever k is
        vals, rank = _ranks(cone)
        slots = b * len(vals)
        slot = rank + np.arange(0, slots, len(vals))[:, None]
        # each pair's pick w is u's edge in v's cone; keys are sorted by source
        e0, e1 = keys.searchsorted((r0 * n, r1 * n))
        eu, ew = np.divmod(keys[e0:e1], n)
        pick = np.full(slots, -1, dtype=np.intp)
        pick[slot[eu - r0, ew]] = ew
        w = pick[slot]
        tested = w != np.arange(n)
        tested.reshape(-1)[r0::n + 1] = False  # u == v
        if (w[tested] < 0).any():
            raise RuntimeError("a non-empty cone has no selected neighbor")
        w[~tested] = 0  # any real node; untested pairs are masked out below
        src = np.arange(b)[:, None]
        # selection: Yao's distance minimality, or Theta's projection
        # minimality; the projections read dx, dy before _norm overwrites them
        if family == YAO:
            key = d_uv = _norm(dx, dy)
        else:
            # w shares v's cone, so one bisector per pair serves both projections
            bx, by = _bisectors(vals, k)
            key = dx * bx[rank] + dy * by[rank]
            d_uv = _norm(dx, dy)
        selected = ~(key[src, w] <= key) & tested
        farther = ~(_norm(x - x[w], y - y[w]) < d_uv) & tested
        flagged = (selected | farther).nonzero()
        for r, v in zip(*(a.tolist() for a in flagged)):
            u, wv, i = r0 + r, int(w[r, v]), int(cone[r, v])
            if selected[r, v]:
                violations.append(
                    f"selected neighbor {wv} of node {u} does not minimize the "
                    f"{measure} in cone {i}"
                )
            if farther[r, v]:
                violations.append(f"selected neighbor {wv} of node {u} is not closer to {v}")
    return violations
