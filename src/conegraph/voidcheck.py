"""Void-freeness verdicts, witnesses, and the cone-relay geometry checks
behind the k >= 6 guarantees.

A graph is void-free when every node u has, for every other node v,
some neighbor strictly closer to v than u itself. The pair scan is the
reference semantics, and has_void stops after the first block of source
nodes that holds a witness. It has two table sources, both giving the
witnesses of the exhaustive scan bit for bit:

- The distance matrix (_void_witnesses), for small graphs and the
  counterexample search's batch: per block of source rows it folds in the
  distance rows of each source's neighbors, a few neighbor slots at a
  time, keeping every target's minimum. Like the construction kernel, it
  reads each node's targets from a candidate table, so one pass covers
  one graph or the search's batch of small graphs.
- Cells (_cell_witnesses), for graphs with k >= 3 of at least
  _CELL_SCAN_NODES nodes: (u, v) can be a void only where v lies in u's
  Voronoi cell among u and its neighbors. A certified bound on that cell
  (_cell_reach) limits u's targets to a block of cells around it, from
  the node set's grid, which construction shares (NodeSet._grid), and
  distances come from the coordinates, so no n x n array is built.

check_by_routing is an independent oracle through greedy forwarding's
first step. Its own pass over the distance matrix keeps every node's
neighbor minimum per target, from the CSR; the pairs where that minimum
is not below the node's own distance are stuck, and the minimum is the
witness's neighbor distance.

The cone-relay checks also run over blocks of source rows, so no step
makes a per-pair Python call. Like the construction kernel, they take
cones from geometry._cones, (row, cone) slots and bisectors from
construct._cone_groups and construct._cone_bisectors, and distances from
model._norm, so both decide every pair the same way.
"""

import math
from dataclasses import dataclass
from itertools import chain, repeat, starmap

import numpy as np

# cone_of is not called here; the benchmark harness counts calls to it
# through this module's namespace, so the name stays importable
from .geometry import (  # noqa: F401
    _DELTA, _EPS, _KEY_MIN, _check_k, _cones, _padded_pieces, _ranges, cone_of)
from .model import (
    THETA, YAO, GeometricGraph, NodeSet, VoidWitness, _csr, _distances, _norm, _symmetric_keys)
from .construct import (_BLOCK_PAIRS, _build_directed, _cone_bisectors, _cone_groups,
                        build_directed_theta, build_directed_yao)
# greedy_route is not called here; the benchmark harness wraps it through
# this module's namespace, and `perfbench/run.py --trace 1` fails without it
from .routing import greedy_route  # noqa: F401

# Distance-matrix entries per pair-scan gather: a block of _SCAN_BLOCK // m
# source rows of m candidates gathers as many neighbor slots' rows at a
# time as fit (all at once raised the sweep benchmark's peak RSS by about
# 0.5 MiB). On a 2-core x86-64 VM, 2**15 (256 KiB) against 2**14 scanned
# graphs of 2 to 60 nodes in 0.018 against 0.019 ms, of 60 to 120 in 0.056
# against 0.065 ms, and of 200 to 400 in 0.45 against 0.47 ms.
_SCAN_BLOCK = 1 << 15

# The cell-bounded scan (_cell_witnesses) serves graphs with k >= 3 of at
# least _CELL_SCAN_NODES nodes; smaller ones scan the distance matrix.
# Measured on a 2-core x86-64 VM (best of 7, three seeds, Yao k = 4, 6 and
# 12, the matrix scan with its distance matrix) with cells that follow
# density, the cell scan ran 0.58 to 0.89 times as fast as the matrix scan
# at 300 nodes, 0.94 to 1.47 times at 500 and 2.08 to 2.44 times at 1,000
# on uniform sets; on sets of 8 Gaussian clusters 0.47 to 0.67, 0.73 to
# 0.95 and 1.22 to 1.48 times (cells over the bounding box: 0.60 to 0.93,
# 0.98 to 1.55, 2.15 to 2.50; 0.43 to 0.69, 0.70 to 0.91, 1.12 to 1.40).
# Its memory does not grow as n**2.
_CELL_SCAN_NODES = 500
# A neighbor w of u whose squared distance to v is at most (1 - _TIE) times
# u's is strictly closer to v in doubles too (see _cell_reach)
_TIE = 2.0**-40
# The cell scan runs in pieces of about _CELL_ENTRIES entries: padded rows of
# q's in _cell_reach, widest first (geometry._padded_pieces), and gathered
# candidates and (pair, neighbor) slots in _cell_witnesses. On `large`'s sets
# the traced peak was 1.5 to 1.7 MiB at 2**13, and 2.8 to 3.9 MiB at 2**14 to
# 2**16 (construction's _TABLE_ENTRIES is 2**15), at about the same speed.
_CELL_ENTRIES = 1 << 13


@dataclass(frozen=True)
class VoidReport:
    """A void verdict: void_free holds exactly when witnesses is empty, and
    witnesses are sorted by (u, v)."""

    void_free: bool
    witnesses: tuple[VoidWitness, ...]


def check_void_free(g: GeometricGraph) -> VoidReport:
    """Find every ordered node pair that is a void.

    Emits a witness for every pair (u, v) where no neighbor of u is
    strictly closer to v; witnesses come out sorted by (u, v). Large
    graphs skip the pairs that a certified cell bound proves are not
    voids (see _scan). A single-node graph is vacuously void-free.
    """
    witnesses = tuple(chain.from_iterable(starmap(_witnesses, _scan(g))))
    return VoidReport(void_free=not witnesses, witnesses=witnesses)


def _witnesses(u, v, d, best) -> tuple[VoidWitness, ...]:
    """The records of witness arrays (u, v, d, best), as _scan yields them."""
    # tuple.__new__ skips the named tuple's Python-level __new__, so the whole
    # map runs in C, in about 60% of the time that VoidWitness(...) calls take
    return tuple(map(tuple.__new__, repeat(VoidWitness),
                     zip(u.tolist(), v.tolist(), d.tolist(), best.tolist())))


def has_void(g: GeometricGraph) -> bool:
    """Short-circuit variant of check_void_free: True at the first void.

    Runs the same scan and stops after the first block of source rows
    that holds a witness. The counterexample search calls it on its first
    trial; its batches scan through _first_void.
    """
    return next(_scan(g), None) is not None


def _scan(g: GeometricGraph):
    """The pair scan of g. Yields each block of source nodes that holds a
    witness, in order, as arrays (u, v, d, best) of its witnesses sorted by
    (u, v): d is d(u, v) and best the distance to v of u's neighbor nearest
    to it. Graphs with k >= 3 and at least _CELL_SCAN_NODES nodes scan each
    node's cell (_cell_witnesses) on the node set's grid, if it serves the
    set's span; the others scan the distance matrix (_void_witnesses)."""
    if g.directed:
        raise ValueError("void-freeness is defined on the undirected graph")
    if g.k >= 3 and len(g.nodes) >= _CELL_SCAN_NODES and g.nodes._grid is not None:
        return _cell_witnesses(g.nodes._grid, *g.csr)
    return _void_witnesses(g.dist_matrix, np.arange(len(g.nodes))[None], *g.csr)


def _void_witnesses(dist, cols, indptr, indices):
    """The pair scan from distance tables, over undirected graphs each of
    whose nodes has the same row in the candidate table cols (see
    construct._build_directed):
    dist[u, j] = d(u, cols[u, j]), and indptr, indices are the keys' CSR.
    Yields as _scan does, per block of source rows that holds a witness,
    with v = cols[u, j] read from the table, in column order. A table row
    padded by repeating a candidate repeats that candidate's record."""
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
        if len(cols) > 1:  # u == v
            mask &= cols[r0:r1] != np.arange(r0, r1)[:, None]
        else:
            mask.reshape(-1)[r0::m + 1] = False
        if np.count_nonzero(mask):
            r, j = mask.nonzero()
            u = r + r0
            yield u, cols[u if len(cols) > 1 else 0, j], d[mask], best[mask]


def _first_void(batch: list[list[float]], family: str, k: int) -> int | None:
    """Index of the first drawn node set in batch, given by its flat
    coordinates, whose family-k graph has a void, or None, from one pass of
    the construction kernel and one of the pair scan over the whole batch.
    Each node's candidates are its set's nodes, padded to the largest set's
    size by repeating the set's last node, which changes no pick or minimum."""
    sizes = [len(coords) // 2 for coords in batch]
    ends = np.cumsum(sizes)
    cols = np.minimum((ends - sizes)[:, None] + np.arange(max(sizes)), ends[:, None] - 1)
    cols = cols.repeat(sizes, axis=0)
    xy = np.fromiter(chain.from_iterable(batch), float)
    x, y = xy[0::2], xy[1::2]
    keys = _symmetric_keys(_build_directed(x, y, cols, k, family, np.arange(len(x)))[0], len(x))
    block = next(_void_witnesses(_distances(x, y, cols), cols, *_csr(keys, len(x))), None)
    if block is None:
        return None
    u = block[0][0]  # the first witness is in the first set with a void
    return int(ends.searchsorted(u, side="right"))


def _cell_witnesses(grid, indptr, indices):
    """The pair scan over one undirected graph on the grid of its nodes, from
    their coordinates, without a distance matrix. u's targets are the nodes
    within its reach (_cell_reach), gathered through the grid's block query;
    a node without a certified reach gets every node. Reaches are bounded in
    pieces cut by geometry._padded_pieces, rows of degree + 4 q's. Yields as
    _scan does, in pieces of about _CELL_ENTRIES gathered candidates."""
    x, y, n = grid.x, grid.y, len(grid.x)
    reach = np.empty(n)
    for i, _ in _padded_pieces(indptr[1:] - indptr[:-1] + 4, _CELL_ENTRIES):
        reach[i] = _cell_reach(grid, indptr, indices, i) * (1 + _EPS)
    r = grid.radius(reach)
    count = grid.count(np.arange(n), r)
    for a, b in _pieces(count):
        v = grid.gather(np.arange(a, b), r[a:b])
        u = np.repeat(np.arange(a, b), count[a:b])
        d = _norm(x.take(v) - x.take(u), y.take(v) - y.take(u))
        near = d <= reach.take(u)
        key = u[near] * n + v[near]
        at = key.argsort()
        u, v = np.divmod(key.take(at), n)
        d = d[near].take(at)
        best = _nearest(x, y, u, v, indptr, indices)
        mask = (best >= d) & (u != v)
        if mask.any():
            yield u[mask], v[mask], d[mask], best[mask]


def _nearest(x, y, u, v, indptr, indices):
    """For each pair (u[i], v[i]), the distance to v[i] of u[i]'s neighbor
    nearest to it, +inf for an isolated u[i]: the minimum of the same
    elementwise steps as the distance matrix's entries. Runs in pieces of
    about _CELL_ENTRIES (pair, neighbor) slots."""
    deg = indptr.take(u + 1) - indptr.take(u)
    best = np.full(len(u), np.inf)
    for a, b in _pieces(deg):
        k = deg[a:b]
        w = indices.take(_ranges(indptr.take(u[a:b]), k))
        t = np.repeat(v[a:b], k)
        dist = _norm(x.take(t) - x.take(w), y.take(t) - y.take(w))
        some = k > 0
        if some.any():
            best[a:b][some] = np.minimum.reduceat(dist, (k.cumsum() - k)[some])
    return best


def _pieces(cost):
    """(a, b) bounds of consecutive items whose costs add up to about
    _CELL_ENTRIES; an item that costs more is a piece of its own."""
    total = cost.cumsum()
    ends = total.searchsorted(np.arange(_CELL_ENTRIES, total[-1], _CELL_ENTRIES), side="right")
    ends = np.unique(np.append(ends[ends > 0], len(cost))).tolist()
    return zip([0, *ends[:-1]], ends)


def _cell_reach(grid, indptr, indices, src):
    """Each node u in src's reach: a distance beyond which no node v is a
    witness (u, v) in doubles, or +inf where that is not certified.

    v is a witness in exact arithmetic only if it lies in u's Voronoi cell
    among u and its neighbors, clipped to the bounding box. Relative to u,
    scaled so that the span lies in [1, 2), that cell is {p : p.q <= 1} for
    q over 2(w - u)/|w - u|**2, each neighbor w, and the four box sides,
    moved out by 2**-10. Its farthest vertex from u is the pole of the edge
    of the q's convex hull nearest the origin, at distance R = max over hull
    edges (a, b) of |b - a| / cross(a, b). The hull is found by dropping, from
    each row of q's sorted by angle, every vertex that does not turn left by
    a margin, until none is dropped. A dropped hull vertex only enlarges the
    cell, so R stays a bound.

    The certificate. A node v at distance t > R from u lies outside the
    cell, so p.q >= t/R for p = v - u and some q, a neighbor w's, since
    every node is inside the box. Then |v - w|**2 = t**2 - |w - u|**2 *
    (p.q - 1) is at most (1 - D) t**2 with D = delta**2 * (t/R - 1) / t**2
    and delta u's nearest neighbor distance. Over t in [R, L], L u's
    distance to the farthest box corner, D is least at t = R or t = L. Where
    that least D is at least _TIE, and R at least _KEY_MIN, w's distance to
    v is below u's in doubles too: rounding moves each by a few ulps, and
    keeps squares of R and more normal. R carries a margin of _EPS / 2 over
    its rounding: the q's are off by a few ulps, and each kept turn and edge
    clears _DELTA of its scale, so R is off by less than 2**-25 relative.
    """
    n, x, y, (x0, x1, y0, y1) = len(src), grid.x, grid.y, grid.box
    scale = math.ldexp(1.0, 1 - math.frexp(max(x1 - x0, y1 - y0))[1])
    first, deg = indptr.take(src), indptr.take(src + 1) - indptr.take(src)
    width = int(deg.max())
    edge = np.arange(width) < deg[:, None]
    nb = indices.take(first[:, None] + np.arange(width), mode="clip")
    xs, ys = x.take(src), y.take(src)
    dx = (x.take(nb) - xs[:, None]) * scale
    dy = (y.take(nb) - ys[:, None]) * scale
    sq = dx * dx + dy * dy
    delta2 = np.where(edge, sq, np.inf).min(axis=1, initial=np.inf)
    # isolated nodes, and neighbors so near that their q's lose precision
    ok = (deg > 0) & (delta2 >= 2.0**-800)
    sq[sq < 2.0**-800] = 1.0
    pad = 2.0**-10
    qx = np.concatenate((2 * dx / sq, 1 / ((x1 - xs) * scale + pad)[:, None],
                         -1 / ((xs - x0) * scale + pad)[:, None], np.zeros((n, 2))), axis=1)
    qy = np.concatenate((2 * dy / sq, np.zeros((n, 2)), 1 / ((y1 - ys) * scale + pad)[:, None],
                         -1 / ((ys - y0) * scale + pad)[:, None]), axis=1)
    live = np.concatenate((edge, np.ones((n, 4), bool)), axis=1)
    # rows of q's by angle, live ones first; cnt[u] of them are live
    width += 4
    by_angle = np.where(live, np.arctan2(qy, qx), np.inf).argsort(axis=1, kind="stable")
    by_angle += np.arange(0, n * width, width)[:, None]
    qx, qy = qx.take(by_angle), qy.take(by_angle)
    cnt = deg + 4
    j = np.arange(width)
    rows = ok.nonzero()[0]
    while rows.size:
        # flat indices of each live q's predecessor and successor in its row
        c = cnt[rows, None]
        base = np.arange(0, rows.size * width, width)[:, None]
        px, py = qx[rows], qy[rows]
        before = base + np.where(j == 0, c - 1, j - 1)
        after = base + np.where(j + 1 >= c, 0, j + 1)
        ax, ay, bx, by = px.take(before), py.take(before), px.take(after), py.take(after)
        turn = (px - ax) * (by - py) - (py - ay) * (bx - px)
        size = (abs(ax) + abs(ay) + abs(px) + abs(py)) * (abs(px) + abs(py) + abs(bx) + abs(by))
        keep = (j < c) & (turn > _DELTA * size)
        kept = keep.sum(1)
        changed = (kept < c[:, 0]).nonzero()[0]
        rows, kept = rows[changed], kept[changed]
        left = np.argsort(~keep[changed], axis=1, kind="stable") + base[changed]
        qx[rows], qy[rows] = px.take(left), py.take(left)
        cnt[rows] = kept
        rows = rows[kept >= 3]
    ok &= cnt >= 3
    # each live q and its successor: an edge of the hull
    c = cnt[:, None]
    after = np.arange(0, n * width, width)[:, None] + np.where(j + 1 >= c, 0, j + 1)
    bx, by = qx.take(after), qy.take(after)
    cross = qx * by - qy * bx
    side = j < c
    clear = cross > _DELTA * (abs(qx) + abs(qy)) * (abs(bx) + abs(by))
    ok &= (clear | ~side).all(1)
    inv = np.hypot(bx - qx, by - qy) / np.where(side & clear, cross, 1.0)
    reach = np.where(side, inv, 0.0).max(1) * (1 + _EPS)
    far = np.hypot(np.maximum(xs - x0, x1 - xs), np.maximum(ys - y0, y1 - ys)) * scale * (1 + _EPS)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        least = delta2 * np.minimum(_EPS / 2 / reach**2, (far / reach - 1) / far**2)
    ok &= (least >= _TIE) & (reach >= _KEY_MIN * scale)
    return np.where(ok, reach / scale, np.inf)


def check_by_routing(g: GeometricGraph) -> VoidReport:
    """Independent void oracle: report every (node, target) pair at which
    greedy forwarding between some ordered pair of nodes gets stuck.

    Every node is itself a source, so these are exactly the pairs (u, t),
    u != t, at which greedy forwarding's first step from u fails: no
    neighbor of u is strictly closer to t than u. One numpy step per node
    keeps, for every target, the distance of u's neighbor nearest to it,
    reading the neighbors from the CSR rather than through the pair scan's
    kernel, which this checks. The report equals check_void_free's.
    """
    if g.directed:
        raise ValueError("void-freeness is defined on the undirected graph")
    n = len(g.nodes)
    dist = g.dist_matrix  # symmetric: dist[w, t] is w's distance to t
    indptr, indices = g.csr
    ptr = indptr.tolist()
    best = np.empty((n, n))
    for u in range(n):
        dist.take(indices[ptr[u]:ptr[u + 1]], axis=0).min(axis=0, initial=np.inf, out=best[u])
    stuck = best >= dist
    np.fill_diagonal(stuck, False)
    us, vs = np.nonzero(stuck)
    witnesses = _witnesses(us, vs, dist[us, vs], best[us, vs])
    return VoidReport(void_free=not witnesses, witnesses=witnesses)


def witness_report_dict(g: GeometricGraph, report: VoidReport) -> dict:
    """JSON-ready form of a report, with node ids instead of indices."""
    ids = g.nodes.ids
    return {"void_free": report.void_free, "witnesses": [
        {"u": ids[u], "v": ids[v], "d_uv": d, "min_neighbor_d": None if math.isinf(best) else best}
        for u, v, d, best in report.witnesses]}


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
    measure = "distance" if family == YAO else "projection"
    violations = []
    rows = max(1, _BLOCK_PAIRS // n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        b = r1 - r0
        # dx, dy are v - u for source rows u and target columns v
        dx = nodes.x - nodes.x[r0:r1, None]
        dy = nodes.y - nodes.y[r0:r1, None]
        cone = _cones(dx, dy, k)
        # each pair's (row, cone) slot, numbered as the construction kernel does
        slot, cones = _cone_groups(cone, k)
        slots = b * (k + 1) if cones is None else cones.size
        slot = slot.reshape(cone.shape)
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
            bx, by = _cone_bisectors(cone, slot, cones, k)
            key = dx * bx + dy * by
            d_uv = _norm(dx, dy)
        selected = ~(key[src, w] <= key) & tested
        farther = ~(_norm(nodes.x - nodes.x[w], nodes.y - nodes.y[w]) < d_uv) & tested
        flagged = (selected | farther).nonzero()
        for r, v in zip(*(a.tolist() for a in flagged)):
            # the float cone of a k above 2**53 may round up past k; cone_of's clamp
            u, wv, i = r0 + r, int(w[r, v]), min(int(cone[r, v]), k)
            if selected[r, v]:
                violations.append(
                    f"selected neighbor {wv} of node {u} does not minimize the "
                    f"{measure} in cone {i}"
                )
            if farther[r, v]:
                violations.append(f"selected neighbor {wv} of node {u} is not closer to {v}")
    return violations
