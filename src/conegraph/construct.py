"""Directed and undirected Yao / Theta graph construction.

Both families pick, for every node and every non-empty cone around it,
a single "closest" node in that cone: Euclidean distance for Yao, the
absolute projection distance onto the cone bisector for Theta. Ties are
broken deterministically by smallest node index; a cone whose every key
is +inf picks its smallest index too.

Construction runs a numpy kernel over blocks of source rows, each holding
about _BLOCK_PAIRS = 2**14 candidate pairs. A stable sort of each row by
cone index makes every cone one contiguous run, columns ascending, and
each run's first minimum is its pick. Rows of more than 24 candidates sort
the cones as uint16 (k < 2**16), which numpy sorts by radix; in shorter
rows its float sort is faster. A block's transient arrays stay near
1.5 MiB whatever n and k are. The kernel computes no formula itself:
cones and bisectors come from geometry._cones and geometry._bisectors,
which geometry.cone_of and geometry.bisector_projection run too, and Yao
keys from model._norm, the array form of model.distance. The tests
compare it edge for edge with a per-pair scalar cone scan.

The kernel reads each node's candidates from a table (_build_directed).
The counterexample search passes a batch of small sets of any sizes at
once. build_directed_yao and build_directed_theta get the directed graph's
sorted keys u*n + v in one of two ways, chosen from n and k:

- The shared row: every node's candidates are all n nodes, the one row
  np.arange(n)[None]. O(n**2) pairs; it serves small sets, k < 3 and
  large k.
- Grid tables (_grid_keys), for 3 <= k <= _GRID_MAX_K and at least
  _GRID_CONE_NODES * k nodes: each node's row is the nodes in its block
  of grid cells (_Grid.gather, the query the void scan shares),
  ascending and padded as in the batch, and the same kernel picks from
  it. A node's picks are kept only if a certificate proves that no node
  off its row could be picked or tie: each pick's key is below the gap
  to the block's nearest side with cells beyond it (_Grid.gaps; times
  cos(pi/k) for Theta), and each cone without a pick stays inside the
  block as far as the bounding box reaches, with margins for rounding
  (see _grid_keys). The others get a larger block, then the shared row,
  so every edge is the shared row's.

undirect merges the keys with their reverses. No step builds an edge
tuple or checks the keys again (see model.GeometricGraph._from_keys).
"""

import math

import numpy as np

# cone_of is not called here; the benchmark harness counts calls to it
# through this module's namespace, so the name stays importable
from .geometry import TAU, _bisectors, _check_k, _cones, _turns, cone_of  # noqa: F401
from .model import THETA, YAO, GeometricGraph, NodeSet, _norm, _symmetric_keys

# Ordered pairs per kernel block. About ten arrays of this many 8-byte
# entries are alive at once; at 2**14 each fits in a core's L2 cache, and
# on a 2-core x86-64 VM 1,000- and 3,000-node builds ran faster than at
# 2**16 or 2**12.
_BLOCK_PAIRS = 1 << 14

# The grid path (_grid_keys) serves 3 <= k <= _GRID_MAX_K and sets of at
# least _GRID_CONE_NODES * k nodes. Measured on a 2-core x86-64 VM (best of
# 5 to 7, three seeds each), against the shared row: uniform sets in the
# unit square, and sets of 8 Gaussian clusters with sigma 0.01, as the
# benchmark's `large` workload draws them. A cone's pick lies farther away
# the narrower the cone, so more rows fall through to the shared row as k
# grows, and the crossover n grows with k: at n = 120k clustered sets ran
# 0.85 to 1.22 times as fast, at 150k 0.95 to 1.46 (uniform ones 1.2 to
# 3.8), for k from 3 to 32. Above k = 32 the gain on uniform sets fell
# below 1.3, and the certificate keeps (rows, k) arrays.
_GRID_CONE_NODES = 150
_GRID_MAX_K = 32
# Cells hold _CELL_NODES nodes on average, and round i's block is the
# (2r + 1)**2 cells around a node's cell for r = _GRID_RADII[i]. Of 1, 1.5,
# 2, 3 and 4 nodes per cell and the radii (1, 2), (1, 3), (2,), (2, 3),
# (2, 4), (2, 5) and (3,), these were within 7% of the fastest on uniform
# sets of 1,000 and 3,000 nodes for the k the gate admits there, and within
# 15% on the clustered ones, where the second round certifies few rows.
_CELL_NODES = 2
_GRID_RADII = (2, 4)
# Grid tables are built and run in pieces of at most _TABLE_ENTRIES
# entries. The 1,000-node clustered set of the benchmark's `large` workload
# at seed 8675309 has a 250,000-entry first table; built whole, it raised
# the workload's peak RSS from 53.8 to 56.9 MiB (in 2**17-entry pieces the
# seed-0 sets still added 1.6 MiB). In 2**16-entry pieces its CLI calls
# peaked 0.3 MiB above the shared row's, and 1,000-node builds took about
# 5% longer.
_TABLE_ENTRIES = 1 << 16
# The certificate's margins, and the key and span range where its
# rounding bounds hold (see _grid_keys)
_EPS = 2.0**-20
_DELTA = 2.0**-30
_KEY_MIN = 2.0**-500
_SPAN_MAX = 2.0**510


def build_directed_yao(nodes: NodeSet, k: int) -> GeometricGraph:
    """Directed Yao graph: each node points at its Euclidean-closest
    node within each of its k cones."""
    return _directed_graph(nodes, _check_k(k), YAO)


def build_directed_theta(nodes: NodeSet, k: int) -> GeometricGraph:
    """Directed Theta graph: as Yao, but "closest" means the smallest
    projection distance onto the cone's bisector."""
    return _directed_graph(nodes, _check_k(k), THETA)


def undirect(g: GeometricGraph) -> GeometricGraph:
    """Forget edge directions, collapsing mutual pairs to one edge."""
    if not g.directed:
        raise ValueError("graph is already undirected")
    keys = _symmetric_keys(g.keys, len(g.nodes))
    return GeometricGraph._from_keys(g.family, g.k, False, g.nodes, keys)


def build(nodes: NodeSet, family: str, k: int, directed: bool = False) -> GeometricGraph:
    """Build a graph of the given family; convenience dispatcher."""
    if family == YAO:
        g = build_directed_yao(nodes, k)
    elif family == THETA:
        g = build_directed_theta(nodes, k)
    else:
        raise ValueError(f"unknown family {family!r}")
    return g if directed else undirect(g)


def _directed_graph(nodes: NodeSet, k: int, family: str) -> GeometricGraph:
    x, y = nodes.coordinates()
    if 3 <= k <= _GRID_MAX_K and len(x) >= _GRID_CONE_NODES * k:
        keys = _grid_keys(x, y, k, family)
    else:
        keys = _build_directed(x, y, np.arange(len(x))[None], k, family)
    return GeometricGraph._from_keys(family, k, True, nodes, keys)


class _Grid:
    """A cell index over the nodes at x, y: square cells of side h over the
    bounding box (x0, x1, y0, y1), gx wide and gy high. Node i lies at
    (tx[i], ty[i]) in cell units, in cell (cx[i], cy[i]); cell c = cy*gx + cx
    holds the nodes order[start[c]:start[c + 1]], ascending, and total[j, i]
    counts the nodes in the cells below row j and left of column i.

    No code outside this class works in cell units. Their rounding: t =
    (x - x0)/h is off by less than 2**-51 * t, and t <= n/2 (see _grid), so
    by less than 2**-52 * n, and a difference of two by less than 2**-21
    for n below 2**30, far more points than fit in memory. So radius adds
    _EPS cells, and gaps, a cell or more from r = 1 on, take off _EPS
    relative, which leaves room for a few ulps of the keys they bound."""

    def __init__(self, x, y, box, h):
        x0, x1, y0, y1 = self.box = box
        self.h = h
        self.tx, self.ty = (x - x0) / h, (y - y0) / h
        self.gx, self.gy = gx, gy = int((x1 - x0) / h) + 1, int((y1 - y0) / h) + 1
        self.cx, self.cy = self.tx.astype(np.intp), self.ty.astype(np.intp)
        cell = self.cy * gx + self.cx
        counts = np.bincount(cell, minlength=gx * gy)
        self.order = cell.argsort(kind="stable")
        self.start = np.append(0, counts.cumsum())
        self.total = np.pad(counts.reshape(gy, gx).cumsum(0).cumsum(1), ((1, 0), (1, 0)))

    def block(self, rows, r):
        """The block of the cells within r of node u's cell in x and in y,
        clipped to the grid, for each u in rows, as cell bounds (x_lo, x_hi,
        y_lo, y_hi), ends excluded; r is one int or one per row."""
        cx, cy = self.cx[rows], self.cy[rows]
        return (np.maximum(cx - r, 0), np.minimum(cx + r, self.gx - 1) + 1,
                np.maximum(cy - r, 0), np.minimum(cy + r, self.gy - 1) + 1)

    def count(self, rows, r):
        """The number of nodes in each block, from the prefix sums."""
        x_lo, x_hi, y_lo, y_hi = self.block(rows, r)
        t = self.total
        return t[y_hi, x_hi] - t[y_lo, x_hi] - t[y_hi, x_lo] + t[y_lo, x_lo]

    def gather(self, rows, r):
        """The nodes of each block, one block after another, each cell row
        by cell row: a run of each row's cells in cell order."""
        x_lo, x_hi, y_lo, y_hi = self.block(rows, r)
        runs = y_hi - y_lo
        cells = _ranges(y_lo, runs) * self.gx
        lo = self.start.take(cells + np.repeat(x_lo, runs))
        return self.order.take(_ranges(lo, self.start.take(cells + np.repeat(x_hi, runs)) - lo))

    def gaps(self, rows, r):
        """Each node's distances to its block's west, east, south and north
        sides, as rows of an array, +inf where no cells lie beyond; from
        r = 1 on, lower bounds on its distance to every node off its block."""
        x_lo, x_hi, y_lo, y_hi = self.block(rows, r)
        tx, ty = self.tx[rows], self.ty[rows]
        gaps = np.array([np.where(x_lo > 0, tx - x_lo, np.inf),
                         np.where(x_hi < self.gx, x_hi - tx, np.inf),
                         np.where(y_lo > 0, ty - y_lo, np.inf),
                         np.where(y_hi < self.gy, y_hi - ty, np.inf)])
        gaps *= self.h * (1 - _EPS)
        return gaps

    def radius(self, dist):
        """Per node, a block radius r that holds every node within dist[u]
        of node u; an infinite dist spans the grid."""
        r = np.floor(dist / self.h + _EPS) + 1
        return np.minimum(r, max(self.gx, self.gy)).astype(np.intp)


def _grid(x, y) -> _Grid | None:
    """The cell index that construction and the void scan share, with
    _CELL_NODES nodes per cell on average, or None where the set's span is
    outside [_KEY_MIN, _SPAN_MAX), where the rounding bounds of their
    certificates do not hold."""
    n = len(x)
    x0, x1, y0, y1 = x.min(), x.max(), y.min(), y.max()
    w, hgt = x1 - x0, y1 - y0
    if not _KEY_MIN <= max(w, hgt) < _SPAN_MAX:
        return None
    # square cells of _CELL_NODES nodes on average over the bounding box; a
    # set near a line gets one row of n / _CELL_NODES cells
    h = max(math.sqrt(w * hgt * _CELL_NODES / n), max(w, hgt) * _CELL_NODES / n)
    return _Grid(x, y, (x0, x1, y0, y1), h)


def _ranges(lo, size):
    """The ranges [lo, lo + size) of the flat arrays lo and size, one after
    another."""
    at = np.repeat(lo - size.cumsum() + size, size)
    at += np.arange(at.size)
    return at


def _grid_keys(x, y, k: int, family: str) -> np.ndarray:
    """The sorted keys that _build_directed gives on the shared row, from
    candidate tables of nearby nodes: each node's candidates are the nodes
    in its block of grid cells, and its picks from them are kept only where
    the certificate below proves them equal to its picks from all n nodes.
    Nodes that fail it get a larger block, then the shared row."""
    n = len(x)
    grid = _grid(x, y)
    if grid is None:
        return _build_directed(x, y, np.arange(n)[None], k, family)
    x0, x1, y0, y1 = grid.box
    # The certificate. Node u's picks from its block are its picks from all
    # nodes if each of u's cones passes (a) or (b):
    # (a) its pick's kernel key lies in [_KEY_MIN, gap * lim];
    # (b) it has no pick, and the regions beyond the block's sides, within
    #     the bounding box, miss the cone widened by _DELTA on both sides.
    # gap is u's distance to the nearest block side with cells beyond it,
    # from grid.gaps; every node off the table lies beyond such a side, at
    # least gap away. Its Yao key is then at least gap, and its Theta key
    # at least gap * lim with lim = cos(pi/k + _DELTA), for its angle to
    # the bisector of the cone it is assigned to is at most pi/k + _DELTA:
    # it cannot be picked or tie.
    # A pair's cone and key are the same elementwise steps on a table row as
    # on the shared row, so the nodes on the table are decided the same way.
    # Why the margins hold: gaps take off _EPS relative, which covers their
    # rounding (see _Grid) and the few ulps of keys and lim. arctan2
    # angles, cones and bisectors are off by less than 2**-45 rad, which
    # _DELTA covers. Keys of _KEY_MIN and more, and spans below _SPAN_MAX,
    # keep every square of a difference from underflowing or overflowing,
    # where these bounds would fail.
    lim = math.cos(math.pi / k + _DELTA) if family == THETA else 1.0
    bound = (x0 - x, x1 - x, y0 - y, y1 - y)
    widen = _DELTA * k / TAU
    rows, keys, slot = np.arange(n), [], np.empty(n, np.intp)
    for r in _GRID_RADII:
        if not rows.size:
            break
        size, failed = grid.count(rows, r), []
        # tables of at most _TABLE_ENTRIES entries, one after another
        step = max(1, _TABLE_ENTRIES // int(size.max()))
        for r0 in range(0, rows.size, step):
            src, count = rows[r0:r0 + step], size[r0:r0 + step]
            m = int(count.max())
            # u's candidates are its block's nodes: a table row padded with
            # n, then sorted, its padding replaced by its largest candidate
            table = np.full((src.size, m), n)
            table[np.arange(m) < count[:, None]] = grid.gather(src, r)
            table.sort(axis=1)
            np.minimum(table, table[np.arange(src.size), count - 1][:, None], out=table)
            got, cone, key = _build_directed(x, y, table, k, family, src)
            sides = grid.gaps(src, r)
            slot[src] = np.arange(src.size)
            row = slot[got // n]
            ok = np.ones(src.size, bool)
            ok[row[~((key >= _KEY_MIN) & (key <= sides.min(0)[row] * lim))]] = False
            empty = np.ones((src.size, k + 1), bool)
            empty[row, cone.astype(np.intp)] = False
            test = (ok & empty[:, 1:].any(1)).nonzero()[0]
            if test.size:
                west, east, south, north = sides[:, test]
                left, right, low, high = (b[src[test]] for b in bound)
                hits = np.zeros((test.size, k), bool)
                # seen from u, the region beyond a side spans the angles from
                # its first corner clockwise to its second, less than pi
                for gap, first, second in ((east, (east, high), (east, low)),
                                           (south, (right, -south), (left, -south)),
                                           (west, (-west, low), (-west, high)),
                                           (north, (left, north), (right, north))):
                    a, b = _turns(*first, k), _turns(*second, k)
                    b += (b < a) * k
                    # cone i, widened, meets [a, b] (in turns * k) if, mod k,
                    # ceil(a - widen) <= i <= floor(b + 1 + widen)
                    a = np.ceil(a - widen)[:, None]
                    hits |= ((np.arange(1, k + 1) - a) % k <= np.floor(b + 1 + widen)[:, None] - a) & (
                        gap < np.inf)[:, None]
                ok[test] = ~(hits & empty[test, 1:]).any(1)
            keys.append(got[ok[row]])
            failed.append(src[~ok])
        rows = np.concatenate(failed)
    if rows.size:
        keys.append(_build_directed(x, y, np.arange(n)[None], k, family, rows)[0])
    return np.sort(np.concatenate(keys))


def _build_directed(x, y, cols, k: int, family: str, src=None):
    """The construction kernel over the n nodes at the flat coordinate
    arrays x, y. Without src, cols is the shared row np.arange(n)[None],
    every node's candidates, and it returns the picks as sorted flat keys
    u*n + v. Given the source nodes src, row r of the candidate table cols
    (or its one row, shared by every source) lists node src[r]'s candidates
    in ascending order, src[r] included, and it returns the sources' picks
    unsorted, as flat keys, with each pick's cone and key."""
    n, m = len(x), cols.shape[1]
    step = max(1, _BLOCK_PAIRS // m)
    rows = n if src is None else len(src)
    picks = []
    for u0 in range(0, rows, step):
        u1 = min(u0 + step, rows)
        u = slice(u0, u1) if src is None else src[u0:u1]
        c = cols[u0:u1] if len(cols) > 1 else cols
        # dx, dy are v - u for source rows u and their candidates v
        dx = x.take(c) - x[u, None]
        dy = y.take(c) - y[u, None]
        cone = _cones(dx, dy, k)
        # u's own slots sort first, as a run of cone 0 whose pick is dropped
        own = _own_slots(cols, u0, u1) if src is None else (c == u[:, None]).reshape(-1)
        cone.reshape(-1)[own] = 0.0
        # each row, stable: every cone is one run with its columns ascending
        at = (cone.astype(np.uint16) if m > 24 and k < 1 << 16 else cone).argsort(kind="stable")
        at += np.arange(0, cone.size, m)[:, None]
        at = at.reshape(-1)
        cone = cone.take(at)
        runs = np.empty(at.size, bool)
        runs[0] = True  # later rows open with own runs; merged ones drop together
        np.not_equal(cone[1:], cone[:-1], out=runs[1:])
        heads = runs.nonzero()[0]
        run = runs.cumsum() - 1
        cone = cone[heads]
        if family == THETA:
            bx, by = _bisectors(cone, k)
            key = np.abs(dx.take(at) * bx[run] + dy.take(at) * by[run])
            # NaN keys (dx, dy both infinite) rank as +inf; the scan instead
            # keeps a NaN that comes first in its cone
            np.fmin(key, np.inf, out=key)
        else:
            key = _norm(dx, dy).take(at)
        # each run's first minimum is at its smallest column, and a repeated
        # candidate comes after the original; every run holds a minimum
        hit = (key == np.minimum.reduceat(key, heads)[run]).nonzero()[0]
        first = hit[hit.searchsorted(heads[cone > 0])]
        pick = at.take(first)
        if src is None:
            # the block's flat index (u - u0)*n + v, plus u0*n, is the key u*n + v
            picks.append(pick + u0 * n)
        else:
            picks.append((((u * n)[:, None] + c).take(pick), cone[cone > 0], key.take(first)))
    if src is not None:
        return tuple(map(np.concatenate, zip(*picks)))
    return np.sort(np.concatenate(picks))


def _own_slots(cols, u0: int, u1: int):
    """Index of u's own slots in the flattened rows u0..u1-1 of the candidate
    table cols; in the shared row np.arange(n)[None], column u."""
    if len(cols) == 1:
        return slice(u0, None, cols.shape[1] + 1)
    return (cols[u0:u1] == np.arange(u0, u1)[:, None]).reshape(-1)
