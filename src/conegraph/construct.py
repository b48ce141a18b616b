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
  np.arange(n)[None]. O(n**2) pairs; it serves k < 3 and sets of fewer
  than _GRID_CONE_NODES * k nodes.
- Grid tables (_grid_keys), for k >= 3 and at least _GRID_CONE_NODES * k
  nodes: each node's row is the nodes in its block of the set's grid
  (NodeSet._grid, shared with the void scan), ascending and padded as in
  the batch, and the same kernel picks from it. The cells follow density:
  their side is set from the occupied cells, over a box that clamps the
  few extreme nodes into its edge cells (see _Grid), and a node's block is
  the least that holds _ROW_NODES nodes per cone. A node's picks are kept
  only if a certificate proves that no node off its row could be picked or
  tie: in every cone, its pick's key (+inf where it has none) is at most
  the gap to the nearest block side whose region beyond can hold a node in
  that cone (_Grid.cone_gaps; times cos(pi/k) for Theta), with margins for
  rounding (see _grid_keys). The others get a block of twice the radius,
  then the shared row, so every edge is the shared row's.

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

# The grid path (_grid_keys) serves k >= 3 and sets of at least
# _GRID_CONE_NODES * k nodes. Measured on a 2-core x86-64 VM (best of
# 5 to 7, three seeds each), against the shared row: uniform sets in the
# unit square, and sets of 8 Gaussian clusters with sigma 0.01, as the
# benchmark's `large` workload draws them. A cone's pick lies farther away
# the narrower the cone, so more rows fall through to the shared row as k
# grows, and the crossover n grows with k. With cells that follow density
# (best of 3, three seeds, k = 3, 4, 6, 8, 12, 16, 24 and 32), clustered
# sets ran 0.88 to 1.25 times as fast at n = 120k and 1.05 to 1.48 at 150k,
# and uniform ones 1.10 to 4.06 and 1.33 to 5.07; at n = 150k and 300k (best
# of 1 to 2, both kinds, Yao and Theta) 1.22 to 9.55 times at k = 33 to 64
# and 1.01 to 3.53 at k = 128. No cap on k is needed: every table row holds
# 6k candidates or more, so the certificate's (rows, k) arrays stay within a
# table's _TABLE_ENTRIES.
_GRID_CONE_NODES = 150
# The occupied cells hold _CELL_NODES nodes on average (see _Grid), and
# round 1's block around a node is the least that holds _ROW_NODES nodes
# per cone, for at least 6 cones (see _grid_keys): narrower cones reach
# farther for their picks. Measured on a 2-core x86-64 VM, build and scan,
# medians of 3 to 150 alternations, on the benchmark's `large` sets (n =
# 1,000) and on uniform and 8-cluster sets of 3,000 and 30,000 nodes: 1.5,
# 2, 2.5 and 3 nodes per cell were within 8% of one another on every set.
# Against a block of 40 nodes, 36 ran 2.5 to 3.5% faster on the uniform
# `large` sets and within 2.5% on the clustered ones, and within 3% on the
# 3,000-node sets at k = 6 to 16 but 7% slower on uniform k = 3; 32 ran 9
# to 11% slower than 40 there at k = 3, 12 and 16. At k = 12 and 16, 6
# nodes per cone ran 2 to 10% faster than 3 on the 3,000-node sets, and 19
# to 26% faster at k = 12 on the 30,000-node ones.
_CELL_NODES = 2
_ROW_NODES = 6
# The cell box leaves out the n // _CLAMP_RANK + 1 extreme nodes on each
# side of each axis, _GRID_PASSES passes over the occupied cells set the
# cell side, and the cells number at most _MAX_CELLS * n (see _Grid). 64,
# 128 and 256 timed alike on `large`'s sets and a 3,000-node one-outlier
# set. One pass left the clustered `large` scan gathering 74,104 targets,
# two 52,605 and three 49,875. Caps of 16 and 32 ran within 4% of each
# other on 8-cluster sets of 1,000 to 30,000 nodes, and 8 ran 2 to 8% slower
# at 1,000; at 32 their cells number about 14n (1,000 nodes) to 16n.
_CLAMP_RANK = 128
_GRID_PASSES = 2
_MAX_CELLS = 32
# Grid tables are built and run in pieces of at most _TABLE_ENTRIES
# entries. Built whole, the first table of the `large` workload's
# seed-8675309 clustered set (250,000 entries over cells that spanned the
# bounding box) raised the workload's peak RSS from 53.8 to 56.9 MiB. Rows
# are cut in order of block size, so every piece but the last is nearly
# full: at 2**16 entries `large` then read a peak RSS 0.2 MiB above that of
# cells over the bounding box, whose pieces were part-full (10 pairs), and
# at 2**15 0.09 MiB above (5 pairs), while 1,000-node builds and scans ran
# as fast (medians of 200 in-process alternations).
_TABLE_ENTRIES = 1 << 15
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
    if k >= 3 and len(nodes) >= _GRID_CONE_NODES * k and nodes._grid is not None:
        keys = _grid_keys(nodes._grid, k, family)
    else:
        x, y = nodes.coordinates()
        keys = _build_directed(x, y, np.arange(len(x))[None], k, family)
    return GeometricGraph._from_keys(family, k, True, nodes, keys)


class _Grid:
    """A cell index over the nodes at x, y with bounding box box, built by its
    one constructor: square cells of side h, gx wide and gy high, over the
    cell box cells = (x0, x1, y0, y1). Node i lies at (tx[i], ty[i]) in cell
    units, its coordinates clamped into the cell box, in cell (cx[i], cy[i]);
    cell c = cy*gx + cx holds the nodes order[start[c]:start[c + 1]],
    ascending, and total[j, i] counts the nodes in the cells below row j and
    left of column i.

    The cells follow the nodes: the cell box leaves out the n // _CLAMP_RANK
    + 1 least and greatest coordinates of each axis, so a few far nodes,
    clamped into its edge cells, do not stretch it (below a span of _KEY_MIN
    it is the bounding box). _GRID_PASSES passes over the occupied cells set
    h so that they hold about _CELL_NODES nodes each, in at most _MAX_CELLS *
    n cells; those passes and the index place the nodes through _place.

    Its queries, on the block of cells around each node (block): count,
    gather, gaps (to the block sides with cells beyond them), cone_gaps
    (the same per cone), radius (the block that holds a distance) and fill
    (the block that holds a number of nodes). No code outside this class
    works in cell units or with a block's shape.

    Clamping keeps the order of coordinates, moves no two apart, and moves a
    node only toward the cell box. So two nodes d apart lie at most d/h
    apart in cell units, and radius still covers every node within a
    distance; a node whose cell lies beyond a block side lies beyond that
    side; and a node's gaps, taken from its clamped place, are at most its
    true distances to those sides, so they stay lower bounds.

    Their rounding: t = (x - x0)/h is off by less than 2**-51 * t, and t <=
    16n (_MAX_CELLS * n / 2), so by less than 2**-47 * n, and a
    difference of two by less than 2**-21 for n below 2**25, more points
    than a NodeSet holds in memory. So radius adds _EPS cells, and gaps, a
    cell or more from r = 1 on, take off _EPS relative, which leaves room
    for a few ulps of the keys they bound. arctan2 angles, and so cones and
    bisectors, are off by less than 2**-45 rad, which cone_gaps' widening
    by _DELTA covers."""

    def __init__(self, x, y, box):
        n = len(x)
        self.x, self.y, self.box = x, y, box
        lo = min(n // _CLAMP_RANK + 1, (n - 1) // 2)
        (x0, x1), (y0, y1) = (np.partition(a, (lo, n - 1 - lo))[[lo, n - 1 - lo]].tolist()
                              for a in (x, y))
        if max(x1 - x0, y1 - y0) < _KEY_MIN:
            x0, x1, y0, y1 = box
        self.cells, w, hgt = (x0, x1, y0, y1), x1 - x0, y1 - y0
        # from h >= least on, w/h, hgt/h and their product are at most c, so the
        # (w/h + 1)(hgt/h + 1) cells number at most 2c + 2 = _MAX_CELLS * n
        c = _MAX_CELLS * n / 2 - 1
        least = max(math.sqrt(w * hgt / c), max(w, hgt) / c)
        # square cells of _CELL_NODES nodes on average over the cell box; a set
        # near a line gets one row of n / _CELL_NODES cells
        h = max(math.sqrt(w * hgt * _CELL_NODES / n), max(w, hgt) * _CELL_NODES / n, least)
        for _ in range(_GRID_PASSES):
            occupied = np.count_nonzero(np.bincount(self._place(h)))
            h = max(h * math.sqrt(occupied * _CELL_NODES / n), least)
        cell, gx, gy = self._place(h), self.gx, self.gy
        counts = np.bincount(cell, minlength=gx * gy)
        self.order = cell.argsort(kind="stable")
        # prefix sums, built in place; int32 holds counts of up to n nodes
        self.start = np.zeros(gx * gy + 1, np.int32)
        counts.cumsum(out=self.start[1:])
        self.total = np.zeros((gy + 1, gx + 1), np.int32)
        inner = self.total[1:, 1:]
        counts.reshape(gy, gx).cumsum(0, out=inner).cumsum(1, out=inner)

    def _place(self, h):
        """Sets h, gx, gy and each node's place (tx, ty) and cell (cx, cy) for
        cells of side h; returns each node's cell id cy*gx + cx."""
        x0, x1, y0, y1 = self.cells
        self.h, self.gx, self.gy = h, int((x1 - x0) / h) + 1, int((y1 - y0) / h) + 1
        self.tx, self.ty = (np.clip(self.x, x0, x1) - x0) / h, (np.clip(self.y, y0, y1) - y0) / h
        self.cx, self.cy = self.tx.astype(np.intp), self.ty.astype(np.intp)
        return self.cy * self.gx + self.cx

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

    def cone_gaps(self, rows, r, k: int):
        """gap[j, i - 1], for node u = rows[j] and cone i = 1..k, is the least
        of u's gaps to the block sides whose region beyond, inside the bounding
        box, meets cone i widened by _DELTA on both sides; +inf if none does.
        From r = 1 on, no node off u's block that geometry._cones puts in
        cone i is nearer. The regions' corners sit at the gaps, which can
        only widen them, in coordinates, not cell units."""
        west, east, south, north = self.gaps(rows, r)
        (x0, x1, y0, y1), x, y = self.box, self.x[rows], self.y[rows]
        left, right, low, high = x0 - x, x1 - x, y0 - y, y1 - y
        widen = _DELTA * k / TAU
        gap = np.full((len(x), k), np.inf)
        # seen from u, the region beyond a side spans the angles from its
        # first corner clockwise to its second, less than pi
        for side, first, second in ((east, (east, high), (east, low)),
                                    (south, (right, -south), (left, -south)),
                                    (west, (-west, low), (-west, high)),
                                    (north, (left, north), (right, north))):
            a, b = _turns(*first, k), _turns(*second, k)
            b += (b < a) * k
            # cone i, widened, meets [a, b] (in turns * k) if, mod k,
            # ceil(a - widen) <= i <= floor(b + 1 + widen)
            a = np.ceil(a - widen).astype(np.intp)[:, None]
            hit = (np.arange(1, k + 1) - a) % k <= np.floor(b + 1 + widen)[:, None] - a
            np.minimum(gap, side[:, None], out=gap, where=hit)
        return gap

    def radius(self, dist):
        """Per node, a block radius r that holds every node within dist[u]
        of node u; an infinite dist spans the grid."""
        r = np.floor(dist / self.h + _EPS) + 1
        return np.minimum(r, max(self.gx, self.gy)).astype(np.intp)

    def fill(self, rows, nodes: int):
        """Per node u in rows, the least block radius from 1 on whose block
        holds at least nodes nodes, or that spans the grid."""
        span = max(self.gx, self.gy, 2) - 1
        lo, hi = np.ones(len(rows), np.intp), np.ones(len(rows), np.intp)
        # double each radius until its block is full, then bisect
        grow = np.arange(len(rows))
        while grow.size:
            grow = grow[(self.count(rows[grow], hi[grow]) < nodes) & (hi[grow] < span)]
            lo[grow] = hi[grow] + 1
            hi[grow] = np.minimum(2 * hi[grow], span)
        wide = (lo < hi).nonzero()[0]
        while wide.size:
            mid = (lo[wide] + hi[wide]) // 2
            full = self.count(rows[wide], mid) >= nodes
            hi[wide[full]] = mid[full]
            lo[wide[~full]] = mid[~full] + 1
            wide = wide[lo[wide] < hi[wide]]
        return hi


def _grid(x, y) -> _Grid | None:
    """The cell index that construction and the void scan share (NodeSet._grid),
    or None where the set's span is outside [_KEY_MIN, _SPAN_MAX), where the
    rounding bounds of their certificates do not hold."""
    box = x.min(), x.max(), y.min(), y.max()
    if not _KEY_MIN <= max(box[1] - box[0], box[3] - box[2]) < _SPAN_MAX:
        return None
    return _Grid(x, y, box)


def _ranges(lo, size):
    """The ranges [lo, lo + size) of the flat arrays lo and size, one after
    another."""
    at = np.repeat(lo - size.cumsum() + size, size)
    at += np.arange(at.size)
    return at


def _grid_keys(grid: _Grid, k: int, family: str) -> np.ndarray:
    """The sorted keys that _build_directed gives on the shared row over the
    grid's nodes, from candidate tables: each node's candidates are the nodes
    in its block of grid cells, and its picks from them are kept only where
    the certificate below proves them equal to its picks from all n nodes.

    One radius rule: in round 1, node u's block is the least one (radius 1
    or more) that holds _ROW_NODES * max(k, 6) nodes (_Grid.fill), so it
    grows where the cells around u are sparse, as on a cluster's rim, and
    stays small inside a cluster. Nodes that fail the certificate get a
    block of twice that radius in round 2, then the shared row."""
    x, y, n = grid.x, grid.y, len(grid.x)
    # The certificate, one rule: node u's picks from its block are its
    # picks from all nodes if, in every cone i, the kernel key of its pick
    # (+inf where the block has none in cone i) lies in [_KEY_MIN, gap_i *
    # lim], gap_i from grid.cone_gaps. Every node off the block that the
    # kernel puts in cone i is at least gap_i away, so its Yao key is at
    # least gap_i, and its Theta key at least gap_i * lim with lim =
    # cos(pi/k + _DELTA), for its angle to the bisector of its cone is at
    # most pi/k + _DELTA: it cannot be picked or tie, and an empty cone
    # passes only if no such node exists (gap_i = +inf). A pair's cone and
    # key are the same elementwise steps on a table row as on the shared
    # row, so the nodes on the table are decided the same way. Margins:
    # gaps take off _EPS relative, which covers their rounding (see _Grid)
    # and the few ulps of keys and lim; keys of _KEY_MIN and more, and
    # spans below _SPAN_MAX, keep squares of differences normal and finite.
    lim = math.cos(math.pi / k + _DELTA) if family == THETA else 1.0
    rows, keys, slot = np.arange(n), [], np.empty(n, np.intp)
    r = grid.fill(rows, _ROW_NODES * max(k, 6))
    for _ in range(2):
        if not rows.size:
            break
        # rows by block size, largest first, in tables of at most
        # _TABLE_ENTRIES entries, each as wide as its first row's block
        size = grid.count(rows, r)
        by_size = (-size).argsort(kind="stable")
        rows, r, size = rows[by_size], r[by_size], size[by_size]
        failed, r0 = [], 0
        while r0 < rows.size:
            m = int(size[r0])
            r1 = r0 + max(1, _TABLE_ENTRIES // m)
            src, count = rows[r0:r1], size[r0:r1]
            # u's candidates are its block's nodes: a table row padded with
            # n, then sorted, its padding replaced by its largest candidate
            table = np.full((src.size, m), n)
            table[np.arange(m) < count[:, None]] = grid.gather(src, r[r0:r1])
            table.sort(axis=1)
            np.minimum(table, table[np.arange(src.size), count - 1][:, None], out=table)
            got, cone, key = _build_directed(x, y, table, k, family, src)
            slot[src] = np.arange(src.size)
            row = slot[got // n]
            best = np.full((src.size, k), np.inf)
            best[row, cone.astype(np.intp) - 1] = key
            ok = ((best >= _KEY_MIN) & (best <= grid.cone_gaps(src, r[r0:r1], k) * lim)).all(1)
            keys.append(got[ok[row]])
            failed.append(r0 + (~ok).nonzero()[0])
            r0 = r1
        failed = np.concatenate(failed)
        rows, r = rows[failed], 2 * r[failed]
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
