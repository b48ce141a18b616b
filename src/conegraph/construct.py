"""Directed and undirected Yao / Theta graph construction.

Both families pick, for every node and every non-empty cone around it,
a single "closest" node in that cone: Euclidean distance for Yao, the
absolute projection distance onto the cone bisector for Theta. Ties are
broken deterministically by smallest node index; a cone whose every key
is +inf picks its smallest index too.

Construction runs a numpy kernel over blocks of source rows, each holding
about _BLOCK_PAIRS = 2**14 candidate pairs, and sorts nothing: it numbers
each (row, cone) group (_cone_groups), takes each group's least key by a
scatter-min, then the group's smallest slot that holds it by a second one,
so the smallest column wins ties. A block's transient arrays stay near
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
  the batch, and the same kernel picks from it. The cells follow density
  (see geometry._Grid), and a node's block is the least that holds
  _ROW_NODES nodes per cone. A node's picks are kept only if a certificate
  proves that no node off its row could be picked or tie: in every cone,
  its pick's key (+inf where it has none) is at most the gap to the
  nearest block side whose region beyond can hold a node in that cone
  (_Grid.cone_gaps; times cos(pi/k) for Theta), with margins for
  rounding (see _grid_keys). The others get a block of twice the radius,
  then the shared row, so every edge is the shared row's.

undirect merges the keys with their reverses. No step builds an edge
tuple or checks the keys again (see model.GeometricGraph._from_keys).
"""

import math

import numpy as np

# cone_of is not called here; the benchmark harness counts calls to it
# through this module's namespace, so the name stays importable
from .geometry import _DELTA, _KEY_MIN, _Grid, _bisectors, _check_k, _cones, cone_of  # noqa: F401
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
_ROW_NODES = 6
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
        keys = _build_directed(nodes.x, nodes.y, np.arange(len(nodes))[None], k, family)
    return GeometricGraph._from_keys(family, k, True, nodes, keys)


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
    unsorted, in (row, cone) order, as flat keys, with each pick's cone and
    key."""
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
        # u's own slots form its group of cone 0, whose pick is dropped
        own = _own_slots(cols, u0, u1) if src is None else (c == u[:, None]).reshape(-1)
        cone.reshape(-1)[own] = 0.0
        g, cones = _cone_groups(cone, k)
        groups = len(cone) * (k + 1) if cones is None else cones.size
        if family == THETA:
            bx, by = _cone_bisectors(cone, g, cones, k)
            key = np.abs(dx * bx + dy * by).reshape(-1)
            # NaN keys (dx, dy both infinite) rank as +inf; the scan instead
            # keeps a NaN that comes first in its cone
            np.fmin(key, np.inf, out=key)
        else:
            key = _norm(dx, dy).reshape(-1)
        # each group's pick is its smallest slot of least key: its smallest
        # column, as a repeated candidate comes after the original
        best = np.full(groups, np.inf)
        np.minimum.at(best, g, key)
        hit = (key == best.take(g)).nonzero()[0]
        first = np.full(groups, key.size)
        np.minimum.at(first, g.take(hit), hit)
        # the picks of the groups of cone 1 and up that hold a slot
        if cones is None:
            first = first.reshape(-1, k + 1)[:, 1:]
            chosen = first < key.size
        else:
            chosen = cones > 0
        pick = first[chosen]
        if src is None:
            # the block's flat index (u - u0)*n + v, plus u0*n, is the key u*n + v
            picks.append(pick + u0 * n)
        else:
            cone = chosen.nonzero()[1] + 1.0 if cones is None else cones[chosen]
            picks.append((((u * n)[:, None] + c).take(pick), cone, key.take(pick)))
    if src is not None:
        return tuple(map(np.concatenate, zip(*picks)))
    return np.sort(np.concatenate(picks))


def _cone_groups(cone, k: int):
    """Number the (row, cone) groups of the (rows, m) float array cone in
    (row, cone) order. Returns each entry's group id, flat, and each group's
    cone, or None where the ids are dense: where the block's rows * (k + 1)
    is at most 2 * _BLOCK_PAIRS, group row * (k + 1) + cone, empty groups
    included. Above, as for huge k, the ids are the ranks of row + 1j * cone
    among the block's values, which numpy sorts by row, then cone, so memory
    stays flat whatever k is."""
    b, span = len(cone), k + 1
    if b * span <= 2 * _BLOCK_PAIRS:
        g = cone.astype(np.intp)
        g += np.arange(0, b * span, span)[:, None]
        return g.reshape(-1), None
    vals, g = np.unique((np.arange(b)[:, None] + 1j * cone).reshape(-1), return_inverse=True)
    return g, vals.imag


def _cone_bisectors(cone, g, cones, k: int):
    """Bisector components (sin, cos) of each entry's cone, shaped as cone,
    given its groups g, cones from _cone_groups: from one table over the
    cones 0..k where the ids are dense, else from one value per group."""
    if cones is None:
        return (b.take(cone.astype(np.intp)) for b in _bisectors(np.arange(k + 1.0), k))
    return (b.take(g.reshape(cone.shape)) for b in _bisectors(cones, k))


def _own_slots(cols, u0: int, u1: int):
    """Index of u's own slots in the flattened rows u0..u1-1 of the candidate
    table cols; in the shared row np.arange(n)[None], column u."""
    if len(cols) == 1:
        return slice(u0, None, cols.shape[1] + 1)
    return (cols[u0:u1] == np.arange(u0, u1)[:, None]).reshape(-1)
