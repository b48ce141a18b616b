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
Yao keys from model._norm, the array forms of geometry.cone_of,
geometry.bisector_projection and model.distance. The tests compare it
edge for edge with a per-pair scalar cone scan.

The kernel reads each node's candidates from a table (_build_directed).
build_directed_yao and build_directed_theta pass one shared row, a node
set's n nodes, and get the directed graph's sorted keys u*n + v; the
counterexample search passes a batch of small sets of any sizes at once.
undirect merges the keys with their reverses. No step builds an edge
tuple or checks the keys again (see model.GeometricGraph._from_keys).
"""

import numpy as np

# cone_of is not called here; the benchmark harness counts calls to it
# through this module's namespace, so the name stays importable
from .geometry import _bisectors, _check_k, _cones, cone_of  # noqa: F401
from .model import THETA, YAO, GeometricGraph, NodeSet, _norm, _symmetric_keys

# Ordered pairs per kernel block. About ten arrays of this many 8-byte
# entries are alive at once; at 2**14 each fits in a core's L2 cache, and
# on a 2-core x86-64 VM 1,000- and 3,000-node builds ran faster than at
# 2**16 or 2**12.
_BLOCK_PAIRS = 1 << 14


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
    keys = _build_directed(x, y, np.arange(len(x))[None], k, family)
    return GeometricGraph._from_keys(family, k, True, nodes, keys)


def _build_directed(x, y, cols, k: int, family: str) -> np.ndarray:
    """The construction kernel over the n nodes at the flat coordinate
    arrays x, y. Row u of the candidate table cols lists u's candidates in
    ascending order, u included; the one row np.arange(n)[None] is every
    node's. Returns the picks as sorted flat keys u*n + v."""
    n, m = len(x), cols.shape[1]
    step = max(1, _BLOCK_PAIRS // m)
    picks = []
    for u0 in range(0, n, step):
        u1 = min(u0 + step, n)
        c = cols[u0:u1] if len(cols) > 1 else cols
        # dx, dy are v - u for source rows u and their candidates v
        dx = x.take(c) - x[u0:u1, None]
        dy = y.take(c) - y[u0:u1, None]
        cone = _cones(dx, dy, k)
        # u's own slots sort first, as a run of cone 0 whose pick is dropped
        cone.reshape(-1)[_own_slots(cols, u0, u1)] = 0.0
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
        pick = at.take(hit[hit.searchsorted(heads[cone > 0])])
        # flat index r*m + j to key u*n + cols[u, j]: in the shared row, index + u0*n
        picks.append(pick + u0 * n if len(cols) == 1
                     else (np.arange(u0 * n, u1 * n, n)[:, None] + c).take(pick))
    return np.sort(np.concatenate(picks))


def _own_slots(cols, u0: int, u1: int):
    """Index of u's own slots in the flattened rows u0..u1-1 of the candidate
    table cols; in the shared row np.arange(n)[None], column u."""
    if len(cols) == 1:
        return slice(u0, None, cols.shape[1] + 1)
    return (cols[u0:u1] == np.arange(u0, u1)[:, None]).reshape(-1)
