"""Directed and undirected Yao / Theta graph construction.

Both families pick, for every node and every non-empty cone around it,
a single "closest" node in that cone: Euclidean distance for Yao, the
absolute projection distance onto the cone bisector for Theta. Ties are
broken deterministically by smallest node index; a cone whose every key
is +inf picks its smallest index too.

Construction runs a numpy kernel over blocks of source rows, each holding
about _BLOCK_PAIRS = 2**14 ordered pairs. It sorts each row by angle, so
that every cone is one contiguous run, and takes each run's minimum. A
block's transient arrays stay near 1.5 MiB whatever n and k are. The
kernel computes no formula itself: cones and bisectors come from
geometry._cones and geometry._bisectors, Yao keys from model._norm, the
array forms of geometry.cone_of, geometry.bisector_projection and
model.distance. The tests compare it edge for edge with a per-pair
scalar cone scan.

The kernel has a leading batch axis (see _build_directed and _row_blocks).
build_directed_yao and build_directed_theta pass one node set, whose
picks are the directed graph's sorted flat keys u*n + v; the
counterexample search passes many small sets at once. undirect merges
the keys with their reverses. No step builds an edge tuple or checks
the keys again (see model.GeometricGraph._from_keys).
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
    keys = _build_directed(x[None], y[None], k, family)
    return GeometricGraph._from_keys(family, k, True, nodes, keys)


def _build_directed(x, y, k: int, family: str) -> np.ndarray:
    """The construction kernel over B node sets of n nodes each, given as
    (B, n) coordinate arrays. Returns the picks as sorted flat keys
    (g*n + u)*n + v, which for B = 1 are the directed graph's keys."""
    theta = family == THETA
    n = x.shape[1]
    picks = []
    for g0, g1, u0, u1 in _row_blocks(len(x), n, _BLOCK_PAIRS):
        # dx, dy are v - u for source rows u and target columns v of one set
        dx = (x[g0:g1, None] - x[g0:g1, u0:u1, None]).reshape(-1, n)
        dy = (y[g0:g1, None] - y[g0:g1, u0:u1, None]).reshape(-1, n)
        angle, cone = _cones(dx, dy, k)
        angle.reshape(g1 - g0, -1)[:, u0::n + 1] = -1.0  # self pairs sort first; dropped
        # The cone index is non-decreasing in the angle, so along each row's
        # angular order every cone is one contiguous run.
        at = angle.argsort(axis=1)[:, 1:]
        at += np.arange(0, angle.size, n)[:, None]
        at = at.reshape(-1)
        cone = cone.take(at)
        runs = np.empty(at.size, bool)
        np.not_equal(cone[1:], cone[:-1], out=runs[1:])
        runs[::max(n - 1, 1)] = True  # each row opens a run (n == 1 has no pairs)
        heads = runs.nonzero()[0]
        run = runs.cumsum() - 1
        if theta:
            bx, by = _bisectors(cone[heads], k)
            key = np.abs(dx.take(at) * bx[run] + dy.take(at) * by[run])
            # NaN keys (dx, dy both infinite) rank as +inf; the scan instead
            # keeps a NaN that comes first in its cone
            np.fmin(key, np.inf, out=key)
        else:
            key = _norm(dx, dy).take(at)
        hit = key == np.minimum.reduceat(key, heads)[run]
        # the smallest flat index among a run's minima is its smallest column
        picks.append(np.minimum.reduceat(np.where(hit, at, angle.size), heads)
                     + (g0 * n + u0) * n)
    return np.sort(np.concatenate(picks))


def _row_blocks(sets: int, n: int, size: int) -> list[tuple[int, int, int, int]]:
    """Blocks (g0, g1, u0, u1), source rows u0..u1-1 of node sets g0..g1-1
    of `sets` sets of n nodes, each holding about `size` ordered pairs: as
    many whole sets as fit, or else a run of one set's rows."""
    if n * n <= size:
        step = size // (n * n)
        return [(g0, min(g0 + step, sets), 0, n) for g0 in range(0, sets, step)]
    step = max(1, size // n)
    return [(g, g + 1, u0, min(u0 + step, n)) for g in range(sets) for u0 in range(0, n, step)]
