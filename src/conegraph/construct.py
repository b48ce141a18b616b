"""Directed and undirected Yao / Theta graph construction.

Both families pick, for every node and every non-empty cone around it,
a single "closest" node in that cone: Euclidean distance for Yao, the
absolute projection distance onto the cone bisector for Theta. Ties are
broken deterministically by smallest node index; a cone whose every key
is +inf picks its smallest index too.

Construction runs a numpy kernel over blocks of source rows, each holding
about _BLOCK_PAIRS = 2**14 ordered pairs. It sorts each row by angle, so
that every cone is one contiguous run, and takes each run's minimum. A
block's transient arrays stay near 1.5 MiB whatever n and k are. Per pair
the kernel takes the same double-precision steps as geometry.cone_of,
geometry.bisector_projection and model.distance; the tests compare it
edge for edge with a per-pair scalar cone scan.

A directed graph holds its edges as the sorted flat keys u*n + v that
the kernel picks, and undirect merges them with their reverses, so no
step builds an edge tuple.
"""

import numpy as np

# cone_of is not called here; the benchmark harness counts calls to it
# through this module's namespace, so the name stays importable
from .geometry import TAU, _bisector, _check_k, cone_of  # noqa: F401
from .model import THETA, YAO, GeometricGraph, NodeSet

# For k < 3 a cone spans a half-plane or the whole plane, so projections
# onto the bisector stop being positive for all in-cone points and the
# Theta selection rule loses its usual geometric meaning. Graphs built
# there carry this warning.
_THETA_WIDE_CONE_WARNING = (
    "theta selection for k < 3 minimizes |bisector projection| over cones "
    "wider than a half-plane; interpret with care"
)

# Ordered pairs per kernel block. About ten arrays of this many 8-byte
# entries are alive at once; at 2**14 each fits in a core's L2 cache, and
# on a 2-core x86-64 VM 1,000- and 3,000-node builds ran faster than at
# 2**16 or 2**12.
_BLOCK_PAIRS = 1 << 14


def build_directed_yao(nodes: NodeSet, k: int) -> GeometricGraph:
    """Directed Yao graph: each node points at its Euclidean-closest
    node within each of its k cones."""
    _check_k(k)
    return _build_directed(nodes, k, YAO)


def build_directed_theta(nodes: NodeSet, k: int) -> GeometricGraph:
    """Directed Theta graph: as Yao, but "closest" means the smallest
    projection distance onto the cone's bisector."""
    _check_k(k)
    return _build_directed(nodes, k, THETA)


def undirect(g: GeometricGraph) -> GeometricGraph:
    """Forget edge directions, collapsing mutual pairs to one edge."""
    if not g.directed:
        raise ValueError("graph is already undirected")
    # both directions of every edge, sorted, each key once: the CSR adjacency
    u, v = np.divmod(g.keys, len(g.nodes))
    keys = np.concatenate((g.keys, v * len(g.nodes) + u))
    keys.sort()
    keep = np.empty(keys.size, bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return GeometricGraph._from_keys(g.family, g.k, False, g.nodes, keys[keep], g.warning)


def build(nodes: NodeSet, family: str, k: int, directed: bool = False) -> GeometricGraph:
    """Build a graph of the given family; convenience dispatcher."""
    if family == YAO:
        g = build_directed_yao(nodes, k)
    elif family == THETA:
        g = build_directed_theta(nodes, k)
    else:
        raise ValueError(f"unknown family {family!r}")
    return g if directed else undirect(g)


def _build_directed(nodes: NodeSet, k: int, family: str) -> GeometricGraph:
    theta = family == THETA
    n = len(nodes)
    x, y = nodes.coordinates()
    rows = max(1, _BLOCK_PAIRS // n)
    picks = []
    for r0 in range(0, n, rows):
        # dx, dy are v - u for source rows u and target columns v
        dx = x - x[r0:r0 + rows, None]
        dy = y - y[r0:r0 + rows, None]
        angle, cone = _cones(dx, dy, k)
        angle.reshape(-1)[r0::n + 1] = -1.0  # the self pair sorts first; dropped
        # The cone index is non-decreasing in the angle, so along each row's
        # angular order every cone is one contiguous run.
        at = angle.argsort(axis=1)[:, 1:]
        at += np.arange(0, angle.size, n)[:, None]
        at = at.reshape(-1)
        cone = cone.take(at)
        dx = dx.take(at)
        dy = dy.take(at)
        runs = np.empty(at.size, bool)
        np.not_equal(cone[1:], cone[:-1], out=runs[1:])
        runs[::max(n - 1, 1)] = True  # each row opens a run (n == 1 has no pairs)
        heads = runs.nonzero()[0]
        run = runs.cumsum() - 1
        if theta:
            bx, by = _bisectors(cone[heads], k)
            key = np.abs(dx * bx[run] + dy * by[run])
            # NaN keys (dx, dy both infinite) rank as +inf; the scan instead
            # keeps a NaN that comes first in its cone
            np.fmin(key, np.inf, out=key)
        else:
            key = np.sqrt(dx * dx + dy * dy)
        hit = key == np.minimum.reduceat(key, heads)[run]
        # the smallest flat index among a run's minima is its smallest column
        picks.append(np.minimum.reduceat(np.where(hit, at, angle.size), heads) + r0 * n)
    warning = _THETA_WIDE_CONE_WARNING if theta and k < 3 else None
    return GeometricGraph._from_keys(family, k, True, nodes, np.sort(np.concatenate(picks)),
                                     warning)


def _cones(dx, dy, k: int):
    """Clockwise angle from north and cone index of each direction (dx, dy),
    by geometry.cone_of's double-precision steps; cones are integral floats
    in 1..k, so nothing here is sized by k."""
    angle = np.arctan2(dx, dy)
    np.add(angle, TAU, out=angle, where=angle <= 0.0)
    cone = np.ceil(angle * k / TAU)
    np.maximum(cone, 1.0, out=cone)
    np.minimum(cone, k, out=cone)
    return angle, cone


def _bisectors(cone, k: int):
    """Bisector components of each cone index in the 1-d array cone, as
    geometry.bisector_direction computes them, with one call per distinct
    cone."""
    vals, at = np.unique(cone, return_inverse=True)
    bx, by = np.array([_bisector(i, k) for i in vals.tolist()]).reshape(-1, 2).T
    return bx[at], by[at]

