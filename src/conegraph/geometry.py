"""Angle, cone-membership, and bisector primitives.

The plane around an origin point is divided into k equal angular cones,
numbered 1..k clockwise starting from the positive y-axis ("north").
Cone i covers the half-open interval ((i-1)*2pi/k, i*2pi/k], so every
cone excludes its counterclockwise-leading ray and includes its
clockwise-trailing ray, and every direction belongs to exactly one cone.

All angle arithmetic is plain double precision: a point within an ulp of
a cone boundary belongs to whatever cone the formula yields.

Each formula has one implementation, on numpy arrays: _angles (arctan2),
_turns and _cones for cones, _bisectors for bisectors. The construction
kernel and the relay checks call them on arrays, and the scalar functions
on single values: cone_of calls _cones on one-element arrays, so the cone
rule lives in _cones alone and cone_of and the kernel always agree. The
cell index _Grid and its certificates' rounding margins live here too.
"""

import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np

TAU = math.tau


@dataclass(frozen=True)
class Point:
    """A planar coordinate pair of finite doubles. Other real numbers are
    converted with float(); bools and strings are rejected."""

    x: float
    y: float

    def __post_init__(self):
        if type(self.x) is not float or type(self.y) is not float:
            for name, value in (("x", self.x), ("y", self.y)):
                if isinstance(value, bool) or not isinstance(value, numbers.Real):
                    raise ValueError(f"coordinates must be real numbers, got {value!r}")
                try:
                    object.__setattr__(self, name, float(value))
                except OverflowError:
                    raise ValueError(f"{name} coordinate is beyond the double range") from None
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite coordinates: ({self.x}, {self.y})")


def clockwise_angle_from_north(origin: Point, p: Point) -> float:
    """Angle in (0, 2pi], measured clockwise from north to the ray origin->p.

    Due north maps to 2pi rather than 0, which makes the half-open cone
    rule fall out of a plain ceiling in _cones with no special case.

    Raises ValueError for coincident points (degenerate direction).
    """
    return float(_angles(*_direction(origin, p)))


def cone_of(origin: Point, p: Point, k: int) -> int:
    """Index in 1..k of the cone around origin that contains p.

    Cone i is the half-open angular interval ((i-1)*2pi/k, i*2pi/k]
    clockwise from north; a point exactly on a cone's leading ray
    belongs to the previous cone (the north ray belongs to cone k).
    """
    k = _check_k(k)
    dx, dy = _direction(origin, p)
    # a k above 2**53 may round up as a double, so _cones' clamp may pass k
    return min(int(_cones(np.array([dx]), np.array([dy]), k)[0]), k)


def bisector_direction(i: int, k: int) -> tuple[float, float]:
    """Unit vector along the bisector of cone i, at clockwise angle
    (i - 1/2)*2pi/k from north."""
    k, j = _check_k(k), _as_int(i)
    if j is None or not 1 <= j <= k:
        raise ValueError(f"cone index must be in 1..{k}, got {i!r}")
    bx, by = _bisectors(j, k)
    return (float(bx), float(by))


def bisector_projection(origin: Point, p: Point, i: int, k: int) -> float:
    """Signed length of (p - origin) projected onto the bisector of cone i.

    Strictly positive for points inside cone i when k >= 3 (the cone
    half-angle is below pi/2); may be zero or negative for k <= 2.
    """
    bx, by = bisector_direction(i, k)
    dx, dy = _direction(origin, p)
    return dx * bx + dy * by


def _direction(origin: Point, p: Point) -> tuple[float, float]:
    dx = p.x - origin.x
    dy = p.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("degenerate direction: points coincide")
    return dx, dy


def _cones(dx, dy, k: int):
    """Cone index of each direction (dx, dy), as integral floats in 1..k, in
    one buffer: the ceiling of _turns, clamped."""
    cone = _turns(dx, dy, k)
    np.ceil(cone, out=cone)
    return np.clip(cone, 1.0, k, out=cone)


def _turns(dx, dy, k: int):
    """angle * k / 2pi for each direction (dx, dy), its _angles angle, in
    one buffer; its ceiling is the direction's cone."""
    turns = _angles(dx, dy)
    turns *= k
    turns /= TAU
    return turns


def _angles(dx, dy):
    """The clockwise angle from north of each direction (dx, dy), in
    (0, 2pi], in one buffer. Adding +0.0 leaves a positive angle as is."""
    angle = np.arctan2(dx, dy)
    angle += (angle <= 0.0) * TAU
    return angle


def _bisectors(cone, k: int):
    """Bisector components (sin, cos) of each cone index in cone, at the
    clockwise angle (cone - 1/2)*2pi/k from north."""
    theta = (cone - 0.5) * TAU / k
    return np.sin(theta), np.cos(theta)


def _as_int(value) -> int | None:
    """value as a plain int if it is an integer, numpy's included, and not
    a bool; None otherwise."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _check_k(k) -> int:
    """k as a plain int, if it is an integer >= 1 whose double times 2pi is
    finite: the cone formulas take k as a float, and _turns multiplies an
    angle of up to 2pi by it."""
    i = _as_int(k)
    if i is None or i < 1:
        raise ValueError(f"cone count must be an integer >= 1, got {k!r}")
    try:
        if math.isfinite(float(i) * TAU):
            return i
    except OverflowError:
        pass
    raise ValueError("cone count is beyond the double range")


_CELL_NODES = 2  # measured with construct._ROW_NODES: see the comment there
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
# The certificate's margins, and the key and span range where its
# rounding bounds hold (see construct._grid_keys)
_EPS = 2.0**-20
_DELTA = 2.0**-30
_KEY_MIN = 2.0**-500
_SPAN_MAX = 2.0**510


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
