"""Angle, cone-membership, and bisector primitives.

The plane around an origin point is divided into k equal angular cones,
numbered 1..k clockwise starting from the positive y-axis ("north").
Cone i covers the half-open interval ((i-1)*2pi/k, i*2pi/k], so every
cone excludes its counterclockwise-leading ray and includes its
clockwise-trailing ray, and every direction belongs to exactly one cone.

All angle arithmetic is plain double precision: a point within an ulp of
a cone boundary belongs to whatever cone the formula yields.

The array forms _cones (cone indices, no angles) and _bisectors, which
the construction kernel and the relay checks call, take cone_of's and
_bisector's steps; _turns is _cones before the ceiling. numpy's arctan2 can round an angle an ulp away from
math.atan2, so near a cone boundary _cones and cone_of may disagree.
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
    rule fall out of a plain ceiling in cone_of with no special case.

    Raises ValueError for coincident points (degenerate direction).
    """
    dx = p.x - origin.x
    dy = p.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("degenerate direction: points coincide")
    angle = math.atan2(dx, dy)
    if angle <= 0.0:
        angle += TAU
    return angle


def cone_of(origin: Point, p: Point, k: int) -> int:
    """Index in 1..k of the cone around origin that contains p.

    Cone i is the half-open angular interval ((i-1)*2pi/k, i*2pi/k]
    clockwise from north; a point exactly on a cone's leading ray
    belongs to the previous cone (the north ray belongs to cone k).
    """
    k = _check_k(k)
    angle = clockwise_angle_from_north(origin, p)
    # angle <= 2pi, but the product may overshoot k by rounding; clamp.
    i = math.ceil(angle * k / TAU)
    return min(max(i, 1), k)


def bisector_direction(i: int, k: int) -> tuple[float, float]:
    """Unit vector along the bisector of cone i, at clockwise angle
    (i - 1/2)*2pi/k from north."""
    k, j = _check_k(k), _as_int(i)
    if j is None or not 1 <= j <= k:
        raise ValueError(f"cone index must be in 1..{k}, got {i!r}")
    return _bisector(j, k)


def bisector_projection(origin: Point, p: Point, i: int, k: int) -> float:
    """Signed length of (p - origin) projected onto the bisector of cone i.

    Strictly positive for points inside cone i when k >= 3 (the cone
    half-angle is below pi/2); may be zero or negative for k <= 2.
    """
    bx, by = bisector_direction(i, k)
    dx = p.x - origin.x
    dy = p.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("degenerate direction: points coincide")
    return dx * bx + dy * by


def _bisector(i, k: int) -> tuple[float, float]:
    # unchecked; i may be an integral float, as _bisectors has it
    theta = (i - 0.5) * TAU / k
    return (math.sin(theta), math.cos(theta))


def _cones(dx, dy, k: int):
    """Cone index of each direction (dx, dy), as integral floats in 1..k, by
    cone_of's steps in one buffer."""
    cone = _turns(dx, dy, k)
    np.ceil(cone, out=cone)
    return np.clip(cone, 1.0, k, out=cone)


def _turns(dx, dy, k: int):
    """angle * k / 2pi for each direction (dx, dy), the angle clockwise from
    north in (0, 2pi] as cone_of computes it, in one buffer; its ceiling is
    the direction's cone. Adding +0.0 leaves a positive angle as is."""
    turns = np.arctan2(dx, dy)
    turns += (turns <= 0.0) * TAU
    turns *= k
    turns /= TAU
    return turns


def _ranks(values):
    """The distinct entries of the array values, ascending, and each entry's
    index among them. Below a few thousand entries a sort and searchsorted
    cost less than np.unique."""
    distinct = _distinct(np.sort(values, axis=None))
    return distinct, distinct.searchsorted(values)


def _distinct(a):
    """The distinct entries of the sorted 1-d array a."""
    first = np.empty(a.size, bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return a[first]


def _bisectors(cone, k: int):
    """Bisector components of each cone index in the array cone, as
    bisector_direction computes them, with one _bisector call per distinct
    cone."""
    distinct, at = _ranks(cone)
    bx, by = np.array([_bisector(i, k) for i in distinct.tolist()]).reshape(-1, 2).T
    return bx[at], by[at]


def _as_int(value) -> int | None:
    """value as a plain int if it is an integer, numpy's included, and not
    a bool; None otherwise."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


def _check_k(k) -> int:
    i = _as_int(k)
    if i is None or i < 1:
        raise ValueError(f"cone count must be an integer >= 1, got {k!r}")
    return i
