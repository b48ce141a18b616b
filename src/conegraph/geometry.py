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
rule lives in _cones alone and cone_of and the kernel always agree.
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
