"""Angle, cone-membership, and bisector primitives.

The plane around an origin point is divided into k equal angular cones,
numbered 1..k clockwise starting from the positive y-axis ("north").
Cone i covers the half-open interval ((i-1)*2pi/k, i*2pi/k], so every
cone excludes its counterclockwise-leading ray and includes its
clockwise-trailing ray, and every direction belongs to exactly one cone.

All angle arithmetic is plain double precision: a point within an ulp of
a cone boundary belongs to whatever cone the formula yields.
"""

import math
from dataclasses import dataclass

TAU = math.tau


@dataclass(frozen=True)
class Point:
    """A planar coordinate pair. Coordinates must be finite."""

    x: float
    y: float

    def __post_init__(self):
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
    _check_k(k)
    angle = clockwise_angle_from_north(origin, p)
    # angle <= 2pi, but the product may overshoot k by rounding; clamp.
    i = math.ceil(angle * k / TAU)
    return min(max(i, 1), k)


def bisector_direction(i: int, k: int) -> tuple[float, float]:
    """Unit vector along the bisector of cone i, at clockwise angle
    (i - 1/2)*2pi/k from north."""
    _check_cone_index(i, k)
    return _bisector(i, k)


def bisector_projection(origin: Point, p: Point, i: int, k: int) -> float:
    """Signed length of (p - origin) projected onto the bisector of cone i.

    Strictly positive for points inside cone i when k >= 3 (the cone
    half-angle is below pi/2); may be zero or negative for k <= 2.
    """
    _check_cone_index(i, k)
    dx = p.x - origin.x
    dy = p.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("degenerate direction: points coincide")
    bx, by = bisector_direction(i, k)
    return dx * bx + dy * by


def angle_at(vertex: Point, p: Point, q: Point) -> float:
    """Interior angle in [0, pi] at vertex between the rays vertex->p and
    vertex->q."""
    ax = p.x - vertex.x
    ay = p.y - vertex.y
    bx = q.x - vertex.x
    by = q.y - vertex.y
    if (ax == 0.0 and ay == 0.0) or (bx == 0.0 and by == 0.0):
        raise ValueError("degenerate direction: points coincide")
    # atan2 of (|cross|, dot) stays well-conditioned near 0 and pi,
    # unlike acos of the normalized dot product
    return math.atan2(abs(ax * by - ay * bx), ax * bx + ay * by)


def _bisector(i, k: int) -> tuple[float, float]:
    # unchecked; i may be an integral float, as the construction kernel has it
    theta = (i - 0.5) * TAU / k
    return (math.sin(theta), math.cos(theta))


def _check_k(k: int) -> None:
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"cone count must be an integer >= 1, got {k!r}")


def _check_cone_index(i: int, k: int) -> None:
    _check_k(k)
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= k:
        raise ValueError(f"cone index must be in 1..{k}, got {i!r}")
