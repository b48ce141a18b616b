"""An exact oracle for cones and for directed Yao and Theta graphs over the
input doubles, for the tests.

Every double is a dyadic rational, so the offset between two nodes is an
exact pair of Fractions. A direction (dx, dy) has the clockwise angle from
north theta = arg z, z = dy + i*dx, so Im(z**k) = |z|**k * sin(k * theta):
near the cone ray m * 2pi/k its sign says on which side of the ray the
direction lies, and it is 0 on the ray. Far from every ray, plain doubles
decide the cone, with a margin of 1e-6 turns, far above their rounding.

Theta compares two nodes v, w of one cone by the sign of the projection of
v - w onto the cone's bisector at angle phi. Near the perpendicular, where
alpha = arg(v - w) = phi +- pi/2 + delta, 2k * phi is a multiple of 2pi, so
Im(zeta**(2k)) = (-1)**k * |zeta|**(2k) * sin(2k * delta) for
zeta = (v - w).y + i*(v - w).x gives the sign of delta.
"""

import math
from fractions import Fraction

# doubles decide an entry whose cosine or distance to a ray, in turns,
# clears this margin
_MARGIN = 1e-6


def exact_cone(dx: Fraction, dy: Fraction, k: int) -> int:
    """The cone in 1..k of the direction (dx, dy) != (0, 0), exactly."""
    angle = math.atan2(float(dx), float(dy))
    turns = (angle if angle > 0 else angle + math.tau) * k / math.tau
    m = round(turns)
    if abs(turns - m) > _MARGIN:
        return min(max(math.ceil(turns), 1), k)
    # on ray m the direction is in cone m, just clockwise of it in cone m + 1
    cone = m + 1 if _power_sign(dy, dx, k) > 0 else m
    return (cone - 1) % k + 1


def projection_sign(ex: Fraction, ey: Fraction, i: int, k: int) -> int:
    """The sign of the projection of (ex, ey) != (0, 0) onto the bisector
    of cone i, exactly."""
    phi = (i - 0.5) * math.tau / k
    fx, fy = float(ex), float(ey)
    norm = math.hypot(fx, fy)
    cos = (fx * math.sin(phi) + fy * math.cos(phi)) / norm
    if abs(cos) > _MARGIN:
        return 1 if cos > 0 else -1
    delta = _power_sign(ey, ex, 2 * k) * (-1) ** k
    # cos(alpha - phi) is -sin(delta) near phi + pi/2 and sin(delta) near phi - pi/2
    sin = (fx * math.cos(phi) - fy * math.sin(phi)) / norm
    return -delta if sin > 0 else delta


def exact_directed_edges(nodes, k: int, family: str) -> list[tuple[int, int]]:
    """The sorted edges of the directed Yao or Theta graph (Theta for
    k >= 3) of the node set, decided exactly, ties to the smallest index."""
    if family == "theta" and k < 3:
        raise ValueError("exact Theta keys need k >= 3")
    pts = [(Fraction(p.x), Fraction(p.y)) for p in nodes.points]
    edges = []
    for u, (ux, uy) in enumerate(pts):
        best = {}
        for v, (vx, vy) in enumerate(pts):
            if v == u:
                continue
            i = exact_cone(vx - ux, vy - uy, k)
            w = best.setdefault(i, v)
            if w == v:
                continue
            wx, wy = pts[w]
            if family == "yao":
                closer = (vx - ux) ** 2 + (vy - uy) ** 2 < (wx - ux) ** 2 + (wy - uy) ** 2
            else:
                closer = projection_sign(vx - wx, vy - wy, i, k) < 0
            if closer:  # v ascends, so a tie keeps the smaller index
                best[i] = v
        edges.extend((u, w) for w in best.values())
    return sorted(edges)


def _power_sign(a: Fraction, b: Fraction, k: int) -> int:
    """The sign of Im((a + i*b)**k) for dyadic Fractions a, b."""
    scale = max(a.denominator, b.denominator)  # both powers of two
    re, im = int(a * scale), int(b * scale)
    pr, pi = 1, 0
    while k:
        if k & 1:
            pr, pi = pr * re - pi * im, pr * im + pi * re
        re, im = re * re - im * im, 2 * re * im
        k >>= 1
    return (pi > 0) - (pi < 0)
