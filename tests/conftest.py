"""Fixtures shared by the test modules."""

import math
import random

import pytest

from conegraph.geometry import TAU, Point
from conegraph.model import NodeSet


def _ray_sets(count, ks, seed):
    """Yield count (nodes, k) pairs, k drawn from ks: an origin and 7 points
    at r * (sin(m * 2pi/k), cos(m * 2pi/k)) for distinct (r, m), r in
    {0.5, 1, 2, 3}, so every point lies on one of the origin's cone rays."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.choice(ks)
        spots = rng.sample([(r, m) for r in (0.5, 1, 2, 3) for m in range(k)], 7)
        coords = [(0.0, 0.0)] + [(r * math.sin(m * TAU / k), r * math.cos(m * TAU / k))
                                 for r, m in spots]
        yield NodeSet((f"p{i}", Point(x, y)) for i, (x, y) in enumerate(coords)), k


@pytest.fixture
def ray_sets():
    """Node sets whose points lie on cone rays around one of them, where an
    angle an ulp off decides the cone: see _ray_sets."""
    return _ray_sets
