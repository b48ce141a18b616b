"""Tests for the cone and bisector primitives."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conegraph.geometry import (
    TAU,
    Point,
    _cones,
    bisector_direction,
    bisector_projection,
    clockwise_angle_from_north,
    cone_of,
)

ORIGIN = Point(0.0, 0.0)


# ---------------------------------------------------------------------------
# clockwise_angle_from_north


def test_angle_due_east_is_quarter_turn():
    assert clockwise_angle_from_north(ORIGIN, Point(1, 0)) == math.pi / 2


def test_angle_due_north_maps_to_full_turn():
    assert clockwise_angle_from_north(ORIGIN, Point(0, 5)) == TAU


def test_angle_southwest_diagonal():
    assert clockwise_angle_from_north(ORIGIN, Point(-1, -1)) == pytest.approx(
        5 * math.pi / 4, abs=1e-15
    )


def test_angle_matches_rotation_table_at_45_degree_steps():
    # independent oracle: rotate the north vector clockwise in 45-degree
    # increments with an explicit rotation matrix
    for step in range(1, 9):
        theta = step * math.pi / 4
        p = Point(math.sin(theta) * 3.7, math.cos(theta) * 3.7)
        assert clockwise_angle_from_north(ORIGIN, p) == pytest.approx(theta, abs=1e-12)


def test_angle_rejects_coincident_points():
    with pytest.raises(ValueError, match="degenerate direction"):
        clockwise_angle_from_north(Point(2, 3), Point(2, 3))


def test_angle_offset_origin():
    assert clockwise_angle_from_north(Point(5, 5), Point(6, 5)) == math.pi / 2


@given(st.floats(-1e6, 1e6), st.floats(-1e6, 1e6))
@settings(max_examples=200)
def test_angle_always_in_half_open_range(dx, dy):
    if dx == 0 and dy == 0:
        return
    angle = clockwise_angle_from_north(ORIGIN, Point(dx, dy))
    assert 0.0 < angle <= TAU


# ---------------------------------------------------------------------------
# cone_of


def test_cone_of_diagonal_k4():
    assert cone_of(ORIGIN, Point(1, 1), 4) == 1


def test_cone_of_north_belongs_to_last_cone():
    assert cone_of(ORIGIN, Point(0, 5), 6) == 6


def test_cone_of_west_boundary_k4():
    # the west ray is the inclusive trailing boundary of cone 3
    assert cone_of(ORIGIN, Point(-1, 0), 4) == 3


def test_cone_of_rejects_bad_k():
    with pytest.raises(ValueError):
        cone_of(ORIGIN, Point(1, 1), 0)
    with pytest.raises(ValueError):
        cone_of(ORIGIN, Point(1, 1), -3)


@pytest.mark.parametrize("k", [np.int64(4), np.int32(4), np.uint8(4)])
def test_numpy_integer_cone_counts_and_indices_are_plain_ints(k):
    assert cone_of(ORIGIN, Point(-1, -1), k) == 3 and type(cone_of(ORIGIN, Point(-1, -1), k)) is int
    for i in (np.int64(3), np.int32(3), 3):
        assert bisector_direction(i, k) == bisector_direction(3, 4)
        assert bisector_projection(ORIGIN, Point(-1, -2), i, k) == bisector_projection(
            ORIGIN, Point(-1, -2), 3, 4)


@pytest.mark.parametrize("bad", [np.True_, True, 2.5, "6", None, np.float64(4.0)])
def test_non_integer_cone_counts_and_indices_are_rejected(bad):
    with pytest.raises(ValueError, match=r"cone count must be an integer >= 1, got"):
        cone_of(ORIGIN, Point(1, 1), bad)
    with pytest.raises(ValueError, match=r"cone count must be an integer >= 1, got"):
        bisector_direction(1, bad)
    with pytest.raises(ValueError, match=r"cone index must be in 1\.\.4, got"):
        bisector_direction(bad, 4)
    with pytest.raises(ValueError, match=r"cone index must be in 1\.\.4, got"):
        bisector_projection(ORIGIN, Point(1, 1), bad, np.int64(4))


def test_boundary_rays_where_exactly_representable():
    # rays along the axes and diagonals can be placed exactly; each ray
    # l_j must land in cone j-1 (ray l_1 in cone k)
    cases = {
        1: [(Point(0, 1), 1)],
        2: [(Point(0, 1), 2), (Point(0, -1), 1)],
        4: [(Point(0, 1), 4), (Point(1, 0), 1), (Point(0, -1), 2), (Point(-1, 0), 3)],
        8: [
            (Point(0, 1), 8),
            (Point(1, 1), 1),
            (Point(1, 0), 2),
            (Point(1, -1), 3),
            (Point(0, -1), 4),
            (Point(-1, -1), 5),
            (Point(-1, 0), 6),
            (Point(-1, 1), 7),
        ],
    }
    for k, pairs in cases.items():
        for p, want in pairs:
            assert cone_of(ORIGIN, p, k) == want, (k, p)


@given(
    st.floats(0.0, 1.0, exclude_min=True),
    st.integers(1, 16),
    st.floats(0.1, 100.0),
)
@settings(max_examples=300)
def test_partition_exactly_one_cone(frac, k, dist):
    # every direction, including exact multiples of 2pi/k, lands in
    # exactly one valid cone
    theta = frac * TAU
    p = Point(dist * math.sin(theta), dist * math.cos(theta))
    i = cone_of(ORIGIN, p, k)
    assert 1 <= i <= k


def test_partition_on_dense_grid_with_exact_multiples():
    for k in (1, 2, 3, 5, 6, 7, 12):
        for m in range(6 * k):
            theta = (m + 1) * TAU / (6 * k)  # hits every boundary multiple
            p = Point(math.sin(theta), math.cos(theta))
            assert 1 <= cone_of(ORIGIN, p, k) <= k


def test_rotation_equivariance():
    # rotating clockwise by one cone width bumps the index by 1 (mod k);
    # sample directions well away from boundaries so rotation rounding
    # cannot flip cones
    for k in (2, 3, 4, 6, 9):
        width = TAU / k
        for j in range(k):
            theta = j * width + width / 2
            p = Point(math.sin(theta), math.cos(theta))
            rotated = Point(math.sin(theta + width), math.cos(theta + width))
            before = cone_of(ORIGIN, p, k)
            after = cone_of(ORIGIN, rotated, k)
            assert after == before % k + 1


def assert_array_cones_match_cone_of(directions, k):
    dx, dy = (np.array(c) for c in zip(*directions))
    want = [cone_of(ORIGIN, Point(x, y), k) for x, y in directions]
    assert _cones(dx, dy, k).tolist() == want, k


# signed zeros on both axes (so the four axis directions twice), and angles
# of one subnormal either side of north and east of south
SIGNED_AXES_AND_SUBNORMALS = [
    (-0.0, 1.0), (0.0, 1.0), (1.0, -0.0), (1.0, 0.0),
    (-0.0, -1.0), (0.0, -1.0), (-1.0, -0.0), (-1.0, 0.0),
    (5e-324, 1.0), (-5e-324, 1.0), (5e-324, -1.0)]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6, 7, 12, 2**16, 10**18])
def test_array_cones_match_cone_of_elementwise(k):
    assert_array_cones_match_cone_of(SIGNED_AXES_AND_SUBNORMALS, k)
    # -0.0 - 0.0 keeps the sign, so the scalar side saw the signed zeros too
    assert math.copysign(1.0, Point(-0.0, 1.0).x - ORIGIN.x) == -1.0
    # north is cone k whichever the sign of its zero; a subnormal east of it
    # lands in cone 1 (after the clamp when angle * k / 2pi underflows)
    got = _cones(np.array([-0.0, 0.0, 5e-324]), np.array([1.0, 1.0, 1.0]), k)
    assert got.tolist() == [k, k, 1]


# numpy's array arctan2 may differ from math.atan2 by an ulp (numpy 2.4 on
# x86-64 with AVX-512 does), and _cones takes numpy's
RAY_MULTIPLES = [(math.sin(m * TAU / 12), math.cos(m * TAU / 12)) for m in range(12)]
ATAN2_DIFFERS = (np.arctan2(*map(np.array, zip(*RAY_MULTIPLES))).tolist()
                 != [math.atan2(x, y) for x, y in RAY_MULTIPLES])


@pytest.mark.xfail(ATAN2_DIFFERS, reason="numpy's arctan2 rounds some angles differently "
                   "from math.atan2, so _cones and cone_of can disagree", strict=False)
def test_array_cones_match_cone_of_on_ray_multiples():
    for k in (12, 10**18):
        assert_array_cones_match_cone_of(RAY_MULTIPLES, k)


# ---------------------------------------------------------------------------
# bisector_direction / bisector_projection


def test_bisector_first_cone_k4():
    bx, by = bisector_direction(1, 4)
    assert (bx, by) == pytest.approx((math.sqrt(2) / 2, math.sqrt(2) / 2), abs=1e-15)


def test_bisector_third_cone_k4():
    bx, by = bisector_direction(3, 4)
    assert (bx, by) == pytest.approx((-math.sqrt(2) / 2, -math.sqrt(2) / 2), abs=1e-15)


def test_bisector_first_cone_k6():
    bx, by = bisector_direction(1, 6)
    assert (bx, by) == pytest.approx((0.5, math.sqrt(3) / 2), abs=1e-15)
    assert math.hypot(bx, by) == pytest.approx(1.0, abs=1e-15)


def test_bisector_rejects_out_of_range_index():
    with pytest.raises(ValueError):
        bisector_direction(0, 4)
    with pytest.raises(ValueError):
        bisector_direction(5, 4)


def test_bisector_unit_norm_all_cones():
    for k in range(1, 17):
        for i in range(1, k + 1):
            bx, by = bisector_direction(i, k)
            assert math.hypot(bx, by) == pytest.approx(1.0, abs=1e-14)


def test_projection_east_point_first_cone_k4():
    assert bisector_projection(ORIGIN, Point(1, 0), 1, 4) == pytest.approx(
        math.sqrt(2) / 2, abs=1e-15
    )


def test_projection_north_point_first_cone_k4():
    # symmetric to the east case across the bisector
    assert bisector_projection(ORIGIN, Point(0, 1), 1, 4) == pytest.approx(
        math.sqrt(2) / 2, abs=1e-15
    )


def test_projection_of_point_on_bisector_is_its_distance():
    for k in (3, 5, 8):
        for i in (1, k):
            bx, by = bisector_direction(i, k)
            d = 2.75
            p = Point(d * bx, d * by)
            assert bisector_projection(ORIGIN, p, i, k) == pytest.approx(d, abs=1e-12)


def test_projection_matches_rotation_into_bisector_frame():
    # independent oracle: rotate the plane so the bisector becomes
    # north; the projection is then the rotated point's y-coordinate
    for k, i in ((4, 1), (6, 2), (5, 5)):
        theta = (i - 0.5) * TAU / k
        cos_t, sin_t = math.cos(theta), math.sin(theta)
        for p in (Point(1, 0), Point(0.3, 2.1), Point(-0.5, 0.4)):
            rotated = Point(p.x * cos_t - p.y * sin_t, p.x * sin_t + p.y * cos_t)
            assert bisector_projection(ORIGIN, p, i, k) == pytest.approx(
                rotated.y, abs=1e-12
            )


def test_projection_rejects_coincident_points():
    with pytest.raises(ValueError, match="degenerate"):
        bisector_projection(ORIGIN, Point(0, 0), 1, 4)
    with pytest.raises(ValueError, match="degenerate"):
        bisector_projection(Point(1.5, -2), Point(1.5, -2.0), 3, 6)


def test_boundary_rays_project_equally_at_cos_pi_over_k():
    # both boundary rays of a cone sit pi/k from its bisector
    for k in (2, 3, 4, 6, 9, 12):
        for i in (1, 2, k):
            if i > k:
                continue
            lead = (i - 1) * TAU / k
            trail = i * TAU / k
            expect = math.cos(math.pi / k)
            for theta in (lead, trail):
                p = Point(math.sin(theta), math.cos(theta))
                proj = bisector_projection(ORIGIN, p, i, k)
                assert proj == pytest.approx(expect, abs=1e-12), (k, i, theta)


def test_in_cone_projection_positive_for_k3_and_up():
    for k in (3, 4, 6, 11):
        for m in range(50):
            theta = (m + 0.5) / 50 * TAU
            p = Point(math.sin(theta), math.cos(theta))
            i = cone_of(ORIGIN, p, k)
            assert bisector_projection(ORIGIN, p, i, k) > 0.0


# ---------------------------------------------------------------------------
# Point


def test_point_rejects_non_finite():
    with pytest.raises(ValueError):
        Point(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point(0.0, math.inf)


def test_point_stores_real_numbers_as_floats():
    for value in (3, np.int64(3), np.uint8(3), np.float32(3.0), np.float64(3.0), Fraction(3)):
        p = Point(value, 1)
        assert type(p.x) is float and type(p.y) is float
        assert p == Point(3.0, 1.0)
    assert Point(4_000_000_000, 2**70) == Point(4e9, 2.0**70)


@pytest.mark.parametrize("value", [True, np.True_, "1", None, 1 + 2j,
                                   pytest.param(10**400, id="10**400")])
def test_point_rejects_bools_non_reals_and_ints_beyond_doubles(value):
    with pytest.raises(ValueError):
        Point(value, 0.0)
    with pytest.raises(ValueError):
        Point(0.0, value)
