"""Tests for the cone and bisector primitives, and for the package's imports."""

import ast
import graphlib
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from exact import exact_cone
from hypothesis import strategies as st

from conegraph import geometry
from conegraph.geometry import (
    TAU,
    Point,
    _angles,
    _bisectors,
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


# the largest cone count whose double times 2pi is finite: the largest such
# double, plus half its ulp, which rounds to it (its mantissa is even)
K_MAX = int(float.fromhex("0x1.45f306dc9c882p+1021")) + 2**968


@pytest.mark.parametrize("k", [pytest.param(k, id=name) for k, name in (
    (K_MAX + 1, "K_MAX+1"), (2**1023, "2**1023"), (2**1024 - 2**970 - 1, "2**1024-2**970-1"),
    (2**1024 - 2**970, "2**1024-2**970"), (10**400, "10**400"))])
def test_cone_counts_beyond_the_double_range_are_rejected(k):
    # _turns multiplies an angle of up to 2pi by k as a float, which
    # overflows above K_MAX; 2**1024 - 2**970 is the least integer that
    # rounds past the largest double itself
    with pytest.raises(ValueError, match="cone count is beyond the double range"):
        cone_of(ORIGIN, Point(1, 1), k)
    with pytest.raises(ValueError, match="cone count is beyond the double range"):
        bisector_direction(1, k)


@pytest.mark.parametrize("k", [pytest.param(k, id=name) for k, name in (
    (2**53 + 1, "2**53+1"), (2**64 + 5, "2**64+5"), (2**1000, "2**1000"), (K_MAX, "K_MAX"))])
def test_cone_of_takes_cone_counts_up_to_the_double_range(k):
    # eighth turns clockwise from north
    for m in range(1, 9):
        dx, dy = math.sin(m * TAU / 8), math.cos(m * TAU / 8)
        cone = cone_of(ORIGIN, Point(dx, dy), k)
        assert type(cone) is int and 1 <= cone <= k
        assert cone / k == pytest.approx(m / 8, rel=1e-15)


# the 12 ray multiples include angles that numpy's arctan2 rounds an ulp
# away from math.atan2 (numpy 2.4 on x86-64 with AVX-512 does)
RAY_MULTIPLES = [(math.sin(m * TAU / 12), math.cos(m * TAU / 12)) for m in range(12)]


def test_array_cones_match_cone_of_on_ray_multiples():
    for k in (12, 10**18):
        assert_array_cones_match_cone_of(RAY_MULTIPLES, k)


@pytest.mark.parametrize("k", [*range(1, 17), 26, 2**20])
def test_cone_of_matches_exact_cone(k):
    # cone_of calls _cones, so the tests above compare the rule with itself;
    # tests/exact.py decides each cone apart from it, with math.atan2 and a
    # ceiling far from the rays and the sign of Im(z**k) within 1e-6 turns of
    # one. Directions within 2**-30 turns of a ray are left out, as doubles
    # need not decide them. Near the rays the oracle's powers take seconds
    # at k = 2**20, so that k gets uniformly drawn directions only
    rng = np.random.default_rng(k)
    turns = rng.random(200) * k
    if k <= 26:
        off = rng.choice((-1.0, 1.0), 200) * 2.0 ** -rng.uniform(21, 29, 200)
        turns = np.concatenate([turns, rng.integers(0, k, 200) + off])
    checked = 0
    for t in turns.tolist():
        scale = 2.0 ** int(rng.integers(-100, 100))
        dx, dy = math.sin(t * TAU / k) * scale, math.cos(t * TAU / k) * scale
        angle = math.atan2(dx, dy)
        at = (angle if angle > 0 else angle + TAU) * k / TAU
        if abs(at - round(at)) < 2.0**-30:
            continue
        assert cone_of(ORIGIN, Point(dx, dy), k) == exact_cone(Fraction(dx), Fraction(dy), k), t
        checked += 1
    assert checked >= 0.95 * len(turns)


def ray_directions(k):
    """Directions on cone rays m * 2pi / k and one ulp off them, for m
    at both ends of 0..k-1."""
    ms = sorted({*range(min(k, 12)), *range(max(k - 12, 0), k)})
    rays = [(math.sin(m * TAU / k), math.cos(m * TAU / k)) for m in ms]
    return rays + [(math.nextafter(x, math.inf), y) for x, y in rays] + SIGNED_AXES_AND_SUBNORMALS


@pytest.mark.parametrize("k", [6, 12, 2**64 - 1, 10**18])
def test_scalar_angle_and_bisector_are_the_array_formulas(k):
    directions = ray_directions(k)
    dx, dy = (np.array(c) for c in zip(*directions))
    want = _angles(dx, dy).tolist()
    assert [clockwise_angle_from_north(ORIGIN, Point(x, y)) for x, y in directions] == want
    cones = sorted({*range(1, min(k, 12) + 1), *range(max(k - 11, 1), k + 1)})
    bx, by = _bisectors(np.array(cones, float), k)
    assert [bisector_direction(i, k) for i in cones] == list(zip(bx.tolist(), by.tolist()))


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


# ---------------------------------------------------------------------------
# the package's imports


def package_imports(tree):
    """(statement, modules) for each import statement in tree that names
    modules of the package; the package itself is __init__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            base = "conegraph" + (f".{node.module}" if node.module else "")
            names = [base] if node.module else [f"{base}.{a.name}" for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        parts = [name.split(".") for name in names]
        modules = {p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "conegraph"}
        if modules:
            yield node, modules


def test_package_imports_are_module_level_and_acyclic_with_geometry_at_the_bottom():
    # importing a module never runs a package import later, the modules
    # import one another without a cycle, and geometry, which the cell index
    # and the cone rule share, imports nothing from the package
    graph = {}
    for path in sorted(Path(geometry.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        graph[path.stem] = set()
        for node, modules in package_imports(tree):
            assert node in tree.body, f"{path.name}:{node.lineno} imports {modules} in a body"
            graph[path.stem] |= modules
    assert graph["voidcheck"] >= {"construct", "geometry", "model"}
    assert graph["geometry"] == set()
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        pytest.fail(f"import cycle: {exc.args[1]}")
