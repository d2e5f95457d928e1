import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mc_oracles import mc_intersection_area, random_box, rigid_transform
from sim_oracle import center_distance, corner_points, intersection_area_reference, iou_reference
from silentcrash.geometry import (
    AREA_EPSILON,
    OrientedBox,
    Point2,
    _axis_overlaps,
    area,
    corners,
    intersection_area,
    iou,
    iou_bounds,
    normalize_yaw,
    overlaps,
    penetration_depth,
    rect_corners,
)


def box(x, y, hl, hw, yaw=0.0):
    return OrientedBox(Point2(x, y), hl, hw, yaw)


UNIT = box(0, 0, 0.5, 0.5)


def shoelace(points):
    acc = 0.0
    for i, (px, py) in enumerate(points):
        qx, qy = points[(i + 1) % len(points)]
        acc += px * qy - qx * py
    return acc / 2.0


class TestCorners:
    def test_unit_axis_aligned(self):
        got = {(round(x, 12), round(y, 12)) for x, y in corners(UNIT)}
        assert got == {(0.5, 0.5), (-0.5, 0.5), (-0.5, -0.5), (0.5, -0.5)}
        assert shoelace(corners(UNIT)) > 0  # CCW

    def test_quarter_turn_square_same_corner_set(self):
        turned = box(0, 0, 0.5, 0.5, math.pi / 2)
        got = {(round(x, 9), round(y, 9)) for x, y in corners(turned)}
        ref = {(round(x, 9), round(y, 9)) for x, y in corners(UNIT)}
        assert got == ref

    def test_rotated_rect_corner_distance(self):
        b = box(0, 0, 1.0, 0.5, math.pi / 4)
        for x, y in corners(b):
            assert math.hypot(x, y) == pytest.approx(math.sqrt(1.25))

    def test_ccw_for_random_boxes(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert shoelace(corners(random_box(rng))) > 0


class TestOverlaps:
    def test_identity(self):
        assert overlaps(UNIT, UNIT)

    def test_far_apart(self):
        assert not overlaps(UNIT, box(10, 0, 0.5, 0.5))

    def test_rotated_near_miss_agrees_with_membership_oracle(self):
        other = box(0.9, 0.9, 0.5, 0.5, math.pi / 4)
        rng = np.random.default_rng(7)
        mc = mc_intersection_area(UNIT, other, 1_000_000, rng)
        assert not overlaps(UNIT, other)
        assert mc == 0.0 or mc < 1e-4


class TestIntersectionArea:
    def test_identity_unit_square(self):
        assert intersection_area(UNIT, UNIT) == pytest.approx(1.0)

    def test_half_offset_rectangle(self):
        assert intersection_area(UNIT, box(0.5, 0, 0.5, 0.5)) == pytest.approx(0.5)

    def test_random_rotated_pairs_match_monte_carlo(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a, b = random_box(rng), random_box(rng)
            got = intersection_area(a, b)
            want = mc_intersection_area(a, b, 1_000_000, rng)
            assert abs(got - want) <= max(0.01 * want, 1e-3)


class TestIou:
    def test_identical(self):
        assert iou(UNIT, UNIT) == pytest.approx(1.0)

    def test_disjoint(self):
        assert iou(UNIT, box(5, 5, 1, 1)) == 0.0

    def test_half_offset_is_one_third(self):
        assert iou(UNIT, box(0.5, 0, 0.5, 0.5)) == pytest.approx(1 / 3)


class TestPenetrationDepth:
    def test_disjoint_is_zero(self):
        assert penetration_depth(UNIT, box(3, 0, 0.5, 0.5)) == 0.0

    def test_identical_unit_squares(self):
        assert penetration_depth(UNIT, UNIT) == pytest.approx(1.0)

    def test_offset_by_point_nine(self):
        assert penetration_depth(UNIT, box(0.9, 0, 0.5, 0.5)) == pytest.approx(0.1)


class TestCenterDistance:
    def test_coincident(self):
        assert center_distance(UNIT, box(0, 0, 1, 2, 0.3)) == 0.0

    def test_three_four_five(self):
        assert center_distance(UNIT, box(3, 4, 0.5, 0.5)) == pytest.approx(5.0)

    def test_translation_invariance(self):
        a, b = box(0, 0, 1, 0.5, 0.2), box(2, 1, 0.7, 0.4, -0.9)
        a2, b2 = box(5, -3, 1, 0.5, 0.2), box(7, -2, 0.7, 0.4, -0.9)
        assert center_distance(a, b) == pytest.approx(center_distance(a2, b2))


finite = st.floats(min_value=-20.0, max_value=20.0, allow_nan=False)
half_extent = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
yaw = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
boxes = st.builds(
    lambda x, y, hl, hw, th: box(x, y, hl, hw, th), finite, finite, half_extent, half_extent, yaw
)


@settings(max_examples=150, deadline=None)
@given(boxes, boxes)
def test_all_pair_operations_are_symmetric(a, b):
    assert overlaps(a, b) == overlaps(b, a)
    assert intersection_area(a, b) == pytest.approx(intersection_area(b, a), abs=1e-9)
    assert iou(a, b) == pytest.approx(iou(b, a), abs=1e-9)
    assert penetration_depth(a, b) == pytest.approx(penetration_depth(b, a), abs=1e-9)
    assert center_distance(a, b) == center_distance(b, a)


@settings(max_examples=150, deadline=None)
@given(boxes, boxes)
def test_bounds(a, b):
    assert 0.0 <= iou(a, b) <= 1.0
    assert intersection_area(a, b) <= min(area(a), area(b)) + 1e-9


def test_overlap_area_penetration_consistency():
    rng = np.random.default_rng(23)
    for _ in range(500):
        a, b = random_box(rng), random_box(rng)
        hit = overlaps(a, b)
        assert hit == (intersection_area(a, b) > AREA_EPSILON)
        assert hit == (penetration_depth(a, b) > 0.0)


def test_rigid_motion_invariance():
    rng = np.random.default_rng(29)
    for _ in range(200):
        a, b = random_box(rng), random_box(rng)
        angle = float(rng.uniform(-math.pi, math.pi))
        dx, dy = rng.uniform(-50, 50, size=2)
        a2, b2 = rigid_transform(a, angle, dx, dy), rigid_transform(b, angle, dx, dy)
        assert overlaps(a, b) == overlaps(a2, b2)
        assert abs(intersection_area(a, b) - intersection_area(a2, b2)) < 1e-9
        assert abs(iou(a, b) - iou(a2, b2)) < 1e-9
        assert abs(penetration_depth(a, b) - penetration_depth(a2, b2)) < 1e-9
        assert abs(center_distance(a, b) - center_distance(a2, b2)) < 1e-9


def test_rejects_degenerate_boxes():
    with pytest.raises(ValueError):
        box(0, 0, 0.0, 1.0)
    with pytest.raises(ValueError):
        box(0, 0, 1.0, -0.5)
    with pytest.raises(ValueError):
        Point2(math.nan, 0.0)


def test_yaw_normalized_into_range():
    b = box(0, 0, 1, 1, 3 * math.pi)
    assert -math.pi <= b.yaw < math.pi
    assert b.yaw == pytest.approx(math.pi, abs=1e-9) or b.yaw == pytest.approx(-math.pi)


@settings(max_examples=1000, deadline=None)
@given(
    in_range=st.floats(min_value=-math.pi, max_value=math.pi, exclude_max=True),
    other=st.floats(allow_nan=False, allow_infinity=False)
    | st.floats(min_value=-4.0, max_value=-math.pi, exclude_max=True)
    | st.floats(min_value=math.pi, max_value=4.0),
)
# just below -pi the formula's remainder rounds up to 2pi and gives pi, which is wrapped to -pi
@example(in_range=-0.0, other=math.nextafter(-math.pi, -4.0))
@example(in_range=-math.pi, other=math.pi)
@example(in_range=math.nextafter(math.pi, 0.0), other=-3 * math.pi - 1e-15)
def test_normalize_yaw_keeps_an_in_range_yaw_and_wraps_any_other_finite_one_into_range(in_range, other):
    """A yaw in [-pi, pi) keeps its bits, -0.0 included; any other finite yaw lands in [-pi, pi); NaN stays NaN."""
    assert normalize_yaw(in_range).hex() == in_range.hex()
    assert -math.pi <= normalize_yaw(other) < math.pi
    assert math.isnan(normalize_yaw(math.nan))


wide_yaw = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


@st.composite
def box_pairs(draw):
    """Two boxes: random, sharing an edge, grazing or nearly touching, one inside the other, or identical.

    A grazing pair overlaps by at most 1e-6 along the first box's length
    axis, a nearly touching one is apart by at most 1e-6 along it; the second
    box of both has any yaw.
    """
    x, y, hl, hw, th = draw(finite), draw(finite), draw(half_extent), draw(half_extent), draw(wide_yaw)
    a = box(x, y, hl, hw, th)
    how = draw(st.sampled_from(["random", "shared_edge", "grazing", "near_touching", "contained", "identical"]))
    if how == "random":
        b = draw(boxes)
    elif how == "shared_edge":
        other_hl, other_hw = draw(half_extent), draw(half_extent)
        reach = hl + other_hl
        b = box(x + reach * math.cos(th), y + reach * math.sin(th), other_hl, other_hw, th)
    elif how in ("grazing", "near_touching"):
        other_hl, other_hw, other_th = draw(half_extent), draw(half_extent), draw(wide_yaw)
        gap = draw(st.floats(min_value=0.0, max_value=1e-6))
        # the second box's half extent along the first one's length axis
        along = other_hl * abs(math.cos(other_th - th)) + other_hw * abs(math.sin(other_th - th))
        reach = hl + along + (gap if how == "near_touching" else -gap)
        side = draw(st.floats(min_value=-1.0, max_value=1.0)) * hw
        cx = x + reach * math.cos(th) - side * math.sin(th)
        cy = y + reach * math.sin(th) + side * math.cos(th)
        b = box(cx, cy, other_hl, other_hw, other_th)
    elif how == "contained":
        scale = draw(st.floats(min_value=0.05, max_value=0.5)) * min(hl, hw)
        b = box(x, y, scale, scale * draw(st.floats(min_value=0.2, max_value=1.0)), draw(wide_yaw))
    else:
        b = box(x, y, hl, hw, th)
    return (b, a) if draw(st.booleans()) else (a, b)


@settings(max_examples=300, deadline=None)
@given(box_pairs())
def test_iou_matches_object_reference_bit_for_bit(pair):
    a, b = pair
    assert intersection_area(a, b).hex() == intersection_area_reference(a, b).hex()
    assert iou(a, b).hex() == iou_reference(a, b).hex()


def _reach(a, b):
    """Largest center coordinate magnitude plus the largest half length and half width, as in Trace.overlap_walk."""
    centers = max(abs(a.center.x), abs(a.center.y), abs(b.center.x), abs(b.center.y))
    return (centers + max(a.half_length, b.half_length)) + max(a.half_width, b.half_width)


@settings(max_examples=400, deadline=None)
@given(box_pairs())
def test_overlap_bounds_cover_the_clipped_area_and_iou(pair):
    a, b = pair
    half_a, half_b = (a.half_length, a.half_width), (b.half_length, b.half_width)
    [bound] = iou_bounds([_axis_overlaps(a, b)], half_a, half_b, _reach(a, b))
    # I / (A + B - I) rises with I, in floats too: a bound on the IoU is one on the clipped area
    assert bound >= iou(a, b)
    inter = intersection_area(a, b)
    assert bound >= inter / (area(a) + area(b) - inter)


def test_non_finite_corner_raises_like_point2():
    far = box(1.7e308, 0.0, 1e308, 1.0)
    with pytest.raises(ValueError) as want:
        corner_points(far)
    with pytest.raises(ValueError) as got:
        corners(far)
    assert str(got.value) == str(want.value) == "non-finite point (inf, 1.0)"
    with pytest.raises(ValueError) as got:
        rect_corners(1.0, 2.0, math.inf, 1.0, 1.0, 0.0)  # inf * 0.0 is nan
    with pytest.raises(ValueError) as want:
        Point2(math.inf, math.nan)
    assert str(got.value) == str(want.value)
