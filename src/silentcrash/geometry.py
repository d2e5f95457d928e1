"""Oriented-bounding-box primitives: the unit of all contact math.

Every actor footprint is a planar rectangle given by center, half extents and
yaw. The boolean overlap test runs the separating-axis theorem over the four
face normals; the intersection area clips one quad against the other's
half-planes. The two routes are deliberately independent so they can be
cross-checked against each other and against a Monte-Carlo membership oracle.
Corners are plain (x, y) float tuples, so a trace's frames can be scored
from its center floats without building a box per frame. The separating-axis
overlaps also bound the clipped area and so the IoU from above (iou_bounds),
so a frame whose bound cannot beat a running peak need not be clipped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# Slack on an intersection-area bound, per squared coordinate reach; see
# iou_bounds.
_BOUND_SLACK = 1e-9

# Areas at or below this threshold count as "no contact". Gives the zero
# overlap threshold of the scenario oracle a strict-inequality meaning.
AREA_EPSILON = 1e-9

_TWO_PI = 2.0 * math.pi


def normalize_yaw(yaw: float) -> float:
    """Wrap an angle into [-pi, pi): a yaw already in range keeps its bits, any other is (yaw + pi) % 2pi - pi.

    The formula rounds yaw + pi, so applied to an in-range angle it could
    move it by up to half an ulp of yaw + pi, many ulps of a small angle.
    Just below -pi the sum is a tiny negative number whose remainder rounds
    up to 2pi, and the formula gives pi; that is wrapped to -pi. A NaN stays
    NaN.
    """
    if -math.pi <= yaw < math.pi:
        return yaw
    wrapped = (yaw + math.pi) % _TWO_PI - math.pi
    return -math.pi if wrapped == math.pi else wrapped


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite point ({self.x}, {self.y})")


@dataclass(frozen=True)
class OrientedBox:
    """Planar rigid footprint: center, half extents along body axes, yaw."""

    center: Point2
    half_length: float
    half_width: float
    yaw: float

    def __post_init__(self) -> None:
        if not (self.half_length > 0.0 and self.half_width > 0.0):
            raise ValueError("half extents must be positive")
        if not all(math.isfinite(v) for v in (self.half_length, self.half_width, self.yaw)):
            raise ValueError("non-finite box parameter")
        object.__setattr__(self, "yaw", normalize_yaw(self.yaw))


def rect_area(half_length: float, half_width: float) -> float:
    return 4.0 * half_length * half_width


def area(box: OrientedBox) -> float:
    return rect_area(box.half_length, box.half_width)


Corners = tuple[tuple[float, float], tuple[float, float], tuple[float, float], tuple[float, float]]


def _body_axes(box: OrientedBox) -> tuple[tuple[float, float], tuple[float, float]]:
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return (c, s), (-s, c)


def rect_corners(cx: float, cy: float, half_length: float, half_width: float, c: float, s: float) -> Corners:
    """Corner points (x, y), counter-clockwise, of the box with body axes (c, s) and (-s, c).

    Local CCW order: (+hl,+hw), (-hl,+hw), (-hl,-hw), (+hl,-hw). Each
    coordinate is cx + a*ux + b*vx with a, b = +-hl, +-hw; negating a
    product and adding a negated term round exactly as the written-out
    expression does, so four products serve all eight coordinates.
    """
    hc, hs = half_length * c, half_length * s
    wc, ws = half_width * c, half_width * s
    fx, fy, bx, by = cx + hc, cy + hs, cx - hc, cy - hs
    pts = ((fx - ws, fy + wc), (bx - ws, by + wc), (bx + ws, by - wc), (fx + ws, fy - wc))
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"non-finite point ({x}, {y})")
    return pts


def corners(box: OrientedBox) -> Corners:
    """Corner points (x, y) of the box in counter-clockwise order."""
    (c, s), _ = _body_axes(box)
    return rect_corners(box.center.x, box.center.y, box.half_length, box.half_width, c, s)


def _axis_overlaps(a: OrientedBox, b: OrientedBox) -> list[float]:
    """Signed projection overlap along the four face normals.

    A negative entry means the boxes are separated along that axis; the
    minimum entry, clamped at zero, is the minimum translation distance.
    """
    ua, va = _body_axes(a)
    ub, vb = _body_axes(b)
    dx = b.center.x - a.center.x
    dy = b.center.y - a.center.y
    out = []
    for ax, ay in (ua, va, ub, vb):
        ra = a.half_length * abs(ax * ua[0] + ay * ua[1]) + a.half_width * abs(ax * va[0] + ay * va[1])
        rb = b.half_length * abs(ax * ub[0] + ay * ub[1]) + b.half_width * abs(ax * vb[0] + ay * vb[1])
        out.append(ra + rb - abs(ax * dx + ay * dy))
    return out


def overlaps(a: OrientedBox, b: OrientedBox) -> bool:
    """Separating-axis test: true iff interiors or boundaries intersect."""
    return min(_axis_overlaps(a, b)) >= 0.0


def penetration_depth(a: OrientedBox, b: OrientedBox) -> float:
    """Minimum translation distance separating the boxes; 0 if disjoint."""
    m = min(_axis_overlaps(a, b))
    return m if m > 0.0 else 0.0


def _clip_polygon(points: Corners, quad: Corners) -> list[tuple[float, float]]:
    """Sutherland-Hodgman clip of `points` against a CCW quad's half-planes."""
    for (px, py), (qx, qy) in zip(quad, quad[1:] + quad[:1]):
        if not points:
            return []
        ex, ey = qx - px, qy - py
        clipped: list[tuple[float, float]] = []
        x0, y0 = points[-1]
        s0 = ex * (y0 - py) - ey * (x0 - px)
        for x1, y1 in points:
            s1 = ex * (y1 - py) - ey * (x1 - px)
            if s1 >= 0.0:
                if s0 < 0.0:
                    clipped.append(_edge_intersection(x0, y0, x1, y1, s0, s1))
                clipped.append((x1, y1))
            elif s0 >= 0.0:
                clipped.append(_edge_intersection(x0, y0, x1, y1, s0, s1))
            x0, y0, s0 = x1, y1, s1
        points = clipped
    return points


def _edge_intersection(x0, y0, x1, y1, s0, s1) -> tuple[float, float]:
    t = s0 / (s0 - s1)
    return (x0 + t * (x1 - x0), y0 + t * (y1 - y0))


def _shoelace(points: list[tuple[float, float]]) -> float:
    if len(points) < 3:
        return 0.0
    acc = 0.0
    for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1]):
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2.0


def corners_iou(a: Corners, b: Corners, area_a: float, area_b: float) -> float:
    """IoU of two boxes given by their corners and areas."""
    inter = _shoelace(_clip_polygon(a, b))
    value = inter / (area_a + area_b - inter)
    return min(max(value, 0.0), 1.0)


def iou_bounds(overlaps, half_a: tuple[float, float], half_b: tuple[float, float], reach: float) -> list[float]:
    """Upper bounds on corners_iou of boxes a and b, one per entry of overlaps; +inf where there is none.

    Each entry of overlaps holds the boxes' signed overlaps along a's two face
    normals, then b's: the summed half extents along the normal minus the
    projected center offset, as _axis_overlaps gives them. The intersection
    lies inside a, so its extent along a's length axis is at most
    min(overlap, 2 * half length), and likewise along the other three normals
    (the separating-axis projections of Ericson, Real-Time Collision
    Detection, 4.4 and 5.5). Its area I is at most the smaller of the two
    boxes' products of those extents, and the IoU I / (A + B - I) rises with I.

    reach must be at least every corner coordinate's magnitude: the largest
    center coordinate magnitude plus the half length and the half width.
    Every corner coordinate, clip vertex and overlap is within a few ulps of
    reach of its exact value, and the headings from cos and sin are unit to
    within an ulp. The clipped polygon has at most 8 vertices, so its area
    moves by at most its perimeter (under 8 * reach) times such an error, and
    the shoelace sum of its cross products, each up to 2 * reach**2, rounds by
    a few ulps of each. In all that is a few hundred ulps of reach**2: an
    absolute error, as large on a grazing contact, whose exact area is 0, as
    on a deep one, so a margin relative to the area would not cover it. The
    area bound is raised by _BOUND_SLACK * reach**2, over 10^4 times that.
    Each area is at most reach**2, so the slack is at least
    _BOUND_SLACK * (A + B) / 2 and raises the quotient by at least
    _BOUND_SLACK / 2: far more than the rounding of corners_iou's division and
    of this one. A NaN area bound, or one that leaves no positive union,
    gives +inf.

    Each clamp is a conditional expression that keeps the operand the
    builtins min(max(x, 0.0), side) and min(inside_a, inside_b) keep, NaN and
    -0.0 included, so the bounds have their bits.
    """
    length_a, width_a = 2.0 * half_a[0], 2.0 * half_a[1]
    length_b, width_b = 2.0 * half_b[0], 2.0 * half_b[1]
    areas = rect_area(*half_a) + rect_area(*half_b)
    slack = _BOUND_SLACK * reach * reach
    bounds = []
    for o0, o1, o2, o3 in overlaps:
        # min(max(o, 0.0), side), without the calls
        inside_a = (length_a if length_a < o0 else 0.0 if 0.0 > o0 else o0) * (
            width_a if width_a < o1 else 0.0 if 0.0 > o1 else o1
        )
        inside_b = (length_b if length_b < o2 else 0.0 if 0.0 > o2 else o2) * (
            width_b if width_b < o3 else 0.0 if 0.0 > o3 else o3
        )
        inter = (inside_b if inside_b < inside_a else inside_a) + slack
        union = areas - inter
        bounds.append(inter / union if union > 0.0 else math.inf)
    return bounds


def intersection_area(a: OrientedBox, b: OrientedBox) -> float:
    """Area of the convex intersection polygon, in square meters."""
    return _shoelace(_clip_polygon(corners(a), corners(b)))


def iou(a: OrientedBox, b: OrientedBox) -> float:
    return corners_iou(corners(a), corners(b), area(a), area(b))
