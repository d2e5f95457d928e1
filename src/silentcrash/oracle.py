"""Classify one executed scenario from ground truth and the built-in verdict.

Four outcomes:
    IC  ignored collision  - contact happened, built-in stayed silent
    DC  detected collision - contact happened, built-in reported it
    NC  non-collision      - no contact, no report
    FP  phantom report     - report without contact (kept for exhaustiveness;
                             unreachable under the shipped defect models)
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

from .detector import DefectModel, builtin_cd, ground_truth
from .geometry import corners_iou, iou_bounds, rect_area, rect_corners
from .simulator import Trace


class ScenarioType(str, Enum):
    IC = "IC"
    DC = "DC"
    NC = "NC"
    FP = "FP"


@dataclass(frozen=True)
class OracleConfig:
    # 0 means "any ground-truth overlap frame" rather than a vacuous IoU >= 0
    t_bbox: float = 0.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.t_bbox < 1.0):
            raise ValueError(f"t_bbox {self.t_bbox} outside [0, 1)")


def classify(cond1: bool, cond2: bool) -> ScenarioType:
    """The four-cell decision table over (overlap condition, built-in verdict)."""
    if cond1:
        return ScenarioType.IC if not cond2 else ScenarioType.DC
    return ScenarioType.NC if not cond2 else ScenarioType.FP


class _PeakCursor:
    """A trace's overlap frames, clipped lazily in descending order of their IoU bound.

    `peak` is the largest IoU clipped so far (0 before any clip). `bounds`
    and `frames` hold the frames still to clip, in ascending order of bound,
    ties in reverse time order, so that the next frame to clip is the last:
    the largest bound, ties in time order (Trace.overlap_walk gives the
    frames). A frame not yet clipped has an IoU at or below its bound, and so
    at or below the last bound. Once the peak exceeds a frame's bound, that
    frame can raise no answer and is dropped; so the cursor only ever keeps
    the frames whose bound is at least its peak. The bounds take the walk's
    reach plus the largest half length and width, which bounds every corner
    coordinate. A frame whose bound is +inf is bounded by nothing and is
    clipped when the cursor is built: where that reach is not finite every
    bound is +inf, so every frame is clipped in time order and the first
    non-finite corner's error is raised, as a clip of every frame would.
    Each clip builds both boxes' corners from the headings the ground truth
    tested, the frame's EV heading (its phase's axes[0]) and the NPC heading
    axes[2], and runs geometry.corners_iou on them. For yaws in [-pi, pi)
    that is geometry.iou of the two OrientedBoxes, bit for bit.

    A trace that simulate gave its cruise stage's memo (Trace.stage_memo)
    shares its frames before the trigger with every trace of the stage. The
    first cursor to ask walks them, clips their overlap frames in time order
    and keeps (peak, reach) in the memo; each cursor starts from that peak
    and walks the later frames on from that reach. The peak is a max, so it
    has the bits of a clip of every frame in any order, and the continued
    reach those of one walk of every frame. The shared frames come first in
    time, so a clip of them that raises raises the error a clip of every
    frame in time order would; the stage then keeps nothing.
    """

    __slots__ = ("bounds", "frames", "peak", "_halves", "_areas", "_npc_heading")

    def __init__(self, trace: Trace):
        self.peak, reach, memo = 0.0, 0.0, trace.stage_memo
        self._halves = (ev_hl, ev_hw), (npc_hl, npc_hw) = trace.ev_half, trace.npc_half
        self._areas = rect_area(ev_hl, ev_hw), rect_area(npc_hl, npc_hw)
        self._npc_heading = trace.phases[0].axes[2]  # every phase's, the cos and sin of the NPC yaw
        start = trace.length if trace.first_contact is None else trace.first_contact
        if memo is not None:  # the trace touched in the stage's phase, which ends before the trigger
            end = trace.phases[0].last + 1
            kept = memo.get(_PeakCursor)
            if kept is None:
                _, shared, reach = trace.overlap_walk(range(start, min(end, trace.length)))
                for frame in shared:
                    self.peak = max(self.peak, self._iou(frame))
                kept = memo[_PeakCursor] = self.peak, reach
            self.peak, reach = kept
            start = end
        overlaps, frames, reach = trace.overlap_walk(range(start, trace.length), reach)
        bounds = iou_bounds(overlaps, trace.ev_half, trace.npc_half, (reach + max(ev_hl, npc_hl)) + max(ev_hw, npc_hw))
        order = sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True)[::-1]
        self.bounds = [bounds[i] for i in order]
        self.frames = [frames[i] for i in order]
        if memo is not None:
            self._drop()
        while self.bounds and self.bounds[-1] == math.inf:
            self._clip()

    def _iou(self, frame: tuple[float, float, float, float, float, float]) -> float:
        (ev_hl, ev_hw), (npc_hl, npc_hw) = self._halves
        ex, ey, ec, es, nx, ny = frame
        ev, npc = rect_corners(ex, ey, ev_hl, ev_hw, ec, es), rect_corners(nx, ny, npc_hl, npc_hw, *self._npc_heading)
        return corners_iou(ev, npc, *self._areas)

    def _clip(self) -> None:
        """Clip the last frame; then drop the frames whose bound is below the peak."""
        self.peak = max(self.peak, self._iou(self.frames[-1]))
        self.bounds.pop()
        self.frames.pop()
        self._drop()

    def _drop(self) -> None:
        below = bisect_left(self.bounds, self.peak)
        del self.bounds[:below], self.frames[:below]

    def reaches(self, t: float) -> bool:
        """Whether the peak IoU is >= t: clip only while the peak is below t and the last bound is not."""
        while self.peak < t and self.bounds and self.bounds[-1] >= t:
            self._clip()
        return self.peak >= t

    def exact(self) -> float:
        """The peak IoU: clip every frame kept, each of which has a bound at least the peak."""
        while self.bounds:
            self._clip()
        return self.peak


def _cursor(trace: Trace) -> _PeakCursor:
    """The trace's peak cursor, kept in trace.memo; a trace whose cursor raises keeps none."""
    cursor = trace.memo.get(_PeakCursor)
    if cursor is None:
        cursor = trace.memo[_PeakCursor] = _PeakCursor(trace)
    return cursor


def max_iou(trace: Trace) -> float:
    """Largest per-frame IoU over the trace; 0 without any overlap frame.

    Only frames from first contact on can overlap. Each frame's value is
    geometry.corners_iou of the two boxes the ground truth tested: the
    corners built from each phase's face normals axes[0] (the EV heading)
    and axes[2] (the NPC's), the cos and sin of its yaws as given. For yaws
    in [-pi, pi) that is geometry.iou of the two OrientedBoxes, which wrap
    any other yaw first, bit for bit. The frames are clipped in
    descending order of an upper bound on their IoU (Trace.overlap_walk),
    ties in time order, and the walk stops at the first frame whose bound is
    below the peak so far: no frame from there on can raise it, so the peak
    is the max over every overlap frame. The walk is the trace's peak cursor,
    which check_ic may have advanced already; it clips the same frames
    whichever asked first.
    """
    return _cursor(trace).exact()


def check_ic(trace: Trace, defect: DefectModel, cfg: OracleConfig = OracleConfig()) -> ScenarioType:
    """The verdict of the trace under defect, with cfg's overlap condition.

    At t_bbox 0 the condition is any ground-truth overlap frame; above it,
    peak IoU >= t_bbox, decided by the trace's peak cursor. The cursor clips
    only while its peak is below t_bbox and the next bound is not, so each
    answer is exact in any order of thresholds, a trace scored at several
    thresholds clips no frame twice, and it never clips more than max_iou.
    """
    if cfg.t_bbox == 0.0:
        cond1 = ground_truth(trace) is not None
    else:
        cond1 = _cursor(trace).reaches(cfg.t_bbox)
    cond2 = builtin_cd(trace, defect)
    return classify(cond1, cond2)


@dataclass(frozen=True)
class ThresholdPoint:
    threshold: float
    tp: int
    fp: int
    fn: int
    precision: float | None
    recall: float | None


def recall_sweep(
    labeled_traces: list[tuple[Trace, bool]],
    thresholds: list[float],
    defect: DefectModel = DefectModel(),
) -> list[ThresholdPoint]:
    """Precision/recall of the IC verdict against ignored-collision labels.

    Labels come from the dual run: ground truth present while the built-in
    detector (under `defect`) stayed silent. Raising the overlap threshold
    can only shrink the predicted-IC set, so recall is non-increasing and
    equals 1.0 at threshold 0. Under these labels a false positive cannot
    occur: a predicted IC has contact and a silent built-in, so fp is 0 and
    precision is 1.0, or None where tp is 0.
    """
    if not labeled_traces:
        raise ValueError("labeled trace set must not be empty")
    points = []
    for t in thresholds:
        cfg = OracleConfig(t_bbox=float(t))
        tp = fp = fn = 0
        for trace, label in labeled_traces:
            predicted = check_ic(trace, defect, cfg) is ScenarioType.IC
            if predicted and label:
                tp += 1
            elif predicted:
                fp += 1
            elif label:
                fn += 1
        precision = tp / (tp + fp) if (tp + fp) else None
        recall = tp / (tp + fn) if (tp + fn) else None
        points.append(ThresholdPoint(float(t), tp, fp, fn, precision, recall))
    return points
