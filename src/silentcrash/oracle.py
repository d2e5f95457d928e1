"""Classify one executed scenario from ground truth and the built-in verdict.

Four outcomes:
    IC  ignored collision  - contact happened, built-in stayed silent
    DC  detected collision - contact happened, built-in reported it
    NC  non-collision      - no contact, no report
    FP  phantom report     - report without contact (kept for exhaustiveness;
                             unreachable under the shipped defect models)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .detector import DefectModel, builtin_cd, ground_truth
from .geometry import corners_iou, heading, rect_area, rect_corners
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


def max_iou(trace: Trace) -> float:
    """Largest per-frame IoU over the trace; 0 without any overlap frame.

    Only frames from first contact on can overlap. Each frame's value is
    geometry.iou of its two boxes, bit for bit. The frames are clipped in
    descending order of an upper bound on their IoU (Trace.overlap_frames),
    ties in time order, and the walk stops at the first frame whose bound is
    below the peak so far: no frame from there on can raise it, so the peak
    is the max over every overlap frame. The value is kept in trace.memo, so
    a trace scored at several thresholds computes it once.
    """
    peak = trace.memo.get("max_iou")
    if peak is None:
        peak = 0.0
        bounds, frames = trace.overlap_frames()
        (ev_hl, ev_hw), (npc_hl, npc_hw) = trace.ev_half, trace.npc_half
        ev_area, npc_area = rect_area(ev_hl, ev_hw), rect_area(npc_hl, npc_hw)
        nc, ns = heading(trace.npc_yaw)
        for i in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True):
            if bounds[i] < peak:
                break
            ex, ey, ec, es, nx, ny = frames[i]
            ev, npc = rect_corners(ex, ey, ev_hl, ev_hw, ec, es), rect_corners(nx, ny, npc_hl, npc_hw, nc, ns)
            peak = max(peak, corners_iou(ev, npc, ev_area, npc_area))
        trace.memo["max_iou"] = peak
    return peak


def check_ic(trace: Trace, defect: DefectModel, cfg: OracleConfig = OracleConfig()) -> ScenarioType:
    if cfg.t_bbox == 0.0:
        cond1 = ground_truth(trace) is not None
    else:
        cond1 = max_iou(trace) >= cfg.t_bbox
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
    equals 1.0 at threshold 0.
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
