"""Two collision verdicts per trace: per-frame ground truth and a flawed built-in.

The built-in detector under-reports by construction. Its defect model has
three knobs: it only inspects every k-th frame (fast contacts can fall
between samples), it needs a minimum penetration depth (shallow grazes slip
through), and it needs a minimum closing speed at the inspected frame
(slow or sliding contacts slip through). It never fabricates contact: a
frame only qualifies if the boxes actually overlap there, so with
(k=1, p_min=0, v_min=0) the built-in verdict coincides with ground truth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .simulator import Trace


@dataclass(frozen=True)
class DefectModel:
    sample_period: int = 5
    min_penetration: float = 0.05
    min_impact_speed: float = 0.5

    def __post_init__(self) -> None:
        if self.sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        if not (math.isfinite(self.min_penetration) and math.isfinite(self.min_impact_speed)):
            raise ValueError("defect thresholds must be finite")
        if self.min_penetration < 0.0 or self.min_impact_speed < 0.0:
            raise ValueError("defect thresholds must be non-negative")


PERFECT_DETECTOR = DefectModel(sample_period=1, min_penetration=0.0, min_impact_speed=0.0)


def ground_truth(trace: Trace) -> int | None:
    """Index of the first frame with overlapping footprints, if any.

    Overlap here is the frame's separating-axis result. The same notion
    gates the built-in detector below, so the built-in can under-report but
    never fire on a trace without ground-truth contact.
    """
    return trace.first_contact


def builtin_cd(trace: Trace, defect: DefectModel) -> bool:
    """Verdict of the flawed built-in detector.

    True iff some inspected frame (every sample_period-th) has overlapping
    boxes with penetration >= min_penetration and, when the speed gate is
    enabled (min_impact_speed > 0), closing speed >= min_impact_speed.
    The verdict is kept in trace.memo under the (frozen, hashable) defect
    model, so asking again for the same trace and model is a lookup.
    """
    verdict = trace.memo.get(defect)
    if verdict is None:
        verdict = trace.memo[defect] = _inspect(trace, defect)
    return verdict


def _inspect(trace: Trace, defect: DefectModel) -> bool:
    """The built-in verdict, computed from the trace.

    Frames before the first contact have no overlap, so only the inspected
    frames from there on are evaluated.
    """
    if trace.first_contact is None:
        return False
    k = defect.sample_period
    frames = range(-(-trace.first_contact // k) * k, len(trace), k)
    if not frames:
        return False
    overlap, penetration, closing_speed = trace.contact_at(frames)
    hit = overlap & (penetration >= defect.min_penetration)
    if defect.min_impact_speed > 0.0:
        hit &= closing_speed >= defect.min_impact_speed
    return bool(hit.any())
