"""Two collision verdicts per trace: per-frame ground truth and a flawed built-in.

The built-in detector under-reports by construction. Its defect model has
three knobs: it only inspects every k-th frame (fast contacts can fall
between samples), it needs a minimum penetration depth (shallow grazes slip
through), and it needs a minimum closing speed at the inspected frame
(slow or sliding contacts slip through). It never fabricates contact: a
frame only qualifies if the boxes actually overlap there, so with
(k=1, p_min=0, v_min=0) the built-in verdict coincides with ground truth.

A contact trace has only a few inspected frames, so they are evaluated one
at a time in Python floats by the simulator's scalar frame evaluator
(_Phase.frames and _Phase.closing_speed) rather than as arrays. Its overlaps
and closing speeds are the array kernel's bit for bit, so every gate gives
the kernel's answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .simulator import Trace

# The gates, in the order an inspected frame must pass them. silenced_by names
# the furthest gate no inspected frame passed.
_GATES = ("sampling", "penetration", "closing_speed")
_FIRED = len(_GATES)


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
    _inspect's gate count is kept in trace.memo under the (frozen, hashable)
    defect model, so asking again for the same trace and model, or asking
    silenced_by, is a lookup.
    """
    reached = trace.memo.get(defect)
    if reached is None:
        reached = trace.memo[defect] = _inspect(trace, defect)
    return reached == _FIRED


def silenced_by(trace: Trace, defect: DefectModel) -> str | None:
    """The gate that kept the built-in detector silent, or None if it fires.

    "sampling" when no inspected frame overlaps, "penetration" when none
    that overlaps is deep enough, "closing_speed" otherwise.
    """
    return None if builtin_cd(trace, defect) else _GATES[trace.memo[defect]]


def _inspect(trace: Trace, defect: DefectModel) -> int:
    """How many gates the best inspected frame passes: the index into _GATES, or _FIRED.

    Frames before the first contact have no overlap, so only the inspected
    frames from there on are evaluated, and the first one that fires ends
    the scan. A trace that simulate gave its cruise stage's memo
    (Trace.stage_memo) inspects the stage's frames before the trigger as
    every trace of the stage does, so their count is kept there per defect
    model: _FIRED ends the scan, and any other count carries into the scan
    of the inspected frames from the trigger on.
    """
    if trace.first_contact is None:
        return 0
    k = defect.sample_period
    start, reached = -(-trace.first_contact // k) * k, 0
    memo = trace.stage_memo
    if memo is not None:
        end = trace.phases[0].last + 1
        reached = memo.get(defect)
        if reached is None:
            reached = memo[defect] = _gates(trace, range(start, min(end, len(trace)), k), defect, 0)
        if reached == _FIRED:
            return _FIRED
        start = -(-end // k) * k
    return _gates(trace, range(start, len(trace), k), defect, reached)


def _gates(trace: Trace, frames: range, defect: DefectModel, reached: int) -> int:
    """_inspect's scan of the ascending inspected frames, from `reached` gates passed."""
    depth, speed = defect.min_penetration, defect.min_impact_speed
    for phase, part in trace.phase_frames(frames):
        for _, ex, ey, nx, ny, o0, o1, o2, o3 in phase.frames(part):
            # all four >= 0 iff their np.min is, NaN included; past this test
            # none is NaN, so min is np.min
            if not (o0 >= 0.0 and o1 >= 0.0 and o2 >= 0.0 and o3 >= 0.0):
                continue
            if min(o0, o1, o2, o3) < depth:
                reached = max(reached, 1)
            elif speed <= 0.0 or phase.closing_speed(ex, ey, nx, ny) >= speed:
                return _FIRED
            else:
                reached = 2
    return reached
