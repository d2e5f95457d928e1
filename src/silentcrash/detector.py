"""Two collision verdicts per trace: per-frame ground truth and a flawed built-in.

The built-in detector under-reports by construction. Its defect model has
three knobs: it only inspects every k-th frame (fast contacts can fall
between samples), it needs a minimum penetration depth (shallow grazes slip
through), and it needs a minimum closing speed at the inspected frame
(slow or sliding contacts slip through). It never fabricates contact: a
frame only qualifies if the boxes actually overlap there, so with
(k=1, p_min=0, v_min=0) the built-in verdict coincides with ground truth.

A contact trace has only a few inspected frames, so they are evaluated one
by one in Python floats rather than as arrays. Within a phase the center
offset, the axis projections and the minimum overlap are the simulator's
per-frame expressions (see simulator.py) written out for one frame: each
operation rounds as the elementwise numpy kernel does, so the overlap and
penetration gates give the kernel's answer bit for bit. The closing speed
divides by math.hypot, which can differ from np.hypot in the last bit; a
frame whose closing speed lies within a relative 1e-9 of the threshold, or
is not finite, is decided by the kernel itself (_Phase.frame_values).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .simulator import Trace, _Phase

# The gates, in the order an inspected frame must pass them. silenced_by names
# the furthest gate no inspected frame passed.
_GATES = ("sampling", "penetration", "closing_speed")
_FIRED = len(_GATES)

# Relative band around min_impact_speed within which a closing speed is
# recomputed by the kernel; far above the one-ulp hypot difference.
_TIE = 1e-9


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
        verdict = trace.memo[defect] = _inspect(trace, defect) == _FIRED
    return verdict


def silenced_by(trace: Trace, defect: DefectModel) -> str | None:
    """The gate that kept the built-in detector silent, or None if it fires.

    "sampling" when no inspected frame overlaps, "penetration" when none
    that overlaps is deep enough, "closing_speed" otherwise.
    """
    reached = _inspect(trace, defect)
    return None if reached == _FIRED else _GATES[reached]


def _inspect(trace: Trace, defect: DefectModel) -> int:
    """How many gates the best inspected frame passes: the index into _GATES, or _FIRED.

    Frames before the first contact have no overlap, so only the inspected
    frames from there on are evaluated, and the first one that fires ends
    the scan.
    """
    if trace.first_contact is None:
        return 0
    k, depth, speed = defect.sample_period, defect.min_penetration, defect.min_impact_speed
    band = _TIE * max(speed, sys.float_info.min)
    reached = 0
    for phase in trace.phases:
        start = -(-max(trace.first_contact, phase.first) // k) * k
        frames = range(start, min(phase.last + 1, len(trace)), k)
        if not frames:
            continue
        nx, ny, ux, uy, ox, oy, vx, vy = phase._motion
        (a0x, a0y), (a1x, a1y), (a2x, a2y), (a3x, a3y) = phase.axes.tolist()
        r0, r1, r2, r3 = phase.radii.tolist()
        rx, ry = vx - ux, vy - uy
        dt, t0 = phase.dt, phase.t0
        for i in frames:
            t = i * dt
            since = t - t0
            dx = (nx + t * ux) - (ox + since * vx)
            dy = (ny + t * uy) - (oy + since * vy)
            if not (math.isfinite(dx) and math.isfinite(dy)):
                level = _kernel_level(phase, i, depth, speed)
            else:
                overlap = min(
                    r0 - abs(dx * a0x + dy * a0y),
                    r1 - abs(dx * a1x + dy * a1y),
                    r2 - abs(dx * a2x + dy * a2y),
                    r3 - abs(dx * a3x + dy * a3y),
                )
                if overlap < 0.0:
                    level = 0
                elif overlap < depth:
                    level = 1
                elif speed <= 0.0:
                    level = _FIRED
                else:
                    # the kernel's closing speed is 0 at a distance up to 1e-12
                    dist = math.hypot(dx, dy)
                    gap = (rx * dx + ry * dy) / dist - speed if dist > 2e-12 else math.nan
                    if band < abs(gap) < math.inf:
                        level = _FIRED if gap > 0.0 else 2
                    else:
                        level = _kernel_level(phase, i, depth, speed)
            if level == _FIRED:
                return _FIRED
            reached = max(reached, level)
    return reached


def _kernel_level(phase: _Phase, i: int, depth: float, speed: float) -> int:
    """_inspect's gate count for frame i, from the simulator's array kernel."""
    _, _, overlap, closing = phase.frame_values(np.array([i]))
    overlap, closing = float(overlap[0]), float(closing[0])
    if not overlap >= 0.0:
        return 0
    if not overlap >= depth:
        return 1
    return _FIRED if speed <= 0.0 or closing >= speed else 2
