"""Full-array reference for the simulator, independent of its frame location.

`simulate_full` builds every frame of the horizon and reduces the arrays the
way the simulator did before it located its frames analytically: the trigger
is the first frame of the whole cruise path within d, first contact the
first overlap frame of the whole horizon. It shares only the per-frame
kernel with the simulator, so any frame the located search skips or picks
wrongly shows up as a difference.

`switched_phase_former`, `bounded_former` and `contact_window_former` are
the switched phase's build, the bounds check and the slab solve as the
simulator wrote them before it dropped their per-call overhead: the phase
by `_replace` on the cruise path with the EV velocity from its own cos and
sin, the bounds through `_Phase.frames`, and the slab edges folded with
max and min. The switched phase is returned unchecked.

`overlap_frames_former` is the overlap frames of Trace.overlap_walk and
their geometry.iou_bounds as the simulator listed them before it walked
each phase in one written-out loop: the phase's frames through
`_Phase.frames`, filtered to the hits, each with the cos and sin of the
phase's EV yaw as given. `face_normals_former` is `_face_normals` as a
list comprehension over the four normals.

`frame_values_former` is `_Phase.frame_values` and `_closing_speed` the
closing-speed kernel as the simulator wrote them before Trace.frame_block
filled each phase's rows of one array in place: the (n, 2) EV and NPC
centers of `_Phase.centers`, their offsets, the minimum overlap and the
closing speed, each a new array. `_min_overlap` is the minimum-overlap
kernel, written as the simulator writes it, so its values have the same
bits.

`first_within_former` is `_Phase.first_within` as the simulator wrote it
before the trigger search read the scalar evaluator: the same located
window, then one numpy pass over its frames' center distances, with the
overflow and invalid-value warnings ignored.

`DenseExecutor` is fuzzer._Executor with `run` built on `simulate_full` and
`builtin_cd_full`: every frame of the horizon, no cruise stage, no memo and
no located search, the verdict from oracle.classify and the record's times
rounded as `_Executor.run` rounds them. `validate_seed_full` is
scenario.validate_seed on `simulate_full`. A test swaps both into
fuzzer to run whole campaigns on the dense path.

`trace_arrays` presents a Trace in simulate_full's shape: its per-frame
arrays are the rows of `Trace.frame_block` over every frame, and its yaws
and trigger flags come from the phases. Every helper below that reads
per-frame arrays takes that shape.

`trace_to_jsonl_per_frame` is the reference trace encoder: one json.dumps
call per frame dict of a Trace's `trace_arrays`. `assert_same_text`
compares two encoded traces and, when they differ, names the first line
that does and shows both versions of it; a bare `assert got == want` on two
traces of some 100 KB each makes pytest diff them for minutes.

`silenced_by_full` names the detector gate no inspected frame passed, over
every inspected frame of the whole-trace arrays.

`ev_box` and `npc_box` build a frame's OrientedBox from the whole-trace
centers and yaws, and `center_distance` is the distance between two boxes'
centers. `overlap_corners` builds the corners oracle.max_iou clips at each
overlap frame from first contact on, in time order, from the cos and sin of
each yaw as given.

`iou_reference` is the box IoU built the object way: each box's corners as
Point2 values, clipped with Sutherland-Hodgman and measured with the
shoelace formula, as geometry computed it before it worked on float tuples.
`max_iou_whole_trace` is the peak of it over every overlap frame of a
trace's whole-trace arrays, the way oracle.max_iou computed it before it
read only the frames from first contact on and scored them from floats.
"""

import json
import math
from types import SimpleNamespace

import numpy as np

from silentcrash.detector import DefectModel
from silentcrash.fuzzer import OutcomeRecord, _Executor
from silentcrash.geometry import OrientedBox, Point2, area, iou_bounds, rect_corners
from silentcrash.oracle import classify
from silentcrash.scenario import ControlParameters, ScenarioSpec
from silentcrash.simulator import (
    _SLACK,
    MAX_COORD,
    CruiseStage,
    SimConfig,
    _behavior_velocity,
    _face_normals,
    _frame_span,
    _Phase,
)


def simulate_full(spec: ScenarioSpec, params: ControlParameters, cfg: SimConfig = SimConfig()) -> SimpleNamespace:
    n = int(round(cfg.horizon / cfg.dt))
    times = np.arange(n + 1) * cfg.dt

    ev0 = np.array([spec.ev.position.x, spec.ev.position.y])
    npc0 = np.array([spec.npc.position.x, spec.npc.position.y])
    ev_v0 = np.array(_behavior_velocity(spec.ev))
    npc_v = np.array(_behavior_velocity(spec.npc))

    ev_pos = ev0[None, :] + times[:, None] * ev_v0[None, :]
    npc_pos = npc0[None, :] + times[:, None] * npc_v[None, :]
    dx, dy = (npc_pos - ev_pos).T
    below = np.sqrt(dx * dx + dy * dy) <= params.d
    trigger = int(np.argmax(below)) if below.any() else None

    ev_yaws = np.full(n + 1, spec.ev.yaw)
    ev_vel = np.broadcast_to(ev_v0, (n + 1, 2)).copy()
    if trigger is not None:
        yaw1 = spec.ev.yaw + params.a * (math.pi / 2.0)
        v1 = np.array([params.v_hat * math.cos(yaw1), params.v_hat * math.sin(yaw1)])
        tail = times[trigger:] - times[trigger]
        ev_pos[trigger:] = ev_pos[trigger] + tail[:, None] * v1[None, :]
        ev_yaws[trigger:] = yaw1
        ev_vel[trigger:] = v1
    delta = npc_pos - ev_pos

    ev_half = (spec.ev.half_length, spec.ev.half_width)
    npc_half = (spec.npc.half_length, spec.npc.half_width)
    min_overlap = np.empty(n + 1)
    closing = np.empty(n + 1)
    split = n + 1 if trigger is None else trigger
    for lo, hi in ((0, split), (split, n + 1)):
        if hi > lo:
            axes, radii = _face_normals(float(ev_yaws[lo]), ev_half, spec.npc.yaw, npc_half)
            min_overlap[lo:hi] = _min_overlap(delta[lo:hi], axes, radii)
            closing[lo:hi] = _closing_speed(delta[lo:hi], ev_vel[lo] - npc_v)
    gt = min_overlap >= 0.0

    first_contact = int(np.argmax(gt)) if gt.any() else None
    stop = n if first_contact is None else min(first_contact + cfg.settle_frames, n)
    end = stop + 1
    triggered = np.zeros(end, dtype=bool)
    trigger_frame = None
    if trigger is not None and trigger <= stop:
        trigger_frame = trigger
        triggered[trigger:] = True

    return SimpleNamespace(
        times=times[:end],
        ev_centers=ev_pos[:end],
        ev_yaws=ev_yaws[:end],
        npc_centers=npc_pos[:end],
        npc_yaws=np.full(end, spec.npc.yaw),
        gt_overlap=gt[:end],
        penetration=np.maximum(min_overlap, 0.0)[:end],
        closing_speed=closing[:end],
        triggered=triggered,
        first_contact=first_contact,
        trigger_frame=trigger_frame,
        length=end,
        duration=float(times[stop]),
        ev_half=ev_half,
        npc_half=npc_half,
        npc_yaw=spec.npc.yaw,
    )


def trace_arrays(trace) -> SimpleNamespace:
    """The Trace in simulate_full's shape, from its frame_block of every frame and its phases."""
    n = trace.length
    block = trace.frame_block(range(n))
    ev_yaws = np.empty(n)
    for phase in trace.phases:
        ev_yaws[phase.first : phase.last + 1] = phase.ev_yaw
    triggered = np.zeros(n, dtype=bool)
    if trace.trigger_frame is not None:
        triggered[trace.trigger_frame :] = True
    return SimpleNamespace(
        times=np.arange(n) * trace.dt,
        ev_centers=block[1:3].T,
        ev_yaws=ev_yaws,
        npc_centers=block[4:6].T,
        npc_yaws=np.full(n, trace.npc_yaw),
        gt_overlap=block[3] == 1.0,
        penetration=block[6],
        closing_speed=block[0],
        triggered=triggered,
        first_contact=trace.first_contact,
        trigger_frame=trace.trigger_frame,
        length=n,
        duration=trace.duration,
        ev_half=trace.ev_half,
        npc_half=trace.npc_half,
        npc_yaw=trace.npc_yaw,
    )


def _min_overlap(delta: np.ndarray, axes, radii) -> np.ndarray:
    """radii[k] - |delta . axes[k]|, minimized over the four axes, for each center offset in delta (k, 2)."""
    ax, ay = zip(*axes)
    return (radii - np.abs(delta[:, :1] * ax + delta[:, 1:] * ay)).min(axis=1)


def _closing_speed(delta: np.ndarray, rel_v) -> np.ndarray:
    """Rate at which the EV approaches the NPC center, for each center offset in delta."""
    dist = np.sqrt(delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1])
    towards = rel_v[0] * delta[:, 0] + rel_v[1] * delta[:, 1]
    return np.where(dist > 1e-12, towards / np.maximum(dist, 1e-12), 0.0)


def frame_values_former(phase: _Phase, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """EV centers, NPC centers, the raw kernel's minimum axis overlap and closing speed at frames idx."""
    ev, npc = phase.centers(idx)
    delta = npc - ev
    (ux, uy), (vx, vy) = phase.npc_velocity, phase.ev_velocity
    closing = _closing_speed(delta, (vx - ux, vy - uy))
    return ev, npc, _min_overlap(delta, phase.axes, phase.radii), closing


def first_within_former(phase: _Phase, d: float) -> int | None:
    px, py, wx, wy, slack = phase._offset
    reach = d + slack
    a = wx * wx + wy * wy
    if a == 0.0:
        window = range(phase.first, phase.last + 1) if math.sqrt(px * px + py * py) <= reach else range(0)
    elif a == math.inf:
        window = range(phase.first, phase.last + 1)
    else:
        tc = -(px * wx + py * wy) / a
        cx, cy = px + tc * wx, py + tc * wy
        h2 = (reach * reach - (cx * cx + cy * cy)) / a
        if h2 < 0.0:
            return None
        h = math.sqrt(h2)
        window = _frame_span(tc - h, tc + h, phase.first, phase.last, phase.dt)
    if not window:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        ev, npc = phase.centers(np.arange(window.start, window.stop))
        delta = npc - ev
        below = np.sqrt(delta[:, 0] * delta[:, 0] + delta[:, 1] * delta[:, 1]) <= d
    return window.start + int(np.argmax(below)) if below.any() else None


def switched_phase_former(stage: CruiseStage, params: ControlParameters) -> _Phase:
    (ox, oy), (vx, vy) = stage.path.ev_origin, stage.path.ev_velocity
    yaw1 = stage.spec.ev.yaw + params.a * (math.pi / 2.0)
    v1 = (params.v_hat * math.cos(yaw1), params.v_hat * math.sin(yaw1))
    t0 = stage.trigger * stage.cfg.dt
    axes, radii = _face_normals(yaw1, stage.ev_half, stage.spec.npc.yaw, stage.npc_half)
    return stage.path._replace(
        first=stage.trigger,
        t0=t0,
        ev_origin=(ox + t0 * vx, oy + t0 * vy),
        ev_velocity=v1,
        ev_yaw=yaw1,
        axes=axes,
        radii=radii,
    )


def bounded_former(phase: _Phase) -> bool:
    return all(abs(c) <= MAX_COORD for f in phase.frames((phase.first, phase.last)) for c in f[1:5])


def contact_window_former(phase: _Phase) -> range | None:
    px, py, qx, qy, slack = phase._offset
    if not math.isfinite(slack * (1.1 / _SLACK)):
        return None
    lo, hi = -math.inf, math.inf
    for (ax, ay), r in zip(phase.axes, phase.radii):
        p, q, reach = px * ax + py * ay, qx * ax + qy * ay, r + slack
        if q == 0.0:
            if abs(p) > reach:
                return range(0)
            continue
        enter, leave = (-reach - p) / q, (reach - p) / q
        if enter > leave:
            enter, leave = leave, enter
        lo, hi = max(lo, enter), min(hi, leave)
    return _frame_span(lo, hi, phase.first, phase.last, phase.dt)


def overlap_frames_former(trace) -> tuple[list[float], list[tuple[float, float, float, float, float, float]]]:
    if trace.first_contact is None:
        return [], []
    ev_half, npc_half = trace.ev_half, trace.npc_half
    (ev_hl, ev_hw), (npc_hl, npc_hw) = ev_half, npc_half
    overlaps, frames, reach = [], [], 0.0
    for phase, span in trace.phase_frames(range(trace.first_contact, trace.length)):
        hits = [f for f in phase.frames(span) if f[5] >= 0.0 and f[6] >= 0.0 and f[7] >= 0.0 and f[8] >= 0.0]
        if not hits:
            continue
        ec, es = math.cos(phase.ev_yaw), math.sin(phase.ev_yaw)
        frames += [(ex, ey, ec, es, nx, ny) for _, ex, ey, nx, ny, _, _, _, _ in hits]
        reach = max(reach, *map(abs, hits[0][1:5]), *map(abs, hits[-1][1:5]))
        overlaps += [f[5:] for f in hits]
    reach = (reach + max(ev_hl, npc_hl)) + max(ev_hw, npc_hw)
    return iou_bounds(overlaps, ev_half, npc_half, reach), frames


def face_normals_former(ev_yaw: float, ev_half, npc_yaw: float, npc_half) -> tuple[tuple, tuple[float, ...]]:
    (el, ew), (nl, nw) = ev_half, npc_half
    ce, se = math.cos(ev_yaw), math.sin(ev_yaw)
    cn, sn = math.cos(npc_yaw), math.sin(npc_yaw)
    axes = ((ce, se), (-se, ce), (cn, sn), (-sn, cn))
    radii = [
        (el * abs(ax * ce + ay * se) + ew * abs(ay * ce - ax * se))
        + (nl * abs(ax * cn + ay * sn) + nw * abs(ay * cn - ax * sn))
        for ax, ay in axes
    ]
    return axes, tuple(radii)


def builtin_cd_full(trace: SimpleNamespace, defect: DefectModel) -> bool:
    """The built-in detector over every inspected frame of a full-array trace."""
    idx = np.arange(0, trace.length, defect.sample_period)
    hit = trace.gt_overlap[idx] & (trace.penetration[idx] >= defect.min_penetration)
    if defect.min_impact_speed > 0.0:
        hit &= trace.closing_speed[idx] >= defect.min_impact_speed
    return bool(hit.any())


class DenseExecutor(_Executor):
    """An _Executor whose every execution is simulated and judged on the whole horizon's arrays (t_bbox 0 only)."""

    def run(self, spec: ScenarioSpec, params: ControlParameters) -> OutcomeRecord:
        assert self.config.oracle.t_bbox == 0.0, "the dense executor judges contact by ground truth alone"
        trace = simulate_full(spec, params, self.config.sim)
        verdict = classify(bool(trace.gt_overlap.any()), builtin_cd_full(trace, self.config.defect))
        self.clock += trace.duration
        fc = trace.first_contact
        record = OutcomeRecord(
            kind=spec.kind,
            params=params,
            verdict=verdict,
            first_contact_time=None if fc is None else round(float(trace.times[fc]), 9),
            ordinal=len(self.records),
            sim_seconds=round(trace.duration, 9),
            clock_seconds=round(self.clock, 9),
        )
        self.records.append(record)
        return record


def validate_seed_full(spec: ScenarioSpec, params: ControlParameters, cfg: SimConfig | None = None) -> bool:
    return simulate_full(spec, params, cfg if cfg is not None else SimConfig()).first_contact is not None


def silenced_by_full(trace: SimpleNamespace, defect: DefectModel) -> str | None:
    """The gate no inspected frame of a full-array trace passed, or None if the detector fires."""
    idx = np.arange(0, trace.length, defect.sample_period)
    touching = trace.gt_overlap[idx]
    deep = touching & (trace.penetration[idx] >= defect.min_penetration)
    fast = deep & (trace.closing_speed[idx] >= defect.min_impact_speed)
    if fast.any() or (deep.any() and defect.min_impact_speed <= 0.0):
        return None
    return "closing_speed" if deep.any() else "penetration" if touching.any() else "sampling"


def corner_points(box: OrientedBox) -> tuple[Point2, ...]:
    ux, uy = math.cos(box.yaw), math.sin(box.yaw)
    vx, vy = -uy, ux
    hl, hw = box.half_length, box.half_width
    cx, cy = box.center.x, box.center.y
    offsets = ((hl, hw), (-hl, hw), (-hl, -hw), (hl, -hw))
    return tuple(Point2(cx + a * ux + b * vx, cy + a * uy + b * vy) for a, b in offsets)


def _clip(points: list[tuple[float, float]], quad: tuple[Point2, ...]) -> list[tuple[float, float]]:
    for i in range(4):
        if not points:
            return []
        px, py = quad[i].x, quad[i].y
        qx, qy = quad[(i + 1) % 4].x, quad[(i + 1) % 4].y
        ex, ey = qx - px, qy - py
        clipped = []
        prev = points[-1]
        prev_side = ex * (prev[1] - py) - ey * (prev[0] - px)
        for cur in points:
            cur_side = ex * (cur[1] - py) - ey * (cur[0] - px)
            if cur_side >= 0.0:
                if prev_side < 0.0:
                    clipped.append(_edge_intersection(prev, cur, prev_side, cur_side))
                clipped.append(cur)
            elif prev_side >= 0.0:
                clipped.append(_edge_intersection(prev, cur, prev_side, cur_side))
            prev, prev_side = cur, cur_side
        points = clipped
    return points


def _edge_intersection(p, q, sp, sq) -> tuple[float, float]:
    t = sp / (sp - sq)
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _shoelace(points: list[tuple[float, float]]) -> float:
    if len(points) < 3:
        return 0.0
    acc = 0.0
    for i, (x0, y0) in enumerate(points):
        x1, y1 = points[(i + 1) % len(points)]
        acc += x0 * y1 - x1 * y0
    return abs(acc) / 2.0


def intersection_area_reference(a: OrientedBox, b: OrientedBox) -> float:
    poly = [(p.x, p.y) for p in corner_points(a)]
    return _shoelace(_clip(poly, corner_points(b)))


def ev_box(trace, i: int) -> OrientedBox:
    x, y = trace.ev_centers[i].tolist()
    return OrientedBox(Point2(x, y), trace.ev_half[0], trace.ev_half[1], float(trace.ev_yaws[i]))


def npc_box(trace, i: int) -> OrientedBox:
    x, y = trace.npc_centers[i].tolist()
    return OrientedBox(Point2(x, y), trace.npc_half[0], trace.npc_half[1], float(trace.npc_yaws[i]))


def center_distance(a: OrientedBox, b: OrientedBox) -> float:
    return math.hypot(b.center.x - a.center.x, b.center.y - a.center.y)


def overlap_corners(trace) -> list:
    """(EV corners, NPC corners) at each overlap frame from first contact on, in time order, as max_iou clips them."""
    (ev_hl, ev_hw), (npc_hl, npc_hw) = trace.ev_half, trace.npc_half
    nc, ns = math.cos(trace.npc_yaw), math.sin(trace.npc_yaw)
    start, pairs = trace.first_contact, []
    for i in [] if start is None else (np.flatnonzero(trace.gt_overlap[start:]) + start).tolist():
        (ex, ey), (nx, ny) = trace.ev_centers[i].tolist(), trace.npc_centers[i].tolist()
        yaw = float(trace.ev_yaws[i])
        ec, es = math.cos(yaw), math.sin(yaw)
        pairs.append((rect_corners(ex, ey, ev_hl, ev_hw, ec, es), rect_corners(nx, ny, npc_hl, npc_hw, nc, ns)))
    return pairs


def iou_reference(a: OrientedBox, b: OrientedBox) -> float:
    inter = intersection_area_reference(a, b)
    union = area(a) + area(b) - inter
    return min(max(inter / union, 0.0), 1.0)


def max_iou_whole_trace(trace) -> float:
    """Largest iou_reference over the overlap frames of the trace's whole-trace arrays."""
    best = 0.0
    for i in np.flatnonzero(trace.gt_overlap):
        i = int(i)
        best = max(best, iou_reference(ev_box(trace, i), npc_box(trace, i)))
    return best


def trace_to_jsonl_per_frame(trace) -> str:
    """Serialize a Trace as JSONL by calling json.dumps once per frame of its trace_arrays."""
    trace, lines = trace_arrays(trace), []
    for i in range(trace.length):
        lines.append(
            json.dumps(
                {
                    "t": round(float(trace.times[i]), 9),
                    "ev": _box_fields(trace.ev_centers[i], trace.ev_yaws[i], trace.ev_half),
                    "npc": _box_fields(trace.npc_centers[i], trace.npc_yaws[i], trace.npc_half),
                    "gt_overlap": bool(trace.gt_overlap[i]),
                    "penetration": float(trace.penetration[i]),
                    "closing_speed": float(trace.closing_speed[i]),
                    "triggered": bool(trace.triggered[i]),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def assert_same_text(got, want, case=None) -> None:
    """Assert that two texts (str or bytes) are equal; if not, report the first line that differs, in both."""
    if got == want:
        return
    got_lines, want_lines = got.splitlines(keepends=True), want.splitlines(keepends=True)
    i = next((i for i, (a, b) in enumerate(zip(got_lines, want_lines)) if a != b), min(len(got_lines), len(want_lines)))
    line, expected = (lines[i] if i < len(lines) else "<end of text>" for lines in (got_lines, want_lines))
    where = "" if case is None else f"{case!r}: "
    raise AssertionError(
        f"{where}texts of {len(got_lines)} and {len(want_lines)} lines first differ at line {i}\n"
        f"got:  {line!r}\nwant: {expected!r}"
    )


def _box_fields(center, yaw, half) -> dict:
    return {
        "x": float(center[0]),
        "y": float(center[1]),
        "yaw": float(yaw),
        "half_length": half[0],
        "half_width": half[1],
    }
