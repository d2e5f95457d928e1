"""Deterministic fixed-step kinematic simulation of one scenario execution.

The EV cruises along its initial heading until the center-to-center distance
to the NPC falls to the trigger distance d; from that frame on it moves with
speed v_hat along (initial heading + a * 90 deg). The NPC follows its spec
behavior throughout. Integration is forward-Euler at a fixed dt and contains
no randomness anywhere, so identical inputs give bit-identical traces.

The frames that decide a verdict are located analytically and confirmed per
frame. Motion is piecewise linear with a constant yaw in each phase, so the
center offset is p + t*w: the trigger lies at the first root of
|p + t*w| = d, a quadratic, and the boxes can only overlap where all four
separating-axis projections satisfy |P.a_k + t*Q.a_k| <= r_k, an intersection
of four time slabs (Ericson, Real-Time Collision Detection, 5.5; Gottschalk,
Lin & Manocha, OBBTree). Both are solved with the thresholds widened by a
slack far above floating-point error, and the interval is widened by one
frame on each side. The per-frame formulas then run on the frames inside it,
and the first frame that passes is the answer. A frame outside the interval
misses its threshold by more than the slack, so no frame-by-frame scan of the
whole horizon could find a different one.

An execution is built in two stages. Before the trigger the EV ignores
v_hat and a, so the cruise stage (cruise_stage) depends only on the spec, d
and the sim config: it holds the cruise path, the trigger frame and the
first contact before the trigger, if any. The switched stage adds the phase
from the trigger frame on for one (v_hat, a) and looks for contact there
when there was none before. simulate composes the two and takes a cruise
stage from an earlier trace, which it uses when it was built for the same
spec and sim config objects and an equal d; a campaign that sweeps v_hat and
a at a fixed d locates its trigger once.

Each per-frame value is an elementwise expression of the frame index, so it
has the same bits whether it is evaluated alone or inside the whole trace.
_Phase owns these expressions in two forms that round alike: a numpy kernel
over an array of frames (the confirm windows and a Trace's per-frame arrays,
built on first access) and one scalar evaluator in Python floats,
_Phase.frames, which the built-in detector and the peak IoU's overlap walk
call for the few frames they read. The overlap and penetration values use
the same face-normal projections as the scalar geometry module; frame
invariants are cross-checked against it in tests.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .geometry import heading, iou_bounds, normalize_yaw
from .scenario import BehaviorKind, ControlParameters, ScenarioSpec

# Slack on every located threshold, relative to the magnitude of the
# coordinates involved: about 10^7 times the rounding error of the per-frame
# formulas, so a frame outside a located interval can never pass them.
_SLACK = 1e-9


# The most steps a horizon may span (the shipped configs take 1500). A
# config that asks for more is rejected before anything is simulated, so
# every accepted config simulates in bounded memory.
MAX_STEPS = 100_000


class SimulationError(ValueError):
    """Non-finite state or malformed configuration."""


@dataclass(frozen=True)
class SimConfig:
    dt: float = 0.01
    horizon: float = 15.0
    settle_frames: int = 20

    def __post_init__(self) -> None:
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise SimulationError(f"dt must be positive, got {self.dt}")
        if not math.isfinite(self.horizon):
            raise SimulationError(f"horizon must be finite, got {self.horizon}")
        if self.horizon < 10.0 * self.dt:
            raise SimulationError("horizon must cover at least 10 steps")
        if self.horizon / self.dt > MAX_STEPS:
            raise SimulationError(
                f"sim.horizon / sim.dt: {self.horizon:g} s in steps of {self.dt:g} s is more than {MAX_STEPS} steps"
            )
        if self.settle_frames < 0:
            raise SimulationError("settle_frames must be non-negative")


def _face_normals(ev_yaw: float, ev_half, npc_yaw: float, npc_half) -> tuple[tuple, tuple[float, ...]]:
    """The four face normals of both boxes, as (x, y) floats, and the boxes' summed half extents along each."""
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


def _min_overlap(delta: np.ndarray, axes, radii) -> np.ndarray:
    """Signed minimum axis overlap for each center offset in delta, (k, 2).

    Negative values mean a separating axis exists; the value clamped at zero
    is the penetration depth, matching geometry.penetration_depth. Only
    elementwise products are used, never a matrix product, so a frame's value
    does not depend on how many frames are evaluated with it.
    """
    ax, ay = zip(*axes)
    proj = np.abs(delta[:, :1] * ax + delta[:, 1:] * ay)  # (k, 4)
    return (radii - proj).min(axis=1)


def _closing_speed(delta: np.ndarray, rel_v) -> np.ndarray:
    """Rate at which the EV approaches the NPC center, for each center offset in delta."""
    dist = np.hypot(delta[:, 0], delta[:, 1])
    towards = rel_v[0] * delta[:, 0] + rel_v[1] * delta[:, 1]
    return np.where(dist > 1e-12, towards / np.maximum(dist, 1e-12), 0.0)


def _frame_span(lo: float, hi: float, first: int, last: int, dt: float) -> range:
    """Frames of first..last with times in [lo, hi], plus one more on either side.

    A NaN bound means the interval could not be located: all frames.
    """
    if math.isnan(lo) or math.isnan(hi):
        return range(first, last + 1)
    lo, hi = lo / dt - 1.0, hi / dt + 1.0
    if hi < first or lo > last:
        return range(0)
    return range(first if lo <= first else math.floor(lo), (last if hi >= last else math.ceil(hi)) + 1)


class _Phase(NamedTuple):
    """Frames first..last, over which both actors keep one velocity and yaw.

    At time t the NPC center is npc_origin + t * npc_velocity and the EV
    center ev_origin + (t - t0) * ev_velocity. Points and velocities are
    (x, y) floats; axes and radii are _face_normals of the two boxes. Frames
    are evaluated by the numpy kernel (centers, _min_overlap, _closing_speed)
    or, rounding alike, by `frames` and `closing_speed` in Python floats.
    """

    first: int
    last: int
    dt: float
    npc_origin: tuple[float, float]
    npc_velocity: tuple[float, float]
    t0: float
    ev_origin: tuple[float, float]
    ev_velocity: tuple[float, float]
    ev_yaw: float
    axes: tuple[tuple[float, float], ...]
    radii: tuple[float, ...]

    def centers(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = idx * self.dt
        ev = self.ev_origin + (t - self.t0)[:, None] * self.ev_velocity
        npc = self.npc_origin + t[:, None] * self.npc_velocity
        return ev, npc

    def frames(self, idx, axes=None, radii=None) -> Iterator[tuple[float, ...]]:
        """The scalar frame evaluator: (i, ex, ey, nx, ny, o0, o1, o2, o3) for each frame i of idx.

        (ex, ey) and (nx, ny) are the EV and NPC centers, and o0..o3 the
        overlaps radii[k] - |(npc - ev) . axes[k]| along the given face
        normals, the phase's own by default. Each is computed with the
        operations of centers and _min_overlap in the same order, so it is
        the kernel's value at frame i bit for bit, and the np.min of o0..o3
        is _min_overlap's. Python's min skips a NaN that np.min propagates,
        so a frame overlaps iff all four are >= 0: a NaN counts as apart.
        """
        (px, py), (ux, uy) = self.npc_origin, self.npc_velocity
        (ox, oy), (vx, vy) = self.ev_origin, self.ev_velocity
        (a0x, a0y), (a1x, a1y), (a2x, a2y), (a3x, a3y) = self.axes if axes is None else axes
        r0, r1, r2, r3 = self.radii if radii is None else radii
        dt, t0 = self.dt, self.t0
        for i in idx:
            t = i * dt
            since = t - t0
            ex, ey, nx, ny = ox + since * vx, oy + since * vy, px + t * ux, py + t * uy
            dx, dy = nx - ex, ny - ey
            yield (
                i, ex, ey, nx, ny,
                r0 - abs(dx * a0x + dy * a0y),
                r1 - abs(dx * a1x + dy * a1y),
                r2 - abs(dx * a2x + dy * a2y),
                r3 - abs(dx * a3x + dy * a3y),
            )

    def closing_speed(self, ex: float, ey: float, nx: float, ny: float) -> float:
        """Closing speed in Python floats at the EV and NPC centers that `frames` gives for a frame.

        math.hypot can differ from the kernel's np.hypot in the last bit, so
        this is _closing_speed's value only to about an ulp; it is NaN within
        2e-12 of a zero distance, where the kernel's 1e-12 cutoff could fall
        on either side.
        """
        dx, dy = nx - ex, ny - ey
        (ux, uy), (vx, vy) = self.npc_velocity, self.ev_velocity
        dist = math.hypot(dx, dy)
        return ((vx - ux) * dx + (vy - uy) * dy) / dist if dist > 2e-12 else math.nan

    def finite(self) -> bool:
        """Whether both centers stay finite; they move monotonically, so the last frame decides."""
        return all(map(math.isfinite, next(self.frames((self.last,)))[1:5]))

    @property
    def _offset(self) -> tuple[float, float, float, float, float]:
        """Center offset P + t*Q as (Px, Py, Qx, Qy), and the slack for its magnitude."""
        (nx, ny), (ux, uy) = self.npc_origin, self.npc_velocity
        (ox, oy), (vx, vy) = self.ev_origin, self.ev_velocity
        reach = (1.0 + self.last * self.dt) * (abs(ux) + abs(uy) + abs(vx) + abs(vy))
        slack = _SLACK * (abs(nx) + abs(ny) + abs(ox) + abs(oy) + reach + max(self.radii))
        return nx - ox + self.t0 * vx, ny - oy + self.t0 * vy, ux - vx, uy - vy, slack

    def first_within(self, d: float) -> int | None:
        """First frame whose center distance is at most d."""
        px, py, wx, wy, slack = self._offset
        reach = d + slack
        a = wx * wx + wy * wy
        if a == 0.0:
            window = range(self.first, self.last + 1) if math.hypot(px, py) <= reach else range(0)
        elif a == math.inf:
            window = range(self.first, self.last + 1)
        else:
            tc = -(px * wx + py * wy) / a
            cx, cy = px + tc * wx, py + tc * wy
            h2 = (reach * reach - (cx * cx + cy * cy)) / a
            if h2 < 0.0:
                return None
            h = math.sqrt(h2)
            window = _frame_span(tc - h, tc + h, self.first, self.last, self.dt)
        if not window:
            return None
        with np.errstate(over="ignore", invalid="ignore"):
            ev, npc = self.centers(np.arange(window.start, window.stop))
            delta = npc - ev
            below = np.hypot(delta[:, 0], delta[:, 1]) <= d
        return window.start + int(np.argmax(below)) if below.any() else None

    def contact_window(self) -> range | None:
        """The frames of first..last that can overlap: every frame whose _min_overlap is >= 0 is in it.

        The slab solve: along each face normal the offset P + t*Q must
        satisfy |P.a + t*Q.a| <= r + slack, and the four time slabs meet in
        one interval, widened by a frame on either side by _frame_span. Near
        the top of the float range a projection or a slab edge can overflow;
        the solve then says nothing, and the window is None: any frame can
        overlap.
        """
        px, py, qx, qy, slack = self._offset
        # slack is _SLACK times a sum that bounds |P|, |Q| and every radius, so
        # where 1.1 times that sum is finite, so is every projection and slab edge
        if not math.isfinite(slack * (1.1 / _SLACK)):
            return None
        lo, hi = -math.inf, math.inf
        for (ax, ay), r in zip(self.axes, self.radii):
            p, q, reach = px * ax + py * ay, qx * ax + qy * ay, r + slack
            if q == 0.0:
                if abs(p) > reach:
                    return range(0)
                continue
            enter, leave = (-reach - p) / q, (reach - p) / q
            if enter > leave:
                enter, leave = leave, enter
            lo, hi = max(lo, enter), min(hi, leave)
        return _frame_span(lo, hi, self.first, self.last, self.dt)

    def first_contact(self) -> int | None:
        """First frame at which the boxes overlap: the kernel's first hit inside contact_window.

        Without a window every frame is read through the scalar evaluator,
        which gives the kernel's overlaps and lets their overflow pass as
        inf or NaN where numpy would warn about it.
        """
        window = self.contact_window()
        if window is None:
            every = self.frames(range(self.first, self.last + 1))
            return next((f[0] for f in every if f[5] >= 0.0 and f[6] >= 0.0 and f[7] >= 0.0 and f[8] >= 0.0), None)
        if not window:
            return None
        ev, npc = self.centers(np.arange(window.start, window.stop))
        hit = _min_overlap(npc - ev, self.axes, self.radii) >= 0.0
        return window.start + int(np.argmax(hit)) if hit.any() else None

    def frame_values(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """EV centers, NPC centers, minimum axis overlap and closing speed at frames idx."""
        ev, npc = self.centers(idx)
        delta = npc - ev
        (ux, uy), (vx, vy) = self.npc_velocity, self.ev_velocity
        closing = _closing_speed(delta, (vx - ux, vy - uy))
        return ev, npc, _min_overlap(delta, self.axes, self.radii), closing


@dataclass(eq=False)
class Trace:
    """Frame-by-frame record of one execution.

    The located frames and the length are set up front. The per-frame
    arrays are built on first access, covering frames 0..len-1. `memo` holds
    what the oracle and the detector derive from the trace (the peak IoU, the
    built-in verdict per defect model), so scoring it again is a lookup.
    """

    first_contact: int | None
    trigger_frame: int | None
    ev_half: tuple[float, float]
    npc_half: tuple[float, float]
    length: int
    dt: float
    npc_yaw: float
    phases: tuple[_Phase, ...]
    cruise: CruiseStage = field(repr=False)
    memo: dict = field(default_factory=dict, repr=False)

    def __len__(self) -> int:
        return self.length

    def time(self, i: int) -> float:
        """Simulated time of frame i."""
        return i * self.dt

    @property
    def duration(self) -> float:
        """Simulated seconds consumed by this execution."""
        return self.time(self.length - 1)

    def phase_frames(self, frames: range) -> Iterator[tuple[_Phase, range]]:
        """Each phase that holds some of the ascending frames, with those frames."""
        start, step = frames.start, frames.step
        for phase in self.phases:
            # the indices in frames of the first frame >= phase.first and of the first > phase.last
            lo, hi = (phase.first - start + step - 1) // step, (phase.last - start + step) // step
            part = frames[max(lo, 0) : max(hi, 0)]
            if part:
                yield phase, part

    def _frame_values(self, frames: range) -> list[np.ndarray]:
        """frame_values of each phase, joined over the ascending frames."""
        parts = [phase.frame_values(np.arange(p.start, p.stop, p.step)) for phase, p in self.phase_frames(frames)]
        if len(parts) == 1:
            return list(parts[0])
        return [np.concatenate(columns) for columns in zip(*parts)]

    def overlap_frames(self) -> tuple[list[float], list[tuple[float, float, float, float, float, float]]]:
        """Each overlap frame, in time order: an upper bound on its IoU, and its inputs.

        The inputs are (ex, ey, ec, es, nx, ny): the EV center, cos and sin of
        the EV yaw as geometry.heading gives them, and the NPC center. Only
        frames from first contact on can overlap. Each is evaluated by
        _Phase.frames, so a frame is listed iff its _min_overlap is >= 0, and
        its centers are the floats of the whole-trace arrays. (Cutting a
        phase's frames to its contact_window walks fewer of them, but the slab
        solve costs more than the few frames a trace keeps after first
        contact.)

        The bounds are geometry.iou_bounds, from the boxes' overlaps along the
        face normals of the frame's corners, that is along the wrapped yaws
        (_Phase.frames again, with those normals), so each bounds
        geometry.corners_iou of its frame's corners. reach is the largest
        center coordinate magnitude of the listed frames plus the largest half
        length and half width. It bounds every corner coordinate, and while
        it is finite every corner is finite. When it is not, every bound is
        +inf, which oracle.max_iou and the peak cursor clip in time order
        before anything else, so they raise the first non-finite corner's
        error as a clip of every frame would; a non-finite heading makes its
        phase's bounds NaN, which iou_bounds also reads as +inf.
        """
        if self.first_contact is None:
            return [], []
        ev_half, npc_half = self.ev_half, self.npc_half
        (ev_hl, ev_hw), (npc_hl, npc_hw) = ev_half, npc_half
        npc_yaw = normalize_yaw(self.npc_yaw)
        overlaps, frames, reach = [], [], 0.0
        for phase, span in self.phase_frames(range(self.first_contact, self.length)):
            # all four overlaps >= 0 iff their np.min is, NaN included
            hits = [f for f in phase.frames(span) if f[5] >= 0.0 and f[6] >= 0.0 and f[7] >= 0.0 and f[8] >= 0.0]
            if not hits:
                continue
            ev_yaw = normalize_yaw(phase.ev_yaw)
            ec, es = heading(phase.ev_yaw)
            frames += [(ex, ey, ec, es, nx, ny) for _, ex, ey, nx, ny, _, _, _, _ in hits]
            # each center coordinate is monotonic over a phase's frames, so its
            # first and last hit hold the largest magnitudes
            reach = max(reach, *map(abs, hits[0][1:5]), *map(abs, hits[-1][1:5]))
            if ev_yaw == phase.ev_yaw and npc_yaw == self.npc_yaw:
                # the phase's own normals, up to the sign of a zero, which abs absorbs
                along = hits
            else:
                along = phase.frames([f[0] for f in hits], *_face_normals(ev_yaw, ev_half, npc_yaw, npc_half))
            overlaps += [f[5:] for f in along]
        reach = (reach + max(ev_hl, npc_hl)) + max(ev_hw, npc_hw)
        return iou_bounds(overlaps, ev_half, npc_half, reach), frames

    @cached_property
    def _arrays(self) -> list[np.ndarray]:
        return self._frame_values(range(self.length))

    @cached_property
    def times(self) -> np.ndarray:
        return np.arange(self.length) * self.dt

    @cached_property
    def ev_centers(self) -> np.ndarray:
        return self._arrays[0]

    @cached_property
    def npc_centers(self) -> np.ndarray:
        return self._arrays[1]

    @cached_property
    def gt_overlap(self) -> np.ndarray:
        return self._arrays[2] >= 0.0

    @cached_property
    def penetration(self) -> np.ndarray:
        return np.maximum(self._arrays[2], 0.0)

    @cached_property
    def closing_speed(self) -> np.ndarray:
        return self._arrays[3]

    @cached_property
    def ev_yaws(self) -> np.ndarray:
        yaws = np.empty(self.length)
        for phase in self.phases:
            yaws[phase.first : phase.last + 1] = phase.ev_yaw
        return yaws

    @cached_property
    def npc_yaws(self) -> np.ndarray:
        return np.full(self.length, self.npc_yaw)

    @cached_property
    def triggered(self) -> np.ndarray:
        triggered = np.zeros(self.length, dtype=bool)
        if self.trigger_frame is not None:
            triggered[self.trigger_frame :] = True
        return triggered


def _behavior_velocity(actor) -> tuple[float, float]:
    if actor.behavior.kind is BehaviorKind.STATIC:
        return 0.0, 0.0
    speed = actor.behavior.speed
    return speed * math.cos(actor.yaw), speed * math.sin(actor.yaw)


@dataclass(frozen=True, eq=False)
class CruiseStage:
    """Everything of an execution up to its trigger, built for one (spec, d, cfg).

    Before the trigger the EV ignores v_hat and a, so the cruise path, the
    trigger frame and any contact before it are the same for every (v_hat, a)
    at the same spec, d and sim config, and one stage serves all of them.
    """

    spec: ScenarioSpec
    d: float
    cfg: SimConfig
    ev_half: tuple[float, float]
    npc_half: tuple[float, float]
    path: _Phase  # both actors at their spec velocities over the whole horizon
    trigger: int | None  # first frame of path within d
    phases: tuple[_Phase, ...]  # path before the trigger frame; () when the trigger is frame 0
    first_contact: int | None  # first contact in phases

    def fits(self, spec: ScenarioSpec, d: float, cfg: SimConfig) -> bool:
        """Whether this stage was built for this spec and cfg (the same objects) and an equal d."""
        return self.spec is spec and self.d == d and self.cfg is cfg

    def switched(self, params: ControlParameters) -> _Phase:
        """The phase from the trigger frame on, at speed v_hat along heading + a * 90 deg."""
        (ox, oy), (vx, vy) = self.path.ev_origin, self.path.ev_velocity
        yaw1 = self.spec.ev.yaw + params.a * (math.pi / 2.0)
        v1 = (params.v_hat * math.cos(yaw1), params.v_hat * math.sin(yaw1))
        t0 = self.trigger * self.cfg.dt
        axes, radii = _face_normals(yaw1, self.ev_half, self.spec.npc.yaw, self.npc_half)
        phase = self.path._replace(
            first=self.trigger,
            t0=t0,
            ev_origin=(ox + t0 * vx, oy + t0 * vy),
            ev_velocity=v1,
            ev_yaw=yaw1,
            axes=axes,
            radii=radii,
        )
        if not phase.finite():
            raise SimulationError("non-finite positions")
        return phase


def cruise_stage(spec: ScenarioSpec, d: float, cfg: SimConfig = SimConfig()) -> CruiseStage:
    """Locate the trigger and any contact before it, for every execution at (spec, d, cfg)."""
    n = int(round(cfg.horizon / cfg.dt))
    ev0 = (spec.ev.position.x, spec.ev.position.y)
    npc0 = (spec.npc.position.x, spec.npc.position.y)
    ev_v0 = _behavior_velocity(spec.ev)
    npc_v = _behavior_velocity(spec.npc)
    if not all(map(math.isfinite, (*ev0, *npc0, *ev_v0, *npc_v))):
        raise SimulationError("non-finite initial state")

    ev_half = (spec.ev.half_length, spec.ev.half_width)
    npc_half = (spec.npc.half_length, spec.npc.half_width)
    axes, radii = _face_normals(spec.ev.yaw, ev_half, spec.npc.yaw, npc_half)
    path = _Phase(0, n, cfg.dt, npc0, npc_v, 0.0, ev0, ev_v0, spec.ev.yaw, axes, radii)

    # the first crossing of the trigger distance along the cruise path is the
    # true trigger frame
    trigger = path.first_within(d)
    if trigger is None:
        phases = (path,)
    else:
        phases = (path._replace(last=trigger - 1),) if trigger > 0 else ()
    if not all(phase.finite() for phase in phases):
        raise SimulationError("non-finite positions")
    first_contact = phases[0].first_contact() if phases else None
    return CruiseStage(spec, d, cfg, ev_half, npc_half, path, trigger, phases, first_contact)


def simulate(
    spec: ScenarioSpec,
    params: ControlParameters,
    cfg: SimConfig = SimConfig(),
    cruise: CruiseStage | None = None,
) -> Trace:
    """Run one execution and capture its trace.

    The trace stops at min(first contact + settle_frames, horizon); without
    contact it covers the whole horizon. `cruise` is a stage from an earlier
    trace (its `cruise`); it is used when it fits (spec, params.d, cfg), and a
    new stage is built when it does not.
    """
    if cruise is None or not cruise.fits(spec, params.d, cfg):
        cruise = cruise_stage(spec, params.d, cfg)
    phases, first_contact, trigger = cruise.phases, cruise.first_contact, cruise.trigger
    if trigger is not None:
        switched = cruise.switched(params)
        phases = (*phases, switched)
        if first_contact is None:
            first_contact = switched.first_contact()

    n = cruise.path.last
    stop = n if first_contact is None else min(first_contact + cfg.settle_frames, n)
    return Trace(
        first_contact=first_contact,
        trigger_frame=trigger if trigger is not None and trigger <= stop else None,
        ev_half=cruise.ev_half,
        npc_half=cruise.npc_half,
        length=stop + 1,
        dt=cfg.dt,
        npc_yaw=spec.npc.yaw,
        phases=phases,
        cruise=cruise,
    )


# One frame of trace_to_jsonl, keys sorted as json.dumps(..., sort_keys=True)
# writes them. Each segment fills in the fields; a column spelled per frame,
# and t, stay "%s", the slots at which the template is split.
_ROW = (
    '{{"closing_speed": {closing_speed}, "ev": {{"half_length": {ev_hl}, "half_width": {ev_hw}, '
    '"x": {ev_x}, "y": {ev_y}, "yaw": {ev_yaw}}}, "gt_overlap": {gt_overlap}, '
    '"npc": {{"half_length": {npc_hl}, "half_width": {npc_hw}, "x": {npc_x}, "y": {npc_y}, "yaw": {npc_yaw}}}, '
    '"penetration": {penetration}, "t": %s, "triggered": {triggered}}}\n'
)


def trace_to_jsonl(trace: Trace) -> str:
    """Serialize a trace as JSONL, one frame per line.

    Each line holds the bytes json.dumps(..., sort_keys=True) writes for the
    frame: t, the ev and npc boxes (x, y, yaw, half_length, half_width),
    gt_overlap, penetration, closing_speed and triggered. The frames are cut
    into segments at each phase start and at first contact, and each segment
    is written through its own row template. The yaws and `triggered` are
    spelled once per segment from its phase. Any other column whose values in
    a segment share one float64 bit pattern (so 0.0 and -0.0 differ, and NaN
    runs match) is spelled once into the template too. Only the columns that
    vary in a segment, and t, are spelled per frame; they are interleaved
    with the template's constant pieces into one list, joined once.
    """
    # the per-frame columns, in row order
    columns = {
        "closing_speed": (trace.closing_speed, _json_floats),
        "ev_x": (trace.ev_centers[:, 0], _json_floats),
        "ev_y": (trace.ev_centers[:, 1], _json_floats),
        "gt_overlap": (trace.gt_overlap, _json_bools),
        "npc_x": (trace.npc_centers[:, 0], _json_floats),
        "npc_y": (trace.npc_centers[:, 1], _json_floats),
        "penetration": (trace.penetration, _json_floats),
    }
    bits = np.column_stack([column for column, _ in columns.values()]).view(np.int64)
    changes = bits[1:] != bits[:-1]
    halves = (*trace.ev_half, *trace.npc_half)
    fixed = dict(zip(("ev_hl", "ev_hw", "npc_hl", "npc_hw"), map(json.dumps, halves)))
    fixed["npc_yaw"] = json.dumps(float(trace.npc_yaw))
    # every phase ends at the horizon frame or before it
    times = _frame_times(trace.dt, trace.phases[-1].last + 1)
    parts = []
    for start, stop, phase in _segments(trace):
        fields, per_frame = dict(fixed), []
        for (name, (column, spell)), vary in zip(columns.items(), changes[start : stop - 1].any(axis=0).tolist()):
            if vary:
                fields[name] = "%s"
                per_frame.append(spell(column[start:stop]))
            else:
                fields[name] = spell(column[start : start + 1])[0]
        fields["ev_yaw"] = json.dumps(float(phase.ev_yaw))
        fields["triggered"] = json.dumps(trace.trigger_frame is not None and start >= trace.trigger_frame)
        per_frame.append(times[start:stop])
        # head, then per frame each column's string and the piece after it; a
        # row's last piece and the next row's head are one piece between rows
        head, *tails = _ROW.format(**fields).split("%s")
        k, n = len(per_frame), stop - start
        segment = [tails[-1] + head] * (2 * k * n + 1)
        segment[0], segment[-1] = head, tails[-1]
        for j, strings in enumerate(per_frame):
            segment[2 * j + 1 :: 2 * k] = strings
        for j, tail in enumerate(tails[:-1]):
            segment[2 * j + 2 :: 2 * k] = [tail] * n
        parts += segment
    return "".join(parts)


def _segments(trace: Trace) -> Iterator[tuple[int, int, _Phase]]:
    """(start, stop, phase) covering frames 0..len-1, cut at each phase start and at first contact."""
    for phase in trace.phases:
        start, stop = phase.first, min(phase.last + 1, trace.length)
        contact = trace.first_contact
        if contact is not None and start < contact < stop:
            yield start, contact, phase
            start = contact
        if start < stop:
            yield start, stop, phase


def _json_times(times: np.ndarray) -> list[str]:
    """repr(round(t, 9)) of each time t, rounded by numpy where that gives the same double.

    rint(t * 1e9) / 1e9 is Python's correctly rounded result wherever the
    float product t * 1e9 lies more than one spacing from a half-integer: the
    exact product then rounds to the same integer N, and N / 1e9 is the double
    nearest to N / 10**9, as round returns. The other times (ties, near-ties,
    products beyond 2**51, non-finite) are rounded by Python.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = times * 1e9
        values = (np.rint(scaled) / 1e9).tolist()
        unsure = ~(np.abs(scaled - np.floor(scaled) - 0.5) > np.abs(np.spacing(scaled)))
    for i in np.flatnonzero(unsure).tolist():
        values[i] = round(float(times[i]), 9)
    return list(map(float.__repr__, values))


@lru_cache(maxsize=4)
def _frame_times(dt: float, count: int) -> tuple[str, ...]:
    """_json_times of frames 0..count-1 at dt.

    np.arange(n) * dt is elementwise, so a trace's times, np.arange(length) *
    dt, are a prefix of these with the same bits, and one tuple per (dt,
    horizon frame count) serves every trace.
    """
    return tuple(_json_times(np.arange(count) * dt))


def _json_floats(column: np.ndarray) -> list[str]:
    """json.dumps's spelling of each float: its repr, or NaN/Infinity/-Infinity."""
    values = column.tolist()
    return list(map(float.__repr__ if np.isfinite(column).all() else json.dumps, values))


def _json_bools(column: np.ndarray) -> list[str]:
    return list(map(("false", "true").__getitem__, column.tolist()))
