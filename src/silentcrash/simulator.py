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
a at a fixed d locates its trigger once, and replays of one manifest share
each stage and, in one TextBudget, the text of its frames and each kind's
NPC side of the rows from the trigger on. A stage that touches before its
trigger also keeps, in its memo, each reader's result of the frames from
first contact to the trigger, which every trace built on it shares: their
peak IoU with their walk's reach, and how far the built-in detector got
through them. simulate hands the memo to each trace it builds on the stage
(Trace.stage_memo); the trace scores only its frames from the trigger on.

Each per-frame value is an elementwise expression of the frame index, so it
has the same bits whether it is evaluated alone or inside the whole trace.
_Phase owns these expressions in two forms that round alike: a numpy kernel
over an array of frames (first_contact's confirm window, and
Trace.frame_block, which writes them into one array, with overlaps only
inside each phase's contact window, and from which alone trace_to_jsonl
spells the replayed text) and one scalar evaluator in Python floats,
_Phase.frames, which the trigger search walks through its located window and
the built-in detector calls for the few frames it reads; the peak IoU's walk
(_walk) writes its expressions out in the same order. A center distance is
sqrt(dx*dx + dy*dy) in both: IEEE 754 rounds each of its operations
correctly, so numpy and Python give the same bits. The overlaps use the
face-normal projections of the scalar geometry module; tests cross-check
frame invariants against it. The IoU corners take the box headings from a
phase's face normals, axes[0] for the EV and axes[2] for the NPC (cos and
sin of each yaw as given), so the clip measures the boxes the
separating-axis test judged. numpy is imported inside the functions that
build arrays, so importing this module, and the CLI with it, does not load
numpy.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, NamedTuple

from .scenario import BehaviorKind, ControlParameters, ScenarioSpec

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

# Slack on every located threshold, relative to the magnitude of the
# coordinates involved: about 10^7 times the rounding error of the per-frame
# formulas, so a frame outside a located interval can never pass them.
_SLACK = 1e-9


# The most steps a horizon may span (the shipped configs take 1500). A
# config that asks for more is rejected before anything is simulated, so
# every accepted config simulates in bounded memory.
MAX_STEPS = 100_000

# The farthest either center may be from the origin along x or y, in metres.
# Within it a squared center offset stays finite, so sqrt(dx*dx + dy*dy)
# never overflows; a phase that leaves it is rejected.
MAX_COORD = 1e150
_UNBOUNDED = f"non-finite positions or positions beyond {MAX_COORD:g} m"


class SimulationError(ValueError):
    """Non-finite or out-of-range state, or malformed configuration."""


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
    """The four face normals of both boxes, as (x, y) floats, and the boxes' summed half extents along each.

    Along a normal (ax, ay) the sum is (el*|ax*ce + ay*se| + ew*|ay*ce - ax*se|)
    + (nl*|ax*cn + ay*sn| + nw*|ay*cn - ax*sn|), written out for each of the
    four normals with no loop or list: CruiseStage.switched calls this once
    per execution.
    """
    (el, ew), (nl, nw) = ev_half, npc_half
    ce, se = math.cos(ev_yaw), math.sin(ev_yaw)
    cn, sn = math.cos(npc_yaw), math.sin(npc_yaw)
    me, mn = -se, -sn
    axes = ((ce, se), (me, ce), (cn, sn), (mn, cn))
    return axes, (
        (el * abs(ce * ce + se * se) + ew * abs(se * ce - ce * se))
        + (nl * abs(ce * cn + se * sn) + nw * abs(se * cn - ce * sn)),
        (el * abs(me * ce + ce * se) + ew * abs(ce * ce - me * se))
        + (nl * abs(me * cn + ce * sn) + nw * abs(ce * cn - me * sn)),
        (el * abs(cn * ce + sn * se) + ew * abs(sn * ce - cn * se))
        + (nl * abs(cn * cn + sn * sn) + nw * abs(sn * cn - cn * sn)),
        (el * abs(mn * ce + cn * se) + ew * abs(cn * ce - mn * se))
        + (nl * abs(mn * cn + cn * sn) + nw * abs(cn * cn - mn * sn)),
    )


def _min_overlap(delta: np.ndarray, axes, radii) -> np.ndarray:
    """Signed minimum axis overlap for each center offset in delta, (k, 2).

    Negative values mean a separating axis exists; the value clamped at zero
    is the penetration depth, matching geometry.penetration_depth. Only
    elementwise products are used, never a matrix product, so a frame's value
    does not depend on how many frames are evaluated with it.
    """
    import numpy as np

    ax, ay = zip(*axes)
    proj = np.abs(delta[:, :1] * ax + delta[:, 1:] * ay)  # (k, 4)
    return (radii - proj).min(axis=1)


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
    are evaluated by the numpy kernel (centers, _min_overlap, and
    Trace.frame_block's closing speed) or, rounding alike, by `frames` and
    `closing_speed` in Python floats.
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

    def frames(self, idx) -> Iterator[tuple[float, ...]]:
        """The scalar frame evaluator: (i, ex, ey, nx, ny, o0, o1, o2, o3) for each frame i of idx.

        (ex, ey) and (nx, ny) are the EV and NPC centers, and o0..o3 the
        overlaps radii[k] - |(npc - ev) . axes[k]| along the phase's face
        normals. Each is computed with the operations of centers and
        _min_overlap in the same order, so it is the kernel's value at frame
        i bit for bit, and the np.min of o0..o3 is _min_overlap's. Python's
        min skips a NaN that np.min propagates, so a frame overlaps iff all
        four are >= 0: a NaN counts as apart.
        """
        (px, py), (ux, uy) = self.npc_origin, self.npc_velocity
        (ox, oy), (vx, vy) = self.ev_origin, self.ev_velocity
        (a0x, a0y), (a1x, a1y), (a2x, a2y), (a3x, a3y) = self.axes
        r0, r1, r2, r3 = self.radii
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
        """Trace.frame_block's closing speed, bit for bit, at the EV and NPC centers that `frames` gives for a frame."""
        dx, dy = nx - ex, ny - ey
        (ux, uy), (vx, vy) = self.npc_velocity, self.ev_velocity
        dist = math.sqrt(dx * dx + dy * dy)
        return ((vx - ux) * dx + (vy - uy) * dy) / dist if dist > 1e-12 else 0.0

    def bounded(self) -> bool:
        """Whether both centers stay within MAX_COORD; they move monotonically, so the end frames decide.

        The centers are computed as `frames` computes them; a NaN is out of range.
        """
        (px, py), (ux, uy) = self.npc_origin, self.npc_velocity
        (ox, oy), (vx, vy) = self.ev_origin, self.ev_velocity
        for i in (self.first, self.last):
            t = i * self.dt
            since = t - self.t0
            if not (abs(ox + since * vx) <= MAX_COORD and abs(oy + since * vy) <= MAX_COORD
                    and abs(px + t * ux) <= MAX_COORD and abs(py + t * uy) <= MAX_COORD):
                return False
        return True

    @property
    def _offset(self) -> tuple[float, float, float, float, float]:
        """Center offset P + t*Q as (Px, Py, Qx, Qy), and the slack for its magnitude."""
        (nx, ny), (ux, uy) = self.npc_origin, self.npc_velocity
        (ox, oy), (vx, vy) = self.ev_origin, self.ev_velocity
        reach = (1.0 + self.last * self.dt) * (abs(ux) + abs(uy) + abs(vx) + abs(vy))
        slack = _SLACK * (abs(nx) + abs(ny) + abs(ox) + abs(oy) + reach + max(self.radii))
        return nx - ox + self.t0 * vx, ny - oy + self.t0 * vy, ux - vx, uy - vy, slack

    def first_within(self, d: float) -> int | None:
        """First frame whose center distance is at most d: the scalar evaluator's first hit inside the located window."""
        px, py, wx, wy, slack = self._offset
        reach = d + slack
        a = wx * wx + wy * wy
        if a == 0.0:
            window = range(self.first, self.last + 1) if math.sqrt(px * px + py * py) <= reach else range(0)
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
        for i, ex, ey, nx, ny, *_ in self.frames(window):
            dx, dy = nx - ex, ny - ey
            if math.sqrt(dx * dx + dy * dy) <= d:
                return i
        return None

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
            # what max(lo, enter) and min(hi, leave) keep, NaN and -0.0 included
            if enter > lo:
                lo = enter
            if leave < hi:
                hi = leave
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
        import numpy as np

        ev, npc = self.centers(np.arange(window.start, window.stop))
        hit = _min_overlap(npc - ev, self.axes, self.radii) >= 0.0
        return window.start + int(np.argmax(hit)) if hit.any() else None


def _walk(phase: _Phase, span: range, overlaps: list, frames: list, reach: float) -> float:
    """Append the overlap frames of the phase's frames span to overlaps and frames; return reach raised by them.

    One written-out loop computes each frame's centers once and drops it at
    its first overlap that is negative or NaN; a hit keeps its overlaps along
    the phase's face normals and takes its EV heading from axes[0]. A filter
    over _Phase.frames in its place is about 50 lines shorter, but the
    threshold sweep's median op took 4.8 % longer (0.0586 against 0.0559 ms,
    4 of 4 alternating 20 s pairs, 2-vCPU host). The span is not cut to the
    contact_window, whose slab solve costs more than the few frames a trace
    keeps after first contact.
    """
    (px, py), (ux, uy) = phase.npc_origin, phase.npc_velocity
    (ox, oy), (vx, vy) = phase.ev_origin, phase.ev_velocity
    (a0x, a0y), (a1x, a1y), (a2x, a2y), (a3x, a3y) = phase.axes
    r0, r1, r2, r3 = phase.radii
    dt, t0 = phase.dt, phase.t0
    start = len(frames)
    for i in span:
        t = i * dt
        since = t - t0
        ex, ey, nx, ny = ox + since * vx, oy + since * vy, px + t * ux, py + t * uy
        dx, dy = nx - ex, ny - ey
        # all four overlaps >= 0 iff their np.min is, NaN included
        o0 = r0 - abs(dx * a0x + dy * a0y)
        if not o0 >= 0.0:
            continue
        o1 = r1 - abs(dx * a1x + dy * a1y)
        if not o1 >= 0.0:
            continue
        o2 = r2 - abs(dx * a2x + dy * a2y)
        if not o2 >= 0.0:
            continue
        o3 = r3 - abs(dx * a3x + dy * a3y)
        if not o3 >= 0.0:
            continue
        overlaps.append((o0, o1, o2, o3))
        frames.append((ex, ey, a0x, a0y, nx, ny))
    if len(frames) > start:
        # each center coordinate is monotonic over a phase's frames, so its
        # first and last hit hold the largest magnitudes; max keeps the first
        # of a NaN and its peers, so the order is the hits'
        (ex, ey, _, _, nx, ny), (lx, ly, _, _, mx, my) = frames[start], frames[-1]
        reach = max(reach, abs(ex), abs(ey), abs(nx), abs(ny), abs(lx), abs(ly), abs(mx), abs(my))
    return reach


@dataclass(eq=False)
class Trace:
    """Frame-by-frame record of one execution.

    The located frames and the length are set up front; frame_block
    evaluates any frames of frames 0..len-1 from the phases. `memo` holds
    what the oracle and the detector derive from the trace (the peak IoU, the
    built-in's gate count per defect model), so scoring it again is a lookup.

    `stage_memo` is the cruise stage's memo when this trace touched before
    its trigger on the stage's own frames, else None. Only simulate sets it:
    a trace made by dataclasses.replace or by Trace(...), whose phases,
    halves or frames may differ from the stage's, reads no stage memo.
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
    stage_memo: dict | None = field(default=None, init=False, repr=False)

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

    def frame_block(self, frames: range) -> np.ndarray:
        """The per-frame values of the ascending frames, as one C-contiguous float64 array of shape (7, n).

        Row k holds _BLOCK_ROWS[k] (gt_overlap as 0.0 and 1.0), so each row's
        slice of a segment is contiguous and block[:3] is the EV side of a
        row. Each phase fills its own columns in place: a center is the
        product of its time and velocity plus its origin, and the closing
        speed is ((vx - ux) * dx + (vy - uy) * dy) / dist where dist exceeds
        1e-12, else 0.0, with _Phase.centers' and _Phase.closing_speed's
        operations in their order, so every value is an elementwise
        expression of its frame. The overlap is _min_overlap's on the frames
        of the phase's contact_window (every frame when that is None).
        Outside it the overlap is finite and negative (the window's
        finiteness gate bounds every projection and radius), so gt_overlap
        and penetration are 0.0 there, as the kernel's overlap gives them.
        """
        import numpy as np

        block = np.empty((7, len(frames)))
        block[3::3] = 0.0
        for phase, part in self.phase_frames(frames):
            lo = frames.index(part.start)
            closing, ex, ey, gt, nx, ny, pen = block[:, lo : lo + len(part)]
            t = np.arange(part.start, part.stop, part.step) * phase.dt
            since = t - phase.t0
            (ox, oy), (vx, vy) = phase.ev_origin, phase.ev_velocity
            (px, py), (ux, uy) = phase.npc_origin, phase.npc_velocity
            np.multiply(since, vx, out=ex)
            ex += ox
            np.multiply(since, vy, out=ey)
            ey += oy
            np.multiply(t, ux, out=nx)
            nx += px
            np.multiply(t, uy, out=ny)
            ny += py
            dx, dy = nx - ex, ny - ey
            dist = np.sqrt(dx * dx + dy * dy)
            far = dist > 1e-12
            closing[~far] = 0.0
            np.divide((vx - ux) * dx + (vy - uy) * dy, dist, out=closing, where=far)
            window = phase.contact_window()
            if window is None:
                near = slice(None)
            elif window:
                # how many frames of part lie before the window, and before its end
                start, step = part.start, part.step
                near = slice(len(range(start, window.start, step)), len(range(start, window.stop, step)))
            else:
                continue
            overlap = _min_overlap(np.stack((dx[near], dy[near]), axis=1), phase.axes, phase.radii)
            np.greater_equal(overlap, 0.0, out=gt[near])
            np.maximum(overlap, 0.0, out=pen[near])
        return block

    def overlap_walk(self, frames: range, reach: float = 0.0) -> tuple[list, list, float]:
        """Each overlap frame of the ascending frames, in time order: (overlaps, frames, reach).

        A frame is listed iff its four overlaps along the phase's face normals
        are >= 0 (a NaN counts as apart), so iff its _min_overlap is. frames
        holds its (ex, ey, ec, es, nx, ny): the centers, with frame_block's
        bits, and the EV heading (ec, es), the phase's axes[0]. overlaps
        holds those four overlaps, along the face normals of the boxes whose
        corners oracle._PeakCursor builds from (ec, es) and the NPC heading
        axes[2], so geometry.iou_bounds of them bounds corners_iou. reach is
        the given reach raised to each listed center coordinate's magnitude,
        so a walk continued from another's reach has the bits of one of both.
        """
        overlaps, hits = [], []
        for phase, span in self.phase_frames(frames):
            reach = _walk(phase, span, overlaps, hits, reach)
        return overlaps, hits, reach


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

    When the stage touches before the trigger, every trace built on it also
    scores the same frames from first contact to the trigger the same way.
    `memo` keeps each reader's result of them, filled by the first trace that
    asks (simulate hands it to each trace it builds on the stage, as
    Trace.stage_memo): the peak IoU and the walk's reach under
    oracle._PeakCursor, and per defect model how many of the built-in's
    gates its inspected frames passed. memo is not an init field, so a stage
    made by dataclasses.replace starts with an empty one.
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
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def fits(self, spec: ScenarioSpec, d: float, cfg: SimConfig) -> bool:
        """Whether this stage was built for this spec and cfg (the same objects) and an equal d."""
        return self.spec is spec and self.d == d and self.cfg is cfg

    def switched(self, params: ControlParameters) -> _Phase:
        """The phase from the trigger frame on, at speed v_hat along heading + a * 90 deg."""
        path = self.path
        (ox, oy), (vx, vy) = path.ev_origin, path.ev_velocity
        yaw1 = self.spec.ev.yaw + params.a * (math.pi / 2.0)
        t0 = self.trigger * self.cfg.dt
        axes, radii = _face_normals(yaw1, self.ev_half, self.spec.npc.yaw, self.npc_half)
        (c, s), v_hat = axes[0], params.v_hat  # axes[0] is (cos, sin) of yaw1
        phase = _Phase(
            first=self.trigger, last=path.last, dt=path.dt, npc_origin=path.npc_origin, npc_velocity=path.npc_velocity,
            t0=t0, ev_origin=(ox + t0 * vx, oy + t0 * vy), ev_velocity=(v_hat * c, v_hat * s), ev_yaw=yaw1,
            axes=axes, radii=radii,
        )
        if not phase.bounded():
            raise SimulationError(_UNBOUNDED)
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
    if not all(phase.bounded() for phase in phases):
        raise SimulationError(_UNBOUNDED)
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
    trace = Trace(
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
    if cruise.first_contact is not None:
        # the trace's first phase, halves, NPC yaw, first contact and length are the stage's
        trace.stage_memo = cruise.memo
    return trace


# The most bytes of text (ASCII, so one byte per character) that one
# TextBudget keeps. The 22 stages of the reference log take 1.12 MB and the
# NPC rows of its 6 kinds 1.50 MB; one cruise of MAX_STEPS frames alone would
# take about 28 MB.
CRUISE_TEXT_BUDGET = 8 << 20


class TextBudget:
    """The text that trace_to_jsonl keeps, oldest first, and its total bytes.

    `kept` maps a key to (text, bytes): a cruise stage's segment under
    (stage, start, stop), and a scenario kind's NPC side of its rows from the
    trigger on under what they are spelled from (npc_rows). When new text
    would take the total above CRUISE_TEXT_BUDGET, the oldest entries are
    given up until it fits; text longer than the budget is not kept.
    """

    def __init__(self) -> None:
        self.kept: dict = {}
        self.bytes = 0
        self.too_long: set = set()  # the keys of NPC rows found longer than the budget

    def keep(self, key, text, size: int) -> None:
        if size > CRUISE_TEXT_BUDGET:
            return
        self.kept[key] = text, size
        self.bytes += size
        while self.bytes > CRUISE_TEXT_BUDGET:
            self.bytes -= self.kept.pop(next(iter(self.kept)))[1]

    def npc_rows(self, phase: _Phase, fixed: dict) -> tuple[str, ...] | None:
        """The NPC side of the rows of frames 0..phase.last when triggered and apart; None if longer than the budget.

        Row i is what trace_to_jsonl writes after the EV side of frame i when
        the frame is triggered and apart with no penetration: gt_overlap
        false, the NPC box, penetration 0.0, t and triggered true. fixed
        spells the NPC's halves and yaw. A phase's NPC centers depend only on
        its NPC origin and velocity and its dt, and the NPC never reacts, so
        every switched phase of a scenario kind copies them from the kind's
        cruise path: the rows are spelled once per kind and sim config and
        kept within the budget, keyed by what they are spelled from. Rows
        longer than the budget are spelled once and never kept. Only a
        switched phase whose frames are all apart reads them, as in a
        non-collision trace, or after a contact before the trigger.
        """
        motion = repr((phase.npc_origin, phase.npc_velocity, phase.dt, phase.last))  # tells -0.0 from 0.0
        key = (motion, fixed["npc_hl"], fixed["npc_hw"], fixed["npc_yaw"])
        if key in self.too_long:
            return None
        kept = self.kept.get(key)
        if kept is not None:
            return kept[0]
        rows = _spell_npc_rows(phase, fixed)
        size = sum(map(len, rows))
        if size > CRUISE_TEXT_BUDGET:
            self.too_long.add(key)
        self.keep(key, rows, size)
        return rows


# One frame of trace_to_jsonl, keys sorted as json.dumps(..., sort_keys=True)
# writes them: the EV side, then the NPC side. Each segment fills in the
# fields; a column spelled per frame, and t, stay "%s", the slots at which the
# template is split.
_EV_ROW = (
    '{{"closing_speed": {closing_speed}, "ev": {{"half_length": {ev_hl}, "half_width": {ev_hw}, '
    '"x": {ev_x}, "y": {ev_y}, "yaw": {ev_yaw}}}'
)
_NPC_ROW = (
    ', "gt_overlap": {gt_overlap}, '
    '"npc": {{"half_length": {npc_hl}, "half_width": {npc_hw}, "x": {npc_x}, "y": {npc_y}, "yaw": {npc_yaw}}}, '
    '"penetration": {penetration}, "t": %s, "triggered": {triggered}}}\n'
)
_ROW = _EV_ROW + _NPC_ROW


def _spell_npc_rows(phase: _Phase, fixed: dict) -> tuple[str, ...]:
    """TextBudget.npc_rows' rows for frames 0..phase.last, from the NPC centers that phase.centers gives them."""
    import numpy as np

    npc = phase.centers(np.arange(phase.last + 1))[1]
    spelled = dict(fixed, gt_overlap="false", npc_x="%s", npc_y="%s", penetration=json.dumps(0.0), triggered="true")
    head, mid, tail, end = _NPC_ROW.format(**spelled).split("%s")
    times = _frame_times(phase.dt, phase.last + 1)
    xs, ys = _json_floats(npc[:, 0]), _json_floats(npc[:, 1])
    return tuple(f"{head}{x}{mid}{y}{tail}{t}{end}" for x, y, t in zip(xs, ys, times))


def trace_to_jsonl(trace: Trace, budget: TextBudget) -> str:
    """Serialize a trace as JSONL, one frame per line.

    Each line holds the bytes json.dumps(..., sort_keys=True) writes for the
    frame: t, the ev and npc boxes (x, y, yaw, half_length, half_width),
    gt_overlap, penetration, closing_speed and triggered. Each phase's frames
    (Trace.phase_frames) are one segment, written by _segment_text from one
    frame block per trace. Two kinds of text are kept within the budget and
    read again:

    - A segment of the cruise stage's own phases has the same text in every
      trace that shares the stage and the segment's (start, stop). That text
      is read from the budget under (stage, start, stop), or written and
      kept there.
    - From the trigger on only the EV's maneuver differs between the traces
      of a scenario kind. A segment there whose every frame is apart, with a
      penetration of +0.0 by bits, is written as each row's EV side (the
      block's first three rows) followed by the NPC side of the row, which
      TextBudget.npc_rows keeps once per kind and sim config. Any other
      segment is spelled whole.

    The block is Trace.frame_block of the frames from the first segment that
    is spelled on: each value is an elementwise expression of its frame, so
    the bits are those of a block of every frame. A switched phase with a
    contact is spelled whole, apart frames before the contact included: any
    segment has the same bytes on either path, and one call costs less than
    two on a short run of apart frames.
    """
    import numpy as np

    halves = (*trace.ev_half, *trace.npc_half)
    fixed = dict(zip(("ev_hl", "ev_hw", "npc_hl", "npc_hw"), map(_json_scalar, halves)))
    fixed["npc_yaw"] = _json_scalar(float(trace.npc_yaw))
    # every phase ends at the horizon frame or before it
    times = _frame_times(trace.dt, trace.phases[-1].last + 1)
    stage, trigger = trace.cruise, trace.trigger_frame
    block = None  # the per-frame values, whose first column is frame `first`
    parts = []
    for phase, part in trace.phase_frames(range(trace.length)):
        start, stop = part.start, part.stop
        fixed["ev_yaw"] = _json_scalar(float(phase.ev_yaw))
        fixed["triggered"] = _json_scalar(trigger is not None and start >= trigger)
        shared = any(phase is own for own in stage.phases)
        kept = budget.kept.get((stage, start, stop)) if shared else None
        if kept is not None:
            parts.append(kept[0])
            continue
        if block is None:
            first = start
            block = trace.frame_block(range(first, trace.length))
        lo, hi = start - first, stop - first
        # the stage's phases end before the trigger, so a segment from it on is never shared
        if (
            trigger is not None
            and start >= trigger
            # gt_overlap and penetration: 0.0 and +0.0 are the only values whose bits are all zero
            and not block[3::3, lo:hi].view(np.int64).any()
            and phase.dt is trace.dt  # the rows spell t at the phase's dt
        ):
            rows = budget.npc_rows(phase, fixed)
            if rows is not None:
                parts += _segment_text(block[:3], lo, hi, fixed, rows[start:stop], _EV_ROW + "%s")
                continue
        segment = _segment_text(block, lo, hi, fixed, times[start:stop])
        if shared:
            text = "".join(segment)
            budget.keep((stage, start, stop), text, len(text))
            parts.append(text)
        else:
            parts += segment
    return "".join(parts)


# The rows of a frame block, in _ROW's key order
_BLOCK_ROWS = ("closing_speed", "ev_x", "ev_y", "gt_overlap", "npc_x", "npc_y", "penetration")


def _segment_text(block: np.ndarray, lo: int, hi: int, fixed: dict, last, row: str = _ROW) -> list[str]:
    """The lines of the block's columns lo..hi-1 as pieces to join; `last` holds each row's string for row's last slot.

    The block's m rows are the first m of _BLOCK_ROWS, the fields that `row`
    spells per frame besides its last slot. The segment is written through
    its own row template, with the fields of `fixed` (the yaws and
    `triggered`, spelled once per segment). Any row whose values in the
    segment share one float64 bit pattern (so 0.0 and -0.0 differ, and NaN
    runs match) is spelled once into the template too, from its one value
    by _json_scalar. Only the rows that vary in the segment are spelled per
    frame: by orjson when the whole segment passes its range gate
    (_orjson_spells), else each through _json_floats, which gates that row
    alone. They and `last` (the time strings for _ROW, each frame's NPC side
    for the EV side) are interleaved with the template's constant pieces
    into one list.
    """
    import numpy as np

    values = block[:, lo:hi]
    bits = values.view(np.int64)
    vary = (bits != bits[:, :1]).any(axis=1).tolist()
    spelled = any(vary) and _orjson_spells(values)
    fields, per_frame = dict(fixed), []
    for name, series, varies in zip(_BLOCK_ROWS, values, vary):
        if not varies:
            fields[name] = _json_scalar(bool(series[0]) if name == "gt_overlap" else series[0].item())
            continue
        fields[name] = "%s"
        if name == "gt_overlap":
            per_frame.append(_json_bools(series != 0.0))
        elif spelled:
            per_frame.append(_orjson_floats(series))
        else:
            per_frame.append(_json_floats(series))
    per_frame.append(last)
    # head, then per frame each column's string and the piece after it; a
    # row's last piece and the next row's head are one piece between rows
    head, *tails = row.format(**fields).split("%s")
    k, n = len(per_frame), hi - lo
    segment = [tails[-1] + head] * (2 * k * n + 1)
    segment[0], segment[-1] = head, tails[-1]
    for j, strings in enumerate(per_frame):
        segment[2 * j + 1 :: 2 * k] = strings
    for j, tail in enumerate(tails[:-1]):
        segment[2 * j + 2 :: 2 * k] = [tail] * n
    return segment


def _json_times(times: Iterable[float]) -> list[str]:
    """repr(round(t, 9)) of each time t (floats, or a float array)."""
    return [repr(round(t, 9)) for t in map(float, times)]


@lru_cache(maxsize=4)
def _frame_times(dt: float, count: int) -> tuple[str, ...]:
    """_json_times of frames 0..count-1 at dt.

    i * dt is one IEEE product of float(i) and dt, as each element of
    np.arange(n) * dt is, so a trace's times, np.arange(length) * dt, are a
    prefix of these with the same bits, and one tuple per (dt, horizon frame
    count) serves every trace.
    """
    return tuple(_json_times(i * dt for i in range(count)))


def _orjson_spells(values: np.ndarray) -> bool:
    """Whether orjson spells every float of values (of any shape) as json.dumps does.

    orjson spells a float by Ryu's shortest round-trip digits (Adams, PLDI
    2018), the digits repr picks, but in other notation outside
    1e-4 <= |v| < 1e16 (1e16 for 1e+16, 0.00001 for 1e-05) and as null for
    NaN and infinities. So it does when every value is a zero or in that
    range; a NaN fails both bounds.
    """
    import numpy as np

    magnitude = np.abs(values)
    # the largest and smallest magnitude decide, but for zeros below 1e-4
    return bool(
        values.size
        and magnitude.max() < 1e16
        and (magnitude.min() >= 1e-4 or ((magnitude >= 1e-4) | (magnitude == 0.0)).all())
    )


def _orjson_floats(row: np.ndarray) -> list[str]:
    """orjson's spelling of each float of a C-contiguous 1-D array (it refuses strided views)."""
    import orjson  # here, not at the top: run and the sweeps never encode a trace

    return orjson.dumps(row, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")


def _json_floats(column: np.ndarray) -> list[str]:
    """json.dumps's spelling of each float: its repr, or NaN/Infinity/-Infinity.

    A column that passes _orjson_spells is spelled by orjson, on a
    C-contiguous copy, and any other column value by value.
    """
    import numpy as np

    if _orjson_spells(column):
        return _orjson_floats(np.ascontiguousarray(column))
    values = column.tolist()
    return list(map(float.__repr__ if np.isfinite(column).all() else json.dumps, values))


def _json_scalar(value) -> str:
    """json.dumps's spelling of one value; an exact float, int, bool or None is spelled without calling it."""
    kind = type(value)
    if kind is float and math.isfinite(value) or kind is int:
        return repr(value)  # float.__repr__ or int.__repr__
    if kind is float:
        return "NaN" if value != value else ("Infinity" if value > 0.0 else "-Infinity")
    if kind is bool:
        return "true" if value else "false"
    return "null" if value is None else json.dumps(value)


def _json_bools(column: np.ndarray) -> list[str]:
    return list(map(("false", "true").__getitem__, column.tolist()))
