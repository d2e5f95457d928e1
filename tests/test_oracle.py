import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silentcrash import cli, oracle
from silentcrash.config import parse_config
from silentcrash.detector import PERFECT_DETECTOR, DefectModel, builtin_cd, ground_truth, silenced_by
from silentcrash.oracle import (
    OracleConfig,
    ScenarioType,
    check_ic,
    classify,
    max_iou,
    recall_sweep,
)
from silentcrash.fuzzer import run_campaign
from silentcrash.geometry import corners_iou, iou_bounds, rect_area, rect_corners
from silentcrash.scenario import ControlParameters, ScenarioKind, make_seed
from silentcrash.simulator import SimConfig, Trace, _face_normals, _Phase, simulate
from sim_oracle import (
    builtin_cd_full,
    max_iou_whole_trace,
    overlap_corners,
    overlap_frames_former,
    silenced_by_full,
    simulate_full,
    trace_arrays,
)
from test_detector import PSF_GRAZE, sample_traces

TUNNELING = DefectModel(sample_period=40, min_penetration=0.0, min_impact_speed=0.0)
SWEEP = [0.0, 0.05, 0.1, 0.15, 0.2]  # sweep-threshold's thresholds in the README and perfbench


def test_decision_table_is_exhaustive_and_exclusive():
    assert classify(True, False) is ScenarioType.IC
    assert classify(False, False) is ScenarioType.NC
    assert classify(True, True) is ScenarioType.DC
    assert classify(False, True) is ScenarioType.FP


def test_ignored_collision_verdict_on_graze():
    spec, _ = make_seed(ScenarioKind.PSF)
    trace = simulate(spec, PSF_GRAZE)
    assert check_ic(trace, DefectModel()) is ScenarioType.IC


def test_detected_collision_verdict_on_seed():
    spec, params = make_seed(ScenarioKind.FLV)
    assert check_ic(simulate(spec, params), DefectModel()) is ScenarioType.DC


def test_non_collision_verdict_on_miss():
    spec, _ = make_seed(ScenarioKind.PSF)
    trace = simulate(spec, ControlParameters.from_angle(d=7.0, v_hat=15.0, a=1.0))
    assert check_ic(trace, DefectModel()) is ScenarioType.NC


def test_verdict_agrees_with_recomputed_conditions():
    for trace in sample_traces(per_kind=10, seed=31):
        cond1 = ground_truth(trace) is not None
        cond2 = builtin_cd(trace, DefectModel())
        assert check_ic(trace, DefectModel()) is classify(cond1, cond2)


def test_perfect_detector_collapse():
    for trace in sample_traces(per_kind=10, seed=37):
        assert check_ic(trace, PERFECT_DETECTOR) in (ScenarioType.DC, ScenarioType.NC)


def test_raising_threshold_shrinks_the_overlap_condition():
    spec, params = make_seed(ScenarioKind.FLV)
    trace = simulate(spec, params)
    peak = max_iou(trace)
    assert 0.0 < peak < 1.0
    below = OracleConfig(t_bbox=round(peak - 0.01, 6))
    above = OracleConfig(t_bbox=round(peak + 0.01, 6))
    assert check_ic(trace, PERFECT_DETECTOR, below) is ScenarioType.DC
    # detector still fires but the overlap condition fails: the phantom cell
    assert check_ic(trace, PERFECT_DETECTOR, above) is ScenarioType.FP
    quiet = DefectModel(sample_period=1, min_penetration=10.0, min_impact_speed=0.0)
    assert check_ic(trace, quiet, above) is ScenarioType.NC


def test_overlap_condition_shrinks_monotonically_in_threshold():
    thresholds = [0.0, 0.02, 0.05, 0.1, 0.2, 0.5]
    for trace in sample_traces(per_kind=6, seed=43):
        conds = []
        for t in thresholds:
            if t == 0.0:
                conds.append(ground_truth(trace) is not None)
            else:
                conds.append(max_iou(trace) >= t)
        assert all(not later or earlier for earlier, later in zip(conds, conds[1:]))
        # and no NC ever turns into IC/DC as the threshold rises
        for t, cond in zip(thresholds, conds):
            verdict = check_ic(trace, DefectModel(), OracleConfig(t_bbox=t))
            assert (verdict in (ScenarioType.IC, ScenarioType.DC)) == cond


def test_non_finite_box_corner_propagates_from_max_iou():
    spec, params = make_seed(ScenarioKind.FLV)
    trace = simulate(spec, params)
    # the overlap frames come from the phases; only the corners see the halves
    trace.npc_half = (math.inf, trace.npc_half[1])
    with pytest.raises(ValueError, match="^non-finite point"):
        max_iou(trace)
    assert "max_iou" not in trace.memo


def _default_sweep_traces():
    """The traces sweep-threshold scores under its default config."""
    config = parse_config(cli._SWEEP_THRESHOLD_DEFAULT)
    specs = {kind: config.seed_for(kind)[0] for kind in config.kinds}
    traces, cruise = [], None
    for rec in run_campaign(config).records:
        trace = simulate(specs[rec.kind], rec.params, config.sim, cruise)
        cruise = trace.cruise
        traces.append(trace)
    return traces


def _walked(trace):
    """The bounds and frames of trace.overlap_walk as _PeakCursor reads them.

    A trace that reads its stage's memo walks the stage's frames from first
    contact, then the rest from that walk's reach.
    """
    overlaps, frames, reach = [], [], 0.0
    if trace.first_contact is not None:
        walks = [range(trace.first_contact, trace.length)]
        if trace.stage_memo is not None:
            end = trace.phases[0].last + 1
            walks = [range(trace.first_contact, min(end, trace.length)), range(end, trace.length)]
        for walk in walks:
            more_overlaps, more_frames, reach = trace.overlap_walk(walk, reach)
            overlaps, frames = overlaps + more_overlaps, frames + more_frames
    (ev_hl, ev_hw), (npc_hl, npc_hw) = trace.ev_half, trace.npc_half
    reach = (reach + max(ev_hl, npc_hl)) + max(ev_hw, npc_hw)
    return iou_bounds(overlaps, trace.ev_half, trace.npc_half, reach), frames


def test_max_iou_clips_under_half_the_overlap_frames_of_the_default_sweep(monkeypatch):
    traces = _default_sweep_traces()
    clip, calls = oracle.corners_iou, []

    def counted(*args):
        calls.append(args)
        return clip(*args)

    monkeypatch.setattr(oracle, "corners_iou", counted)
    peaks = [max_iou(trace) for trace in traces]
    monkeypatch.undo()
    assert len(traces) == 600
    arrays = [trace_arrays(trace) for trace in traces]
    assert sum(int(trace.gt_overlap.sum()) for trace in arrays) == 7215
    # 2643 with each cruise stage's frames before the trigger clipped once per stage, 3047 without
    assert len(calls) <= 2700
    assert [peak.hex() for peak in peaks] == [max_iou_whole_trace(trace).hex() for trace in arrays]


def test_recall_sweep_clips_under_a_quarter_of_the_overlap_frames_of_the_default_sweep(monkeypatch):
    traces = _default_sweep_traces()
    clip, calls = oracle.corners_iou, []

    def counted(*args):
        calls.append(args)
        return clip(*args)

    monkeypatch.setattr(oracle, "corners_iou", counted)
    points = recall_sweep([(trace, False) for trace in traces], SWEEP)
    swept = len(calls)
    peaks = [max_iou(trace) for trace in traces]
    monkeypatch.undo()
    # the sweep's clips are the first of those max_iou makes: the total is max_iou's alone;
    # 1106 and 2643 with each cruise stage's frames before the trigger clipped once per stage, 1587 and 3047 without
    assert swept <= 1150 and len(calls) <= 2700
    silent = [not builtin_cd(trace, DefectModel()) for trace in traces]
    assert [p.fp for p in points[1:]] == [sum(q and peak >= t for q, peak in zip(silent, peaks)) for t in SWEEP[1:]]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(list(ScenarioKind)),
    d=st.floats(min_value=2.0, max_value=7.0),
    v_hat=st.floats(min_value=0.5, max_value=50.0),
    a=st.floats(min_value=-1.0, max_value=1.0),
    cfg=st.sampled_from((SimConfig(), SimConfig(dt=0.005, settle_frames=0), SimConfig(dt=0.02, horizon=9.0))),
    defect=st.sampled_from((DefectModel(), PERFECT_DETECTOR, TUNNELING)),
    data=st.data(),
)
def test_threshold_verdicts_in_any_order_match_the_whole_trace_peak(kind, d, v_hat, a, cfg, defect, data):
    """check_ic at t > 0 is classify(whole-trace peak >= t, built-in verdict), whatever thresholds came before.

    The sequences mix random thresholds, the sweep's, the exact peak and its
    neighbours, and are taken as drawn, descending, or each repeated. The
    cursor never clips more frames than max_iou alone, and max_iou after the
    sequence gives the whole-trace peak's bits with the same clips.
    """
    case = (make_seed(kind)[0], ControlParameters.from_angle(d=d, v_hat=v_hat, a=a), cfg)
    ref = simulate(*case)
    peak, fired = max_iou_whole_trace(trace_arrays(ref)), builtin_cd(ref, defect)
    near = [t for t in (peak, math.nextafter(peak, 0.0), math.nextafter(peak, 1.0)) if 0.0 < t < 1.0]
    pool = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True) | st.sampled_from((*near, *SWEEP[1:]))
    thresholds = data.draw(st.lists(pool, min_size=1, max_size=8))
    order = data.draw(st.sampled_from(("drawn", "descending", "repeated")))
    if order == "descending":
        thresholds.sort(reverse=True)
    elif order == "repeated":
        thresholds = [t for t in thresholds for _ in range(2)]
    trace = simulate(*case)
    with mock.patch.object(oracle, "corners_iou", side_effect=oracle.corners_iou) as clips:
        for t in thresholds:
            assert check_ic(trace, defect, OracleConfig(t)) is classify(peak >= t, fired), (case, t, peak)
    swept = clips.call_count
    alone = simulate(*case)
    with mock.patch.object(oracle, "corners_iou", side_effect=oracle.corners_iou) as clips:
        assert max_iou(alone).hex() == peak.hex()
        clipped_alone = clips.call_count
        clips.reset_mock()
        assert max_iou(trace).hex() == peak.hex()
    assert swept <= clipped_alone and swept + clips.call_count == clipped_alone


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(list(ScenarioKind)),
    d=st.floats(min_value=2.0, max_value=3.0) | st.floats(min_value=2.0, max_value=7.0),
    controls=st.lists(st.tuples(st.floats(0.5, 50.0), st.floats(-1.0, 1.0)), min_size=2, max_size=4),
    cfg=st.sampled_from((SimConfig(), SimConfig(dt=0.005, settle_frames=0), SimConfig(dt=0.02, horizon=9.0))),
    # the last two stop short of firing on most contacts before the trigger, and often after it at fewer gates
    defect=st.sampled_from((
        DefectModel(), PERFECT_DETECTOR, TUNNELING,
        DefectModel(sample_period=1, min_penetration=0.3, min_impact_speed=50.0),
        DefectModel(sample_period=3, min_penetration=1.0, min_impact_speed=0.0),
    )),
    data=st.data(),
)
def test_traces_of_one_cruise_stage_score_as_their_whole_trace_references(kind, d, controls, cfg, defect, data):
    """Executions at several (v_hat, a) share one cruise stage, and each scores as its whole-trace reference.

    The traces are scored in a drawn order, so whichever comes first fills
    the stage's memo, and each is asked its overlap walk, max_iou, builtin_cd,
    silenced_by and check_ic at drawn thresholds (0, random ones, the
    sweep's, the exact peak and its neighbours) in a drawn order. Every
    answer has the bits of the references: the former walk of every phase
    and the whole-trace peak and detector. A stage that touches before its
    trigger is read by every trace and keeps the peak with its reach and the
    defect model's count.
    """
    spec, cruise = make_seed(kind)[0], None
    cases, traces = [ControlParameters.from_angle(d=d, v_hat=v_hat, a=a) for v_hat, a in controls], []
    for params in cases:
        traces.append(simulate(spec, params, cfg, cruise))
        cruise = traces[-1].cruise
    assert all(trace.cruise is cruise for trace in traces)
    for i in data.draw(st.permutations(range(len(traces)))):
        trace, ref = traces[i], simulate_full(spec, cases[i], cfg)
        peak, fired = max_iou_whole_trace(trace_arrays(simulate(spec, cases[i], cfg))), builtin_cd_full(ref, defect)
        near = [t for t in (peak, math.nextafter(peak, 0.0), math.nextafter(peak, 1.0)) if 0.0 < t < 1.0]
        pool = st.floats(0.0, 1.0, exclude_max=True) | st.sampled_from((0.0, *near, *SWEEP[1:]))
        asks = ["overlap_walk", "max_iou", "builtin_cd", "silenced_by", *data.draw(st.lists(pool, max_size=6))]
        for ask in data.draw(st.permutations(asks)):
            if ask == "overlap_walk":
                (want_bounds, want_frames), (bounds, frames) = overlap_frames_former(trace), _walked(trace)
                assert list(map(float.hex, bounds)) == list(map(float.hex, want_bounds)), i
                assert [list(map(float.hex, f)) for f in frames] == [list(map(float.hex, f)) for f in want_frames], i
            elif ask == "max_iou":
                assert max_iou(trace).hex() == peak.hex(), (i, ask)
            elif ask == "builtin_cd":
                assert builtin_cd(trace, defect) is fired, (i, ask)
            elif ask == "silenced_by":
                assert silenced_by(trace, defect) == silenced_by_full(ref, defect), (i, ask)
            else:
                cond1 = ref.first_contact is not None if ask == 0.0 else peak >= ask
                assert check_ic(trace, defect, OracleConfig(ask)) is classify(cond1, fired), (i, ask, peak)
    if cruise.first_contact is None:
        assert cruise.memo == {}
    else:
        assert all(trace.stage_memo is cruise.memo for trace in traces)
        assert cruise.memo.keys() == {oracle._PeakCursor, defect}


def test_traces_derived_from_a_simulated_one_never_read_its_stages_memo():
    """Other phases (_scaled, _turned), other halves, a cut length, no stage or no change: the trace reads no stage memo.

    Each derived trace is scored before the simulated one fills its stage's
    memo and again after, with the same answers, and leaves the memo empty.
    A stage whose halves make the clip of its frames before the trigger
    raise gives the error of a clip of every frame in time order, and keeps
    no peak.
    """
    spec, params = make_seed(ScenarioKind.FLB)[0], ControlParameters.from_angle(d=2.0, v_hat=20.0, a=0.2)
    trace = simulate(spec, params)
    stage = trace.cruise
    assert stage.first_contact is not None and stage.first_contact < stage.trigger < trace.length
    ev_hl, ev_hw = trace.ev_half
    derived = [
        _scaled(trace, 2.0),
        _turned(trace, 1e16),
        dataclasses.replace(trace, ev_half=(ev_hl * 1.5, ev_hw), memo={}),
        dataclasses.replace(trace, npc_half=(trace.npc_half[0], 2.0), memo={}),
        dataclasses.replace(trace, length=trace.length - 1, memo={}),
        dataclasses.replace(trace, cruise=None, memo={}),
        dataclasses.replace(trace, memo={}),
    ]

    def scores(trace):
        verdicts = [check_ic(trace, defect, OracleConfig(t)) for t in SWEEP for defect in (DefectModel(), TUNNELING)]
        return max_iou(trace).hex(), verdicts, silenced_by(trace, DefectModel()), silenced_by(trace, TUNNELING)

    assert all(other.stage_memo is None for other in derived)
    before = [scores(other) for other in derived]
    assert stage.memo == {}
    scores(trace)
    assert trace.stage_memo is stage.memo
    assert stage.memo.keys() == {oracle._PeakCursor, DefectModel(), TUNNELING}
    assert [scores(dataclasses.replace(other, memo={})) for other in derived] == before

    widened = dataclasses.replace(stage, npc_half=(math.inf, stage.npc_half[1]))
    raising = simulate(spec, params, stage.cfg, widened)
    assert raising.cruise is widened and widened.memo == {} and raising.stage_memo is widened.memo
    with pytest.raises(ValueError) as want:
        max_iou(dataclasses.replace(raising, cruise=None, memo={}))
    assert str(want.value).startswith("non-finite point")
    for t in (0.05, 0.5):
        with pytest.raises(ValueError) as got:
            check_ic(raising, DefectModel(), OracleConfig(t))
        assert str(got.value) == str(want.value)
        assert oracle._PeakCursor not in widened.memo and raising.memo == {}


def test_overlap_bounds_are_taken_along_the_normals_of_the_wrapped_yaws():
    """The IoU bounds come from the overlaps along the phase's own face normals, which are the corners' too.

    1e16 rad added to the EV yaw wraps to another heading than the phase's
    own cos and sin give (the wrap rounds at that magnitude); the corners
    take the phase's own, so the ground truth and the clip see the same
    boxes, and every listed frame's bound covers the IoU of those boxes.
    """
    for trace in _default_sweep_traces()[:200]:
        if trace.first_contact is None:
            continue
        phases = []
        for phase in trace.phases:
            yaw = phase.ev_yaw + 1e16
            axes, radii = _face_normals(yaw, trace.ev_half, trace.npc_yaw, trace.npc_half)
            phases.append(phase._replace(ev_yaw=yaw, axes=axes, radii=radii))
        turned = dataclasses.replace(trace, phases=tuple(phases), memo={})
        bounds, _ = _walked(turned)
        areas = rect_area(*turned.ev_half), rect_area(*turned.npc_half)
        ious = [corners_iou(ev, npc, *areas) for ev, npc in overlap_corners(trace_arrays(turned))]
        assert len(bounds) == len(ious)
        assert all(bound >= iou for bound, iou in zip(bounds, ious))


def test_peak_iou_clips_the_boxes_the_ground_truth_tested_at_an_npc_yaw_of_pi():
    """At an NPC yaw of pi, which a config may give, max_iou clips the corners of each phase's face normals.

    pi lies outside [-pi, pi), so wrapping it turns the NPC box to -pi, whose
    sine has the other sign: clipping those corners moves the last bits of
    many peaks. The peak is the largest corners_iou of the corners built
    from each phase's axes[0] (the EV heading) and axes[2] (the NPC's), bit
    for bit, and every frame's IoU bound covers that frame's IoU.
    """
    config = parse_config(
        {"kinds": ["FLB"], "budget": 60, "oracle": {"t_bbox": 0.1}, "scenario_overrides": {"FLB": {"npc": {"yaw": math.pi}}}}
    )
    spec, cruise = config.seed_for(ScenarioKind.FLB)[0], None
    assert spec.npc.yaw == math.pi
    touched = 0
    for rec in run_campaign(config).records:
        trace = simulate(spec, rec.params, config.sim, cruise)
        cruise = trace.cruise
        areas, ious = (rect_area(*trace.ev_half), rect_area(*trace.npc_half)), []
        if trace.first_contact is not None:
            for phase, span in trace.phase_frames(range(trace.first_contact, trace.length)):
                for _, ex, ey, nx, ny, *overlaps in phase.frames(span):
                    if all(o >= 0.0 for o in overlaps):
                        ev = rect_corners(ex, ey, *trace.ev_half, *phase.axes[0])
                        npc = rect_corners(nx, ny, *trace.npc_half, *phase.axes[2])
                        ious.append(corners_iou(ev, npc, *areas))
        touched += bool(ious)
        assert max_iou(trace).hex() == max(ious, default=0.0).hex(), rec.ordinal
        bounds, _ = _walked(trace)
        assert len(bounds) == len(ious) and all(bound >= iou for bound, iou in zip(bounds, ious)), rec.ordinal
    assert touched > 0


def _scaled(trace, scale):
    """The trace with every length times scale, a power of two: each float scales exactly until it overflows."""
    fields = ("npc_origin", "npc_velocity", "ev_origin", "ev_velocity", "radii")
    phases = tuple(
        phase._replace(**{name: tuple(v * scale for v in getattr(phase, name)) for name in fields})
        for phase in trace.phases
    )
    halves = {name: tuple(h * scale for h in getattr(trace, name)) for name in ("ev_half", "npc_half")}
    return dataclasses.replace(trace, phases=phases, memo={}, **halves)


def _turned(trace, turn):
    """The trace with turn rad added to each phase's EV yaw, and its normals taken at the new yaw."""
    phases = []
    for phase in trace.phases:
        yaw = phase.ev_yaw + turn
        axes, radii = _face_normals(yaw, trace.ev_half, trace.npc_yaw, trace.npc_half)
        phases.append(phase._replace(ev_yaw=yaw, axes=axes, radii=radii))
    return dataclasses.replace(trace, phases=tuple(phases), memo={})


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(list(ScenarioKind)),
    d=st.floats(min_value=2.0, max_value=7.0),
    v_hat=st.floats(min_value=0.5, max_value=50.0),
    a=st.floats(min_value=-1.0, max_value=1.0),
    cfg=st.sampled_from((SimConfig(), SimConfig(dt=0.005, settle_frames=0), SimConfig(dt=0.02, horizon=9.0))),
    scale=st.sampled_from((1.0, 2.0**-40, 2.0**200, 2.0**1000, 2.0**1012, 2.0**1016, 2.0**1019, 2.0**1023)),
    turn=st.sampled_from((0.0, 1e16)),
)
def test_overlap_frames_match_the_former_walk(kind, d, v_hat, a, cfg, scale, turn):
    """overlap_walk gives the bounds and frames of the former filter recipe, bit for bit.

    The trace is turned by 0 or 1e16 rad, as in
    test_overlap_bounds_are_taken_along_the_normals_of_the_wrapped_yaws, so
    its yaws lie outside [-pi, pi) and the walk must still take the phases'
    own normals and headings, and then scaled as _scaled scales it, so large
    scales overflow centers, overlaps and reach into inf and NaN.
    """
    trace = simulate(make_seed(kind)[0], ControlParameters.from_angle(d=d, v_hat=v_hat, a=a), cfg)
    trace = _scaled(_turned(trace, turn) if turn else trace, scale)
    (want_bounds, want_frames), (bounds, frames) = overlap_frames_former(trace), _walked(trace)
    assert list(map(float.hex, bounds)) == list(map(float.hex, want_bounds))
    assert [list(map(float.hex, f)) for f in frames] == [list(map(float.hex, f)) for f in want_frames]


@pytest.mark.parametrize(
    "nan_at, ev_yaw, npc_yaw", [(0, math.pi / 4, 0.0), (1, -math.pi / 4, 0.0), (2, 0.0, math.pi / 4), (3, 0.0, -math.pi / 4)]
)
def test_overlap_frames_drop_a_frame_whose_overlap_is_nan_at_any_normal(nan_at, ev_yaw, npc_yaw):
    """A frame with one NaN overlap and three infinite ones is apart, wherever the NaN falls, as in the former walk.

    Boxes with infinite extents at center offset (1.7e308, 1.7e308): the one
    normal at 45 degrees to both axes projects the offset to inf, so its
    overlap is inf - inf, and the others project it to a finite value.
    """
    axes, _ = _face_normals(ev_yaw, (1.0, 1.0), npc_yaw, (1.0, 1.0))
    huge, at_rest = 1.7e308, (0.0, 0.0)
    phase = _Phase(0, 0, 0.01, (huge, huge), at_rest, 0.0, at_rest, at_rest, ev_yaw, axes, (math.inf,) * 4)
    overlaps = next(phase.frames((0,)))[5:]
    assert [math.isnan(o) for o in overlaps] == [k == nan_at for k in range(4)]
    assert all(o == math.inf for o in overlaps if not math.isnan(o))
    trace = Trace(0, None, (1.0, 1.0), (1.0, 1.0), 1, 0.01, npc_yaw, (phase,), cruise=None)
    assert _walked(trace) == overlap_frames_former(trace) == ([], [])


def _corner_error(trace, frame) -> str | None:
    ex, ey, ec, es, nx, ny = frame
    try:
        rect_corners(ex, ey, *trace.ev_half, ec, es)
        rect_corners(nx, ny, *trace.npc_half, math.cos(trace.npc_yaw), math.sin(trace.npc_yaw))
    except ValueError as exc:
        return str(exc)
    return None


def test_non_finite_corner_error_comes_from_the_first_overlap_frame_in_time_order():
    spec, _ = make_seed(ScenarioKind.InC)
    trace = simulate(spec, ControlParameters.from_angle(d=3.0, v_hat=20.0, a=0.3))
    bounds, frames = _walked(trace)
    # scaled up, the corners of the later overlap frames overflow, those of the earlier ones do not
    big = _scaled(trace, 2.0**1019)
    big_frames = _walked(big)[1]
    assert len(big_frames) == len(frames)
    errors = [_corner_error(big, frame) for frame in big_frames]
    first = next(i for i, error in enumerate(errors) if error)
    by_bound = next(i for i in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True) if errors[i])
    assert 0 < first and errors[first] != errors[by_bound]
    with np.errstate(all="ignore"), pytest.raises(ValueError) as want:
        overlap_corners(trace_arrays(big))
    with pytest.raises(ValueError) as got:
        max_iou(big)
    assert str(got.value) == str(want.value) == errors[first]
    assert "max_iou" not in big.memo


def test_non_finite_corner_error_comes_from_check_ic_at_every_threshold(monkeypatch):
    spec, _ = make_seed(ScenarioKind.InC)
    trace = simulate(spec, ControlParameters.from_angle(d=3.0, v_hat=20.0, a=0.3))
    big = _scaled(trace, 2.0**1019)
    bounds, frames = _walked(big)
    assert bounds == [math.inf] * len(frames)
    first = next(i for i, frame in enumerate(frames) if _corner_error(big, frame))
    with pytest.raises(ValueError) as want:
        max_iou(big)
    # the IoUs of the frames before the first non-finite corner, unscaled: scaling leaves an IoU as it is
    areas = rect_area(*trace.ev_half), rect_area(*trace.npc_half)
    earlier = [corners_iou(ev, npc, *areas) for ev, npc in overlap_corners(trace_arrays(trace))[:first]]
    assert 0.0 < min(earlier)
    thresholds = [*earlier, 1e-300, 0.05, 0.5, math.nextafter(1.0, 0.0)]
    # scaled, the shoelace overflows and every finite frame scores 0; then every one scores 1
    for scored in ("as computed", "every finite frame reaches every t"):
        for t in thresholds:
            with pytest.raises(ValueError) as got:
                check_ic(big, DefectModel(), OracleConfig(t))
            assert str(got.value) == str(want.value), (scored, t)
            assert big.memo == {}
        monkeypatch.setattr(oracle, "corners_iou", lambda *args: 1.0)


def test_oracle_config_range():
    with pytest.raises(ValueError):
        OracleConfig(t_bbox=1.0)
    with pytest.raises(ValueError):
        OracleConfig(t_bbox=-0.1)


def _labeled_set():
    defect = DefectModel()
    labeled = []
    rng = np.random.default_rng(41)
    for kind in (ScenarioKind.PSF, ScenarioKind.FLB, ScenarioKind.InC):
        spec, _ = make_seed(kind)
        for _ in range(30):
            params = ControlParameters.from_angle(
                d=float(rng.uniform(2, 7)), v_hat=float(rng.uniform(1, 50)), a=float(rng.uniform(-1, 1))
            )
            trace = simulate(spec, params)
            label = ground_truth(trace) is not None and not builtin_cd(trace, defect)
            labeled.append((trace, label))
    spec, _ = make_seed(ScenarioKind.PSF)
    labeled.append((simulate(spec, PSF_GRAZE), True))
    return labeled


def test_recall_sweep_trend():
    labeled = _labeled_set()
    assert sum(1 for _, lab in labeled if lab) > 0
    points = recall_sweep(labeled, [0.0, 0.05, 0.1, 0.15, 0.2])
    assert points[0].recall == 1.0
    assert points[0].precision == 1.0
    recalls = [p.recall for p in points]
    assert all(r is not None for r in recalls)
    assert all(recalls[i] >= recalls[i + 1] for i in range(len(recalls) - 1))


def test_recall_sweep_rejects_empty_input():
    with pytest.raises(ValueError):
        recall_sweep([], [0.0])


def test_recall_sweep_all_negative_reports_absent_recall():
    spec, _ = make_seed(ScenarioKind.PSF)
    trace = simulate(spec, ControlParameters.from_angle(d=7.0, v_hat=15.0, a=1.0))
    points = recall_sweep([(trace, False)], [0.0, 0.1])
    assert all(p.recall is None for p in points)
    assert all(p.tp == 0 for p in points)


def test_memoised_verdicts_do_not_leak_across_defect_models():
    # the graze is caught by the perfect and the tunneling detector but not
    # the default one; the FLB seed by the perfect and default but not the
    # tunneling one
    models = (PERFECT_DETECTOR, DefectModel(), TUNNELING)
    cases = [(ScenarioKind.PSF, PSF_GRAZE), (ScenarioKind.FLB, make_seed(ScenarioKind.FLB)[1])]
    for kind, params in cases:
        spec, _ = make_seed(kind)
        ref = simulate_full(spec, params)
        expected = {defect: builtin_cd_full(ref, defect) for defect in models}
        assert len(set(expected.values())) == 2
        for order in (models, models[::-1]):
            trace = simulate(spec, params)
            for defect in order:
                want = classify(ref.first_contact is not None, expected[defect])
                # check_ic first in one order, builtin_cd first in the other
                if order is models:
                    assert check_ic(trace, defect) is want, (kind, defect)
                    assert builtin_cd(trace, defect) is expected[defect], (kind, defect)
                else:
                    assert builtin_cd(trace, defect) is expected[defect], (kind, defect)
                    assert check_ic(trace, defect) is want, (kind, defect)
            # scored again with the first model, after the others
            assert builtin_cd(trace, order[0]) is expected[order[0]], (kind, order[0])

