"""The located simulator against the full-array reference in sim_oracle.

Every case must agree on the trigger frame, the first-contact frame, the
trace length and duration, the built-in verdict and the gate that silenced it
under several defect models, and every per-frame array bit for bit. The
built-in verdict must also agree under defect models whose thresholds equal,
or neighbour, a frame's own penetration and closing speed. The segment-wise
trace encoder must write the same bytes as the per-frame reference encoder,
also when its columns hold runs of values that == cannot tell apart,
and the peak IoU read from the frames after first contact must equal the
whole-trace loop over the object-based reference IoU, with the same corner
floats at the same overlap frames.
A trace built on a cruise stage shared with other (v_hat, a) must equal one
simulated from scratch.
"""

import copy
import dataclasses
import json
import math
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from silentcrash.detector import PERFECT_DETECTOR, DefectModel, builtin_cd, silenced_by
from silentcrash.geometry import Point2, corners
from silentcrash.oracle import max_iou
from silentcrash.scenario import Behavior, BehaviorKind, ControlParameters, ScenarioKind, apply_overrides, make_seed
from silentcrash.simulator import (
    SimConfig,
    TextBudget,
    _json_bools,
    _json_floats,
    _json_scalar,
    _json_times,
    cruise_stage,
    simulate,
    trace_to_jsonl,
)
from sim_oracle import (
    assert_same_text,
    builtin_cd_full,
    ev_box,
    max_iou_whole_trace,
    npc_box,
    overlap_corners,
    silenced_by_full,
    simulate_full,
    trace_arrays,
    trace_to_jsonl_per_frame,
)
from test_oracle import _walked

DEFECTS = (
    DefectModel(),
    PERFECT_DETECTOR,
    DefectModel(sample_period=40, min_penetration=0.0, min_impact_speed=0.0),
    DefectModel(sample_period=1, min_penetration=0.0, min_impact_speed=3.0),
    DefectModel(sample_period=3, min_penetration=0.01, min_impact_speed=0.1),
)
ARRAYS = (
    "times",
    "ev_centers",
    "ev_yaws",
    "npc_centers",
    "npc_yaws",
    "gt_overlap",
    "penetration",
    "closing_speed",
    "triggered",
)
CONFIGS = (SimConfig(), SimConfig(dt=0.005, settle_frames=0), SimConfig(dt=0.02, horizon=9.0, settle_frames=45))


def assert_equivalent(spec, params, cfg, cruise=None):
    trace = simulate(spec, params, cfg, cruise)
    ref = simulate_full(spec, params, cfg)
    case = (spec.kind.value, params, cfg)
    assert trace.trigger_frame == ref.trigger_frame, case
    assert trace.first_contact == ref.first_contact, case
    assert len(trace) == ref.length, case
    assert trace.duration == ref.duration, case
    for defect in DEFECTS:
        assert builtin_cd(trace, defect) == builtin_cd_full(ref, defect), (case, defect)
        assert silenced_by(trace, defect) == silenced_by_full(ref, defect), (case, defect)
    arrays = trace_arrays(trace)
    for name in ARRAYS:
        got, want = getattr(arrays, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, (case, name)
        assert got.tobytes() == want.tobytes(), (case, name)
    return trace


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_random_parameters(kind):
    rng = np.random.default_rng([7, list(ScenarioKind).index(kind)])
    spec, _ = make_seed(kind)
    for i in range(60):
        params = ControlParameters.from_angle(
            d=float(rng.uniform(2, 7)), v_hat=float(rng.uniform(0.5, 50)), a=float(rng.uniform(-1, 1))
        )
        assert_equivalent(spec, params, CONFIGS[i % len(CONFIGS)])


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_grid_aligned_parameters(kind):
    spec, _ = make_seed(kind)
    for d in (2.0, 3.0, 4.5, 6.0, 7.0):
        for v_hat in (5.0, 10.0, 25.0, 50.0):
            for a in (-1.0, -0.5, -0.06, 0.0, 0.25, 1.0):
                assert_equivalent(spec, ControlParameters.from_angle(d=d, v_hat=v_hat, a=a), SimConfig())


def test_static_psf_trigger_at_exactly_d():
    # the EV covers 0.15 m per frame toward a pedestrian 30 m ahead; d equal
    # to the per-frame distance puts the trigger test on an exact tie, and
    # its neighbouring doubles fall on either side of it
    spec, _ = make_seed(ScenarioKind.PSF)
    ties = 0
    for k in range(154, 187, 4):
        exact = abs(spec.npc.position.x - (spec.ev.position.x + (k * 0.01) * spec.ev.behavior.speed))
        for d in (np.nextafter(exact, 0.0), exact, np.nextafter(exact, 10.0)):
            for a in (0.0, 0.6, 1.0):
                params = ControlParameters.from_angle(d=float(d), v_hat=12.0, a=a)
                trace = assert_equivalent(spec, params, SimConfig())
                ties += trace.trigger_frame == k and d == exact
    assert ties > 0


def test_lc_lateral_offset_equal_to_summed_half_widths():
    # the NPC slides past exactly flush with the EV side: the lateral axis
    # overlap is zero, which still counts as contact
    spec, _ = make_seed(ScenarioKind.LC)
    flush = spec.ev.half_width + spec.npc.half_width
    touches = 0
    for y in (np.nextafter(flush, 0.0), flush, np.nextafter(flush, 10.0), -flush):
        shifted = apply_overrides(spec, {"npc": {"y": float(y)}})
        for d in (2.0, 2.5, 4.0, 7.0):
            for v_hat in (15.0, 25.0, 40.0):
                trace = assert_equivalent(shifted, ControlParameters.from_angle(d=d, v_hat=v_hat, a=0.0), SimConfig())
                if trace.first_contact is not None and abs(y) == flush:
                    touches += float(trace_arrays(trace).penetration[trace.first_contact]) == 0.0
    assert touches > 0


def _tie_models(ref, i):
    """Defect models that inspect frame i (and few others) with thresholds at or next to its values.

    The penetration and closing speed come from the reference arrays, so a
    closing speed evaluated with another hypot lands on either side of it.
    """
    pen, closing = float(ref.penetration[i]), float(ref.closing_speed[i])
    depths = {d for d in (pen, np.nextafter(pen, 0.0), np.nextafter(pen, np.inf)) if d >= 0.0}
    speeds = {c for c in (closing, np.nextafter(closing, 0.0), np.nextafter(closing, np.inf)) if c > 0.0}
    k = max(i, 1)
    models = [DefectModel(k, float(d), 0.0) for d in depths]
    models += [DefectModel(k, depth, float(c)) for c in speeds for depth in (0.0, pen)]
    return models


def _tie_cases():
    """(spec, params, cfg) of random executions of every kind, plus contacts that span the trigger frame."""
    cases = []
    for kind in ScenarioKind:
        rng = np.random.default_rng([23, list(ScenarioKind).index(kind)])
        spec, _ = make_seed(kind)
        for i in range(30):
            params = ControlParameters.from_angle(
                d=float(rng.uniform(2, 7)), v_hat=float(rng.uniform(0.5, 50)), a=float(rng.uniform(-1, 1))
            )
            cases.append((spec, params, CONFIGS[i % len(CONFIGS)]))
        # a standing NPC dead ahead: contact starts on the cruise path and the
        # trigger can fall inside it
        ev = spec.ev.position
        standing = _standing(apply_overrides(spec, {"npc": {"x": ev.x + 20.0, "y": ev.y}}))
        for d in (2.0, 2.3, 2.6, 3.0):
            for v_hat, a in SWITCHES:
                cases += [(standing, ControlParameters.from_angle(d=d, v_hat=v_hat, a=a), cfg) for cfg in CONFIGS]
    return cases


def _hypot_split_frames(ref):
    """Contact frames whose center distance math.hypot rounds differently from math.sqrt(dx*dx + dy*dy).

    The simulator computes the latter. At these frames a closing speed
    computed from hypot would land on the other side of a tie threshold.
    """
    delta = (ref.npc_centers - ref.ev_centers).tolist()
    return {
        i
        for i in np.flatnonzero(ref.gt_overlap).tolist()
        if math.hypot(*delta[i]) != math.sqrt(delta[i][0] * delta[i][0] + delta[i][1] * delta[i][1])
    }


def test_builtin_verdict_on_exact_ties():
    # ties at the first and deepest contact frames, the last frame, around the
    # trigger frame, and wherever hypot and sqrt(dx*dx + dy*dy) disagree in
    # the last bit
    checked = boundary = hypot_split = 0
    for spec, params, cfg in _tie_cases():
        trace, ref = simulate(spec, params, cfg), simulate_full(spec, params, cfg)
        case = (spec.kind.value, params, cfg)
        for defect in DEFECTS:
            assert builtin_cd(trace, defect) == builtin_cd_full(ref, defect), (case, defect)
        if ref.first_contact is None:
            continue
        unequal = _hypot_split_frames(ref)
        frames = {ref.first_contact, ref.length - 1, int(np.argmax(ref.penetration)), *unequal}
        if ref.trigger_frame is not None:
            frames |= {ref.trigger_frame - 1, ref.trigger_frame, ref.trigger_frame + 1}
        for i in sorted(frames):
            if not (0 <= i < ref.length and ref.gt_overlap[i]):
                continue
            boundary += i + 1 == ref.trigger_frame
            hypot_split += i in unequal
            for defect in _tie_models(ref, i):
                assert builtin_cd(trace, defect) == builtin_cd_full(ref, defect), (case, i, defect)
                assert silenced_by(trace, defect) == silenced_by_full(ref, defect), (case, i, defect)
                checked += 1
    assert checked > 3000 and boundary > 0 and hypot_split > 0, (checked, boundary, hypot_split)


def _started_in_contact(spec):
    """spec with the NPC moved onto the EV; skips ScenarioSpec's check that actors start disjoint."""
    moved = copy.copy(spec)
    object.__setattr__(moved, "npc", dataclasses.replace(spec.npc, position=Point2(1.0, 0.5)))
    return moved


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_trace_jsonl_matches_per_frame_encoder(kind):
    rng = np.random.default_rng([13, list(ScenarioKind).index(kind)])
    spec, seed_params = make_seed(kind)
    cases = []
    for i in range(20):
        params = ControlParameters.from_angle(
            d=float(rng.uniform(2, 7)), v_hat=float(rng.uniform(0.5, 50)), a=float(rng.uniform(-1, 1))
        )
        cases.append((spec, params, CONFIGS[i % len(CONFIGS)]))
    integer_halves = dataclasses.replace(spec, ev=dataclasses.replace(spec.ev, half_length=2, half_width=1))
    cases += [
        (apply_overrides(spec, {"npc": {"x": 400.0}}), seed_params, SimConfig()),
        (_started_in_contact(spec), seed_params, SimConfig()),
        (integer_halves, seed_params, SimConfig()),
    ]
    traces = [assert_equivalent(*case) for case in cases]
    for case, trace in zip(cases, traces):
        assert_same_text(trace_to_jsonl(trace, TextBudget()), trace_to_jsonl_per_frame(trace), case)
    horizon = int(round(SimConfig().horizon / SimConfig().dt)) + 1
    assert any(t.trigger_frame is None for t in traces)
    assert any(t.first_contact == 0 for t in traces)
    assert any(t.first_contact is None and len(t) == horizon for t in traces)
    assert any(t.first_contact is not None and t.first_contact > 0 for t in traces)


def test_trace_jsonl_spells_non_finite_and_signed_zero_like_json_dumps():
    trace = simulate(*make_seed(ScenarioKind.FLV))
    # the encoder and the reference's trace_arrays read trace.frame_block;
    # write into two rows of its block and have frame_block give that block
    block = trace.frame_block(range(len(trace)))
    block[0, :4] = [np.nan, np.inf, -np.inf, -0.0]  # closing_speed
    block[6, -1] = np.inf  # penetration
    trace.frame_block = lambda frames: block[:, frames.start : frames.stop]
    text = trace_to_jsonl(trace, TextBudget())
    assert_same_text(text, trace_to_jsonl_per_frame(trace), "non-finite")
    assert '"closing_speed": NaN' in text and '"closing_speed": -Infinity' in text
    assert '"closing_speed": -0.0' in text


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_max_iou_matches_whole_trace_loop(kind):
    rng = np.random.default_rng([17, list(ScenarioKind).index(kind)])
    spec, seed_params = make_seed(kind)
    cases = [(_started_in_contact(spec), seed_params, SimConfig())]
    for i in range(40):
        params = ControlParameters.from_angle(
            d=float(rng.uniform(2, 7)), v_hat=float(rng.uniform(0.5, 50)), a=float(rng.uniform(-1, 1))
        )
        cases.append((spec, params, CONFIGS[i % len(CONFIGS)]))
    contacts = 0
    for case in cases:
        # score first, so that max_iou cannot lean on arrays the reference builds
        trace = simulate(*case)
        peak = max_iou(trace)
        arrays = trace_arrays(trace)
        assert peak == max_iou_whole_trace(arrays), case
        overlap = np.flatnonzero(arrays.gt_overlap).tolist()
        want = np.array([(corners(ev_box(arrays, i)), corners(npc_box(arrays, i))) for i in overlap])
        got = np.array(overlap_corners(arrays))
        assert got.shape == want.shape and (got.view(np.int64) == want.view(np.int64)).all(), case
        # the walk the peak is clipped from lists the same frames, with the arrays' centers
        walked = np.array([(ex, ey, nx, ny) for ex, ey, _, _, nx, ny in _walked(trace)[1]]).reshape(-1, 4)
        centers = np.hstack((arrays.ev_centers[overlap], arrays.npc_centers[overlap]))
        assert walked.shape == centers.shape and (walked.view(np.int64) == centers.view(np.int64)).all(), case
        contacts += peak > 0.0
    assert contacts > 0


def _standing(spec):
    return dataclasses.replace(spec, npc=dataclasses.replace(spec.npc, behavior=Behavior(BehaviorKind.STATIC)))


SWITCHES = ((0.5, 0.0), (7.5, -0.06), (12.0, 0.6), (30.0, -1.0), (50.0, 0.25))


@pytest.mark.parametrize("kind", list(ScenarioKind))
def test_shared_cruise_stage_matches_fresh_simulate(kind):
    spec, _ = make_seed(kind)
    ev = spec.ev.position
    cases = {
        "trigger": (spec, 4.0),
        "trigger-at-0": (apply_overrides(spec, {"npc": {"x": ev.x + 6.0, "y": ev.y}}), 7.0),
        "no-trigger": (apply_overrides(spec, {"npc": {"x": 400.0}}), 2.0),
        # a standing NPC dead ahead is hit at a center distance above d
        "contact-first": (_standing(apply_overrides(spec, {"npc": {"x": ev.x + 20.0, "y": ev.y}})), 2.0),
    }
    for cfg in CONFIGS:
        stages = {}
        for label, (case_spec, d) in cases.items():
            stage = stages[label] = cruise_stage(case_spec, d, cfg)
            for v_hat, a in SWITCHES:
                params = ControlParameters.from_angle(d=d, v_hat=v_hat, a=a)
                fresh = assert_equivalent(case_spec, params, cfg)
                shared = assert_equivalent(case_spec, params, cfg, stage)
                assert shared.cruise is stage and fresh.cruise is not stage
                shared_arrays, fresh_arrays = trace_arrays(shared), trace_arrays(fresh)
                for name in ARRAYS:
                    got, want = getattr(shared_arrays, name), getattr(fresh_arrays, name)
                    assert got.tobytes() == want.tobytes(), (label, params, name)
        assert stages["trigger"].trigger > 0
        assert stages["trigger-at-0"].trigger == 0 and stages["trigger-at-0"].phases == ()
        assert stages["no-trigger"].trigger is None
        contact = stages["contact-first"]
        assert contact.first_contact is not None
        assert contact.trigger is None or contact.first_contact < contact.trigger


def test_stage_built_for_other_inputs_is_not_used():
    spec, _ = make_seed(ScenarioKind.FLV)
    psf, _ = make_seed(ScenarioKind.PSF)
    params = ControlParameters.from_angle(d=4.0, v_hat=20.0, a=0.3)
    cfg = CONFIGS[0]
    assert simulate(spec, params, cfg, cruise_stage(spec, 4.0, cfg)).cruise.fits(spec, 4.0, cfg)
    for stage in (cruise_stage(spec, 5.0, cfg), cruise_stage(psf, 4.0, cfg), cruise_stage(spec, 4.0, CONFIGS[1])):
        trace = assert_equivalent(spec, params, cfg, stage)
        assert trace.cruise is not stage


def _run_cases():
    """label -> (spec, params, cfg) of traces whose segment cuts fall on frame 0, coincide or are clipped."""
    spec, seed_params = make_seed(ScenarioKind.FLV)
    ahead = _standing(apply_overrides(spec, {"npc": {"x": 20.0, "y": 0.0}}))
    close = apply_overrides(spec, {"npc": {"x": 6.0, "y": 0.0}})
    return {
        "trigger-at-0": (close, ControlParameters.from_angle(7.0, 20.0, 0.25), SimConfig()),
        "contact-at-0": (_started_in_contact(spec), seed_params, SimConfig()),
        # d is the two cars' summed half lengths, so the trigger and first
        # contact fall on one frame
        "contact-at-trigger": (ahead, ControlParameters.from_angle(4.6, 5.0, 0.0), SimConfig()),
        "settle-clipped": (spec, ControlParameters.from_angle(6.0, 20.0, 0.0), SimConfig(dt=0.02, settle_frames=2000)),
        "no-trigger": (apply_overrides(spec, {"npc": {"x": 400.0}}), seed_params, CONFIGS[1]),
    }


RUN_CASES = _run_cases()
# spellings json.dumps distinguishes although == does not (0.0, -0.0), or
# although no two of them compare equal (NaN)
RUN_VALUES = (0.0, -0.0, math.nan, math.inf, -math.inf, 1.5, -2.25, 1e-7, 123456.789)


def _cuts(trace):
    """Frames where the encoder may start a segment: phase starts and first contact."""
    return {phase.first for phase in trace.phases if phase.first < len(trace)} | {trace.first_contact or 0}


@st.composite
def _runs(draw, column, marks):
    """column with runs of RUN_VALUES (or of its own values) between boundaries on, next to and away from marks."""
    n = len(column)
    near = sorted({m + k for m in marks for k in (-1, 0, 1) if 0 < m + k < n})
    anywhere = st.integers(1, n - 1) if n > 1 else st.nothing()
    bounds = sorted({0, n, *draw(st.lists(st.sampled_from(near) | anywhere if near else anywhere, max_size=6))})
    out = column.copy()
    for lo, hi in zip(bounds, bounds[1:]):
        value = draw(st.sampled_from((None, *RUN_VALUES)))
        if value is not None:
            out[lo:hi] = value
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data(), label=st.sampled_from(sorted(RUN_CASES)))
def test_trace_jsonl_spells_runs_like_per_frame_encoder(data, label):
    trace = simulate(*RUN_CASES[label])
    marks = _cuts(trace)
    # the encoder and the reference's trace_arrays read trace.frame_block;
    # fill the rows of its block with runs that start and end on, next to
    # and away from the segment cuts, and have frame_block give that block
    block = trace.frame_block(range(len(trace)))
    for row in (0, 6, 1, 2, 4, 5):  # closing_speed, penetration, the EV and NPC centers
        block[row] = data.draw(_runs(block[row], marks))
    gt = data.draw(_runs(block[3], marks))
    block[3] = np.where(np.isnan(gt), False, gt != 0.0)  # gt_overlap
    trace.frame_block = lambda frames: block[:, frames.start : frames.stop]
    # the budget's NPC rows are spelled from the phases, not the block, so
    # this budget has none to give: every segment is spelled from the block
    budget = TextBudget()
    budget.npc_rows = lambda phase, fixed: None
    assert_same_text(trace_to_jsonl(trace, budget), trace_to_jsonl_per_frame(trace), label)


def test_run_cases_put_the_segment_cuts_where_they_are_named():
    traces = {label: simulate(*case) for label, case in RUN_CASES.items()}
    assert traces["trigger-at-0"].trigger_frame == 0
    assert traces["contact-at-0"].first_contact == 0
    assert traces["contact-at-trigger"].first_contact == traces["contact-at-trigger"].trigger_frame > 0
    clipped, cfg = traces["settle-clipped"], RUN_CASES["settle-clipped"][2]
    assert clipped.trigger_frame < clipped.first_contact < len(clipped) - 1 < clipped.first_contact + cfg.settle_frames
    assert traces["no-trigger"].trigger_frame is None and traces["no-trigger"].first_contact is None


# times whose product with 1e9 lies on, or one double either side of, a
# half-integer, where rounding the float product can differ from round()
_NEAR_HALF = st.integers(0, 10**13).map(lambda k: (k + 0.5) / 1e9).flatmap(
    lambda t: st.sampled_from([t, float(np.nextafter(t, 0.0)), float(np.nextafter(t, np.inf))])
)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        _NEAR_HALF | st.floats(0.0, 1e7) | st.floats(0.0, 1e-6) | st.floats(allow_nan=True, allow_infinity=True),
        max_size=40,
    ),
    st.sampled_from([0.01, 0.005, 0.02, 1e-5, 2.0**-10, 1 / 3]),
)
def test_frame_times_are_spelled_like_round_to_9_digits(times, dt):
    for column in (np.array(times, dtype=float), np.arange(len(times) * 50) * dt):
        assert _json_times(column) == [repr(round(t, 9)) for t in column.tolist()]


# orjson spells a float as repr does only for zeros and 1e-4 <= |v| < 1e16;
# these lie on and just outside that range's edges, or are not finite
_FLOAT_EDGES = (0.0, 1e-4, math.nextafter(1e-4, 0.0), math.nextafter(1e16, 0.0), 1e16, 5e-324, 1e300, math.inf)
_IN_ORJSON_RANGE = st.floats(1e-4, math.nextafter(1e16, 0.0)) | st.floats(1e-4, 1e3) | st.just(0.0)
_EDGE = st.sampled_from(_FLOAT_EDGES)


def _orjson_spells(value: float) -> bool:
    return value == 0.0 or 1e-4 <= abs(value) < 1e16


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.tuples(_IN_ORJSON_RANGE | _EDGE | st.just(math.nan) | st.floats(), st.booleans()), min_size=1, max_size=40),
    st.integers(1, 3),
)
@example([(v, False) for v in (0.0, 1e-4, math.nextafter(1e16, 0.0), 123.456)], 1)
@example([(v, True) for v in (0.0, 1e-4, math.nextafter(1e16, 0.0), 123.456)], 2)
@example([(1.5, False)] + [(v, sign) for v in _FLOAT_EDGES for sign in (False, True)] + [(math.nan, False)], 1)
def test_json_floats_spell_like_json_dumps(signed, step):
    """Contiguous and strided columns, in range or mixed: orjson spells a column iff every value is in range."""
    values = [-v if negate else v for v, negate in signed]
    rows = np.array([values, values[::-1]]).T  # rows[:, 0] is a strided view
    for column in (rows[:, 0], rows[::step, 0], np.array(values), np.array(values)[::-step]):
        with mock.patch("orjson.dumps", wraps=orjson.dumps) as spy:
            got = _json_floats(column)
        assert got == [json.dumps(v) for v in column.tolist()]
        assert spy.called == all(map(_orjson_spells, column.tolist())), column


@pytest.mark.parametrize(
    "value",
    [0.0, -0.0, 5e-324, 1e-5, 1e-4, 9.999e15, 1e16, 3e16, math.nan, math.inf, -math.inf, np.float64(2.4), 2]
    + [True, False],
    ids=repr,
)
def test_a_constant_value_is_spelled_like_its_one_frame_column(value):
    """_json_scalar spells a value as json.dumps does, and a float's or a bool's as the column spellers spell it.

    A segment's constant column is spelled from its one value, and the fixed
    fields (half extents, which may be ints or numpy floats, yaws and
    `triggered`) from theirs.
    """
    assert _json_scalar(value) == json.dumps(value)
    if type(value) is bool:
        column = np.array([not value, value])
        spell = _json_bools
    elif isinstance(value, float):
        column = np.array([1.5, value, -value])
        spell = _json_floats
    else:
        return
    for lo in range(1, len(column)):
        assert _json_scalar(column[lo].item()) == spell(column[lo : lo + 1])[0] == json.dumps(column[lo].item())
