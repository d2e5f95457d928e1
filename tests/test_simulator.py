import ast
import dataclasses
import json
import math
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from silentcrash.detector import PERFECT_DETECTOR, silenced_by
from silentcrash.geometry import normalize_yaw, overlaps, penetration_depth
from silentcrash.oracle import max_iou
from silentcrash.scenario import ControlParameters, ScenarioKind, apply_overrides, make_seed
from silentcrash import simulator
from silentcrash.simulator import (
    MAX_COORD,
    SimConfig,
    SimulationError,
    TextBudget,
    Trace,
    _face_normals,
    _Phase,
    cruise_stage,
    simulate,
    trace_to_jsonl,
)
from sim_oracle import (
    _min_overlap,
    assert_same_text,
    bounded_former,
    center_distance,
    contact_window_former,
    ev_box,
    face_normals_former,
    first_within_former,
    frame_values_former,
    npc_box,
    switched_phase_former,
    trace_arrays,
    trace_to_jsonl_per_frame,
)
from test_oracle import _scaled, _walked


def test_flv_first_contact_matches_closed_form():
    # closing speed 10 m/s, boxes meet at 4.6 m center gap: (30 - 4.6) / 10
    spec, params = make_seed(ScenarioKind.FLV)
    trace = simulate(spec, params)
    assert trace.first_contact is not None
    assert trace.time(trace.first_contact) == pytest.approx(2.54, abs=0.011)


def test_psf_full_veer_at_far_trigger_misses():
    spec, _ = make_seed(ScenarioKind.PSF)
    params = ControlParameters.from_angle(d=7.0, v_hat=15.0, a=1.0)
    trace = simulate(spec, params)
    assert trace.first_contact is None
    assert trace.trigger_frame is not None


def test_unreachable_npc_gives_no_trigger_and_no_contact():
    spec, params = make_seed(ScenarioKind.FLV)
    spec = apply_overrides(spec, {"npc": {"x": 400.0}})
    trace = simulate(spec, params)
    assert trace.trigger_frame is None
    assert trace.first_contact is None
    assert len(trace) == int(round(15.0 / 0.01)) + 1


def test_identical_inputs_give_bit_identical_traces():
    spec, params = make_seed(ScenarioKind.InC)
    t1 = simulate(spec, params)
    t2 = simulate(spec, params)
    assert t1.frame_block(range(len(t1))).tobytes() == t2.frame_block(range(len(t2))).tobytes()
    assert_same_text(trace_to_jsonl(t1, TextBudget()), trace_to_jsonl(t2, TextBudget()))


def test_halving_dt_shifts_first_contact_by_at_most_two_steps():
    for kind in ScenarioKind:
        spec, params = make_seed(kind)
        coarse = simulate(spec, params, SimConfig(dt=0.01))
        fine = simulate(spec, params, SimConfig(dt=0.005))
        t_coarse = coarse.time(coarse.first_contact)
        t_fine = fine.time(fine.first_contact)
        assert abs(t_coarse - t_fine) <= 2 * 0.01, kind


def test_increasing_trigger_distance_never_delays_the_trigger():
    for kind, v in ((ScenarioKind.FLV, 20.0), (ScenarioKind.FLB, 20.0), (ScenarioKind.PSF, 15.0)):
        spec, _ = make_seed(kind)
        frames = []
        for d in (4.0, 5.0, 6.0, 7.0):
            trace = simulate(spec, ControlParameters.from_angle(d=d, v_hat=v, a=0.0))
            assert trace.trigger_frame is not None, kind
            frames.append(trace.trigger_frame)
        assert frames == sorted(frames, reverse=True), kind


def test_frame_invariants_hold_on_samples():
    rng = np.random.default_rng(5)
    for kind in (ScenarioKind.FLB, ScenarioKind.InC, ScenarioKind.PCF):
        spec, _ = make_seed(kind)
        params = ControlParameters.from_angle(
            d=float(rng.uniform(2, 7)), v_hat=float(rng.uniform(1, 50)), a=float(rng.uniform(-1, 1))
        )
        trace = trace_arrays(simulate(spec, params))
        for i in rng.integers(0, trace.length, size=25).tolist():
            ev, npc = ev_box(trace, i), npc_box(trace, i)
            assert trace.gt_overlap[i] == overlaps(ev, npc)
            assert trace.penetration[i] == pytest.approx(penetration_depth(ev, npc), abs=1e-9)
        if trace.trigger_frame is not None:
            assert not trace.triggered[: trace.trigger_frame].any()
            assert trace.triggered[trace.trigger_frame :].all()
            d_at_trigger = center_distance(
                ev_box(trace, trace.trigger_frame), npc_box(trace, trace.trigger_frame)
            )
            assert d_at_trigger <= params.d + 1e-9
        if trace.first_contact is not None:
            assert not trace.gt_overlap[: trace.first_contact].any()
            assert trace.gt_overlap[trace.first_contact]


def test_trace_stops_at_contact_plus_settle_window():
    spec, params = make_seed(ScenarioKind.FLV)
    cfg = SimConfig(settle_frames=20)
    trace = simulate(spec, params, cfg)
    assert len(trace) == trace.first_contact + cfg.settle_frames + 1
    bare = simulate(spec, params, SimConfig(settle_frames=0))
    assert len(bare) == bare.first_contact + 1
    assert trace_arrays(bare).gt_overlap[-1]


def test_non_finite_state_is_rejected():
    spec, params = make_seed(ScenarioKind.FLV)
    spec = apply_overrides(spec, {"npc": {"speed": 1e308}})
    with pytest.raises(SimulationError):
        simulate(spec, params)


def test_sim_config_validation():
    with pytest.raises(SimulationError):
        SimConfig(dt=0.0)
    with pytest.raises(SimulationError):
        SimConfig(dt=1.0, horizon=5.0)
    with pytest.raises(SimulationError):
        SimConfig(settle_frames=-1)
    with pytest.raises(SimulationError):
        SimConfig(horizon=float("inf"))


def test_trace_jsonl_export_shape():
    spec, params = make_seed(ScenarioKind.PSF)
    trace = simulate(spec, params)
    lines = trace_to_jsonl(trace, TextBudget()).splitlines()
    assert len(lines) == len(trace)
    first = json.loads(lines[0])
    assert set(first) == {"t", "ev", "npc", "gt_overlap", "penetration", "closing_speed", "triggered"}
    assert first["t"] == 0.0
    assert not first["gt_overlap"]
    last = json.loads(lines[trace.first_contact])
    assert last["gt_overlap"]


def _random_traces(kind, seed, count, cfg=SimConfig()):
    spec, _ = make_seed(kind)
    rng = np.random.default_rng([seed, list(ScenarioKind).index(kind)])
    for _ in range(count):
        d, v_hat, a = rng.uniform(2.0, 7.0), rng.uniform(0.5, 50.0), rng.uniform(-1.0, 1.0)
        yield simulate(spec, ControlParameters.from_angle(float(d), float(v_hat), float(a)), cfg)


def _at_rest(npc_x: float, frames: int) -> Trace:
    """Both boxes standing still for `frames` frames, NPC center at (npc_x, 0); in contact from frame 0 if they overlap.

    The cruise stage is another scenario's, so no segment is its.
    """
    half = (2.0, 1.0)
    axes, radii = _face_normals(0.0, half, 0.0, half)
    phase = _Phase(0, frames - 1, 0.01, (npc_x, 0.0), (0.0, 0.0), 0.0, (0.0, 0.0), (0.0, 0.0), 0.0, axes, radii)
    contact = 0 if npc_x < 4.0 else None
    stage = cruise_stage(make_seed(ScenarioKind.PSF)[0], 5.0)
    return Trace(contact, None, half, half, frames, 0.01, 0.0, (phase,), cruise=stage)


def test_trace_jsonl_of_a_one_frame_segment_after_a_phase_start():
    # first contact one frame after the trigger, and the trace cut there: the
    # switched phase's segment holds one frame, every column spelled once
    # into its template
    found = []
    for kind in ScenarioKind:
        for trace in _random_traces(kind, 23, 400):
            if trace.trigger_frame is not None and trace.first_contact == trace.trigger_frame + 1:
                found.append(trace)
    assert found
    for trace in found:
        short = dataclasses.replace(trace, length=trace.trigger_frame + 1)
        segments = [part for _, part in short.phase_frames(range(len(short)))]
        assert range(trace.trigger_frame, trace.trigger_frame + 1) in segments
        assert_same_text(trace_to_jsonl(short, TextBudget()), trace_to_jsonl_per_frame(short))
        assert_same_text(trace_to_jsonl(trace, TextBudget()), trace_to_jsonl_per_frame(trace))


def test_trace_jsonl_of_a_trigger_at_frame_0():
    spec, _ = make_seed(ScenarioKind.FLB)
    for x in (5.0, 6.0):
        trace = simulate(apply_overrides(spec, {"npc": {"x": x}}), ControlParameters.from_angle(7.0, 20.0, 0.3))
        assert trace.trigger_frame == 0 and len(trace.phases) == 1
        assert_same_text(trace_to_jsonl(trace, TextBudget()), trace_to_jsonl_per_frame(trace), x)


@pytest.mark.parametrize("npc_x", [3.0, 10.0], ids=["overlapping", "apart"])
def test_trace_jsonl_of_a_segment_whose_every_column_is_constant(npc_x):
    trace = _at_rest(npc_x, 50)
    assert len(list(trace.phase_frames(range(len(trace))))) == 1
    text = trace_to_jsonl(trace, TextBudget())
    assert_same_text(text, trace_to_jsonl_per_frame(trace))
    assert len(set(line.split('"t": ')[0] for line in text.splitlines())) == 1


@pytest.mark.parametrize("cut", [1, 2, 250, 1499, 1500])
def test_trace_jsonl_cut_at_any_frame_matches_the_per_frame_encoder(cut):
    # a trace cut at an arbitrary frame ends its last segment there, whether
    # its cruise segment is spelled and kept or read from the budget
    trace = next(t for t in _random_traces(ScenarioKind.FLB, 5, 50) if t.first_contact is None)
    short = dataclasses.replace(trace, length=cut)
    budget = TextBudget()
    for encoding in ("spelled", "kept"):
        assert_same_text(trace_to_jsonl(short, budget), trace_to_jsonl_per_frame(short), encoding)


def test_trace_jsonl_times_follow_each_dt_in_turn():
    # the frame-time strings are kept per (dt, horizon frame count): each dt
    # replayed after another still spells its own times
    cfgs = [SimConfig(), SimConfig(dt=0.02), SimConfig(dt=1 / 3, horizon=20.0), SimConfig(horizon=7.5)]
    budget = TextBudget()
    for _ in range(2):
        for i, cfg in enumerate(cfgs):
            for trace in _random_traces(ScenarioKind.LC, 7 + i, 3, cfg):
                assert_same_text(trace_to_jsonl(trace, budget), trace_to_jsonl_per_frame(trace), (cfg, i))


def _rows_used(monkeypatch) -> list[str]:
    """The row template of each segment that trace_to_jsonl spells from now on, in order."""
    used, spell = [], simulator._segment_text

    def recording(columns, lo, hi, fixed, last, row=simulator._ROW):
        used.append("ev side" if row != simulator._ROW else "whole")
        return spell(columns, lo, hi, fixed, last, row)

    monkeypatch.setattr(simulator, "_segment_text", recording)
    return used


def test_budgeted_trace_jsonl_of_a_contact_after_the_trigger_matches_the_per_frame_encoder(monkeypatch):
    # a moving NPC met after the trigger: gt_overlap and penetration vary over
    # the switched phase, so its one segment is spelled whole, as the cruise
    # stage's is, and no NPC rows are spelled
    used, budget, found = _rows_used(monkeypatch), TextBudget(), 0
    for kind in (ScenarioKind.InC, ScenarioKind.FLV):
        for trace in _random_traces(kind, 31, 200):
            trigger, contact = trace.trigger_frame, trace.first_contact
            if trigger is None or contact is None or not 0 < trigger < contact:
                continue
            arrays, after = trace_arrays(trace), slice(contact, trace.length)
            if arrays.gt_overlap[after].all() or len(set(arrays.penetration[after].tolist())) < 2:
                continue
            del used[:]
            assert_same_text(trace_to_jsonl(trace, budget), trace_to_jsonl_per_frame(trace), kind)
            assert used == ["whole", "whole"]
            found += 1
    assert found >= 20
    assert all(isinstance(key[0], simulator.CruiseStage) for key in budget.kept) and not budget.too_long


def test_budgeted_trace_jsonl_of_a_long_run_before_contact_spells_one_segment_per_phase(monkeypatch):
    # at least 100 apart frames between the trigger and first contact still
    # belong to the switched phase's one segment; the second encoding reads
    # the cruise stage's kept text and spells only that segment
    trace = next(
        t
        for t in _random_traces(ScenarioKind.PCF, 31, 200)
        if t.trigger_frame is not None and t.first_contact is not None and t.first_contact - t.trigger_frame >= 100
    )
    assert trace.trigger_frame > 0
    used, budget, want = _rows_used(monkeypatch), TextBudget(), trace_to_jsonl_per_frame(trace)
    for spelled in (2, 1):
        del used[:]
        assert_same_text(trace_to_jsonl(trace, budget), want, spelled)
        assert used == ["whole"] * spelled
    assert list(budget.kept) == [(trace.cruise, 0, trace.trigger_frame)] and not budget.too_long


class TestTextBudget:
    """One TextBudget keeps every text trace_to_jsonl keeps, oldest first, within CRUISE_TEXT_BUDGET (patched small)."""

    def test_the_oldest_entries_go_first_and_bytes_is_the_sum_kept(self, monkeypatch):
        monkeypatch.setattr(simulator, "CRUISE_TEXT_BUDGET", 10)
        budget = TextBudget()
        steps = [("a", 4, "a"), ("b", 3, "ab"), ("c", 2, "abc"), ("d", 5, "bcd"), ("e", 10, "e"), ("f", 1, "f")]
        for key, size, left in steps:
            budget.keep(key, key * size, size)
            assert list(budget.kept) == list(left) and all(budget.kept[k] == (k * n, n) for k, n, _ in steps if k in left)
            assert budget.bytes == sum(n for _, n in budget.kept.values()) <= 10

    def test_an_entry_larger_than_the_budget_is_not_kept_and_evicts_nothing(self, monkeypatch):
        monkeypatch.setattr(simulator, "CRUISE_TEXT_BUDGET", 10)
        budget = TextBudget()
        budget.keep("a", "aaaa", 4)
        budget.keep("big", "x" * 11, 11)
        assert budget.kept == {"a": ("aaaa", 4)} and budget.bytes == 4

    def test_npc_rows_larger_than_the_budget_are_spelled_once_per_key(self, monkeypatch):
        spelled, spell = [], simulator._spell_npc_rows
        monkeypatch.setattr(simulator, "_spell_npc_rows", lambda *args: spelled.append(args) or spell(*args))
        fixed = {"npc_hl": "2.4", "npc_hw": "1.0", "npc_yaw": "0.0"}
        paths = [cruise_stage(make_seed(kind)[0], 5.0).path for kind in (ScenarioKind.FLB, ScenarioKind.PSF)]
        rows = [spell(path, fixed) for path in paths]
        assert rows[0] != rows[1]
        monkeypatch.setattr(simulator, "CRUISE_TEXT_BUDGET", min(sum(map(len, r)) for r in rows) - 1)
        budget = TextBudget()
        for path, want in zip(paths, rows):
            assert budget.npc_rows(path, fixed) == want  # spelled, used once and not kept
            assert budget.npc_rows(path, fixed) is None and budget.npc_rows(path, fixed) is None
        assert len(spelled) == len(budget.too_long) == 2 and not budget.kept and budget.bytes == 0


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(list(ScenarioKind)),
    d=st.floats(min_value=2.0, max_value=7.0),
    v_hat=st.floats(min_value=0.5, max_value=50.0),
    a=st.floats(min_value=-1.0, max_value=1.0),
    cfg=st.sampled_from((SimConfig(), SimConfig(dt=0.005, settle_frames=0), SimConfig(dt=0.02, horizon=9.0))),
    scale=st.sampled_from((1.0, 2.0**-40, 2.0**1019, 2.0**1023)),
    cuts=st.tuples(st.integers(min_value=0, max_value=3000), st.integers(min_value=0, max_value=3000)),
)
# the switched phase's window is None, the cruise phase's not; both are None
@example(kind=ScenarioKind.PSF, d=2.0, v_hat=20.0, a=0.0, cfg=SimConfig(), scale=2.0**1019, cuts=(100, 250))
@example(kind=ScenarioKind.FLV, d=3.0, v_hat=20.0, a=0.5, cfg=SimConfig(), scale=2.0**1023, cuts=(0, 3000))
def test_frame_block_of_any_frames_is_the_whole_blocks_columns(kind, d, v_hat, a, cfg, scale, cuts):
    """frame_block(range(lo, hi)) is columns lo..hi-1 of the whole trace's block, bit for bit.

    The trace is scaled as test_oracle._scaled scales it, so at the largest
    scales the contact windows are None and values are infinite or NaN.
    """
    trace = _scaled(simulate(make_seed(kind)[0], ControlParameters.from_angle(d=d, v_hat=v_hat, a=a), cfg), scale)
    lo, hi = sorted(cut % (trace.length + 1) for cut in cuts)
    with np.errstate(all="ignore"):
        whole = trace.frame_block(range(trace.length))
        part = trace.frame_block(range(lo, hi))
    assert part.shape == (7, hi - lo) and part.flags.c_contiguous
    assert part.tobytes() == np.ascontiguousarray(whole[:, lo:hi]).tobytes()


def test_budgeted_trace_jsonl_of_boxes_touching_at_zero_overlap_matches_the_per_frame_encoder():
    # an overlap of exactly 0.0 is contact with a penetration of +0.0: the
    # frames are not apart, so the segment is spelled whole
    trace = dataclasses.replace(_at_rest(4.0, 50), trigger_frame=0)
    arrays = trace_arrays(trace)
    assert arrays.gt_overlap.all() and not arrays.penetration.view(np.int64).any()
    assert_same_text(trace_to_jsonl(trace, TextBudget()), trace_to_jsonl_per_frame(trace))


@pytest.mark.parametrize(
    "overrides, spelled",
    [
        ({"npc": {"y": 1e-5}}, '"y": 1e-05, "yaw": 0.0}, "penetration"'),
        ({"ev": {"x": 3e16}, "npc": {"x": 3e16 + 30.0}}, 'e+16, "y": 0.0, "yaw": 0.0}, "penetration"'),
    ],
    ids=["small-npc-y", "npc-x-past-1e16"],
)
def test_budgeted_trace_jsonl_of_npc_coordinates_outside_orjsons_range_matches_the_per_frame_encoder(
    monkeypatch, overrides, spelled
):
    # orjson spells these in other notation, so the NPC rows spell them value
    # by value, as json.dumps does; the EV veers off and never meets the NPC
    spec = apply_overrides(make_seed(ScenarioKind.FLV)[0], overrides)
    used, budget = _rows_used(monkeypatch), TextBudget()
    for v_hat, a in ((30.0, 1.0), (12.0, -0.9), (40.0, 0.7)):
        trace = simulate(spec, ControlParameters.from_angle(5.0, v_hat, a))
        assert trace.trigger_frame is not None
        del used[:]
        text = trace_to_jsonl(trace, budget)
        assert_same_text(text, trace_to_jsonl_per_frame(trace), (v_hat, a))
        assert "ev side" in used
        assert spelled in text.splitlines()[trace.trigger_frame]


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(list(ScenarioKind)),
    d=st.floats(min_value=2.0, max_value=7.0),
    v_hat=st.floats(min_value=0.5, max_value=50.0),
    a=st.floats(min_value=-1.0, max_value=1.0),
    cfg=st.sampled_from((SimConfig(), SimConfig(dt=0.005, settle_frames=0), SimConfig(dt=0.02, horizon=9.0))),
    scale=st.sampled_from((1.0, 2.0**-40, 2.0**60, 2.0**1019, 2.0**1023)),
)
def test_budgeted_trace_jsonl_of_scaled_traces_matches_the_per_frame_encoder(kind, d, v_hat, a, cfg, scale):
    """Segments that fail the one range gate, whole or as the EV side, keep the per-frame encoder's bytes.

    The trace is scaled as test_oracle._scaled scales it: 2**-40 gives
    nonzero values below 1e-4, 2**60 values of 1e16 and more, and the two
    largest scales infinities and NaNs. Its cruise stage is given the
    scaled phases, so the stage's segment text is kept; the second call
    reads that text and the kind's kept NPC rows.
    """
    trace = simulate(make_seed(kind)[0], ControlParameters.from_angle(d=d, v_hat=v_hat, a=a), cfg)
    scaled = _scaled(trace, scale)
    own = tuple(new for old, new in zip(trace.phases, scaled.phases) if any(old is p for p in trace.cruise.phases))
    scaled = dataclasses.replace(scaled, cruise=dataclasses.replace(trace.cruise, phases=own))
    budget = TextBudget()
    with np.errstate(all="ignore"):
        want = trace_to_jsonl_per_frame(scaled)
        for _ in range(2):
            assert_same_text(trace_to_jsonl(scaled, budget), want, scale)
    assert budget.bytes > 0 or not own


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(list(ScenarioKind)),
    d=st.floats(min_value=2.0, max_value=7.0),
    v_hat=st.floats(min_value=0.5, max_value=50.0),
    a=st.floats(min_value=-1.0, max_value=1.0),
    cfg=st.sampled_from((SimConfig(), SimConfig(dt=0.005, settle_frames=0), SimConfig(dt=0.02, horizon=9.0))),
    scale=st.sampled_from((1.0, 2.0**-40, 2.0**200, 2.0**1000, 2.0**1012, 2.0**1016, 2.0**1019, 2.0**1023)),
    pick=st.data(),
)
def test_scalar_frame_evaluator_matches_the_array_kernel(kind, d, v_hat, a, cfg, scale, pick):
    """_Phase.frames and closing_speed give the kernel's centers, minimum overlap and closing speed bit for bit.

    The phases are scaled as test_oracle._scaled scales them, so large scales
    overflow the centers or the radii and make offsets, overlaps and closing
    speeds infinite or NaN. The overlaps are checked along the phase's own
    normals and along those of the wrapped yaws, as the peak IoU's walk reads
    them; a NaN overlap counts as apart.
    """
    trace = _scaled(simulate(make_seed(kind)[0], ControlParameters.from_angle(d=d, v_hat=v_hat, a=a), cfg), scale)
    phase = pick.draw(st.sampled_from(trace.phases))
    i = pick.draw(st.integers(min_value=phase.first, max_value=phase.last))
    wrapped = _face_normals(normalize_yaw(phase.ev_yaw), trace.ev_half, normalize_yaw(trace.npc_yaw), trace.npc_half)
    with np.errstate(all="ignore"):
        ev, npc, low, closing = frame_values_former(phase, np.array([i]))
        wrapped_low = _min_overlap(npc - ev, *wrapped)
        turned = phase._replace(axes=wrapped[0], radii=wrapped[1])
        for along, want in ((phase, low[0]), (turned, wrapped_low[0])):
            got_i, ex, ey, nx, ny, *overlaps = next(along.frames((i,)))
            assert got_i == i
            assert list(map(float.hex, (ex, ey, nx, ny))) == list(map(float.hex, (*ev[0].tolist(), *npc[0].tolist())))
            assert float.hex(float(np.min(overlaps))) == float.hex(float(want))
            assert all(o >= 0.0 for o in overlaps) == bool(want >= 0.0)
        assert float.hex(phase.closing_speed(ex, ey, nx, ny)) == float.hex(float(closing[0]))


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(list(ScenarioKind)),
    d=st.floats(min_value=2.0, max_value=7.0),
    v_hat=st.floats(min_value=0.5, max_value=50.0),
    a=st.floats(min_value=-1.0, max_value=1.0),
    cfg=st.sampled_from((SimConfig(), SimConfig(dt=0.005, settle_frames=0), SimConfig(dt=0.02, horizon=9.0))),
    scale=st.sampled_from((1.0, 2.0**-40, 2.0**200, 2.0**1000, 2.0**1012, 2.0**1016, 2.0**1019, 2.0**1023)),
)
# the slab solve's projections overflow where the frames' own center offsets do not
@example(kind=ScenarioKind.PSF, d=2.0, v_hat=20.0, a=0.0, cfg=SimConfig(), scale=2.0**1019)
@example(kind=ScenarioKind.InC, d=3.0, v_hat=20.0, a=-0.5, cfg=SimConfig(), scale=2.0**1019)
def test_contact_window_holds_every_overlap_frame(kind, d, v_hat, a, cfg, scale):
    """Every frame of a phase whose four overlaps are >= 0 lies in its contact_window, at every scale.

    Near the top of the float range the slab solve's projections overflow;
    the window is then None, any frame, so first_contact still finds the
    first overlap frame, and it does so without a numpy warning.
    """
    trace = _scaled(simulate(make_seed(kind)[0], ControlParameters.from_angle(d=d, v_hat=v_hat, a=a), cfg), scale)
    for phase in trace.phases:
        window = phase.contact_window()
        hits = [f[0] for f in phase.frames(range(phase.first, phase.last + 1)) if all(o >= 0.0 for o in f[5:])]
        assert window is None or all(i in window for i in hits), (phase, window, hits)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phase.first_contact() == (hits[0] if hits else None)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(list(ScenarioKind)),
    d=st.floats(min_value=2.0, max_value=7.0),
    v_hat=st.floats(min_value=0.5, max_value=50.0),
    a=st.floats(min_value=-1.0, max_value=1.0),
    cfg=st.sampled_from((SimConfig(), SimConfig(dt=0.005, settle_frames=0), SimConfig(dt=0.02, horizon=9.0))),
    scale=st.sampled_from((1.0, 2.0**-40, 2.0**200, 2.0**1000, 2.0**1012, 2.0**1016, 2.0**1019, 2.0**1023)),
)
# the switched phase's window is None, the cruise phase's not; then both are None
@example(kind=ScenarioKind.PSF, d=2.0, v_hat=20.0, a=0.0, cfg=SimConfig(), scale=2.0**1016)
@example(kind=ScenarioKind.InC, d=3.0, v_hat=20.0, a=-0.5, cfg=SimConfig(), scale=2.0**1019)
@example(kind=ScenarioKind.FLV, d=3.0, v_hat=20.0, a=0.5, cfg=SimConfig(), scale=2.0**1023)
def test_trace_overlap_columns_are_the_kernels_over_every_frame(kind, d, v_hat, a, cfg, scale):
    """gt_overlap and penetration, read from overlaps taken only inside each contact window, are the raw kernel's.

    The trace is stretched to every frame of its phases, so the frames after
    first contact plus the settle window are compared too; at the largest
    scales the windows are None and every overlap is the kernel's.
    """
    trace = _scaled(simulate(make_seed(kind)[0], ControlParameters.from_angle(d=d, v_hat=v_hat, a=a), cfg), scale)
    trace = dataclasses.replace(trace, length=trace.phases[-1].last + 1)
    with np.errstate(all="ignore"):
        raw = np.concatenate([frame_values_former(p, np.arange(p.first, p.last + 1))[2] for p in trace.phases])
        arrays = trace_arrays(trace)
        assert arrays.gt_overlap.tobytes() == (raw >= 0.0).tobytes()
        assert arrays.penetration.tobytes() == np.maximum(raw, 0.0).tobytes()


def test_a_nan_overlap_among_non_negative_ones_counts_as_apart():
    # boxes with infinite extents whose center offset (1.7e308, 1.7e308)
    # projects to inf on the EV's second normal only: that overlap is
    # inf - inf = NaN and the other three are inf, so Python's min reads
    # inf where the kernel's np.min reads NaN
    axes, _ = _face_normals(-math.pi / 4, (1.0, 1.0), 0.0, (1.0, 1.0))
    huge = 1.7e308
    at_rest = (0.0, 0.0)
    phase = _Phase(0, 0, 0.01, (huge, huge), at_rest, 0.0, at_rest, at_rest, -math.pi / 4, axes, (math.inf,) * 4)
    *_, o0, o1, o2, o3 = next(phase.frames((0,)))
    assert math.isnan(o1) and min(o0, o1, o2, o3) == math.inf
    trace = Trace(0, None, (1.0, 1.0), (1.0, 1.0), 1, 0.01, 0.0, (phase,), cruise=None)
    assert _walked(trace) == ([], [])
    assert max_iou(trace) == 0.0
    with np.errstate(all="ignore"):
        assert math.isnan(frame_values_former(phase, np.array([0]))[2][0])
        assert silenced_by(trace, PERFECT_DETECTOR) == "sampling"


# coordinates on either side of MAX_COORD, and speeds that overflow or are not finite
_EDGE_COORDS = (-MAX_COORD, math.nextafter(MAX_COORD, 0.0), MAX_COORD, math.nextafter(MAX_COORD, math.inf), 1e300)
_EDGE_SPEEDS = (0.0, -0.0, 1e140, -1e149, 1e300, math.inf, -math.inf, math.nan)
_ACTOR_OVERRIDES = st.fixed_dictionaries(
    {},
    optional={
        "x": st.floats(min_value=-100.0, max_value=100.0),
        "y": st.floats(min_value=-20.0, max_value=20.0),
        "yaw": st.floats(min_value=-math.pi, max_value=math.pi),
        "speed": st.floats(min_value=0.5, max_value=60.0),
        "half_length": st.floats(min_value=0.2, max_value=6.0),
        "half_width": st.floats(min_value=0.2, max_value=3.0),
    },
)


def _bits(value):
    """The value with every float spelled by float.hex, nested tuples kept."""
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    return float.hex(value) if isinstance(value, float) else (type(value), value)


@settings(max_examples=500, deadline=None)
@given(
    yaws=st.tuples(*[st.floats(allow_nan=False, allow_infinity=False)] * 2),
    halves=st.tuples(*[st.one_of(st.floats(min_value=0.1, max_value=10.0), st.floats())] * 4),
)
@example(yaws=(0.0, -0.0), halves=(2.4, 1.0, 2.4, 1.0))
@example(yaws=(math.pi / 2, 1e16), halves=(math.inf, 1.0, 2.0, math.nan))
def test_face_normals_match_the_former_comprehension(yaws, halves):
    """The written-out _face_normals gives the list comprehension's normals and summed half extents bit for bit."""
    args = (yaws[0], halves[:2], yaws[1], halves[2:])
    assert _bits(_face_normals(*args)) == _bits(face_normals_former(*args))


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(list(ScenarioKind)),
    d=st.floats(min_value=2.0, max_value=7.0),
    v_hat=st.one_of(st.floats(min_value=0.5, max_value=50.0), st.sampled_from(_EDGE_SPEEDS)),
    a=st.floats(min_value=-1.0, max_value=1.0),
    cfg=st.sampled_from((SimConfig(), SimConfig(dt=0.005, settle_frames=0), SimConfig(dt=0.02, horizon=9.0))),
    overrides=st.fixed_dictionaries({}, optional={"ev": _ACTOR_OVERRIDES, "npc": _ACTOR_OVERRIDES}),
    shift=st.tuples(*[st.one_of(st.just(0.0), st.sampled_from(_EDGE_COORDS))] * 2),
    velocities=st.tuples(*[st.one_of(st.none(), st.sampled_from(_EDGE_SPEEDS))] * 4),
    pick=st.data(),
)
def test_switched_phase_matches_the_former_recipes(kind, d, v_hat, a, cfg, overrides, shift, velocities, pick):
    """switched builds the former recipe's phase bit for bit; bounded and contact_window agree with theirs.

    The stage is the one cruise_stage builds for the overridden seed, moved
    by `shift` (so the centers lie near, at or beyond MAX_COORD), with any
    velocity component replaced by an edge speed and the trigger at any
    frame. The parameters are a plain (v_hat, a) namespace, so v_hat may
    lie outside ControlParameters' range. Where the former bounds check
    fails, switched raises.
    """
    try:
        spec = apply_overrides(make_seed(kind)[0], overrides)
        stage = cruise_stage(spec, d, cfg)
    except (ValueError, SimulationError):  # actors that overlap at the start, a speed for a standing NPC
        assume(False)
    path, (sx, sy) = stage.path, shift
    (nx, ny), (ox, oy) = path.npc_origin, path.ev_origin
    ux, uy, vx, vy = (v if w is None else w for v, w in zip((*path.npc_velocity, *path.ev_velocity), velocities))
    path = path._replace(
        npc_origin=(nx + sx, ny + sy), ev_origin=(ox + sx, oy + sy), npc_velocity=(ux, uy), ev_velocity=(vx, vy)
    )
    trigger = pick.draw(st.integers(min_value=0, max_value=path.last))
    stage = dataclasses.replace(stage, path=path, trigger=trigger)
    params = SimpleNamespace(v_hat=v_hat, a=ControlParameters.from_angle(d, 20.0, a).a)
    want = switched_phase_former(stage, params)
    for phase in (path, want):
        assert phase.bounded() == bounded_former(phase), phase
        assert phase.contact_window() == contact_window_former(phase), phase
    if bounded_former(want):
        assert _bits(stage.switched(params)) == _bits(want)
    else:
        with pytest.raises(SimulationError):
            stage.switched(params)


# a coordinate or velocity component: a plausible one, any finite float, or an edge value
_ANY_COORD = st.one_of(
    st.floats(min_value=-100.0, max_value=100.0), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_COORDS),
)
_ANY_SPEED = st.one_of(
    st.floats(min_value=-60.0, max_value=60.0), st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(_EDGE_SPEEDS),
)


def _search_phase(first=0, last=600, dt=0.01, npc=(30.0, 0.0), npc_v=(0.0, 0.0), t0=0.0, ev=(0.0, 0.0), ev_v=(10.0, 0.0)):
    axes, radii = _face_normals(0.3, (2.4, 1.0), -0.2, (2.2, 0.9))
    return _Phase(first, last, dt, npc, npc_v, t0, ev, ev_v, 0.3, axes, radii)


@settings(max_examples=300, deadline=None)
@given(
    span=st.tuples(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=600)),
    dt=st.sampled_from((0.01, 0.005, 0.02, 1.0, 1e-300)),
    points=st.tuples(*[_ANY_COORD] * 4),
    velocities=st.tuples(*[_ANY_SPEED] * 4),
    t0=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=15.0)),
    d=st.one_of(st.floats(min_value=0.0, max_value=10.0), st.floats()),
    same_velocity=st.booleans(),
)
# a == 0: equal velocities, within d at every frame, or never
@example(span=(0, 600), dt=0.01, points=(5.0, 0.0, 0.0, 0.0), velocities=(10.0, 0.0, 10.0, 0.0), t0=0.0, d=7.0,
         same_velocity=False)
@example(span=(0, 600), dt=0.01, points=(30.0, 0.0, 0.0, 0.0), velocities=(3.0, 1.0, 3.0, 1.0), t0=1.0, d=7.0,
         same_velocity=True)
# a center distance of exactly d, where math.hypot would round one ulp above it
@example(span=(0, 600), dt=0.01, points=(6.85, 2.16, 0.0, 0.0), velocities=(0.0, 0.0, 0.0, 0.0), t0=0.0,
         d=7.182485642171517, same_velocity=False)
# a == inf: every frame is read, and from frame 1 on the squares overflow
@example(span=(0, 600), dt=0.01, points=(5.0, 0.0, 0.0, 0.0), velocities=(1e200, 0.0, -1e200, 0.0), t0=0.0, d=7.0,
         same_velocity=False)
@example(span=(3, 600), dt=0.01, points=(5.0, 0.0, 0.0, 0.0), velocities=(1e200, 0.0, -1e200, 0.0), t0=0.0, d=7.0,
         same_velocity=False)
# NaN offsets: inf - inf
@example(span=(0, 600), dt=0.01, points=(1e300, 0.0, -1e300, 0.0), velocities=(math.inf, 0.0, math.inf, 0.0), t0=0.0,
         d=7.0, same_velocity=False)
# the located crossing lies past the last frame: an empty window
@example(span=(0, 100), dt=0.01, points=(100.0, 0.0, 0.0, 0.0), velocities=(0.0, 0.0, 10.0, 0.0), t0=0.0, d=7.0,
         same_velocity=False)
# the path never comes within d: h2 < 0
@example(span=(0, 600), dt=0.01, points=(30.0, 20.0, 0.0, 0.0), velocities=(0.0, 0.0, 10.0, 0.0), t0=0.0, d=7.0,
         same_velocity=False)
def test_trigger_search_matches_the_former_numpy_pass(span, dt, points, velocities, t0, d, same_velocity):
    """first_within reads its window through the scalar evaluator and finds the former numpy pass's frame.

    The phases take centers and velocities up to the float range and beyond
    MAX_COORD, so offsets, squares and distances overflow to inf or give NaN;
    equal velocities give a == 0 and huge ones a == inf. The scalar search
    raises and warns about none of it.
    """
    (first, extra), (nx, ny, ex, ey), (ux, uy, vx, vy) = span, points, velocities
    if same_velocity:
        vx, vy = ux, uy
    phase = _search_phase(first, first + extra, dt, (nx, ny), (ux, uy), t0, (ex, ey), (vx, vy))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = phase.first_within(d)
    assert got == first_within_former(phase, d), phase


@pytest.mark.parametrize("owner", ["Trace", "_Phase", "CruiseStage"])
def test_every_public_name_that_trace_defines_is_read_in_the_package(owner):
    """Each public field, method and property of Trace and its phase types is read as an attribute in src/silentcrash outside its own definition.

    The scan goes by name, so a read of another object's attribute of the
    same name counts too; what it catches is a name nothing in the package
    reads, which only tests could be keeping alive.
    """
    trees = [ast.parse(path.read_text()) for path in sorted(Path(simulator.__file__).parent.glob("*.py"))]
    cls = next(node for tree in trees for node in tree.body if isinstance(node, ast.ClassDef) and node.name == owner)
    defined = {}
    for node in cls.body:
        name = node.target.id if isinstance(node, ast.AnnAssign) else getattr(node, "name", "_")
        if not name.startswith("_"):
            defined[name] = {id(inner) for inner in ast.walk(node)}
    read = {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.ctx, ast.Load)
        and id(node) not in defined.get(node.attr, ())
    }
    assert len(defined) >= 10 and sorted(set(defined) - read) == []


# Classes whose fields the package reads by name, through getattr(labels, axis) and vars
_READ_BY_NAME = {("report", "BucketLabels"), ("report", "CategoryLabel")}


def test_every_public_name_of_every_class_is_read_in_the_package():
    """The scan of the test above, over every module-level class in src/silentcrash but those of _READ_BY_NAME.

    Each public field, method and property must be read as an attribute
    somewhere in the package outside its own definition.
    """
    paths = sorted(Path(simulator.__file__).parent.glob("*.py"))
    trees = {path.stem: ast.parse(path.read_text()) for path in paths}
    reads = {}  # attribute name -> the ids of the nodes that read it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault(node.attr, []).append(id(node))
    unread, classes = [], 0
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef) or (module, cls.name) in _READ_BY_NAME:
                continue
            classes += 1
            for node in cls.body:
                name = node.target.id if isinstance(node, ast.AnnAssign) else getattr(node, "name", "_")
                own = {id(inner) for inner in ast.walk(node)}
                if not name.startswith("_") and all(read in own for read in reads.get(name, ())):
                    unread.append(f"{module}.{cls.name}.{name}")
    assert classes >= 30 and unread == []
