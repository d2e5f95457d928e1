import json

import numpy as np
import pytest

from silentcrash.geometry import overlaps, penetration_depth
from silentcrash.scenario import ControlParameters, ScenarioKind, apply_overrides, make_seed
from silentcrash.simulator import SimConfig, SimulationError, simulate, trace_to_jsonl
from sim_oracle import center_distance, ev_box, npc_box


def test_flv_first_contact_matches_closed_form():
    # closing speed 10 m/s, boxes meet at 4.6 m center gap: (30 - 4.6) / 10
    spec, params = make_seed(ScenarioKind.FLV)
    trace = simulate(spec, params)
    assert trace.first_contact is not None
    assert float(trace.times[trace.first_contact]) == pytest.approx(2.54, abs=0.011)


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
    assert np.array_equal(t1.ev_centers, t2.ev_centers)
    assert np.array_equal(t1.penetration, t2.penetration)
    assert np.array_equal(t1.closing_speed, t2.closing_speed)
    assert trace_to_jsonl(t1) == trace_to_jsonl(t2)


def test_halving_dt_shifts_first_contact_by_at_most_two_steps():
    for kind in ScenarioKind:
        spec, params = make_seed(kind)
        coarse = simulate(spec, params, SimConfig(dt=0.01))
        fine = simulate(spec, params, SimConfig(dt=0.005))
        t_coarse = float(coarse.times[coarse.first_contact])
        t_fine = float(fine.times[fine.first_contact])
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
        trace = simulate(spec, params)
        for i in rng.integers(0, len(trace), size=25).tolist():
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
    assert bare.gt_overlap[-1]


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
    lines = trace_to_jsonl(trace).splitlines()
    assert len(lines) == len(trace)
    first = json.loads(lines[0])
    assert set(first) == {"t", "ev", "npc", "gt_overlap", "penetration", "closing_speed", "triggered"}
    assert first["t"] == 0.0
    assert not first["gt_overlap"]
    last = json.loads(lines[trace.first_contact])
    assert last["gt_overlap"]
