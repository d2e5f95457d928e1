import dataclasses
import math

import numpy as np
import pytest

from silentcrash import cli, oracle
from silentcrash.config import parse_config
from silentcrash.detector import PERFECT_DETECTOR, DefectModel, builtin_cd, ground_truth
from silentcrash.oracle import (
    OracleConfig,
    ScenarioType,
    check_ic,
    classify,
    max_iou,
    recall_sweep,
)
from silentcrash.fuzzer import run_campaign
from silentcrash.geometry import heading, rect_corners
from silentcrash.scenario import ControlParameters, ScenarioKind, make_seed
from silentcrash.simulator import simulate
from sim_oracle import builtin_cd_full, max_iou_whole_trace, overlap_corners, simulate_full
from test_detector import PSF_GRAZE, sample_traces

TUNNELING = DefectModel(sample_period=40, min_penetration=0.0, min_impact_speed=0.0)


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
    assert sum(int(trace.gt_overlap.sum()) for trace in traces) == 7215
    assert len(calls) <= 3100
    assert [peak.hex() for peak in peaks] == [max_iou_whole_trace(trace).hex() for trace in traces]


def _scaled(trace, scale):
    """The trace with every length times scale, a power of two: each float scales exactly until it overflows."""
    fields = ("npc_origin", "npc_velocity", "ev_origin", "ev_velocity", "radii")
    phases = tuple(
        phase._replace(**{name: tuple(v * scale for v in getattr(phase, name)) for name in fields})
        for phase in trace.phases
    )
    halves = {name: tuple(h * scale for h in getattr(trace, name)) for name in ("ev_half", "npc_half")}
    return dataclasses.replace(trace, phases=phases, memo={}, **halves)


def _corner_error(trace, frame) -> str | None:
    ex, ey, ec, es, nx, ny = frame
    try:
        rect_corners(ex, ey, *trace.ev_half, ec, es)
        rect_corners(nx, ny, *trace.npc_half, *heading(trace.npc_yaw))
    except ValueError as exc:
        return str(exc)
    return None


def test_non_finite_corner_error_comes_from_the_first_overlap_frame_in_time_order():
    spec, _ = make_seed(ScenarioKind.InC)
    trace = simulate(spec, ControlParameters.from_angle(d=3.0, v_hat=20.0, a=0.3))
    bounds, frames = trace.overlap_frames()
    # scaled up, the corners of the later overlap frames overflow, those of the earlier ones do not
    big = _scaled(trace, 2.0**1019)
    big_frames = big.overlap_frames()[1]
    assert len(big_frames) == len(frames)
    errors = [_corner_error(big, frame) for frame in big_frames]
    first = next(i for i, error in enumerate(errors) if error)
    by_bound = next(i for i in sorted(range(len(bounds)), key=bounds.__getitem__, reverse=True) if errors[i])
    assert 0 < first and errors[first] != errors[by_bound]
    with pytest.raises(ValueError) as want:
        overlap_corners(big)
    with pytest.raises(ValueError) as got:
        max_iou(big)
    assert str(got.value) == str(want.value) == errors[first]
    assert "max_iou" not in big.memo


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

