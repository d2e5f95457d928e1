import numpy as np
import pytest

from silentcrash.detector import PERFECT_DETECTOR, DefectModel, builtin_cd, ground_truth
from silentcrash.scenario import ControlParameters, ScenarioKind, make_seed
from silentcrash.simulator import SimConfig, simulate
from sim_oracle import trace_arrays

# grazing corner contact found by a fine parameter scan: ground truth present
# with max penetration well under the default detector's depth gate
PSF_GRAZE = ControlParameters.from_angle(d=4.0, v_hat=10.0, a=0.21)


def sample_traces(per_kind=18, seed=13):
    rng = np.random.default_rng(seed)
    traces = []
    for kind in ScenarioKind:
        spec, _ = make_seed(kind)
        for _ in range(per_kind):
            params = ControlParameters.from_angle(
                d=float(rng.uniform(2, 7)), v_hat=float(rng.uniform(1, 50)), a=float(rng.uniform(-1, 1))
            )
            traces.append(simulate(spec, params))
    return traces


def test_ground_truth_absent_without_overlap():
    spec, _ = make_seed(ScenarioKind.PSF)
    trace = simulate(spec, ControlParameters.from_angle(d=7.0, v_hat=15.0, a=1.0))
    assert ground_truth(trace) is None


def test_ground_truth_matches_derived_contact_frame():
    spec, params = make_seed(ScenarioKind.FLV)
    trace = simulate(spec, params)
    idx = ground_truth(trace)
    assert idx == trace.first_contact
    assert trace.time(idx) == pytest.approx(2.54, abs=0.011)


def test_ground_truth_on_final_frame_only():
    spec, params = make_seed(ScenarioKind.FLV)
    trace = simulate(spec, params, SimConfig(settle_frames=0))
    assert ground_truth(trace) == len(trace) - 1


def test_perfect_detector_equals_ground_truth_presence():
    for trace in sample_traces(per_kind=12):
        assert builtin_cd(trace, PERFECT_DETECTOR) == (ground_truth(trace) is not None)


def test_deep_slow_contact_is_detected():
    spec, params = make_seed(ScenarioKind.FLV)
    trace = simulate(spec, params)
    assert float(trace_arrays(trace).penetration.max()) > DefectModel().min_penetration
    assert builtin_cd(trace, DefectModel())


def test_grazing_contact_slips_through_depth_gate():
    spec, _ = make_seed(ScenarioKind.PSF)
    trace = simulate(spec, PSF_GRAZE)
    assert ground_truth(trace) is not None
    assert float(trace_arrays(trace).penetration.max()) < DefectModel().min_penetration
    assert not builtin_cd(trace, DefectModel())


def test_weakening_the_defect_never_flips_true_to_false():
    # sampling grids nest only when the finer period divides the coarser one
    tighter = [
        (DefectModel(5, 0.05, 0.5), DefectModel(5, 0.01, 0.1)),
        (DefectModel(5, 0.05, 0.5), DefectModel(1, 0.05, 0.5)),
        (DefectModel(4, 0.05, 0.5), DefectModel(2, 0.0, 0.0)),
        (DefectModel(5, 0.05, 0.5), PERFECT_DETECTOR),
    ]
    for trace in sample_traces(per_kind=8, seed=17):
        for stronger, weaker in tighter:
            if builtin_cd(trace, stronger):
                assert builtin_cd(trace, weaker)


def test_detector_never_fabricates_contact():
    for trace in sample_traces(per_kind=8, seed=19):
        for defect in (DefectModel(), PERFECT_DETECTOR, DefectModel(3, 0.0, 0.0)):
            if builtin_cd(trace, defect):
                assert ground_truth(trace) is not None


def test_defect_model_validation():
    with pytest.raises(ValueError):
        DefectModel(sample_period=0)
    with pytest.raises(ValueError):
        DefectModel(min_penetration=-0.1)
    with pytest.raises(ValueError):
        DefectModel(min_impact_speed=-1.0)
    with pytest.raises(ValueError):
        DefectModel(min_penetration=float("nan"))
    with pytest.raises(ValueError):
        DefectModel(min_impact_speed=float("inf"))
