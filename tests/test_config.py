import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from silentcrash.config import _PLAN_KEYS, ConfigError, load_config_file, parse_config
from silentcrash.fuzzer import DEFAULT_PLANS, AngleMode, MutatorKind
from silentcrash.scenario import ScenarioKind

BASE = {"kinds": ["FLV"], "budget": 10}


def test_minimal_config_uses_library_defaults():
    config = parse_config(BASE)
    assert config.kinds == (ScenarioKind.FLV,)
    assert config.mutator is MutatorKind.GUIDED
    assert config.plans[ScenarioKind.FLV] == DEFAULT_PLANS[ScenarioKind.FLV]
    assert config.defect.sample_period == 5
    assert config.sim.dt == 0.01
    assert config.oracle.t_bbox == 0.0


def test_default_plan_block_applies_to_all_kinds():
    config = parse_config(dict(BASE, kinds=["FLV", "PSF"], plans={"default": {"speed_start": 10.0, "speed_step": 10.0}}))
    for kind in (ScenarioKind.FLV, ScenarioKind.PSF):
        assert config.plans[kind].speed_schedule == (10.0, 20.0, 30.0, 40.0, 50.0)
        # untouched fields keep the per-kind library defaults
        assert config.plans[kind].angle_step_lat == DEFAULT_PLANS[kind].angle_step_lat


def test_per_kind_block_overrides_default_block():
    config = parse_config(
        dict(
            BASE,
            plans={"default": {"k_nc": 2}, "FLV": {"k_nc": 5, "angle_mode": "per-axis"}},
        )
    )
    plan = config.plans[ScenarioKind.FLV]
    assert plan.k_nc == 5
    assert plan.angle_mode is AngleMode.PER_AXIS


def test_explicit_schedules_are_validated():
    config = parse_config(dict(BASE, plans={"FLV": {"distance_schedule": [3, 5, 7]}}))
    assert config.plans[ScenarioKind.FLV].distance_schedule == (3.0, 5.0, 7.0)
    with pytest.raises(ConfigError, match="2..7"):
        parse_config(dict(BASE, plans={"FLV": {"distance_schedule": [3, 9]}}))
    with pytest.raises(ConfigError, match="ascending"):
        parse_config(dict(BASE, plans={"FLV": {"speed_schedule": [20, 10]}}))
    with pytest.raises(ConfigError, match="0..50"):
        parse_config(dict(BASE, plans={"FLV": {"speed_schedule": [0]}}))


@pytest.mark.parametrize(
    "mutation, message",
    [
        ({"budget": -1}, "budget"),
        ({"budget": "many"}, "budget"),
        ({"kinds": []}, "kinds"),
        ({"kinds": ["XYZ"]}, "kinds"),
        ({"mutator": "genetic"}, "mutator"),
        ({"defect": {"sample_period": 0}}, "sample_period"),
        ({"defect": {"knob": 1}}, "defect"),
        ({"oracle": {"t_bbox": 1.5}}, "t_bbox"),
        ({"sim": {"dt": 0.0}}, "dt"),
        ({"plans": {"XYZ": {}}}, "plans"),
        ({"plans": {"FLV": {"warp": 1}}}, "plans.FLV"),
        ({"scenario_overrides": {"XYZ": {}}}, "scenario_overrides"),
        ({"unknown_top": 1}, "unknown"),
        ({"defect": {"sample_period": True}}, "defect.sample_period"),
        ({"sim": {"settle_frames": -1}}, "sim.settle_frames"),
        ({"plans": {"FLV": {"speed_step": 1e-300}}}, "plans.FLV: step .* more than"),
        ({"plans": {"FLV": {"angle_step_lat": float("nan")}}}, "plans.FLV.angle_step_lat"),
        ({"plans": {"FLV": {"speed_start": float("nan")}}}, "plans.FLV.speed_start"),
        ({"plans": {"FLV": {"speed_step": "5"}}}, "plans.FLV.speed_step"),
        ({"plans": {"FLV": {"distance_schedule": ["5"]}}}, "plans.FLV.distance_schedule"),
        ({"plans": {"FLV": {"speed_schedule": [True]}}}, "plans.FLV.speed_schedule"),
        ({"plans": {"FLV": {"speed_schedule": [10, 10, 10]}}}, "plans.FLV: speed schedule must be strictly ascending"),
        ({"plans": {"FLV": [1]}}, "plans.FLV"),
        ({"plans": {"default": [1]}}, "plans.default"),
        ({"scenario_overrides": {"FLV": {"npc": [1]}}}, "scenario_overrides.FLV"),
        ({"scenario_overrides": {"FLV": {"npc": {"speed": float("nan")}}}}, "scenario_overrides.FLV"),
        ({"scenario_overrides": {"FLV": {"npc": {"x": "40"}}}}, "scenario_overrides.FLV"),
        ({"scenario_overrides": {"FLV": {"initial_gap": 30.0}}}, "scenario_overrides.FLV"),
        ({"scenario_overrides": {"FLV": {"lane_width": 4.0}}}, "scenario_overrides.FLV"),
        ({"defect": {"min_penetration": 10**400}}, "defect.min_penetration: must be a finite number"),
        ({"defect": {"min_impact_speed": -(10**400)}}, "defect.min_impact_speed: must be a finite number"),
        ({"defect": {"min_impact_speed": "0.5"}}, "defect.min_impact_speed"),
        ({"sim": {"dt": 10**400}}, "sim.dt: must be a finite number"),
        ({"sim": {"horizon": 10**400}}, "sim.horizon: must be a finite number"),
        ({"sim": {"horizon": True}}, "sim.horizon"),
        ({"oracle": {"t_bbox": [0.5]}}, "oracle.t_bbox"),
        ({"scenario_overrides": {"FLV": {"npc": {"yaw": 1e300}}}}, r"overrides.FLV: npc override 'yaw' .*\[-pi, pi\]"),
        ({"scenario_overrides": {"PSF": {"ev": {"yaw": -3.1416}}}}, r"scenario_overrides.PSF: ev override 'yaw'"),
        ({"scenario_overrides": {"FLV": {"npc": {"yaw": 7}}}}, r"scenario_overrides.FLV: npc override 'yaw'"),
        ({"sim": {"horizon": 1e12}}, r"sim.horizon / sim.dt: .* more than 100000 steps"),
        ({"sim": {"dt": 1e-300}}, r"sim.horizon / sim.dt: .* more than 100000 steps"),
        ({"sim": {"dt": 5e-324, "horizon": 1e308}}, r"sim.horizon / sim.dt: .* more than 100000 steps"),
        ({"sim": {"dt": 0.001, "horizon": 100.0001}}, r"sim.horizon / sim.dt: .* more than 100000 steps"),
    ],
)
def test_invalid_configs_name_the_field(mutation, message):
    with pytest.raises(ConfigError, match=message):
        parse_config({**BASE, **mutation})


def test_budget_is_required():
    with pytest.raises(ConfigError, match="budget"):
        parse_config({"kinds": ["FLV"]})


def test_digest_is_over_raw_bytes(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(BASE))
    _, _, digest_a = load_config_file(path)
    path.write_text(json.dumps(BASE) + " ")
    _, _, digest_b = load_config_file(path)
    assert digest_a != digest_b


def test_invalid_json_reports_line(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{\n  "kinds": [}\n')
    with pytest.raises(ConfigError, match="line 2"):
        load_config_file(path)


def test_scenario_overrides_pass_through():
    config = parse_config(dict(BASE, scenario_overrides={"FLV": {"npc": {"speed": 12.0}}}))
    spec, _ = config.seed_for(ScenarioKind.FLV)
    assert spec.npc.behavior.speed == 12.0


@pytest.mark.parametrize("yaw", [math.pi, -math.pi, 3.0, -1.2345678901234567, 0.1])
def test_override_yaw_in_range_is_kept_as_given(yaw):
    config = parse_config(dict(BASE, scenario_overrides={"FLV": {"npc": {"yaw": yaw}}}))
    spec, _ = config.seed_for(ScenarioKind.FLV)
    assert spec.npc.yaw == yaw


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
NUMBERS = st.integers() | st.floats()


def _object(keys, values):
    return st.dictionaries(st.sampled_from(keys), values, max_size=4)


PLANS = _object(["default", "FLV", "PSF"], _object(sorted(_PLAN_KEYS), NUMBERS | st.lists(NUMBERS) | JSON) | JSON)
ACTOR = _object(["speed", "half_length", "half_width", "x", "y", "yaw"], NUMBERS | JSON)
OVERRIDES = _object(["FLV", "PSF", "InC"], _object(["ev", "npc", "initial_gap", "lane_width"], ACTOR | JSON) | JSON)


@settings(max_examples=300, deadline=200)
@given(plans=PLANS | JSON, overrides=OVERRIDES | JSON)
def test_arbitrary_plan_and_override_blocks_parse_or_raise_config_error(plans, overrides):
    try:
        parse_config(dict(BASE, plans=plans, scenario_overrides=overrides))
    except ConfigError:
        pass
