import math

import pytest

from silentcrash.geometry import Point2, overlaps
from silentcrash.scenario import (
    Behavior,
    BehaviorKind,
    ControlParameters,
    ScenarioKind,
    apply_overrides,
    make_seed,
    validate_seed,
)
from silentcrash.simulator import simulate
from sim_oracle import trace_arrays

ALL_KINDS = list(ScenarioKind)


def test_make_seed_is_deterministic():
    for kind in ALL_KINDS:
        assert make_seed(kind) == make_seed(kind)


def test_every_seed_is_a_determined_collision():
    for kind in ALL_KINDS:
        spec, params = make_seed(kind)
        assert validate_seed(spec, params), kind


def test_actors_start_disjoint():
    for kind in ALL_KINDS:
        spec, _ = make_seed(kind)
        assert not overlaps(spec.ev.box(), spec.npc.box())


def test_flv_seed_matches_car_following_setup():
    spec, params = make_seed(ScenarioKind.FLV)
    assert spec.ev.behavior == Behavior(BehaviorKind.CRUISE, 20.0)
    assert spec.npc.behavior == Behavior(BehaviorKind.CRUISE, 10.0)
    assert spec.npc.position == Point2(30.0, 0.0)
    assert (params.d, params.v_hat, params.a) == (2.0, 20.0, 0.0)


def test_psf_seed_hits_head_center():
    spec, params = make_seed(ScenarioKind.PSF)
    assert spec.npc.behavior.kind is BehaviorKind.STATIC
    trace = simulate(spec, params)
    i = trace.first_contact
    assert i is not None
    # straight-ahead seed: the EV center line passes through the pedestrian
    assert abs(float(trace_arrays(trace).ev_centers[i, 1]) - spec.npc.position.y) < 1e-9


def test_inc_seed_timed_for_simultaneous_arrival():
    spec, params = make_seed(ScenarioKind.InC)
    crossing_x = spec.npc.position.x
    ev_eta = crossing_x / spec.ev.behavior.speed
    npc_eta = -spec.npc.position.y / spec.npc.behavior.speed
    assert ev_eta == pytest.approx(npc_eta)
    assert validate_seed(spec, params)


def test_flv_equal_speeds_never_collides():
    spec, params = make_seed(ScenarioKind.FLV)
    spec = apply_overrides(spec, {"npc": {"speed": 20.0}})
    assert not validate_seed(spec, params)


def test_flv_full_veer_at_max_distance_misses():
    spec, _ = make_seed(ScenarioKind.FLV)
    params = ControlParameters.from_angle(d=7.0, v_hat=20.0, a=1.0)
    assert not validate_seed(spec, params)


class TestControlParameters:
    def test_angle_round_trip(self):
        for a in (-1.0, -0.4, 0.0, 0.33, 1.0):
            p = ControlParameters.from_angle(d=3.0, v_hat=10.0, a=a)
            assert p.a == pytest.approx(a, abs=1e-12)

    def test_distance_range_enforced(self):
        with pytest.raises(ValueError, match="2..7"):
            ControlParameters.from_angle(d=9.0, v_hat=10.0, a=0.0)
        with pytest.raises(ValueError):
            ControlParameters.from_angle(d=1.5, v_hat=10.0, a=0.0)

    def test_speed_range_enforced(self):
        with pytest.raises(ValueError):
            ControlParameters.from_angle(d=3.0, v_hat=0.0, a=0.0)
        with pytest.raises(ValueError):
            ControlParameters.from_angle(d=3.0, v_hat=50.5, a=0.0)

    def test_direction_pair_must_be_forward(self):
        with pytest.raises(ValueError):
            ControlParameters(d=3.0, v_hat=10.0, theta_long=-0.1, theta_lat=0.0)
        with pytest.raises(ValueError):
            ControlParameters(d=3.0, v_hat=10.0, theta_long=0.0, theta_lat=0.0)

    @pytest.mark.parametrize(
        "theta_long, theta_lat",
        [(math.nan, 0.0), (0.5, math.nan), (math.nan, math.nan), (math.inf, 0.0), (1.0, -math.inf)],
    )
    def test_direction_pair_must_be_finite(self, theta_long, theta_lat):
        # every comparison with NaN is false, so the range checks alone let it through
        with pytest.raises(ValueError, match="must be finite"):
            ControlParameters(d=3.0, v_hat=10.0, theta_long=theta_long, theta_lat=theta_lat)

    def test_angle_is_derived_from_direction_pair(self):
        p = ControlParameters(d=3.0, v_hat=10.0, theta_long=1.0, theta_lat=1.0)
        assert p.a == pytest.approx(0.5)
        assert math.atan2(p.theta_lat, p.theta_long) == pytest.approx(p.a * math.pi / 2)


class TestOverrides:
    def test_unknown_key_rejected(self):
        spec, _ = make_seed(ScenarioKind.FLV)
        with pytest.raises(ValueError, match="override"):
            apply_overrides(spec, {"weather": "rain"})
        with pytest.raises(ValueError, match="override"):
            apply_overrides(spec, {"npc": {"mass": 1000}})

    @pytest.mark.parametrize("key", ["initial_gap", "lane_width"])
    def test_spec_keys_the_simulator_never_reads_are_rejected(self, key):
        spec, _ = make_seed(ScenarioKind.FLV)
        with pytest.raises(ValueError, match=key):
            apply_overrides(spec, {key: 30.0})

    def test_actor_fields_apply(self):
        spec, _ = make_seed(ScenarioKind.FLV)
        out = apply_overrides(spec, {"npc": {"speed": 12.0, "x": 40.0}})
        assert out.npc.behavior.speed == 12.0
        assert out.npc.position.x == 40.0
        assert out.ev == spec.ev
