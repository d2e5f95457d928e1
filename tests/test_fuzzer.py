import dataclasses
import hashlib
import json
from itertools import islice
from types import SimpleNamespace

import pytest

from record_oracle import record_line
from sim_oracle import DenseExecutor, assert_same_text, validate_seed_full
from silentcrash import fuzzer
from silentcrash.detector import PERFECT_DETECTOR
from silentcrash.fuzzer import (
    AngleMode,
    CampaignConfig,
    InvalidSeedError,
    MutatorKind,
    SWEEP_AXES,
    SearchPlan,
    _axis_grid,
    _branch,
    _Executor,
    _walk,
    run_campaign,
    run_round,
    step_size_sweep,
)
from silentcrash.oracle import ScenarioType, check_ic
from silentcrash.report import success_rates
from silentcrash.scenario import ControlParameters, ScenarioKind, make_seed
from silentcrash.simulator import simulate
from test_cli import SHIPPED_DIGESTS, VARIANT_DIGESTS

PLAN = SearchPlan.from_steps(
    distance_step=1.0, speed_step=1.0, angle_step_long=0.04, angle_step_lat=0.02
)


def small_config(kind=ScenarioKind.FLV, budget=4000, **kw):
    plan = kw.pop(
        "plan",
        SearchPlan(
            distance_schedule=(5.0, 6.0, 7.0),
            speed_schedule=(10.0, 25.0, 40.0),
            angle_step_long=0.04,
            angle_step_lat=0.03,
        ),
    )
    return CampaignConfig(
        kinds=(kind,), budget=budget, plans={kind: plan}, **kw
    )


def branch_angles(params, sign, plan):
    return [round(q.a, 9) for q in _branch(params, sign, plan)]


class TestMutateStep:
    """One angle branch: the seed, then one lateral step at a time up to the range bound."""

    def test_angle_plus_small_step(self):
        p = ControlParameters.from_angle(d=3.0, v_hat=10.0, a=0.02)
        assert list(islice(_branch(p, +1, PLAN), 2))[1].a == pytest.approx(0.04)

    def test_angle_minus_from_zero(self):
        plan = SearchPlan.from_steps(angle_step_lat=0.03)
        p = ControlParameters.from_angle(d=3.0, v_hat=10.0, a=0.0)
        first, second = islice(_branch(p, -1, plan), 2)
        assert first is p
        assert (second.d, second.v_hat, second.a) == (3.0, 10.0, pytest.approx(-0.03))

    def test_angle_past_range_exhausts(self):
        p = ControlParameters.from_angle(d=2.0, v_hat=10.0, a=1.0)
        assert list(_branch(p, +1, PLAN)) == [p]
        p = ControlParameters.from_angle(d=2.0, v_hat=10.0, a=0.95)
        assert branch_angles(p, +1, PLAN) == [0.95, 0.97, 0.99]

    def test_step_landing_on_the_bound_is_kept(self):
        plan = SearchPlan.from_steps(angle_step_lat=0.25)
        p = ControlParameters.from_angle(d=3.0, v_hat=10.0, a=0.5)
        assert branch_angles(p, +1, plan) == [0.5, 0.75, 1.0]
        assert branch_angles(p, -1, plan) == [0.5, 0.25, 0.0, -0.25, -0.5, -0.75, -1.0]

    def test_per_axis_mode_steps_lateral_component(self):
        plan = dataclasses.replace(PLAN, angle_mode=AngleMode.PER_AXIS)
        p = ControlParameters(d=3.0, v_hat=10.0, theta_long=1.0, theta_lat=0.0)
        up, down = list(_branch(p, +1, plan)), list(_branch(p, -1, plan))
        assert (up[1].theta_long, up[1].theta_lat) == (1.0, 0.02)
        assert all(q.theta_long == 1.0 and (q.d, q.v_hat) == (3.0, 10.0) for q in up + down)
        assert len(up) == len(down) == 51
        assert (up[-1].theta_lat, down[-1].theta_lat) == (1.0, -1.0)


class ScriptedExecutor:
    """Stands in for _Executor: gives the scripted verdicts in order and keeps the parameters run."""

    def __init__(self, verdicts, budget=100):
        self.verdicts = [ScenarioType(v) for v in verdicts]
        self.budget = budget
        self.ran = []

    def budget_left(self):
        return self.budget - len(self.ran)

    def run(self, spec, params):
        self.ran.append(params)
        return SimpleNamespace(verdict=self.verdicts[len(self.ran) - 1])


class TestWalk:
    VERDICTS = ["NC"] * 4 + ["DC", "NC", "IC"] + ["NC"] * 5

    def walk(self, budget=100, branch=range(12), **kw):
        executor = ScriptedExecutor(self.VERDICTS, budget)
        _walk(executor, None, branch, 3, **kw)
        return executor.ran

    def test_armed_walk_stops_at_k_nc_consecutive_ncs(self):
        assert self.walk() == [0, 1, 2]

    def test_unarmed_walk_does_not_stop_on_leading_ncs(self):
        assert self.walk(armed=False) == list(range(10))

    def test_walk_stops_at_branch_end_and_budget(self):
        assert self.walk(branch=range(5), armed=False) == list(range(5))
        assert self.walk(budget=6, armed=False) == list(range(6))
        assert self.walk(budget=0) == []


def split_cells(records):
    cells = {}
    for rec in records:
        cells.setdefault((rec.params.d, rec.params.v_hat), []).append(rec)
    return cells


def split_branches(cell_records):
    """Split one cell's records into the + branch and the - branch."""
    a0 = cell_records[0].params.a
    for i, rec in enumerate(cell_records):
        if rec.params.a < a0 - 1e-12:
            return cell_records[:i], cell_records[i:]
    return cell_records, []


@pytest.fixture(scope="module")
def flv_perfect():
    config = small_config(defect=PERFECT_DETECTOR)
    seed = make_seed(ScenarioKind.FLV)
    return config, run_round(seed, config)


class TestGuidedRound:
    def test_no_ignored_collisions_under_perfect_detector(self, flv_perfect):
        _, records = flv_perfect
        verdicts = {r.verdict for r in records}
        assert ScenarioType.IC not in verdicts
        assert ScenarioType.FP not in verdicts
        assert ScenarioType.DC in verdicts

    def test_branches_end_with_exactly_k_nc_trailing_ncs(self, flv_perfect):
        config, records = flv_perfect
        plan = config.plans[ScenarioKind.FLV]
        checked = 0
        for cell in split_cells(records).values():
            for branch in split_branches(cell):
                if not branch:
                    continue
                hit_bound = abs(branch[-1].params.a) > 1.0 - plan.angle_step_lat
                if hit_bound:
                    continue
                tail = 0
                for rec in reversed(branch):
                    if rec.verdict is ScenarioType.NC:
                        tail += 1
                    else:
                        break
                assert tail == plan.k_nc
                checked += 1
        assert checked > 0

    def test_cells_cover_the_full_schedule(self, flv_perfect):
        config, records = flv_perfect
        plan = config.plans[ScenarioKind.FLV]
        expected = {(d, v) for d in plan.distance_schedule for v in plan.speed_schedule}
        assert set(split_cells(records)) == expected

    def test_stepping_faithfulness_within_branches(self, flv_perfect):
        config, records = flv_perfect
        step = config.plans[ScenarioKind.FLV].angle_step_lat
        for cell in split_cells(records).values():
            for branch in split_branches(cell):
                for prev, cur in zip(branch, branch[1:]):
                    assert cur.params.d == prev.params.d
                    assert cur.params.v_hat == prev.params.v_hat
                    assert abs(abs(cur.params.a - prev.params.a) - step) < 1e-9

    def test_guided_minus_branch_excludes_the_center(self, flv_perfect):
        _, records = flv_perfect
        seed_a = make_seed(ScenarioKind.FLV)[1].a
        for (d, v), cell in split_cells(records).items():
            center = ControlParameters.from_angle(d=d, v_hat=v, a=seed_a)
            plus, minus = split_branches(cell)
            assert plus[0].params == center
            assert center not in [r.params for r in plus[1:] + minus]

    def test_k_nc_one_branches_are_prefixes_of_k_nc_three(self):
        base = small_config(budget=10000)
        fast_plan = dataclasses.replace(base.plans[ScenarioKind.FLV], k_nc=1)
        fast = small_config(budget=10000, plan=fast_plan)
        seed = make_seed(ScenarioKind.FLV)
        slow_cells = split_cells(run_round(seed, base))
        fast_cells = split_cells(run_round(seed, fast))
        assert set(fast_cells) == set(slow_cells)
        for key in slow_cells:
            for quick, full in zip(split_branches(fast_cells[key]), split_branches(slow_cells[key])):
                params = [r.params for r in quick]
                assert params == [r.params for r in full][: len(params)]

    def test_round_does_not_stop_on_first_ics(self):
        config = small_config(kind=ScenarioKind.FLB, budget=8000)
        records = run_round(make_seed(ScenarioKind.FLB), config)
        ic_ordinals = [r.ordinal for r in records if r.verdict is ScenarioType.IC]
        assert ic_ordinals and ic_ordinals[0] < records[-1].ordinal

    def test_psf_round_finds_boundary_grazes(self):
        # the exhaustive grid scan places PSF's ignored collisions in narrow
        # bands at the angle boundary of the collision region (|a| ~ 0.1-0.3)
        plan = SearchPlan(
            distance_schedule=(3.0, 4.0, 5.0, 6.0, 7.0),
            speed_schedule=(5.0, 15.0, 25.0, 35.0, 45.0),
            angle_step_long=0.03,
            angle_step_lat=0.03,
        )
        config = small_config(kind=ScenarioKind.PSF, budget=8000, plan=plan)
        records = run_round(make_seed(ScenarioKind.PSF), config)
        ics = [r for r in records if r.verdict is ScenarioType.IC]
        assert ics
        assert all(0.05 <= abs(r.params.a) <= 0.4 for r in ics)

    def test_invalid_seed_rejected_up_front(self):
        config = small_config()
        spec, _ = make_seed(ScenarioKind.FLV)
        stalled = ControlParameters.from_angle(d=7.0, v_hat=20.0, a=1.0)
        with pytest.raises(InvalidSeedError):
            run_round((spec, stalled), config)


class TestCampaign:
    def test_budget_zero_gives_empty_result_with_manifest(self):
        result = run_campaign(small_config(budget=0))
        assert result.records == []
        manifest = result.manifest(success_rates(result.records).summary)
        assert manifest["executions"] == 0
        assert manifest["totals"] == {"IC": 0, "DC": 0, "NC": 0, "FP": 0}

    def test_budget_is_an_exact_cap(self):
        result = run_campaign(small_config(budget=37))
        assert len(result.records) == 37
        assert [r.ordinal for r in result.records] == list(range(37))

    def test_guided_campaign_is_deterministic(self):
        config = small_config(budget=500)
        a = run_campaign(config)
        b = run_campaign(config)
        assert [record_line(r) for r in a.records] == [record_line(r) for r in b.records]

    def test_random_campaign_is_deterministic_and_in_range(self):
        config = small_config(budget=300, mutator=MutatorKind.RANDOM, rng_seed=99)
        a = run_campaign(config)
        b = run_campaign(config)
        assert [r.params for r in a.records] == [r.params for r in b.records]
        plan = config.plans[ScenarioKind.FLV]
        for rec in a.records:
            assert plan.distance_schedule[0] <= rec.params.d <= plan.distance_schedule[-1]
            assert plan.speed_schedule[0] <= rec.params.v_hat <= plan.speed_schedule[-1]
            assert -1.0 <= rec.params.a <= 1.0

    def test_random_campaign_cycles_kinds_round_robin(self):
        kinds = (ScenarioKind.FLV, ScenarioKind.PSF)
        config = CampaignConfig(kinds=kinds, budget=10, mutator=MutatorKind.RANDOM)
        result = run_campaign(config)
        assert [r.kind for r in result.records] == [kinds[i % 2] for i in range(10)]

    def test_nc_start_is_deterministic_and_pays_an_nc_prefix(self):
        config = small_config(budget=4000, mutator=MutatorKind.NC_START)
        a = run_campaign(config)
        b = run_campaign(config)
        assert [r.params for r in a.records] == [r.params for r in b.records]
        first_cell = next(iter(split_cells(a.records).values()))
        assert first_cell[0].params.a == pytest.approx(1.0)
        assert first_cell[0].verdict is ScenarioType.NC

    def test_all_mutators_classify_identical_parameters_identically(self):
        config = small_config(budget=600, mutator=MutatorKind.RANDOM, rng_seed=3)
        result = run_campaign(config)
        spec, _ = config.seed_for(ScenarioKind.FLV)
        for rec in result.records[:40]:
            trace = simulate(spec, rec.params, config.sim)
            assert check_ic(trace, config.defect, config.oracle) is rec.verdict

    def test_executor_reuses_a_cruise_stage_only_for_the_same_spec_and_distance(self):
        config = CampaignConfig(kinds=(ScenarioKind.FLV, ScenarioKind.PSF), budget=10)
        flv, _ = config.seed_for(ScenarioKind.FLV)
        psf, _ = config.seed_for(ScenarioKind.PSF)
        executor = _Executor(config)
        # (spec, d, v_hat, a): the same spec and d, a new d, a new spec at the same d, ...
        steps = [
            (flv, 4.0, 20.0, 0.0),
            (flv, 4.0, 30.0, 0.3),
            (flv, 5.0, 30.0, 0.3),
            (psf, 5.0, 30.0, 0.3),
            (psf, 5.0, 10.0, -0.2),
            (flv, 5.0, 10.0, -0.2),
        ]
        stages = []
        for spec, d, v_hat, a in steps:
            params = ControlParameters.from_angle(d=d, v_hat=v_hat, a=a)
            record = executor.run(spec, params)
            stage = executor._cruise
            assert stage.spec is spec and stage.d == d
            fresh = simulate(spec, params, config.sim)
            assert (stage.trigger, stage.first_contact) == (fresh.cruise.trigger, fresh.cruise.first_contact)
            assert record.verdict is check_ic(fresh, config.defect, config.oracle)
            assert record.sim_seconds == round(fresh.duration, 9)
            fc = fresh.first_contact
            assert record.first_contact_time == (None if fc is None else round(fresh.time(fc), 9))
            stages.append(stage)
        assert stages[1] is stages[0] and stages[4] is stages[3]
        assert len({id(stage) for stage in stages}) == 4

    def test_virtual_clock_accumulates_trace_durations(self):
        result = run_campaign(small_config(budget=50))
        clock = 0.0
        for rec in result.records:
            clock += rec.sim_seconds
            assert rec.clock_seconds == pytest.approx(clock, abs=1e-6)

    def test_records_round_trip_through_json(self):
        from silentcrash.fuzzer import OutcomeRecord

        result = run_campaign(small_config(budget=80))
        for rec in result.records:
            back = OutcomeRecord.from_json_dict(json.loads(record_line(rec)))
            assert back == rec

    def test_per_axis_round_keeps_longitudinal_component(self):
        plan = SearchPlan(
            distance_schedule=(5.0, 7.0),
            speed_schedule=(10.0, 30.0),
            angle_step_long=0.04,
            angle_step_lat=0.05,
            angle_mode=AngleMode.PER_AXIS,
        )
        config = small_config(budget=2000, plan=plan)
        records = run_round(make_seed(ScenarioKind.FLV), config)
        assert all(r.params.theta_long == 1.0 for r in records)
        lats = {round(r.params.theta_lat, 9) for r in records}
        assert len(lats) > 3
        assert all(abs(r.params.theta_lat / 0.05 - round(r.params.theta_lat / 0.05)) < 1e-6 for r in records)


class TestStepSizeSweep:
    def test_first_trial_is_independent_of_trial_count(self):
        one = step_size_sweep(ScenarioKind.FLB, "angle", [0.05], trials=1)
        many = step_size_sweep(ScenarioKind.FLB, "angle", [0.05], trials=3)
        assert one[0].counts[0] == many[0].counts[0]

    def test_whole_range_hop_counts_at_most_one(self):
        points = step_size_sweep(ScenarioKind.FLB, "angle", [2.5], trials=4)
        assert all(c in (0, 1) for c in points[0].counts)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            step_size_sweep(ScenarioKind.FLB, "angle", [0.05], trials=0)
        with pytest.raises(ValueError):
            step_size_sweep(ScenarioKind.FLB, "mass", [0.05], trials=1)
        with pytest.raises(ValueError):
            step_size_sweep(ScenarioKind.FLB, "angle", [0.0], trials=1)

    def test_step_giving_too_many_values_is_rejected_before_simulating(self, monkeypatch):
        monkeypatch.setattr("silentcrash.fuzzer.simulate", lambda *args: pytest.fail("simulated"))
        for axis in SWEEP_AXES:
            with pytest.raises(ValueError, match="more than 10000 values"):
                step_size_sweep(ScenarioKind.FLB, axis, [0.5, 1e-300], trials=1)

    def test_axis_grids_are_stepped_schedules_over_each_range(self):
        assert _axis_grid("distance", 2.0) == [2.0, 4.0, 6.0]
        assert _axis_grid("distance", 0.4)[-1] == 6.8
        assert _axis_grid("speed", 20.0) == [20.0, 40.0]
        assert _axis_grid("angle_long", 0.3) == [0.3, 0.6, 0.9]
        for axis in ("angle", "angle_lat"):
            assert _axis_grid(axis, 0.5) == [0.0, 0.5, -0.5, 1.0, -1.0]
            assert _axis_grid(axis, 2.5) == [0.0]


def test_search_plan_validation():
    with pytest.raises(ValueError):
        SearchPlan(distance_schedule=(), speed_schedule=(5.0,), angle_step_long=0.1, angle_step_lat=0.1)
    with pytest.raises(ValueError):
        SearchPlan(distance_schedule=(3.0, 2.0), speed_schedule=(5.0,), angle_step_long=0.1, angle_step_lat=0.1)
    with pytest.raises(ValueError):
        SearchPlan(distance_schedule=(2.0, 9.0), speed_schedule=(5.0,), angle_step_long=0.1, angle_step_lat=0.1)
    with pytest.raises(ValueError):
        SearchPlan(distance_schedule=(2.0,), speed_schedule=(5.0,), angle_step_long=0.1, angle_step_lat=0.1, k_nc=0)


def test_campaign_config_requires_plan_per_kind():
    with pytest.raises(ValueError):
        CampaignConfig(kinds=(ScenarioKind.FLV,), budget=1, plans={})


@pytest.mark.parametrize("name", ["reference", "tunneling", "graze", "per-axis", "nc_start"])
def test_dense_campaign_spells_the_fast_paths_records(name, request, monkeypatch):
    """run_campaign through the dense executor writes the fast path's records byte for byte, and the pinned log.

    The dense side simulates every frame of the horizon for every execution
    and seed check (sim_oracle.simulate_full), with no cruise stage, memo or
    located search, and judges it with builtin_cd_full and oracle.classify;
    the fast side is the session-scoped fixture's campaign of the same config.
    per-axis is the reference config with every plan's angle mode per axis,
    and nc_start the reference config with the nc_start mutator.
    """
    fast = request.getfixturevalue(f"{name.replace('-', '_')}_result")
    monkeypatch.setattr(fuzzer, "_Executor", DenseExecutor)
    monkeypatch.setattr(fuzzer, "validate_seed", validate_seed_full)
    dense = run_campaign(fast.config)
    want = "".join(map(record_line, fast.records))
    assert_same_text("".join(map(record_line, dense.records)), want, name)
    digest = VARIANT_DIGESTS[name][0] if name in VARIANT_DIGESTS else SHIPPED_DIGESTS[name][0]
    assert hashlib.sha256(want.encode()).hexdigest() == digest
