"""Guided step-wise fuzzing campaigns from determined-collision seeds.

A guided round nests three sweeps: trigger distance (outer), post-trigger
speed (middle), and the collision angle (inner). Within each (distance,
speed) cell the angle is swept outward from the seed angle, first along the
positive branch and then the negative one; a branch ends after k_nc
consecutive non-collision verdicts or when it steps past the range bound.
Rounds never stop early on a found ignored collision: the point is to walk
the whole boundary of the collision region, where the misses live.

Two ablation baselines share the executor and oracle:
    random   - parameters drawn uniformly from the plan ranges
    nc_start - the same nested sweep, but each angle branch starts at the
               non-collision side (angle bound, far distances first) and
               walks back toward the seed angle

All bookkeeping time is virtual: each execution costs its simulated trace
duration in seconds. That keeps campaign logs byte-reproducible while still
penalizing time wasted in non-collision space, where traces run to the full
horizon instead of stopping at contact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice
from typing import Iterable, Iterator, Mapping

import numpy as np

from . import report as report_mod
from .detector import DefectModel
from .oracle import OracleConfig, ScenarioType, check_ic
from .scenario import (
    DISTANCE_MAX,
    DISTANCE_MIN,
    SPEED_MAX,
    ControlParameters,
    ScenarioKind,
    ScenarioSpec,
    apply_overrides,
    make_seed,
    validate_seed,
)
from .simulator import CruiseStage, SimConfig, simulate


class InvalidSeedError(ValueError):
    """Seed scenario does not produce a determined collision."""


class MutatorKind(str, Enum):
    GUIDED = "guided"
    RANDOM = "random"
    NC_START = "nc_start"


class AngleMode(str, Enum):
    SCALAR = "scalar"
    PER_AXIS = "per-axis"


# The most values a stepped schedule may hold. A step that would give more
# is rejected before the schedule is built.
MAX_SCHEDULE_LEN = 10_000


def stepped_schedule(start: float, step: float, hi: float) -> tuple[float, ...]:
    """start, start + step, ... up to hi, each rounded to 9 decimals; SearchPlan checks the range."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"step must be positive and finite, got {step}")
    if (hi + 1e-9 - start) / step >= MAX_SCHEDULE_LEN:
        raise ValueError(f"step {step} from {start} gives more than {MAX_SCHEDULE_LEN} values")
    values = []
    v = start
    while v <= hi + 1e-9:
        values.append(round(v, 9))
        v += step
    return tuple(values)


@dataclass(frozen=True)
class SearchPlan:
    distance_schedule: tuple[float, ...]
    speed_schedule: tuple[float, ...]
    angle_step_long: float
    angle_step_lat: float
    angle_mode: AngleMode = AngleMode.SCALAR
    k_nc: int = 3

    def __post_init__(self) -> None:
        for name, sched, lo, hi in (
            ("distance", self.distance_schedule, DISTANCE_MIN, DISTANCE_MAX),
            ("speed", self.speed_schedule, 0.0, SPEED_MAX),
        ):
            if not sched:
                raise ValueError(f"{name} schedule must not be empty")
            if not all(a < b for a, b in zip(sched, sched[1:])):
                raise ValueError(f"{name} schedule must be strictly ascending")
            if not lo - 1e-9 <= sched[0] <= sched[-1] <= hi + 1e-9 or (name == "speed" and sched[0] <= 0.0):
                raise ValueError(f"{name} schedule outside {lo:g}..{hi:g}")
        if not (self.angle_step_long > 0.0 and self.angle_step_lat > 0.0):
            raise ValueError("angle steps must be positive")
        if self.k_nc < 1:
            raise ValueError("k_nc must be >= 1")

    @classmethod
    def from_steps(
        cls,
        distance_step: float = 1.0,
        speed_step: float = 1.0,
        angle_step_long: float = 0.04,
        angle_step_lat: float = 0.03,
        distance_start: float = DISTANCE_MIN,
        speed_start: float = 2.0,
        angle_mode: AngleMode = AngleMode.SCALAR,
        k_nc: int = 3,
    ) -> "SearchPlan":
        return cls(
            distance_schedule=stepped_schedule(distance_start, distance_step, DISTANCE_MAX),
            speed_schedule=stepped_schedule(speed_start, speed_step, SPEED_MAX),
            angle_step_long=angle_step_long,
            angle_step_lat=angle_step_lat,
            angle_mode=AngleMode(angle_mode),
            k_nc=k_nc,
        )


# Per-kind step defaults. FLB comes from the step-size study; LC, PSF and InC
# from its supplementary values. FLV and PCF are not listed anywhere, so they
# adopt the FLB and PSF steps for their matching struck-object classes.
DEFAULT_PLANS: Mapping[ScenarioKind, SearchPlan] = {
    ScenarioKind.FLB: SearchPlan.from_steps(1.0, 1.0, 0.04, 0.03),
    ScenarioKind.FLV: SearchPlan.from_steps(1.0, 1.0, 0.04, 0.03),
    ScenarioKind.LC: SearchPlan.from_steps(1.0, 1.0, 0.05, 0.04),
    ScenarioKind.InC: SearchPlan.from_steps(4.0, 1.0, 0.05, 0.02),
    ScenarioKind.PSF: SearchPlan.from_steps(1.0, 1.0, 0.03, 0.03),
    ScenarioKind.PCF: SearchPlan.from_steps(1.0, 1.0, 0.03, 0.03),
}


def _branch(params: ControlParameters, sign: int, plan: SearchPlan) -> Iterator[ControlParameters]:
    """params, then each angle one lateral step further in direction sign, until a step leaves the range.

    Scalar mode steps the angle a; per-axis mode steps theta_lat and holds
    theta_long. A step that lands within 1e-9 past a bound is clamped to it.
    """
    scalar = plan.angle_mode is AngleMode.SCALAR
    while True:
        yield params
        value = round((params.a if scalar else params.theta_lat) + sign * plan.angle_step_lat, 9)
        if abs(value) > 1.0 + 1e-9:
            return
        value = max(-1.0, min(1.0, value))
        params = params.with_angle(value) if scalar else replace(params, theta_lat=value)


@dataclass(frozen=True, slots=True)
class OutcomeRecord:
    kind: ScenarioKind
    params: ControlParameters
    verdict: ScenarioType
    first_contact_time: float | None
    ordinal: int
    sim_seconds: float
    clock_seconds: float

    @property
    def buckets(self) -> report_mod.BucketLabels:
        """The report buckets of the parameters, derived on each access."""
        return report_mod.bucket(self.params)

    @property
    def category(self) -> report_mod.CategoryLabel:
        """The IC category of the parameters, derived on each access."""
        return report_mod.categorize(self.params)

    @classmethod
    def from_json_dict(cls, data: dict) -> "OutcomeRecord":
        params = ControlParameters(
            d=data["d"], v_hat=data["v_hat"], theta_long=data["theta_long"], theta_lat=data["theta_lat"]
        )
        return cls(
            kind=ScenarioKind(data["kind"]),
            params=params,
            verdict=ScenarioType(data["verdict"]),
            first_contact_time=data["first_contact_time"],
            ordinal=data["ordinal"],
            sim_seconds=data["sim_seconds"],
            clock_seconds=data["clock_seconds"],
        )


@dataclass(frozen=True)
class CampaignConfig:
    kinds: tuple[ScenarioKind, ...]
    budget: int
    mutator: MutatorKind = MutatorKind.GUIDED
    plans: Mapping[ScenarioKind, SearchPlan] = field(default_factory=lambda: dict(DEFAULT_PLANS))
    defect: DefectModel = DefectModel()
    oracle: OracleConfig = OracleConfig()
    sim: SimConfig = SimConfig()
    rng_seed: int = 0
    scenario_overrides: Mapping[ScenarioKind, dict] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError("budget must be >= 0")
        if not self.kinds:
            raise ValueError("at least one scenario kind required")
        for kind in self.kinds:
            if kind not in self.plans:
                raise ValueError(f"no search plan for kind {kind.value}")

    def seed_for(self, kind: ScenarioKind) -> tuple[ScenarioSpec, ControlParameters]:
        spec, params = make_seed(kind)
        overrides = self.scenario_overrides.get(kind)
        if overrides:
            spec = apply_overrides(spec, overrides)
        return spec, params


@dataclass
class CampaignResult:
    records: list[OutcomeRecord]
    config: CampaignConfig

    @property
    def totals(self) -> dict[ScenarioType, int]:
        return report_mod.verdict_totals(self.records)

    @property
    def proportion(self) -> float:
        return self.totals[ScenarioType.IC] / len(self.records) if self.records else 0.0

    def manifest(self, summary: dict) -> dict:
        """The run's manifest; its counts come from `summary`, the summary of the run's SR report."""
        return {
            "format": "silentcrash-manifest-v1",
            "mutator": self.config.mutator.value,
            "kinds": [k.value for k in self.config.kinds],
            "budget": self.config.budget,
            "executions": summary["executions"],
            "totals": summary["totals"],
            "rng_seed": self.config.rng_seed,
            "time_to_first_ics": summary["time_to_first_ics"],
            "mean_time_to_first_ics": summary["mean_time_to_first_ics"],
        }


class _Executor:
    """Runs executions, classifies them, and keeps the virtual clock.

    It keeps the last execution's cruise stage; simulate reuses it while the
    spec and the trigger distance stay the same, as they do along a guided
    round's speed and angle sweeps.
    """

    def __init__(self, config: CampaignConfig):
        self.config = config
        self.records: list[OutcomeRecord] = []
        self.clock = 0.0
        self._cruise: CruiseStage | None = None

    def budget_left(self) -> int:
        return self.config.budget - len(self.records)

    def run(self, spec: ScenarioSpec, params: ControlParameters) -> OutcomeRecord:
        trace = simulate(spec, params, self.config.sim, self._cruise)
        self._cruise = trace.cruise
        verdict = check_ic(trace, self.config.defect, self.config.oracle)
        self.clock += trace.duration
        fc = trace.first_contact
        record = OutcomeRecord(
            kind=spec.kind,
            params=params,
            verdict=verdict,
            first_contact_time=None if fc is None else round(trace.time(fc), 9),
            ordinal=len(self.records),
            sim_seconds=round(trace.duration, 9),
            clock_seconds=round(self.clock, 9),
        )
        self.records.append(record)
        return record


def _walk(
    executor: _Executor,
    spec: ScenarioSpec,
    branch: Iterable[ControlParameters],
    k_nc: int,
    armed: bool = True,
) -> None:
    """Run a branch in order until k_nc consecutive NCs once armed, its end, or the budget's end.

    An unarmed walk arms at its first verdict other than NC.
    """
    consecutive_nc = 0
    for params in branch:
        if executor.budget_left() <= 0:
            return
        if executor.run(spec, params).verdict is ScenarioType.NC:
            consecutive_nc += 1
        else:
            armed, consecutive_nc = True, 0
        if armed and consecutive_nc >= k_nc:
            return


def run_round(
    seed: tuple[ScenarioSpec, ControlParameters],
    config: CampaignConfig,
    executor: _Executor | None = None,
) -> list[OutcomeRecord]:
    """One guided round over a seed: nested distance/speed/angle sweeps."""
    spec, seed_params = seed
    if not validate_seed(spec, seed_params, config.sim):
        raise InvalidSeedError(f"seed for {spec.kind.value} does not produce a determined collision")
    executor = executor if executor is not None else _Executor(config)
    plan = config.plans[spec.kind]
    start = len(executor.records)
    for d in plan.distance_schedule:
        for v in plan.speed_schedule:
            if executor.budget_left() <= 0:
                return executor.records[start:]
            center = ControlParameters.from_angle(d=d, v_hat=v, a=seed_params.a)
            _walk(executor, spec, _branch(center, +1, plan), plan.k_nc)
            _walk(executor, spec, islice(_branch(center, -1, plan), 1, None), plan.k_nc)
    return executor.records[start:]


def _run_nc_start_round(
    seed: tuple[ScenarioSpec, ControlParameters],
    config: CampaignConfig,
    executor: _Executor,
) -> None:
    """Baseline round starting each angle branch from the non-collision side.

    The round is displaced to the non-collision corner of the plan box (far
    trigger distance, +1 angle bound; validated non-colliding) and the
    stepping runs reversed from there: distance descending toward the seed,
    angle from the bound toward and past the seed angle. A branch's
    NC-termination counter arms once it has entered the collision region,
    so every cell pays for crossing the non-collision band before it can
    observe anything, which is the structural handicap of starting from
    non-collision scenarios.
    """
    spec, _ = seed
    plan = config.plans[spec.kind]
    displaced = ControlParameters.from_angle(
        d=plan.distance_schedule[-1], v_hat=plan.speed_schedule[0], a=1.0
    )
    if validate_seed(spec, displaced, config.sim):
        raise InvalidSeedError(
            f"nc_start displacement for {spec.kind.value} still collides; adjust the plan"
        )
    for d in reversed(plan.distance_schedule):
        for v in plan.speed_schedule:
            start = ControlParameters.from_angle(d=d, v_hat=v, a=1.0)
            _walk(executor, spec, _branch(start, -1, plan), plan.k_nc, armed=False)


def _run_random(config: CampaignConfig, executor: _Executor) -> None:
    rng = np.random.default_rng(config.rng_seed)
    seeds = {kind: config.seed_for(kind) for kind in config.kinds}
    i = 0
    while executor.budget_left() > 0:
        kind = config.kinds[i % len(config.kinds)]
        spec, _ = seeds[kind]
        plan = config.plans[kind]
        params = ControlParameters.from_angle(
            d=float(rng.uniform(plan.distance_schedule[0], plan.distance_schedule[-1])),
            v_hat=float(rng.uniform(plan.speed_schedule[0], plan.speed_schedule[-1])),
            a=float(rng.uniform(-1.0, 1.0)),
        )
        executor.run(spec, params)
        i += 1


def run_campaign(config: CampaignConfig) -> CampaignResult:
    """Run a full campaign; deterministic given the config (incl. rng_seed)."""
    executor = _Executor(config)
    if config.budget == 0:
        return CampaignResult(records=[], config=config)
    if config.mutator is MutatorKind.RANDOM:
        _run_random(config, executor)
    else:
        for kind in config.kinds:
            if executor.budget_left() <= 0:
                break
            seed = config.seed_for(kind)
            if config.mutator is MutatorKind.GUIDED:
                run_round(seed, config, executor)
            else:
                _run_nc_start_round(seed, config, executor)
    return CampaignResult(records=executor.records, config=config)


@dataclass(frozen=True)
class StepSweepPoint:
    step: float
    mean_ics: float
    counts: tuple[int, ...]


SWEEP_AXES = ("distance", "speed", "angle", "angle_long", "angle_lat")


def _axis_grid(axis: str, step: float) -> list[float]:
    """The values a single-axis sweep visits over the axis's full range, in order.

    One stepped schedule from the axis's start (DISTANCE_MIN for distance,
    one step otherwise) to its bound; the two angle axes start at 0 and take
    each value with both signs.
    """
    hi = {"distance": DISTANCE_MAX, "speed": SPEED_MAX}.get(axis, 1.0)
    values = [min(v, hi) for v in stepped_schedule(DISTANCE_MIN if axis == "distance" else step, step, hi)]
    if axis in ("angle", "angle_lat"):
        return [0.0, *(signed for v in values for signed in (v, -v))]
    return values


def _axis_params(axis: str, value: float, fixed: ControlParameters) -> ControlParameters:
    """fixed with the swept axis set to value."""
    if axis == "angle":
        return fixed.with_angle(value)
    field_name = {"distance": "d", "speed": "v_hat", "angle_long": "theta_long", "angle_lat": "theta_lat"}[axis]
    return replace(fixed, **{field_name: value})


def step_size_sweep(
    kind: ScenarioKind,
    axis: str,
    step_values: list[float],
    trials: int,
    config: CampaignConfig | None = None,
) -> list[StepSweepPoint]:
    """Average ignored-collision counts of single-axis sweeps per step size.

    For each trial the off-axis parameters are drawn uniformly from the plan
    ranges with a trial-indexed rng, so trial i is identical no matter how
    many trials run in total.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}")
    grids = [_axis_grid(axis, float(step)) for step in step_values]
    kind = ScenarioKind(kind)
    if config is None:
        config = CampaignConfig(kinds=(kind,), budget=1)
    spec, _ = config.seed_for(kind)
    plan = config.plans[kind]

    points = []
    cruise = None
    for step, grid in zip(step_values, grids):
        counts = []
        for trial in range(trials):
            rng = np.random.default_rng([config.rng_seed, trial])
            fixed = ControlParameters.from_angle(
                d=float(rng.uniform(DISTANCE_MIN, DISTANCE_MAX)),
                v_hat=float(rng.uniform(plan.speed_schedule[0], SPEED_MAX)),
                a=float(rng.uniform(-1.0, 1.0)),
            )
            ics = 0
            for value in grid:
                trace = simulate(spec, _axis_params(axis, value, fixed), config.sim, cruise)
                cruise = trace.cruise
                if check_ic(trace, config.defect, config.oracle) is ScenarioType.IC:
                    ics += 1
            counts.append(ics)
        points.append(StepSweepPoint(step=float(step), mean_ics=sum(counts) / trials, counts=tuple(counts)))
    return points
