"""Campaign config files: JSON schema, validation, and manifest digests.

The config is plain JSON. Every validation failure raises ConfigError with
the offending field path, so the CLI can print a usable diagnostic and exit
with the config-error status.
"""

from __future__ import annotations

import json
from pathlib import Path

from .detector import DefectModel
from .fuzzer import DEFAULT_PLANS, AngleMode, CampaignConfig, MutatorKind, SearchPlan, stepped_schedule
from .oracle import OracleConfig
from .scenario import DISTANCE_MAX, SPEED_MAX, ScenarioKind, apply_overrides, finite_number, make_seed
from .simulator import SimConfig


class ConfigError(ValueError):
    pass


_TOP_KEYS = {
    "kinds",
    "mutator",
    "budget",
    "rng_seed",
    "defect",
    "oracle",
    "sim",
    "plans",
    "scenario_overrides",
}
_PLAN_KEYS = {
    "distance_step",
    "distance_start",
    "speed_step",
    "speed_start",
    "distance_schedule",
    "speed_schedule",
    "angle_step_long",
    "angle_step_lat",
    "angle_mode",
    "k_nc",
}
_DEFECT_KEYS = {"sample_period", "min_penetration", "min_impact_speed"}
_SIM_KEYS = {"dt", "horizon", "settle_frames"}


def load_config_file(path) -> tuple[CampaignConfig, dict, str]:
    """Parse and validate a config file.

    Returns (config, parsed json, sha256 digest of the raw file bytes). The
    digest covers the bytes, not the parsed value, so any byte change in the
    file changes the digest.
    """
    # imported here: it loads OpenSSL (~3.5 MB, ~4 ms), which only `run`
    # and the sweeps need, never `replay` or `report`
    import hashlib

    raw = Path(path).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8/16/32 text: {exc.reason} at byte {exc.start}") from None
    return parse_config(data), data, digest


def parse_config(data: dict) -> CampaignConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")

    kinds = _parse_kinds(data.get("kinds", [k.value for k in ScenarioKind]))
    budget = _require_int(data, "budget", minimum=0)
    mutator = _parse_enum(MutatorKind, data.get("mutator", "guided"), "mutator")
    rng_seed = _require_int(data, "rng_seed", minimum=0, default=0)

    defect_block = _checked_block(data.get("defect", {}), _DEFECT_KEYS, "defect")
    sim_block = _checked_block(data.get("sim", {}), _SIM_KEYS, "sim")
    sample_period = _require_int(
        defect_block, "sample_period", minimum=1, default=DefectModel.sample_period, label="defect.sample_period"
    )
    settle_frames = _require_int(
        sim_block, "settle_frames", minimum=0, default=SimConfig.settle_frames, label="sim.settle_frames"
    )
    oracle_block = _checked_block(data.get("oracle", {}), {"t_bbox"}, "oracle")
    try:
        defect = DefectModel(**_numbers(defect_block, "defect"), sample_period=sample_period)
        oracle = OracleConfig(**_numbers(oracle_block, "oracle"))
        sim = SimConfig(**_numbers(sim_block, "sim"), settle_frames=settle_frames)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    plans = _parse_plans(data.get("plans", {}))
    overrides = _parse_overrides(data.get("scenario_overrides", {}))

    try:
        return CampaignConfig(
            kinds=kinds,
            budget=budget,
            mutator=mutator,
            plans=plans,
            defect=defect,
            oracle=oracle,
            sim=sim,
            rng_seed=rng_seed,
            scenario_overrides=overrides,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_kinds(raw) -> tuple[ScenarioKind, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError("kinds: must be a non-empty list")
    try:
        kinds = tuple(ScenarioKind(k) for k in raw)
    except ValueError:
        valid = ", ".join(k.value for k in ScenarioKind)
        raise ConfigError(f"kinds: entries must be among {valid}") from None
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ConfigError(f"kinds: duplicate entry {kind.value}")
    return kinds


def _parse_enum(enum_cls, raw, field: str):
    try:
        return enum_cls(raw)
    except ValueError:
        valid = ", ".join(e.value for e in enum_cls)
        raise ConfigError(f"{field}: {raw!r} is not one of {valid}") from None


def _require_int(data: dict, key: str, minimum: int, default: int | None = None, label: str | None = None) -> int:
    """data[key] as a JSON integer (not a bool or float) >= minimum; required unless a default is given."""
    label = label or key
    if key not in data:
        if default is None:
            raise ConfigError(f"{label}: required field missing")
        return default
    value = data[key]
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{label}: must be an integer >= {minimum}")
    return value


def _checked_block(raw, allowed: set, label: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{label}: must be an object")
    unknown = set(raw) - allowed
    if unknown:
        raise ConfigError(f"{label}: unknown keys {sorted(unknown)}")
    return raw


def _numbers(block: dict, label: str) -> dict:
    """The block's float fields (all but the integer frame counts), each checked to be a finite JSON number."""
    return {
        key: _number(value, f"{label}.{key}")
        for key, value in block.items()
        if key not in ("sample_period", "settle_frames")
    }


def _parse_plans(raw: dict) -> dict[ScenarioKind, SearchPlan]:
    if not isinstance(raw, dict):
        raise ConfigError("plans: must be an object")
    unknown = set(raw) - {"default"} - {k.value for k in ScenarioKind}
    if unknown:
        raise ConfigError(f"plans: unknown keys {sorted(unknown)}")
    default_block = _checked_block(raw.get("default", {}), _PLAN_KEYS, "plans.default")
    plans = {}
    for kind in ScenarioKind:
        block = {**default_block, **_checked_block(raw.get(kind.value, {}), _PLAN_KEYS, f"plans.{kind.value}")}
        plans[kind] = _plan_from_block(block, kind) if block else DEFAULT_PLANS[kind]
    return plans


def _plan_from_block(block: dict, kind: ScenarioKind) -> SearchPlan:
    """The kind's plan: the block's fields over the kind's defaults; SearchPlan checks ranges and order."""
    label = f"plans.{kind.value}"
    base = DEFAULT_PLANS[kind]

    def number(key: str, default: float) -> float:
        return _number(block.get(key, default), f"{label}.{key}")

    def schedule(axis: str, hi: float) -> tuple[float, ...]:
        key, default = f"{axis}_schedule", getattr(base, f"{axis}_schedule")
        if key in block:
            if not isinstance(block[key], list):
                raise ConfigError(f"{label}.{key}: must be a list of numbers")
            return tuple(_number(v, f"{label}.{key}") for v in block[key])
        start = number(f"{axis}_start", default[0])
        return stepped_schedule(start, number(f"{axis}_step", default[1] - default[0]), hi)

    try:
        return SearchPlan(
            distance_schedule=schedule("distance", DISTANCE_MAX),
            speed_schedule=schedule("speed", SPEED_MAX),
            angle_step_long=number("angle_step_long", base.angle_step_long),
            angle_step_lat=number("angle_step_lat", base.angle_step_lat),
            angle_mode=_parse_enum(AngleMode, block.get("angle_mode", base.angle_mode.value), f"{label}.angle_mode"),
            k_nc=_require_int(block, "k_nc", minimum=1, default=base.k_nc, label=f"{label}.k_nc"),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{label}: {exc}") from None


def _number(value, label: str) -> float:
    if not finite_number(value):
        raise ConfigError(f"{label}: must be a finite number")
    return float(value)


def _parse_overrides(raw: dict) -> dict[ScenarioKind, dict]:
    if not isinstance(raw, dict):
        raise ConfigError("scenario_overrides: must be an object")
    out = {}
    for key, block in raw.items():
        try:
            kind = ScenarioKind(key)
        except ValueError:
            raise ConfigError(f"scenario_overrides: unknown kind {key!r}") from None
        if not isinstance(block, dict):
            raise ConfigError(f"scenario_overrides.{key}: must be an object")
        try:
            apply_overrides(make_seed(kind)[0], block)
        except ValueError as exc:
            raise ConfigError(f"scenario_overrides.{key}: {exc}") from None
        out[kind] = block
    return out
