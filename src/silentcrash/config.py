"""Campaign config files: JSON schema, validation, and manifest digests.

The config is plain JSON. Every validation failure raises ConfigError with
the offending field path, so the CLI can print a usable diagnostic and exit
with the config-error status.
"""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

from .detector import DefectModel
from .fuzzer import DEFAULT_PLANS, AngleMode, CampaignConfig, MutatorKind, SearchPlan, stepped_schedule
from .oracle import OracleConfig
from .scenario import DISTANCE_MAX, SPEED_MAX, ScenarioKind, apply_overrides, finite_number, make_seed
from .simulator import SimConfig


class ConfigError(ValueError):
    pass


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
    """The campaign of a parsed config; each block's keys left out take the defaults of what the block builds."""
    fields = _block(data, _TOP, "")
    if "budget" not in fields:
        raise ConfigError("budget: required field missing")
    fields.setdefault("kinds", tuple(ScenarioKind))
    return _built(CampaignConfig, "", **fields)


def _block(raw, parsers: dict, label: str) -> dict:
    """raw's values, each parsed by its key's parser under `{label}.{key}` (`key` at the root, whose label is '')."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{label}: must be an object" if label else "config root must be a JSON object")
    unknown = sorted(set(raw) - parsers.keys())
    if unknown:
        raise ConfigError(f"{label}: unknown keys {unknown}" if label else f"unknown config keys: {unknown}")
    prefix = f"{label}." if label else ""
    return {key: parse(raw[key], prefix + key) for key, parse in parsers.items() if key in raw}


def _built(make, prefix: str, *args, **fields):
    """make(*args, **fields), with a ValueError it raises turned into ConfigError(prefix + its message)."""
    try:
        return make(*args, **fields)
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from None


def _dataclass(cls, parsers: dict):
    """The parser of a block that builds cls from its keys' values."""
    return lambda raw, label: _built(cls, "", **_block(raw, parsers, label))


def _integer(minimum: int):
    """The parser of a JSON integer (not a bool or a float) >= minimum."""

    def parse(value, label: str) -> int:
        if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
            raise ConfigError(f"{label}: must be an integer >= {minimum}")
        return value

    return parse


def _number(value, label: str) -> float:
    if not finite_number(value):
        raise ConfigError(f"{label}: must be a finite number")
    return float(value)


def _number_list(value, label: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{label}: must be a list of numbers")
    return tuple(_number(v, label) for v in value)


def _enum(enum_cls):
    """The parser of one of enum_cls's values."""

    def parse(value, label: str):
        try:
            return enum_cls(value)
        except ValueError:
            valid = ", ".join(e.value for e in enum_cls)
            raise ConfigError(f"{label}: {value!r} is not one of {valid}") from None

    return parse


def _parse_kinds(raw, label: str) -> tuple[ScenarioKind, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{label}: must be a non-empty list")
    try:
        kinds = tuple(ScenarioKind(k) for k in raw)
    except ValueError:
        valid = ", ".join(k.value for k in ScenarioKind)
        raise ConfigError(f"{label}: entries must be among {valid}") from None
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ConfigError(f"{label}: duplicate entry {kind.value}")
    return kinds


def _parse_plans(raw, label: str) -> dict[ScenarioKind, SearchPlan]:
    """Every kind's plan: its own block over the `default` block, each parsed on its own by _PLAN."""
    names = ("default", *(k.value for k in ScenarioKind))
    blocks = _block(raw, dict.fromkeys(names, lambda block, name: _block(block, _PLAN, name)), label)
    default = blocks.get("default", {})
    return {kind: _plan(kind, {**default, **blocks.get(kind.value, {})}, label) for kind in ScenarioKind}


def _plan(kind: ScenarioKind, block: dict, label: str) -> SearchPlan:
    """The kind's default plan with the block's fields; a start or a step alone keeps the default's other one."""
    base, prefix = DEFAULT_PLANS[kind], f"{label}.{kind.value}: "
    fields = {key: value for key, value in block.items() if not key.endswith(("_start", "_step"))}
    for axis, hi in (("distance", DISTANCE_MAX), ("speed", SPEED_MAX)):
        start, step = block.get(f"{axis}_start"), block.get(f"{axis}_step")
        if f"{axis}_schedule" not in block and (start, step) != (None, None):
            old = getattr(base, f"{axis}_schedule")
            start = old[0] if start is None else start
            step = old[1] - old[0] if step is None else step
            fields[f"{axis}_schedule"] = _built(stepped_schedule, prefix, start, step, hi)
    return _built(replace, prefix, base, **fields)


def _parse_overrides(raw, label: str) -> dict[ScenarioKind, dict]:
    if not isinstance(raw, dict):
        raise ConfigError(f"{label}: must be an object")
    out = {}
    for key, block in raw.items():
        try:
            kind = ScenarioKind(key)
        except ValueError:
            raise ConfigError(f"{label}: unknown kind {key!r}") from None
        if not isinstance(block, dict):
            raise ConfigError(f"{label}.{key}: must be an object")
        _built(apply_overrides, f"{label}.{key}: ", make_seed(kind)[0], block)
        out[kind] = block
    return out


_DEFECT = {
    "sample_period": _integer(1),
    "min_penetration": _number,
    "min_impact_speed": _number,
}
_SIM = {
    "dt": _number,
    "horizon": _number,
    "settle_frames": _integer(0),
}
_ORACLE = {
    "t_bbox": _number,
}
_PLAN = {
    "distance_step": _number,
    "distance_start": _number,
    "speed_step": _number,
    "speed_start": _number,
    "distance_schedule": _number_list,
    "speed_schedule": _number_list,
    "angle_step_long": _number,
    "angle_step_lat": _number,
    "angle_mode": _enum(AngleMode),
    "k_nc": _integer(1),
}
_TOP = {
    "kinds": _parse_kinds,
    "budget": _integer(0),
    "mutator": _enum(MutatorKind),
    "rng_seed": _integer(0),
    "defect": _dataclass(DefectModel, _DEFECT),
    "sim": _dataclass(SimConfig, _SIM),
    "oracle": _dataclass(OracleConfig, _ORACLE),
    "plans": _parse_plans,
    "scenario_overrides": _parse_overrides,
}
