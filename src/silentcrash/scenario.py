"""The six scenario templates and their determined-collision seeds.

Each template pairs an ego vehicle (EV) cruising along +x with one NPC actor
whose placement and behavior define the scenario kind. Seed control
parameters are chosen so that the simulated scenario produces ground-truth
contact well inside the horizon: a determined collision, the starting point
of every fuzzing round.

Default footprints (overridable via the campaign config):
    car        4.6 x 1.9 m
    bicycle    1.8 x 0.6 m
    pedestrian 0.5 x 0.5 m
Initial center-to-center gap 30 m along the EV travel axis.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum

from .geometry import OrientedBox, Point2, overlaps

DISTANCE_MIN = 2.0
DISTANCE_MAX = 7.0
SPEED_MAX = 50.0

INITIAL_GAP = 30.0

CAR_HALF = (2.3, 0.95)
BICYCLE_HALF = (0.9, 0.3)
PEDESTRIAN_HALF = (0.25, 0.25)

WALKING_SPEED = 1.4


class ScenarioKind(str, Enum):
    FLB = "FLB"  # follow leading bicycle
    FLV = "FLV"  # follow leading vehicle
    LC = "LC"  # lane change on a wide highway
    InC = "InC"  # intersection crossing
    PSF = "PSF"  # pedestrian standing in front
    PCF = "PCF"  # pedestrian crossing in front


class BehaviorKind(str, Enum):
    CRUISE = "cruise"
    CROSSING = "crossing"
    STATIC = "static"


@dataclass(frozen=True)
class Behavior:
    kind: BehaviorKind
    speed: float = 0.0

    def __post_init__(self) -> None:
        if self.kind is BehaviorKind.STATIC:
            if self.speed != 0.0:
                raise ValueError("static behavior has no speed")
        elif not 0.0 < self.speed < math.inf:
            raise ValueError(f"{self.kind.value} behavior needs a positive finite speed")


@dataclass(frozen=True)
class ActorSpec:
    role: str  # "EV" or "NPC"
    half_length: float
    half_width: float
    position: Point2
    yaw: float
    behavior: Behavior

    def __post_init__(self) -> None:
        if self.role not in ("EV", "NPC"):
            raise ValueError(f"unknown role {self.role!r}")
        if self.role == "EV" and self.behavior.kind is not BehaviorKind.CRUISE:
            raise ValueError("EV behavior is always cruise")

    def box(self) -> OrientedBox:
        return OrientedBox(self.position, self.half_length, self.half_width, self.yaw)


@dataclass(frozen=True)
class ScenarioSpec:
    kind: ScenarioKind
    ev: ActorSpec
    npc: ActorSpec

    def __post_init__(self) -> None:
        if overlaps(self.ev.box(), self.npc.box()):
            raise ValueError("actors must start disjoint")


@dataclass(frozen=True, slots=True)
class ControlParameters:
    """The mutated triple: trigger distance, post-trigger speed, direction pair.

    The direction pair (theta_long, theta_lat) encodes the post-trigger
    heading offset; its normalized form a = atan2(theta_lat, theta_long) /
    (pi/2) lies in [-1, 1] and maps to +-90 degrees.
    """

    d: float
    v_hat: float
    theta_long: float
    theta_lat: float

    def __post_init__(self) -> None:
        eps = 1e-9
        if not (DISTANCE_MIN - eps <= self.d <= DISTANCE_MAX + eps):
            raise ValueError(f"collision distance {self.d} outside {DISTANCE_MIN:.0f}..{DISTANCE_MAX:.0f}")
        if not (0.0 < self.v_hat <= SPEED_MAX + eps):
            raise ValueError(f"collision speed {self.v_hat} outside 0..{SPEED_MAX:.0f}")
        if not (math.isfinite(self.theta_long) and math.isfinite(self.theta_lat)):
            raise ValueError(f"direction pair must be finite, got ({self.theta_long}, {self.theta_lat})")
        if self.theta_long < 0.0 or (self.theta_long == 0.0 and self.theta_lat == 0.0):
            raise ValueError("direction pair must have theta_long >= 0 and be nonzero")
        if abs(self.a) > 1.0 + eps:
            raise ValueError(f"normalized angle {self.a} outside -1..1")

    @property
    def a(self) -> float:
        return math.atan2(self.theta_lat, self.theta_long) / (math.pi / 2.0)

    @classmethod
    def from_angle(cls, d: float, v_hat: float, a: float) -> "ControlParameters":
        half_pi = math.pi / 2.0
        return cls(d=d, v_hat=v_hat, theta_long=math.cos(a * half_pi), theta_lat=math.sin(a * half_pi))

    def with_angle(self, a: float) -> "ControlParameters":
        return ControlParameters.from_angle(self.d, self.v_hat, a)


def _ev(speed: float, half=CAR_HALF) -> ActorSpec:
    return ActorSpec(
        role="EV",
        half_length=half[0],
        half_width=half[1],
        position=Point2(0.0, 0.0),
        yaw=0.0,
        behavior=Behavior(BehaviorKind.CRUISE, speed),
    )


def _npc(half, position, yaw, behavior) -> ActorSpec:
    return ActorSpec(
        role="NPC",
        half_length=half[0],
        half_width=half[1],
        position=position,
        yaw=yaw,
        behavior=behavior,
    )


def make_seed(kind: ScenarioKind) -> tuple[ScenarioSpec, ControlParameters]:
    """Deterministic seed scenario and parameters for one kind.

    Seed angles are zero (straight ahead) and seed speeds equal the EV cruise
    speed, so the behavior switch at the trigger distance is a no-op for the
    seed itself: the determined collision happens at cruise.
    """
    kind = ScenarioKind(kind)
    gap = INITIAL_GAP
    if kind is ScenarioKind.FLV:
        ev = _ev(20.0)
        npc = _npc(CAR_HALF, Point2(gap, 0.0), 0.0, Behavior(BehaviorKind.CRUISE, 10.0))
    elif kind is ScenarioKind.FLB:
        ev = _ev(20.0)
        npc = _npc(BICYCLE_HALF, Point2(gap, 0.0), 0.0, Behavior(BehaviorKind.CRUISE, 5.0))
    elif kind is ScenarioKind.LC:
        # highway frame: NPC ahead in a partial lane-change offset, so the
        # seed contact is an offset rear-end and angle mutation produces
        # sideswipe-style corner contacts
        ev = _ev(25.0)
        npc = _npc(CAR_HALF, Point2(gap, 1.2), 0.0, Behavior(BehaviorKind.CRUISE, 15.0))
    elif kind is ScenarioKind.InC:
        # perpendicular roads meeting at (gap, 0); both actors arrive at the
        # crossing point simultaneously: gap/20 == 15/10
        ev = _ev(20.0)
        npc = _npc(CAR_HALF, Point2(gap, -15.0), math.pi / 2.0, Behavior(BehaviorKind.CROSSING, 10.0))
    elif kind is ScenarioKind.PSF:
        ev = _ev(15.0)
        npc = _npc(PEDESTRIAN_HALF, Point2(gap, 0.0), 0.0, Behavior(BehaviorKind.STATIC))
    elif kind is ScenarioKind.PCF:
        # pedestrian steps off at -2.6 m and reaches the EV center line just
        # as the EV nose arrives: (gap - 2.55)/15 s of walking at 1.4 m/s
        ev = _ev(15.0)
        npc = _npc(
            PEDESTRIAN_HALF, Point2(gap, -2.6), math.pi / 2.0, Behavior(BehaviorKind.CROSSING, WALKING_SPEED)
        )
    else:  # pragma: no cover
        raise ValueError(f"unknown scenario kind {kind}")
    spec = ScenarioSpec(kind=kind, ev=ev, npc=npc)
    params = ControlParameters.from_angle(d=2.0, v_hat=ev.behavior.speed, a=0.0)
    return spec, params


def validate_seed(spec: ScenarioSpec, params: ControlParameters, cfg=None) -> bool:
    """True iff simulating the pair yields ground-truth contact in the horizon."""
    from .simulator import SimConfig, simulate

    trace = simulate(spec, params, cfg if cfg is not None else SimConfig())
    return trace.first_contact is not None


_ACTOR_OVERRIDE_FIELDS = ("speed", "half_length", "half_width", "x", "y", "yaw")


def finite_number(value) -> bool:
    """Whether a JSON value is a number (not a bool or a string) with a finite float value."""
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def apply_overrides(spec: ScenarioSpec, overrides: dict) -> ScenarioSpec:
    """Apply campaign-config overrides to a seed spec.

    Supported keys: per-actor blocks ``{"ev": {...}, "npc": {...}}`` with
    speed / half extents / pose fields, each a finite number. Unknown keys
    and malformed values raise ValueError so config typos fail loudly.
    """
    actors = {"ev": spec.ev, "npc": spec.npc}
    for key, value in overrides.items():
        if key not in actors:
            raise ValueError(f"unknown scenario override {key!r}")
        actors[key] = _override_actor(actors[key], value, key)
    return replace(spec, ev=actors["ev"], npc=actors["npc"])


def _override_actor(actor: ActorSpec, fields: dict, label: str) -> ActorSpec:
    if not isinstance(fields, dict):
        raise ValueError(f"{label} override must be an object")
    kwargs = {}
    position = actor.position
    behavior = actor.behavior
    for key, value in fields.items():
        if key not in _ACTOR_OVERRIDE_FIELDS:
            raise ValueError(f"unknown {label} override {key!r}")
        if not finite_number(value):
            raise ValueError(f"{label} override {key!r} must be a finite number")
        value = float(value)
        if key == "yaw" and not -math.pi <= value <= math.pi:
            # the simulator and the IoU corners take cos/sin of the yaw as given;
            # geometry.OrientedBox, the cross-check route, wraps it into [-pi, pi),
            # and within this range turns the box alike to within rounding
            raise ValueError(f"{label} override 'yaw' must lie in [-pi, pi], got {value!r}")
        if key == "speed":
            behavior = Behavior(behavior.kind, value)
        elif key == "x":
            position = Point2(value, position.y)
        elif key == "y":
            position = Point2(position.x, value)
        else:
            kwargs[key] = value
    return replace(actor, position=position, behavior=behavior, **kwargs)
