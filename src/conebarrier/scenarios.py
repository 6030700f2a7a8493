"""The scenario format's one home: config dataclasses and checks, YAML codec, packaged suite.

A ``ScenarioConfig`` checks itself and its obstacles when built, also in
``dataclasses.replace``, and each ConfigError it raises starts with its
name: a nonempty printable string without '/' or '\\', since it names the
output files. The engine, ``sim``, runs configs; nothing here imports it.

Configs are plain YAML trees with SI units and radians throughout. The
packaged suite (``data/*.yaml``) covers the four canonical avoidance
behaviors for the unicycle and the bicycle, a boundary-violation recovery
run, a path-tracked weave past an obstacle near the path, and a point-mass
swerve whose reference turns the velocity into the cone from a safe start.

The codec reads the config dataclasses rather than restating them:
- YAML keys are the dataclass field names, and unknown keys are rejected
  so typos fail loudly at load time;
- a field without a default is a required key;
- defaults live only on the dataclasses: an absent key, or a null where
  the default is None, takes the field's default;
- the YAML differs from the dataclasses in two places only: a velocity
  change is written ``{t, velocity}`` and the input bounds
  ``{lower, upper}``;
- the codec turns YAML numbers (not booleans), lists and mappings into
  Python values and passes strings and flags on; the dataclasses judge
  every value, so any error is a ConfigError naming the field.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, replace
from importlib import resources
from numbers import Real
from pathlib import Path
from typing import Iterable, Optional

import yaml

from .barriers import BARRIER_MODELS, ClassK
from .models import MODELS, STATE_NAMES
from .safety_filter import PathTrackerGains, ReferenceController

BARRIER_KINDS = (*BARRIER_MODELS, "none")
MAX_STEPS = 1_000_000
"""Most steps round(duration / dt) a scenario may ask for: 500 times the
longest packaged run (2,000 steps). The engine preallocates its logs, and
its pass after the loop holds about as much again in temporaries: a peak
near 300 bytes per step with one obstacle (tracemalloc, a 100,001-step
``braking_unicycle``), so a tiny dt must fail when the config is built
rather than in the allocation or hours into the run."""
_KINDS = {"controller": ReferenceController, "kappa": ClassK, "kappa1": (ClassK, type(None)),
          "path_gains": (PathTrackerGains, type(None)), "halt_on_collision": bool,
          **dict.fromkeys(("body_offset", "width", "wheelbase_front", "wheelbase_rear",
                           "perception_radius", "dt", "duration"), Real)}
"""The type of each ``ScenarioConfig`` field that holds one number (not a bool), flag or config."""


class ConfigError(ValueError):
    """Scenario configuration violates an invariant."""


@dataclass(frozen=True)
class ObstacleConfig:
    """Moving ellipse with optional timed velocity changes."""

    center: tuple[float, float]
    velocity: tuple[float, float] = (0.0, 0.0)
    semi_axes: tuple[float, float] = (1.0, 1.0)
    velocity_schedule: tuple[tuple[float, tuple[float, float]], ...] = ()


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one closed-loop run."""

    name: str
    model: str
    initial_state: tuple[float, ...]
    obstacles: tuple[ObstacleConfig, ...]
    controller: ReferenceController
    barrier: str = "c3bf"
    kappa: ClassK = field(default_factory=ClassK)
    kappa1: Optional[ClassK] = None
    body_offset: float = 0.1
    width: float = 0.5
    wheelbase_front: float = 1.2
    wheelbase_rear: float = 1.6
    perception_radius: float = 10.0
    dt: float = 0.01
    duration: float = 10.0
    path: Optional[tuple[tuple[float, float], ...]] = None
    path_gains: Optional[PathTrackerGains] = None
    halt_on_collision: bool = False
    input_bounds: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None

    def __post_init__(self) -> None:
        name = self.name
        if not (isinstance(name, str) and name.isprintable() and name) or {"/", "\\"} & set(name):
            raise ConfigError(f"name must be a nonempty printable string without '/' or '\\', "
                              f"got {name!r}")
        try:
            self._check()
        except ConfigError as exc:
            raise ConfigError(f"{self.name}: {exc}") from None

    def _check(self) -> None:
        for f in fields(self):
            value, kind = getattr(self, f.name), _KINDS.get(f.name, object)
            if not isinstance(value, kind) or (kind is Real and isinstance(value, bool)):
                raise ConfigError(f"{f.name} must be {f.type}, got {value!r}")
        if not _entries(self.obstacles, None, ok=lambda obs: isinstance(obs, ObstacleConfig)):
            raise ConfigError(f"obstacles must be ObstacleConfigs, got {self.obstacles!r}")
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.barrier not in BARRIER_KINDS:
            raise ConfigError(f"unknown barrier {self.barrier!r}")
        if self.barrier != "none" and self.model not in BARRIER_MODELS[self.barrier]:
            raise ConfigError(f"the {self.barrier} barrier is not defined for the "
                              f"{self.model} model")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.duration) and self.duration >= self.dt):
            raise ConfigError(f"duration must be finite and cover at least one step, "
                              f"got {self.duration}")
        steps = self.duration / self.dt
        if math.isinf(steps) or round(steps) > MAX_STEPS:
            raise ConfigError(f"duration / dt asks for {steps:.3g} steps, more than "
                              f"MAX_STEPS = {MAX_STEPS}")
        expected = len(STATE_NAMES[self.model])
        if not _entries(self.initial_state, expected):
            raise ConfigError(f"{self.model} initial_state needs {expected} finite entries, "
                              f"got {self.initial_state!r}")
        if not (0 < self.wheelbase_front < math.inf and 0 < self.wheelbase_rear < math.inf):
            raise ConfigError(f"wheelbase distances must be positive and finite, got front="
                              f"{self.wheelbase_front}, rear={self.wheelbase_rear}")
        if not math.isfinite(self.body_offset):
            raise ConfigError(f"body_offset must be finite, got {self.body_offset}")
        if not (self.perception_radius >= 0 and 0 <= self.width < math.inf):
            raise ConfigError(f"perception_radius must be nonnegative and width nonnegative "
                              f"and finite, got {self.perception_radius} and {self.width}")
        if self.input_bounds is not None:
            if not _entries(self.input_bounds, 2, ok=lambda side: _entries(side, 2, ok=None)):
                raise ConfigError(f"input_bounds needs two sides of two entries each, "
                                  f"got {self.input_bounds}")
            lo, hi = self.input_bounds
            if not all(lo_j <= hi_j for lo_j, hi_j in zip(lo, hi)):
                raise ConfigError(f"input_bounds lower side exceeds upper, "
                                  f"got {self.input_bounds}")
        if self.path is not None and self.model != "bicycle":
            raise ConfigError("path tracking is only wired for the bicycle model")
        if self.path is not None and not _entries(self.path, None, ok=_entries):
            raise ConfigError(f"path waypoints need two finite entries each, got {self.path}")
        if self.path is not None and len({tuple(p) for p in self.path}) < 2:
            raise ConfigError(f"path needs two distinct waypoints, got {self.path}")
        for i, obs in enumerate(self.obstacles):
            where = f"obstacles[{i}]: obstacle"
            if not _entries(obs.velocity_schedule, None, ok=lambda c: _entries(c, 2, ok=None)):
                raise ConfigError(f"{where} velocity_schedule entries need a time and a velocity")
            pairs = [("center", obs.center), ("velocity", obs.velocity),
                     ("semi_axes", obs.semi_axes)]
            pairs += [(f"velocity_schedule[{j}].velocity", v)
                      for j, (_, v) in enumerate(obs.velocity_schedule)]
            for name, value in pairs:
                if not _entries(value, 2):
                    raise ConfigError(f"{where} {name} needs two finite entries, got {value}")
            if not (obs.semi_axes[0] > 0 and obs.semi_axes[1] > 0):
                raise ConfigError(f"{where} semi-axes must be positive, got {obs.semi_axes}")
            times = [t for t, _ in obs.velocity_schedule]
            if not _entries(times, None):
                raise ConfigError(f"{where} velocity-change times must be finite, got {times}")
            if times != sorted(times):
                raise ConfigError(f"{where} velocity-change times must be sorted")


def _entries(value, n: Optional[int] = 2, ok=math.isfinite) -> bool:
    """Whether ``value`` holds ``n`` entries (any count if None) that pass ``ok``
    (any if None); a value or an entry of the wrong type fails."""
    try:
        return (n is None or len(value) == n) and (ok is None or all(map(ok, value)))
    except TypeError:
        return False


SUITE_NAMES = (
    "turning_unicycle",
    "braking_unicycle",
    "reversing_unicycle",
    "overtaking_unicycle",
    "turning_bicycle",
    "braking_bicycle",
    "reversing_bicycle",
    "overtaking_bicycle",
    "recovery_unicycle",
    "weave_bicycle",
    "swerve_pointmass",
)

EXPECTED_BEHAVIORS = {
    "turning_unicycle": "turning",
    "braking_unicycle": "braking",
    "reversing_unicycle": "reversing",
    "overtaking_unicycle": "overtaking",
    "turning_bicycle": "turning",
    "braking_bicycle": "braking",
    "reversing_bicycle": "reversing",
    "overtaking_bicycle": "overtaking",
}
"""The eight canonical setups, {turning, braking, reversing, overtaking} x two models,
and the label each must get."""

@dataclass(frozen=True)
class _Change:
    """One ``velocity_schedule`` entry as the YAML writes it."""

    t: float
    velocity: tuple[float, ...]


@dataclass(frozen=True)
class _Bounds:
    """``input_bounds`` as the YAML writes it."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]


def _num(value, context: str) -> float:
    try:  # a numeric string counts: YAML reads 1e-3, with no dot, as one
        out = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        out = math.nan
    if math.isnan(out):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    return out


def _as_is(value, context: str):
    return value


def _list_of(read):
    """Reader of a YAML list whose entries each go through ``read(entry, context)``."""
    def parse(value, context: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{context} must be a list, got {value!r}")
        return tuple(read(x, f"{context}[{i}]") for i, x in enumerate(value))
    return parse


_nums = _list_of(_num)


def _build(cls, tree, context: str, parsers: dict):
    """Build dataclass ``cls`` from a YAML mapping keyed by its field names.

    ``context`` names the mapping in messages ("" for the scenario itself).
    Each present value goes through ``parsers[field]`` (``_num`` if absent
    there) with its dotted context; the dataclass supplies the defaults and
    its own checks, whose ValueErrors become ConfigErrors.
    """
    where = context or "scenario"
    if not isinstance(tree, dict):
        raise ConfigError(f"{where} must be a mapping, got {tree!r}")
    spec = {f.name: f for f in fields(cls)}
    unknown = set(tree) - set(spec)
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {where}")
    for name, f in spec.items():
        if name not in tree and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where} is missing required key {name!r}")
    prefix = f"{context}." if context else ""
    kwargs = {k: parsers.get(k, _num)(v, prefix + k) for k, v in tree.items()
              if not (v is None and spec[k].default is None)}
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _reader(cls, **parsers):
    """``_build`` for ``cls`` as a field reader."""
    return lambda value, context: _build(cls, value, context, parsers)


_classk = _reader(ClassK, kind=_as_is, table=_list_of(_nums))
_change = _reader(_Change, velocity=_nums)
_bounds = _reader(_Bounds, lower=_nums, upper=_nums)

_SCENARIO = {
    "name": _as_is, "model": _as_is, "barrier": _as_is, "halt_on_collision": _as_is,
    "initial_state": _nums, "path": _list_of(_nums), "kappa": _classk, "kappa1": _classk,
    "obstacles": _list_of(_reader(
        ObstacleConfig, center=_nums, velocity=_nums, semi_axes=_nums,
        velocity_schedule=_list_of(lambda value, context: astuple(_change(value, context))))),
    "controller": _reader(ReferenceController),
    "path_gains": _reader(PathTrackerGains),
    "input_bounds": lambda value, context: astuple(_bounds(value, context)),
}


def scenario_from_dict(tree: dict) -> ScenarioConfig:
    """Build a ScenarioConfig (which validates itself) from a parsed YAML tree.

    A field of the wrong shape or type raises ConfigError naming the field.
    """
    return _build(ScenarioConfig, tree, "", _SCENARIO)


def _plain(tree):
    """Lists for tuples and no None-valued keys: a tree ``yaml.safe_dump`` writes."""
    if isinstance(tree, dict):
        return {k: _plain(v) for k, v in tree.items() if v is not None}
    if isinstance(tree, (list, tuple)):
        return [_plain(v) for v in tree]
    return tree


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Inverse of scenario_from_dict, suitable for YAML dumping."""
    tree = asdict(cfg)
    for ob in tree["obstacles"]:
        ob["velocity_schedule"] = [asdict(_Change(*c)) for c in ob["velocity_schedule"]]
    if cfg.input_bounds is not None:
        tree["input_bounds"] = asdict(_Bounds(*cfg.input_bounds))
    return _plain(tree)


_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
"""libyaml's parser under the safe loader's resolver and constructors: the same trees, faster."""


def load_scenario(path) -> ScenarioConfig:
    """Parse one YAML scenario file."""
    text = Path(path).read_text()
    try:
        tree = yaml.load(text, Loader=_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: not valid YAML ({exc})") from exc
    try:
        return scenario_from_dict(tree)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def load_packaged(name: str) -> ScenarioConfig:
    """Load one of the shipped scenarios by bare name."""
    if name not in SUITE_NAMES:
        raise ConfigError(f"unknown packaged scenario {name!r}; choose from {SUITE_NAMES}")
    ref = resources.files("conebarrier").joinpath(f"data/{name}.yaml")
    tree = yaml.load(ref.read_text(), Loader=_LOADER)
    return scenario_from_dict(tree)


def full_suite() -> dict[str, ScenarioConfig]:
    """All packaged scenarios, keyed by name."""
    return {name: load_packaged(name) for name in SUITE_NAMES}


def with_overrides(cfg: ScenarioConfig, barrier=None, dt=None, duration=None) -> ScenarioConfig:
    """Copy a config with the batch-level overrides that are not None applied."""
    updates = {"barrier": barrier, "dt": dt, "duration": duration}
    return replace(cfg, **{k: v for k, v in updates.items() if v is not None})


def load_configs(paths: Iterable) -> list[ScenarioConfig]:
    """Load files and directories of YAML configs; directories are sorted."""
    configs = []
    for p in paths:
        p = Path(p)
        if p.is_dir():
            files = sorted(p.glob("*.yaml")) + sorted(p.glob("*.yml"))
            if not files:
                raise ConfigError(f"{p}: directory contains no YAML configs")
            configs.extend(load_scenario(f) for f in files)
        else:
            configs.append(load_scenario(p))
    return configs
