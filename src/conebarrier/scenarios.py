"""Scenario configuration files: YAML codec and the packaged suite.

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
- validation runs when the dataclasses are built (``ScenarioConfig`` checks
  itself and its obstacles), so every loaded config is valid and any error
  is a ConfigError naming the field.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, astuple, dataclass, fields, replace
from importlib import resources
from pathlib import Path
from typing import Iterable

import yaml

from .barriers import ClassK
from .safety_filter import PathTrackerGains, ReferenceController
from .sim import ConfigError, ObstacleConfig, ScenarioConfig

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
    try:
        out = float(value)
    except (TypeError, ValueError):
        out = math.nan
    if math.isnan(out):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    return out


def _str(value, context: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{context} must be a string, got {value!r}")
    return value


def _bool(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{context} must be true or false, got {value!r}")
    return value


def _list_of(read):
    """Reader of a YAML list whose entries each go through ``read(entry, context)``."""
    def parse(value, context: str) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{context} must be a list, got {value!r}")
        return tuple(read(x, f"{context}[{i}]") for i, x in enumerate(value))
    return parse


_nums = _list_of(_num)


def _pair(value, context: str) -> tuple[float, float]:
    out = _nums(value, context)
    if len(out) != 2:
        raise ConfigError(f"{context} needs 2 entries, got {value!r}")
    return out


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


_classk = _reader(ClassK, kind=_str, table=_list_of(_pair))
_change = _reader(_Change, velocity=_nums)
_bounds = _reader(_Bounds, lower=_nums, upper=_nums)

_SCENARIO = {
    "name": _str, "model": _str, "barrier": _str, "halt_on_collision": _bool,
    "initial_state": _nums, "path": _list_of(_pair), "kappa": _classk, "kappa1": _classk,
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


def load_scenario(path) -> ScenarioConfig:
    """Parse one YAML scenario file."""
    text = Path(path).read_text()
    try:
        tree = yaml.safe_load(text)
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
    tree = yaml.safe_load(ref.read_text())
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
