"""Scenario configuration files: YAML codec and the packaged suite.

Configs are plain YAML trees with SI units and radians throughout. The
packaged suite (``data/*.yaml``) covers the four canonical avoidance
behaviors for the unicycle and the bicycle, a boundary-violation recovery
run, a path-tracked weave past an obstacle near the path, and a point-mass
swerve whose reference turns the velocity into the cone from a safe start.
Unknown keys are rejected so typos fail loudly at load time.
"""

from __future__ import annotations

from dataclasses import replace
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

BEHAVIOR_SUITE_NAMES = SUITE_NAMES[:8]
"""The eight canonical setups: {turning, braking, reversing, overtaking} x two models."""

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


def _check_keys(tree: dict, allowed: set, context: str) -> None:
    unknown = set(tree) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) {sorted(unknown)} in {context}")


def _classk_from_dict(tree: dict, context: str) -> ClassK:
    _check_keys(tree, {"kind", "gamma", "table"}, context)
    table = tree.get("table")
    if table is not None:
        table = tuple((float(x), float(y)) for x, y in table)
    try:
        return ClassK(kind=tree.get("kind", "linear"),
                      gamma=float(tree.get("gamma", 1.0)), table=table)
    except ValueError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _classk_to_dict(kappa: ClassK) -> dict:
    tree = {"kind": kappa.kind, "gamma": kappa.gamma}
    if kappa.table is not None:
        tree["table"] = [[x, y] for x, y in kappa.table]
    return tree


def scenario_from_dict(tree: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from a parsed YAML tree."""
    if not isinstance(tree, dict):
        raise ConfigError("scenario config must be a mapping")
    allowed = {
        "name", "model", "barrier", "initial_state", "obstacles", "controller",
        "kappa", "kappa1", "body_offset", "width", "wheelbase_front",
        "wheelbase_rear", "perception_radius", "dt", "duration", "path",
        "path_gains", "halt_on_collision", "input_bounds",
    }
    _check_keys(tree, allowed, "scenario")
    for key in ("name", "model", "initial_state", "obstacles", "controller"):
        if key not in tree:
            raise ConfigError(f"scenario is missing required key {key!r}")

    obstacles = []
    for i, ob in enumerate(tree["obstacles"]):
        _check_keys(ob, {"center", "velocity", "semi_axes", "velocity_schedule"},
                    f"obstacles[{i}]")
        schedule = tuple(
            (float(entry["t"]), (float(entry["velocity"][0]), float(entry["velocity"][1])))
            for entry in ob.get("velocity_schedule", ())
        )
        obstacles.append(ObstacleConfig(
            center=tuple(float(c) for c in ob["center"]),
            velocity=tuple(float(c) for c in ob.get("velocity", (0.0, 0.0))),
            semi_axes=tuple(float(c) for c in ob.get("semi_axes", (1.0, 1.0))),
            velocity_schedule=schedule,
        ))

    ctrl_tree = tree["controller"]
    _check_keys(ctrl_tree, {"k_speed", "k_damp", "v_des", "v_max", "heading_des"},
                "controller")
    controller = ReferenceController(
        k_speed=float(ctrl_tree.get("k_speed", 1.0)),
        k_damp=float(ctrl_tree.get("k_damp", 0.5)),
        v_des=float(ctrl_tree.get("v_des", 1.0)),
        v_max=None if ctrl_tree.get("v_max") is None else float(ctrl_tree["v_max"]),
        heading_des=float(ctrl_tree.get("heading_des", 0.0)),
    )

    path = tree.get("path")
    if path is not None:
        path = tuple((float(p[0]), float(p[1])) for p in path)
    gains = tree.get("path_gains")
    if gains is not None:
        _check_keys(gains, {"k_cross", "k_soft", "k_speed", "v_des"}, "path_gains")
        gains = PathTrackerGains(
            k_cross=float(gains.get("k_cross", 1.0)),
            k_soft=float(gains.get("k_soft", 0.5)),
            k_speed=float(gains.get("k_speed", 1.0)),
            v_des=float(gains.get("v_des", controller.v_des)),
        )
    bounds = tree.get("input_bounds")
    if bounds is not None:
        bounds = (tuple(float(x) for x in bounds["lower"]),
                  tuple(float(x) for x in bounds["upper"]))

    cfg = ScenarioConfig(
        name=str(tree["name"]),
        model=str(tree["model"]),
        initial_state=tuple(float(x) for x in tree["initial_state"]),
        obstacles=tuple(obstacles),
        controller=controller,
        barrier=str(tree.get("barrier", "c3bf")),
        kappa=_classk_from_dict(tree.get("kappa", {}), "kappa"),
        kappa1=None if "kappa1" not in tree else _classk_from_dict(tree["kappa1"], "kappa1"),
        body_offset=float(tree.get("body_offset", 0.1)),
        width=float(tree.get("width", 0.5)),
        wheelbase_front=float(tree.get("wheelbase_front", 1.2)),
        wheelbase_rear=float(tree.get("wheelbase_rear", 1.6)),
        perception_radius=float(tree.get("perception_radius", 10.0)),
        dt=float(tree.get("dt", 0.01)),
        duration=float(tree.get("duration", 10.0)),
        path=path,
        path_gains=gains,
        halt_on_collision=bool(tree.get("halt_on_collision", False)),
        input_bounds=bounds,
    )
    cfg.validate()
    return cfg


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Inverse of scenario_from_dict, suitable for YAML dumping."""
    tree = {
        "name": cfg.name,
        "model": cfg.model,
        "barrier": cfg.barrier,
        "initial_state": list(cfg.initial_state),
        "obstacles": [
            {
                "center": list(o.center),
                "velocity": list(o.velocity),
                "semi_axes": list(o.semi_axes),
                "velocity_schedule": [
                    {"t": t, "velocity": list(v)} for t, v in o.velocity_schedule
                ],
            }
            for o in cfg.obstacles
        ],
        "controller": {
            "k_speed": cfg.controller.k_speed,
            "k_damp": cfg.controller.k_damp,
            "v_des": cfg.controller.v_des,
            "heading_des": cfg.controller.heading_des,
        },
        "kappa": _classk_to_dict(cfg.kappa),
        "body_offset": cfg.body_offset,
        "width": cfg.width,
        "wheelbase_front": cfg.wheelbase_front,
        "wheelbase_rear": cfg.wheelbase_rear,
        "perception_radius": cfg.perception_radius,
        "dt": cfg.dt,
        "duration": cfg.duration,
        "halt_on_collision": cfg.halt_on_collision,
    }
    if cfg.controller.v_max is not None:
        tree["controller"]["v_max"] = cfg.controller.v_max
    if cfg.kappa1 is not None:
        tree["kappa1"] = _classk_to_dict(cfg.kappa1)
    if cfg.path is not None:
        tree["path"] = [list(p) for p in cfg.path]
    if cfg.path_gains is not None:
        g = cfg.path_gains
        tree["path_gains"] = {"k_cross": g.k_cross, "k_soft": g.k_soft,
                              "k_speed": g.k_speed, "v_des": g.v_des}
    if cfg.input_bounds is not None:
        tree["input_bounds"] = {"lower": list(cfg.input_bounds[0]),
                                "upper": list(cfg.input_bounds[1])}
    return tree


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


def save_scenario(cfg: ScenarioConfig, path) -> None:
    Path(path).write_text(yaml.safe_dump(scenario_to_dict(cfg), sort_keys=False))


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


def behavior_suite() -> dict[str, ScenarioConfig]:
    """The eight canonical behavior setups only."""
    return {name: load_packaged(name) for name in BEHAVIOR_SUITE_NAMES}


def with_overrides(cfg: ScenarioConfig, barrier=None, dt=None, duration=None) -> ScenarioConfig:
    """Copy a config with batch-level overrides applied."""
    updates = {}
    if barrier is not None:
        updates["barrier"] = barrier
    if dt is not None:
        updates["dt"] = float(dt)
    if duration is not None:
        updates["duration"] = float(duration)
    out = replace(cfg, **updates) if updates else cfg
    out.validate()
    return out


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
