"""YAML scenario codec and the packaged suite."""

import math
from dataclasses import replace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from conebarrier import scenarios
from conebarrier.barriers import BARRIER_MODELS, ClassK
from conebarrier.models import MODELS, STATE_NAMES
from conebarrier.safety_filter import PathTrackerGains, ReferenceController
from conebarrier.scenarios import (
    EXPECTED_BEHAVIORS,
    MAX_STEPS,
    SUITE_NAMES,
    ConfigError,
    ObstacleConfig,
    ScenarioConfig,
    full_suite,
    load_configs,
    load_packaged,
    load_scenario,
    scenario_from_dict,
    scenario_to_dict,
    with_overrides,
)

from conftest import save_scenario


def test_packaged_suite_complete():
    suite = full_suite()
    assert set(suite) == set(SUITE_NAMES)
    assert len(EXPECTED_BEHAVIORS) == 8
    assert set(EXPECTED_BEHAVIORS) <= set(SUITE_NAMES)


def test_roundtrip_all_packaged(tmp_path):
    custom = ClassK("custom", table=((-1.0, -2.0), (0.0, 0.0), (2.0, 1.0)))
    configs = [load_packaged(name) for name in SUITE_NAMES]
    configs.append(replace(configs[0], name="custom_kappa1", barrier="hocbf", kappa1=custom))
    for cfg in configs:
        assert scenario_from_dict(scenario_to_dict(cfg)) == cfg
        path = tmp_path / f"{cfg.name}.yaml"
        save_scenario(cfg, path)
        assert load_scenario(path) == cfg


def test_unknown_keys_rejected():
    tree = scenario_to_dict(load_packaged("braking_unicycle"))
    tree["speed_limit"] = 3.0
    with pytest.raises(ConfigError):
        scenario_from_dict(tree)
    tree = scenario_to_dict(load_packaged("braking_unicycle"))
    tree["obstacles"][0]["radius"] = 1.0
    with pytest.raises(ConfigError):
        scenario_from_dict(tree)


def test_missing_required_keys_rejected():
    tree = scenario_to_dict(load_packaged("braking_unicycle"))
    del tree["initial_state"]
    with pytest.raises(ConfigError):
        scenario_from_dict(tree)



def test_null_takes_a_none_default_only():
    tree = scenario_to_dict(load_packaged("weave_bicycle"))
    tree.update(path=None, path_gains=None, kappa1=None)
    cfg = scenario_from_dict(tree)
    assert (cfg.path, cfg.path_gains, cfg.kappa1) == (None, None, None)
    tree["width"] = None
    with pytest.raises(ConfigError, match="width"):
        scenario_from_dict(tree)


# The codec parses with libyaml's safe loader where PyYAML has it; each
# loader test runs under both loaders and must see the same trees and errors.
LOADERS = (yaml.SafeLoader,) + ((yaml.CSafeLoader,) if hasattr(yaml, "CSafeLoader") else ())


def test_packaged_trees_do_not_depend_on_the_loader(monkeypatch):
    from importlib import resources
    assert scenarios._LOADER is LOADERS[-1]  # the fastest loader at hand is the default
    for loader in LOADERS:
        monkeypatch.setattr(scenarios, "_LOADER", loader)
        for name in SUITE_NAMES:
            text = resources.files("conebarrier").joinpath(f"data/{name}.yaml").read_text()
            tree = yaml.safe_load(text)
            assert yaml.load(text, Loader=loader) == tree
            assert load_packaged(name) == scenario_from_dict(tree)


def test_number_without_a_dot_loads(tmp_path, monkeypatch):
    # PyYAML reads 1e-3, written without a dot, as the string '1e-3'.
    tree = scenario_to_dict(load_packaged("braking_unicycle"))
    del tree["dt"]
    path = tmp_path / "dt.yaml"
    path.write_text(yaml.safe_dump(tree) + "dt: 1e-3\n")
    for loader in LOADERS:
        monkeypatch.setattr(scenarios, "_LOADER", loader)
        assert yaml.load(path.read_text(), Loader=loader)["dt"] == "1e-3"
        assert load_scenario(path).dt == 0.001


def test_invalid_yaml_raises_config_error(tmp_path, monkeypatch):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unclosed")
    for loader in LOADERS:
        monkeypatch.setattr(scenarios, "_LOADER", loader)
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_scenario(bad)


def test_load_configs_directory(tmp_path):
    for name in ("braking_unicycle", "turning_unicycle"):
        save_scenario(load_packaged(name), tmp_path / f"{name}.yaml")
    configs = load_configs([tmp_path])
    assert sorted(c.name for c in configs) == ["braking_unicycle", "turning_unicycle"]
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(ConfigError):
        load_configs([empty])


def test_with_overrides_validates():
    cfg = load_packaged("braking_unicycle")
    assert with_overrides(cfg, barrier="none").barrier == "none"
    assert with_overrides(cfg, dt=0.005).dt == 0.005
    with pytest.raises(ConfigError):
        with_overrides(cfg, barrier="laser")


@pytest.mark.parametrize("change", [
    dict(dt=1.0e-300), dict(barrier="laser"), dict(model="truck"), dict(width=-1.0),
    dict(initial_state=(0.0,)),
    dict(barrier="ellipse", model="pointmass", initial_state=(0.0, 0.0, 1.0, 0.0)),
    dict(obstacles=(ObstacleConfig(center=(1.0, 1.0), semi_axes=(0.0, 1.0)),)),
    pytest.param(dict(path=((0.0, 0.0, 0.0), (60.0, 0.0, 0.0))), id="three-entry-waypoints"),
    pytest.param(dict(obstacles=(ObstacleConfig(center=(1.0, 1.0), velocity_schedule=((1.0,),)),)),
                 id="schedule-entry-without-velocity"),
    pytest.param(dict(input_bounds=((1.0, 2.0),)), id="one-sided-input-bounds"),
    pytest.param(dict(halt_on_collision="false"), id="quoted-bool-halt"),
    pytest.param(dict(barrier=["c3bf"]), id="list-barrier"),
    # A number where a sequence belongs is a ConfigError, not len()'s TypeError.
    pytest.param(dict(path=(1.0, 2.0)), id="number-waypoints"),
    pytest.param(dict(input_bounds=(1.0, 2.0)), id="number-input-bound-sides"),
    pytest.param(dict(initial_state=5.0), id="number-initial-state"),
    pytest.param(dict(obstacles=(ObstacleConfig(center=1.0),)), id="number-center"),
    pytest.param(dict(obstacles=(ObstacleConfig(center=(1.0, 1.0), velocity_schedule=(1.0,)),)),
                 id="number-schedule-entry"),
    # A field of the wrong type is a ConfigError, not a later check's TypeError.
    *(pytest.param({k: v}, id=f"{k}-{type(v).__name__}") for k, v in (
        ("kappa", None), ("controller", None), ("dt", "0.01"), ("width", "1"),
        ("wheelbase_rear", None), ("obstacles", 5.0), ("obstacles", (5.0,)),
        ("kappa1", 1.0), ("kappa1", ReferenceController()), ("path_gains", ClassK()),
        ("path_gains", ReferenceController()), ("width", True), ("body_offset", False))),
])
def test_config_errors_name_the_scenario(change):
    # Overrides and replace() break packaged scenarios with no file to name.
    cfg = load_packaged("weave_bicycle")
    with pytest.raises(ConfigError) as err:
        replace(cfg, **change)
    message = str(err.value)
    assert message.startswith("weave_bicycle: ") and message.count("weave_bicycle") == 1
    assert next(iter(change)) in message


def test_step_count_capped_when_built():
    # Building a config allocates nothing, so the cap is checked on both sides.
    cfg = load_packaged("braking_unicycle")
    at_cap = with_overrides(cfg, dt=cfg.duration / MAX_STEPS)
    assert round(at_cap.duration / at_cap.dt) == MAX_STEPS
    for dt in (cfg.duration / (MAX_STEPS + 1), 1.0e-300, 5e-324):
        with pytest.raises(ConfigError, match="MAX_STEPS"):
            with_overrides(cfg, dt=dt)


def test_unknown_packaged_name():
    with pytest.raises(ConfigError):
        load_packaged("figure_nine")


def test_yaml_files_are_plain_trees():
    # Configs must stay readable key-value YAML, no python object tags.
    from importlib import resources
    for name in SUITE_NAMES:
        text = resources.files("conebarrier").joinpath(f"data/{name}.yaml").read_text()
        assert "!!" not in text
        tree = yaml.safe_load(text)
        assert tree["name"] == name


# Property tests of the codec: generated valid configs round-trip, and one
# corrupted field anywhere in a valid tree raises ConfigError and nothing else.

_FINITE = st.floats(-1e3, 1e3, allow_nan=False)
_POSITIVE = st.floats(1e-3, 1e3)
_PAIR = st.tuples(_FINITE, _FINITE)


@st.composite
def _classks(draw):
    kind = draw(st.sampled_from(["linear", "cubic", "custom"]))
    if kind != "custom":
        return ClassK(kind, gamma=draw(_POSITIVE))
    # Positive (x, y) steps; the first k are laid out below (0, 0), the rest above.
    step = st.floats(0.1, 10.0)
    steps = np.array(draw(st.lists(st.tuples(step, step), min_size=1, max_size=4)))
    k = draw(st.integers(0, len(steps) - 1))
    table = np.vstack([-np.cumsum(steps[:k], axis=0)[::-1], [[0.0, 0.0]],
                       np.cumsum(steps[k:], axis=0)])
    return ClassK(kind, gamma=draw(_POSITIVE), table=tuple(map(tuple, table.tolist())))


@st.composite
def _input_bounds(draw):
    lower = draw(_PAIR)
    return lower, tuple(x + draw(_POSITIVE) for x in lower)


@st.composite
def _obstacles(draw):
    times = sorted(draw(st.lists(_FINITE, max_size=3)))
    return ObstacleConfig(center=draw(_PAIR), velocity=draw(_PAIR),
                          semi_axes=(draw(_POSITIVE), draw(_POSITIVE)),
                          velocity_schedule=tuple((t, draw(_PAIR)) for t in times))


@st.composite
def _scenarios(draw):
    model = draw(st.sampled_from(MODELS))
    dt = draw(st.floats(1e-3, 0.1))
    optional = {
        "kappa1": _classks(),
        "path_gains": st.builds(PathTrackerGains, k_cross=_POSITIVE, k_soft=_POSITIVE,
                                k_speed=_POSITIVE, v_des=_FINITE),
        "input_bounds": _input_bounds(),
    }
    if model == "bicycle":
        optional["path"] = st.lists(_PAIR, min_size=2, max_size=4, unique=True).map(tuple)
    chosen = draw(st.sets(st.sampled_from(sorted(optional))))
    return ScenarioConfig(
        name=draw(st.text(alphabet="abcxyz_019", min_size=1, max_size=12)),
        model=model,
        initial_state=tuple(draw(_FINITE) for _ in STATE_NAMES[model]),
        obstacles=tuple(draw(st.lists(_obstacles(), max_size=3))),
        controller=ReferenceController(k_speed=draw(_POSITIVE), k_damp=draw(_POSITIVE),
                                       v_des=draw(_FINITE), heading_des=draw(_FINITE)),
        barrier=draw(st.sampled_from(
            [b for b, models in BARRIER_MODELS.items() if model in models] + ["none"])),
        kappa=draw(_classks()),
        body_offset=draw(_FINITE),
        width=draw(st.floats(0.0, 10.0)),
        wheelbase_front=draw(_POSITIVE),
        wheelbase_rear=draw(_POSITIVE),
        perception_radius=draw(st.floats(0.0, 1e3)),
        dt=dt,
        duration=dt * draw(st.floats(1.0, 1e3)),
        halt_on_collision=draw(st.booleans()),
        **{key: draw(optional[key]) for key in chosen},
    )


@settings(derandomize=True, deadline=None)
@given(_scenarios())
def test_generated_configs_round_trip(tmp_path_factory, cfg):
    assert scenario_from_dict(scenario_to_dict(cfg)) == cfg
    path = tmp_path_factory.getbasetemp() / "roundtrip.yaml"
    save_scenario(cfg, path)
    assert load_scenario(path) == cfg


def _nodes(tree, path=()):
    """Every (path, value) in a YAML tree, the root included."""
    yield path, tree
    children = tree.items() if isinstance(tree, dict) else (
        enumerate(tree) if isinstance(tree, list) else ())
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _required(path) -> bool:
    """Whether the key at ``path`` names a field without a default."""
    if len(path) == 1:
        return path[0] in ("name", "model", "initial_state", "obstacles", "controller")
    if path[0] == "input_bounds" or "velocity_schedule" in path[:-1]:
        return True
    return path[0] == "obstacles" and path[2:] == ("center",)


def _corruptions(tree):
    """(label, path) for each single-field corruption of a valid tree."""
    for path, value in _nodes(tree):
        if isinstance(value, float):
            yield from (("text", path), ("nan", path))
        elif isinstance(value, list) and value and all(isinstance(x, float) for x in value):
            yield from (("longer", path), ("shorter", path))
        elif isinstance(value, list):
            yield "number-for-list", path
        elif isinstance(value, dict):
            yield "unknown-key", path
            if path:
                yield "list-for-mapping", path
        if path and isinstance(path[-1], str) and _required(path):
            yield "missing", path


def _corrupt(tree, label, path) -> None:
    parent, key, node = None, None, tree
    for step in path:
        parent, key, node = node, step, node[step]
    if label == "unknown-key":
        node["bogus"] = 1.0
    elif label == "longer":
        node.append(0.0)
    elif label == "shorter":
        node.pop()
    elif label == "missing":
        del parent[key]
    else:
        parent[key] = {"text": "x", "nan": math.nan, "number-for-list": 1.0,
                       "list-for-mapping": [1.0]}[label]


@settings(derandomize=True, deadline=None, max_examples=50)
@given(_scenarios())
def test_single_field_corruptions_raise_config_error(cfg):
    for label, path in _corruptions(scenario_to_dict(cfg)):
        tree = scenario_to_dict(cfg)
        _corrupt(tree, label, path)
        try:
            scenario_from_dict(tree)
        except ConfigError:
            continue
        pytest.fail(f"{label} at {path} was accepted")
