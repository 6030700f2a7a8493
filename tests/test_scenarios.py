"""YAML scenario codec and the packaged suite."""

from dataclasses import replace

import pytest
import yaml

from conebarrier.barriers import ClassK
from conebarrier.scenarios import (
    BEHAVIOR_SUITE_NAMES,
    SUITE_NAMES,
    behavior_suite,
    full_suite,
    load_configs,
    load_packaged,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    with_overrides,
)
from conebarrier.sim import ConfigError


def test_packaged_suite_complete():
    suite = full_suite()
    assert set(suite) == set(SUITE_NAMES)
    assert len(behavior_suite()) == 8
    assert set(behavior_suite()) == set(BEHAVIOR_SUITE_NAMES)


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


def test_invalid_yaml_raises_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unclosed")
    with pytest.raises(ConfigError):
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
