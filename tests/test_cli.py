"""Command-line contract: emissions, exit codes, CSV round trip."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from conebarrier.cli import main, parse_trace_csv, write_trace_csv
from conebarrier.scenarios import load_packaged, save_scenario
from conebarrier.sim import run_scenario


@pytest.fixture()
def braking_yaml(tmp_path):
    path = tmp_path / "braking_unicycle.yaml"
    save_scenario(load_packaged("braking_unicycle"), path)
    return path


def test_run_single_config_emits_files(tmp_path, braking_yaml):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(braking_yaml), "--out", str(out)])
    assert rc == 0
    assert (out / "braking_unicycle_trace.csv").exists()
    assert (out / "braking_unicycle_events.json").exists()
    assert (out / "braking_unicycle_summary.json").exists()
    summary = json.loads((out / "braking_unicycle_summary.json").read_text())
    assert summary["behavior"] == "braking"
    assert summary["collision_free"] is True
    events = json.loads((out / "braking_unicycle_events.json").read_text())
    assert any(e["kind"] == "perception_entry" for e in events)


def test_run_emit_selection_and_plotdata(tmp_path, braking_yaml):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(braking_yaml), "--out", str(out),
               "--emit", "plotdata"])
    assert rc == 0
    assert not (out / "braking_unicycle_trace.csv").exists()
    plot = json.loads((out / "braking_unicycle_plotdata.json").read_text())
    assert len(plot["t"]) == len(plot["x"]) == len(plot["h"][0])


def test_run_negative_control_exit_one(tmp_path, braking_yaml):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(braking_yaml), "--out", str(out),
               "--barrier", "none"])
    assert rc == 1
    events = json.loads((out / "braking_unicycle_events.json").read_text())
    assert any(e["kind"] == "collision" for e in events)


def test_run_malformed_config_exit_two_no_partial_outputs(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("name: x\nmodel: unicycle\n")  # missing required keys
    out = tmp_path / "out"
    rc = main(["run", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_run_negative_wheelbase_exit_two_no_outputs(tmp_path):
    bad = tmp_path / "bad.yaml"
    save_scenario(replace(load_packaged("braking_bicycle"), wheelbase_rear=-1.0), bad)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_run_bad_emit_kind_exit_two(tmp_path, braking_yaml):
    rc = main(["run", "--config", str(braking_yaml), "--out", str(tmp_path / "o"),
               "--emit", "trace-csv,holograms"])
    assert rc == 2


def test_env_var_output_dir(tmp_path, braking_yaml, monkeypatch):
    monkeypatch.setenv("CONEBARRIER_OUT", str(tmp_path / "envout"))
    rc = main(["run", "--config", str(braking_yaml)])
    assert rc == 0
    assert (tmp_path / "envout" / "braking_unicycle_trace.csv").exists()


def test_dt_and_duration_overrides(tmp_path, braking_yaml):
    out = tmp_path / "out"
    rc = main(["run", "--config", str(braking_yaml), "--out", str(out),
               "--dt", "0.02", "--duration", "2.0"])
    assert rc == 0
    cols = parse_trace_csv(out / "braking_unicycle_trace.csv")
    assert len(cols["t"]) == 101
    assert cols["t"][1] == 0.02


def test_trace_csv_roundtrip_exact(tmp_path):
    trace = run_scenario(load_packaged("overtaking_unicycle"))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    cols = parse_trace_csv(path)
    assert np.array_equal(cols["t"], trace.t)
    assert np.array_equal(cols["state_x_p"], trace.states[:, 0])
    assert np.array_equal(cols["state_v"], trace.states[:, 3])
    assert np.array_equal(cols["u_star_a"], trace.u_star[:, 0])
    assert np.array_equal(cols["u_ref_alpha"], trace.u_ref[:, 1])
    assert np.array_equal(cols["h_0"], trace.h[:, 0], equal_nan=True)
    assert np.array_equal(cols["psi_0"], trace.psi[:, 0], equal_nan=True)
    assert np.array_equal(cols["sep_0"], trace.sep[:, 0])
    assert np.array_equal(cols["obs0_cx"], trace.obstacle_centers[:, 0, 0])
    assert np.array_equal(cols["in_range_0"].astype(bool), trace.in_range[:, 0])


def test_trace_csv_format_contract(tmp_path):
    trace = run_scenario(load_packaged("braking_unicycle"))
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF only
    header = raw.split(b"\n", 1)[0].decode()
    assert header.startswith("t,state_x_p,state_y_p,state_theta,state_v,state_omega")
    assert "event_collision" in header


def test_validity_subcommand_single_and_matrix(tmp_path, capsys):
    rc = main(["validity", "--barrier", "c3bf", "--model", "unicycle",
               "--samples", "1500", "--out", str(tmp_path)])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "Valid CBF in D" in captured
    payload = json.loads((tmp_path / "validity.json").read_text())
    assert payload[0]["static"] == "Valid CBF in D"
    assert payload[0]["moving"] == "Valid CBF in D"


def test_validity_rejects_small_samples():
    assert main(["validity", "--samples", "10"]) == 2


def test_audit_subset(tmp_path):
    cfg_dir = tmp_path / "cfgs"
    cfg_dir.mkdir()
    for name in ("braking_unicycle", "recovery_unicycle", "weave_bicycle"):
        save_scenario(load_packaged(name), cfg_dir / f"{name}.yaml")
    out = tmp_path / "out"
    rc = main(["audit", "--config", str(cfg_dir), "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "audit.json").read_text())
    assert payload["passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert {"collision_free", "behavior_labels", "invariance_safe_start",
            "violation_recovery", "beta_smallness", "negative_control",
            "qp_grid_oracle"} <= names
