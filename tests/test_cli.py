"""Command-line contract: emissions, exit codes, CSV round trip."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from conebarrier import cli, sim
from conebarrier.cli import main, parse_trace_csv, write_trace_csv
from conebarrier.scenarios import SUITE_NAMES, load_packaged, save_scenario, scenario_to_dict
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


def _packaged_tree(edit, name="braking_unicycle"):
    tree = scenario_to_dict(load_packaged(name))
    edit(tree)
    return yaml.safe_dump(tree)


@pytest.mark.parametrize("text", [
    pytest.param("name: x\nmodel: unicycle\n", id="missing-keys"),
    pytest.param(_packaged_tree(lambda t: t.update(input_bounds=[1, 2])), id="bounds-list"),
    pytest.param(_packaged_tree(lambda t: t["initial_state"].__setitem__(2, "north")),
                 id="state-text"),
    pytest.param(_packaged_tree(lambda t: t["obstacles"][0].update(semi_axes=[1.0])),
                 id="one-semi-axis"),
    pytest.param(_packaged_tree(lambda t: t.update(controller={"k_speed": -1})),
                 id="negative-gain"),
    pytest.param(_packaged_tree(lambda t: t["controller"].update(v_des=math.inf)),
                 id="infinite-speed"),
    pytest.param(_packaged_tree(lambda t: t.update(halt_on_collision="false")),
                 id="quoted-bool"),
    pytest.param(_packaged_tree(lambda t: t.update(path=[[0.0, 0.0]]), "weave_bicycle"),
                 id="one-waypoint"),
    pytest.param(_packaged_tree(lambda t: t.update(path=[[1.0, 2.0], [1.0, 2.0]]),
                                "weave_bicycle"), id="repeated-waypoint"),
    pytest.param(_packaged_tree(lambda t: t["path_gains"].update(k_soft=0.0), "weave_bicycle"),
                 id="zero-k-soft"),
    pytest.param(_packaged_tree(lambda t: t["path_gains"].update(k_cross=math.inf),
                                "weave_bicycle"), id="infinite-gain"),
    pytest.param(_packaged_tree(lambda t: t["kappa"].update(gamma=math.inf)),
                 id="infinite-kappa-gamma"),
    pytest.param(_packaged_tree(lambda t: t.update(
        barrier="hocbf", kappa1={"kind": "linear", "gamma": math.inf}), "braking_bicycle"),
                 id="infinite-kappa1-gamma"),
    pytest.param(_packaged_tree(lambda t: t.update(kappa={
        "kind": "custom", "table": [[-1.0, -1.0], [0.0, 0.0], [1.0, math.inf]]})),
                 id="infinite-table-entry"),
    pytest.param(_packaged_tree(lambda t: t.update(kappa={
        "kind": "linear", "gamma": 1.0, "table": [[0.0, 0.0], [1.0, 1.0]]})),
                 id="table-on-linear-kappa"),
    pytest.param(_packaged_tree(lambda t: t.update(width=math.inf), "weave_bicycle"),
                 id="infinite-width"),
    pytest.param(_packaged_tree(lambda t: t.update(wheelbase_rear=math.inf), "weave_bicycle"),
                 id="infinite-rear-wheelbase"),
    pytest.param(_packaged_tree(lambda t: t.update(wheelbase_front=math.inf), "weave_bicycle"),
                 id="infinite-front-wheelbase"),
    pytest.param(_packaged_tree(lambda t: t["path"][1].__setitem__(0, math.inf),
                                "weave_bicycle"), id="infinite-waypoint"),
    pytest.param(_packaged_tree(lambda t: t.update(dt=1.0e-300)), id="step-count-over-cap"),
    pytest.param(_packaged_tree(lambda t: t.update(barrier="hocbf"), "swerve_pointmass"),
                 id="pointmass-hocbf"),
])
def test_run_malformed_config_exit_two_no_partial_outputs(tmp_path, capsys, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    out = tmp_path / "out"
    rc = main(["run", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gamma", [1.0e300, 1.0e308])
def test_blow_up_exit_two_on_one_line(tmp_path, capsys, gamma):
    # gamma 1e300 sends the state to ~1e298 in one step, so the next separation
    # overflows; gamma 1e308 makes the first filtered input NaN.
    bad = tmp_path / "blowup.yaml"
    bad.write_text(_packaged_tree(lambda t: t["kappa"].update(gamma=gamma)))
    for command in ("run", "audit"):
        out = tmp_path / command
        assert main([command, "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run error: braking_unicycle: run blew up at t = ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())


def test_nan_barrier_row_exit_two_on_one_line(tmp_path, capsys, braking_yaml, monkeypatch):
    # A NaN L_f h reaches the QP's finiteness test, which the engine reports
    # as a blown-up run rather than a traceback; so does an infinite L_g h,
    # where inf * 0 in the QP would raise under the engine's errstate first.
    barrier_terms = sim.B.barrier_terms

    def nan_lf(*args, **kwargs):
        h, lf, lg = barrier_terms(*args, **kwargs)
        return h, np.full_like(lf, np.nan), lg

    def inf_lg(*args, **kwargs):
        h, lf, lg = barrier_terms(*args, **kwargs)
        return h, lf, np.full_like(lg, np.inf)

    for corrupt in (nan_lf, inf_lg):
        monkeypatch.setattr(sim.B, "barrier_terms", corrupt)
        out = tmp_path / corrupt.__name__
        assert main(["run", "--config", str(braking_yaml), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("run error: braking_unicycle: run blew up at t = ")
        assert err.endswith(": constraint rows must be finite\n")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())


def test_run_infinite_perception_radius_and_open_bound_side_exit_zero(tmp_path):
    # Unlike the infinite values above, these two mean "no limit" and run.
    bad = tmp_path / "open.yaml"
    bad.write_text(_packaged_tree(lambda t: t.update(
        perception_radius=math.inf,
        input_bounds={"lower": [-math.inf, -2.0], "upper": [3.0, 2.0]})))
    out = tmp_path / "out"
    assert main(["run", "--config", str(bad), "--out", str(out)]) == 0
    assert json.loads((out / "braking_unicycle_summary.json").read_text())["collision_free"]


def test_run_builds_each_summary_once(tmp_path, braking_yaml, monkeypatch):
    calls = []
    classify = sim.classify_behavior
    monkeypatch.setattr(sim, "classify_behavior", lambda trace: calls.append(1) or classify(trace))
    assert main(["run", "--config", str(braking_yaml), "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_cli_import_loads_no_scipy():
    code = ("import sys, conebarrier.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_run_negative_wheelbase_exit_two_no_outputs(tmp_path):
    tree = scenario_to_dict(load_packaged("braking_bicycle"))
    tree["wheelbase_rear"] = -1.0
    bad = tmp_path / "bad.yaml"
    bad.write_text(yaml.safe_dump(tree))
    out = tmp_path / "out"
    rc = main(["run", "--config", str(bad), "--out", str(out)])
    assert rc == 2
    assert not out.exists()


def test_run_bad_emit_kind_exit_two(tmp_path, braking_yaml):
    out = tmp_path / "o"
    rc = main(["run", "--config", str(braking_yaml), "--out", str(out),
               "--emit", "trace-csv,holograms"])
    assert rc == 2
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    pytest.param(["validity", "--seed", "-1"], id="validity-negative-seed"),
    pytest.param(["audit", "--seed", "-1"], id="audit-negative-seed"),
    pytest.param(["validity", "--model", "pointmass", "--barrier", "ellipse"],
                 id="pointmass-ellipse"),
    pytest.param(["validity", "--model", "pointmass", "--barrier", "hocbf"],
                 id="pointmass-hocbf"),
    pytest.param(["run", "--barrier", "ellipse"], id="run-suite-ellipse"),
    pytest.param(["run", "--barrier", "hocbf"], id="run-suite-hocbf"),
    pytest.param(["audit", "--barrier", "ellipse"], id="audit-suite-ellipse"),
])
def test_bad_cli_input_exit_two_before_any_run(tmp_path, capsys, monkeypatch, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("ran before rejecting the input")

    for name in ("run_scenario", "verdict_row", "verdict_matrix"):
        monkeypatch.setattr(cli, name, no_run)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("wrong", [
    pytest.param(lambda res: replace(res, u_star=res.u_ref.copy()), id="u_ref-as-corrected"),
    pytest.param(lambda res: replace(res, status="infeasible"), id="feasible-as-infeasible"),
])
def test_audit_qp_check_fails_a_wrong_solver(tmp_path, braking_yaml, monkeypatch, wrong):
    solve = cli.solve_multi_constraint

    def wrong_solver(qp, *basis):
        res = solve(qp, *basis)
        return wrong(res) if res.status == "corrected" else res

    monkeypatch.setattr(cli, "solve_multi_constraint", wrong_solver)
    out = tmp_path / "out"
    assert main(["audit", "--config", str(braking_yaml), "--out", str(out)]) == 1
    checks = json.loads((out / "audit.json").read_text())["checks"]
    assert [c["passed"] for c in checks if c["name"] == "qp_grid_oracle"] == [False]


def test_override_breaking_a_packaged_scenario_names_it(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["run", "--dt", "1e-300", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {SUITE_NAMES[0]}: duration / dt asks for 1e+301 steps")
    assert err.count("\n") == 1 and not out.exists()


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
    # Bytes, not values: np.array_equal would let a -0.0 pass for +0.0.
    for column, logged in (("t", trace.t), ("state_x_p", trace.states[:, 0]),
                           ("state_v", trace.states[:, 3]), ("u_star_a", trace.u_star[:, 0]),
                           ("u_ref_alpha", trace.u_ref[:, 1]), ("h_0", trace.h[:, 0]),
                           ("psi_0", trace.psi[:, 0]), ("sep_0", trace.sep[:, 0]),
                           ("obs0_cx", trace.obstacle_centers[:, 0, 0])):
        assert cols[column].tobytes() == logged.tobytes(), column
    assert cols["in_range_0"].astype(bool).tobytes() == trace.in_range[:, 0].tobytes()


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
