"""Closed-loop engine: determinism, gating, events, classification, audits."""

import math
from collections import Counter
from itertools import count
from dataclasses import replace

import numpy as np
import pytest

from conebarrier import barriers, claims, sim
from conebarrier.barriers import ClassK
from conebarrier.claims import beta_smallness_audit, invariance_audit
from conebarrier.cli import FLAG_EVENTS, write_trace_csv
from conebarrier.models import integrate_step, unicycle_dynamics
from conebarrier.safety_filter import ReferenceController
from conebarrier.scenarios import (
    SUITE_NAMES,
    ConfigError,
    ObstacleConfig,
    ScenarioConfig,
    load_packaged,
)
from conebarrier.sim import classify_behavior, run_scenario

from conftest import parse_trace_csv


def _simple_cfg(**overrides):
    base = dict(
        name="probe",
        model="unicycle",
        initial_state=(0.0, 0.0, 0.0, 1.5, 0.0),
        obstacles=(ObstacleConfig(center=(30.0, 0.0), semi_axes=(0.5, 0.5)),),
        controller=ReferenceController(k_speed=1.0, k_damp=0.5, v_des=1.5),
        barrier="c3bf",
        kappa=ClassK(),
        body_offset=0.1,
        width=0.6,
        perception_radius=10.0,
        dt=0.01,
        duration=3.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_determinism_bit_identical():
    cfg = load_packaged("turning_unicycle")
    a = run_scenario(cfg)
    b = run_scenario(cfg)
    # Bytes, not values: np.array_equal would let a -0.0 pass for +0.0.
    assert a.states.tobytes() == b.states.tobytes()
    assert a.u_star.tobytes() == b.u_star.tobytes()
    assert a.h.tobytes() == b.h.tobytes()
    assert a.events == b.events


def test_barrier_disabled_equals_reference_only_loop():
    cfg = _simple_cfg(barrier="none",
                      obstacles=(ObstacleConfig(center=(2.0, 0.0), semi_axes=(0.5, 0.5)),),
                      duration=2.0)
    trace = run_scenario(cfg)
    x = np.array(cfg.initial_state)
    ctrl = cfg.controller
    for k in range(trace.states.shape[0]):
        assert np.array_equal(trace.states[k], x)
        u = np.array([ctrl.k_speed * (ctrl.v_des - x[3]), -ctrl.k_damp * x[4]])
        assert np.array_equal(trace.u_star[k], u)
        x = integrate_step(unicycle_dynamics, x, u, cfg.dt)


def test_perception_gating_passthrough():
    cfg = _simple_cfg()  # obstacle 30 m away, never in the 10 m radius
    trace = run_scenario(cfg)
    assert not trace.in_range.any()
    np.testing.assert_array_equal(trace.u_star, trace.u_ref)
    assert np.isfinite(trace.h).all()  # shadow value still logged


def test_obstacle_bookkeeping_reproducible():
    cfg = load_packaged("overtaking_unicycle")
    trace = run_scenario(cfg)
    l = cfg.body_offset
    ct = np.cos(trace.states[:, 2])
    st = np.sin(trace.states[:, 2])
    ref = trace.states[:, 0:2] + l * np.column_stack([ct, st])
    for k in range(trace.h.shape[1]):
        sep = np.linalg.norm(trace.obstacle_centers[:, k, :] - ref, axis=1)
        assert np.array_equal(sep, trace.sep[:, k])


def test_velocity_schedule_steps_at_configured_time():
    cfg = _simple_cfg(obstacles=(ObstacleConfig(
        center=(30.0, 0.0), velocity=(1.0, 0.0), semi_axes=(0.5, 0.5),
        velocity_schedule=((1.0, (-2.0, 0.5)),)),), duration=2.0)
    trace = run_scenario(cfg)
    before = trace.t < 1.0 - 1e-12
    after = trace.t >= 1.0 - 1e-12
    np.testing.assert_array_equal(trace.obstacle_velocities[before, 0],
                                  np.tile([1.0, 0.0], (before.sum(), 1)))
    np.testing.assert_array_equal(trace.obstacle_velocities[after, 0],
                                  np.tile([-2.0, 0.5], (after.sum(), 1)))
    # Changes at t = 0, 1e-13 below a step, between two steps, twice at one time and
    # after the run; the last ones send the obstacle into the unfiltered vehicle.
    edges = ObstacleConfig(center=(6.0, 0.0), velocity=(1.0, 0.0), semi_axes=(0.5, 0.5),
                           velocity_schedule=((0.0, (-1.0, 0.0)), (0.5 - 1e-13, (-2.0, 0.5)),
                                              (0.755, (-1.0, -0.3)), (1.2, (3.0, 0.0)),
                                              (1.2, (-4.0, 0.2)), (5.0, (9.0, 9.0))))
    traces = [trace]
    for halt in (False, True):
        traces.append(run_scenario(replace(cfg, barrier="none", obstacles=(edges,),
                                           halt_on_collision=halt)))
        assert traces[-1].halted == halt
    for trace in traces:
        # Step-by-step reference: the changes due at t_k, then c_{k+1} = c_k + v_k dt.
        obstacle = trace.config.obstacles[0]
        pending = list(obstacle.velocity_schedule)
        center, velocity = np.array(obstacle.center), np.array(obstacle.velocity)
        for k, tk in enumerate(trace.t):
            while pending and tk >= pending[0][0] - 1e-12:
                velocity = np.array(pending.pop(0)[1], dtype=float)
            assert np.array_equal(trace.obstacle_velocities[k, 0], velocity)
            assert np.array_equal(trace.obstacle_centers[k, 0], center)
            center = center + velocity * cfg.dt


def test_records_uniformly_spaced():
    cfg = _simple_cfg(duration=1.5)
    trace = run_scenario(cfg)
    assert trace.t.shape[0] == 151
    np.testing.assert_allclose(np.diff(trace.t), cfg.dt, rtol=1e-12)


def test_negative_control_collides_and_halt_truncates():
    cfg = replace(load_packaged("braking_unicycle"), barrier="none")
    trace = run_scenario(cfg)
    assert trace.collided()
    assert any(e.kind == "collision" for e in trace.events)
    halted = run_scenario(replace(cfg, halt_on_collision=True))
    assert halted.halted
    assert halted.t.shape[0] < trace.t.shape[0]
    first_collision = min(e.time for e in halted.events if e.kind == "collision")
    assert halted.t[-1] == pytest.approx(first_collision)


def test_perception_entry_event_logged():
    cfg = load_packaged("braking_unicycle")
    trace = run_scenario(cfg)
    entries = [e for e in trace.events if e.kind == "perception_entry"]
    assert len(entries) == 1
    assert entries[0].time == 0.0  # obstacle at 9 m, radius 10 m


def test_degenerate_velocity_event_when_pacing():
    # Obstacle moving at exactly the vehicle velocity: no relative motion,
    # no cone direction; the constraint is dropped and the event logged.
    cfg = _simple_cfg(obstacles=(ObstacleConfig(
        center=(6.0, 0.0), velocity=(1.5, 0.0), semi_axes=(0.5, 0.5)),), duration=1.0)
    trace = run_scenario(cfg)
    assert any(e.kind == "degenerate_velocity" for e in trace.events)
    assert not trace.constrained.any()
    np.testing.assert_array_equal(trace.u_star, trace.u_ref)


def test_event_order_within_and_across_steps():
    # Obstacle 0 overlaps the vehicle at t = 0, obstacle 1 paces it, and
    # obstacle 2 enters the perception radius later, when the filter's
    # braking saturates the input bounds. Events keep their emitted order.
    cfg = _simple_cfg(
        obstacles=(ObstacleConfig(center=(0.1, 0.3), semi_axes=(0.5, 0.5)),
                   ObstacleConfig(center=(3.0, 0.0), velocity=(1.5, 0.0), semi_axes=(0.5, 0.5)),
                   ObstacleConfig(center=(14.0, -0.2), velocity=(-3.0, 0.0),
                                  semi_axes=(0.5, 0.5))),
        input_bounds=((-1.0, -1.0), (1.0, 1.0)))
    got = [(e.kind, e.time, e.obstacle, e.detail) for e in run_scenario(cfg).events]
    assert got == [
        ("collision", 0.0, 0, "separation 0.300 <= r 0.800"),
        ("perception_entry", 0.0, 0, ""),
        ("perception_entry", 0.0, 1, ""),
        ("degenerate_velocity", 0.0, 1, ""),
        ("perception_entry", 0.87, 2, ""),
        ("saturation", 0.87, None, ""),
    ]


def test_out_of_range_obstacle_leaves_run_unchanged():
    cfg = load_packaged("braking_unicycle")
    far = ObstacleConfig(center=(-500.0, 40.0), velocity=(0.3, -0.2), semi_axes=(0.5, 0.8))
    base = run_scenario(cfg)
    more = run_scenario(replace(cfg, obstacles=cfg.obstacles + (far,)))
    assert not more.in_range[:, 1].any()
    assert more.states.tobytes() == base.states.tobytes()
    assert more.u_star.tobytes() == base.u_star.tobytes()
    assert more.h[:, 0].tobytes() == base.h[:, 0].tobytes()
    assert more.psi[:, 0].tobytes() == base.psi[:, 0].tobytes()
    assert more.qp_active[:, 0].tobytes() == base.qp_active[:, 0].tobytes()
    assert more.events == base.events


@pytest.mark.parametrize("far, at, why", [
    pytest.param(False, "0.05", "RK4 failed", id="rk4-failure"),
    # h of the far obstacle overflows from t = 0: the pass's earlier step wins.
    pytest.param(True, "0", "non-finite separation, relative speed or barrier value",
                 id="earlier-overflow"),
])
def test_blow_up_names_its_first_step(far, at, why, monkeypatch):
    steps = count()

    def fail_at_step_5(*args):
        if next(steps) == 5:
            raise ArithmeticError("RK4 failed")
        return integrate_step(*args)

    monkeypatch.setattr(sim, "integrate_step", fail_at_step_5)
    cfg = load_packaged("braking_unicycle")
    if far:
        cfg = replace(cfg, obstacles=cfg.obstacles + (ObstacleConfig(
            center=(1.2e154, 0.0), velocity=(1.2e154, 0.0), semi_axes=(0.5, 0.5)),))
    with pytest.raises(ArithmeticError) as err:
        run_scenario(cfg)
    assert str(err.value) == f"braking_unicycle: run blew up at t = {at}: {why}"


def _corridor_cfg(model, columns=8):
    """A crowd-style encounter: moving discs in jittered columns of 2 (16 by default)."""
    rng = np.random.default_rng(7)
    obstacles = tuple(
        ObstacleConfig(center=(4.0 + 2.5 * column + rng.uniform(-0.6, 0.6),
                               side * 2.0 + rng.uniform(-0.6, 0.6)),
                       velocity=tuple(rng.uniform(-1.0, 1.0, 2)),
                       semi_axes=(radius := rng.uniform(0.3, 0.6), radius))
        for column in range(columns) for side in (-1.0, 1.0))
    initial = (0.0, 0.0, 0.0, 2.0, 0.0)[:5 if model == "unicycle" else 4]
    return ScenarioConfig(name=f"corridor_{model}", model=model, initial_state=initial,
                          obstacles=obstacles, controller=ReferenceController(v_des=2.0),
                          duration=1.5)


@pytest.mark.parametrize("cfg", [
    pytest.param(replace(load_packaged("braking_unicycle"), duration=2.0), id="packaged-1"),
    pytest.param(_corridor_cfg("unicycle"), id="corridor-unicycle-16"),
    pytest.param(_corridor_cfg("bicycle"), id="corridor-bicycle-16"),
])
def test_one_kinematics_call_per_step(cfg, monkeypatch):
    # One call on the float state per step, then one array call over the
    # logged states for the h pass after the loop.
    calls = []
    kinematics = barriers.reference_kinematics

    def counted(*args):
        out = kinematics(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(barriers, "reference_kinematics", counted)
    trace = run_scenario(cfg)
    steps = len(trace.t)
    assert steps == round(cfg.duration / cfg.dt) + 1 and len(calls) == steps + 1
    for point, velocity, heading in calls[:-1]:
        assert all(type(v) is float for v in (*point, *velocity, *heading))
    assert all(np.shape(v) == (steps, 1) for pair in calls[-1] for v in pair)
    assert trace.constrained.sum(axis=1).max() >= min(8, len(cfg.obstacles))


_CORE_RUNS = {
    "corridor_unicycle": lambda: _corridor_cfg("unicycle"),
    "corridor_bicycle": lambda: _corridor_cfg("bicycle"),
    "corridor64_bicycle": lambda: _corridor_cfg("bicycle", columns=32),
    "ellipse_braking_unicycle": lambda: replace(load_packaged("braking_unicycle"),
                                                barrier="ellipse"),
    "ellipse_weave_bicycle": lambda: replace(load_packaged("weave_bicycle"), barrier="ellipse"),
    "hocbf_turning_unicycle": lambda: replace(load_packaged("turning_unicycle"), barrier="hocbf"),
    "hocbf_overtaking_bicycle": lambda: replace(load_packaged("overtaking_bicycle"),
                                                barrier="hocbf"),
}


@pytest.mark.parametrize("name", [*SUITE_NAMES, *_CORE_RUNS])
def test_engine_cone_pass_is_the_array_core(name, monkeypatch):
    # One array call over the logged states (T, 1, n) against the obstacle
    # tracks (T, n_obs, 2) reproduces every finite h the engine logged and,
    # byte for byte, the rows a u >= b its per-obstacle float pass gave the QP.
    qps = []
    solve = sim.solve_multi_constraint
    monkeypatch.setattr(sim, "solve_multi_constraint",
                        lambda qp, hint: qps.append(qp) or solve(qp, hint))
    cfg = _CORE_RUNS[name]() if name in _CORE_RUNS else load_packaged(name)
    trace = run_scenario(cfg)
    states = trace.states[:, None]
    centers, cdots = trace.obstacle_centers, trace.obstacle_velocities
    rel = barriers.relative_motion(barriers.reference_kinematics(cfg.model, states,
                                                                 cfg.body_offset), centers, cdots)
    axes = np.array([o.semi_axes for o in cfg.obstacles], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h, lf, lg = barriers.barrier_terms(
            "c3bf" if cfg.barrier == "none" else cfg.barrier, cfg.model, states, rel, centers,
            cdots, axes, barriers.combined_radius(axes, cfg.width), body_offset=cfg.body_offset,
            rear_axle=cfg.wheelbase_rear, kappa1=cfg.kappa1 or cfg.kappa)
    finite = np.isfinite(trace.h)
    assert h.shape == trace.h.shape and finite.sum() > 0
    assert h[finite].tobytes() == trace.h[finite].tobytes()
    assert len(qps) == len(trace.t) and trace.constrained.any()
    for k, rows in enumerate(trace.constrained):
        assert qps[k].a.tobytes() == lg[k, rows].tobytes()
        assert qps[k].b.tobytes() == (-lf[k, rows] - cfg.kappa(h[k, rows])).tobytes()


def test_classifier_none_without_filter_activity():
    trace = run_scenario(_simple_cfg())
    assert classify_behavior(trace) == "none"


def test_invariance_audit_safe_start(suite_traces):
    rep = invariance_audit(suite_traces["weave_bicycle"])
    assert rep.started_safe
    assert rep.min_h >= -1e-3
    assert not suite_traces["weave_bicycle"].collided()


def test_invariance_audit_recovery(suite_traces):
    rep = invariance_audit(suite_traces["recovery_unicycle"])
    assert not rep.started_safe
    assert rep.crossed_positive
    verdict = claims.violation_recovery({"recovery_unicycle": suite_traces["recovery_unicycle"]})
    assert "target=1.0 " in verdict["detail"]


def test_invariance_audit_flags_negative_control():
    cfg = replace(load_packaged("braking_unicycle"), barrier="none")
    trace = run_scenario(cfg)
    rep = invariance_audit(trace)
    assert rep.min_h < -claims.INVARIANCE_TOL
    assert trace.collided()


def test_beta_audit_zero_slip_run(suite_traces):
    rep = beta_smallness_audit(suite_traces["braking_bicycle"])
    assert rep.max_abs_beta == 0.0
    assert rep.max_divergence <= 1e-12
    assert not rep.flagged


def test_beta_audit_requires_bicycle(suite_traces):
    with pytest.raises(ValueError):
        beta_smallness_audit(suite_traces["braking_unicycle"])


def test_beta_audit_reports_divergence(suite_traces):
    rep = beta_smallness_audit(suite_traces["turning_bicycle"])
    assert 0.0 < rep.max_abs_beta < 0.3
    assert rep.path_length > 10.0
    assert rep.divergence_ratio < 0.05


def test_summary_payload(suite_traces):
    s = suite_traces["turning_unicycle"].summary()
    assert s["behavior"] == "turning"
    assert s["collision_free"]
    assert s["min_h"] < 0
    assert s["max_abs_beta"] is None
    assert s["events"].get("perception_entry", 0) >= 1


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        _simple_cfg(dt=0.0)
    with pytest.raises(ConfigError):
        _simple_cfg(duration=0.001)
    with pytest.raises(ConfigError):
        _simple_cfg(initial_state=(0.0, 0.0, 0.0))
    with pytest.raises(ConfigError):
        _simple_cfg(model="hovercraft")
    with pytest.raises(ConfigError, match=r"^probe: obstacles\[0\]: .*semi-axes"):
        _simple_cfg(obstacles=(ObstacleConfig(center=(1, 1), semi_axes=(0.0, 1.0)),))
    with pytest.raises(ConfigError, match=r"^probe: obstacles\[0\]: .*sorted"):
        _simple_cfg(obstacles=(ObstacleConfig(
            center=(1, 1), semi_axes=(1.0, 1.0),
            velocity_schedule=((2.0, (0.0, 0.0)), (1.0, (1.0, 0.0)))),))
    for bad_time in (math.nan, math.inf):
        with pytest.raises(ConfigError, match=r"^probe: obstacles\[1\]: .*times must be finite"):
            _simple_cfg(obstacles=(
                ObstacleConfig(center=(1, 1)),
                ObstacleConfig(center=(1, 1), velocity_schedule=((bad_time, (1.0, 0.0)),)),
            ))
    for bad_offset in (math.inf, math.nan):
        with pytest.raises(ConfigError, match="body_offset"):
            _simple_cfg(body_offset=bad_offset)
    with pytest.raises(ConfigError):
        _simple_cfg(path=((0.0, 0.0), (1.0, 1.0)))  # path on unicycle
    with pytest.raises(ConfigError):
        _simple_cfg(wheelbase_front=0.0)
    with pytest.raises(ConfigError):
        _simple_cfg(wheelbase_rear=-1.6)
    with pytest.raises(ConfigError):
        _simple_cfg(input_bounds=((-1.0,), (1.0,)))
    with pytest.raises(ConfigError):
        _simple_cfg(input_bounds=((-1.0, 1.0), (1.0, 0.5)))
    with pytest.raises(ConfigError):
        _simple_cfg(perception_radius=-1.0)
    with pytest.raises(ConfigError):
        _simple_cfg(width=-0.1)
    with pytest.raises(ConfigError):
        _simple_cfg(initial_state=(0.0, math.nan, 0.0, 1.5, 0.0))
    with pytest.raises(ConfigError):
        _simple_cfg(dt=math.inf)
    with pytest.raises(ConfigError):
        _simple_cfg(duration=math.nan)


def test_input_saturation_logs_and_clips():
    cfg = _simple_cfg(initial_state=(0.0, 0.0, 0.0, 0.0, 0.0),
                      input_bounds=((-0.5, -0.5), (0.5, 0.5)), duration=1.0)
    trace = run_scenario(cfg)
    # Reference wants a = 1.5 initially; saturation clips to 0.5.
    assert trace.u_star[0, 0] == 0.5
    assert any(e.kind == "saturation" for e in trace.events)


def test_ellipse_barrier_unicycle_goes_infeasible():
    # Zero input authority: the filter cannot brake, records infeasibility.
    cfg = _simple_cfg(barrier="ellipse",
                      obstacles=(ObstacleConfig(center=(6.0, 0.0), semi_axes=(1.0, 1.0)),),
                      duration=6.0)
    trace = run_scenario(cfg)
    assert any(e.kind == "infeasible" for e in trace.events)
    assert trace.collided()


def _rising(flags):
    return flags & ~np.concatenate([np.zeros_like(flags[:1]), flags[:-1]])


_LOG_RUNS = {
    "halted": lambda: replace(load_packaged("braking_unicycle"), barrier="none",
                              halt_on_collision=True),
    "shadow": lambda: replace(load_packaged("overtaking_bicycle"), barrier="none"),
    "hocbf": lambda: replace(load_packaged("turning_unicycle"), barrier="hocbf"),
    # Obstacle 1 paces the vehicle (degenerate velocity), obstacle 0 overlaps it.
    "pacing": lambda: _simple_cfg(obstacles=(
        ObstacleConfig(center=(0.1, 0.3), semi_axes=(0.5, 0.5)),
        ObstacleConfig(center=(6.0, 0.0), velocity=(1.5, 0.0), semi_axes=(0.5, 0.5))),
        duration=1.0),
    # The braking filter asks for more than the bounds allow (saturation).
    "saturated": lambda: replace(load_packaged("braking_unicycle"),
                                 input_bounds=((-1.0, -1.0), (1.0, 1.0))),
    # The ellipse row loses its input authority near the obstacle (QP infeasible).
    "infeasible": lambda: replace(load_packaged("braking_unicycle"), barrier="ellipse"),
}


@pytest.mark.parametrize("name", [*SUITE_NAMES, "corridor_unicycle", "corridor_bicycle",
                                  *_LOG_RUNS])
def test_engine_logs_follow_their_definitions(name, suite_traces):
    # The masks the engine forms after its loop, recomputed from the trace's
    # own states and obstacle tracks with one relative_motion call.
    if name in suite_traces:
        trace = suite_traces[name]
    elif name in _LOG_RUNS:
        trace = run_scenario(_LOG_RUNS[name]())
    else:
        trace = run_scenario(_corridor_cfg(name.rsplit("_", 1)[1]))
    cfg = trace.config
    _, _, p_sq, speed, _ = barriers.relative_motion(
        barriers.reference_kinematics(cfg.model, trace.states[:, None], cfg.body_offset),
        trace.obstacle_centers, trace.obstacle_velocities)
    sep = np.sqrt(p_sq)
    assert sep.tobytes() == trace.sep.tobytes()
    radii = barriers.combined_radius(np.array([o.semi_axes for o in cfg.obstacles]), cfg.width)
    colliding, slow = sep <= radii, speed <= barriers.EPS_V
    in_range = sep <= cfg.perception_radius
    np.testing.assert_array_equal(trace.in_range, in_range)

    cone = cfg.barrier in ("c3bf", "none")
    skip = (colliding | slow) & cone
    if cone:
        np.testing.assert_array_equal(np.isnan(trace.h), skip)
    else:
        assert not np.isnan(trace.h).any()
    np.testing.assert_array_equal(trace.constrained, in_range & ~skip & (cfg.barrier != "none"))
    if cfg.barrier == "none":
        assert not trace.constrained.any()
    # psi is logged for exactly the rows the QP saw; an active row is one of them.
    np.testing.assert_array_equal(~np.isnan(trace.psi), trace.constrained)
    assert not (trace.qp_active & ~trace.constrained).any()

    # The logged flags: a QP without rows is inactive, an infeasible one has a
    # row that u_ref violates, and a saturated input sits on a bound.
    assert trace.radii.tobytes() == radii.tobytes()
    np.testing.assert_array_equal(trace.degenerate, ~colliding & slow & cone)
    assert not (trace.infeasible & ~trace.constrained.any(axis=1)).any()
    assert (np.fmin.reduce(trace.psi[trace.infeasible], axis=1) < 0).all()
    if cfg.input_bounds is None:
        assert not trace.saturated.any()
    else:
        lower, upper = cfg.input_bounds
        on_bound = ((trace.u_star == lower) | (trace.u_star == upper)).any(axis=1)
        assert not (trace.saturated & ~on_bound).any()

    # The rising edges of those flags, and everything that reads them.
    edges = trace.edges()
    flags = {"collision": colliding, "perception_entry": in_range,
             "degenerate_velocity": trace.degenerate, "infeasible": trace.infeasible,
             "saturation": trace.saturated}
    assert list(edges) == list(flags)
    for kind, flag in flags.items():
        in_scope = in_range if kind == "degenerate_velocity" else True
        np.testing.assert_array_equal(edges[kind], _rising(flag) & in_scope, err_msg=kind)
    assert sorted((e.time, e.kind, e.obstacle) for e in trace.events) == sorted(
        (float(trace.t[k]), kind, int(i[0]) if i else None)
        for kind, edge in edges.items() for k, *i in zip(*np.nonzero(edge)))
    assert trace.summary()["events"] == dict(sorted(Counter(e.kind for e in trace.events).items()))
    assert trace.collided() == colliding.any()
    assert trace.halted == (cfg.halt_on_collision and colliding.any())

    steps, obstacles = np.nonzero(_rising(~colliding & slow & in_range & cone))
    assert [(e.time, e.obstacle) for e in trace.events if e.kind == "degenerate_velocity"] == [
        (float(trace.t[k]), int(i)) for k, i in zip(steps, obstacles)]
    if name == "pacing":
        assert len(steps) == 1 and colliding[0, 0]

    if cfg.halt_on_collision:
        # The run stops at its first collision, and every log ends there.
        assert trace.halted and colliding[-1].any() and not colliding[:-1].any()
        for field in ("states", "u_ref", "u_star", "h", "psi", "sep", "in_range",
                      "constrained", "qp_active", "degenerate", "infeasible", "saturated",
                      "obstacle_centers", "obstacle_velocities"):
            assert len(getattr(trace, field)) == len(trace.t)


@pytest.mark.parametrize("name, kind", [("halted", "collision"),
                                        ("pacing", "degenerate_velocity"),
                                        ("saturated", "saturation"), ("infeasible", "infeasible")])
def test_trace_csv_flag_columns_mark_event_steps(tmp_path, name, kind):
    trace = run_scenario(_LOG_RUNS[name]())
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    cols = parse_trace_csv(path)
    edges = trace.edges()
    for flag in FLAG_EVENTS:
        column = cols[f"event_{flag}"]
        assert set(column.tolist()) <= {0.0, 1.0}, flag
        # The steps of the kind's events, by the time-to-step rule t = k dt.
        steps = {round(e.time / trace.config.dt) for e in trace.events if e.kind == flag}
        assert set(np.flatnonzero(column).tolist()) == steps, flag
        np.testing.assert_array_equal(
            column.astype(bool), edges[flag].reshape(len(trace.t), -1).any(axis=1), err_msg=flag)
    assert cols[f"event_{kind}"].any()
