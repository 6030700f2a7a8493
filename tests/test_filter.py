"""Reference controllers and the QP safety filter against a grid oracle."""

import math

import numpy as np
import pytest

from conebarrier.barriers import ClassK
from conebarrier.models import BicycleGeometry, BicycleState
from conebarrier.safety_filter import (
    ConstraintRow,
    DegenerateRowError,
    EmptyPathError,
    PathTrackerGains,
    QpProblem,
    ReferenceController,
    reference_p_controller,
    reference_path_tracker,
    solve_multi_constraint,
    solve_single_constraint,
)
from conebarrier.sim import ObstacleConfig, ScenarioConfig, run_scenario

from conftest import grid_project


def test_p_controller_at_setpoint():
    ctrl = ReferenceController(k_speed=1.0, k_damp=0.5, v_des=2.0)
    u = reference_p_controller("unicycle", np.array([0, 0, 0, 2.0, 0.0]), ctrl)
    np.testing.assert_array_equal(u, [0.0, 0.0])


def test_p_controller_direct_substitution():
    ctrl = ReferenceController(k_speed=1.0, k_damp=0.5, v_des=2.0)
    u = reference_p_controller("unicycle", np.array([0, 0, 0, 0.0, 1.0]), ctrl)
    np.testing.assert_allclose(u, [2.0, -0.5], atol=0)


def test_p_controller_bicycle_and_pointmass():
    ctrl = ReferenceController(k_speed=2.0, k_damp=0.5, v_des=1.5, heading_des=math.pi / 2)
    np.testing.assert_allclose(
        reference_p_controller("bicycle", np.array([0, 0, 0, 0.5]), ctrl), [2.0, 0.0],
        atol=1e-15)
    u = reference_p_controller("pointmass", np.array([0, 0, 0.0, 0.5]), ctrl)
    np.testing.assert_allclose(u, [0.0, 2.0 * (1.5 - 0.5)], atol=1e-15)
    with pytest.raises(ValueError):
        reference_p_controller("hovercraft", np.zeros(4), ctrl)


def test_default_classk_gain_is_one():
    assert ClassK().gamma == 1.0
    assert ClassK().kind == "linear"


def test_controller_validation():
    with pytest.raises(ValueError):
        ReferenceController(k_speed=0.0, k_damp=0.5, v_des=1.0)
    with pytest.raises(ValueError):
        ReferenceController(k_speed=1.0, k_damp=0.5, v_des=3.0, v_max=2.0)


def test_path_tracker_on_path_aligned():
    geom = BicycleGeometry(1.0, 1.0)
    gains = PathTrackerGains(k_cross=1.0, k_soft=0.5, k_speed=1.0, v_des=2.0)
    path = [(0.0, 0.0), (10.0, 0.0)]
    u = reference_path_tracker(BicycleState(3.0, 0.0, 0.0, 2.0), path, geom, gains)
    assert u[0] == pytest.approx(0.0, abs=1e-15)
    assert u[1] == pytest.approx(0.0, abs=1e-15)


def test_path_tracker_offset_left_steers_right():
    geom = BicycleGeometry(1.0, 1.0)
    gains = PathTrackerGains(k_cross=1.0, k_soft=0.5, k_speed=1.0, v_des=2.0)
    path = [(0.0, 0.0), (10.0, 0.0)]
    u = reference_path_tracker(BicycleState(3.0, 1.0, 0.0, 2.0), path, geom, gains)
    assert u[1] < 0.0  # left of the path: slip toward negative y


def test_path_tracker_rejects_short_path():
    geom = BicycleGeometry(1.0, 1.0)
    gains = PathTrackerGains()
    with pytest.raises(EmptyPathError):
        reference_path_tracker(BicycleState(0, 0, 0, 1), [(0.0, 0.0)], geom, gains)


def test_path_tracker_converges_from_offset():
    # Closed loop without obstacles: 1 m offset must settle within 10 s.
    from conebarrier.models import BicycleDynamics, integrate_step
    geom = BicycleGeometry(1.0, 1.0)
    gains = PathTrackerGains(k_cross=1.0, k_soft=0.5, k_speed=1.0, v_des=2.0)
    path = np.array([[0.0, 0.0], [80.0, 0.0]])
    dyn = BicycleDynamics(geom)
    x = np.array([0.0, 1.0, 0.0, 2.0])
    dt = 0.01
    for _ in range(1000):
        u = reference_path_tracker(BicycleState(*x), path, geom, gains)
        x = integrate_step(dyn, x, u, dt)
    assert abs(x[1]) < 0.05


def test_single_constraint_inactive_branch():
    qp = QpProblem(u_ref=np.array([1.0, 2.0]),
                   rows=(ConstraintRow(np.array([1.0, 0.0]), 0.7),))
    res = solve_single_constraint(qp)
    assert res.status == "inactive"
    assert res.psi[0] == pytest.approx(0.3)
    np.testing.assert_array_equal(res.u_star, qp.u_ref)
    np.testing.assert_array_equal(res.u_safe, [0.0, 0.0])


def test_single_constraint_tie_at_zero_is_inactive():
    qp = QpProblem(u_ref=np.array([1.0, 0.0]),
                   rows=(ConstraintRow(np.array([1.0, 0.0]), 1.0),))
    res = solve_single_constraint(qp)
    assert res.status == "inactive"
    assert res.active_set == ()


def test_single_constraint_formula_substitution():
    # lg=(1,0), psi=-2, u_ref=(0,0): u_safe = (2, 0), constraint exactly tight.
    qp = QpProblem(u_ref=np.zeros(2), rows=(ConstraintRow(np.array([1.0, 0.0]), 2.0),))
    res = solve_single_constraint(qp)
    assert res.psi[0] == pytest.approx(-2.0)
    np.testing.assert_allclose(res.u_safe, [2.0, 0.0], atol=0)
    assert float(np.array([1.0, 0.0]) @ res.u_star) - 2.0 == pytest.approx(0.0, abs=1e-15)
    assert res.status == "corrected"
    assert res.active_set == (0,)


def test_single_constraint_degenerate_row():
    qp = QpProblem(u_ref=np.zeros(2), rows=(ConstraintRow(np.zeros(2), 1.0),))
    with pytest.raises(DegenerateRowError):
        solve_single_constraint(qp)


def test_single_constraint_matches_grid():
    rng = np.random.default_rng(2)
    for _ in range(100):
        ang = rng.uniform(0, 2 * math.pi)
        lg = np.array([math.cos(ang), math.sin(ang)])
        rhs = float(rng.uniform(-2, 2))
        u_ref = rng.uniform(-3, 3, 2)
        res = solve_single_constraint(QpProblem(u_ref=u_ref, rows=(ConstraintRow(lg, rhs),)))
        ref = grid_project(u_ref, [(lg, rhs)])
        f_star = float(np.sum((res.u_star - u_ref) ** 2))
        f_grid = float(np.sum((ref - u_ref) ** 2))
        assert float(lg @ res.u_star - rhs) >= -1e-9
        assert f_star <= f_grid + 1e-12
        # Projection inequality pins u_star as the exact projection.
        assert np.sum((ref - res.u_star) ** 2) <= f_grid - f_star + 1e-9


def test_multi_no_rows_passthrough():
    u_ref = np.array([0.4, -0.7])
    res = solve_multi_constraint(QpProblem(u_ref=u_ref))
    assert res.status == "inactive"
    np.testing.assert_array_equal(res.u_star, u_ref)
    assert res.psi.shape == (0,)


def test_multi_single_row_bit_identical_to_single():
    rng = np.random.default_rng(4)
    for _ in range(50):
        lg = rng.uniform(-1, 1, 2)
        if np.linalg.norm(lg) < 1e-3:
            continue
        qp = QpProblem(u_ref=rng.uniform(-3, 3, 2),
                       rows=(ConstraintRow(lg, float(rng.uniform(-2, 2))),))
        a = solve_single_constraint(qp)
        b = solve_multi_constraint(qp)
        assert np.array_equal(a.u_star, b.u_star)
        assert a.status == b.status
        assert a.active_set == b.active_set


def test_multi_matches_grid_and_slackness():
    rng = np.random.default_rng(6)
    evaluated = 0
    for _ in range(200):
        u_ref = rng.uniform(-3, 3, 2)
        rows = []
        for _ in range(rng.integers(2, 5)):
            ang = rng.uniform(0, 2 * math.pi)
            rows.append((np.array([math.cos(ang), math.sin(ang)]),
                         float(rng.uniform(-2, 2))))
        qp = QpProblem(u_ref=u_ref, rows=tuple(ConstraintRow(l, r) for l, r in rows))
        res = solve_multi_constraint(qp)
        ref = grid_project(u_ref, rows, deep=res.status != "infeasible")
        if res.status == "infeasible":
            assert ref is None or np.max(np.abs(ref)) > 9.0
            continue
        if ref is None:
            # Feasible sliver thinner than the oracle lattice: verify the
            # solution directly and count the instance as unresolved.
            for lg, rhs in rows:
                assert float(lg @ res.u_star - rhs) >= -1e-9
            continue
        if np.max(np.abs(res.u_star)) > 8.5:
            continue
        evaluated += 1
        assert len(res.active_set) <= 2
        for lg, rhs in rows:
            assert float(lg @ res.u_star - rhs) >= -1e-9
        for j, (lg, rhs) in enumerate(rows):
            if j in res.active_set:
                assert abs(float(lg @ res.u_star - rhs)) <= 1e-9
        f_star = float(np.sum((res.u_star - u_ref) ** 2))
        f_grid = float(np.sum((ref - u_ref) ** 2))
        assert f_star <= f_grid + 1e-12
        assert np.sum((ref - res.u_star) ** 2) <= f_grid - f_star + 1e-9
        if res.status == "corrected":
            assert len(res.active_set) >= 1
    assert evaluated > 120


def test_minimal_deviation_on_sampled_grid():
    rng = np.random.default_rng(8)
    u_ref = np.array([1.0, -2.0])
    rows = [(np.array([0.8, 0.6]), 1.0), (np.array([-0.5, 0.8]), 0.2)]
    qp = QpProblem(u_ref=u_ref, rows=tuple(ConstraintRow(l, r) for l, r in rows))
    res = solve_multi_constraint(qp)
    d_star = np.linalg.norm(res.u_star - u_ref)
    for _ in range(5000):
        u = rng.uniform(-6, 6, 2)
        if all(float(l @ u - r) >= 0 for l, r in rows):
            assert np.linalg.norm(u - u_ref) >= d_star - 1e-12


def test_switching_continuity_as_psi_crosses_zero():
    lg = np.array([0.6, -0.8])
    u_ref = np.array([0.5, 0.25])
    base = float(lg @ u_ref)
    norms = []
    for eps in np.linspace(-0.01, 0.01, 41):
        qp = QpProblem(u_ref=u_ref, rows=(ConstraintRow(lg, base + eps),))
        res = solve_single_constraint(qp)
        norms.append(np.linalg.norm(res.u_safe))
    norms = np.array(norms)
    # |u_safe| = max(psi, 0)/|lg|: linear in the violation with no jump.
    np.testing.assert_allclose(norms, np.maximum(np.linspace(-0.01, 0.01, 41), 0.0),
                               atol=1e-12)


def test_infeasible_conflicting_rows_least_violating():
    lg = np.array([1.0, 0.0])
    rows = (ConstraintRow(lg, 1.0), ConstraintRow(-lg, 1.0))  # u0 >= 1 and u0 <= -1
    res = solve_multi_constraint(QpProblem(u_ref=np.zeros(2), rows=rows))
    assert res.status == "infeasible"
    # Least worst violation is attained midway: u0 = 0 violates both by 1.
    viol = max(1.0 - res.u_star[0], 1.0 + res.u_star[0])
    assert viol == pytest.approx(1.0, abs=1e-6)


def test_multi_degenerate_zero_row_infeasible_not_raising():
    rows = (ConstraintRow(np.zeros(2), 1.0),)
    res = solve_multi_constraint(QpProblem(u_ref=np.zeros(2), rows=rows))
    assert res.status == "infeasible"
    rows_ok = (ConstraintRow(np.zeros(2), -1.0),)
    res2 = solve_multi_constraint(QpProblem(u_ref=np.zeros(2), rows=rows_ok))
    assert res2.status == "inactive"


def _one_filter_step(obstacles, body_offset=0.1):
    # The per-step filter (rows from the barrier, QP, events) runs inside
    # run_scenario; the first record of a one-step run is its evaluation at
    # the initial state.
    cfg = ScenarioConfig(
        name="filter_step", model="unicycle", initial_state=(0.0, 0.0, 0.0, 2.0, 0.0),
        obstacles=tuple(obstacles),
        controller=ReferenceController(k_speed=1.0, k_damp=0.5, v_des=2.0),
        barrier="c3bf", kappa=ClassK(), body_offset=body_offset, width=0.6,
        perception_radius=10.0, dt=0.01, duration=0.01)
    return run_scenario(cfg)


def test_filter_step_no_obstacles_passthrough():
    trace = _one_filter_step([])
    np.testing.assert_array_equal(trace.u_star[0], trace.u_ref[0])
    assert trace.constrained.shape == (2, 0)
    assert trace.events == ()


def test_filter_step_braking_correction_decelerates():
    # Static obstacle dead ahead at speed: the correction must brake.
    trace = _one_filter_step([ObstacleConfig(center=(9.0, 0.0), semi_axes=(0.75, 0.75))])
    assert trace.constrained[0, 0] and trace.qp_active[0, 0]
    assert trace.psi[0, 0] < 0
    assert trace.u_safe[0, 0] < 0


def test_filter_step_drops_domain_violations_with_events():
    inside = ObstacleConfig(center=(0.5, 0.0), semi_axes=(1.0, 1.0))
    degen = ObstacleConfig(center=(5.0, 0.0), velocity=(2.0, 0.0), semi_axes=(0.5, 0.5))
    trace = _one_filter_step([inside, degen], body_offset=0.0)
    kinds = sorted((e.kind, e.obstacle) for e in trace.events
                   if e.time == 0.0 and e.kind != "perception_entry")
    assert kinds == [("collision", 0), ("degenerate_velocity", 1)]
    assert not trace.constrained[0].any()
    assert np.isnan(trace.h[0]).all() and np.isnan(trace.psi[0]).all()
    np.testing.assert_array_equal(trace.u_star[0], trace.u_ref[0])
