"""Vehicle dynamics, slip mapping and RK4 integration."""

import math

import numpy as np
import pytest
import sympy as sp

from conebarrier.models import (
    BicycleDynamics,
    BicycleGeometry,
    BicycleInput,
    BicycleState,
    PointMassDynamics,
    PointMassState,
    UnicycleDynamics,
    UnicycleInput,
    UnicycleState,
    bicycle_dynamics,
    bicycle_dynamics_exact,
    integrate_step,
    pointmass_dynamics,
    slip_from_steering,
    unicycle_dynamics,
)


def test_unicycle_pure_forward_roll():
    xdot = unicycle_dynamics(UnicycleState(0, 0, 0, 1, 0), UnicycleInput(0, 0))
    np.testing.assert_allclose(xdot, [1, 0, 0, 0, 0], atol=0)


def test_unicycle_quarter_turn_heading():
    xdot = unicycle_dynamics(UnicycleState(0, 0, math.pi / 2, 2, 0.5), UnicycleInput(1, -1))
    np.testing.assert_allclose(xdot, [math.cos(math.pi / 2) * 2, 2, 0.5, 1, -1], atol=1e-15)


def test_unicycle_matches_symbolic_evaluation():
    # Independent route: build the model symbolically and substitute.
    x, y, th, v, om, a, al = sp.symbols("x y th v om a al")
    f = sp.Matrix([v * sp.cos(th), v * sp.sin(th), om, 0, 0])
    g = sp.Matrix([[0, 0], [0, 0], [0, 0], [1, 0], [0, 1]])
    expr = f + g * sp.Matrix([a, al])
    subs = {x: 1, y: 2, th: 0.3, v: 1.5, om: 0.2, a: 0.4, al: -0.1}
    expected = np.array([float(e.subs(subs)) for e in expr])
    got = unicycle_dynamics(UnicycleState(1, 2, 0.3, 1.5, 0.2), UnicycleInput(0.4, -0.1))
    np.testing.assert_allclose(got, expected, rtol=1e-14)
    # Frozen values from the symbolic oracle above.
    np.testing.assert_allclose(
        got, [1.433004733688409, 0.4432803099920093, 0.2, 0.4, -0.1], rtol=1e-14)


def test_bicycle_straight_roll():
    geom = BicycleGeometry(1.0, 1.0)
    np.testing.assert_allclose(
        bicycle_dynamics(BicycleState(0, 0, 0, 1), BicycleInput(0, 0), geom),
        [1, 0, 0, 0], atol=0)


def test_bicycle_slip_term_hand_evaluated():
    geom = BicycleGeometry(1.0, 2.0)
    got = bicycle_dynamics(BicycleState(0, 0, 0, 2), BicycleInput(0, 0.1), geom)
    # xdot = v c - v b s = 2, ydot = v s + v b c = 0.2, thdot = (v/l_r) b = 0.1
    np.testing.assert_allclose(got, [2.0, 0.2, 0.1, 0.0], rtol=1e-15)


def test_bicycle_zero_speed_kills_slip_terms():
    geom = BicycleGeometry(1.0, 1.0)
    got = bicycle_dynamics(BicycleState(0, 0, 0, 0), BicycleInput(1, 0.5), geom)
    np.testing.assert_allclose(got, [0, 0, 0, 1], atol=0)


def test_pointmass_trivial_rows():
    np.testing.assert_allclose(
        pointmass_dynamics(PointMassState((0, 0), (1, 1)), (0, 0)), [1, 1, 0, 0], atol=0)
    np.testing.assert_allclose(
        pointmass_dynamics(PointMassState((5, 5), (0, 0)), (1, -1)), [0, 0, 1, -1], atol=0)


def test_pointmass_equals_block_matrix_form():
    rng = np.random.default_rng(7)
    a_blk = np.block([[np.zeros((2, 2)), np.eye(2)], [np.zeros((2, 2)), np.zeros((2, 2))]])
    b_blk = np.vstack([np.zeros((2, 2)), np.eye(2)])
    for _ in range(50):
        s = rng.normal(size=4)
        u = rng.normal(size=2)
        expected = a_blk @ s + b_blk @ u
        got = pointmass_dynamics(PointMassState((s[0], s[1]), (s[2], s[3])), u)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("dyn,dim_s,dim_u", [
    (UnicycleDynamics(), 5, 2),
    (BicycleDynamics(BicycleGeometry(1.2, 1.6)), 4, 2),
    (PointMassDynamics(), 4, 2),
])
def test_affine_decomposition_exact(dyn, dim_s, dim_u):
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(-5, 5, dim_s)
        u = rng.uniform(-3, 3, dim_u)
        assert np.array_equal(dyn(x, u), dyn.drift(x) + dyn.actuation(x) @ u)


def test_unicycle_actuation_constant():
    dyn = UnicycleDynamics()
    rng = np.random.default_rng(0)
    expected = np.zeros((5, 2))
    expected[3, 0] = expected[4, 1] = 1.0
    for _ in range(20):
        np.testing.assert_array_equal(dyn.actuation(rng.normal(size=5)), expected)


def test_bicycle_actuation_columns():
    geom = BicycleGeometry(1.1, 1.7)
    dyn = BicycleDynamics(geom)
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-4, 4, 4)
        g = dyn.actuation(x)
        v, th = x[3], x[2]
        np.testing.assert_array_equal(g[:, 0], [0, 0, 0, 1])
        np.testing.assert_allclose(
            g[:, 1], [-v * np.sin(th), v * np.cos(th), v / geom.l_r, 0], rtol=1e-15)


def test_slip_from_steering_examples():
    geom = BicycleGeometry(1.0, 1.0)
    assert slip_from_steering(0.0, geom) == 0.0
    # Symmetric axles: beta = atan(tan(delta)/2).
    assert slip_from_steering(0.4, geom) == pytest.approx(math.atan(math.tan(0.4) / 2), abs=0)
    # Frozen from direct evaluation of the conversion formula.
    got = slip_from_steering(0.3, BicycleGeometry(1.2, 1.6))
    assert got == pytest.approx(0.17495631924565214, abs=1e-15)
    assert got == pytest.approx(math.atan((1.6 / 2.8) * math.tan(0.3)), abs=0)


def test_slip_from_steering_odd_and_monotone():
    geom = BicycleGeometry(1.3, 1.5)
    deltas = np.linspace(-1.4, 1.4, 41)
    betas = [slip_from_steering(d, geom) for d in deltas]
    for d, b in zip(deltas, betas):
        assert slip_from_steering(-d, geom) == -b
    assert np.all(np.diff(betas) > 0)


def test_slip_from_steering_rejects_singularity():
    geom = BicycleGeometry(1.0, 1.0)
    with pytest.raises(ValueError):
        slip_from_steering(math.pi / 2, geom)
    with pytest.raises(ValueError):
        slip_from_steering(-2.0, geom)


def test_state_validation_rejects_nonfinite():
    with pytest.raises(ValueError):
        UnicycleState(0, 0, float("nan"), 1, 0)
    with pytest.raises(ValueError):
        BicycleGeometry(0.0, 1.0)
    with pytest.raises(ValueError):
        BicycleInput(float("inf"), 0.0)


def test_integrate_step_constant_derivative_exact():
    dyn = UnicycleDynamics()
    x0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    x1 = integrate_step(dyn, x0, np.zeros(2), 0.1)
    assert x1[0] == pytest.approx(0.1, abs=1e-16)
    np.testing.assert_allclose(x1[1:], x0[1:], atol=0)


def test_integrate_step_pointmass_matches_closed_form():
    dyn = PointMassDynamics()
    rng = np.random.default_rng(11)
    for _ in range(30):
        x0 = rng.uniform(-3, 3, 4)
        u = rng.uniform(-2, 2, 2)
        dt = 0.05
        x1 = integrate_step(dyn, x0, u, dt)
        expected = np.concatenate([
            x0[0:2] + x0[2:4] * dt + 0.5 * u * dt**2,
            x0[2:4] + u * dt,
        ])
        np.testing.assert_allclose(x1, expected, atol=1e-12)


def _circle_state(x0, t):
    """Closed-form unicycle state under zero input with omega != 0."""
    x, y, th, v, om = x0
    return np.array([
        x + (v / om) * (math.sin(th + om * t) - math.sin(th)),
        y - (v / om) * (math.cos(th + om * t) - math.cos(th)),
        th + om * t, v, om,
    ])


def test_integrate_step_circular_arc_order():
    dyn = UnicycleDynamics()
    x0 = np.array([0.2, -0.3, 0.4, 1.5, 0.8])
    u = np.zeros(2)

    def step_error(dt):
        return np.linalg.norm(integrate_step(dyn, x0, u, dt)[:3] - _circle_state(x0, dt)[:3])

    ratio = step_error(0.1) / step_error(0.05)
    # One RK4 step has O(dt^5) local error: halving should shrink it ~32x.
    assert 16.0 <= ratio <= 48.0


def test_integrate_step_rejects_bad_dt_and_blowup():
    dyn = PointMassDynamics()
    with pytest.raises(ValueError):
        integrate_step(dyn, np.zeros(4), np.zeros(2), 0.0)
    exploding = lambda x, u: np.full(4, np.inf)
    with pytest.raises(ArithmeticError):
        integrate_step(exploding, np.zeros(4), np.zeros(2), 0.01)


def test_exact_bicycle_reduces_to_affine_at_zero_slip():
    geom = BicycleGeometry(1.2, 1.6)
    s = BicycleState(0.3, -0.2, 0.7, 2.2)
    u = BicycleInput(0.5, 0.0)
    np.testing.assert_allclose(
        bicycle_dynamics_exact(s.as_array(), u.as_array(), geom),
        bicycle_dynamics(s, u, geom), atol=0)


def test_exact_bicycle_small_slip_gap_is_second_order():
    geom = BicycleGeometry(1.2, 1.6)
    s = BicycleState(0, 0, 0, 2.0)
    gaps = []
    for beta in (0.1, 0.05):
        u = BicycleInput(0.0, beta)
        gap = np.linalg.norm(
            bicycle_dynamics_exact(s.as_array(), u.as_array(), geom)
            - bicycle_dynamics(s, u, geom))
        gaps.append(gap)
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.3)
