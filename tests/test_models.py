"""Vehicle dynamics, slip mapping and RK4 integration."""

import math
import numpy as np
import pytest
import sympy as sp

from conebarrier.models import (
    MODELS,
    STATE_NAMES,
    actuation,
    bicycle_dynamics,
    bicycle_dynamics_exact,
    drift,
    integrate_step,
    model_dynamics,
    pointmass_dynamics,
    slip_from_steering,
    unicycle_dynamics,
)


def test_unicycle_pure_forward_roll():
    xdot = unicycle_dynamics(np.array([0, 0, 0, 1, 0]), np.array([0, 0]))
    np.testing.assert_allclose(xdot, [1, 0, 0, 0, 0], atol=0)


def test_unicycle_quarter_turn_heading():
    xdot = unicycle_dynamics(np.array([0, 0, math.pi / 2, 2, 0.5]), np.array([1, -1]))
    np.testing.assert_allclose(xdot, [math.cos(math.pi / 2) * 2, 2, 0.5, 1, -1], atol=1e-15)


def test_unicycle_matches_symbolic_evaluation():
    # Independent route: build the model symbolically and substitute.
    x, y, th, v, om, a, al = sp.symbols("x y th v om a al")
    f = sp.Matrix([v * sp.cos(th), v * sp.sin(th), om, 0, 0])
    g = sp.Matrix([[0, 0], [0, 0], [0, 0], [1, 0], [0, 1]])
    expr = f + g * sp.Matrix([a, al])
    subs = {x: 1, y: 2, th: 0.3, v: 1.5, om: 0.2, a: 0.4, al: -0.1}
    expected = np.array([float(e.subs(subs)) for e in expr])
    got = unicycle_dynamics(np.array([1, 2, 0.3, 1.5, 0.2]), np.array([0.4, -0.1]))
    np.testing.assert_allclose(got, expected, rtol=1e-14)
    # Frozen values from the symbolic oracle above.
    np.testing.assert_allclose(
        got, [1.433004733688409, 0.4432803099920093, 0.2, 0.4, -0.1], rtol=1e-14)


def test_bicycle_straight_roll():
    np.testing.assert_allclose(
        bicycle_dynamics(np.array([0, 0, 0, 1]), np.array([0, 0]), 1.0),
        [1, 0, 0, 0], atol=0)


def test_bicycle_slip_term_hand_evaluated():
    got = bicycle_dynamics(np.array([0, 0, 0, 2]), np.array([0, 0.1]), 2.0)
    # xdot = v c - v b s = 2, ydot = v s + v b c = 0.2, thdot = (v/l_r) b = 0.1
    np.testing.assert_allclose(got, [2.0, 0.2, 0.1, 0.0], rtol=1e-15)


def test_bicycle_zero_speed_kills_slip_terms():
    got = bicycle_dynamics(np.array([0, 0, 0, 0]), np.array([1, 0.5]), 1.0)
    np.testing.assert_allclose(got, [0, 0, 0, 1], atol=0)


def test_pointmass_trivial_rows():
    np.testing.assert_allclose(
        pointmass_dynamics(np.array([0, 0, 1, 1]), np.array([0, 0])), [1, 1, 0, 0], atol=0)
    np.testing.assert_allclose(
        pointmass_dynamics(np.array([5, 5, 0, 0]), np.array([1, -1])), [0, 0, 1, -1], atol=0)


def test_pointmass_equals_block_matrix_form():
    rng = np.random.default_rng(7)
    a_blk = np.block([[np.zeros((2, 2)), np.eye(2)], [np.zeros((2, 2)), np.zeros((2, 2))]])
    b_blk = np.vstack([np.zeros((2, 2)), np.eye(2)])
    for _ in range(50):
        s = rng.normal(size=4)
        u = rng.normal(size=2)
        expected = a_blk @ s + b_blk @ u
        got = pointmass_dynamics(s, u)
        np.testing.assert_allclose(got, expected, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("model", MODELS)
def test_affine_decomposition_exact(model):
    dyn = model_dynamics(model, 1.6)
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = rng.uniform(-5, 5, len(STATE_NAMES[model]))
        u = rng.uniform(-3, 3, 2)
        assert np.array_equal(dyn(x, u), drift(model, x) + actuation(model, x, 1.6) @ u)


@pytest.mark.parametrize("model", MODELS)
def test_array_cores_batch_equals_single_states(model):
    rng = np.random.default_rng(5)
    x = rng.uniform(-5, 5, (64, len(STATE_NAMES[model])))
    f, g = drift(model, x), actuation(model, x, 1.6)
    assert f.shape == x.shape and g.shape == x.shape + (2,)
    assert f.tobytes() == np.stack([drift(model, s) for s in x]).tobytes()
    assert g.tobytes() == np.stack([actuation(model, s, 1.6) for s in x]).tobytes()
    # Leading axes broadcast: a (4, 16, n) stack is the same 64 states.
    assert drift(model, x.reshape(4, 16, -1)).tobytes() == f.tobytes()
    assert actuation(model, x.reshape(4, 16, -1), 1.6).tobytes() == g.tobytes()


def test_unicycle_actuation_constant():
    rng = np.random.default_rng(0)
    expected = np.zeros((5, 2))
    expected[3, 0] = expected[4, 1] = 1.0
    for _ in range(20):
        np.testing.assert_array_equal(actuation("unicycle", rng.normal(size=5)), expected)


def test_bicycle_actuation_columns():
    l_r = 1.7
    rng = np.random.default_rng(1)
    for _ in range(50):
        x = rng.uniform(-4, 4, 4)
        g = actuation("bicycle", x, l_r)
        v, th = x[3], x[2]
        np.testing.assert_array_equal(g[:, 0], [0, 0, 0, 1])
        np.testing.assert_allclose(
            g[:, 1], [-v * np.sin(th), v * np.cos(th), v / l_r, 0], rtol=1e-15)


def test_slip_from_steering_examples():
    assert slip_from_steering(0.0, 1.0, 1.0) == 0.0
    # Symmetric axles: beta = atan(tan(delta)/2).
    assert slip_from_steering(0.4, 1.0, 1.0) == pytest.approx(math.atan(math.tan(0.4) / 2), abs=0)
    # Frozen from direct evaluation of the conversion formula.
    got = slip_from_steering(0.3, 1.2, 1.6)
    assert got == pytest.approx(0.17495631924565214, abs=1e-15)
    assert got == pytest.approx(math.atan((1.6 / 2.8) * math.tan(0.3)), abs=0)


def test_slip_from_steering_odd_and_monotone():
    deltas = np.linspace(-1.4, 1.4, 41)
    betas = [slip_from_steering(d, 1.3, 1.5) for d in deltas]
    for d, b in zip(deltas, betas):
        assert slip_from_steering(-d, 1.3, 1.5) == -b
    assert np.all(np.diff(betas) > 0)


def test_slip_from_steering_rejects_singularity():
    with pytest.raises(ValueError):
        slip_from_steering(math.pi / 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        slip_from_steering(-2.0, 1.0, 1.0)


@pytest.mark.parametrize("call", [
    lambda: model_dynamics("bicycle", 0.0),
    lambda: model_dynamics("bicycle", -1.6),
    lambda: model_dynamics("bicycle", math.nan),
    lambda: model_dynamics("bicycle"),
    lambda: actuation("bicycle", np.zeros(4), 0.0),
    lambda: slip_from_steering(0.1, 0.0, 1.0),
    lambda: slip_from_steering(0.1, 1.0, -1.0),
], ids=["zero-rear", "negative-rear", "nan-rear", "no-rear", "actuation-zero-rear",
        "slip-zero-front", "slip-negative-rear"])
def test_nonpositive_axle_is_rejected(call):
    with pytest.raises(ValueError, match="must be positive"):
        call()


@pytest.mark.parametrize("call", [
    lambda: model_dynamics("tricycle", 1.0),
    lambda: drift("tricycle", np.zeros(4)),
    lambda: actuation("tricycle", np.zeros(4), 1.0),
], ids=["model_dynamics", "drift", "actuation"])
def test_unknown_model_is_rejected(call):
    with pytest.raises(ValueError, match="unknown model 'tricycle'"):
        call()


def test_integrate_step_constant_derivative_exact():
    x0 = np.array([0.0, 0.0, 0.0, 1.0, 0.0])
    x1 = integrate_step(unicycle_dynamics, x0, np.zeros(2), 0.1)
    assert x1[0] == pytest.approx(0.1, abs=1e-16)
    np.testing.assert_allclose(x1[1:], x0[1:], atol=0)


def test_integrate_step_pointmass_matches_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(30):
        x0 = rng.uniform(-3, 3, 4)
        u = rng.uniform(-2, 2, 2)
        dt = 0.05
        x1 = integrate_step(pointmass_dynamics, x0, u, dt)
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
    x0 = np.array([0.2, -0.3, 0.4, 1.5, 0.8])
    u = np.zeros(2)

    def step_error(dt):
        return np.linalg.norm(integrate_step(unicycle_dynamics, x0, u, dt)[:3] - _circle_state(x0, dt)[:3])

    ratio = step_error(0.1) / step_error(0.05)
    # One RK4 step has O(dt^5) local error: halving should shrink it ~32x.
    assert 16.0 <= ratio <= 48.0


def test_integrate_step_rejects_bad_dt_and_blowup():
    with pytest.raises(ValueError):
        integrate_step(pointmass_dynamics, np.zeros(4), np.zeros(2), 0.0)
    exploding = lambda x, u: np.full(4, np.inf)
    with pytest.raises(ArithmeticError):
        integrate_step(exploding, np.zeros(4), np.zeros(2), 0.01)


def test_integrate_step_infinite_stage_is_blow_up():
    # The theta stage overflows to inf, which math.cos rejects with ValueError.
    # Arrays, as the engine's lists, give the blow-up and no overflow warning
    # (the suite runs with RuntimeWarnings as errors).
    state, u = [0.0, 0.0, 0.0, 1.0, 1.7e308], [0.0, 0.0]
    for x, v in ((np.array(state), np.zeros(2)), (state, u), (tuple(state), tuple(u)),
                 (state, np.zeros(2)), (np.array(state), u)):
        with pytest.raises(ArithmeticError, match="non-finite RK4 stage"):
            integrate_step(unicycle_dynamics, x, v, 10.0)

    def misshapen(x, u):
        raise ValueError("field of the wrong model")

    with pytest.raises(ValueError, match="wrong model"):
        integrate_step(misshapen, np.zeros(4), np.zeros(2), 0.01)


def _counting_field(calls, stage, fails):
    """A field that records its stage states and, at call ``stage``, either
    returns an infinite derivative (``fails`` False) or raises ValueError;
    it raises ValueError on a non-finite state, as ``math.cos`` does."""
    def field(x, u):
        calls.append(list(x))
        if not all(map(math.isfinite, x)):
            raise ValueError("math domain error")
        if len(calls) == stage:
            if fails:
                raise ValueError("field of the wrong model")
            return [math.inf, 0.0, 0.0, 0.0]
        return [1.0, 0.0, 0.0, 0.0]
    return field


@pytest.mark.parametrize("stage", [2, 3, 4])
def test_integrate_step_non_finite_stage_raises_arithmetic_error(stage):
    calls = []
    # The derivative of stage - 1 is infinite, so stage ``stage`` sees a non-finite state.
    with pytest.raises(ArithmeticError, match="non-finite RK4 stage"):
        integrate_step(_counting_field(calls, stage - 1, False), [0.0] * 4, [0.0, 0.0], 0.1)
    assert len(calls) == stage and not math.isfinite(calls[-1][0])


@pytest.mark.parametrize("stage", [1, 2, 3, 4])
def test_integrate_step_finite_stage_value_error_propagates(stage):
    calls = []
    with pytest.raises(ValueError, match="wrong model") as info:
        integrate_step(_counting_field(calls, stage, True), [0.0] * 4, [0.0, 0.0], 0.1)
    assert not isinstance(info.value, ArithmeticError)
    assert len(calls) == stage and all(map(math.isfinite, calls[-1]))


def _rk4_reference(field, x, u, dt):
    """The array form of one RK4 step: the stages as NumPy arrays."""
    k1 = field(x, u)
    k2 = field(x + 0.5 * dt * k1, u)
    k3 = field(x + 0.5 * dt * k2, u)
    k4 = field(x + dt * k3, u)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("model", [*MODELS, "bicycle-exact"])
def test_integrate_step_matches_array_reference(model):
    if model == "bicycle-exact":
        dyn = lambda x, u: bicycle_dynamics_exact(x, u, 1.6)
        field, dim = (lambda x, u: np.asarray(dyn(x, u))), 4
    else:
        dyn = model_dynamics(model, 1.6)
        field = lambda x, u: drift(model, x) + actuation(model, x, 1.6) @ u
        dim = len(STATE_NAMES[model])
    rng = np.random.default_rng(23)
    for _ in range(500):
        x = rng.uniform(-5.0, 5.0, dim)
        u = rng.uniform(-3.0, 3.0, 2)
        dt = float(rng.uniform(1e-3, 0.2))
        got = integrate_step(dyn, x, u, dt)
        ref = _rk4_reference(field, x, u, dt)
        assert got.dtype == np.float64 and got.shape == (dim,)
        # The engine's lists of floats give the bytes of the arrays.
        on_lists = integrate_step(dyn, x.tolist(), u.tolist(), dt)
        assert on_lists.dtype == np.float64 and on_lists.tobytes() == got.tobytes()
        # Only math vs NumPy cos/sin may differ, across builds; 2 ulp allows it.
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))


def test_exact_bicycle_reduces_to_affine_at_zero_slip():
    s = np.array([0.3, -0.2, 0.7, 2.2])
    u = np.array([0.5, 0.0])
    np.testing.assert_allclose(
        bicycle_dynamics_exact(s, u, 1.6), bicycle_dynamics(s, u, 1.6), atol=0)


def test_exact_bicycle_small_slip_gap_is_second_order():
    s = np.array([0, 0, 0, 2.0])
    gaps = []
    for beta in (0.1, 0.05):
        u = np.array([0.0, beta])
        gap = np.linalg.norm(np.subtract(bicycle_dynamics_exact(s, u, 1.6),
                                         bicycle_dynamics(s, u, 1.6)))
        gaps.append(gap)
    assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.3)
