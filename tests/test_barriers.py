"""Cone, ellipse and second-order barrier evaluations against independent oracles."""

import math

import numpy as np
import pytest

from conebarrier.barriers import (
    EPS_V,
    ClassK,
    DegenerateVelocityError,
    DomainError,
    Obstacle,
    c3bf_bicycle,
    c3bf_bicycle_terms,
    c3bf_pointmass,
    c3bf_pointmass_terms,
    c3bf_unicycle,
    c3bf_unicycle_terms,
    ellipse_cbf,
    barrier_terms,
    ellipse_terms,
    hocbf,
    hocbf_terms,
    reference_kinematics,
)
from conebarrier.models import (
    BicycleDynamics,
    BicycleGeometry,
    BicycleState,
    PointMassState,
    UnicycleDynamics,
    UnicycleState,
)

from conftest import directional_fd


def rotate(vec, angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([c * vec[0] - s * vec[1], s * vec[0] + c * vec[1]])


def wedge_contains(p_rel, v_rel, r):
    """Geometric point-in-cone test built from the tangent directions.

    The cone apex sits at the vehicle; its axis points along -p_rel (the
    obstacle approaching) with half angle asin(r / |p_rel|). Membership is
    decided with cross products against the two rotated tangent rays,
    independent of the barrier formula.
    """
    p = np.asarray(p_rel, dtype=float)
    v = np.asarray(v_rel, dtype=float)
    phi = math.asin(r / np.linalg.norm(p))
    axis = -p / np.linalg.norm(p)
    t_left = rotate(axis, phi)
    t_right = rotate(axis, -phi)
    cross_right = t_right[0] * v[1] - t_right[1] * v[0]
    cross_left = t_left[0] * v[1] - t_left[1] * v[0]
    # Strictly between the tangents, on the axis side (phi < pi/2 always).
    return cross_right > 0 and cross_left < 0 and float(axis @ v) > 0


def test_h_value_head_on_static():
    s = UnicycleState(0, 0, 0, 1, 0)
    obs = Obstacle(center=(5, 0), velocity=(0, 0), semi_axis_x=1, semi_axis_y=1)
    ev = c3bf_unicycle(s, obs, body_offset=0.0, width=0.0)
    # p_rel=(5,0), v_rel=(-1,0): h = -5 + 5 * sqrt(24)/5 = -5 + 2 sqrt(6)
    assert ev.h == pytest.approx(-5 + 2 * math.sqrt(6), abs=1e-14)
    assert ev.h == pytest.approx(-0.10102051443364424, abs=1e-15)


def test_h_value_fleeing_obstacle():
    s = UnicycleState(0, 0, 0, 1, 0)
    obs = Obstacle(center=(5, 0), velocity=(2, 0), semi_axis_x=1, semi_axis_y=1)
    ev = c3bf_unicycle(s, obs, body_offset=0.0, width=0.0)
    assert ev.h == pytest.approx(5 + 2 * math.sqrt(6), abs=1e-14)
    assert ev.h > 0


def test_unicycle_lever_arm_keeps_row_nonzero():
    rng = np.random.default_rng(42)
    n = 100_000
    states = np.column_stack([
        rng.uniform(-10, 10, (n, 2)), rng.uniform(-math.pi, math.pi, n),
        rng.uniform(-4, 4, n), rng.uniform(-2, 2, n)])
    radii = rng.uniform(0.4, 2.0, n)
    ang = rng.uniform(0, 2 * math.pi, n)
    dist = radii + rng.uniform(0.1, 10.0, n)
    l = 0.1
    ct, st = np.cos(states[:, 2]), np.sin(states[:, 2])
    ref = states[:, :2] + l * np.column_stack([ct, st])
    centers = ref + dist[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    vels = rng.uniform(-3, 3, (n, 2))
    v_rel = vels - np.column_stack([states[:, 3] * ct - l * states[:, 4] * st,
                                    states[:, 3] * st + l * states[:, 4] * ct])
    ok = np.linalg.norm(v_rel, axis=1) > 1e-3
    _, _, lg = c3bf_unicycle_terms(states[ok], centers[ok], vels[ok], radii[ok], l)
    assert float(np.min(np.linalg.norm(lg, axis=1))) > 0.0


def test_cone_sign_matches_geometric_wedge():
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(10_000):
        r = rng.uniform(0.3, 2.0)
        dist = r + rng.uniform(0.05, 10.0)
        p = dist * rotate(np.array([1.0, 0.0]), rng.uniform(0, 2 * math.pi))
        v = rng.uniform(0.05, 5.0) * rotate(np.array([1.0, 0.0]), rng.uniform(0, 2 * math.pi))
        h, _, _ = c3bf_pointmass_terms(
            np.array([0.0, 0.0, -v[0], -v[1]]), p, np.zeros(2), r)
        if abs(h) < 1e-9:
            continue
        if (h < 0) != wedge_contains(p, v, r):
            mismatches += 1
    assert mismatches == 0


def test_cone_boundary_h_is_zero():
    # Put v_rel exactly on the tangent ray: h must vanish by construction.
    p = np.array([4.0, 1.0])
    r = 1.3
    phi = math.asin(r / np.linalg.norm(p))
    v_dir = rotate(-p / np.linalg.norm(p), phi)
    v = 2.7 * v_dir
    state = np.array([0.0, 0.0, 0.0, 0.0])  # bicycle at rest
    h, _, _ = c3bf_bicycle_terms(state, p, v, r, 1.6)
    assert abs(h) < 1e-12 * np.linalg.norm(p) * np.linalg.norm(v)


def test_bicycle_sign_matches_geometry_dead_ahead():
    geom = BicycleGeometry(1.0, 1.0)
    obs = Obstacle(center=(6, 0), velocity=(0, 0), semi_axis_x=1, semi_axis_y=1)
    inside = c3bf_bicycle(BicycleState(0, 0, 0.0, 2.0), obs, width=0.0, geom=geom)
    assert inside.h < 0  # driving straight at it
    outside = c3bf_bicycle(BicycleState(0, 0, 0.6, 2.0), obs, width=0.0, geom=geom)
    assert outside.h > 0  # heading well off the cone


def test_pointmass_head_on_collinear_algebra():
    s = PointMassState((0, 0), (3, 0))
    obs = Obstacle(center=(7, 0), velocity=(0, 0), semi_axis_x=1.2, semi_axis_y=0.8)
    ev = c3bf_pointmass(s, obs, width=0.4)
    r = 1.2 + 0.2
    p_norm, v_norm = 7.0, 3.0
    cos_phi = math.sqrt(p_norm**2 - r**2) / p_norm
    assert ev.h == pytest.approx(p_norm * v_norm * (cos_phi - 1.0), rel=1e-14)
    assert ev.h < 0


def test_pointmass_perpendicular_flyby_safe():
    s = PointMassState((0, 0), (0, 3))
    obs = Obstacle(center=(8, 0), velocity=(0, 0), semi_axis_x=0.5, semi_axis_y=0.5)
    ev = c3bf_pointmass(s, obs, width=0.0)
    # Independent evaluation of the formula.
    p, v = np.array([8.0, 0.0]), np.array([0.0, -3.0])
    expected = p @ v + np.linalg.norm(v) * math.sqrt(p @ p - 0.25)
    assert ev.h == pytest.approx(expected, rel=1e-14)
    assert ev.h > 0


def test_pointmass_row_is_minus_q_and_never_zero():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        r = rng.uniform(0.3, 1.5)
        p = (r + rng.uniform(0.05, 8.0)) * rotate(np.array([1, 0.0]), rng.uniform(0, 7))
        v = rng.uniform(0.05, 4.0) * rotate(np.array([1, 0.0]), rng.uniform(0, 7))
        state = np.array([0.0, 0.0, -v[0], -v[1]])
        _, _, lg = c3bf_pointmass_terms(state, p, np.zeros(2), r)
        s_len = math.sqrt(p @ p - r * r)
        q = p + v * (s_len / np.linalg.norm(v))
        np.testing.assert_allclose(lg, -q, rtol=1e-12)
        assert np.linalg.norm(lg) > 0


def test_domain_and_velocity_errors():
    obs = Obstacle(center=(1.0, 0), velocity=(0, 0), semi_axis_x=1.5, semi_axis_y=1.0)
    with pytest.raises(DomainError):
        c3bf_unicycle(UnicycleState(0, 0, 0, 1, 0), obs, 0.0, 0.0)
    far = Obstacle(center=(5.0, 0), velocity=(0, 0), semi_axis_x=1.0, semi_axis_y=1.0)
    with pytest.raises(DegenerateVelocityError):
        c3bf_unicycle(UnicycleState(0, 0, 0, 0, 0), far, 0.0, 0.0)
    with pytest.raises(DegenerateVelocityError):
        c3bf_pointmass(PointMassState((0, 0), (1.0, 0)),
                       Obstacle(center=(5, 0), velocity=(1.0, EPS_V / 2), semi_axis_x=1,
                                semi_axis_y=1), width=0.0)


def test_scale_covariance():
    rng = np.random.default_rng(13)
    for _ in range(500):
        r = rng.uniform(0.3, 1.5)
        p = (r + rng.uniform(0.1, 6.0)) * rotate(np.array([1, 0.0]), rng.uniform(0, 7))
        v = rng.uniform(0.1, 4.0) * rotate(np.array([1, 0.0]), rng.uniform(0, 7))
        lam = rng.uniform(0.2, 5.0)
        h1, _, _ = c3bf_pointmass_terms(np.array([0, 0, -v[0], -v[1]]), p, np.zeros(2), r)
        h2, _, _ = c3bf_pointmass_terms(
            np.array([0, 0, -lam * v[0], -lam * v[1]]), lam * p, np.zeros(2), lam * r)
        assert h2 == pytest.approx(lam**2 * h1, rel=1e-12)
        assert np.sign(h1) == np.sign(h2)


def test_ellipse_boundary_and_row_structure():
    obs = Obstacle(center=(3, 4), velocity=(0.5, -0.2), semi_axis_x=2.0, semi_axis_y=1.0)
    on_boundary = UnicycleState(3 + 2.0, 4, 0.7, 1.2, 0.3)
    ev = ellipse_cbf(on_boundary, obs, "unicycle")
    assert ev.h == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_array_equal(ev.lg_h, [0.0, 0.0])

    bike = BicycleState(0.0, 1.0, 0.4, 2.0)
    evb = ellipse_cbf(bike, obs, "bicycle")
    assert evb.lg_h[0] == 0.0
    assert evb.lg_h[1] != 0.0


def test_hocbf_stationary_reduces_to_inner_gain():
    kappa1 = ClassK("linear", 2.0)
    obs = Obstacle(center=(4, 1), velocity=(0, 0), semi_axis_x=1.0, semi_axis_y=1.5)
    s = UnicycleState(0, 0, 0.3, 0.0, 0.0)
    ev = hocbf(s, obs, kappa1, "unicycle")
    h1 = (4.0 / 1.0) ** 2 + (1.0 / 1.5) ** 2 - 1.0
    assert ev.h == pytest.approx(2.0 * h1, rel=1e-14)


def _admissible_cone_sample(rng, model, l=0.1, rear=1.6):
    """One random admissible (state, center, cdot, radius) tuple."""
    if model == "unicycle":
        state = np.array([rng.uniform(-8, 8), rng.uniform(-8, 8),
                          rng.uniform(-3, 3), rng.uniform(-4, 4), rng.uniform(-2, 2)])
        ct, st = math.cos(state[2]), math.sin(state[2])
        base = state[:2] + l * np.array([ct, st])
        point_vel = np.array([state[3] * ct - l * state[4] * st,
                              state[3] * st + l * state[4] * ct])
    elif model == "bicycle":
        state = np.array([rng.uniform(-8, 8), rng.uniform(-8, 8),
                          rng.uniform(-3, 3), rng.uniform(-4, 4)])
        base = state[:2].copy()
        point_vel = state[3] * np.array([math.cos(state[2]), math.sin(state[2])])
    else:
        state = rng.uniform(-6, 6, 4)
        base = state[:2].copy()
        point_vel = state[2:4].copy()
    r = rng.uniform(0.4, 2.0)
    center = base + (r + rng.uniform(0.2, 9.0)) * rotate(
        np.array([1.0, 0.0]), rng.uniform(0, 2 * math.pi))
    cdot = rng.uniform(-3, 3, 2)
    if np.linalg.norm(cdot - point_vel) < 0.1:
        cdot = point_vel + np.array([0.5, -0.4])
    return state, center, cdot, r


@pytest.mark.parametrize("model", ["unicycle", "bicycle", "pointmass"])
def test_c3bf_gradients_match_finite_differences(model):
    rng = np.random.default_rng(21)
    l, rear = 0.1, 1.6
    if model == "unicycle":
        dyn = UnicycleDynamics()
        terms = lambda s, c, cd, r: c3bf_unicycle_terms(s, c, cd, r, l)
    elif model == "bicycle":
        dyn = BicycleDynamics(BicycleGeometry(1.2, rear))
        terms = lambda s, c, cd, r: c3bf_bicycle_terms(s, c, cd, r, rear)
    else:
        from conebarrier.models import PointMassDynamics
        dyn = PointMassDynamics()
        terms = lambda s, c, cd, r: c3bf_pointmass_terms(s, c, cd, r)

    worst = 0.0
    for _ in range(300):
        state, center, cdot, r = _admissible_cone_sample(rng, model)
        h, lf, lg = terms(state, center, cdot, r)
        n = state.shape[0]
        ext = np.concatenate([state, center])
        h_ext = lambda z: terms(z[:n], z[n:], cdot, r)[0]
        fd_lf = directional_fd(h_ext, ext, np.concatenate([dyn.drift(state), cdot]))
        worst = max(worst, abs(fd_lf - lf) / max(1.0, abs(lf)))
        g = dyn.actuation(state)
        for j in range(2):
            fd = directional_fd(h_ext, ext, np.concatenate([g[:, j], np.zeros(2)]))
            worst = max(worst, abs(fd - lg[j]) / max(1.0, abs(lg[j])))
    assert worst < 1e-6


@pytest.mark.parametrize("barrier,model", [
    ("ellipse", "unicycle"), ("ellipse", "bicycle"),
    ("hocbf", "unicycle"), ("hocbf", "bicycle"),
])
def test_baseline_gradients_match_finite_differences(barrier, model):
    rng = np.random.default_rng(31)
    kappa1 = ClassK("linear", 1.0)
    rear = 1.6
    dyn = (UnicycleDynamics() if model == "unicycle"
           else BicycleDynamics(BicycleGeometry(1.2, rear)))
    worst = 0.0
    for _ in range(300):
        n = 5 if model == "unicycle" else 4
        state = rng.uniform(-6, 6, n)
        axes = rng.uniform(0.4, 2.0, 2)
        center = rng.uniform(-6, 6, 2)
        cdot = rng.uniform(-3, 3, 2)
        if barrier == "ellipse":
            fn = lambda s, c: ellipse_terms(s, c, cdot, axes, model)
        else:
            fn = lambda s, c: hocbf_terms(s, c, cdot, axes, kappa1, model,
                                          rear if model == "bicycle" else None)
        h, lf, lg = fn(state, center)
        ext = np.concatenate([state, center])
        h_ext = lambda z: fn(z[:n], z[n:])[0]
        fd_lf = directional_fd(h_ext, ext, np.concatenate([dyn.drift(state), cdot]))
        worst = max(worst, abs(fd_lf - lf) / max(1.0, abs(lf)))
        g = dyn.actuation(state)
        for j in range(2):
            fd = directional_fd(h_ext, ext, np.concatenate([g[:, j], np.zeros(2)]))
            worst = max(worst, abs(fd - lg[j]) / max(1.0, abs(lg[j])))
    assert worst < 1e-6


@pytest.mark.parametrize("barrier,model", [
    ("c3bf", "unicycle"), ("c3bf", "bicycle"), ("c3bf", "pointmass"),
    ("ellipse", "unicycle"), ("ellipse", "bicycle"),
    ("hocbf", "unicycle"), ("hocbf", "bicycle"),
])
def test_terms_broadcast_one_state_over_velocity_grid(barrier, model):
    rng = np.random.default_rng(41)
    state, center, _, r = _admissible_cone_sample(rng, model)
    _, point_vel = reference_kinematics(model, state, 0.1)
    angles = rng.uniform(0.0, 2.0 * math.pi, 32)
    grid = point_vel + rng.uniform(0.5, 3.0, (32, 1)) * np.column_stack(
        [np.cos(angles), np.sin(angles)])
    axes = np.array([0.9, 0.6])
    kw = dict(body_offset=0.1, rear_axle=1.6, kappa1=ClassK("cubic", 0.5))
    h, lf, lg = barrier_terms(barrier, model, state, center, grid, axes, r, **kw)
    assert (h.shape, lf.shape, lg.shape) == ((32,), (32,), (32, 2))
    for j, cdot in enumerate(grid):
        hj, lfj, lgj = barrier_terms(barrier, model, state, center, cdot, axes, r, **kw)
        np.testing.assert_allclose([h[j], lf[j], *lg[j]], [hj, lfj, *lgj],
                                   rtol=1e-12, atol=1e-12)


def test_bicycle_kernel_states_satisfy_inequality():
    # Rest states with heading perpendicular to q zero the whole row; there
    # the drift alone must honor hdot + kappa(h) >= 0 wherever h >= 0.
    rng = np.random.default_rng(17)
    kappa = ClassK("linear", 1.0)
    checked = 0
    for _ in range(2000):
        r = rng.uniform(0.4, 1.8)
        dist = r + rng.uniform(0.3, 8.0)
        p = dist * rotate(np.array([1.0, 0.0]), rng.uniform(0, 2 * math.pi))
        cdot = rng.uniform(0.2, 4.0) * rotate(np.array([1.0, 0.0]), rng.uniform(0, 2 * math.pi))
        s_len = math.sqrt(dist * dist - r * r)
        q = p + cdot * (s_len / np.linalg.norm(cdot))
        theta = math.atan2(q[1], q[0]) + math.pi / 2
        state = np.array([0.0, 0.0, theta, 0.0])
        h, lf, lg = c3bf_bicycle_terms(state, p, cdot, r, 1.6)
        assert np.linalg.norm(lg) <= 1e-9
        if h >= 0:
            checked += 1
            assert lf + kappa(h) >= -1e-9
    assert checked > 100


def test_hocbf_moving_bicycle_admits_invalidating_velocity():
    # Second-order candidate, bicycle, moving obstacle: exhibit L_g h ~ 0
    # with hdot + kappa(h) < 0 inside the safe set for some obstacle velocity.
    kappa = ClassK("linear", 1.0)
    axes = np.array([1.0, 1.0])
    d = 4.0
    state = np.array([-d, 0.0, math.pi / 2, 0.0])
    center = np.zeros(2)
    cdot = np.array([-1.8, 0.0])
    h, lf, lg = hocbf_terms(state, center, cdot, axes, kappa, "bicycle", 1.6)
    assert np.linalg.norm(lg) <= 1e-9
    assert h >= 0
    assert lf + kappa(h) < -1e-3


@pytest.mark.parametrize("kind,gamma,table", [
    ("linear", 1.0, None),
    ("linear", 3.5, None),
    ("cubic", 2.0, None),
    ("custom", 1.0, ((-2.0, -3.0), (-0.5, -0.4), (0.0, 0.0), (1.0, 2.0), (3.0, 7.0))),
])
def test_classk_increasing_through_zero(kind, gamma, table):
    kappa = ClassK(kind, gamma, table)
    xs = np.linspace(-4.0, 4.0, 201)
    ys = kappa(xs)
    assert kappa(0.0) == pytest.approx(0.0, abs=1e-15)
    assert np.all(np.diff(ys) >= 0)
    nonflat = np.diff(ys) > 0
    assert np.mean(nonflat) > 0.95  # strictly increasing except cubic's flat origin


def test_classk_derivative_matches_fd():
    for kappa in (ClassK("linear", 2.0), ClassK("cubic", 0.7),
                  ClassK("custom", 1.0, ((-1.0, -2.0), (0.0, 0.0), (2.0, 1.0)))):
        for x in (-0.8, -0.3, 0.4, 1.2):
            fd = (kappa(x + 1e-7) - kappa(x - 1e-7)) / 2e-7
            assert kappa.derivative(x) == pytest.approx(fd, rel=1e-5, abs=1e-6)


def test_classk_validation():
    with pytest.raises(ValueError):
        ClassK("linear", 0.0)
    with pytest.raises(ValueError):
        ClassK("sigmoid")
    with pytest.raises(ValueError):
        ClassK("custom", 1.0, ((0.0, 0.0), (1.0, -1.0)))
    with pytest.raises(ValueError):
        ClassK("custom", 1.0, ((-1.0, -1.0), (1.0, 3.0)))  # misses (0, 0)
