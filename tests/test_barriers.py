"""Cone, ellipse and second-order barrier evaluations against independent oracles."""

import math
from dataclasses import replace

import numpy as np
import pytest

from conebarrier.barriers import (
    BARRIER_MODELS,
    ClassK,
    barrier_terms,
    combined_radius,
    ellipse_terms,
    hocbf_terms,
    reference_kinematics,
    relative_motion,
)
from conebarrier.models import actuation, drift
from conebarrier.validity import MATRIX_ROWS

from conftest import cone, directional_fd, terms


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
    h, _, _ = cone("unicycle", np.array([0, 0, 0, 1, 0]), (5, 0), (0, 0), 1.0, 0.0)
    # p_rel=(5,0), v_rel=(-1,0): h = -5 + 5 * sqrt(24)/5 = -5 + 2 sqrt(6)
    assert h == pytest.approx(-5 + 2 * math.sqrt(6), abs=1e-14)
    assert h == pytest.approx(-0.10102051443364424, abs=1e-15)


def test_h_value_fleeing_obstacle():
    h, _, _ = cone("unicycle", np.array([0, 0, 0, 1, 0]), (5, 0), (2, 0), 1.0, 0.0)
    assert h == pytest.approx(5 + 2 * math.sqrt(6), abs=1e-14)
    assert h > 0


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
    _, _, lg = cone("unicycle", states[ok], centers[ok], vels[ok], radii[ok], l)
    assert float(np.min(np.linalg.norm(lg, axis=1))) > 0.0


def test_cone_sign_matches_geometric_wedge():
    rng = np.random.default_rng(5)
    mismatches = 0
    for _ in range(10_000):
        r = rng.uniform(0.3, 2.0)
        dist = r + rng.uniform(0.05, 10.0)
        p = dist * rotate(np.array([1.0, 0.0]), rng.uniform(0, 2 * math.pi))
        v = rng.uniform(0.05, 5.0) * rotate(np.array([1.0, 0.0]), rng.uniform(0, 2 * math.pi))
        h, _, _ = cone(
            "pointmass", np.array([0.0, 0.0, -v[0], -v[1]]), p, np.zeros(2), r)
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
    h, _, _ = cone("bicycle", state, p, v, r, rear_axle=1.6)
    assert abs(h) < 1e-12 * np.linalg.norm(p) * np.linalg.norm(v)


def test_bicycle_sign_matches_geometry_dead_ahead():
    rear_axle = 1.0
    inside, _, _ = cone("bicycle", np.array([0, 0, 0.0, 2.0]), (6, 0), (0, 0), 1.0,
                        rear_axle=rear_axle)
    assert inside < 0  # driving straight at it
    outside, _, _ = cone("bicycle", np.array([0, 0, 0.6, 2.0]), (6, 0), (0, 0), 1.0,
                         rear_axle=rear_axle)
    assert outside > 0  # heading well off the cone


def test_pointmass_head_on_collinear_algebra():
    # Width 0.4 and semi-axes (1.2, 0.8) give the combined radius 1.4.
    radius = combined_radius((1.2, 0.8), 0.4)
    h, _, _ = cone("pointmass", np.array([0, 0, 3, 0]), (7, 0), (0, 0), radius)
    r = 1.2 + 0.2
    assert radius == r
    p_norm, v_norm = 7.0, 3.0
    cos_phi = math.sqrt(p_norm**2 - r**2) / p_norm
    assert h == pytest.approx(p_norm * v_norm * (cos_phi - 1.0), rel=1e-14)
    assert h < 0


def test_pointmass_perpendicular_flyby_safe():
    h, _, _ = cone("pointmass", np.array([0, 0, 0, 3]), (8, 0), (0, 0), 0.5)
    # Independent evaluation of the formula.
    p, v = np.array([8.0, 0.0]), np.array([0.0, -3.0])
    expected = p @ v + np.linalg.norm(v) * math.sqrt(p @ p - 0.25)
    assert h == pytest.approx(expected, rel=1e-14)
    assert h > 0


def test_pointmass_row_is_minus_q_and_never_zero():
    rng = np.random.default_rng(9)
    for _ in range(2000):
        r = rng.uniform(0.3, 1.5)
        p = (r + rng.uniform(0.05, 8.0)) * rotate(np.array([1, 0.0]), rng.uniform(0, 7))
        v = rng.uniform(0.05, 4.0) * rotate(np.array([1, 0.0]), rng.uniform(0, 7))
        state = np.array([0.0, 0.0, -v[0], -v[1]])
        _, _, lg = cone("pointmass", state, p, np.zeros(2), r)
        s_len = math.sqrt(p @ p - r * r)
        q = p + v * (s_len / np.linalg.norm(v))
        np.testing.assert_allclose(lg, -q, rtol=1e-12)
        assert np.linalg.norm(lg) > 0


def test_scale_covariance():
    rng = np.random.default_rng(13)
    for _ in range(500):
        r = rng.uniform(0.3, 1.5)
        p = (r + rng.uniform(0.1, 6.0)) * rotate(np.array([1, 0.0]), rng.uniform(0, 7))
        v = rng.uniform(0.1, 4.0) * rotate(np.array([1, 0.0]), rng.uniform(0, 7))
        lam = rng.uniform(0.2, 5.0)
        h1, _, _ = cone("pointmass", np.array([0, 0, -v[0], -v[1]]), p, np.zeros(2), r)
        h2, _, _ = cone(
            "pointmass", np.array([0, 0, -lam * v[0], -lam * v[1]]), lam * p, np.zeros(2), lam * r)
        assert h2 == pytest.approx(lam**2 * h1, rel=1e-12)
        assert np.sign(h1) == np.sign(h2)


def test_ellipse_boundary_and_row_structure():
    center, cdot, axes = (3, 4), (0.5, -0.2), (2.0, 1.0)
    on_boundary = np.array([3 + 2.0, 4, 0.7, 1.2, 0.3])
    h, _, lg = ellipse_terms(on_boundary, center, cdot, axes, "unicycle")
    assert h == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_array_equal(lg, [0.0, 0.0])

    bike = np.array([0.0, 1.0, 0.4, 2.0])
    _, _, lgb = ellipse_terms(bike, center, cdot, axes, "bicycle")
    assert lgb[0] == 0.0
    assert lgb[1] != 0.0


def test_hocbf_stationary_reduces_to_inner_gain():
    kappa1 = ClassK("linear", 2.0)
    s = np.array([0, 0, 0.3, 0.0, 0.0])
    h, _, _ = hocbf_terms(s, (4, 1), (0, 0), (1.0, 1.5), kappa1, "unicycle")
    h1 = (4.0 / 1.0) ** 2 + (1.0 / 1.5) ** 2 - 1.0
    assert h == pytest.approx(2.0 * h1, rel=1e-14)


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
    terms = lambda s, c, cd, r: cone(model, s, c, cd, r, body_offset=0.1, rear_axle=1.6)

    worst = 0.0
    for _ in range(300):
        state, center, cdot, r = _admissible_cone_sample(rng, model)
        h, lf, lg = terms(state, center, cdot, r)
        n = state.shape[0]
        ext = np.concatenate([state, center])
        h_ext = lambda z: terms(z[:n], z[n:], cdot, r)[0]
        fd_lf = directional_fd(h_ext, ext, np.concatenate([drift(model, state), cdot]))
        worst = max(worst, abs(fd_lf - lf) / max(1.0, abs(lf)))
        g = actuation(model, state, 1.6)
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
        fd_lf = directional_fd(h_ext, ext, np.concatenate([drift(model, state), cdot]))
        worst = max(worst, abs(fd_lf - lf) / max(1.0, abs(lf)))
        g = actuation(model, state, rear)
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
    # Three call shapes give the bits of one-obstacle calls, with every output
    # at the full leading shape and writable (the engine's pass writes
    # h[skip] = nan): one state against a velocity grid; the attack's chunk,
    # (k, 1, n) states against an (m, 2) grid; and the engine's pass, (T, 1, n)
    # states against (T, n_obs, 2) obstacles with (n_obs, 2) semi-axes.
    rng = np.random.default_rng(41)
    samples = [_admissible_cone_sample(rng, model) for _ in range(4)]
    states = np.array([s[0] for s in samples])
    points, point_vels = (np.column_stack(p) for p in reference_kinematics(model, states, 0.1)[:2])

    def around(vel, n):  # n velocities at 0.5-3 m/s relative to vel
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
        return vel + rng.uniform(0.5, 3.0, (n, 1)) * np.column_stack([np.cos(angles), np.sin(angles)])

    axes = rng.uniform(0.4, 1.2, (4, 2))
    radii = np.max(axes, axis=1) + 0.3
    grid = around(point_vels[0], 32)
    # Obstacle o of step t sits outside radius o around step t's protected point.
    headings = rng.uniform(0.0, 2.0 * math.pi, (4, 3))
    engine_centers = points[:, None] + (radii[:3] + rng.uniform(0.2, 9.0, (4, 3)))[..., None] * \
        np.stack([np.cos(headings), np.sin(headings)], axis=-1)
    engine_vels = np.stack([around(v, 3) for v in point_vels])
    chunk_centers = points + (radii + 1.0)[:, None] * np.array([0.6, 0.8])
    cases = {  # (state, center, velocity, axes, radius), leading shape
        "grid": ((states[0], samples[0][1], grid, axes[0], samples[0][3]), (32,)),
        "chunk": ((states[:, None], chunk_centers[:, None], grid[:8], axes[:, None],
                   radii[:, None]), (4, 8)),
        "engine": ((states[:, None], engine_centers, engine_vels, axes[:3], radii[:3]), (4, 3)),
    }
    trailing = (states.shape[1], 2, 2, 2, 0)
    for kappa1 in (ClassK(), ClassK("cubic", 0.5),
                   ClassK("custom", 1.0, ((-1.0, -2.0), (0.0, 0.0), (2.0, 1.0)))):
        kw = dict(body_offset=0.1, rear_axle=1.6, kappa1=kappa1)
        for name, (args, lead) in cases.items():
            spread = [np.broadcast_to(a, lead + (k,) * bool(k)) for a, k in zip(args, trailing)]
            out = terms(barrier, model, *args, **kw)
            for got, shape in zip(out, (lead, lead, lead + (2,))):
                assert got.shape == shape and got.flags.writeable, (name, kappa1)
            for idx in np.ndindex(*lead):
                want = terms(barrier, model, *(a[idx] for a in spread), **kw)
                for got, single in zip(out, want):
                    assert got[idx].tobytes() == np.asarray(single).tobytes(), (name, kappa1, idx)


# (p_rel, v_rel) at radius 0.5 where squaring the (2,) call's 0-d ||v_rel||
# with NumPy's scalar pow() would round L_f h apart from the batched square.
POW_WITNESSES = np.array([[-5.76, -4.05, -2.74, -1.46], [5.58, -4.45, -1.54, -0.6],
                          [4.15, -0.75, -0.63, -2.95], [-2.63, -4.69, 0.6, 1.54]])


@pytest.mark.parametrize("model", ["unicycle", "bicycle", "pointmass"])
def test_cone_terms_broadcast_bit_for_bit(model):
    # One state against an (n, 2) obstacle batch, as the engine calls it, and
    # one obstacle against an (n, 2) velocity grid, as the attack calls it,
    # give the bits of n one-obstacle (2,) calls.
    def check(state, body_offset, centers, cdots, radii):
        kinematics = reference_kinematics(model, state, body_offset)

        def call(center, cdot, r):
            rel = relative_motion(kinematics, center, cdot)
            return barrier_terms("c3bf", model, state, rel, center, cdot, None, r,
                                 body_offset=body_offset, rear_axle=1.6)

        n = len(radii)
        obstacle_batch = (call(centers, cdots, radii),
                          [call(centers[j], cdots[j], radii[j]) for j in range(n)])
        velocity_grid = (call(centers[0], cdots, radii[0]),
                         [call(centers[0], cdots[j], radii[0]) for j in range(n)])
        for batched, singles in (obstacle_batch, velocity_grid):
            for got, want in zip(batched, zip(*singles)):
                assert got.shape == np.shape(want) and got.tobytes() == np.array(want).tobytes()

    # At rest at the origin with no body offset, p_rel and v_rel are exactly
    # the witnesses' centers and velocities.
    rest = np.zeros(5 if model == "unicycle" else 4)
    check(rest, 0.0, POW_WITNESSES[:, :2], POW_WITNESSES[:, 2:], np.full(4, 0.5))
    rng = np.random.default_rng(43)
    for _ in range(20):
        state = _admissible_cone_sample(rng, model)[0]
        point, point_vel, _ = reference_kinematics(model, state, 0.1)
        radii = rng.uniform(0.4, 2.0, 16)
        angles = rng.uniform(0.0, 2.0 * math.pi, (2, 16))
        centers = point + (radii + rng.uniform(0.2, 9.0, 16))[:, None] * np.column_stack(
            [np.cos(angles[0]), np.sin(angles[0])])
        cdots = point_vel + rng.uniform(0.5, 3.0, (16, 1)) * np.column_stack(
            [np.cos(angles[1]), np.sin(angles[1])])
        check(state, 0.1, centers, cdots, radii)


# Angular rates whose Python-float square by ``**`` (libm pow) rounds apart
# from omega * omega, the square an array batch computes.
OMEGA_POW_WITNESSES = (-0.2044005530144144, 1.3138264282885412)


def _cone_call(model, state, center, cdot, radius):
    rel = relative_motion(reference_kinematics(model, state, 0.1), center, cdot)
    return barrier_terms("c3bf", model, state, rel, center, cdot, None, radius,
                         body_offset=0.1, rear_axle=1.6)


@pytest.mark.parametrize("model", ["unicycle", "bicycle", "pointmass"])
def test_float_state_gets_the_bits_of_its_batch_row(model):
    # A state as the engine passes it, a list of floats, gives the bytes of
    # its row in an (N, n) array batch: against 16 obstacles, as an array
    # call, and one obstacle against a velocity grid, as the velocity attack
    # calls the cores. One obstacle on floats, as the engine builds each row,
    # gives Python floats with the bytes of its batch entry.
    rng = np.random.default_rng(47)
    states = np.array([_admissible_cone_sample(rng, model)[0] for _ in range(12)])
    if model == "unicycle":
        states[:8, 4] = np.tile(OMEGA_POW_WITNESSES, 4)
    point, point_vel, _ = reference_kinematics(model, states, 0.1)
    point, point_vel = np.column_stack(point), np.column_stack(point_vel)
    radii = rng.uniform(0.4, 2.0, (12, 16))
    angles = rng.uniform(0.0, 2.0 * math.pi, (2, 12, 16))
    centers = point[:, None] + (radii + rng.uniform(0.2, 9.0, (12, 16)))[..., None] * np.stack(
        [np.cos(angles[0]), np.sin(angles[0])], axis=-1)
    cdots = point_vel[:, None] + rng.uniform(0.5, 3.0, (12, 16, 1)) * np.stack(
        [np.cos(angles[1]), np.sin(angles[1])], axis=-1)
    grid = rng.uniform(-4.0, 4.0, (40, 2))
    obstacles = (_cone_call(model, states[:, None], centers, cdots, radii),
                 [_cone_call(model, x.tolist(), centers[i], cdots[i], radii[i])
                  for i, x in enumerate(states)])
    velocity_grid = (_cone_call(model, states[:, None], centers[:, :1], grid, radii[:, :1]),
                     [_cone_call(model, x.tolist(), centers[i, 0], grid, radii[i, 0])
                      for i, x in enumerate(states)])
    for batch, floats in (obstacles, velocity_grid):
        for got, rows in zip(batch, zip(*floats)):
            assert all(got[i].tobytes() == row.tobytes() for i, row in enumerate(rows))
    for (i, j), radius in np.ndenumerate(radii):
        terms = _cone_call(model, states[i].tolist(), centers[i, j].tolist(), cdots[i, j].tolist(),
                           float(radius))
        h, lf, lg = terms
        assert all(type(v) is float for v in (h, lf, *lg))
        for got, value in zip(obstacles[0], terms):
            assert got[i, j].tobytes() == np.array(value).tobytes()


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
        h, lf, lg = cone("bicycle", state, p, cdot, r, rear_axle=1.6)
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


def test_table_is_the_one_source_of_defined_pairs():
    # The verdict matrix has a row for every defined pair and for no other.
    assert set(MATRIX_ROWS) == {(b, m) for b, models in BARRIER_MODELS.items() for m in models}
    state, center, cdot, r = _admissible_cone_sample(np.random.default_rng(5), "unicycle")
    for barrier, model in [("c3bf", "truck"), ("ellipse", "pointmass"),
                           ("hocbf", "pointmass"), ("parabola", "unicycle")]:
        with pytest.raises(ValueError, match="not defined"):
            barrier_terms(barrier, model, state, None, center, cdot, np.ones(2), r)


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
    # An equal kappa built afresh, or through replace, compares and hashes
    # equal; replace with another table evaluates that table.
    twin = ClassK(kind, gamma, None if table is None else tuple(map(tuple, table)))
    assert twin == kappa == replace(kappa) and hash(twin) == hash(kappa)
    if kind == "custom":
        wider = replace(kappa, table=table[:-1] + ((4.0, 9.0),))
        assert wider != kappa and wider(4.0) == 9.0


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
    for kind in ("linear", "cubic"):
        with pytest.raises(ValueError, match="takes no table"):
            ClassK(kind, 1.0, ((0.0, 0.0), (1.0, 1.0)))
    # A table point that is not an (x, kappa(x)) pair: three entries, or one.
    for table in (((-1.0, -1.0, 5.0), (0.0, 0.0, 9.0), (1.0, 1.0, 7.0)),
                  ((-1.0,), (0.0, 0.0), (1.0, 1.0))):
        with pytest.raises(ValueError, match=r"\(x, kappa\(x\)\) pairs"):
            ClassK("custom", 1.0, table)
