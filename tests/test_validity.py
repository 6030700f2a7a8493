"""Validity-probe diagnostics beyond the headline verdicts."""

import math

import numpy as np
import pytest

from conebarrier.barriers import ClassK, barrier_terms, hocbf_terms
from conebarrier.validity import (
    KERNEL_TOL,
    OBSTACLE_SPEED_MAX,
    PSI_TOL,
    _attack_obstacle_velocity,
    _kernels_hocbf_nonzero_speed,
    _kernels_weighted_perp,
    _ProbeParams,
    validity_probe,
    verdict_matrix,
)


def _attack_by_loops(barrier, model, kernel_batch, params):
    """Reference attack: one barrier call per kernel state and grid velocity."""
    states, centers, _, axes = kernel_batch
    directions = [np.array([math.cos(a), math.sin(a)])
                  for a in np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)]
    magnitudes = np.concatenate([np.linspace(0.05, 1.0, 8),
                                 np.linspace(1.5, OBSTACLE_SPEED_MAX, 8)])
    worst = None
    for i in range(min(states.shape[0], 200)):
        for direction in directions:
            for mag in magnitudes:
                cdot = mag * direction
                h, lf, lg = barrier_terms(barrier, model, states[i], centers[i], cdot,
                                          axes[i], None, rear_axle=params.rear_axle,
                                          kappa1=params.kappa1)
                if float(np.linalg.norm(lg)) > KERNEL_TOL or float(h) < 0.0:
                    continue
                psi = float(lf) + float(params.kappa(h))
                if psi < -PSI_TOL and (worst is None or psi < worst["psi"]):
                    worst = {
                        "psi": psi,
                        "h": float(h),
                        "state": [float(x) for x in states[i]],
                        "center": [float(x) for x in centers[i]],
                        "obstacle_velocity": [float(x) for x in cdot],
                        "axes": [float(x) for x in axes[i]],
                    }
    return worst


def test_probe_rejects_bad_arguments():
    with pytest.raises(ValueError):
        validity_probe("parabola", "unicycle")
    with pytest.raises(ValueError):
        validity_probe("c3bf", "hovercraft")
    with pytest.raises(ValueError):
        validity_probe("c3bf", "unicycle", motion="sideways")
    with pytest.raises(ValueError):
        validity_probe("ellipse", "pointmass")
    with pytest.raises(ValueError):
        validity_probe("c3bf", "unicycle", samples=0)


def test_ellipse_unicycle_row_identically_zero():
    rep = validity_probe("ellipse", "unicycle", "static", samples=2000, seed=3)
    assert rep.max_lgh_norm == 0.0
    assert rep.inactive_channels == ("a", "alpha")
    assert rep.attack_witness is not None
    assert rep.attack_witness["psi"] < 0
    assert rep.verdict == "Not a valid CBF"


def test_cone_unicycle_row_bounded_away_from_zero():
    rep = validity_probe("c3bf", "unicycle", "moving", samples=5000, seed=5)
    assert rep.min_lgh_norm > 0.0
    assert rep.kernel_count == 0
    assert rep.verdict == "Valid CBF in D"


def test_cone_bicycle_kernel_diagnostics():
    rep = validity_probe("c3bf", "bicycle", "moving", samples=4000, seed=7)
    assert rep.kernel_count > 100
    assert rep.kernel_min_psi_safe is not None
    assert rep.kernel_min_psi_safe >= -1e-9
    # Kernel states outside the safe set do violate: the set D guarantee fails.
    assert rep.kernel_min_psi_unsafe is not None
    assert rep.kernel_min_psi_unsafe < 0
    assert rep.verdict == "Valid CBF in C"


def test_second_order_conservative_witness():
    rep = validity_probe("hocbf", "unicycle", "moving", samples=4000, seed=9)
    assert rep.conservative
    assert rep.inactive_channels == ("alpha",)
    assert rep.verdict == "Valid CBF, but conservative"


def test_attack_witness_recorded_for_bicycle_baselines():
    for barrier in ("ellipse", "hocbf"):
        rep = validity_probe(barrier, "bicycle", "moving", samples=3000, seed=11)
        assert rep.attack_witness is not None, barrier
        w = rep.attack_witness
        assert w["psi"] < -1e-6
        assert w["h"] >= 0.0
        assert rep.verdict == "Not a valid CBF"


def test_matrix_has_seven_rows_with_extension():
    rows = verdict_matrix(samples=1500, seed=2)
    assert len(rows) == 7
    assert rows[-1]["extension"] is True
    assert rows[-1]["model"] == "pointmass"
    assert rows[-1]["static"] == rows[-1]["moving"] == "Valid CBF in D"


def test_reports_serialize(tmp_path):
    import json
    rep = validity_probe("c3bf", "bicycle", "static", samples=1500, seed=1)
    payload = json.dumps(rep.to_dict())
    assert "Valid CBF in C" in payload


@pytest.mark.parametrize("barrier", ["ellipse", "hocbf"])
def test_attack_matches_loop_reference(barrier):
    params = _ProbeParams()
    kb = _kernels_weighted_perp(np.random.default_rng(13), "bicycle", "moving", 40,
                                params, barrier)
    expected = _attack_by_loops(barrier, "bicycle", kb, params)
    assert expected is not None
    assert _attack_obstacle_velocity(barrier, "bicycle", kb, params) == expected


def test_hocbf_bicycle_slip_column_is_quadratic_in_speed():
    # h1 and kappa1'(h1) do not depend on v, so the slip column is
    # v (c0 + c1 v); the nonzero-speed kernel construction relies on it.
    rng = np.random.default_rng(23)
    for kappa1 in (ClassK(), ClassK("cubic", 0.7)):
        for _ in range(50):
            xy, theta = rng.uniform(-6.0, 6.0, 2), rng.uniform(-math.pi, math.pi)
            center, cdot, axes = rng.uniform(-6, 6, 2), rng.uniform(-3, 3, 2), rng.uniform(0.4, 2, 2)
            speeds = np.array([1.0, -1.0, 0.3, -2.5, 4.0])
            states = np.column_stack([np.tile(xy, (5, 1)), np.full(5, theta), speeds])
            lg = hocbf_terms(states, center, cdot, axes, kappa1, "bicycle", 1.6)[2][:, 1]
            c0, c1 = 0.5 * (lg[0] - lg[1]), 0.5 * (lg[0] + lg[1])
            np.testing.assert_allclose(lg, speeds * (c0 + c1 * speeds),
                                       rtol=1e-9, atol=1e-9 * np.max(np.abs(lg)))


@pytest.mark.parametrize("motion", ["static", "moving"])
def test_hocbf_nonzero_speed_kernels_are_kernels(motion):
    params = _ProbeParams()
    states, centers, vels, axes = _kernels_hocbf_nonzero_speed(
        np.random.default_rng(29), "bicycle", motion, 100, params)
    assert states.shape[0] > 20
    assert np.all((np.abs(states[:, 3]) >= 0.25) & (np.abs(states[:, 3]) <= 6.0))
    _, _, lg = hocbf_terms(states, centers, vels, axes, params.kappa1, "bicycle",
                           params.rear_axle)
    assert np.max(np.linalg.norm(lg, axis=-1)) <= 1e-9
