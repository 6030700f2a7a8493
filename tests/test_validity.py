"""Validity-probe diagnostics beyond the headline verdicts."""

import math
from dataclasses import asdict

import numpy as np
import pytest

from conebarrier.barriers import ClassK, barrier_terms, combined_radius, hocbf_terms
from conebarrier.validity import (
    _ATTACK_CHUNK,
    KAPPA,
    KAPPA1,
    KERNEL_TOL,
    OBSTACLE_SPEED_MAX,
    PSI_TOL,
    REAR_AXLE,
    _attack_obstacle_velocity,
    _directions,
    _kernels_c3bf_bicycle,
    _kernels_hocbf_nonzero_speed,
    _kernels_weighted_perp,
    _row_norms,
    _witness,
    validity_probe,
    verdict_matrix,
)

from conftest import terms


def test_row_norms_and_radius_are_the_reductions_bit_for_bit():
    # The elementwise forms give the bits of the reductions they replace, also
    # on signed zeros, inf, NaN, subnormals and entries whose square overflows
    # (where np.hypot would not: it scales to avoid the overflow).
    rng = np.random.default_rng(7)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.2e-310, 1e200, -1e200, 1.5])
    pairs = np.array([[a, b] for a in special for b in special])
    with np.errstate(all="ignore"):
        for v in (rng.normal(size=(1000, 2)), rng.uniform(-3, 3, (26, 384, 2)), pairs,
                  pairs.reshape(10, 10, 2), rng.normal(size=2)):
            assert _row_norms(v).tobytes() == np.linalg.norm(v, axis=-1).tobytes()
            for width in (0.0, 0.6, 1.8):
                assert (np.asarray(combined_radius(v, width)).tobytes()
                        == np.asarray(np.max(v, axis=-1) + width / 2).tobytes())


def _attack_by_loops(barrier, model, kernel_batch):
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
                h, lf, lg = terms(barrier, model, states[i], centers[i], cdot,
                                  axes[i], None, rear_axle=REAR_AXLE, kappa1=KAPPA1)
                if float(np.linalg.norm(lg)) > KERNEL_TOL or float(h) < 0.0:
                    continue
                psi = float(lf) + float(KAPPA(h))
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


def _attack_per_state(barrier, model, kernel_batch):
    """Reference attack: one barrier call per kernel state over the whole grid."""
    states, centers, _, axes = kernel_batch
    magnitudes = np.concatenate([np.linspace(0.05, 1.0, 8), np.linspace(1.5, OBSTACLE_SPEED_MAX, 8)])
    directions = _directions(np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False))
    grid = (magnitudes[None, :, None] * directions[:, None, :]).reshape(-1, 2)
    worst = None
    for i in range(min(states.shape[0], 200)):
        h, lf, lg = barrier_terms(barrier, model, states[i], None, centers[i], grid, axes[i],
                                  None, rear_axle=REAR_AXLE, kappa1=KAPPA1)
        kept = (np.linalg.norm(lg, axis=-1) <= KERNEL_TOL) & (h >= 0.0)
        psi = np.where(kept, lf + KAPPA(h), np.inf)
        j = int(np.argmin(psi))
        if psi[j] < -PSI_TOL and (worst is None or psi[j] < worst["psi"]):
            worst = _witness(psi[j], h[j], states[i], centers[i], grid[j], axes[i])
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
    payload = json.dumps(asdict(rep))
    assert "Valid CBF in C" in payload


@pytest.mark.parametrize("barrier", ["ellipse", "hocbf"])
def test_attack_matches_loop_reference(barrier):
    kb = _kernels_weighted_perp(np.random.default_rng(13), "bicycle", "moving", 40, barrier)
    expected = _attack_by_loops(barrier, "bicycle", kb)
    assert expected is not None
    assert _attack_obstacle_velocity(barrier, "bicycle", kb) == expected


# The 200-state cap the probe hands over at 10,000 samples on eight seeds, a
# batch past the cap and one whose length is not a multiple of the chunk.
@pytest.mark.parametrize("barrier", ["ellipse", "hocbf"])
@pytest.mark.parametrize("seed, n", [(seed, 200) for seed in range(8)]
                         + [(31, 500), (31, 3 * _ATTACK_CHUNK + 5)])
def test_chunked_attack_matches_per_state_reference(barrier, seed, n):
    kb = _kernels_weighted_perp(np.random.default_rng(seed), "bicycle", "moving", n, barrier)
    expected = _attack_per_state(barrier, "bicycle", kb)
    assert expected is not None
    assert _attack_obstacle_velocity(barrier, "bicycle", kb) == expected


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


def _c3bf_kernels(rng, model, motion):
    return _kernels_c3bf_bicycle(rng, motion, 300)


def _perp_kernels(barrier):
    return lambda rng, model, motion: _kernels_weighted_perp(rng, model, motion, 300, barrier)


def _nonzero_speed_kernels(rng, model, motion):
    return _kernels_hocbf_nonzero_speed(rng, model, motion, 100)


@pytest.mark.parametrize("motion", ["static", "moving"])
@pytest.mark.parametrize("barrier, model, construct", [
    pytest.param("c3bf", "bicycle", _c3bf_kernels, id="c3bf-bicycle"),
    pytest.param("ellipse", "bicycle", _perp_kernels("ellipse"), id="ellipse-bicycle-perp"),
    pytest.param("hocbf", "bicycle", _perp_kernels("hocbf"), id="hocbf-bicycle-perp"),
    pytest.param("hocbf", "unicycle", _perp_kernels("hocbf"), id="hocbf-unicycle-perp"),
    pytest.param("hocbf", "bicycle", _nonzero_speed_kernels, id="hocbf-bicycle-nonzero-speed"),
])
def test_constructed_kernel_states_are_kernels(barrier, model, construct, motion):
    states, centers, vels, axes, *radius = construct(np.random.default_rng(29), model, motion)
    assert states.shape[0] > 20
    if construct is _nonzero_speed_kernels:
        assert np.all((np.abs(states[:, 3]) >= 0.25) & (np.abs(states[:, 3]) <= 6.0))
    _, _, lg = terms(barrier, model, states, centers, vels, axes,
                     radius[0] if radius else None, rear_axle=REAR_AXLE, kappa1=KAPPA1)
    assert np.max(np.linalg.norm(lg, axis=-1)) <= 1e-9
