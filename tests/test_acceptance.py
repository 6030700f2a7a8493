"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance here is pinned; nothing defers to later calibration. The
brute-force references (finite differences, the tangent-wedge membership
test, lattice projection) are implemented independently of the library
code paths they check.
"""

import math
import time
import zlib
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conebarrier.barriers import ClassK
from conebarrier.cli import main as cli_main
from conebarrier.models import (
    BicycleDynamics,
    BicycleGeometry,
    PointMassDynamics,
    UnicycleDynamics,
)
from conebarrier.safety_filter import (
    grid_project,
    solve_multi_constraint,
    solve_single_constraint,
)
from conebarrier.scenarios import EXPECTED_BEHAVIORS, behavior_suite, load_packaged
from conebarrier.sim import (
    beta_smallness_audit,
    classify_behavior,
    invariance_audit,
    run_scenario,
)
from conebarrier.validity import verdict_matrix

from conftest import cone, qp_of, terms

BODY_OFFSET = 0.1
REAR_AXLE = 1.6


def _report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


# --------------------------------------------------------------------------
# Criterion 1: closed-form Lie derivatives match central finite differences
# to 1e-6 relative over 1e4 randomized admissible states per pair, < 10 s.
# --------------------------------------------------------------------------

def _sample_batch(rng, model, n, cone: bool):
    if model == "unicycle":
        states = np.column_stack([
            rng.uniform(-10, 10, (n, 2)), rng.uniform(-math.pi, math.pi, n),
            rng.uniform(-4, 4, n), rng.uniform(-2, 2, n)])
        ct, st = np.cos(states[:, 2]), np.sin(states[:, 2])
        base = states[:, :2] + BODY_OFFSET * np.column_stack([ct, st])
        pv = np.column_stack([states[:, 3] * ct - BODY_OFFSET * states[:, 4] * st,
                              states[:, 3] * st + BODY_OFFSET * states[:, 4] * ct])
    elif model == "bicycle":
        states = np.column_stack([
            rng.uniform(-10, 10, (n, 2)), rng.uniform(-math.pi, math.pi, n),
            rng.uniform(-4, 4, n)])
        ct, st = np.cos(states[:, 2]), np.sin(states[:, 2])
        base = states[:, :2].copy()
        pv = states[:, 3:4] * np.column_stack([ct, st])
    else:
        states = rng.uniform(-8, 8, (n, 4))
        base = states[:, :2].copy()
        pv = states[:, 2:4].copy()
    axes = rng.uniform(0.4, 2.0, (n, 2))
    radii = np.max(axes, axis=1) + 0.25
    ang = rng.uniform(0, 2 * math.pi, n)
    if cone:
        dist = radii + rng.uniform(0.2, 10.0, n)
    else:
        dist = rng.uniform(0.5, 10.0, n)
    centers = base + dist[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    cdot = rng.uniform(-3, 3, (n, 2))
    if cone:
        bad = np.linalg.norm(cdot - pv, axis=1) < 0.1
        cdot[bad] += np.array([0.6, -0.45])
    return states, centers, cdot, axes, radii


_PAIRS = [
    ("c3bf", "unicycle"), ("c3bf", "bicycle"), ("c3bf", "pointmass"),
    ("ellipse", "unicycle"), ("ellipse", "bicycle"),
    ("hocbf", "unicycle"), ("hocbf", "bicycle"),
]


def _dynamics_for(model):
    if model == "unicycle":
        return UnicycleDynamics()
    if model == "bicycle":
        return BicycleDynamics(BicycleGeometry(1.2, REAR_AXLE))
    return PointMassDynamics()


def test_criterion_1_gradient_suite():
    t0 = time.time()
    n = 10_000
    worst_overall = 0.0
    for barrier, model in _PAIRS:
        # crc32, unlike hash(), is the same in every process, so a failure reproduces.
        rng = np.random.default_rng(zlib.crc32(f"{barrier}/{model}".encode()))
        states, centers, cdot, axes, radii = _sample_batch(
            rng, model, n, cone=barrier == "c3bf")
        pair_terms = partial(terms, barrier, model, body_offset=BODY_OFFSET,
                             rear_axle=REAR_AXLE, kappa1=ClassK("linear", 1.0))
        dyn = _dynamics_for(model)
        h, lf, lg = pair_terms(states, centers, cdot, axes, radii)

        # Drift direction in the extended (state, obstacle-center) space.
        drift = np.stack([dyn.drift(s) for s in states])
        dir_full = np.concatenate([drift, cdot], axis=1)
        nrm = np.maximum(np.linalg.norm(dir_full, axis=1), 1e-12)
        unit = dir_full / nrm[:, None]
        delta = 1e-6
        sd, cd_ = unit[:, :-2], unit[:, -2:]
        hp = pair_terms(states + delta * sd, centers + delta * cd_, cdot, axes, radii)[0]
        hm = pair_terms(states - delta * sd, centers - delta * cd_, cdot, axes, radii)[0]
        fd_lf = (hp - hm) / (2 * delta) * nrm
        worst = float(np.max(np.abs(fd_lf - lf) / np.maximum(1.0, np.abs(lf))))

        for j in range(2):
            cols = np.stack([dyn.actuation(s)[:, j] for s in states])
            cn = np.maximum(np.linalg.norm(cols, axis=1), 1e-12)
            ucols = cols / cn[:, None]
            hp = pair_terms(states + delta * ucols, centers, cdot, axes, radii)[0]
            hm = pair_terms(states - delta * ucols, centers, cdot, axes, radii)[0]
            fd = (hp - hm) / (2 * delta) * cn
            zero_col = np.all(cols == 0.0, axis=1)
            fd = np.where(zero_col, 0.0, fd)
            worst = max(worst, float(np.max(
                np.abs(fd - lg[:, j]) / np.maximum(1.0, np.abs(lg[:, j])))))
        assert worst < 1e-6, (barrier, model, worst)
        worst_overall = max(worst_overall, worst)
    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report("criterion 1 (gradient suite)",
            f"7 pairs x {n} states, worst relative error {worst_overall:.2e}, "
            f"{elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 2: sign(h) equals the tangent-wedge membership test on 1e5
# random configurations, no disagreement outside |h| < 1e-9.
# --------------------------------------------------------------------------

def test_criterion_2_cone_sign_oracle():
    rng = np.random.default_rng(202)
    n = 100_000
    radii = rng.uniform(0.3, 2.0, n)
    dist = radii + rng.uniform(0.02, 10.0, n)
    pang = rng.uniform(0, 2 * math.pi, n)
    p = dist[:, None] * np.column_stack([np.cos(pang), np.sin(pang)])
    speed = rng.uniform(0.02, 5.0, n)
    vang = rng.uniform(0, 2 * math.pi, n)
    v = speed[:, None] * np.column_stack([np.cos(vang), np.sin(vang)])

    states = np.column_stack([np.zeros((n, 2)), -v])
    h, _, _ = cone("pointmass", states, p, np.zeros((n, 2)), radii)

    # Independent wedge test: angle between v and the axis toward the origin
    # versus the half angle asin(r/|p|), via cross/dot products only.
    axis = -p / dist[:, None]
    sin_phi = radii / dist
    cos_phi = np.sqrt(1.0 - sin_phi**2)
    dot = np.einsum("ij,ij->i", axis, v) / speed
    inside = dot > cos_phi  # angle(v, axis) < phi, strictly

    decided = np.abs(h) >= 1e-9
    disagreements = int(np.sum(((h < 0) != inside) & decided))
    assert disagreements == 0
    _report("criterion 2 (cone-sign oracle)",
            f"{n} configurations, 0 disagreements outside |h| < 1e-9")


# --------------------------------------------------------------------------
# Criterion 3: QP solutions vs a fine lattice projection (refined to 1e-3 on
# a +-10 box) on 1e3 random instances; complementary slackness to 1e-9.
# The lattice argmin is a weak position witness next to shallow constraint
# lines, so position agreement is certified through the projection
# inequality |u_g - u*|^2 <= f(u_g) - f(u*), which only the exact projection
# satisfies for every feasible u_g, together with f(u*) <= f(u_g).
# --------------------------------------------------------------------------

def test_criterion_3_qp_optimality():
    rng = np.random.default_rng(303)
    n_instances = 1000
    evaluated = 0
    slivers = 0
    worst_feas = 0.0
    worst_gap = -np.inf
    worst_proj = -np.inf
    worst_slack = 0.0
    for _ in range(n_instances):
        u_ref = rng.uniform(-3, 3, 2)
        rows = []
        for _ in range(rng.integers(1, 5)):
            ang = rng.uniform(0, 2 * math.pi)
            rows.append((np.array([math.cos(ang), math.sin(ang)]),
                         float(rng.uniform(-2, 2))))
        qp = qp_of(u_ref, rows)
        res = solve_multi_constraint(qp)
        if len(rows) == 1:
            single = solve_single_constraint(qp)
            assert np.array_equal(single.u_star, res.u_star)
        assert len(res.active_set) <= 2
        ref = grid_project(u_ref, rows, deep=res.status != "infeasible")
        if res.status == "infeasible":
            assert ref is None or np.max(np.abs(ref)) > 9.0
            continue
        for lg, rhs in rows:
            worst_feas = max(worst_feas, rhs - float(lg @ res.u_star))
        for j, (lg, rhs) in enumerate(rows):
            if j in res.active_set:
                worst_slack = max(worst_slack, abs(float(lg @ res.u_star - rhs)))
        if ref is None:
            slivers += 1
            continue
        if np.max(np.abs(res.u_star)) > 8.5:
            continue
        evaluated += 1
        f_star = float(np.sum((res.u_star - u_ref) ** 2))
        f_grid = float(np.sum((ref - u_ref) ** 2))
        worst_gap = max(worst_gap, f_star - f_grid)
        worst_proj = max(worst_proj,
                         float(np.sum((ref - res.u_star) ** 2)) - (f_grid - f_star))
    assert worst_feas <= 1e-9
    assert worst_slack <= 1e-9
    assert worst_gap <= 1e-12
    assert worst_proj <= 2 * (2 * 1e-3) ** 2
    assert evaluated >= 0.5 * n_instances
    assert slivers <= 0.05 * n_instances
    _report("criterion 3 (QP optimality)",
            f"{evaluated} feasible instances adjudicated (grid refined to 1e-3): "
            f"max infeasibility {worst_feas:.1e}, grid never beats solver "
            f"(gap {worst_gap:.1e}), projection residual {worst_proj:.1e}, "
            f"active residual {worst_slack:.1e}")


# --------------------------------------------------------------------------
# Criterion 4: unicycle cone row norm strictly positive on 1e6 admissible
# sampled states.
# --------------------------------------------------------------------------

def test_criterion_4_theorem_one_probe():
    rng = np.random.default_rng(404)
    n = 1_000_000
    states = np.column_stack([
        rng.uniform(-15, 15, (n, 2)), rng.uniform(-math.pi, math.pi, n),
        rng.uniform(-5, 5, n), rng.uniform(-3, 3, n)])
    ct, st = np.cos(states[:, 2]), np.sin(states[:, 2])
    base = states[:, :2] + BODY_OFFSET * np.column_stack([ct, st])
    radii = rng.uniform(0.3, 2.5, n)
    ang = rng.uniform(0, 2 * math.pi, n)
    dist = radii + rng.uniform(1e-3, 12.0, n)
    centers = base + dist[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    cdot = rng.uniform(-4, 4, (n, 2))
    pv = np.column_stack([states[:, 3] * ct - BODY_OFFSET * states[:, 4] * st,
                          states[:, 3] * st + BODY_OFFSET * states[:, 4] * ct])
    ok = np.linalg.norm(cdot - pv, axis=1) > 1e-6
    _, _, lg = cone("unicycle", states[ok], centers[ok], cdot[ok], radii[ok], BODY_OFFSET)
    min_norm = float(np.min(np.linalg.norm(lg, axis=1)))
    assert min_norm > 0.0
    _report("criterion 4 (unicycle row never vanishes)",
            f"{int(np.sum(ok))} admissible states, min ||L_g h|| = {min_norm:.3e} > 0")


# --------------------------------------------------------------------------
# Criterion 5: bicycle cone kernel states with h >= 0 satisfy
# hdot + kappa(h) >= -1e-9.
# --------------------------------------------------------------------------

def test_criterion_5_theorem_two_probe():
    rng = np.random.default_rng(505)
    kappa = ClassK("linear", 1.0)
    worst = np.inf
    checked = 0
    for _ in range(10_000):
        r = rng.uniform(0.3, 2.0)
        if rng.random() < 0.5:
            # Rest state, heading perpendicular to q: moving obstacle.
            dist = r + rng.uniform(0.2, 9.0)
            ang = rng.uniform(0, 2 * math.pi)
            p = dist * np.array([math.cos(ang), math.sin(ang)])
            cdot = rng.uniform(0.1, 4.0) * np.array(
                [math.cos(rng.uniform(0, 2 * math.pi)),
                 math.sin(rng.uniform(0, 2 * math.pi))])
            s_len = math.sqrt(dist**2 - r**2)
            q = p + cdot * (s_len / np.linalg.norm(cdot))
            theta = math.atan2(q[1], q[0]) + math.pi / 2
            state = np.array([0.0, 0.0, theta, 0.0])
        else:
            # Static obstacle: reversing on the cone boundary with s = l_r.
            dist = math.sqrt(r**2 + REAR_AXLE**2)
            ang = rng.uniform(0, 2 * math.pi)
            p = dist * np.array([math.cos(ang), math.sin(ang)])
            cdot = np.zeros(2)
            phi = math.acos(max(-1.0, min(1.0, -REAR_AXLE / dist)))
            theta = ang + phi * (1 if rng.random() < 0.5 else -1)
            state = np.array([0.0, 0.0, theta, -rng.uniform(0.3, 4.0)])
        h, lf, lg = cone("bicycle", state, p, cdot, r, rear_axle=REAR_AXLE)
        assert float(np.linalg.norm(lg)) <= 1e-9
        if h >= 0:
            psi0 = float(lf) + float(kappa(h))
            worst = min(worst, psi0)
            assert psi0 >= -1e-9
            checked += 1
    assert checked > 2000
    _report("criterion 5 (bicycle kernel inequality)",
            f"{checked} kernel states with h >= 0, min hdot + kappa(h) = {worst:.2e}")


# --------------------------------------------------------------------------
# Criterion 6: the verdict matrix reproduces all six comparison rows.
# --------------------------------------------------------------------------

EXPECTED_MATRIX = {
    ("ellipse", "unicycle"): ("Not a valid CBF", "Not a valid CBF"),
    ("ellipse", "bicycle"): ("Valid CBF, No acceleration", "Not a valid CBF"),
    ("hocbf", "unicycle"): ("Valid CBF, No steering", "Valid CBF, but conservative"),
    ("hocbf", "bicycle"): ("Valid CBF", "Not a valid CBF"),
    ("c3bf", "unicycle"): ("Valid CBF in D", "Valid CBF in D"),
    ("c3bf", "bicycle"): ("Valid CBF in C", "Valid CBF in C"),
}


def test_criterion_6_validity_matrix():
    rows = verdict_matrix(samples=4000, seed=0)
    got = {(r["barrier"], r["model"]): (r["static"], r["moving"])
           for r in rows if not r["extension"]}
    assert got == EXPECTED_MATRIX
    ext = [r for r in rows if r["extension"]]
    assert len(ext) == 1 and ext[0]["static"] == "Valid CBF in D"
    _report("criterion 6 (verdict matrix)",
            "all six rows match; point-mass extension row valid in D")


@pytest.mark.parametrize("seed", range(1, 9))
def test_criterion_6_validity_matrix_across_seeds(seed):
    rows = verdict_matrix(samples=1000, seed=seed)
    got = {(r["barrier"], r["model"]): (r["static"], r["moving"])
           for r in rows if not r["extension"]}
    assert got == EXPECTED_MATRIX
    ext = [(r["static"], r["moving"]) for r in rows if r["extension"]]
    assert ext == [("Valid CBF in D", "Valid CBF in D")]


# --------------------------------------------------------------------------
# Criterion 7: the eight canonical scenarios run collision-free with the
# exact labels; the unfiltered braking setup collides; < 30 s total.
# --------------------------------------------------------------------------

def test_criterion_7_behavior_suite():
    t0 = time.time()
    labels = {}
    for name, cfg in behavior_suite().items():
        trace = run_scenario(cfg)
        assert not trace.collided(), name
        labels[name] = classify_behavior(trace)
    assert labels == EXPECTED_BEHAVIORS
    negative = run_scenario(replace(load_packaged("braking_unicycle"), barrier="none"))
    assert negative.collided()
    elapsed = time.time() - t0
    assert elapsed < 30.0
    _report("criterion 7 (behavior suite)",
            f"8 scenarios collision-free with exact labels, negative control "
            f"collides, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# Criterion 8: runs starting with h(0) >= 0 keep min_t h >= -1e-3 at
# dt=0.01 and the bound tightens at least linearly under dt halving.
# --------------------------------------------------------------------------

def test_criterion_8_forward_invariance():
    names = []
    details = []
    for name in ("weave_bicycle", "swerve_pointmass"):
        cfg = load_packaged(name)
        assert cfg.dt == 0.01
        trace = run_scenario(cfg)
        rep = invariance_audit(trace)
        assert rep.started_safe, name
        names.append(name)
        viol = max(0.0, -trace.min_h())
        assert viol <= 1e-3, name
        half = run_scenario(replace(cfg, dt=cfg.dt / 2))
        viol_half = max(0.0, -half.min_h())
        assert viol_half <= max(viol / 2, 1e-6), name
        details.append(f"{name}: viol {viol:.1e} -> {viol_half:.1e}")
    assert names
    _report("criterion 8 (forward invariance)", "; ".join(details))


# --------------------------------------------------------------------------
# Criterion 9: a run built with h(0) < 0 decays |h| exponentially at a rate
# within 30% of gamma = 1 and crosses into h > 0.
# --------------------------------------------------------------------------

def test_criterion_9_violation_recovery():
    cfg = load_packaged("recovery_unicycle")
    trace = run_scenario(cfg)
    rep = invariance_audit(trace)
    assert not rep.started_safe
    assert rep.crossed_positive
    assert rep.recovery_rate is not None
    assert abs(rep.recovery_rate - 1.0) <= 0.3
    _report("criterion 9 (violation recovery)",
            f"fitted decay rate {rep.recovery_rate:.3f} vs gamma=1, h crosses positive")


# --------------------------------------------------------------------------
# Criterion 10: every bicycle suite run keeps max|beta| < 0.3 rad and the
# exact-model replay diverges by < 5% of the path length.
# --------------------------------------------------------------------------

def test_criterion_10_beta_smallness(suite_traces):
    details = []
    for name, trace in sorted(suite_traces.items()):
        if trace.config.model != "bicycle":
            continue
        rep = beta_smallness_audit(trace)
        assert rep.max_abs_beta < 0.3, name
        assert rep.divergence_ratio < 0.05, name
        details.append(f"{name}: |beta|max={rep.max_abs_beta:.3f} "
                       f"div={100 * rep.divergence_ratio:.2f}%")
    assert details
    _report("criterion 10 (slip-angle smallness)", "; ".join(details))
