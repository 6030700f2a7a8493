"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance here is pinned; nothing defers to later calibration. The
finite differences and the tangent-wedge membership test are implemented
here, independently of the library code paths they check. Criteria 3 and
7-10 run the judges of ``conebarrier.claims``, which ``conebarrier audit``
runs too, on their own seeds and scenarios; the QP judge compares the
solver with ``claims.exact_qp``, the QP solved in rational arithmetic. Each
of these tests asserts its own literal bounds on the numbers a judge
returns, so a bound changed in ``claims`` cannot loosen a criterion.
"""

import math
import time
import zlib
from functools import partial

import numpy as np
import pytest

from conebarrier import claims
from conebarrier.barriers import ClassK
from conebarrier.models import actuation, drift
from conebarrier.scenarios import EXPECTED_BEHAVIORS, load_packaged
from conebarrier.sim import run_scenario
from conebarrier.validity import MATRIX_ROWS, verdict_matrix

from conftest import behavior_suite, cone, terms

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


def test_criterion_1_gradient_suite():
    t0 = time.time()
    n = 10_000
    worst_overall = 0.0
    for barrier, model in MATRIX_ROWS:
        # crc32, unlike hash(), is the same in every process, so a failure reproduces.
        rng = np.random.default_rng(zlib.crc32(f"{barrier}/{model}".encode()))
        states, centers, cdot, axes, radii = _sample_batch(
            rng, model, n, cone=barrier == "c3bf")
        pair_terms = partial(terms, barrier, model, body_offset=BODY_OFFSET,
                             rear_axle=REAR_AXLE, kappa1=ClassK("linear", 1.0))
        h, lf, lg = pair_terms(states, centers, cdot, axes, radii)

        # Drift direction in the extended (state, obstacle-center) space.
        dir_full = np.concatenate([drift(model, states), cdot], axis=1)
        nrm = np.maximum(np.linalg.norm(dir_full, axis=1), 1e-12)
        unit = dir_full / nrm[:, None]
        delta = 1e-6
        sd, cd_ = unit[:, :-2], unit[:, -2:]
        hp = pair_terms(states + delta * sd, centers + delta * cd_, cdot, axes, radii)[0]
        hm = pair_terms(states - delta * sd, centers - delta * cd_, cdot, axes, radii)[0]
        fd_lf = (hp - hm) / (2 * delta) * nrm
        worst = float(np.max(np.abs(fd_lf - lf) / np.maximum(1.0, np.abs(lf))))

        g = actuation(model, states, REAR_AXLE)
        for j in range(2):
            cols = g[..., j]
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
# Criterion 3: QP solutions vs the QP solved in rational arithmetic on 1e3
# random instances: equal statuses, u* within 1e-9 of the exact minimizer,
# complementary slackness to 1e-9, and an infeasible answer's exact worst
# violation in [t*, t* + 2e-9] (stage two relaxes the rows by t + 1e-9 and
# meets them to 1e-9).
# --------------------------------------------------------------------------

def test_criterion_3_qp_optimality():
    got = claims.qp_exact_oracle(claims.qp_draws(303, 1000, range(1, 5)))["numbers"]
    assert sum(got["statuses"].values()) == 1000 and min(got["statuses"].values()) > 0
    assert got["status_mismatches"] == 0
    assert got["relabels"] == 0  # every label is the exact one, none forgiven for rounding
    assert got["mismatched"] == 0  # every one-row answer equals the closed form bit for bit
    assert got["max_active"] <= 2
    assert got["corrected_without_active"] == 0  # a corrected answer names its active rows
    assert got["worst_dist"] <= 1e-9
    assert got["worst_feas"] <= 1e-9
    assert got["worst_slack"] <= 1e-9
    assert 0.0 <= got["least_excess"] and got["worst_excess"] <= 2e-9
    _report("criterion 3 (QP optimality)",
            f"1000 instances {got['statuses']} with the exact statuses: "
            f"max |u* - exact| {got['worst_dist']:.1e}, max infeasibility "
            f"{got['worst_feas']:.1e}, active residual {got['worst_slack']:.1e}, "
            f"infeasible worst violation - t* <= {got['worst_excess']:.1e}")


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
    traces = {name: run_scenario(cfg) for name, cfg in behavior_suite().items()}
    assert claims.collision_free(traces)["numbers"] == {"runs": 8, "collided": []}
    assert claims.behavior_labels(traces)["numbers"] == EXPECTED_BEHAVIORS
    assert claims.negative_control(traces)["numbers"]["collided"]
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
    names = ("swerve_pointmass", "weave_bicycle")
    configs = {name: load_packaged(name) for name in names}
    assert all(cfg.dt == 0.01 for cfg in configs.values())
    got = claims.invariance_safe_start(
        {name: run_scenario(cfg) for name, cfg in configs.items()})["numbers"]
    assert tuple(got) == names  # both start safe
    for name, v in got.items():
        assert v["viol"] <= 1e-3, name
        assert v["viol_half"] <= max(v["viol"] / 2, 1e-6), name
    _report("criterion 8 (forward invariance)",
            "; ".join(f"{n}: viol {v['viol']:.1e} -> {v['viol_half']:.1e}" for n, v in got.items()))


# --------------------------------------------------------------------------
# Criterion 9: a run built with h(0) < 0 decays |h| exponentially at a rate
# within 30% of gamma = 1 and crosses into h > 0.
# --------------------------------------------------------------------------

def test_criterion_9_violation_recovery():
    trace = run_scenario(load_packaged("recovery_unicycle"))
    rep = claims.violation_recovery({"recovery_unicycle": trace})["numbers"]["recovery_unicycle"]
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
    reps = claims.beta_smallness(suite_traces)["numbers"]
    assert reps and set(reps) == {n for n, tr in suite_traces.items()
                                  if tr.config.model == "bicycle"}
    for name, rep in reps.items():
        assert rep.max_abs_beta < 0.3, name
        assert rep.divergence_ratio < 0.05, name
    _report("criterion 10 (slip-angle smallness)",
            "; ".join(f"{n}: |beta|max={r.max_abs_beta:.3f} "
                      f"div={100 * r.divergence_ratio:.2f}%" for n, r in reps.items()))
