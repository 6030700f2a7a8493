"""One judge per paper claim, shared by ``conebarrier audit`` and the acceptance tests.

A judge takes scenario traces keyed by name (the QP judge a seed, an
instance count and a row-count range instead) and returns a dict:
``passed`` under the bounds defined here, ``detail`` (the line the audit
prints) and ``numbers`` (the measured quantities, which the acceptance tests
assert on with their own literal bounds, so a bound changed here cannot
loosen a test). Only barrier-enabled runs are judged, apart from the
behaviour labels. Each docstring says what a batch with nothing to judge
gives: a pass, a fail, or None (not reported).
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from .safety_filter import (
    GRID_FINE,
    QpProblem,
    grid_project,
    solve_multi_constraint,
    solve_single_constraint,
)
from .scenarios import EXPECTED_BEHAVIORS
from .sim import (BETA_LIMIT, INVARIANCE_TOL, beta_smallness_audit, classify_behavior,
                  invariance_audit, run_scenario)

HALVING_FLOOR = 1e-6
"""Halving dt must halve the dip, unless the halved-dt dip is below this."""
RATE_TOL = 0.3
"""Largest error of the fitted recovery rate, as a fraction of gamma."""
DIVERGENCE_LIMIT = 0.05
"""Largest exact-model replay divergence, as a fraction of the path length."""
QP_RESIDUAL_TOL = 1e-9
"""Largest row violation at u*, and largest |residual| of an active row."""
QP_GAP_TOL = 1e-12
"""Largest f(u*) - f(u_grid): the grid may not beat the solver."""
QP_PROJECTION_TOL = 2 * (2 * GRID_FINE) ** 2
"""Largest |u_g - u*|^2 - (f(u_g) - f(u*)), which only the exact projection keeps
near zero for every feasible grid point u_g."""
QP_MAX_ACTIVE = 2
"""Most rows tight at an answer: the QP has two inputs."""
QP_MIN_EVALUATED = 0.5
"""Least share of the instances compared with the grid."""
QP_MAX_SLIVERS = 0.05
"""Largest share of feasible instances whose feasible set the grid misses."""
QP_EVALUATED_BOX = 8.5
"""|u*|_inf beyond which the grid's box edge distorts the comparison."""
QP_REFUTATION_BOX = 9.0
"""A feasible grid point with |u|_inf at most this refutes an infeasible verdict."""


def _verdict(passed, detail: str, numbers: dict) -> dict:
    return {"passed": bool(passed), "detail": detail, "numbers": numbers}


def _enabled(traces: dict) -> dict:
    return {n: tr for n, tr in sorted(traces.items()) if tr.config.barrier != "none"}


def collision_free(traces: dict) -> dict:
    """No run records a collision; passes without a run."""
    runs = _enabled(traces)
    collided = [n for n, tr in runs.items() if tr.collided()]
    return _verdict(not collided,
                    f"collisions in {collided}" if collided else
                    f"{len(runs)} barrier-enabled runs, zero collision events",
                    {"runs": len(runs), "collided": collided})


def behavior_labels(traces: dict) -> dict | None:
    """Each packaged behaviour scenario gets its expected label; None without one."""
    expected = {n: b for n, b in EXPECTED_BEHAVIORS.items() if n in traces}
    if not expected:
        return None
    got = {n: classify_behavior(traces[n]) for n in expected}
    bad = {n: (expected[n], got[n]) for n in expected if got[n] != expected[n]}
    return _verdict(not bad, f"mismatches {bad}" if bad else f"{len(expected)} labels match", got)


def invariance_safe_start(traces: dict) -> dict:
    """Runs that start outside every cone dip at most INVARIANCE_TOL below h = 0, and
    rerunning at dt / 2 halves the dip; fails without such a run."""
    numbers = {}
    for name, trace in _enabled(traces).items():
        if invariance_audit(trace).started_safe and np.any(np.isfinite(trace.h)):
            half = run_scenario(replace(trace.config, dt=trace.config.dt / 2))
            numbers[name] = {"viol": max(0.0, -trace.min_h()), "viol_half": max(0.0, -half.min_h())}
    passed = numbers and all(v["viol"] <= INVARIANCE_TOL
                             and v["viol_half"] <= max(v["viol"] / 2, HALVING_FLOOR)
                             for v in numbers.values())
    detail = "; ".join(f"{n}: viol={v['viol']:.2e} viol(dt/2)={v['viol_half']:.2e}"
                       for n, v in numbers.items())
    return _verdict(passed, detail or "no safe-start runs in batch", numbers)


def violation_recovery(traces: dict) -> dict:
    """Runs named *recovery* start inside a cone, cross into h > 0 and decay |h| at a
    fitted rate within RATE_TOL of gamma; fails without such a run. The numbers are
    ``sim.InvarianceReport``s."""
    reps = {n: invariance_audit(tr) for n, tr in _enabled(traces).items() if "recovery" in n}
    passed = reps and all(not r.started_safe and r.crossed_positive and r.recovery_rate is not None
                          and abs(r.recovery_rate - r.rate_target) <= RATE_TOL * r.rate_target
                          for r in reps.values())
    detail = "; ".join(f"{n}: rate={r.recovery_rate} target={r.rate_target} "
                       f"crossed={r.crossed_positive}" for n, r in reps.items())
    return _verdict(passed, detail or "no recovery scenario in batch", reps)


def beta_smallness(traces: dict) -> dict:
    """Bicycle runs keep |beta| below BETA_LIMIT and their exact-model replay within
    DIVERGENCE_LIMIT of the path length; passes without a bicycle run. The numbers
    are ``sim.BetaReport``s."""
    reps = {n: beta_smallness_audit(tr) for n, tr in _enabled(traces).items()
            if tr.config.model == "bicycle"}
    passed = all(r.max_abs_beta < BETA_LIMIT and r.divergence_ratio < DIVERGENCE_LIMIT
                 for r in reps.values())
    detail = "; ".join(f"{n}: max|beta|={r.max_abs_beta:.3f} "
                       f"divergence={100 * r.divergence_ratio:.2f}%" for n, r in reps.items())
    return _verdict(passed, detail or "no bicycle runs in batch", reps)


def negative_control(traces: dict) -> dict | None:
    """The braking setup rerun with its barrier off collides; None without it."""
    if "braking_unicycle" not in traces:
        return None
    collided = run_scenario(replace(traces["braking_unicycle"].config, barrier="none")).collided()
    return _verdict(collided, "unfiltered braking setup collides" if collided
                    else "unfiltered braking setup unexpectedly avoided collision",
                    {"collided": collided})


def qp_draws(seed: int, instances: int, rows: range):
    """Seeded random filter QPs as (u_ref, [(lg_h, rhs), ...]): u_ref uniform in
    [-3, 3]^2, a row count from ``rows``, and per row a unit normal at a uniform
    angle and a right side uniform in [-2, 2]."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        u_ref = rng.uniform(-3, 3, 2)
        drawn = []
        for _ in range(rng.integers(rows.start, rows.stop)):
            ang = rng.uniform(0, 2 * math.pi)
            drawn.append((np.array([math.cos(ang), math.sin(ang)]), float(rng.uniform(-2, 2))))
        yield u_ref, drawn


def qp_grid_oracle(seed: int, instances: int, rows: range) -> dict:
    """The filter QP against ``grid_project`` on the ``qp_draws`` instances.

    A one-row answer must equal ``solve_single_constraint``'s bit for bit. A
    feasible answer must meet every row, keep its active rows tight, name an
    active row when it is a corrected one, be no worse than the grid and obey
    the projection inequality |u_g - u*|^2 <= f(u_g) - f(u*); an infeasible
    verdict must leave no feasible grid point within QP_REFUTATION_BOX.
    """
    worst_feas = worst_slack = 0.0
    worst_gap = worst_proj = -math.inf
    nearest_refutation = math.inf
    evaluated = slivers = refuted = mismatched = max_active = corrected_without_active = 0
    for u_ref, drawn in qp_draws(seed, instances, rows):
        qp = QpProblem(u_ref, *map(np.array, zip(*drawn)))
        res = solve_multi_constraint(qp)
        if len(drawn) == 1:
            mismatched += not np.array_equal(solve_single_constraint(qp).u_star, res.u_star)
        max_active = max(max_active, len(res.active_set))
        ref = grid_project(u_ref, drawn, deep=res.status != "infeasible")
        if res.status == "infeasible":
            reach = math.inf if ref is None else float(np.max(np.abs(ref)))
            nearest_refutation = min(nearest_refutation, reach)
            refuted += reach <= QP_REFUTATION_BOX
            continue
        corrected_without_active += res.status == "corrected" and not res.active_set
        for j, (lg, rhs) in enumerate(drawn):
            resid = float(lg @ res.u_star) - rhs
            worst_feas = max(worst_feas, -resid)
            if j in res.active_set:
                worst_slack = max(worst_slack, abs(resid))
        if ref is None:
            slivers += 1
            continue
        if float(np.max(np.abs(res.u_star))) > QP_EVALUATED_BOX:
            continue
        evaluated += 1
        f_star = float(np.sum((res.u_star - u_ref) ** 2))
        f_grid = float(np.sum((ref - u_ref) ** 2))
        worst_gap = max(worst_gap, f_star - f_grid)
        worst_proj = max(worst_proj, float(np.sum((ref - res.u_star) ** 2)) - (f_grid - f_star))
    passed = (worst_feas <= QP_RESIDUAL_TOL and worst_slack <= QP_RESIDUAL_TOL
              and worst_gap <= QP_GAP_TOL and worst_proj <= QP_PROJECTION_TOL and not refuted
              and not mismatched and max_active <= QP_MAX_ACTIVE and not corrected_without_active
              and evaluated >= QP_MIN_EVALUATED * instances
              and slivers <= QP_MAX_SLIVERS * instances)
    detail = (f"{evaluated} instances: max infeasibility={worst_feas:.2e}, "
              f"objective vs grid={worst_gap:.2e}, projection residual={worst_proj:.2e}, "
              f"max active residual={worst_slack:.2e}, infeasible verdicts refuted={refuted}")
    if not passed:
        detail += (f"; slivers={slivers}, max active rows={max_active}, "
                   f"one-row answers off the closed form={mismatched}, "
                   f"corrected answers without an active row={corrected_without_active}")
    return _verdict(passed, detail, {
        "evaluated": evaluated, "slivers": slivers, "refuted": refuted,
        "nearest_refutation": nearest_refutation, "mismatched": mismatched,
        "max_active": max_active, "corrected_without_active": corrected_without_active,
        "worst_feas": worst_feas, "worst_slack": worst_slack,
        "worst_gap": worst_gap, "worst_proj": worst_proj})
