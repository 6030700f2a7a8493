"""One judge per paper claim, shared by ``conebarrier audit`` and the acceptance tests.

A judge takes scenario traces keyed by name (the QP judge ``QpProblem``s,
such as ``qp_draws`` gives, instead) and returns a dict:
``passed`` under the bounds defined here, ``detail`` (the line the audit
prints) and ``numbers`` (the measured quantities, which the acceptance tests
assert on with their own literal bounds, so a bound changed here cannot
loosen a test). Only barrier-enabled runs are judged, apart from the
behaviour labels. Each docstring says what a batch with nothing to judge
gives: a pass, a fail, or None (not reported).

The per-trace audits live here too, beside the judges that read them:
``invariance_audit`` and ``beta_smallness_audit`` measure one trace and
return a report whose fields are exactly the ``invariance`` and
``beta_audit`` blocks of ``conebarrier run``'s summary JSON. A report holds
measurements only; what they are held to (every judge bound, the recovery
rate's target) is the judges'.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from typing import Optional

import numpy as np

from .models import bicycle_dynamics_exact, integrate_step
from .safety_filter import QpProblem, solve_multi_constraint, solve_single_constraint
from .scenarios import EXPECTED_BEHAVIORS
from .sim import ScenarioTrace, classify_behavior, run_scenario

INVARIANCE_TOL = 1e-3
"""Deepest dip below h = 0 allowed on a run that starts outside every cone."""
HALVING_FLOOR = 1e-6
"""Halving dt must halve the dip, unless the halved-dt dip is below this."""
RATE_TOL = 0.3
"""Largest error of the fitted recovery rate, as a fraction of gamma."""
BETA_LIMIT = 0.3
"""Largest |beta| (rad) the small-slip bicycle is trusted at."""
DIVERGENCE_LIMIT = 0.05
"""Largest exact-model replay divergence, as a fraction of the path length."""
QP_RESIDUAL_TOL = 1e-9
"""Largest row violation at u*, and largest |residual| of an active row."""
QP_DISTANCE_TOL = 1e-9
"""Largest |u* - exact u*|_inf of a feasible answer."""
QP_EXCESS_TOL = 2e-9
"""Largest excess of an infeasible answer's exact worst violation over t*: stage
two relaxes the rows by t + 1e-9 and meets them to 1e-9."""
QP_MAX_ACTIVE = 2
"""Most rows tight at an answer: the QP has two inputs."""


@dataclass(frozen=True)
class InvarianceReport:
    """Forward-invariance and violation-decay metrics of one trace."""

    started_safe: bool
    min_h: float
    max_discrete_violation: float
    recovery_rate: Optional[float]
    crossed_positive: Optional[bool]


def invariance_audit(trace: ScenarioTrace) -> InvarianceReport:
    """Check the invariance story of one trace.

    For runs starting with h >= 0 the headline number is min_t h. For runs
    starting inside the cone the magnitude of h should decay at roughly the
    class-K rate until it crosses zero, so the audit fits an exponential to
    the pre-crossing stretch. The per-step discrete violation measures how
    much of any dip is attributable to the zero-order hold.
    """
    h = trace.h
    finite = np.isfinite(h)
    agg = np.where(finite.any(axis=1),
                   np.min(np.where(finite, h, np.inf), axis=1, initial=np.inf), np.nan)
    finite0 = np.isfinite(agg[0]) if agg.size else False
    started_safe = (not finite0) or agg[0] >= 0.0

    # Discrete residual of hdot + kappa(h) >= 0 over each enforced step.
    resid = (h[1:] - h[:-1]) / trace.config.dt + trace.config.kappa(h[:-1])
    enforced = trace.constrained[:-1] & finite[:-1] & finite[1:]
    viol = np.max(-resid[enforced], initial=0.0)

    rate = None
    crossed = None
    if finite0 and agg[0] < 0.0:
        # Fit only the stretch where the filter is actually enforcing a row;
        # before perception entry h evolves freely and would bias the rate.
        enforced_any = np.any(trace.constrained, axis=1)
        start = int(np.argmax(enforced_any)) if np.any(enforced_any) else 0
        crossing = np.argmax(agg >= 0.0) if np.any(agg >= 0.0) else len(agg)
        crossed = bool(np.any(agg[1:] >= 0.0))
        floor = max(1e-6, abs(agg[0]) * 1e-3)
        mask = np.zeros(len(agg), dtype=bool)
        mask[start:crossing] = True
        mask &= np.isfinite(agg) & (agg < -floor)
        if np.sum(mask) >= 10:
            slope = np.polyfit(trace.t[mask], np.log(-agg[mask]), 1)[0]
            rate = -float(slope)

    return InvarianceReport(
        started_safe=bool(started_safe), min_h=trace.min_h(), max_discrete_violation=float(viol),
        recovery_rate=rate, crossed_positive=crossed,
    )


@dataclass(frozen=True)
class BetaReport:
    """Slip-angle magnitude and exact-model divergence of a bicycle trace."""

    max_abs_beta: float
    max_divergence: float
    path_length: float
    divergence_ratio: float
    flagged: bool


def beta_smallness_audit(trace: ScenarioTrace) -> BetaReport:
    """Replay the recorded inputs through the exact bicycle kinematics.

    The small-slip model drops the cos/sin of beta; re-integrating the
    exact model under the identical zero-order-hold input sequence bounds
    the approximation error actually incurred in this run. The divergence
    ratio is the largest divergence over the path length (0 on no path).
    """
    if trace.config.model != "bicycle":
        raise ValueError("beta audit applies to bicycle traces only")
    l_r = trace.config.wheelbase_rear
    exact = lambda x, u: bicycle_dynamics_exact(x, u, l_r)
    exact_states = trace.states.copy()  # row 0, the start, is shared; each row feeds the next
    for k in range(1, len(exact_states)):
        exact_states[k] = integrate_step(exact, exact_states[k - 1].tolist(),
                                         trace.u_star[k - 1].tolist(), trace.config.dt)

    diff = np.linalg.norm(exact_states[:, 0:2] - trace.states[:, 0:2], axis=1)
    seg = np.linalg.norm(np.diff(trace.states[:, 0:2], axis=0), axis=1)
    max_beta = trace.max_abs_beta()
    divergence, path_length = float(np.max(diff)), float(np.sum(seg))
    return BetaReport(
        max_abs_beta=max_beta,
        max_divergence=divergence,
        path_length=path_length,
        divergence_ratio=divergence / path_length if path_length > 0 else 0.0,
        flagged=max_beta > BETA_LIMIT,
    )


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
    fitted rate within RATE_TOL of the target, gamma of a linear kappa (NaN, a fail,
    for any other); fails without such a run. The numbers are ``InvarianceReport``s."""
    runs = {n: tr for n, tr in _enabled(traces).items() if "recovery" in n}
    reps = {n: invariance_audit(tr) for n, tr in runs.items()}
    target = {n: float(tr.config.kappa.gamma) if tr.config.kappa.kind == "linear" else math.nan
              for n, tr in runs.items()}
    passed = reps and all(not r.started_safe and r.crossed_positive and r.recovery_rate is not None
                          and abs(r.recovery_rate - target[n]) <= RATE_TOL * target[n]
                          for n, r in reps.items())
    detail = "; ".join(f"{n}: rate={r.recovery_rate} target={target[n]} "
                       f"crossed={r.crossed_positive}" for n, r in reps.items())
    return _verdict(passed, detail or "no recovery scenario in batch", reps)


def beta_smallness(traces: dict) -> dict:
    """Bicycle runs keep |beta| below BETA_LIMIT and their exact-model replay within
    DIVERGENCE_LIMIT of the path length; passes without a bicycle run. The numbers
    are ``BetaReport``s."""
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
    """Seeded random filter ``QpProblem``s: u_ref uniform in [-3, 3]^2, a row count
    from ``rows``, and per row a unit normal at a uniform angle and a right side
    uniform in [-2, 2]."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        u_ref = rng.uniform(-3, 3, 2)
        drawn = []
        for _ in range(rng.integers(rows.start, rows.stop)):
            ang = rng.uniform(0, 2 * math.pi)
            drawn.append((np.array([math.cos(ang), math.sin(ang)]), float(rng.uniform(-2, 2))))
        yield QpProblem(u_ref, *map(np.array, zip(*drawn)))


def exact_qp(u_ref: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The filter QP a u >= b solved in rational arithmetic over the float entries:
    (status, u*, t*) in ``fractions.Fraction``s.

    Evaluates the candidates of a candidate enumeration exactly: u_ref, each
    row's projection and each row pair's intersection. The one nearest u_ref
    that meets every row is u* ('corrected'; 'inactive' if that is u_ref).
    Without one the rows conflict: t* = min_u max_l (b_l - a_l u) is then the
    least worst violation among the pair ties (u_ref's projection onto the
    line where two rows violate equally) and the triple tie points
    ('infeasible', u* None).
    """
    u = tuple(map(Fraction, u_ref.tolist()))
    a = [tuple(map(Fraction, row)) for row in a.tolist()]
    b = list(map(Fraction, b.tolist()))

    def worst(p):
        return max(bl - (al[0] * p[0] + al[1] * p[1]) for al, bl in zip(a, b))

    def onto(n, c):
        # u_ref's projection onto the line n p = c, or None for n = 0.
        n2 = n[0] * n[0] + n[1] * n[1]
        if not n2:
            return None
        q = (c - n[0] * u[0] - n[1] * u[1]) / n2
        return u[0] + q * n[0], u[1] + q * n[1]

    if not b or worst(u) <= 0:
        return "inactive", u, None
    cand = [p for al, bl in zip(a, b) if (p := onto(al, bl)) is not None]
    for (ai, bi), (aj, bj) in combinations(zip(a, b), 2):
        det = ai[0] * aj[1] - ai[1] * aj[0]
        if det:
            cand.append(((bi * aj[1] - bj * ai[1]) / det, (ai[0] * bj - aj[0] * bi) / det))
    feasible = [p for p in cand if worst(p) <= 0]
    if feasible:
        return "corrected", min(feasible, key=lambda p: (p[0] - u[0]) ** 2 + (p[1] - u[1]) ** 2), None
    ties = [u] + [p for (ai, bi), (aj, bj) in combinations(zip(a, b), 2)
                  if (p := onto((ai[0] - aj[0], ai[1] - aj[1]), bi - bj)) is not None]
    for i, j, k in combinations(range(len(b)), 3):
        p, q = [x - z for x, z in zip(a[i], a[k])], [y - z for y, z in zip(a[j], a[k])]
        det = p[0] * q[1] - p[1] * q[0]
        if det:
            c_p, c_q = b[i] - b[k], b[j] - b[k]
            ties.append(((c_p * q[1] - c_q * p[1]) / det, (c_q * p[0] - c_p * q[0]) / det))
    return "infeasible", None, min(map(worst, ties))


def rounding_relabel(qp: QpProblem, res, status: str, u_exact) -> bool:
    """Whether ``res`` is 'inactive' where the exact ``status`` is 'corrected' (or back)
    by rounding alone: its u* is u_ref bit for bit and the exact u* rounds to u_ref,
    as when float psi underflows (u_ref ~ 1e-308 against a row entry ~ 1e-38)."""
    return ({res.status, status} == {"inactive", "corrected"}
            and res.u_star.tobytes() == qp.u_ref.tobytes()
            and [float(x) for x in u_exact] == qp.u_ref.tolist())


def qp_exact_oracle(qps) -> dict:
    """The filter QP against ``exact_qp`` on the given ``QpProblem``s.

    Every answer must have the exact status or differ from it only as
    ``rounding_relabel`` allows (counted apart), and a one-row answer must equal
    ``solve_single_constraint``'s bit for bit. A feasible answer must lie within
    QP_DISTANCE_TOL of the exact u*, meet every row and keep its active rows
    tight to QP_RESIDUAL_TOL, and name an active row when it is a corrected one.
    An infeasible answer's exact worst violation must lie in [t*, t* + QP_EXCESS_TOL].
    """
    statuses = dict.fromkeys(("inactive", "corrected", "infeasible"), 0)
    status_mismatches = relabels = mismatched = max_active = corrected_without_active = 0
    worst_feas = worst_slack = worst_dist = 0.0
    excess = []  # exact worst violation minus t* of each infeasible answer
    for qp in qps:
        res = solve_multi_constraint(qp)
        status, u_exact, t_star = exact_qp(*qp)
        statuses[status] += 1
        if len(qp.b) == 1:
            mismatched += not np.array_equal(solve_single_constraint(qp).u_star, res.u_star)
        max_active = max(max_active, len(res.active_set))
        relabelled = rounding_relabel(qp, res, status, u_exact)
        relabels += relabelled
        if res.status != status and not relabelled:
            status_mismatches += 1
        elif status == "infeasible":
            ux, uy = map(Fraction, res.u_star.tolist())
            excess.append(max(Fraction(bl) - Fraction(ax) * ux - Fraction(ay) * uy
                              for (ax, ay), bl in zip(qp.a.tolist(), qp.b.tolist())) - t_star)
        else:
            corrected_without_active += res.status == "corrected" and not res.active_set
            worst_dist = max(worst_dist, *(abs(float(Fraction(x) - y))
                                           for x, y in zip(res.u_star.tolist(), u_exact)))
            resid = qp.a @ res.u_star - qp.b
            worst_feas = max(worst_feas, float(-resid.min()))
            worst_slack = max([worst_slack, *np.abs(resid[list(res.active_set)]).tolist()])
    least_excess, worst_excess = min(excess, default=0), max(excess, default=0)
    passed = (not status_mismatches and not mismatched and max_active <= QP_MAX_ACTIVE
              and not corrected_without_active and worst_dist <= QP_DISTANCE_TOL
              and worst_feas <= QP_RESIDUAL_TOL and worst_slack <= QP_RESIDUAL_TOL
              and 0 <= least_excess and worst_excess <= QP_EXCESS_TOL)
    counts = ", ".join(f"{n} {status}" for status, n in statuses.items())
    detail = (f"{sum(statuses.values())} instances ({counts}), "
              f"status mismatches={status_mismatches}: "
              f"max |u* - exact|={worst_dist:.2e}, max infeasibility={worst_feas:.2e}, "
              f"max active residual={worst_slack:.2e}, infeasible worst violation - t* "
              f"in [{float(least_excess):.2e}, {float(worst_excess):.2e}]")
    if not passed:
        detail += (f"; max active rows={max_active}, "
                   f"one-row answers off the closed form={mismatched}, "
                   f"corrected answers without an active row={corrected_without_active}, "
                   f"labels off by rounding only={relabels}")
    return _verdict(passed, detail, {
        "statuses": statuses, "status_mismatches": status_mismatches, "relabels": relabels,
        "mismatched": mismatched,
        "max_active": max_active, "corrected_without_active": corrected_without_active,
        "worst_dist": worst_dist, "worst_feas": worst_feas, "worst_slack": worst_slack,
        "least_excess": float(least_excess), "worst_excess": float(worst_excess)})
