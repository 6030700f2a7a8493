"""Reference controllers and the barrier quadratic-program safety filter.

The filter solves

    u* = argmin ||u - u_ref||^2   s.t.   L_g h_i u >= -L_f h_i - kappa(h_i)

for each obstacle constraint row i. With a single row and an unbounded
input set the minimizer is closed form and switches on the sign of

    psi = hdot(x, u_ref) + kappa(h):

psi >= 0 leaves the reference untouched, psi < 0 projects it onto the
constraint plane. Multiple rows are solved exactly by enumerating active
sets on the low-dimensional input (m <= 2 here), which reproduces the
closed form bit for bit on one-row problems.

Conflicting rows (possible with several cones, never with one) make the QP
infeasible; the filter then returns the input minimizing the worst
constraint violation, with the deviation from u_ref as tie-break, and says
so in the result status.

The QP carries no input bounds. A scenario's input bounds are applied by
the closed-loop engine (``sim.run_scenario``), which clips the QP's answer
and logs a ``saturation`` event when the clip changes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import linprog

from .models import BicycleGeometry, BicycleState, slip_from_steering

ACTIVE_TOL = 1e-9
"""A constraint counts as tight when |L_g h u - rhs| is below this."""


class DegenerateRowError(ValueError):
    """Constraint row with L_g h = 0: the input cannot influence hdot."""


class EmptyPathError(ValueError):
    """Path tracker called with fewer than two waypoints."""


@dataclass(frozen=True)
class ReferenceController:
    """Speed-holding P-law: a = k_speed (v_des - v), steering damped to zero.

    For the unicycle the second input is -k_damp * omega; for the bicycle
    the baseline reference slip is zero; for the point mass the law tracks
    the velocity v_des * (cos heading_des, sin heading_des).
    """

    k_speed: float = 1.0
    k_damp: float = 0.5
    v_des: float = 1.0
    v_max: Optional[float] = None
    heading_des: float = 0.0

    def __post_init__(self) -> None:
        if not (self.k_speed > 0 and self.k_damp > 0):
            raise ValueError("controller gains must be positive")
        if self.v_max is not None and self.v_des > self.v_max:
            raise ValueError(f"v_des={self.v_des} exceeds v_max={self.v_max}")


def reference_p_controller(model: str, state: np.ndarray, ctrl: ReferenceController) -> np.ndarray:
    """Reference input for one raw unicycle, bicycle or point-mass state array."""
    if model == "unicycle":
        return np.array([ctrl.k_speed * (ctrl.v_des - state[3]), -ctrl.k_damp * state[4]])
    if model == "bicycle":
        return np.array([ctrl.k_speed * (ctrl.v_des - state[3]), 0.0])
    if model == "pointmass":
        v_goal = ctrl.v_des * np.array([math.cos(ctrl.heading_des), math.sin(ctrl.heading_des)])
        return ctrl.k_speed * (v_goal - np.asarray(state[2:4], dtype=float))
    raise ValueError(f"unknown model {model!r}")


@dataclass(frozen=True)
class PathTrackerGains:
    """Gains of the simplified cross-track steering law."""

    k_cross: float = 1.0
    k_soft: float = 0.5
    k_speed: float = 1.0
    v_des: float = 1.0


def reference_path_tracker(s: BicycleState, path: Sequence, geom: BicycleGeometry,
                           gains: PathTrackerGains) -> np.ndarray:
    """Cross-track plus heading-error steering mapped through the slip relation.

    Finds the closest point on the polyline, steers with
    delta = heading_error + atan(k_cross * e / (k_soft + |v|)) where e is the
    signed cross-track error (positive left of the path), converts delta to a
    slip angle, and holds speed with the P-law.
    """
    pts = np.asarray(path, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise EmptyPathError("path tracker needs at least two waypoints")
    pos = np.array([s.x_p, s.y_p])

    best = None
    for i in range(pts.shape[0] - 1):
        seg = pts[i + 1] - pts[i]
        seg_len2 = float(seg @ seg)
        if seg_len2 == 0.0:
            continue
        tau = float(np.clip((pos - pts[i]) @ seg / seg_len2, 0.0, 1.0))
        foot = pts[i] + tau * seg
        d2 = float((pos - foot) @ (pos - foot))
        if best is None or d2 < best[0]:
            best = (d2, foot, seg)
    if best is None:
        raise EmptyPathError("path has zero total length")
    _, foot, seg = best

    tangent = seg / np.linalg.norm(seg)
    # Signed cross-track error: positive when the vehicle is left of the path.
    e_cross = float(tangent[0] * (pos[1] - foot[1]) - tangent[1] * (pos[0] - foot[0]))
    path_heading = math.atan2(tangent[1], tangent[0])
    heading_err = math.atan2(math.sin(path_heading - s.theta), math.cos(path_heading - s.theta))

    delta = heading_err - math.atan(gains.k_cross * e_cross / (gains.k_soft + abs(s.v)))
    delta = float(np.clip(delta, -1.4, 1.4))
    beta_ref = slip_from_steering(delta, geom)
    a_ref = gains.k_speed * (gains.v_des - s.v)
    return np.array([a_ref, beta_ref])


@dataclass(frozen=True)
class ConstraintRow:
    """One half-plane L_g h u >= rhs with rhs = -L_f h - kappa(h)."""

    lg_h: np.ndarray
    rhs: float

    def __post_init__(self) -> None:
        lg = np.asarray(self.lg_h, dtype=float)
        object.__setattr__(self, "lg_h", lg)
        if not (np.all(np.isfinite(lg)) and math.isfinite(self.rhs)):
            raise ValueError("constraint row must be finite")


@dataclass(frozen=True)
class QpProblem:
    """Reference input plus the stacked constraint rows (possibly none)."""

    u_ref: np.ndarray
    rows: tuple[ConstraintRow, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "u_ref", np.asarray(self.u_ref, dtype=float))
        object.__setattr__(self, "rows", tuple(self.rows))


@dataclass(frozen=True)
class SafetyFilterResult:
    """Filtered input with diagnostics.

    status 'inactive' means u_safe = 0 (every psi was nonnegative),
    'corrected' means all constraints hold at u_star with at least one
    exactly tight, 'infeasible' means no input satisfied every row and
    u_star is the least-violating fallback.
    """

    u_star: np.ndarray
    u_ref: np.ndarray
    psi: np.ndarray
    active_set: tuple[int, ...]
    status: str

    @property
    def u_safe(self) -> np.ndarray:
        return self.u_star - self.u_ref


def solve_single_constraint(qp: QpProblem) -> SafetyFilterResult:
    """Closed-form solve of the one-row QP over an unbounded input set."""
    if len(qp.rows) != 1:
        raise ValueError(f"expected exactly one constraint row, got {len(qp.rows)}")
    row = qp.rows[0]
    lg = row.lg_h
    lg_sq = float(lg @ lg)
    if lg_sq == 0.0:
        raise DegenerateRowError("L_g h = 0: constraint row cannot be enforced")
    psi = float(lg @ qp.u_ref - row.rhs)
    if psi >= 0.0:
        return SafetyFilterResult(u_star=qp.u_ref.copy(), u_ref=qp.u_ref,
                                  psi=np.array([psi]), active_set=(), status="inactive")
    u_star = qp.u_ref - lg * (psi / lg_sq)
    return SafetyFilterResult(u_star=u_star, u_ref=qp.u_ref,
                              psi=np.array([psi]), active_set=(0,), status="corrected")


def _enumerate_active_sets(a_mat: np.ndarray, b_vec: np.ndarray,
                           u_ref: np.ndarray) -> Optional[np.ndarray]:
    """Exact minimizer of ||u - u_ref||^2 s.t. A u >= b, or None if infeasible.

    The optimum of a projection onto a polyhedron in R^m is pinned by at
    most m rows, so trying every subset of size <= m with nonnegative
    multipliers and feasible primal is exhaustive for m = 2.
    """
    n, m = a_mat.shape
    feas_tol = 1e-9
    if np.all(a_mat @ u_ref >= b_vec - feas_tol):
        return u_ref.copy()
    best = None
    best_obj = np.inf
    for size in range(1, m + 1):
        for subset in itertools.combinations(range(n), size):
            a_s = a_mat[list(subset)]
            gram = a_s @ a_s.T
            try:
                lam = np.linalg.solve(gram, b_vec[list(subset)] - a_s @ u_ref)
            except np.linalg.LinAlgError:
                continue
            if np.any(lam < -1e-12):
                continue
            u = u_ref + a_s.T @ lam
            if np.all(a_mat @ u >= b_vec - feas_tol):
                obj = float((u - u_ref) @ (u - u_ref))
                if obj < best_obj - 1e-15:
                    best_obj = obj
                    best = u
    return best


def _least_violating(a_mat: np.ndarray, b_vec: np.ndarray, u_ref: np.ndarray) -> np.ndarray:
    """Minimize the worst violation, then the deviation from u_ref.

    Stage one is the LP min t s.t. A u + t >= b; stage two re-runs the
    projection with every row relaxed by the optimal t.
    """
    n, m = a_mat.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    a_ub = np.hstack([-a_mat, -np.ones((n, 1))])
    res = linprog(c, A_ub=a_ub, b_ub=-b_vec, bounds=[(None, None)] * (m + 1), method="highs")
    if not res.success:
        return u_ref.copy()
    t_star = float(res.x[-1])
    relaxed = b_vec - t_star - 1e-9
    u = _enumerate_active_sets(a_mat, relaxed, u_ref)
    return u if u is not None else np.asarray(res.x[:m], dtype=float)


def solve_multi_constraint(qp: QpProblem) -> SafetyFilterResult:
    """Exact multi-row QP solve; falls back to least violation when infeasible."""
    u_ref = qp.u_ref
    psi = np.array([float(row.lg_h @ u_ref - row.rhs) for row in qp.rows])
    if len(qp.rows) == 0:
        return SafetyFilterResult(u_star=u_ref.copy(), u_ref=u_ref, psi=psi,
                                  active_set=(), status="inactive")
    if len(qp.rows) == 1 and float(qp.rows[0].lg_h @ qp.rows[0].lg_h) > 0.0:
        return solve_single_constraint(qp)

    a_mat = np.vstack([row.lg_h for row in qp.rows])
    b_vec = np.array([row.rhs for row in qp.rows])
    if np.all(a_mat @ u_ref >= b_vec):
        return SafetyFilterResult(u_star=u_ref.copy(), u_ref=u_ref, psi=psi,
                                  active_set=(), status="inactive")

    u = _enumerate_active_sets(a_mat, b_vec, u_ref)
    if u is None:
        u = _least_violating(a_mat, b_vec, u_ref)
        status = "infeasible"
    else:
        status = "corrected"
    active = tuple(
        i for i, row in enumerate(qp.rows)
        if abs(float(row.lg_h @ u - row.rhs)) <= ACTIVE_TOL
    )
    return SafetyFilterResult(u_star=u, u_ref=u_ref, psi=psi, active_set=active, status=status)
