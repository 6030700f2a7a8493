"""Reference controllers and the barrier quadratic-program safety filter.

The filter solves

    u* = argmin ||u - u_ref||^2   s.t.   L_g h_i u >= -L_f h_i - kappa(h_i)

for each obstacle constraint row i. With a single row and an unbounded
input set the minimizer is closed form and switches on the sign of

    psi = hdot(x, u_ref) + kappa(h):

psi >= 0 leaves the reference untouched, psi < 0 projects it onto the
constraint plane. Several rows are solved exactly in one array pass: a
projection in R^2 is pinned by at most two rows, so the minimizer is the
nearest feasible point among the projections onto every row and row pair.

Conflicting rows (possible with several cones, never with one) make the QP
infeasible; the filter then returns the input minimizing the worst
constraint violation, found exactly among the points where rows tie (no LP
solver), with the deviation from u_ref as tie-break, and says so in the
result status.

Warm start: ``solve_multi_constraint(qp, basis)`` first tries the rows that
pinned the previous step's answer. One or two rows: their projection is the
minimizer if it is feasible with multipliers >= -1e-12 (KKT). Three rows:
their tie point proves infeasibility and t* if the dual weights a_j x a_k
(cyclic) share one sign and no row is violated more than the tie value,
which exceeds 1e-9 (LP duality). A basis that fails goes to the cold pass.
Stage two of an infeasible solve, warm or cold, starts from the tie triple:
the rows tight at its answer lie near the tie point, so the projections onto
the triple's rows and pairs, relaxed by t* + 1e-9, are tried before all rows.

A ``QpProblem(u_ref, a, b)`` holds the rows a u >= b as the arrays a (m, 2)
and b (m,) that the engine slices from its barrier call. Its one finiteness
test, ``_check_finite``, which both solvers pass, raises an error that is also
an ArithmeticError, so the engine reports a NaN row as a blown-up run. The
``rows`` view of ``ConstraintRow`` pairs remains only for ``bench/tracing.py``.

The QP carries no input bounds. A scenario's input bounds are applied by
the closed-loop engine (``sim.run_scenario``), which clips the QP's answer
and logs a ``saturation`` event when the clip changes it.

``grid_project`` is the brute-force projection the solver is judged by,
both by ``conebarrier audit`` and by the tests: a lattice scan refined to
GRID_FINE, independent of the row enumeration above.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from functools import lru_cache
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .models import BicycleGeometry, slip_from_steering

ACTIVE_TOL = 1e-9
"""A constraint counts as tight when |L_g h u - rhs| is below this."""

ROUNDING = 4 * np.finfo(float).eps
"""Relative rounding bound on a computed worst violation (of |b| + |A| |u|)."""

PARALLEL_TOL = 64 * np.finfo(float).eps
"""Row normals parallel to within this relative bound count as parallel.

Rounding in forming a row leaves its direction uncertain by a few eps (up
to ~11 eps for rows built from angles below 6 pi), so a tie point of rows
this close to parallel is rounding noise at |u| ~ |b| / (|a| PARALLEL_TOL).
"""


class DegenerateRowError(ValueError):
    """Constraint row with L_g h = 0: the input cannot influence hdot."""


class NonFiniteRowError(ValueError, ArithmeticError):
    """Constraint row with a NaN or infinite entry: the run that built it has blown up."""


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
    heading_des: float = 0.0

    def __post_init__(self) -> None:
        if not (all(map(math.isfinite, astuple(self))) and self.k_speed > 0 and self.k_damp > 0):
            raise ValueError(f"controller values must be finite and gains positive, got {self}")


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

    def __post_init__(self) -> None:
        if not (all(map(math.isfinite, astuple(self))) and self.k_soft > 0
                and self.k_speed > 0 and self.k_cross >= 0):
            raise ValueError(f"path tracker values must be finite with k_soft > 0, "
                             f"k_speed > 0 and k_cross >= 0, got {self}")


def reference_path_tracker(state: np.ndarray, path: Sequence, geom: BicycleGeometry,
                           gains: PathTrackerGains) -> np.ndarray:
    """Cross-track plus heading-error steering mapped through the slip relation.

    Takes one raw bicycle state (x_p, y_p, theta, v). Finds the closest
    point on the polyline, steers with
    delta = heading_error + atan(k_cross * e / (k_soft + |v|)) where e is the
    signed cross-track error (positive left of the path), converts delta to a
    slip angle, and holds speed with the P-law.
    """
    pts = np.asarray(path, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise EmptyPathError("path tracker needs at least two waypoints")
    pos = np.array(state[0:2], dtype=float)
    theta, v = state[2], state[3]

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
    heading_err = math.atan2(math.sin(path_heading - theta), math.cos(path_heading - theta))

    delta = heading_err - math.atan(gains.k_cross * e_cross / (gains.k_soft + abs(v)))
    delta = float(np.clip(delta, -1.4, 1.4))
    beta_ref = slip_from_steering(delta, geom)
    a_ref = gains.k_speed * (gains.v_des - v)
    return np.array([a_ref, beta_ref])


class ConstraintRow(NamedTuple):
    """One row L_g h u >= rhs, rhs = -L_f h - kappa(h), as ``QpProblem.rows`` shows it."""

    lg_h: np.ndarray
    rhs: float


class QpProblem(NamedTuple):
    """Reference input u_ref (2,) and the rows a u >= b: a (m, 2) and b (m,), m >= 0."""

    u_ref: np.ndarray
    a: np.ndarray
    b: np.ndarray

    @property
    def rows(self) -> tuple[ConstraintRow, ...]:
        """The rows one by one, read only: ``bench/tracing.py`` reads them so."""
        return tuple(map(ConstraintRow, self.a, self.b))


@dataclass(frozen=True)
class SafetyFilterResult:
    """Filtered input with diagnostics.

    status 'inactive' means u_safe = 0 (every psi was nonnegative),
    'corrected' means all constraints hold at u_star with at least one
    exactly tight, 'infeasible' means no input satisfied every row and
    u_star is the least-violating fallback. ``basis`` is the active set
    of a corrected solve, the tie triple of an infeasible one whose
    stage-one minimizer is a triple tie point, and () otherwise.
    """

    u_star: np.ndarray
    u_ref: np.ndarray
    psi: np.ndarray
    active_set: tuple[int, ...]
    status: str
    basis: tuple[int, ...] = ()

    @property
    def u_safe(self) -> np.ndarray:
        return self.u_star - self.u_ref


def _check_finite(a_mat: np.ndarray, b_vec: np.ndarray) -> None:
    """The one finiteness test of a solve; both solvers pass through it once per QP."""
    if not all(map(math.isfinite, [*a_mat.ravel().tolist(), *b_vec.tolist()])):
        raise NonFiniteRowError("constraint rows must be finite")


def solve_single_constraint(qp: QpProblem) -> SafetyFilterResult:
    """Closed-form solve of the one-row QP over an unbounded input set."""
    u_ref, a_mat, b_vec = qp
    if len(b_vec) != 1:
        raise ValueError(f"expected exactly one constraint row, got {len(b_vec)}")
    _check_finite(a_mat, b_vec)
    lg = a_mat[0]
    lg_sq = float(lg @ lg)
    if lg_sq == 0.0:
        raise DegenerateRowError("L_g h = 0: constraint row cannot be enforced")
    psi = float(lg @ u_ref - b_vec[0])
    if psi >= 0.0:
        return SafetyFilterResult(u_star=u_ref.copy(), u_ref=u_ref,
                                  psi=np.array([psi]), active_set=(), status="inactive")
    u_star = u_ref - lg * (psi / lg_sq)
    return SafetyFilterResult(u_star=u_star, u_ref=u_ref, psi=np.array([psi]),
                              active_set=(0,), status="corrected", basis=(0,))


@lru_cache(maxsize=64)
def _index_tuples(m: int, size: int) -> np.ndarray:
    """Every increasing ``size``-tuple of indices below m, as the columns of a read-only array."""
    idx = np.indices((m,) * size).reshape(size, -1)
    tuples = idx[:, np.all(idx[:-1] < idx[1:], axis=0)]
    tuples.flags.writeable = False
    return tuples


def _projections(a_mat: np.ndarray, b_vec: np.ndarray, u_ref: np.ndarray,
                 gram: np.ndarray) -> np.ndarray:
    """u_ref and its projections onto every row and every row pair's intersection.

    A projection onto a polygon in R^2 is pinned by at most two rows, so these
    points, kept with multipliers >= -1e-12 (NaN for zero rows and parallel
    pairs), contain the minimizer of ||u - u_ref||^2 s.t. A u >= b. ``gram``
    is A A^T.
    """
    g = np.diag(gram)
    r = b_vec - a_mat @ u_ref
    lam = r / np.where(g > 0.0, g, np.nan)
    one = lam >= -1e-12
    i, j = _index_tuples(len(b_vec), 2)
    det = g[i] * g[j] - gram[i, j] ** 2  # Cramer's rule on the 2x2 Gram matrix
    det = np.where(det > 0.0, det, np.nan)
    lam_i = (g[j] * r[i] - gram[i, j] * r[j]) / det
    lam_j = (g[i] * r[j] - gram[i, j] * r[i]) / det
    ok = (lam_i >= -1e-12) & (lam_j >= -1e-12)
    return np.vstack([u_ref, u_ref + lam[one, None] * a_mat[one],
                      u_ref + lam_i[ok, None] * a_mat[i[ok]] + lam_j[ok, None] * a_mat[j[ok]]])


def _nearest_feasible(cand: np.ndarray, a_mat: np.ndarray, b_vec: np.ndarray,
                      u_ref: np.ndarray) -> Optional[np.ndarray]:
    """The candidate nearest u_ref with A u >= b - 1e-9, or None if there is none."""
    cand = cand[(cand @ a_mat.T >= b_vec - 1e-9).all(axis=1)]
    return cand[((cand - u_ref) ** 2).sum(axis=1).argmin()] if len(cand) else None


def _least_violation(a_mat: np.ndarray, b_vec: np.ndarray, u_ref: np.ndarray):
    """Stage one of the fallback: (t*, a minimizer, its tie triple or ()).

    t* = min_u max_i (b_i - a_i u) is attained where three rows tie, or
    where two tie if all row normals are parallel (anywhere if all rows are
    zero), so u_ref and the pair and triple tie points (pairs: the one
    nearest u_ref) are complete candidates. Normals parallel within
    PARALLEL_TOL count as parallel, and each worst violation carries its
    rounding bound, so far tie points cannot undercut t*.
    """
    norms = np.sqrt(np.sum(a_mat * a_mat, axis=1))
    i, j, k = _index_tuples(len(b_vec), 3)
    p, q = a_mat[i] - a_mat[k], a_mat[j] - a_mat[k]
    c_p, c_q = b_vec[i] - b_vec[k], b_vec[j] - b_vec[k]
    det = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    ok = np.abs(det) > PARALLEL_TOL * (norms[i] + norms[k]) * (norms[j] + norms[k])
    triples = np.column_stack([c_p[ok] * q[ok, 1] - c_q[ok] * p[ok, 1],
                               c_q[ok] * p[ok, 0] - c_p[ok] * q[ok, 0]]) / det[ok, None]
    pi, pj = _index_tuples(len(b_vec), 2)
    d = a_mat[pi] - a_mat[pj]
    dd = np.sum(d * d, axis=1)
    shift = (b_vec[pi] - b_vec[pj] - d @ u_ref)[dd > 0.0] / dd[dd > 0.0]
    cand = np.vstack([u_ref, u_ref + shift[:, None] * d[dd > 0.0], triples])
    worst = (b_vec[:, None] - a_mat @ cand.T).max(axis=0) + ROUNDING * (
        np.abs(b_vec)[:, None] + np.abs(a_mat) @ np.abs(cand).T).max(axis=0)
    best = int(np.argmin(worst))
    t = best - (len(cand) - len(triples))
    return worst[best], cand[best], (int(i[ok][t]), int(j[ok][t]), int(k[ok][t])) if t >= 0 else ()


def _tie_certificate(a_mat: np.ndarray, b_vec: np.ndarray, basis: tuple[int, ...]):
    """Stage one from the row triple ``basis`` if LP duality certifies it, else None.

    u and t solve a_l u + t = b_l on the triple, as in ``_least_violation``.
    The weights y_i = a_j x a_k (cyclic) give sum y_l a_l = 0: of one sign,
    they prove t <= t*.
    """
    (a_i, a_j, a_k), (b_i, b_j, b_k) = ([v[l] for l in basis]
                                        for v in (a_mat.tolist(), b_vec.tolist()))
    p, q = [x - z for x, z in zip(a_i, a_k)], [y - z for y, z in zip(a_j, a_k)]
    det = p[0] * q[1] - p[1] * q[0]
    norm_i, norm_j, norm_k = (math.sqrt(x * x + y * y) for x, y in (a_i, a_j, a_k))
    weights = [x[0] * y[1] - x[1] * y[0] for x, y in ((a_j, a_k), (a_k, a_i), (a_i, a_j))]
    if not (abs(det) > PARALLEL_TOL * (norm_i + norm_k) * (norm_j + norm_k)
            and (min(weights) > 0.0 or max(weights) < 0.0)):
        return None
    c_p, c_q = b_i - b_k, b_j - b_k
    u = np.array([c_p * q[1] - c_q * p[1], c_q * p[0] - c_p * q[0]]) / det
    viol = b_vec - a_mat @ u
    tie = max(viol[l] for l in basis)
    if not (tie > 1e-9 and tie >= viol.max()):
        return None
    return tie + ROUNDING * (np.abs(b_vec) + np.abs(a_mat) @ np.abs(u)).max(), u, basis


def _kkt_points(gram: np.ndarray, a_mat: np.ndarray, r: np.ndarray, u_ref: np.ndarray,
                faces: Sequence[tuple[int, ...]]) -> np.ndarray:
    """The projections of u_ref onto those faces (one row or a row pair) whose
    multipliers are >= -1e-12, by ``_projections``' arithmetic bit for bit
    given its Gram matrix and r = b - A u_ref. Such a point that meets
    A u >= b - 1e-9 is the minimizer (KKT)."""
    g, r, a, points = gram.tolist(), r.tolist(), a_mat.tolist(), []
    for face in faces:
        i, j = face[0], face[-1]
        det = g[i][i] * g[j][j] - g[i][j] * g[i][j]  # zero rows and parallel pairs drop out
        lam = ([r[i] / g[i][i]] if len(face) == 1 and g[i][i] > 0.0 else
               [(g[j][j] * r[i] - g[i][j] * r[j]) / det, (g[i][i] * r[j] - g[i][j] * r[i]) / det]
               if len(face) == 2 and det > 0.0 else [-math.inf])
        if min(lam) >= -1e-12:
            u = u_ref.tolist()
            for lam_l, row in zip(lam, face):
                u = [u[0] + lam_l * a[row][0], u[1] + lam_l * a[row][1]]
            points.append(u)
    return np.array(points).reshape(-1, 2)


def solve_multi_constraint(qp: QpProblem, basis: tuple[int, ...] = ()) -> SafetyFilterResult:
    """Exact multi-row QP solve, warm from ``basis``; least violation when the rows conflict."""
    u_ref, a_mat, b_vec = qp
    if len(b_vec) == 1 and float(a_mat[0] @ a_mat[0]) > 0.0:
        return solve_single_constraint(qp)
    _check_finite(a_mat, b_vec)
    psi = a_mat @ u_ref - b_vec
    if (psi >= 0.0).all():
        return SafetyFilterResult(u_star=u_ref.copy(), u_ref=u_ref, psi=psi,
                                  active_set=(), status="inactive")
    gram = a_mat @ a_mat.T
    # r = b - A u_ref is -psi bit for bit.
    pinned = _kkt_points(gram, a_mat, -psi, u_ref, [basis]) if len(basis) in (1, 2) else ()
    u = pinned[0] if len(pinned) and (a_mat @ pinned[0] >= b_vec - 1e-9).all() else None
    stage_one = _tie_certificate(a_mat, b_vec, basis) if len(basis) == 3 else None
    if u is None and stage_one is None:
        u = _nearest_feasible(_projections(a_mat, b_vec, u_ref, gram), a_mat, b_vec, u_ref)
        stage_one = _least_violation(a_mat, b_vec, u_ref) if u is None else None
    if stage_one is not None:
        # Stage two: project u_ref onto the rows relaxed by t* + 1e-9, from the
        # tie triple's faces, else from all rows. The stage-one minimizer meets
        # them, so it stays a candidate in case rounding on nearly parallel rows
        # puts every projection outside them.
        relaxed = b_vec - stage_one[0] - 1e-9
        faces = [face for n in (1, 2) for face in combinations(sorted(stage_one[2]), n)]
        u = _nearest_feasible(_kkt_points(gram, a_mat, relaxed - a_mat @ u_ref, u_ref, faces),
                              a_mat, relaxed, u_ref)
        if u is None:
            cand = np.vstack([_projections(a_mat, relaxed, u_ref, gram), stage_one[1]])
            u = _nearest_feasible(cand, a_mat, relaxed, u_ref)
    active = tuple((np.abs(a_mat @ u - b_vec) <= ACTIVE_TOL).nonzero()[0].tolist())
    return SafetyFilterResult(u_star=u, u_ref=u_ref, psi=psi, active_set=active,
                              status="corrected" if stage_one is None else "infeasible",
                              basis=active if stage_one is None else stage_one[2])


GRID_HALF_WIDTH, GRID_COARSE, GRID_MID, GRID_FINE = 10.0, 0.05, 0.005, 0.001
"""Box half-width and lattice steps of ``grid_project``."""


def grid_project(u_ref, rows, deep: bool = False) -> Optional[np.ndarray]:
    """Brute-force projection onto {u : lg u >= rhs}, the oracle that judges the QP.

    Scans the box |u|_inf <= GRID_HALF_WIDTH at GRID_COARSE and refines around
    the best point at GRID_MID, then GRID_FINE. None if the coarse scan finds
    no feasible point; ``deep=True`` then rescans at GRID_MID, catching slivers
    thinner than the coarse lattice (worth it only on known-feasible instances).
    """
    def best_on(lo, hi, step):
        # Feasibility and distance are outer sums of two tick vectors over
        # blocks of 128 x ticks, with no point array; strict improvement
        # across blocks keeps the first minimizer in row-major order.
        ticks_x = np.arange(lo[0], hi[0] + step / 2, step)
        ticks_y = np.arange(lo[1], hi[1] + step / 2, step)
        dx2, dy2 = (ticks_x - u_ref[0]) ** 2, (ticks_y - u_ref[1]) ** 2
        best, best_d2 = None, np.inf
        for start in range(0, ticks_x.size, 128):
            xs = ticks_x[start:start + 128]
            d2 = np.add.outer(dx2[start:start + 128], dy2)
            for lg, rhs in rows:
                d2[np.add.outer(xs * lg[0], ticks_y * lg[1]) < rhs - 1e-9] = np.inf
            i, j = divmod(int(np.argmin(d2)), ticks_y.size)
            if d2[i, j] < best_d2:
                best, best_d2 = np.array([xs[i], ticks_y[j]]), d2[i, j]
        return best

    box = np.full(2, GRID_HALF_WIDTH)
    best = best_on(-box, box, GRID_COARSE)
    if best is None and deep:
        best = best_on(-box, box, GRID_MID)
    if best is None:
        return None
    for step, window in ((GRID_MID, 0.6), (GRID_FINE, 0.03)):
        refined = best_on(best - window, best + window, step)
        if refined is not None:
            best = refined
    return best
