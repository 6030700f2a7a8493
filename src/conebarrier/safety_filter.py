"""Reference controllers and the barrier quadratic-program safety filter.

The filter solves

    u* = argmin ||u - u_ref||^2   s.t.   L_g h_i u >= -L_f h_i - kappa(h_i)

for each obstacle constraint row i. With a single row and an unbounded
input set the minimizer is closed form and switches on the sign of

    psi = hdot(x, u_ref) + kappa(h):

psi >= 0 leaves the reference untouched, psi < 0 projects it onto the
constraint plane; ``solve_single_constraint`` keeps this closed form as the
tests' reference.

``solve_multi_constraint(qp, basis)`` solves any number of rows in one
incremental pass on Python floats, as an LP-type problem of dimension two
(Seidel 1991; RVO2's ``linearProgram2``). Rows are taken in order, the
previous ``basis`` first; a row violated at the current u (at all at u_ref,
by more than 1e-9 once u has moved) moves u to u_ref's projection onto its
line, clamped to the interval there that the earlier rows allow. One row is
the closed form bit for bit: psi = A u_ref - b comes from numpy, as it is
logged, and so does the first moving row's squared norm (Python's
x*x + y*y differs from BLAS in the last bit on 1,080 of the packaged
suite's 12,727 rows). Normals parallel to within PARALLEL_TOL count as
parallel, and clamp bounds crossing by at most 1e-9 of violation are a point.

Conflicting rows (possible with several cones, never with one) empty an
interval; by Helly's theorem in R^2 the conflict S is a zero row, an
anti-parallel pair or a row triple. t(S), S's least worst violation plus a
ROUNDING bound, is at most that of all rows, t*. The pass reruns on the rows
relaxed by t(S) + 1e-9, S first: if they are feasible its answer is the
least-violating fallback (status 'infeasible'), else the new conflict raises
the level. A warm 3-row basis with t(S) > 1e-9 starts at its level. A last
loop over the rows finds the active set and checks the answer against the
relaxed rows; where rounding puts it outside (or leaves no point), the one
of it, S's minimizer and u_ref that violates the rows least answers.

A ``QpProblem(u_ref, a, b)`` holds the rows a u >= b as the arrays a (m, 2)
and b (m,) that the engine slices from its barrier call. A non-finite row
entry makes psi non-finite (or raises in the engine's errstate); then
``_check_finite`` raises an error that is also an ArithmeticError, so the
engine reports a NaN row as a blown-up run.
The ``rows`` view of ``ConstraintRow`` pairs remains only for
``bench/tracing.py``.

The QP carries no input bounds. A scenario's input bounds are applied by
the closed-loop engine (``sim.run_scenario``), which clips the QP's answer
and logs a ``saturation`` event when the clip changes it.

``grid_project`` is the brute-force projection the solver is judged by,
both by ``conebarrier audit`` and by the tests: a lattice scan refined to
GRID_FINE, independent of the pass above.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
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
    u_star is the least-violating fallback. ``basis`` is the order hint for
    the next solve: the active set of a corrected solve, the conflict S of
    an infeasible one (a row triple, an anti-parallel pair or a zero row),
    and () for an inactive one.
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
    """The finiteness test of a QP's rows."""
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


def _pass(u_ref, a, rhs, slack, a_mat, order):
    """One incremental pass over the rows a u >= rhs in ``order``: (u, ()) or (None, S).

    ``slack`` is A u_ref - rhs. Row i, violated at u (at all at u_ref, by
    more than 1e-9 once u has moved), moves u to u_ref's projection onto its
    line, clamped to the interval of that line which the earlier rows allow.
    S is a conflict: a zero row, an anti-parallel pair, or the row and the
    two earlier rows that emptied its interval.
    """
    ux, uy = u_ref
    x, y, moved, seen = ux, uy, False, []
    for i in order:
        ax, ay = a[i]
        if rhs[i] - (ax * x + ay * y) <= 1e-9 if moved else slack[i] >= 0.0:
            seen.append(i)
            continue
        # The first move squares its row as the closed form does: one row gets its bits.
        n2 = ax * ax + ay * ay if moved else float((row := a_mat[i]) @ row)
        if n2 == 0.0:
            if slack[i] < -1e-9:
                return None, (i,)
            seen.append(i)
            continue
        q = slack[i] / n2
        px, py = ux - ax * q, uy - ay * q
        lo, hi = (-math.inf, 0.0, None), (math.inf, 0.0, None)  # (bound, den, row)
        for j in seen:
            bx, by = a[j]
            den = ax * by - ay * bx  # a_j along the line's direction (-ay, ax)
            dot = ax * bx + ay * by
            num = rhs[j] - (bx * px + by * py)
            if abs(den) <= PARALLEL_TOL * abs(dot):
                if num > 1e-9 and dot < 0.0:
                    return None, (i, j) if i < j else (j, i)
                continue
            s = num / den
            if den > 0.0:
                if s > lo[0]:
                    lo = s, den, j
            elif s < hi[0]:
                hi = s, -den, j
        if lo[0] <= hi[0]:
            s = lo[0] if lo[0] > 0.0 else hi[0] if hi[0] < 0.0 else 0.0
        elif (lo[0] - hi[0]) * min(lo[1], hi[1]) > 1e-9:
            return None, tuple(sorted((i, lo[2], hi[2])))
        else:  # bounds that cross by 1e-9 of violation or less: a point, up to rounding
            s = lo[0] if lo[1] >= hi[1] else hi[0]
        x, y = (px, py) if s == 0.0 else (px - s * ay, py + s * ax)
        moved = True
        seen.append(i)
    return (x, y), ()


def _least_violation(a, b, rows, u_ref):
    """(t, u) for a conflict ``rows``: t is the least worst violation
    min_u max_l (b_l - a_l u) over the rows plus its rounding bound, u a point
    attaining it. None if the rows are a pair that is not anti-parallel, or a
    triple that neither ties at a point nor holds an anti-parallel pair.

    A zero row violates by b_l everywhere; u is u_ref. An anti-parallel pair
    ties on a line; u is u_ref's projection onto it. A triple ties at one
    point if the dual weights y_l = a_m x a_n (cyclic) share one sign, so that
    sum y_l a_l = 0; else its value is its best anti-parallel pair's.
    """
    if len(rows) == 1:  # a zero row, the pass's only one-row conflict
        u = u_ref
    elif len(rows) == 2:
        i, j = rows
        (ix, iy), (jx, jy) = a[i], a[j]
        dot = ix * jx + iy * jy  # anti-parallel: as the pass tests it
        if not (dot < 0.0 and abs(ix * jy - iy * jx) <= -PARALLEL_TOL * dot):
            return None
        dx, dy = ix - jx, iy - jy
        shift = (b[i] - b[j] - (dx * u_ref[0] + dy * u_ref[1])) / (dx * dx + dy * dy)
        u = (u_ref[0] + shift * dx, u_ref[1] + shift * dy)
    else:
        i, j, k = rows
        (ix, iy), (jx, jy), (kx, ky) = a[i], a[j], a[k]
        px, py, qx, qy = ix - kx, iy - ky, jx - kx, jy - ky
        det = px * qy - py * qx
        weights = (jx * ky - jy * kx, kx * iy - ky * ix, ix * jy - iy * jx)
        if not (abs(det) > PARALLEL_TOL * (math.hypot(ix, iy) + math.hypot(kx, ky))
                * (math.hypot(jx, jy) + math.hypot(kx, ky))
                and (min(weights) > 0.0 or max(weights) < 0.0)):
            pairs = [lv for pair in ((i, j), (i, k), (j, k))
                     if (lv := _least_violation(a, b, pair, u_ref)) is not None]
            return min(pairs, key=lambda lv: lv[0], default=None)
        c_p, c_q = b[i] - b[k], b[j] - b[k]
        u = ((c_p * qy - c_q * py) / det, (c_q * px - c_p * qx) / det)
    return _worst(a, b, rows, u), u


def _worst(a, b, rows, u) -> float:
    """The worst violation max_l (b_l - a_l u) over ``rows``, each with its rounding bound."""
    x, y = u
    return max(b[l] - (a[l][0] * x + a[l][1] * y)
               + ROUNDING * (abs(b[l]) + abs(a[l][0] * x) + abs(a[l][1] * y)) for l in rows)


def solve_multi_constraint(qp: QpProblem, basis: tuple[int, ...] = ()) -> SafetyFilterResult:
    """The QP in one incremental pass, ``basis`` first; least violation when the rows conflict."""
    u_ref, a_mat, b_vec = qp
    try:
        psi = a_mat @ u_ref - b_vec
    except FloatingPointError:  # inf * 0 or inf - inf, where the caller's errstate raises
        _check_finite(a_mat, b_vec)
        raise
    slack = psi.tolist()
    if not math.isfinite(sum(slack)):  # as it is whenever a row entry is not finite
        _check_finite(a_mat, b_vec)
    if min(slack, default=0.0) >= 0.0:
        return SafetyFilterResult(u_star=u_ref.copy(), u_ref=u_ref, psi=psi,
                                  active_set=(), status="inactive")
    start, a, b = u_ref.tolist(), a_mat.tolist(), b_vec.tolist()
    level, conflict, rhs, relaxed = None, basis, b, slack
    if len(basis) == 3 and (warm := _least_violation(a, b, basis, start)) and warm[0] > 1e-9:
        level, stage_one = warm
    while True:
        order = ([*conflict, *[i for i in range(len(b)) if i not in conflict]] if conflict
                 else range(len(b)))
        if level is not None:
            relax = level + 1e-9
            rhs, relaxed = [x - relax for x in b], [x + relax for x in slack]
        u, found = _pass(start, a, rhs, relaxed, a_mat, order)
        if not found:
            break
        t, point = _least_violation(a, b, found, start) or (0.0, start)
        if level is not None and t <= level:
            break  # a conflict that does not raise the level is rounding
        level, stage_one, conflict = t, point, found
    resid = u and [ax * u[0] + ay * u[1] - bi for (ax, ay), bi in zip(a, b)]
    if level is not None and (not resid or min(resid) < -relax - 1e-9):
        # Rounding left stage two no point, or put it outside the relaxed rows:
        # the candidate that violates the rows least, rounding bounds counted, answers.
        u = min([*([u] if u else []), stage_one, start],
                key=lambda p: _worst(a, b, range(len(b)), p))
        resid = [ax * u[0] + ay * u[1] - bi for (ax, ay), bi in zip(a, b)]
    active = tuple([i for i, r in enumerate(resid) if abs(r) <= ACTIVE_TOL])
    return SafetyFilterResult(u_star=np.array(u), u_ref=u_ref, psi=psi, active_set=active,
                              status="corrected" if level is None else "infeasible",
                              basis=active if level is None else conflict)


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
