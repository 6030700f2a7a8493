"""Barrier-function candidates for moving elliptical obstacles.

The central candidate is the collision-cone barrier: with p_rel the vector
from the vehicle's reference point to the obstacle center and v_rel the
obstacle velocity relative to the vehicle,

    h = <p_rel, v_rel> + ||p_rel|| ||v_rel|| cos(phi),
    cos(phi) = sqrt(||p_rel||^2 - r^2) / ||p_rel||,

where r = max(c1, c2) + w/2 circumscribes the obstacle ellipse and absorbs
the vehicle width w. h < 0 exactly when the relative velocity points into
the cone of directions that reach the combined-radius disk, so keeping
h >= 0 keeps the approach direction out of the collision cone.

Each barrier evaluation returns the triple (h, L_f h, L_g h) that a
quadratic-program filter consumes: L_f h is the derivative of h along the
drift (obstacle center and piecewise-constant velocity are treated as extra
zero-drift states, so a moving obstacle needs no time-varying machinery),
and L_g h is the row the input multiplies.

Two classical candidates are included for comparison: the ellipse distance
function (whose derivative never sees the accelerations) and its
relative-degree-two extension h2 = h1dot + kappa1(h1). All derivatives are
closed form; finite differences exist only in the test suite.

The ``*_terms`` functions broadcast their array inputs over the common
leading shape (one state against an (m, 2) grid of obstacle velocities
returns m triples) and perform no domain checking.
``reference_kinematics`` is the one place the protected point and its
velocity are computed per model, and ``barrier_terms`` the one (barrier,
model) dispatch to the cores. The typed single-evaluation wrappers are thin
views over both: they validate the cone's admissible domain (||p_rel|| > r,
||v_rel|| > EPS_V), raise typed errors outside it, and otherwise return the
array core's triple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import BicycleGeometry, BicycleState, PointMassState, UnicycleState

EPS_V = 1e-6
"""Relative-speed floor below which the cone direction is undefined."""


class DomainError(ValueError):
    """Inside the combined radius: the collision cone does not exist."""


class DegenerateVelocityError(ValueError):
    """Relative speed at or below EPS_V: no approach direction to constrain."""


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def _broadcast(*arrays) -> list[np.ndarray]:
    """Float views of (..., k) arrays over their common leading shape."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    lead = np.broadcast(*(a[..., 0] for a in arrays)).shape
    return [a if a.shape[:-1] == lead else np.broadcast_to(a, lead + a.shape[-1:])
            for a in arrays]


@dataclass(frozen=True)
class Obstacle:
    """Moving ellipse: center, piecewise-constant velocity and semi-axes."""

    center: tuple[float, float]
    velocity: tuple[float, float]
    semi_axis_x: float
    semi_axis_y: float

    def __post_init__(self) -> None:
        if not (self.semi_axis_x > 0 and self.semi_axis_y > 0):
            raise ValueError(
                f"semi-axes must be positive, got ({self.semi_axis_x}, {self.semi_axis_y})"
            )

    def combined_radius(self, width: float) -> float:
        """Circumscribed radius max(c1, c2) plus half the vehicle width."""
        return max(self.semi_axis_x, self.semi_axis_y) + 0.5 * width

    def center_array(self) -> np.ndarray:
        return np.array(self.center, dtype=float)

    def velocity_array(self) -> np.ndarray:
        return np.array(self.velocity, dtype=float)


@dataclass(frozen=True)
class BarrierEvaluation:
    """The (h, L_f h, L_g h) triple a QP constraint row is built from."""

    h: float
    lf_h: float
    lg_h: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "lg_h", np.asarray(self.lg_h, dtype=float))


@dataclass(frozen=True)
class ClassK:
    """Strictly increasing gain function with kappa(0) = 0.

    kind 'linear' is gamma*h, 'cubic' is gamma*h^3, 'custom' interpolates a
    strictly increasing table of (x, kappa(x)) pairs passing through zero
    and extends past the table ends with the edge slopes.
    """

    kind: str = "linear"
    gamma: float = 1.0
    table: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "cubic", "custom"):
            raise ValueError(f"unknown class-K kind {self.kind!r}")
        if not self.gamma > 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.kind == "custom":
            if self.table is None or len(self.table) < 2:
                raise ValueError("custom class-K needs a table of at least two points")
            xs = np.array([p[0] for p in self.table], dtype=float)
            ys = np.array([p[1] for p in self.table], dtype=float)
            if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
                raise ValueError("custom class-K table must be strictly increasing")
            if abs(float(np.interp(0.0, xs, ys))) > 1e-12:
                raise ValueError("custom class-K table must pass through (0, 0)")

    def _table_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        xs = np.array([p[0] for p in self.table], dtype=float)
        ys = np.array([p[1] for p in self.table], dtype=float)
        return xs, ys

    def __call__(self, h):
        h = np.asarray(h, dtype=float)
        if self.kind == "linear":
            out = self.gamma * h
        elif self.kind == "cubic":
            out = self.gamma * h**3
        else:
            xs, ys = self._table_arrays()
            out = np.interp(h, xs, ys)
            lo_slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
            hi_slope = (ys[-1] - ys[-2]) / (xs[-1] - xs[-2])
            out = np.where(h < xs[0], ys[0] + lo_slope * (h - xs[0]), out)
            out = np.where(h > xs[-1], ys[-1] + hi_slope * (h - xs[-1]), out)
        return out if out.ndim else float(out)

    def derivative(self, h):
        """Slope of kappa at h; piecewise-constant for tabulated kind."""
        h = np.asarray(h, dtype=float)
        if self.kind == "linear":
            out = np.full_like(h, self.gamma)
        elif self.kind == "cubic":
            out = 3.0 * self.gamma * h**2
        else:
            xs, ys = self._table_arrays()
            seg = np.clip(np.searchsorted(xs, h, side="right") - 1, 0, len(xs) - 2)
            out = (ys[seg + 1] - ys[seg]) / (xs[seg + 1] - xs[seg])
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Array cores. All accept stacked/broadcast inputs and return (h, lf, lg).
# ---------------------------------------------------------------------------

_PERP = np.array([-1.0, 1.0])
"""Multiplies a reversed (cos, sin) heading into its left normal (-sin, cos)."""


def reference_kinematics(model: str, state, body_offset: float = 0.0):
    """Protected point and its velocity for states (..., n) -> two (..., 2) arrays.

    The cone is anchored at this point: for the unicycle the body center
    body_offset ahead of the axle (its velocity picks up the lever term
    body_offset * omega across the heading), for the bicycle and the point
    mass the position the state carries (returned as a view of the state).
    """
    point, velocity, _ = _kinematics(model, np.asarray(state, dtype=float), body_offset)
    return point, velocity


def _kinematics(model: str, state: np.ndarray, body_offset: float = 0.0):
    """reference_kinematics plus the unit heading (None for the point mass).

    The cone cores reuse the heading, so cos/sin run once per state.
    """
    if model == "pointmass":
        return state[..., 0:2], state[..., 2:4], None
    theta = state[..., 2:3]
    heading = np.concatenate([np.cos(theta), np.sin(theta)], axis=-1)
    if model == "bicycle":
        return state[..., 0:2], state[..., 3:4] * heading, heading
    if model != "unicycle":
        raise ValueError(f"unknown model {model!r}")
    lever = body_offset * state[..., 4:5]
    return (state[..., 0:2] + body_offset * heading,
            state[..., 3:4] * heading + lever * (heading[..., ::-1] * _PERP), heading)


def _cone_h(p_rel: np.ndarray, v_rel: np.ndarray, radius) -> tuple:
    """Shared cone quantities: (h, s, v_norm, q) with s the tangent length.

    q = p_rel + v_rel * s / ||v_rel|| is the vector every Lie derivative of
    the cone barrier contracts against.
    """
    radius = np.asarray(radius, dtype=float)
    s = np.sqrt(_dot(p_rel, p_rel) - radius**2)
    v_norm = np.sqrt(_dot(v_rel, v_rel))
    h = _dot(p_rel, v_rel) + v_norm * s
    q = p_rel + v_rel * (s / v_norm)[..., None]
    return h, s, v_norm, q


def c3bf_unicycle_terms(state, center, velocity, radius, body_offset):
    """Cone barrier terms for the unicycle; state (...,5) -> (h, lf, lg(...,2)).

    The vehicle reference point sits body_offset ahead of the axle along the
    heading, so p_rel and v_rel both carry lever terms in omega; those terms
    are what give the angular input its column in L_g h.
    """
    state = np.asarray(state, dtype=float)
    point, point_velocity, heading = _kinematics("unicycle", state, body_offset)
    p_rel = np.asarray(center, dtype=float) - point
    v_rel = np.asarray(velocity, dtype=float) - point_velocity
    v, omega = state[..., 3], state[..., 4]
    ct, st = heading[..., 0], heading[..., 1]
    h, s, v_norm, q = _cone_h(p_rel, v_rel, radius)
    # Drift part of d/dt v_rel: rotation of the body-fixed lever and heading.
    drift_acc = np.stack(
        [v * omega * st + body_offset * omega**2 * ct,
         -v * omega * ct + body_offset * omega**2 * st],
        axis=-1,
    )
    lf = v_norm**2 + _dot(q, drift_acc) + _dot(p_rel, v_rel) * v_norm / s
    lg_a = -(q[..., 0] * ct + q[..., 1] * st)
    lg_alpha = body_offset * (q[..., 0] * st - q[..., 1] * ct)
    return h, lf, np.stack([lg_a, lg_alpha], axis=-1)


def c3bf_bicycle_terms(state, center, velocity, radius, rear_axle):
    """Cone barrier terms for the small-slip bicycle; state (...,4).

    v_rel here uses the along-body velocity v*(cos th, sin th), not the true
    CoM velocity; the slip angle corrects d/dt p_rel by beta*(v sin th,
    -v cos th) and turns the heading at rate (v / l_r) beta, both of which
    land in the beta column of L_g h.
    """
    state = np.asarray(state, dtype=float)
    point, point_velocity, heading = _kinematics("bicycle", state)
    p_rel = np.asarray(center, dtype=float) - point
    v_rel = np.asarray(velocity, dtype=float) - point_velocity
    v = state[..., 3]
    ct, st = heading[..., 0], heading[..., 1]
    h, s, v_norm, q = _cone_h(p_rel, v_rel, radius)
    lf = v_norm**2 + _dot(p_rel, v_rel) * v_norm / s
    w_vec = np.stack([v * st, -v * ct], axis=-1)
    lg_a = -(q[..., 0] * ct + q[..., 1] * st)
    lg_beta = (
        _dot(w_vec, v_rel)
        + _dot(p_rel, w_vec) * v_norm / s
        + (v / rear_axle) * _dot(q, w_vec)
    )
    return h, lf, np.stack([lg_a, lg_beta], axis=-1)


def c3bf_pointmass_terms(state, center, velocity, radius):
    """Cone barrier terms for the point mass; state (...,4) = (px,py,vx,vy)."""
    point, point_velocity = reference_kinematics("pointmass", state)
    p_rel = np.asarray(center, dtype=float) - point
    v_rel = np.asarray(velocity, dtype=float) - point_velocity
    h, s, v_norm, q = _cone_h(p_rel, v_rel, radius)
    lf = v_norm**2 + _dot(p_rel, v_rel) * v_norm / s
    return h, lf, -q


def ellipse_terms(state, center, velocity, axes, model: str):
    """Ellipse distance barrier h = ((cx-x)/c1)^2 + ((cy-y)/c2)^2 - 1.

    For the acceleration unicycle L_g h is identically zero (the inputs
    never appear in hdot); for the bicycle only the slip column survives.
    Returned so a filter can flag the missing input authority instead of
    silently dividing by zero.
    """
    state, center, velocity, axes = _broadcast(state, center, velocity, axes)
    x, y, theta, v = (state[..., i] for i in range(4))
    ct, st = np.cos(theta), np.sin(theta)
    dx = center[..., 0] - x
    dy = center[..., 1] - y
    a2 = axes[..., 0] ** 2
    b2 = axes[..., 1] ** 2
    h = dx**2 / a2 + dy**2 / b2 - 1.0
    lf = 2.0 * dx * (velocity[..., 0] - v * ct) / a2 + 2.0 * dy * (velocity[..., 1] - v * st) / b2
    zeros = np.zeros_like(h)
    if model == "unicycle":
        lg = np.stack([zeros, zeros], axis=-1)
    elif model == "bicycle":
        lg_beta = 2.0 * dx * v * st / a2 - 2.0 * dy * v * ct / b2
        lg = np.stack([zeros, lg_beta], axis=-1)
    else:
        raise ValueError(f"ellipse barrier supports unicycle or bicycle, got {model!r}")
    return h, lf, lg


def hocbf_terms(state, center, velocity, axes, kappa1: ClassK, model: str,
                rear_axle: Optional[float] = None):
    """Second-order ellipse barrier h2 = h1dot + kappa1(h1) and its derivatives.

    h1dot is taken along the drift (for the unicycle that is the full hdot;
    the bicycle's slip contribution to h1dot belongs to the input and is
    excluded from the definition of h2). The chain rule below is hand
    derived; the test suite checks it against central finite differences.
    """
    state, center, velocity, axes = _broadcast(state, center, velocity, axes)
    x, y, theta, v = (state[..., i] for i in range(4))
    ct, st = np.cos(theta), np.sin(theta)
    dx = center[..., 0] - x
    dy = center[..., 1] - y
    wx = velocity[..., 0] - v * ct
    wy = velocity[..., 1] - v * st
    a2 = axes[..., 0] ** 2
    b2 = axes[..., 1] ** 2

    h1 = dx**2 / a2 + dy**2 / b2 - 1.0
    h1dot = 2.0 * dx * wx / a2 + 2.0 * dy * wy / b2
    h2 = h1dot + kappa1(h1)
    k1p = kappa1.derivative(h1)

    dh2_dx = -2.0 * wx / a2 - 2.0 * k1p * dx / a2
    dh2_dy = -2.0 * wy / b2 - 2.0 * k1p * dy / b2
    dh2_dth = 2.0 * dx * v * st / a2 - 2.0 * dy * v * ct / b2
    dh2_dv = -2.0 * dx * ct / a2 - 2.0 * dy * st / b2
    # Obstacle states drift with cdot; their partials mirror the vehicle's.
    obstacle_drift = -dh2_dx * velocity[..., 0] - dh2_dy * velocity[..., 1]

    zeros = np.zeros_like(h2)
    if model == "unicycle":
        omega = state[..., 4]
        lf = dh2_dx * v * ct + dh2_dy * v * st + dh2_dth * omega + obstacle_drift
        lg = np.stack([dh2_dv, zeros], axis=-1)
    elif model == "bicycle":
        if rear_axle is None:
            raise ValueError("bicycle HOCBF needs the rear axle distance")
        lf = dh2_dx * v * ct + dh2_dy * v * st + obstacle_drift
        lg_beta = dh2_dx * (-v * st) + dh2_dy * (v * ct) + dh2_dth * (v / rear_axle)
        lg = np.stack([dh2_dv, lg_beta], axis=-1)
    else:
        raise ValueError(f"HOCBF barrier supports unicycle or bicycle, got {model!r}")
    return h2, lf, lg


def barrier_terms(barrier: str, model: str, state, center, velocity, axes, radius,
                  body_offset: float = 0.0, rear_axle: Optional[float] = None,
                  kappa1: Optional[ClassK] = None):
    """(h, L_f h, L_g h) of one barrier kind on one vehicle model.

    The one (barrier, model) dispatch to the array cores; it broadcasts
    exactly as they do. The cone uses radius (and body_offset on the
    unicycle, rear_axle on the bicycle), the ellipse candidates use axes,
    and the second-order one also kappa1. The cores are looked up by name
    on every call, so a wrapper installed on this module sees each one.
    """
    if barrier == "c3bf":
        if model == "unicycle":
            return c3bf_unicycle_terms(state, center, velocity, radius, body_offset)
        if model == "bicycle":
            return c3bf_bicycle_terms(state, center, velocity, radius, rear_axle)
        return c3bf_pointmass_terms(state, center, velocity, radius)
    if barrier == "ellipse":
        return ellipse_terms(state, center, velocity, axes, model)
    if barrier != "hocbf":
        raise ValueError(f"unknown barrier {barrier!r}")
    return hocbf_terms(state, center, velocity, axes, kappa1, model,
                       rear_axle if model == "bicycle" else None)


# ---------------------------------------------------------------------------
# Typed single-evaluation API with domain checking.
# ---------------------------------------------------------------------------

def _check_cone_domain(p_rel: np.ndarray, v_rel: np.ndarray, r: float) -> None:
    p_norm = float(np.linalg.norm(p_rel))
    if p_norm <= r:
        raise DomainError(f"||p_rel||={p_norm:.6g} <= combined radius r={r:.6g}")
    if float(np.linalg.norm(v_rel)) <= EPS_V:
        raise DegenerateVelocityError(f"||v_rel|| <= {EPS_V}: cone direction undefined")


def _c3bf(model: str, s, obs: Obstacle, width: float, body_offset: float = 0.0,
          rear_axle: Optional[float] = None) -> BarrierEvaluation:
    """Shared kinematics, the cone domain check, then the array core."""
    r = obs.combined_radius(width)
    state, center, velocity = s.as_array(), obs.center_array(), obs.velocity_array()
    point, point_velocity = reference_kinematics(model, state, body_offset)
    _check_cone_domain(center - point, velocity - point_velocity, r)
    h, lf, lg = barrier_terms("c3bf", model, state, center, velocity, None, r,
                              body_offset=body_offset, rear_axle=rear_axle)
    return BarrierEvaluation(float(h), float(lf), lg)


def c3bf_unicycle(s: UnicycleState, obs: Obstacle, body_offset: float,
                  width: float) -> BarrierEvaluation:
    """Collision-cone barrier for the unicycle, body center offset ahead of the axle."""
    return _c3bf("unicycle", s, obs, width, body_offset=body_offset)


def c3bf_bicycle(s: BicycleState, obs: Obstacle, width: float,
                 geom: BicycleGeometry) -> BarrierEvaluation:
    """Collision-cone barrier for the small-slip bicycle model."""
    return _c3bf("bicycle", s, obs, width, rear_axle=geom.l_r)


def c3bf_pointmass(s: PointMassState, obs: Obstacle, width: float) -> BarrierEvaluation:
    """Collision-cone barrier for the point mass; L_g h = -q."""
    return _c3bf("pointmass", s, obs, width)


def ellipse_cbf(s, obs: Obstacle, model: str) -> BarrierEvaluation:
    """Ellipse distance barrier for a unicycle or bicycle state."""
    h, lf, lg = ellipse_terms(
        s.as_array(), obs.center_array(), obs.velocity_array(),
        np.array([obs.semi_axis_x, obs.semi_axis_y]), model,
    )
    return BarrierEvaluation(float(h), float(lf), lg)


def hocbf(s, obs: Obstacle, kappa1: ClassK, model: str,
          geom: Optional[BicycleGeometry] = None) -> BarrierEvaluation:
    """Second-order ellipse barrier for a unicycle or bicycle state."""
    rear = geom.l_r if geom is not None else None
    h, lf, lg = hocbf_terms(
        s.as_array(), obs.center_array(), obs.velocity_array(),
        np.array([obs.semi_axis_x, obs.semi_axis_y]), kappa1, model, rear,
    )
    return BarrierEvaluation(float(h), float(lf), lg)
