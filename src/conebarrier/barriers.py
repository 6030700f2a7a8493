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

The ``*_terms`` functions are the package's only barrier API. They
broadcast their array inputs over the common leading shape (one state
against an (m, 2) grid of obstacle velocities returns m triples): each
term is computed at the broadcast shape of the inputs it reads, so a term
of the state alone runs once per state, not once per grid velocity, and
h, L_f h and L_g h come out at the full leading shape, writable. They
perform no domain checking: callers gate the cone's admissible domain
(||p_rel|| > r, ||v_rel|| > EPS_V) themselves, as ``sim.run_scenario``
does. ``BARRIER_MODELS`` is the one source of the defined (barrier, model)
pairs, ``reference_kinematics`` the one kinematics function (protected
point, its velocity and the heading), ``combined_radius`` the one r, and
``barrier_terms`` the one (barrier, model) dispatch to the cores.

The engine builds each obstacle's row on Python floats: a list state and
one obstacle's center and velocity as lists of floats make every quantity
a Python float (cos/sin are NumPy's, converted; square roots are
``math.sqrt``; an L_g h pair is a tuple). States (..., n) and obstacles
(..., 2) as arrays give arrays of their leading shape through the same
operations in the same order, so a float row gets the bits of its batch
row, and the engine logs h for every obstacle and step in one array call
after its loop. Squares are products everywhere (``x ** 2`` on a float or
a NumPy scalar is libm ``pow()``, which can round apart from ``x * x``).
On floats the cores raise outside the cone's domain (ValueError from
``math.sqrt``, ZeroDivisionError) where arrays give NaN or inf; the
engine calls them only on rows inside it. ``relative_motion`` forms the
per-obstacle quantities once, for the engine's rows and logs and the cone
cores alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .models import MODELS

EPS_V = 1e-6
"""Relative-speed floor below which the cone direction is undefined."""

BARRIER_MODELS = {"c3bf": MODELS, "ellipse": ("unicycle", "bicycle"),
                  "hocbf": ("unicycle", "bicycle")}
"""The models each barrier kind is defined on; the ellipse cores read a
heading and a speed, which the point-mass state does not carry."""


@dataclass(frozen=True)
class ClassK:
    """Strictly increasing gain function with kappa(0) = 0.

    kind 'linear' is gamma*h, 'cubic' is gamma*h^3, 'custom' interpolates a
    strictly increasing table of (x, kappa(x)) pairs passing through zero
    and extends past the table ends with the edge slopes. A Python float h
    gives a Python float, arrays give arrays.
    """

    kind: str = "linear"
    gamma: float = 1.0
    table: Optional[tuple[tuple[float, float], ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "cubic", "custom"):
            raise ValueError(f"unknown class-K kind {self.kind!r}")
        if not 0 < self.gamma < np.inf:
            raise ValueError(f"gamma must be positive and finite, got {self.gamma}")
        if self.kind != "custom" and self.table is not None:
            raise ValueError(f"class-K kind {self.kind!r} takes no table")
        if self.kind == "custom":
            if not (hasattr(self.table, "__len__") and len(self.table) >= 2
                    and all(np.shape(p) == (2,) for p in self.table)):
                raise ValueError(f"custom class-K needs a table of at least two "
                                 f"(x, kappa(x)) pairs, got {self.table!r}")
            xs, ys = np.array(self.table, dtype=float).T
            if not np.isfinite([xs, ys]).all():
                raise ValueError("custom class-K table entries must be finite")
            if np.any(np.diff(xs) <= 0) or np.any(np.diff(ys) <= 0):
                raise ValueError("custom class-K table must be strictly increasing")
            if abs(float(np.interp(0.0, xs, ys))) > 1e-12:
                raise ValueError("custom class-K table must pass through (0, 0)")

    def __call__(self, h):
        if self.kind == "linear" and type(h) is float:
            return self.gamma * h
        h = np.asarray(h, dtype=float)
        if self.kind == "linear":
            out = self.gamma * h
        elif self.kind == "cubic":
            out = self.gamma * h**3
        else:
            xs, ys = np.array(self.table, dtype=float).T
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
            out = 3.0 * self.gamma * (h * h)
        else:
            xs, ys = np.array(self.table, dtype=float).T
            seg = np.clip(np.searchsorted(xs, h, side="right") - 1, 0, len(xs) - 2)
            out = (ys[seg + 1] - ys[seg]) / (xs[seg + 1] - xs[seg])
        return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Cores. All accept stacked/broadcast inputs and return (h, lf, lg); the cone
# cores also take one row on floats and return floats.
# ---------------------------------------------------------------------------

def combined_radius(semi_axes, width):
    """Cone radius r = max(c1, c2) + width/2 for semi-axes (..., 2) -> (...)."""
    semi_axes = np.asarray(semi_axes, dtype=float)
    return np.maximum(semi_axes[..., 0], semi_axes[..., 1]) + 0.5 * width


def _columns(state):
    """The entries of a state along its last axis: a list's floats, an array's (...) columns."""
    return state if isinstance(state, list) else np.moveaxis(np.asarray(state, dtype=float), -1, 0)


def reference_kinematics(model: str, state, body_offset: float = 0.0):
    """Protected point, its velocity and the unit heading of a state.

    Returns three (x, y) pairs (the heading is None for the point mass):
    Python floats for a list state, arrays of the leading shape for states
    (..., n); cos/sin are NumPy's for a float theta too, converted to floats.
    The cone is anchored at this point: for the unicycle the body center
    body_offset ahead of the axle (its velocity picks up the lever term
    body_offset * omega across the heading), for the bicycle and the point
    mass the position the state carries. The cone cores reuse the heading,
    so cos/sin run once per state.
    """
    cols = _columns(state)
    if model == "pointmass":
        return (cols[0], cols[1]), (cols[2], cols[3]), None
    x, y, theta, v = cols[:4]
    c, s = np.cos(theta), np.sin(theta)
    if isinstance(state, list):
        c, s = float(c), float(s)
    if model == "bicycle":
        return (x, y), (v * c, v * s), (c, s)
    if model != "unicycle":
        raise ValueError(f"unknown model {model!r}")
    lever = body_offset * cols[4]
    return ((x + body_offset * c, y + body_offset * s),
            (v * c - lever * s, v * s + lever * c), (c, s))


def relative_motion(kinematics, center, velocity):
    """(p_rel, v_rel, ||p_rel||^2, ||v_rel||, heading) of obstacles (..., 2).

    p_rel and v_rel are (x, y) pairs, taken from the point and velocity of
    ``reference_kinematics``'s triple; the heading passes through. One
    obstacle's center and velocity as lists of floats, with a float triple,
    give floats; arrays give arrays of the common leading shape.
    """
    (px, py), (vx, vy), heading = kinematics
    if isinstance(center, list):
        (cx, cy), (wx, wy), sqrt = center, velocity, math.sqrt
    else:
        center, velocity = np.asarray(center, dtype=float), np.asarray(velocity, dtype=float)
        cx, cy, wx, wy = center[..., 0], center[..., 1], velocity[..., 0], velocity[..., 1]
        sqrt = np.sqrt
    dx, dy = cx - px, cy - py
    ux, uy = wx - vx, wy - vy
    return (dx, dy), (ux, uy), dx * dx + dy * dy, sqrt(ux * ux + uy * uy), heading


def _cone_h(rel, radius) -> tuple:
    """Shared cone quantities: (h, s, v_norm, q, pv) with s the tangent length.

    q = p_rel + v_rel * s / ||v_rel||, an (x, y) pair, is the vector every
    Lie derivative of the cone barrier contracts against, and pv =
    <p_rel, v_rel> is returned for the cores' L_f h.
    """
    (dx, dy), (ux, uy), pp, v_norm, _ = rel
    s = pp - radius * radius
    s = math.sqrt(s) if type(s) is float else np.sqrt(s)  # no NumPy scalar in float code
    pv = dx * ux + dy * uy
    h = pv + v_norm * s
    t = s / v_norm
    return h, s, v_norm, (dx + ux * t, dy + uy * t), pv


def _pair(a, b):
    """(a, b) for Python floats, else the (..., 2) array of a's broadcast shape, not np.stack."""
    if type(a) is float:
        return a, b
    out = np.empty(np.shape(a) + (2,))
    out[..., 0] = a
    out[..., 1] = b
    return out


def c3bf_unicycle_terms(state, rel, radius, body_offset):
    """Cone barrier terms for the unicycle; state (...,5) -> (h, lf, lg(...,2)).

    The vehicle reference point sits body_offset ahead of the axle along the
    heading, so p_rel and v_rel both carry lever terms in omega; those terms
    are what give the angular input its column in L_g h.
    """
    v, omega = _columns(state)[3:5]
    c, s_th = rel[4]
    h, s, v_norm, (qx, qy), pv = _cone_h(rel, radius)
    # Drift part of d/dt v_rel: rotation of the body-fixed lever and heading,
    # with (s_th, -c) the right normal.
    spin, lever_rate = v * omega, body_offset * (omega * omega)
    drift_x, drift_y = spin * s_th + lever_rate * c, spin * (-c) + lever_rate * s_th
    lf = v_norm * v_norm + (qx * drift_x + qy * drift_y) + pv * v_norm / s
    return h, lf, _pair(-(qx * c + qy * s_th), body_offset * (qx * s_th + qy * (-c)))


def c3bf_bicycle_terms(state, rel, radius, rear_axle):
    """Cone barrier terms for the small-slip bicycle; state (...,4).

    v_rel here uses the along-body velocity v*(cos th, sin th), not the true
    CoM velocity; the slip angle corrects d/dt p_rel by beta*w with
    w = (v sin th, -v cos th) and turns the heading at rate (v / l_r) beta,
    both of which land in the beta column of L_g h.
    """
    v = _columns(state)[3]
    (dx, dy), (ux, uy), _, _, (c, s_th) = rel
    h, s, v_norm, (qx, qy), pv = _cone_h(rel, radius)
    lf = v_norm * v_norm + pv * v_norm / s
    wx, wy = v * s_th, v * (-c)
    lg_beta = ((wx * ux + wy * uy) + (dx * wx + dy * wy) * v_norm / s
               + (v / rear_axle) * (qx * wx + qy * wy))
    return h, lf, _pair(-(qx * c + qy * s_th), lg_beta)


def c3bf_pointmass_terms(state, rel, radius):
    """Cone barrier terms for the point mass; state (...,4) enters through rel."""
    h, s, v_norm, (qx, qy), pv = _cone_h(rel, radius)
    lf = v_norm * v_norm + pv * v_norm / s
    return h, lf, _pair(-qx, -qy)


def _ellipse(state, center, velocity, axes):
    """h1, h1dot (the ellipse's L_f h) for both ellipse candidates, the pieces
    that ``_slip`` and the HOCBF's chain rule reuse, and the leading shape.

    Each term has the broadcast shape of the inputs it reads, not the leading
    shape: against a velocity grid cos, sin, dx, dy, c1^2, c2^2 and h1 keep
    the state's shape and only w, h1dot and what reads them take the grid's.
    The callers return h, L_f h and L_g h at the leading shape.
    """
    state, center, velocity, axes = (np.asarray(a, dtype=float)
                                     for a in (state, center, velocity, axes))
    lead = np.broadcast_shapes(state.shape[:-1], center.shape[:-1], velocity.shape[:-1],
                               axes.shape[:-1])
    x, y, theta, v = (state[..., i] for i in range(4))
    ct, st = np.cos(theta), np.sin(theta)
    dx = center[..., 0] - x
    dy = center[..., 1] - y
    wx = velocity[..., 0] - v * ct
    wy = velocity[..., 1] - v * st
    a2 = axes[..., 0] * axes[..., 0]
    b2 = axes[..., 1] * axes[..., 1]
    h1 = dx * dx / a2 + dy * dy / b2 - 1.0
    h1dot = 2.0 * dx * wx / a2 + 2.0 * dy * wy / b2
    return h1, h1dot, (state, velocity, v, ct, st, dx, dy, wx, wy, a2, b2), lead


def _slip(parts):
    """2 dx v sin th / c1^2 - 2 dy v cos th / c2^2 of ``_ellipse``'s pieces: the
    ellipse's bicycle slip column and the HOCBF's dh2/dtheta."""
    _, _, v, ct, st, dx, dy, _, _, a2, b2 = parts
    return 2.0 * dx * v * st / a2 - 2.0 * dy * v * ct / b2


def ellipse_terms(state, center, velocity, axes, model: str):
    """Ellipse distance barrier h = ((cx-x)/c1)^2 + ((cy-y)/c2)^2 - 1.

    For the acceleration unicycle L_g h is identically zero (the inputs
    never appear in hdot); for the bicycle only the slip column survives.
    Returned so a filter can flag the missing input authority instead of
    silently dividing by zero.
    """
    h, lf, parts, lead = _ellipse(state, center, velocity, axes)
    if model not in ("unicycle", "bicycle"):
        raise ValueError(f"ellipse barrier supports unicycle or bicycle, got {model!r}")
    lg = np.zeros(lead + (2,))
    if model == "bicycle":
        lg[..., 1] = _slip(parts)
    # h reads no obstacle velocity; L_f h reads every input, so it has the leading shape.
    return h if np.shape(h) == lead else np.broadcast_to(h, lead).copy(), lf, lg


def hocbf_terms(state, center, velocity, axes, kappa1: ClassK, model: str,
                rear_axle: Optional[float] = None):
    """Second-order ellipse barrier h2 = h1dot + kappa1(h1) and its derivatives.

    h1dot is taken along the drift (for the unicycle that is the full hdot;
    the bicycle's slip contribution to h1dot belongs to the input and is
    excluded from the definition of h2). The chain rule below is hand
    derived; the test suite checks it against central finite differences.
    """
    h1, h1dot, parts, lead = _ellipse(state, center, velocity, axes)
    dh2_dth = _slip(parts)
    state, velocity, v, ct, st, dx, dy, wx, wy, a2, b2 = parts
    h2 = h1dot + kappa1(h1)
    k1p = kappa1.derivative(h1)

    dh2_dx = -2.0 * wx / a2 - 2.0 * k1p * dx / a2
    dh2_dy = -2.0 * wy / b2 - 2.0 * k1p * dy / b2
    dh2_dv = -2.0 * dx * ct / a2 - 2.0 * dy * st / b2
    # Obstacle states drift with cdot; their partials mirror the vehicle's.
    obstacle_drift = -dh2_dx * velocity[..., 0] - dh2_dy * velocity[..., 1]

    lg_beta = 0.0
    if model == "unicycle":
        omega = state[..., 4]
        lf = dh2_dx * v * ct + dh2_dy * v * st + dh2_dth * omega + obstacle_drift
    elif model == "bicycle":
        if rear_axle is None:
            raise ValueError("bicycle HOCBF needs the rear axle distance")
        lf = dh2_dx * v * ct + dh2_dy * v * st + obstacle_drift
        lg_beta = dh2_dx * (-v * st) + dh2_dy * (v * ct) + dh2_dth * (v / rear_axle)
    else:
        raise ValueError(f"HOCBF barrier supports unicycle or bicycle, got {model!r}")
    lg = np.empty(lead + (2,))
    lg[..., 0], lg[..., 1] = dh2_dv, lg_beta
    return h2, lf, lg


def barrier_terms(barrier: str, model: str, state, rel, center, velocity, axes, radius,
                  body_offset: float = 0.0, rear_axle: Optional[float] = None,
                  kappa1: Optional[ClassK] = None):
    """(h, L_f h, L_g h) of one barrier kind on one vehicle model.

    The one (barrier, model) dispatch to the array cores; it broadcasts
    exactly as they do. The cone reads the state, ``rel`` =
    ``relative_motion(reference_kinematics(model, state, body_offset),
    center, velocity)`` and radius (and body_offset, rear_axle); the
    ellipse candidates read the state, center, velocity, axes and kappa1,
    so a caller that evaluates only them may pass None for ``rel``. A pair
    outside ``BARRIER_MODELS`` raises ValueError. The cores are looked up
    by name on every call, so a wrapper installed on this module sees each
    one.
    """
    if model not in BARRIER_MODELS.get(barrier, ()):
        raise ValueError(f"the {barrier} barrier is not defined for the {model} model")
    if barrier == "c3bf":
        if model == "unicycle":
            return c3bf_unicycle_terms(state, rel, radius, body_offset)
        if model == "bicycle":
            return c3bf_bicycle_terms(state, rel, radius, rear_axle)
        return c3bf_pointmass_terms(state, rel, radius)
    if barrier == "ellipse":
        return ellipse_terms(state, center, velocity, axes, model)
    return hocbf_terms(state, center, velocity, axes, kappa1, model, rear_axle)
