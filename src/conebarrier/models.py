"""Vehicle models as plain functions of raw states, and fixed-step integration.

Three model families are provided, all with accelerations (not velocities)
as inputs so that a safety filter can act on the same quantities a drive
train actually receives:

* acceleration-controlled unicycle
      state (x_p, y_p, theta, v, omega), input (a, alpha)
      xdot = (v cos th, v sin th, omega, a, alpha)

* kinematic bicycle with small slip angle
      state (x_p, y_p, theta, v), input (a, beta)
      xdot = (v cos th - v beta sin th, v sin th + v beta cos th,
              (v / l_r) beta, a)
  The exact (non-affine) variant with sin/cos of beta is kept as
  ``bicycle_dynamics_exact`` (a field on floats, like the models') so
  closed-loop runs can be re-checked against it; the affine small-beta form
  is what the filter and simulator use.

* planar point mass
      state (px, py, vx, vy), input (ax, ay)

A model is its name in ``MODELS`` and, for the bicycle, the rear-axle
distance ``l_r`` as a float. ``drift`` (f) and ``actuation`` (g) are the
array cores of xdot = f(x) + g(x) u over raw states (..., n), the tests'
reference. ``model_dynamics`` gives the field on one state's Python
floats, by the arithmetic of ``drift(x) + actuation(x) @ u`` with
``math.cos``/``math.sin``; ``integrate_step`` runs it on list states with
no NumPy call before its float64 array out. Headings are never wrapped; all
formulas go through sin/cos, and unwrapped angles keep logged traces smooth.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

MODELS = ("unicycle", "bicycle", "pointmass")
STATE_NAMES = {
    "unicycle": ("x_p", "y_p", "theta", "v", "omega"),
    "bicycle": ("x_p", "y_p", "theta", "v"),
    "pointmass": ("px", "py", "vx", "vy"),
}
INPUT_NAMES = {
    "unicycle": ("a", "alpha"),
    "bicycle": ("a", "beta"),
    "pointmass": ("ax", "ay"),
}


def unicycle_dynamics(x: Sequence[float], u: Sequence[float]) -> tuple[float, ...]:
    """The unicycle's field on floats."""
    _, _, theta, v, omega = x
    return (v * math.cos(theta), v * math.sin(theta), omega, u[0], u[1])


def bicycle_dynamics(x: Sequence[float], u: Sequence[float], l_r: float) -> tuple[float, ...]:
    """The small-slip bicycle's field on floats."""
    _, _, theta, v = x
    beta = u[1]
    vc, vs = v * math.cos(theta), v * math.sin(theta)
    return (vc - vs * beta, vs + vc * beta, (v / l_r) * beta, u[0])


def pointmass_dynamics(x: Sequence[float], u: Sequence[float]) -> tuple[float, ...]:
    """The point mass's field on floats."""
    return (x[2], x[3], u[0], u[1])


def model_dynamics(model: str, l_r: Optional[float] = None) -> Callable:
    """The field (x, u) -> xdot on floats of ``model``; only the bicycle reads ``l_r``."""
    _check_axle(model, l_r)
    if model == "bicycle":
        return lambda x, u: bicycle_dynamics(x, u, l_r)
    return unicycle_dynamics if model == "unicycle" else pointmass_dynamics


def drift(model: str, x) -> np.ndarray:
    """Drift f(x) of raw states (..., n), shape (..., n)."""
    _check_model(model)
    x = np.asarray(x, dtype=float)
    f = np.zeros_like(x)
    if model == "pointmass":
        f[..., 0:2] = x[..., 2:4]
        return f
    f[..., 0] = x[..., 3] * np.cos(x[..., 2])
    f[..., 1] = x[..., 3] * np.sin(x[..., 2])
    if model == "unicycle":
        f[..., 2] = x[..., 4]
    return f


def actuation(model: str, x, l_r: Optional[float] = None) -> np.ndarray:
    """Actuation g(x) of raw states (..., n), shape (..., n, 2); only the bicycle reads ``l_r``."""
    _check_axle(model, l_r)
    x = np.asarray(x, dtype=float)
    g = np.zeros(x.shape + (2,))
    if model != "bicycle":
        g[..., -2, 0] = g[..., -1, 1] = 1.0
        return g
    theta, v = x[..., 2], x[..., 3]
    g[..., 3, 0] = 1.0
    g[..., 0, 1] = -v * np.sin(theta)
    g[..., 1, 1] = v * np.cos(theta)
    g[..., 2, 1] = v / l_r
    return g


def _check_model(model: str) -> None:
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")


def _check_axle(model: str, l_r: Optional[float]) -> None:
    """Reject an unknown model, and a bicycle rear axle that is not positive."""
    _check_model(model)
    if model == "bicycle" and not (l_r is not None and l_r > 0):
        raise ValueError(f"rear-axle distance l_r must be positive, got {l_r}")


def bicycle_dynamics_exact(x: Sequence[float], u: Sequence[float],
                           l_r: float) -> tuple[float, ...]:
    """State derivative of the exact bicycle model (no small-angle approximation).

    A field on floats like ``bicycle_dynamics``, but not affine in the
    input; used only to audit how far the small-beta model drifts from the
    exact kinematics under a recorded input sequence.
    """
    theta, v = x[2], x[3]
    a, beta = u[0], u[1]
    return (
        v * math.cos(theta + beta),
        v * math.sin(theta + beta),
        (v / l_r) * math.sin(beta),
        a,
    )


def slip_from_steering(delta: float, l_f: float, l_r: float) -> float:
    """Slip angle beta at the CoM for a front-wheel steering angle delta.

    beta = arctan( l_r / (l_f + l_r) * tan(delta) ); odd and monotone in
    delta. Rejects nonpositive axle distances, and |delta| >= pi/2 where
    the tangent blows up.
    """
    if not (l_f > 0 and l_r > 0):
        raise ValueError(f"axle distances must be positive, got l_f={l_f}, l_r={l_r}")
    if not abs(delta) < math.pi / 2:
        raise ValueError(f"steering angle {delta} outside (-pi/2, pi/2)")
    ratio = l_r / (l_f + l_r)
    return math.atan(ratio * math.tan(delta))


def integrate_step(
    dynamics: Callable[[Sequence[float], Sequence[float]], Sequence[float]],
    state: Sequence[float],
    u: Sequence[float],
    dt: float,
) -> np.ndarray:
    """One classical RK4 step with the input held constant over the step.

    ``dynamics`` is any callable (x, u) -> xdot on sequences of floats, such
    as ``model_dynamics(model, l_r)``. Lists (the engine's) are used as they
    are, other input is read as floats first (NumPy scalars warn on
    overflow); the four stages run on Python floats, in the operation order
    of x + (dt/6) (k1 + 2 k2 + 2 k3 + k4), and one float64 array is returned.
    Raises ArithmeticError, integration blow-up rather than NaNs, when the
    update is non-finite or a stage on a non-finite state raises ValueError
    (as ``math.cos`` does on inf); a finite stage's ValueError propagates.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if type(state) is not list or type(u) is not list:
        state, u = np.asarray(state, dtype=float).tolist(), np.asarray(u, dtype=float).tolist()
    half = 0.5 * dt
    stage = state
    try:
        k1 = dynamics(stage, u)
        k2 = dynamics(stage := [xi + half * ki for xi, ki in zip(state, k1)], u)
        k3 = dynamics(stage := [xi + half * ki for xi, ki in zip(state, k2)], u)
        k4 = dynamics(stage := [xi + dt * ki for xi, ki in zip(state, k3)], u)
    except ValueError:
        if all(map(math.isfinite, stage)):
            raise
        raise ArithmeticError("integration blow-up: non-finite RK4 stage") from None
    sixth = dt / 6.0
    out = [xi + sixth * (a + 2.0 * b + 2.0 * c + d)
           for xi, a, b, c, d in zip(state, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise ArithmeticError("integration blow-up: non-finite state after RK4 step")
    return np.array(out)
