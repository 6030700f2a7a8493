"""Control-affine vehicle models and fixed-step integration.

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

Every model is an :class:`AffineDynamics` object, which ``model_dynamics``
builds from the model's name. ``drift`` (f) and ``actuation`` (g) are its
affine decomposition on raw state arrays, the reference the tests check
against; calling it as ``dyn(x, u)`` evaluates the
closed-form field on Python floats with ``math.cos``/``math.sin``, by the
arithmetic of ``drift(x) + actuation(x) @ u``, so that ``integrate_step`` runs
its four stages without per-call NumPy dispatch on 4- and 5-element arrays.
Headings are never wrapped; all formulas go through sin/cos, and unwrapped
angles keep logged traces smooth.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


@dataclass(frozen=True)
class BicycleGeometry:
    """Axle distances from the center of mass, both strictly positive."""

    l_f: float
    l_r: float

    def __post_init__(self) -> None:
        if not (self.l_f > 0 and self.l_r > 0):
            raise ValueError(f"axle distances must be positive, got l_f={self.l_f}, l_r={self.l_r}")


class AffineDynamics(abc.ABC):
    """Control-affine system xdot = f(x) + g(x) u on raw states."""

    state_dim: int
    input_dim: int

    @abc.abstractmethod
    def drift(self, x: np.ndarray) -> np.ndarray:
        """Drift field f(x), shape (state_dim,)."""

    @abc.abstractmethod
    def actuation(self, x: np.ndarray) -> np.ndarray:
        """Actuation matrix g(x), shape (state_dim, input_dim)."""

    @abc.abstractmethod
    def __call__(self, x: Sequence[float], u: Sequence[float]) -> tuple[float, ...]:
        """Closed-form field f(x) + g(x) u as floats, by the arithmetic of
        ``drift(x) + actuation(x) @ u``."""


class UnicycleDynamics(AffineDynamics):
    """Acceleration-controlled unicycle; g is constant."""

    state_dim = 5
    input_dim = 2

    def drift(self, x: np.ndarray) -> np.ndarray:
        _, _, theta, v, omega = x
        return np.array([v * np.cos(theta), v * np.sin(theta), omega, 0.0, 0.0])

    def actuation(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros((5, 2))
        g[3, 0] = 1.0
        g[4, 1] = 1.0
        return g

    def __call__(self, x, u):
        _, _, theta, v, omega = x
        return (v * math.cos(theta), v * math.sin(theta), omega, u[0], u[1])


class BicycleDynamics(AffineDynamics):
    """Small-slip kinematic bicycle; beta enters the actuation matrix."""

    state_dim = 4
    input_dim = 2

    def __init__(self, geometry: BicycleGeometry):
        self.geometry = geometry

    def drift(self, x: np.ndarray) -> np.ndarray:
        _, _, theta, v = x
        return np.array([v * np.cos(theta), v * np.sin(theta), 0.0, 0.0])

    def actuation(self, x: np.ndarray) -> np.ndarray:
        _, _, theta, v = x
        return np.array([
            [0.0, -v * np.sin(theta)],
            [0.0, v * np.cos(theta)],
            [0.0, v / self.geometry.l_r],
            [1.0, 0.0],
        ])

    def __call__(self, x, u):
        _, _, theta, v = x
        beta = u[1]
        vc, vs = v * math.cos(theta), v * math.sin(theta)
        return (vc - vs * beta, vs + vc * beta, (v / self.geometry.l_r) * beta, u[0])


class PointMassDynamics(AffineDynamics):
    """Planar double integrator in block form."""

    state_dim = 4
    input_dim = 2

    def drift(self, x: np.ndarray) -> np.ndarray:
        return np.array([x[2], x[3], 0.0, 0.0])

    def actuation(self, x: np.ndarray) -> np.ndarray:
        g = np.zeros((4, 2))
        g[2, 0] = 1.0
        g[3, 1] = 1.0
        return g

    def __call__(self, x, u):
        return (x[2], x[3], u[0], u[1])


def model_dynamics(model: str, geometry: BicycleGeometry) -> AffineDynamics:
    """The dynamics of one of ``MODELS``; only the bicycle reads ``geometry``."""
    if model == "unicycle":
        return UnicycleDynamics()
    if model == "bicycle":
        return BicycleDynamics(geometry)
    return PointMassDynamics()


def bicycle_dynamics_exact(x: Sequence[float], u: Sequence[float],
                           geom: BicycleGeometry) -> tuple[float, ...]:
    """State derivative of the exact bicycle model (no small-angle approximation).

    Takes one raw state (x_p, y_p, theta, v) and input (a, beta) and returns
    the field as floats, like the models' ``__call__``. Not affine in the
    input; used only to audit how far the small-beta model drifts from the
    exact kinematics under a recorded input sequence.
    """
    theta, v = x[2], x[3]
    a, beta = u[0], u[1]
    return (
        v * math.cos(theta + beta),
        v * math.sin(theta + beta),
        (v / geom.l_r) * math.sin(beta),
        a,
    )


def slip_from_steering(delta: float, geom: BicycleGeometry) -> float:
    """Slip angle beta at the CoM for a front-wheel steering angle delta.

    beta = arctan( l_r / (l_f + l_r) * tan(delta) ); odd and monotone in
    delta. Rejects |delta| >= pi/2 where the tangent blows up.
    """
    if not abs(delta) < math.pi / 2:
        raise ValueError(f"steering angle {delta} outside (-pi/2, pi/2)")
    ratio = geom.l_r / (geom.l_f + geom.l_r)
    return math.atan(ratio * math.tan(delta))


def integrate_step(
    dynamics: Callable[[Sequence[float], Sequence[float]], Sequence[float]],
    state: np.ndarray,
    u: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One classical RK4 step with the input held constant over the step.

    ``dynamics`` is any callable (x, u) -> xdot on sequences of floats;
    AffineDynamics instances and ``bicycle_dynamics_exact`` qualify. The four
    stages run on Python floats, in the operation order of the array form
    x + (dt/6) (k1 + 2 k2 + 2 k3 + k4), and one float64 array is returned.
    Raises ArithmeticError when a stage or the update is non-finite, which
    signals integration blow-up rather than silently propagating NaNs.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = np.asarray(state, dtype=float).tolist()
    u = np.asarray(u, dtype=float).tolist()
    half = 0.5 * dt
    k1 = _field(dynamics, x, u)
    k2 = _field(dynamics, [xi + half * ki for xi, ki in zip(x, k1)], u)
    k3 = _field(dynamics, [xi + half * ki for xi, ki in zip(x, k2)], u)
    k4 = _field(dynamics, [xi + dt * ki for xi, ki in zip(x, k3)], u)
    sixth = dt / 6.0
    out = [xi + sixth * (a + 2.0 * b + 2.0 * c + d)
           for xi, a, b, c, d in zip(x, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise ArithmeticError("integration blow-up: non-finite state after RK4 step")
    return np.array(out)


def _field(dynamics, x: list, u: list):
    """dynamics(x, u) at one RK4 stage; an infinite stage is a blow-up.

    ``math.cos``/``math.sin`` reject infinite arguments with ValueError; a
    ValueError from a finite stage is the caller's and propagates.
    """
    try:
        return dynamics(x, u)
    except ValueError:
        if all(map(math.isfinite, x)):
            raise
        raise ArithmeticError("integration blow-up: non-finite RK4 stage") from None
