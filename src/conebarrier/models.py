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
  ``bicycle_dynamics_exact`` (on raw state and input arrays) so closed-loop
  runs can be re-checked against it; the affine small-beta form is what the
  filter and simulator use.

* planar point mass
      state (px, py, vx, vy), input (ax, ay)

Every model is an :class:`AffineDynamics` object (drift ``f`` plus
actuation ``g``) over raw state and input arrays, called as ``dyn(x, u)`` by
the integrator and the simulator. Headings are never wrapped; all formulas
go through sin/cos, and unwrapped angles keep logged traces smooth.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable

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
    """Control-affine system xdot = f(x) + g(x) u on raw state arrays."""

    state_dim: int
    input_dim: int

    @abc.abstractmethod
    def drift(self, x: np.ndarray) -> np.ndarray:
        """Drift field f(x), shape (state_dim,)."""

    @abc.abstractmethod
    def actuation(self, x: np.ndarray) -> np.ndarray:
        """Actuation matrix g(x), shape (state_dim, input_dim)."""

    def __call__(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        return self.drift(x) + self.actuation(x) @ np.asarray(u, dtype=float)


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


def bicycle_dynamics_exact(x: np.ndarray, u: np.ndarray, geom: BicycleGeometry) -> np.ndarray:
    """State derivative of the exact bicycle model (no small-angle approximation).

    Takes one raw state (x_p, y_p, theta, v) and input (a, beta). Not affine
    in the input; used only to audit how far the small-beta model drifts
    from the exact kinematics under a recorded input sequence.
    """
    theta, v = x[2], x[3]
    a, beta = u[0], u[1]
    return np.array([
        v * math.cos(theta + beta),
        v * math.sin(theta + beta),
        (v / geom.l_r) * math.sin(beta),
        a,
    ])


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
    dynamics: Callable[[np.ndarray, np.ndarray], np.ndarray],
    state: np.ndarray,
    u: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One classical RK4 step with the input held constant over the step.

    ``dynamics`` is any callable (x, u) -> xdot; AffineDynamics instances
    qualify. Raises ArithmeticError when the update is non-finite, which
    signals integration blow-up rather than silently propagating NaNs.
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    x = np.asarray(state, dtype=float)
    u = np.asarray(u, dtype=float)
    k1 = dynamics(x, u)
    k2 = dynamics(x + 0.5 * dt * k1, u)
    k3 = dynamics(x + 0.5 * dt * k2, u)
    k4 = dynamics(x + dt * k3, u)
    out = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(out)):
        raise ArithmeticError("integration blow-up: non-finite state after RK4 step")
    return out
