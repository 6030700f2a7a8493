"""Closed-loop scenario engine: obstacle kinematics, filtering, tracing.

A scenario fixes one vehicle, a list of moving elliptical obstacles with
piecewise-constant velocities, a reference controller and a barrier kind.
The obstacle tracks (centers and velocities at every step) are built as
arrays before the loop. The loop runs on Python floats: the state is a
list of floats, and each step reads its row of the tracks as lists
(``centers[k].tolist()``). Per obstacle, ``barriers.relative_motion`` of
the step's one ``barriers.reference_kinematics`` call gives the separation
for the halt and the row test (in the perception radius and, for the cone,
outside the combined radius with relative speed above ``EPS_V``; none on
shadow runs). Each row is one ``barriers.barrier_terms`` call on floats,
and the QP gets the rows ``L_g h`` (m, 2) and ``-L_f h - kappa(h)`` (m,) as
arrays (a step without a row passes (0, 2) and (0,), which the QP answers
inactive at once). The QP answer is clipped to the input bounds (the QP
itself is unbounded) and held, as a list, for one RK4 step of the list
state. The state, the reference and filtered inputs, psi (by row index;
NaN without a row: the constrained flags), the active rows and the
infeasible and saturated flags go to preallocated logs. After the loop,
one array pass over the logged states (T, 1, n) against the tracks
(T, n_obs, 2) gives every obstacle's separation, relative speed and h at
every step, bit for bit what a float row gives, and forms the perception
and degenerate-velocity masks and the NaN of h where the cone is
undefined (an obstacle inside its combined radius has no cone and builds
no row).

Float arithmetic overflows to inf silently (an overflowing track holds
inf), so the pass judges a blow-up: one ArithmeticError names the first
step at which a separation, a relative speed or an h where the cone is
defined is not finite. Else it names a failure the loop recorded at its
step and stopped on: a NumPy overflow under the loop's ``np.errstate``, a
non-finite QP row or RK4 state. The cone's out-of-domain NaN and inf arise
only in the pass, whose own errstate ignores them until they are masked.
The ``ScenarioTrace`` keeps the logs and masks as the run's per-step
record, and ``ScenarioTrace.edges`` alone turns its flags into events,
collisions, halting, event counts and the CSV flag columns.

Collisions (separation at or below the combined radius) are recorded and
the run continues by default so traces stay analyzable; ``halt_on_collision``
truncates instead. With the barrier disabled the cone value is still logged
as a shadow metric so negative controls can show what was violated.

``classify_behavior`` reduces a trace to one of the canonical avoidance
outcomes (turning, braking, reversing, overtaking) using the explicit
thresholds defined next to it. It is the one judgement kept here, because
``ScenarioTrace.summary`` labels every run with it and ``claims`` imports
this module; the per-trace audits and every judge bound live in ``claims``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import barriers as B
from .models import integrate_step, model_dynamics
from .safety_filter import (
    PathTrackerGains,
    QpProblem,
    reference_p_controller,
    reference_path_tracker,
    solve_multi_constraint,
)
from .scenarios import ScenarioConfig
from .scenarios import ObstacleConfig  # noqa: F401  (bench/crowd.py imports it from here)


@dataclass(frozen=True)
class SimEvent:
    """One discrete occurrence in a run."""

    kind: str  # collision | degenerate_velocity | infeasible | perception_entry | saturation
    time: float
    obstacle: Optional[int] = None
    detail: str = ""


@dataclass
class ScenarioTrace:
    """The per-step record of one run; ``edges`` derives its events.

    Row k holds the state at t = k dt together with the inputs and
    constraint quantities computed there; the input of the final row is
    computed but never applied. Per-obstacle columns (T, n_obs) hold NaN
    where the quantity was undefined (outside the cone domain, degenerate
    relative velocity, or no constraint row). ``degenerate`` flags a cone
    obstacle outside its combined radius (``radii``, (n_obs,)) at relative
    speed <= ``EPS_V``; ``infeasible`` and ``saturated`` (T,) flag a QP with
    no feasible input and a QP answer the input bounds clipped.
    """

    config: ScenarioConfig
    t: np.ndarray
    states: np.ndarray
    u_ref: np.ndarray
    u_star: np.ndarray
    h: np.ndarray
    psi: np.ndarray
    sep: np.ndarray
    in_range: np.ndarray
    constrained: np.ndarray
    qp_active: np.ndarray
    degenerate: np.ndarray
    infeasible: np.ndarray
    saturated: np.ndarray
    obstacle_centers: np.ndarray
    obstacle_velocities: np.ndarray
    radii: np.ndarray

    @property
    def u_safe(self) -> np.ndarray:
        return self.u_star - self.u_ref

    @property
    def filter_active(self) -> np.ndarray:
        return np.max(np.abs(self.u_safe), axis=1) > 1e-12

    def edges(self) -> dict[str, np.ndarray]:
        """Rising edges of the flags by event kind, in event order: (T, n_obs) per
        obstacle, else (T,). A degenerate velocity counts only while in range."""
        def rising(flags):
            return flags & ~np.concatenate([np.zeros_like(flags[:1]), flags[:-1]])

        return {"collision": rising(self.sep <= self.radii),
                "perception_entry": rising(self.in_range),
                "degenerate_velocity": rising(self.degenerate) & self.in_range,
                "infeasible": rising(self.infeasible), "saturation": rising(self.saturated)}

    @cached_property
    def events(self) -> tuple[SimEvent, ...]:
        """The edges as events: by step, then by kind in ``edges`` order, then by obstacle."""
        found = []
        for kind, edge in self.edges().items():
            for k, *i in zip(*np.nonzero(edge)):  # i is [obstacle] for per-obstacle flags
                obstacle = int(i[0]) if i else None
                detail = (f"separation {self.sep[k, obstacle]:.3f} <= r {self.radii[obstacle]:.3f}"
                          if kind == "collision" else "")
                found.append((k, SimEvent(kind, float(self.t[k]), obstacle, detail)))
        # A stable sort by step keeps the kind order, then the obstacle order.
        return tuple(event for _, event in sorted(found, key=lambda f: f[0]))

    @property
    def halted(self) -> bool:
        return self.config.halt_on_collision and self.collided()

    def collided(self) -> bool:
        return bool(self.edges()["collision"].any())

    def min_h(self) -> float:
        return float(np.nanmin(self.h)) if np.any(np.isfinite(self.h)) else math.nan

    def min_separation(self) -> float:
        return float(np.min(self.sep)) if self.sep.size else math.nan

    def max_abs_beta(self) -> Optional[float]:
        if self.config.model != "bicycle":
            return None
        return float(np.max(np.abs(self.u_star[:, 1])))

    def summary(self) -> dict:
        return {
            "name": self.config.name,
            "model": self.config.model,
            "barrier": self.config.barrier,
            "behavior": classify_behavior(self),
            "collision_free": not self.collided(),
            "min_h": self.min_h(),
            "min_separation": self.min_separation(),
            "max_abs_beta": self.max_abs_beta(),
            "halted": self.halted,
            "events": {k: int(e.sum()) for k, e in sorted(self.edges().items()) if e.any()},
        }


def _make_controller(cfg: ScenarioConfig):
    if cfg.path is not None:
        gains = cfg.path_gains or PathTrackerGains(v_des=cfg.controller.v_des,
                                                   k_speed=cfg.controller.k_speed)
        path, l_f, l_r = np.asarray(cfg.path, dtype=float), cfg.wheelbase_front, cfg.wheelbase_rear
        return lambda state: reference_path_tracker(state, path, l_f, l_r, gains)

    return lambda state: reference_p_controller(cfg.model, state, cfg.controller)


def run_scenario(cfg: ScenarioConfig) -> ScenarioTrace:
    """Simulate one scenario deterministically and return its trace.

    Per step, on Python floats: each obstacle's relative motion and row
    test, one barrier call per row, the QP and one RK4 step. After the
    loop, one array pass logs every obstacle's separation, relative speed
    and h, and forms the range, collision and degenerate masks and h's NaN.
    A blown-up run has no trace: it raises ArithmeticError naming the
    scenario and the first step at which a separation, a relative speed or
    an h the cone defines is non-finite; if there is none, the step at which
    the loop failed (a NumPy overflow, a non-finite constraint row or a
    non-finite integrated state) and that failure's message.
    """
    n_steps = int(round(cfg.duration / cfg.dt))
    n_rec = n_steps + 1
    n_obs = len(cfg.obstacles)

    dyn = model_dynamics(cfg.model, cfg.wheelbase_rear)
    controller = _make_controller(cfg)
    shadow_only = cfg.barrier == "none"
    barrier = "c3bf" if shadow_only else cfg.barrier
    cone = barrier == "c3bf"  # the cone's domain also masks the shadow runs' h
    kappa1 = cfg.kappa1 or cfg.kappa

    x = [float(v) for v in cfg.initial_state]
    axes = np.array([o.semi_axes for o in cfg.obstacles], dtype=float).reshape(n_obs, 2)
    radii = B.combined_radius(axes, cfg.width)
    axes_rows, radii_rows = axes.tolist(), radii.tolist()
    bounds = None if cfg.input_bounds is None else np.asarray(cfg.input_bounds, dtype=float)
    # A row: in range and, for the cone, in its domain; shadow runs build none.
    reach = -math.inf if shadow_only else cfg.perception_radius
    lower, vfloor = (radii_rows, B.EPS_V) if cone else ([-math.inf] * n_obs, -math.inf)

    t = np.arange(n_rec) * cfg.dt
    states = np.zeros((n_rec, len(x)))
    u_ref_log, u_star_log = np.zeros((2, n_rec, 2))
    psi_log = np.full((n_rec, n_obs), np.nan)
    qp_active_log = np.zeros((n_rec, n_obs), dtype=bool)
    infeasible_log, saturated_log = np.zeros((2, n_rec), dtype=bool)

    # Obstacle tracks; an accumulate adds in order, so c_{k+1} = c_k + v_k dt bit for bit,
    # and an overflow leaves inf, which the pass after the loop reports at its step.
    velocities = np.empty((n_rec, n_obs, 2))
    for i, o in enumerate(cfg.obstacles):
        velocities[:, i] = o.velocity
        for t_change, v in o.velocity_schedule:
            velocities[np.searchsorted(t, t_change - 1e-12):, i] = v
    with np.errstate(all="ignore"):
        centers = np.cumsum(np.concatenate(
            [np.array([o.center for o in cfg.obstacles], dtype=float).reshape(1, n_obs, 2),
             velocities[:-1] * cfg.dt]), axis=0)

    pinned = []  # obstacles whose rows pinned the last QP answer
    failure = None
    try:
        with np.errstate(over="raise", divide="ignore", invalid="ignore"):
            for k in range(n_rec):
                states[k] = x
                kinematics = B.reference_kinematics(cfg.model, x, cfg.body_offset)
                center, velocity = centers[k].tolist(), velocities[k].tolist()
                rels = [B.relative_motion(kinematics, c, v) for c, v in zip(center, velocity)]
                sep = [math.sqrt(rel[2]) for rel in rels]
                u_ref = u_ref_log[k] = controller(x)
                row_obstacle, lg_rows, b_rows = [], [], []
                for i, (rel, s, low) in enumerate(zip(rels, sep, lower)):
                    if low < s <= reach and rel[3] > vfloor:
                        h, lf, lg = B.barrier_terms(
                            barrier, cfg.model, x, rel, center[i], velocity[i], axes_rows[i],
                            radii_rows[i], body_offset=cfg.body_offset,
                            rear_axle=cfg.wheelbase_rear, kappa1=kappa1)
                        row_obstacle.append(i)
                        lg_rows.append(lg)
                        b_rows.append(-lf - cfg.kappa(h))
                # The previous step's basis, as rows of this step, if all its obstacles kept a row.
                hint = (tuple(map(row_obstacle.index, pinned))
                        if set(pinned) <= set(row_obstacle) else ())
                qp = QpProblem(u_ref, np.array(lg_rows, dtype=float).reshape(-1, 2),
                               np.array(b_rows, dtype=float))
                result = solve_multi_constraint(qp, hint)
                pinned = [row_obstacle[j] for j in result.basis]
                infeasible_log[k] = result.status == "infeasible"

                u_star = result.u_star
                if bounds is not None:
                    clipped = np.clip(u_star, bounds[0], bounds[1])
                    saturated_log[k] = not np.array_equal(clipped, u_star)
                    u_star = clipped

                for i, psi in zip(row_obstacle, result.psi.tolist()):
                    psi_log[k, i] = psi
                for j in result.active_set:
                    qp_active_log[k, row_obstacle[j]] = True
                u_star_log[k] = u_star

                if cfg.halt_on_collision and any(s <= r for s, r in zip(sep, radii_rows)):
                    break

                if k < n_rec - 1:
                    x = integrate_step(dyn, x, u_star.tolist(), cfg.dt).tolist()
    except ArithmeticError as exc:
        failure = exc  # judged below, after the steps up to this one

    # Step k is the last one logged: the final step, a halt or a failure.
    sl = slice(0, k + 1)
    logged = states[sl, None]
    centers, velocities = centers[sl], velocities[sl]
    # Every obstacle at every step in one array pass; outside the cone's
    # domain (masked below) its sqrt and division give NaN and inf, and the
    # L_f h and L_g h of obstacles without a row are not used.
    with np.errstate(all="ignore"):
        rel = B.relative_motion(B.reference_kinematics(cfg.model, logged, cfg.body_offset),
                                centers, velocities)
        h = B.barrier_terms(barrier, cfg.model, logged, rel, centers, velocities, axes, radii,
                            body_offset=cfg.body_offset, rear_axle=cfg.wheelbase_rear,
                            kappa1=kappa1)[0]
        sep, speed = np.sqrt(rel[2]), rel[3]
    in_range = sep <= cfg.perception_radius
    colliding = sep <= radii
    slow = speed <= B.EPS_V
    # The cone is undefined inside the combined radius and at zero relative speed.
    skip = (colliding | slow) & cone
    blown = ~(np.isfinite(sep) & np.isfinite(speed) & (np.isfinite(h) | skip)).all(axis=1)
    if blown.any():  # the first step wins over the loop's own failure
        k, failure = blown.argmax(), "non-finite separation, relative speed or barrier value"
    if failure is not None:
        raise ArithmeticError(f"{cfg.name}: run blew up at t = {t[k]:g}: {failure}")
    h[skip] = np.nan
    return ScenarioTrace(
        config=cfg,
        t=t[sl], states=states[sl], u_ref=u_ref_log[sl], u_star=u_star_log[sl],
        h=h, psi=psi_log[sl], sep=sep, in_range=in_range,
        constrained=~np.isnan(psi_log[sl]), qp_active=qp_active_log[sl],
        degenerate=~colliding & slow & cone, infeasible=infeasible_log[sl],
        saturated=saturated_log[sl], obstacle_centers=centers,
        obstacle_velocities=velocities, radii=radii,
    )


# Thresholds of the trace classifier.
REVERSE_SPEED = -0.05
"""Speed (m/s) below which a correcting filter counts as reversing."""
BRAKING_DROP = 0.5
"""Fraction of the speed at first filter activity that braking must shed."""
HEADING_DEG = 15.0
"""Heading deviation (degrees) that separates turning from braking."""
OVERTAKE_LATERAL_MIN = 0.05
"""Least lateral excursion (m) of an overtaking pass."""
OVERTAKE_QUIET_FRAC = 0.05
"""Final fraction of the run in which an overtaking filter must be quiet."""
OBSTACLE_MOVING_EPS = 1e-3
"""Mean obstacle speed (m/s) above which an obstacle counts as moving."""


def _speed_series(trace: ScenarioTrace) -> np.ndarray:
    if trace.config.model in ("unicycle", "bicycle"):
        return trace.states[:, 3]
    vel = trace.states[:, 2:4]
    speeds = np.linalg.norm(vel, axis=1)
    ref = vel[np.argmax(speeds)] if np.max(speeds) > 1e-9 else np.array([1.0, 0.0])
    ref = ref / np.linalg.norm(ref)
    return vel @ ref


def _heading_series(trace: ScenarioTrace) -> np.ndarray:
    if trace.config.model in ("unicycle", "bicycle"):
        return trace.states[:, 2]
    vel = trace.states[:, 2:4]
    heading = np.zeros(vel.shape[0])
    current = 0.0
    for i, v in enumerate(vel):
        if np.linalg.norm(v) > 1e-6:
            current = math.atan2(v[1], v[0])
        heading[i] = current
    return heading


def classify_behavior(trace: ScenarioTrace) -> str:
    """Label a trace as turning, braking, reversing, overtaking or none.

    Precedence: reversing (speed below the reverse threshold while the
    filter is correcting) beats overtaking (passing a moving obstacle along
    its travel direction with a lateral excursion and a quiet filter at the
    end) beats turning (heading deviation past the threshold with forward
    speed throughout) beats braking (speed drop past the fraction with the
    heading essentially held).
    """
    speed = _speed_series(trace)
    heading = _heading_series(trace)
    active = trace.filter_active
    if not np.any(active):
        return "none"
    heading_dev = np.abs(heading - heading[0])
    max_heading_deg = math.degrees(float(np.max(heading_dev)))

    if float(np.min(speed[active])) < REVERSE_SPEED:
        return "reversing"

    quiet_n = max(1, int(round(OVERTAKE_QUIET_FRAC * speed.shape[0])))
    quiet_at_end = not np.any(active[-quiet_n:])
    for i in range(trace.obstacle_centers.shape[1]):
        displacement = trace.obstacle_centers[-1, i] - trace.obstacle_centers[0, i]
        if np.linalg.norm(displacement) <= OBSTACLE_MOVING_EPS * trace.t[-1]:
            continue
        direction = displacement / np.linalg.norm(displacement)
        pos = trace.states[:, 0:2]
        proj_v = pos @ direction
        proj_o = trace.obstacle_centers[:, i, :] @ direction
        lateral = np.abs((pos - pos[0]) @ np.array([-direction[1], direction[0]]))
        if (proj_v[0] < proj_o[0] and proj_v[-1] > proj_o[-1]
                and float(np.max(lateral)) >= OVERTAKE_LATERAL_MIN and quiet_at_end):
            return "overtaking"

    if max_heading_deg >= HEADING_DEG and np.all(speed > 0.0):
        return "turning"

    first_active = int(np.argmax(active))
    v0 = float(speed[first_active])
    v_min_after = float(np.min(speed[first_active:]))
    if (abs(v0) > 1e-9 and (v0 - v_min_after) >= BRAKING_DROP * abs(v0)
            and v_min_after > REVERSE_SPEED and max_heading_deg < HEADING_DEG):
        return "braking"
    return "none"
