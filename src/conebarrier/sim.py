"""Closed-loop scenario engine: obstacle kinematics, filtering, tracing, audits.

A scenario fixes one vehicle, a list of moving elliptical obstacles with
piecewise-constant velocities, a reference controller and a barrier kind.
Each step the engine takes the protected point and its velocity from
``barriers.reference_kinematics`` once, gates obstacles by a perception
radius, builds one constraint row per visible admissible obstacle through
``barriers.barrier_terms``, solves the filter QP, clips the result to the
configured input bounds (the QP itself is unbounded), integrates one RK4
step with the filtered input held constant, and logs everything needed to
reconstruct the run: states, both inputs, per-obstacle barrier values and
switching scalars, separations, and discrete events (perception entry,
degenerate relative velocity, QP infeasibility, collision, saturation).
An obstacle inside its combined radius has no cone and builds no row; the
collision event records it.

Collisions (separation at or below the combined radius) are recorded and
the run continues by default so traces stay analyzable; ``halt_on_collision``
truncates instead. With the barrier disabled the cone value is still logged
as a shadow metric so negative controls can show what was violated.

``classify_behavior`` reduces a trace to one of the canonical avoidance
outcomes (turning, braking, reversing, overtaking) using explicit,
configurable thresholds; the audits quantify forward invariance, the
decay rate of boundary violations, and how far the small-slip bicycle
strays from the exact kinematics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from . import barriers as B
from .models import (
    MODELS,
    STATE_NAMES,
    BicycleDynamics,
    BicycleGeometry,
    BicycleState,
    PointMassDynamics,
    UnicycleDynamics,
    bicycle_dynamics_exact,
    integrate_step,
)
from .safety_filter import (
    ConstraintRow,
    PathTrackerGains,
    QpProblem,
    ReferenceController,
    reference_p_controller,
    reference_path_tracker,
    solve_multi_constraint,
)

BARRIER_KINDS = ("c3bf", "ellipse", "hocbf", "none")


class ConfigError(ValueError):
    """Scenario configuration violates an invariant."""


@dataclass(frozen=True)
class ObstacleConfig:
    """Moving ellipse with optional timed velocity changes."""

    center: tuple[float, float]
    velocity: tuple[float, float] = (0.0, 0.0)
    semi_axes: tuple[float, float] = (1.0, 1.0)
    velocity_schedule: tuple[tuple[float, tuple[float, float]], ...] = ()

    def validate(self) -> None:
        pairs = [("center", self.center), ("velocity", self.velocity),
                 ("semi_axes", self.semi_axes)]
        pairs += [(f"velocity_schedule[{i}].velocity", v)
                  for i, (_, v) in enumerate(self.velocity_schedule)]
        for name, value in pairs:
            if len(value) != 2 or not all(math.isfinite(x) for x in value):
                raise ConfigError(f"obstacle {name} needs two finite entries, got {value}")
        if not (self.semi_axes[0] > 0 and self.semi_axes[1] > 0):
            raise ConfigError(f"obstacle semi-axes must be positive, got {self.semi_axes}")
        times = [t for t, _ in self.velocity_schedule]
        if not all(math.isfinite(t) for t in times):
            raise ConfigError(f"obstacle velocity-change times must be finite, got {times}")
        if times != sorted(times):
            raise ConfigError("obstacle velocity-change times must be sorted")


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete description of one closed-loop run."""

    name: str
    model: str
    initial_state: tuple[float, ...]
    obstacles: tuple[ObstacleConfig, ...]
    controller: ReferenceController
    barrier: str = "c3bf"
    kappa: B.ClassK = field(default_factory=B.ClassK)
    kappa1: Optional[B.ClassK] = None
    body_offset: float = 0.1
    width: float = 0.5
    wheelbase_front: float = 1.2
    wheelbase_rear: float = 1.6
    perception_radius: float = 10.0
    dt: float = 0.01
    duration: float = 10.0
    path: Optional[tuple[tuple[float, float], ...]] = None
    path_gains: Optional[PathTrackerGains] = None
    halt_on_collision: bool = False
    input_bounds: Optional[tuple[tuple[float, ...], tuple[float, ...]]] = None

    def validate(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.barrier not in BARRIER_KINDS:
            raise ConfigError(f"unknown barrier {self.barrier!r}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.duration) and self.duration >= self.dt):
            raise ConfigError(f"duration must be finite and cover at least one step, "
                              f"got {self.duration}")
        expected = len(STATE_NAMES[self.model])
        if len(self.initial_state) != expected:
            raise ConfigError(
                f"{self.model} initial state needs {expected} entries, got {len(self.initial_state)}"
            )
        if not all(math.isfinite(x) for x in self.initial_state):
            raise ConfigError(f"initial state must be finite, got {self.initial_state}")
        if not (self.wheelbase_front > 0 and self.wheelbase_rear > 0):
            raise ConfigError(f"wheelbase distances must be positive, got front="
                              f"{self.wheelbase_front}, rear={self.wheelbase_rear}")
        if not math.isfinite(self.body_offset):
            raise ConfigError(f"body_offset must be finite, got {self.body_offset}")
        if not (self.perception_radius >= 0 and self.width >= 0):
            raise ConfigError(f"perception_radius and width must be nonnegative, got "
                              f"{self.perception_radius} and {self.width}")
        if self.input_bounds is not None:
            lo, hi = self.input_bounds
            if not (len(lo) == 2 and len(hi) == 2):
                raise ConfigError(f"input_bounds sides need two entries each, "
                                  f"got {self.input_bounds}")
            if not all(lo_j <= hi_j for lo_j, hi_j in zip(lo, hi)):
                raise ConfigError(f"input_bounds lower side exceeds upper, "
                                  f"got {self.input_bounds}")
        if self.path is not None and self.model != "bicycle":
            raise ConfigError("path tracking is only wired for the bicycle model")
        for i, obs in enumerate(self.obstacles):
            try:
                obs.validate()
            except ConfigError as exc:
                raise ConfigError(f"obstacles[{i}]: {exc}") from None


@dataclass(frozen=True)
class SimEvent:
    """One discrete occurrence in a run."""

    kind: str  # collision | degenerate_velocity | infeasible | perception_entry | saturation
    time: float
    obstacle: Optional[int] = None
    detail: str = ""


@dataclass
class ScenarioTrace:
    """Uniformly sampled log of one run plus its event list.

    Row k holds the state at t = k dt together with the inputs and
    constraint quantities computed there; the input of the final row is
    computed but never applied. Per-obstacle columns hold NaN where the
    quantity was undefined (outside the cone domain, degenerate relative
    velocity, or no constraint row).
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
    obstacle_centers: np.ndarray
    obstacle_velocities: np.ndarray
    events: tuple[SimEvent, ...]
    halted: bool = False

    @property
    def u_safe(self) -> np.ndarray:
        return self.u_star - self.u_ref

    @property
    def filter_active(self) -> np.ndarray:
        return np.max(np.abs(self.u_safe), axis=1) > 1e-12

    def collided(self) -> bool:
        return any(e.kind == "collision" for e in self.events)

    def min_h(self) -> float:
        return float(np.nanmin(self.h)) if np.any(np.isfinite(self.h)) else math.nan

    def min_separation(self) -> float:
        return float(np.min(self.sep)) if self.sep.size else math.nan

    def max_abs_beta(self) -> Optional[float]:
        if self.config.model != "bicycle":
            return None
        return float(np.max(np.abs(self.u_star[:, 1])))

    def summary(self) -> dict:
        label = classify_behavior(self)
        out = {
            "name": self.config.name,
            "model": self.config.model,
            "barrier": self.config.barrier,
            "behavior": label,
            "collision_free": not self.collided(),
            "min_h": self.min_h(),
            "min_separation": self.min_separation(),
            "max_abs_beta": self.max_abs_beta(),
            "halted": self.halted,
            "events": {
                kind: sum(1 for e in self.events if e.kind == kind)
                for kind in sorted({e.kind for e in self.events})
            },
        }
        return out


def _make_controller(cfg: ScenarioConfig):
    if cfg.path is not None:
        geom = BicycleGeometry(cfg.wheelbase_front, cfg.wheelbase_rear)
        gains = cfg.path_gains or PathTrackerGains(v_des=cfg.controller.v_des,
                                                   k_speed=cfg.controller.k_speed)
        path = np.asarray(cfg.path, dtype=float)

        def controller(state: np.ndarray) -> np.ndarray:
            s = BicycleState(*state)
            return reference_path_tracker(s, path, geom, gains)

        return controller

    return lambda state: reference_p_controller(cfg.model, state, cfg.controller)


def run_scenario(cfg: ScenarioConfig) -> ScenarioTrace:
    """Simulate one scenario deterministically and return its trace."""
    cfg.validate()
    n_steps = int(round(cfg.duration / cfg.dt))
    n_rec = n_steps + 1
    n_obs = len(cfg.obstacles)

    if cfg.model == "unicycle":
        dyn = UnicycleDynamics()
    elif cfg.model == "bicycle":
        dyn = BicycleDynamics(BicycleGeometry(cfg.wheelbase_front, cfg.wheelbase_rear))
    else:
        dyn = PointMassDynamics()
    controller = _make_controller(cfg)
    shadow_only = cfg.barrier == "none"
    cone_domain = cfg.barrier == "c3bf" or shadow_only
    barrier = "c3bf" if shadow_only else cfg.barrier
    kappa1 = cfg.kappa1 or cfg.kappa

    state = np.array(cfg.initial_state, dtype=float)
    centers = np.array([o.center for o in cfg.obstacles], dtype=float).reshape(n_obs, 2)
    velocities = np.array([o.velocity for o in cfg.obstacles], dtype=float).reshape(n_obs, 2)
    axes = np.array([o.semi_axes for o in cfg.obstacles], dtype=float).reshape(n_obs, 2)
    radii = np.array([max(o.semi_axes) + 0.5 * cfg.width for o in cfg.obstacles])
    schedules = [list(o.velocity_schedule) for o in cfg.obstacles]

    t = np.arange(n_rec) * cfg.dt
    states = np.zeros((n_rec, state.shape[0]))
    u_ref_log = np.zeros((n_rec, 2))
    u_star_log = np.zeros((n_rec, 2))
    h_log = np.full((n_rec, n_obs), np.nan)
    psi_log = np.full((n_rec, n_obs), np.nan)
    sep_log = np.zeros((n_rec, n_obs))
    in_range_log = np.zeros((n_rec, n_obs), dtype=bool)
    constrained_log = np.zeros((n_rec, n_obs), dtype=bool)
    qp_active_log = np.zeros((n_rec, n_obs), dtype=bool)
    centers_log = np.zeros((n_rec, n_obs, 2))
    velocities_log = np.zeros((n_rec, n_obs, 2))
    events: list[SimEvent] = []

    was_colliding = np.zeros(n_obs, dtype=bool)
    was_in_range = np.zeros(n_obs, dtype=bool)
    was_degenerate = np.zeros(n_obs, dtype=bool)
    was_infeasible = False
    was_saturated = False
    halted = False
    last = n_rec - 1

    for k in range(n_rec):
        tk = t[k]
        for i in range(n_obs):
            while schedules[i] and tk >= schedules[i][0][0] - 1e-12:
                _, new_v = schedules[i].pop(0)
                velocities[i] = np.asarray(new_v, dtype=float)

        ref_pt, ref_vel = B.reference_kinematics(cfg.model, state, cfg.body_offset)
        p_rel = centers - ref_pt
        sep = np.linalg.norm(p_rel, axis=1)
        in_range = sep <= cfg.perception_radius
        colliding = sep <= radii

        for i in np.nonzero(colliding & ~was_colliding)[0]:
            events.append(SimEvent("collision", float(tk), int(i),
                                   f"separation {sep[i]:.3f} <= r {radii[i]:.3f}"))
        for i in np.nonzero(in_range & ~was_in_range)[0]:
            events.append(SimEvent("perception_entry", float(tk), int(i)))

        u_ref = controller(state)
        rows = []
        row_obstacle = []
        degenerate_now = np.zeros(n_obs, dtype=bool)
        kappa = cfg.kappa
        for i in range(n_obs):
            evaluable = True
            if cone_domain:
                if colliding[i]:
                    evaluable = False
                else:
                    v_rel = velocities[i] - ref_vel
                    if np.linalg.norm(v_rel) <= B.EPS_V:
                        evaluable = False
                        degenerate_now[i] = True
            if not evaluable:
                continue
            h_i, lf_i, lg_i = B.barrier_terms(
                barrier, cfg.model, state, centers[i], velocities[i], axes[i], radii[i],
                body_offset=cfg.body_offset, rear_axle=cfg.wheelbase_rear, kappa1=kappa1)
            h_log[k, i] = float(h_i)
            if shadow_only or not in_range[i]:
                continue
            rows.append(ConstraintRow(lg_h=np.asarray(lg_i, dtype=float),
                                      rhs=-float(lf_i) - float(kappa(h_i))))
            row_obstacle.append(i)
            constrained_log[k, i] = True

        for i in np.nonzero(degenerate_now & in_range & ~was_degenerate)[0]:
            events.append(SimEvent("degenerate_velocity", float(tk), int(i)))

        result = solve_multi_constraint(QpProblem(u_ref=u_ref, rows=tuple(rows)))
        if result.status == "infeasible" and not was_infeasible:
            events.append(SimEvent("infeasible", float(tk), None))
        was_infeasible = result.status == "infeasible"

        u_star = result.u_star
        if cfg.input_bounds is not None:
            lo, hi = (np.asarray(side, dtype=float) for side in cfg.input_bounds)
            clipped = np.clip(u_star, lo, hi)
            if not np.array_equal(clipped, u_star):
                if not was_saturated:
                    events.append(SimEvent("saturation", float(tk), None))
                was_saturated = True
            else:
                was_saturated = False
            u_star = clipped

        for j, i in enumerate(row_obstacle):
            psi_log[k, i] = result.psi[j]
            if j in result.active_set:
                qp_active_log[k, i] = True

        states[k] = state
        u_ref_log[k] = u_ref
        u_star_log[k] = u_star
        sep_log[k] = sep
        in_range_log[k] = in_range
        centers_log[k] = centers
        velocities_log[k] = velocities

        if cfg.halt_on_collision and np.any(colliding):
            halted = True
            last = k
            break

        was_colliding = colliding
        was_in_range = in_range
        was_degenerate = degenerate_now

        if k < n_rec - 1:
            state = integrate_step(dyn, state, u_star, cfg.dt)
            centers = centers + velocities * cfg.dt

    sl = slice(0, last + 1)
    return ScenarioTrace(
        config=cfg,
        t=t[sl], states=states[sl], u_ref=u_ref_log[sl], u_star=u_star_log[sl],
        h=h_log[sl], psi=psi_log[sl], sep=sep_log[sl], in_range=in_range_log[sl],
        constrained=constrained_log[sl], qp_active=qp_active_log[sl],
        obstacle_centers=centers_log[sl], obstacle_velocities=velocities_log[sl],
        events=tuple(events), halted=halted,
    )


@dataclass(frozen=True)
class BehaviorThresholds:
    """Knobs of the trace classifier; the defaults are the documented ones."""

    reverse_speed: float = -0.05
    braking_drop: float = 0.5
    heading_deg: float = 15.0
    overtake_lateral_min: float = 0.05
    overtake_quiet_frac: float = 0.05
    obstacle_moving_eps: float = 1e-3


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


def classify_behavior(trace: ScenarioTrace,
                      thresholds: BehaviorThresholds = BehaviorThresholds()) -> str:
    """Label a trace as turning, braking, reversing, overtaking or none.

    Precedence: reversing (speed below the reverse threshold while the
    filter is correcting) beats overtaking (passing a moving obstacle along
    its travel direction with a lateral excursion and a quiet filter at the
    end) beats turning (heading deviation past the threshold with forward
    speed throughout) beats braking (speed drop past the fraction with the
    heading essentially held).
    """
    th = thresholds
    speed = _speed_series(trace)
    heading = _heading_series(trace)
    active = trace.filter_active
    if not np.any(active):
        return "none"
    heading_dev = np.abs(heading - heading[0])
    max_heading_deg = math.degrees(float(np.max(heading_dev)))

    if float(np.min(speed[active])) < th.reverse_speed:
        return "reversing"

    quiet_n = max(1, int(round(th.overtake_quiet_frac * speed.shape[0])))
    quiet_at_end = not np.any(active[-quiet_n:])
    for i in range(trace.obstacle_centers.shape[1]):
        displacement = trace.obstacle_centers[-1, i] - trace.obstacle_centers[0, i]
        if np.linalg.norm(displacement) <= th.obstacle_moving_eps * trace.t[-1]:
            continue
        direction = displacement / np.linalg.norm(displacement)
        pos = trace.states[:, 0:2]
        proj_v = pos @ direction
        proj_o = trace.obstacle_centers[:, i, :] @ direction
        lateral = np.abs((pos - pos[0]) @ np.array([-direction[1], direction[0]]))
        if (proj_v[0] < proj_o[0] and proj_v[-1] > proj_o[-1]
                and float(np.max(lateral)) >= th.overtake_lateral_min and quiet_at_end):
            return "overtaking"

    if max_heading_deg >= th.heading_deg and np.all(speed > 0.0):
        return "turning"

    first_active = int(np.argmax(active))
    v0 = float(speed[first_active])
    v_min_after = float(np.min(speed[first_active:]))
    if (abs(v0) > 1e-9 and (v0 - v_min_after) >= th.braking_drop * abs(v0)
            and v_min_after > th.reverse_speed and max_heading_deg < th.heading_deg):
        return "braking"
    return "none"


@dataclass(frozen=True)
class InvarianceReport:
    """Forward-invariance and violation-decay metrics of one trace."""

    started_safe: bool
    min_h: float
    max_discrete_violation: float
    recovery_rate: Optional[float]
    rate_target: float
    crossed_positive: Optional[bool]
    collided: bool

    @property
    def violated(self) -> bool:
        return self.collided or (math.isfinite(self.min_h) and self.min_h < -1e-3)


def invariance_audit(trace: ScenarioTrace, kappa: Optional[B.ClassK] = None) -> InvarianceReport:
    """Check the invariance story of one trace.

    For runs starting with h >= 0 the headline number is min_t h. For runs
    starting inside the cone the magnitude of h should decay at roughly the
    class-K rate until it crosses zero, so the audit fits an exponential to
    the pre-crossing stretch. The per-step discrete violation measures how
    much of any dip is attributable to the zero-order hold.
    """
    kappa = kappa or trace.config.kappa
    h = trace.h
    if h.size:
        any_finite = np.any(np.isfinite(h), axis=1)
        agg = np.where(any_finite,
                       np.min(np.where(np.isfinite(h), h, np.inf), axis=1), np.nan)
    else:
        agg = np.full(trace.t.shape, np.nan)
    finite0 = np.isfinite(agg[0]) if agg.size else False
    started_safe = (not finite0) or agg[0] >= 0.0
    min_h = float(np.nanmin(h)) if np.any(np.isfinite(h)) else math.nan

    viol = 0.0
    dt = trace.config.dt
    for i in range(h.shape[1]):
        col = h[:, i]
        enforced = trace.constrained[:, i]
        for k in range(len(col) - 1):
            if enforced[k] and np.isfinite(col[k]) and np.isfinite(col[k + 1]):
                resid = (col[k + 1] - col[k]) / dt + float(kappa(col[k]))
                if -resid > viol:
                    viol = -resid

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

    gamma = trace.config.kappa.gamma if trace.config.kappa.kind == "linear" else math.nan
    return InvarianceReport(
        started_safe=bool(started_safe), min_h=min_h, max_discrete_violation=float(viol),
        recovery_rate=rate, rate_target=float(gamma), crossed_positive=crossed,
        collided=trace.collided(),
    )


@dataclass(frozen=True)
class BetaReport:
    """Slip-angle magnitude and exact-model divergence of a bicycle trace."""

    max_abs_beta: float
    max_divergence: float
    path_length: float
    flagged: bool

    @property
    def divergence_ratio(self) -> float:
        return self.max_divergence / self.path_length if self.path_length > 0 else 0.0


def beta_smallness_audit(trace: ScenarioTrace, beta_limit: float = 0.3) -> BetaReport:
    """Replay the recorded inputs through the exact bicycle kinematics.

    The small-slip model drops the cos/sin of beta; re-integrating the
    exact model under the identical zero-order-hold input sequence bounds
    the approximation error actually incurred in this run.
    """
    if trace.config.model != "bicycle":
        raise ValueError("beta audit applies to bicycle traces only")
    geom = BicycleGeometry(trace.config.wheelbase_front, trace.config.wheelbase_rear)
    exact = partial(bicycle_dynamics_exact, geom=geom)
    exact_states = np.zeros_like(trace.states)
    exact_states[0] = trace.states[0]
    x = trace.states[0].copy()
    for k in range(trace.states.shape[0] - 1):
        x = integrate_step(exact, x, trace.u_star[k], trace.config.dt)
        exact_states[k + 1] = x

    diff = np.linalg.norm(exact_states[:, 0:2] - trace.states[:, 0:2], axis=1)
    seg = np.linalg.norm(np.diff(trace.states[:, 0:2], axis=0), axis=1)
    max_beta = float(np.max(np.abs(trace.u_star[:, 1])))
    return BetaReport(
        max_abs_beta=max_beta,
        max_divergence=float(np.max(diff)),
        path_length=float(np.sum(seg)),
        flagged=max_beta > beta_limit,
    )
