"""Closed-loop scenario engine: obstacle kinematics, filtering, tracing, audits.

A scenario fixes one vehicle, a list of moving elliptical obstacles with
piecewise-constant velocities, a reference controller and a barrier kind.
The obstacle tracks (centers and velocities at every step) are built before
the loop. Each step one ``barriers.reference_kinematics`` call feeds both
the masks of obstacles outside the cone's domain (inside the combined
radius, or relative speed at most ``EPS_V``) or the perception radius and
one ``barriers.barrier_terms`` call over all obstacles. The filter QP takes
the remaining obstacles' rows as that call's arrays ``L_g h`` (m, 2) and
``-L_f h - kappa(h)`` (m,); the engine clips its answer to the configured
input bounds (the QP itself is unbounded), integrates one RK4 step with the
filtered input held constant, and logs states, both inputs, per-obstacle
barrier values, switching scalars and separations, and per-step flags. The
events (perception entry, degenerate relative velocity, QP infeasibility,
collision, saturation) are the rising edges of those logs, derived after
the loop. An obstacle inside its combined radius has no cone and builds no
row; the collision event records it.

A ``ScenarioConfig`` validates itself and its obstacles when built, so an
invalid scenario cannot exist and ``dataclasses.replace`` checks again; each
ConfigError it raises starts with the scenario's name. Its field names are
the YAML keys of ``scenarios`` and its defaults are the only ones.

Collisions (separation at or below the combined radius) are recorded and
the run continues by default so traces stay analyzable; ``halt_on_collision``
truncates instead. With the barrier disabled the cone value is still logged
as a shadow metric so negative controls can show what was violated.

``classify_behavior`` reduces a trace to one of the canonical avoidance
outcomes (turning, braking, reversing, overtaking) using the explicit
thresholds defined next to it; the audits quantify forward invariance, the
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
    PointMassDynamics,
    UnicycleDynamics,
    bicycle_dynamics_exact,
    integrate_step,
)
from .safety_filter import (
    PathTrackerGains,
    QpProblem,
    ReferenceController,
    reference_p_controller,
    reference_path_tracker,
    solve_multi_constraint,
)

BARRIER_KINDS = (*B.BARRIER_MODELS, "none")
MAX_STEPS = 1_000_000
"""Most steps round(duration / dt) a scenario may ask for: 500 times the
longest packaged run (2,000 steps). The engine preallocates its logs, about
140 bytes per step with one obstacle, so a tiny dt must fail when the
config is built rather than in the allocation or hours into the run."""


class ConfigError(ValueError):
    """Scenario configuration violates an invariant."""


@dataclass(frozen=True)
class ObstacleConfig:
    """Moving ellipse with optional timed velocity changes."""

    center: tuple[float, float]
    velocity: tuple[float, float] = (0.0, 0.0)
    semi_axes: tuple[float, float] = (1.0, 1.0)
    velocity_schedule: tuple[tuple[float, tuple[float, float]], ...] = ()


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

    def __post_init__(self) -> None:
        try:
            self._check()
        except ConfigError as exc:
            raise ConfigError(f"{self.name}: {exc}") from None

    def _check(self) -> None:
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.barrier != "none" and self.model not in B.BARRIER_MODELS.get(self.barrier, ()):
            raise ConfigError(f"the {self.barrier} barrier is not defined for the "
                              f"{self.model} model")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (math.isfinite(self.duration) and self.duration >= self.dt):
            raise ConfigError(f"duration must be finite and cover at least one step, "
                              f"got {self.duration}")
        steps = self.duration / self.dt
        if math.isinf(steps) or round(steps) > MAX_STEPS:
            raise ConfigError(f"duration / dt asks for {steps:.3g} steps, more than "
                              f"MAX_STEPS = {MAX_STEPS}")
        expected = len(STATE_NAMES[self.model])
        if len(self.initial_state) != expected:
            raise ConfigError(
                f"{self.model} initial state needs {expected} entries, got {len(self.initial_state)}"
            )
        if not all(math.isfinite(x) for x in self.initial_state):
            raise ConfigError(f"initial state must be finite, got {self.initial_state}")
        if not (0 < self.wheelbase_front < math.inf and 0 < self.wheelbase_rear < math.inf):
            raise ConfigError(f"wheelbase distances must be positive and finite, got front="
                              f"{self.wheelbase_front}, rear={self.wheelbase_rear}")
        if not math.isfinite(self.body_offset):
            raise ConfigError(f"body_offset must be finite, got {self.body_offset}")
        if not (self.perception_radius >= 0 and 0 <= self.width < math.inf):
            raise ConfigError(f"perception_radius must be nonnegative and width nonnegative "
                              f"and finite, got {self.perception_radius} and {self.width}")
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
        if self.path is not None and not all(math.isfinite(x) for p in self.path for x in p):
            raise ConfigError(f"path waypoints must be finite, got {self.path}")
        if self.path is not None and len({tuple(p) for p in self.path}) < 2:
            raise ConfigError(f"path needs two distinct waypoints, got {self.path}")
        for i, obs in enumerate(self.obstacles):
            where = f"obstacles[{i}]: obstacle"
            pairs = [("center", obs.center), ("velocity", obs.velocity),
                     ("semi_axes", obs.semi_axes)]
            pairs += [(f"velocity_schedule[{j}].velocity", v)
                      for j, (_, v) in enumerate(obs.velocity_schedule)]
            for name, value in pairs:
                if len(value) != 2 or not all(math.isfinite(x) for x in value):
                    raise ConfigError(f"{where} {name} needs two finite entries, got {value}")
            if not (obs.semi_axes[0] > 0 and obs.semi_axes[1] > 0):
                raise ConfigError(f"{where} semi-axes must be positive, got {obs.semi_axes}")
            times = [t for t, _ in obs.velocity_schedule]
            if not all(math.isfinite(t) for t in times):
                raise ConfigError(f"{where} velocity-change times must be finite, got {times}")
            if times != sorted(times):
                raise ConfigError(f"{where} velocity-change times must be sorted")


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
        return lambda state: reference_path_tracker(state, path, geom, gains)

    return lambda state: reference_p_controller(cfg.model, state, cfg.controller)


def run_scenario(cfg: ScenarioConfig) -> ScenarioTrace:
    """Simulate one scenario deterministically and return its trace.

    Raises ArithmeticError, naming the scenario and the time, when a step
    overflows or makes a NaN (separation, barrier rows, filtered input) or
    the integrated state is non-finite: a blown-up run has no trace.
    """
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
    barrier = "c3bf" if shadow_only else cfg.barrier
    cone_domain = np.full(n_obs, barrier == "c3bf")  # also gates shadow runs
    enforced = np.full(n_obs, not shadow_only)  # shadow runs build no rows
    kappa1 = cfg.kappa1 or cfg.kappa

    state = np.array(cfg.initial_state, dtype=float)
    axes = np.array([o.semi_axes for o in cfg.obstacles], dtype=float).reshape(n_obs, 2)
    radii = B.combined_radius(axes, cfg.width)
    bounds = None if cfg.input_bounds is None else np.asarray(cfg.input_bounds, dtype=float)

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
    degenerate_log = np.zeros((n_rec, n_obs), dtype=bool)
    infeasible_log = np.zeros(n_rec, dtype=bool)
    saturated_log = np.zeros(n_rec, dtype=bool)

    halted = False
    last = n_rec - 1
    pinned = []  # obstacles whose rows pinned the last QP answer

    k = 0
    try:
        # Overflow or an invalid operation outside the masked barrier call means
        # the run has blown up; it raises FloatingPointError, an ArithmeticError.
        with np.errstate(over="raise", invalid="raise"):
            # Obstacle tracks; an accumulate adds in order, so c_{k+1} = c_k + v_k dt bit for bit.
            velocities = np.empty((n_rec, n_obs, 2))
            for i, o in enumerate(cfg.obstacles):
                velocities[:, i] = o.velocity
                for t_change, v in o.velocity_schedule:
                    velocities[np.searchsorted(t, t_change - 1e-12):, i] = v
            centers = np.cumsum(np.concatenate(
                [np.array([o.center for o in cfg.obstacles], dtype=float).reshape(1, n_obs, 2),
                 velocities[:-1] * cfg.dt]), axis=0)
            for k in range(n_rec):
                kinematics = B.reference_kinematics(cfg.model, state, cfg.body_offset)
                ref_pt, ref_vel, _ = kinematics
                p_rel, v_rel = centers[k] - ref_pt, velocities[k] - ref_vel
                sep = sep_log[k] = np.sqrt(B._dot(p_rel, p_rel))
                in_range = in_range_log[k] = sep <= cfg.perception_radius
                colliding = sep <= radii
                slow = np.sqrt(B._dot(v_rel, v_rel)) <= B.EPS_V
                degenerate_log[k] = ~colliding & slow & cone_domain
                skip = (colliding | slow) & cone_domain

                u_ref = u_ref_log[k] = controller(state)
                # Obstacles outside the cone domain come out NaN or infinite; skip masks them.
                with np.errstate(divide="ignore", invalid="ignore"):
                    h, lf, lg = B.barrier_terms(barrier, cfg.model, state, kinematics,
                                                centers[k], velocities[k], axes, radii,
                                                body_offset=cfg.body_offset,
                                                rear_axle=cfg.wheelbase_rear, kappa1=kappa1)
                h_log[k] = np.where(skip, np.nan, h)
                row = constrained_log[k] = in_range & ~skip & enforced
                row_obstacle = row.nonzero()[0].tolist()
                # The previous step's basis, as rows of this step, if all its obstacles kept a row.
                hint = (tuple(map(row_obstacle.index, pinned))
                        if set(pinned) <= set(row_obstacle) else ())
                qp = QpProblem(u_ref, lg[row], -lf[row] - cfg.kappa(h[row]))
                result = solve_multi_constraint(qp, hint)
                pinned = [row_obstacle[j] for j in result.basis]
                infeasible_log[k] = result.status == "infeasible"

                u_star = result.u_star
                if bounds is not None:
                    clipped = np.clip(u_star, bounds[0], bounds[1])
                    saturated_log[k] = not np.array_equal(clipped, u_star)
                    u_star = clipped

                psi_log[k][row] = result.psi
                for j in result.active_set:
                    qp_active_log[k, row_obstacle[j]] = True

                states[k] = state
                u_star_log[k] = u_star

                if cfg.halt_on_collision and np.any(colliding):
                    halted = True
                    last = k
                    break

                if k < n_rec - 1:
                    state = integrate_step(dyn, state, u_star, cfg.dt)
    except ArithmeticError as exc:
        raise ArithmeticError(f"{cfg.name}: run blew up at t = {t[k]:g}: {exc}") from None

    sl = slice(0, last + 1)
    events = _step_events(t[sl], sep_log[sl], radii, in_range_log[sl], degenerate_log[sl],
                          infeasible_log[sl], saturated_log[sl])
    return ScenarioTrace(
        config=cfg,
        t=t[sl], states=states[sl], u_ref=u_ref_log[sl], u_star=u_star_log[sl],
        h=h_log[sl], psi=psi_log[sl], sep=sep_log[sl], in_range=in_range_log[sl],
        constrained=constrained_log[sl], qp_active=qp_active_log[sl],
        obstacle_centers=centers[sl], obstacle_velocities=velocities[sl],
        events=events, halted=halted,
    )


def _step_events(t, sep, radii, in_range, degenerate, infeasible, saturated):
    """Events at the rising edges of the per-step flags of a run.

    Ordered by step, then by kind in the order below, then by obstacle.
    A degenerate relative velocity counts only while the obstacle is in range.
    """
    def rising(flags):
        return flags & ~np.concatenate([np.zeros_like(flags[:1]), flags[:-1]])

    edges = [("collision", rising(sep <= radii)), ("perception_entry", rising(in_range)),
             ("degenerate_velocity", rising(degenerate) & in_range),
             ("infeasible", rising(infeasible)), ("saturation", rising(saturated))]
    found = []
    for kind, edge in edges:
        for k, *i in zip(*np.nonzero(edge)):  # i is [obstacle] for per-obstacle flags
            detail = (f"separation {sep[k, i[0]]:.3f} <= r {radii[i[0]]:.3f}"
                      if kind == "collision" else "")
            found.append((k, SimEvent(kind, float(t[k]), int(i[0]) if i else None, detail)))
    # A stable sort by step keeps the kind order above, then the obstacle order.
    return tuple(event for _, event in sorted(found, key=lambda f: f[0]))


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


def invariance_audit(trace: ScenarioTrace) -> InvarianceReport:
    """Check the invariance story of one trace.

    For runs starting with h >= 0 the headline number is min_t h. For runs
    starting inside the cone the magnitude of h should decay at roughly the
    class-K rate until it crosses zero, so the audit fits an exponential to
    the pre-crossing stretch. The per-step discrete violation measures how
    much of any dip is attributable to the zero-order hold.
    """
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

    # Discrete residual of hdot + kappa(h) >= 0 over each enforced step.
    resid = (h[1:] - h[:-1]) / trace.config.dt + trace.config.kappa(h[:-1])
    enforced = trace.constrained[:-1] & np.isfinite(h[:-1]) & np.isfinite(h[1:])
    viol = np.max(-resid[enforced], initial=0.0)

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


BETA_LIMIT = 0.3
"""Largest |beta| (rad) the small-slip bicycle is trusted at."""


def beta_smallness_audit(trace: ScenarioTrace) -> BetaReport:
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
        flagged=max_beta > BETA_LIMIT,
    )
