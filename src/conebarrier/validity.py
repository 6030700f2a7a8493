"""Sampling probes that classify barrier candidates per vehicle model.

For a given (barrier, model, obstacle-motion) combination the probe runs a
fixed checklist over randomized admissible configurations:

* input dependence: does L_g h ever differ from zero? A barrier whose
  derivative never sees the input cannot be enforced by any filter.
* channel activity: which input columns of L_g h are structurally zero
  (no acceleration authority / no steering authority).
* kernel states: configurations where the whole row L_g h vanishes. These
  are constructed deterministically per barrier (rest states, headings
  perpendicular to the gradient, cone-boundary headings), not rejection
  sampled, because they live on measure-zero manifolds.
* obstacle-velocity attack: at kernel states of the ellipse and
  second-order candidates on the bicycle, search a grid of admissible
  obstacle velocities for one that makes hdot + kappa(h) negative inside
  the safe set. Success is an invalidity certificate.
* kernel verification: at every constructed kernel state with h >= 0 the
  inequality hdot + kappa(h) >= 0 must hold; for the cone barrier, kernel
  states with h < 0 violating it show the guarantee holds on the safe set
  only.
* conservativeness witness: states safe for the ellipse (h1 > 0) that the
  second-order candidate already excludes (h2 < 0).

Every barrier evaluation is an array pass through ``barrier_terms``: the
sampled configurations and each kernel batch in one call, and the attack in
one call per kernel state over the whole velocity grid. One call over all
states and the grid at once would hold ~77k triples and raise peak memory.

The verdict phrases the outcome the way the summary comparison table does:
'Not a valid CBF', 'Valid CBF', 'Valid CBF, No acceleration', 'Valid CBF,
No steering', 'Valid CBF, but conservative', 'Valid CBF in D' (no kernel
states at all) and 'Valid CBF in C' (kernel states exist but the inequality
holds wherever h >= 0). For the second-order candidate on the unicycle with
a moving obstacle the checklist records the conservativeness witness rather
than running the velocity attack: the missing steering column means the
constraint survives only on a shrunken set, which is the 'conservative'
verdict rather than an invalidity proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .barriers import ClassK, barrier_terms, hocbf_terms, reference_kinematics
# Unused here, but bench/tracing.py wraps every *_terms name in this module.
from .barriers import (  # noqa: F401
    c3bf_bicycle_terms,
    c3bf_pointmass_terms,
    c3bf_unicycle_terms,
    ellipse_terms,
)
from .models import INPUT_NAMES, MODELS

BARRIERS = ("c3bf", "ellipse", "hocbf")
OBSTACLE_SPEED_MAX = 5.0
KERNEL_TOL = 1e-9
PSI_TOL = 1e-6


@dataclass(frozen=True)
class ValidityReport:
    """Checklist outcome for one (barrier, model, motion) combination."""

    barrier: str
    model: str
    motion: str
    samples: int
    min_lgh_norm: float
    max_lgh_norm: float
    channel_max: tuple[float, ...]
    inactive_channels: tuple[str, ...]
    kernel_count: int
    kernel_min_psi_safe: Optional[float]
    kernel_min_psi_unsafe: Optional[float]
    attack_witness: Optional[dict]
    conservative: bool
    verdict: str
    checks: tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        out = {
            "barrier": self.barrier,
            "model": self.model,
            "motion": self.motion,
            "samples": self.samples,
            "min_lgh_norm": self.min_lgh_norm,
            "max_lgh_norm": self.max_lgh_norm,
            "channel_max": list(self.channel_max),
            "inactive_channels": list(self.inactive_channels),
            "kernel_count": self.kernel_count,
            "kernel_min_psi_safe": self.kernel_min_psi_safe,
            "kernel_min_psi_unsafe": self.kernel_min_psi_unsafe,
            "attack_witness": self.attack_witness,
            "conservative": self.conservative,
            "verdict": self.verdict,
            "checks": list(self.checks),
        }
        return out


@dataclass
class _ProbeParams:
    width: float = 0.5
    body_offset: float = 0.1
    rear_axle: float = 1.6
    kappa: ClassK = field(default_factory=ClassK)
    kappa1: ClassK = field(default_factory=ClassK)


def _sample_states(rng: np.random.Generator, model: str, n: int) -> np.ndarray:
    xy = rng.uniform(-15.0, 15.0, (n, 2))
    theta = rng.uniform(-math.pi, math.pi, n)
    v = rng.uniform(-5.0, 5.0, n)
    if model == "unicycle":
        omega = rng.uniform(-2.0, 2.0, n)
        return np.column_stack([xy, theta, v, omega])
    if model == "bicycle":
        return np.column_stack([xy, theta, v])
    vel = rng.uniform(-5.0, 5.0, (n, 2))
    return np.column_stack([xy, vel])


def _sample_obstacles(rng: np.random.Generator, points: np.ndarray, motion: str,
                      params: _ProbeParams):
    """Obstacles placed outside the combined radius around each protected point."""
    n = points.shape[0]
    axes = rng.uniform(0.3, 2.0, (n, 2))
    radii = np.max(axes, axis=1) + 0.5 * params.width
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    dist = radii + rng.uniform(0.2, 12.0, n)
    offsets = dist[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])
    centers = points + offsets
    if motion == "static":
        velocities = np.zeros((n, 2))
    else:
        speed = rng.uniform(0.1, OBSTACLE_SPEED_MAX, n)
        vang = rng.uniform(0.0, 2.0 * math.pi, n)
        velocities = speed[:, None] * np.column_stack([np.cos(vang), np.sin(vang)])
    return centers, velocities, axes, radii


# ---------------------------------------------------------------------------
# Kernel-state constructions (deterministic, per barrier and model).
# ---------------------------------------------------------------------------

def _kernels_c3bf_bicycle(rng, motion, n, params: _ProbeParams):
    """States where both columns of the bicycle cone row vanish.

    Moving obstacle: a vehicle at rest with heading perpendicular to
    q = p_rel + v_rel s/||v_rel|| kills both columns. Static obstacle: the
    row vanishes only on cone-boundary headings at tangent length s equal
    to the rear-axle distance, reached while reversing.
    """
    states, centers, velocities, radii = [], [], [], []
    for _ in range(n):
        r = rng.uniform(0.4, 2.0)
        if motion == "moving":
            dist = r + rng.uniform(0.3, 8.0)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            p = dist * np.array([math.cos(ang), math.sin(ang)])
            cdot = rng.uniform(0.2, OBSTACLE_SPEED_MAX) * _unit(rng.uniform(0, 2 * math.pi))
            s = math.sqrt(dist * dist - r * r)
            q = p + cdot * (s / np.linalg.norm(cdot))
            theta = math.atan2(q[1], q[0]) + math.pi / 2.0
            state = np.array([0.0, 0.0, theta, 0.0])
        else:
            dist = math.sqrt(r * r + params.rear_axle**2)
            ang = rng.uniform(0.0, 2.0 * math.pi)
            p = dist * np.array([math.cos(ang), math.sin(ang)])
            cdot = np.zeros(2)
            s = params.rear_axle
            # Heading with <p, e(theta)> = -s, reached with v < 0.
            phi = math.acos(max(-1.0, min(1.0, -s / dist)))
            theta = ang + phi * rng.choice([-1.0, 1.0])
            state = np.array([0.0, 0.0, theta, -rng.uniform(0.3, 4.0)])
        states.append(state)
        centers.append(p)
        velocities.append(cdot)
        radii.append(r)
    return np.array(states), np.array(centers), np.array(velocities), None, np.array(radii)


def _unit(angle: float) -> np.ndarray:
    return np.array([math.cos(angle), math.sin(angle)])


def _kernels_weighted_perp(rng, model, motion, n, params: _ProbeParams, barrier: str):
    """Rest/perpendicular constructions for the ellipse and second-order rows.

    The acceleration column of the second-order candidate is
    -2(dx cos th / c1^2 + dy sin th / c2^2); headings perpendicular to the
    weighted offset zero it for any speed. The remaining column carries a
    factor of v, so v = 0 completes the kernel. The ellipse row needs only
    v = 0 (bicycle) since its acceleration column is identically zero.
    """
    states, centers, velocities, axes_list = [], [], [], []
    for _ in range(n):
        axes = rng.uniform(0.4, 2.0, 2)
        scale = rng.uniform(1.05, 3.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        # Place the vehicle outside the ellipse along a random direction.
        d = scale * np.array([axes[0] * math.cos(ang), axes[1] * math.sin(ang)])
        weighted = np.array([d[0] / axes[0] ** 2, d[1] / axes[1] ** 2])
        if barrier == "hocbf":
            theta = math.atan2(weighted[0], -weighted[1])
        else:
            theta = rng.uniform(-math.pi, math.pi)
        if motion == "static":
            cdot = np.zeros(2)
        else:
            cdot = rng.uniform(0.1, OBSTACLE_SPEED_MAX) * _unit(rng.uniform(0, 2 * math.pi))
        if model == "unicycle":
            state = np.array([-d[0], -d[1], theta, 0.0, 0.0])
        else:
            state = np.array([-d[0], -d[1], theta, 0.0])
        states.append(state)
        centers.append(np.zeros(2))
        velocities.append(cdot)
        axes_list.append(axes)
    return np.array(states), np.array(centers), np.array(velocities), np.array(axes_list)


def _kernels_hocbf_nonzero_speed(rng, model, motion, n, params: _ProbeParams):
    """Second-order kernel states with v != 0, located in closed form.

    The heading is pinned perpendicular to the weighted offset (zeroing the
    acceleration column for every v). h1 and kappa1'(h1) do not depend on
    v, so the bicycle slip column is v (c0 + c1 v): one evaluation at
    v = +-1 gives c0 and c1, and the nonzero root is -c0 / c1, kept when
    0.25 <= |v| <= 6.
    """
    out_states, out_centers, out_vels, out_axes = [], [], [], []
    attempts = 0
    while len(out_states) < n and attempts < 20 * n:
        attempts += 1
        axes = rng.uniform(0.4, 2.0, 2)
        scale = rng.uniform(1.1, 3.0)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        d = scale * np.array([axes[0] * math.cos(ang), axes[1] * math.sin(ang)])
        weighted = np.array([d[0] / axes[0] ** 2, d[1] / axes[1] ** 2])
        theta = math.atan2(weighted[0], -weighted[1])
        cdot = (np.zeros(2) if motion == "static"
                else rng.uniform(0.1, OBSTACLE_SPEED_MAX) * _unit(rng.uniform(0, 2 * math.pi)))
        states = np.array([[-d[0], -d[1], theta, 1.0], [-d[0], -d[1], theta, -1.0]])
        _, _, lg = hocbf_terms(states, np.zeros(2), cdot, axes, params.kappa1,
                               "bicycle", params.rear_axle)
        c0 = 0.5 * (lg[0, 1] - lg[1, 1])
        c1 = 0.5 * (lg[0, 1] + lg[1, 1])
        root = -c0 / c1 if c1 != 0.0 else 0.0
        if not 0.25 <= abs(root) <= 6.0:
            continue
        out_states.append(np.array([-d[0], -d[1], theta, root]))
        out_centers.append(np.zeros(2))
        out_vels.append(cdot)
        out_axes.append(axes)
    return (np.array(out_states), np.array(out_centers), np.array(out_vels),
            np.array(out_axes))


def _attack_obstacle_velocity(barrier, model, kernel_batch, params: _ProbeParams):
    """Search obstacle velocities defeating the constraint at kernel states.

    Each state is evaluated once against a 24-direction by 16-magnitude grid.
    Keeps only velocities that leave the row in the kernel and the state in
    the safe set, and reports the most negative psi = L_f h + kappa(h): the
    first such grid velocity of the first state that attains it.
    """
    states, centers, _, axes = kernel_batch
    angles = np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False)
    directions = np.column_stack([np.cos(angles), np.sin(angles)])
    magnitudes = np.concatenate([np.linspace(0.05, 1.0, 8), np.linspace(1.5, OBSTACLE_SPEED_MAX, 8)])
    grid = (magnitudes[None, :, None] * directions[:, None, :]).reshape(-1, 2)
    worst = None
    for i in range(min(states.shape[0], 200)):
        h, lf, lg = barrier_terms(barrier, model, states[i], centers[i], grid, axes[i], None,
                                  rear_axle=params.rear_axle, kappa1=params.kappa1)
        kept = (np.linalg.norm(lg, axis=-1) <= KERNEL_TOL) & (h >= 0.0)
        psi = np.where(kept, lf + params.kappa(h), np.inf)
        j = int(np.argmin(psi))
        if psi[j] < -PSI_TOL and (worst is None or psi[j] < worst["psi"]):
            worst = {
                "psi": float(psi[j]),
                "h": float(h[j]),
                "state": [float(x) for x in states[i]],
                "center": [float(x) for x in centers[i]],
                "obstacle_velocity": [float(x) for x in grid[j]],
                "axes": [float(x) for x in axes[i]],
            }
    return worst


def _kernel_psi(barrier, model, kernel_batch, params: _ProbeParams, tol: float = KERNEL_TOL):
    """Kernel count of a constructed batch and its least psi0 = L_f h + kappa(h).

    A state is a kernel state when ||L_g h|| <= tol. Returns the count and
    the minima of psi0 over kernel states with h >= 0 and with h < 0 (None
    when that slice is empty).
    """
    states, centers, velocities, axes, *radius = kernel_batch
    h, lf, lg = barrier_terms(barrier, model, states, centers, velocities, axes,
                              radius[0] if radius else None,
                              rear_axle=params.rear_axle, kappa1=params.kappa1)
    kernel = np.linalg.norm(lg, axis=-1) <= tol
    psi0 = lf + np.asarray(params.kappa(h))

    def least(where):
        return float(np.min(psi0[where])) if np.any(where) else None

    return int(np.sum(kernel)), least(kernel & (h >= 0.0)), least(kernel & (h < 0.0))


def validity_probe(barrier: str, model: str, motion: str = "moving",
                   samples: int = 10000, seed: int = 0,
                   width: float = 0.5, body_offset: float = 0.1,
                   rear_axle: float = 1.6,
                   kappa: Optional[ClassK] = None,
                   kappa1: Optional[ClassK] = None) -> ValidityReport:
    """Run the classification checklist for one barrier/model/motion cell."""
    if barrier not in BARRIERS:
        raise ValueError(f"unknown barrier {barrier!r}")
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    if motion not in ("static", "moving"):
        raise ValueError(f"motion must be 'static' or 'moving', got {motion!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if barrier in ("ellipse", "hocbf") and model == "pointmass":
        raise ValueError(f"{barrier} barrier is not defined for the point mass here")

    params = _ProbeParams(width=width, body_offset=body_offset, rear_axle=rear_axle,
                          kappa=kappa or ClassK(), kappa1=kappa1 or ClassK())
    rng = np.random.default_rng(seed)
    checks: list[str] = []

    states = _sample_states(rng, model, samples)
    points, point_velocities = reference_kinematics(model, states, params.body_offset)
    centers, velocities, axes, radii = _sample_obstacles(rng, points, motion, params)
    if barrier == "c3bf":
        # Keep admissible relative velocities only.
        ok = np.linalg.norm(velocities - point_velocities, axis=1) > 1e-3
        states, centers, velocities = states[ok], centers[ok], velocities[ok]
        axes, radii = axes[ok], radii[ok]

    h, lf, lg = barrier_terms(barrier, model, states, centers, velocities, axes, radii,
                              body_offset=params.body_offset, rear_axle=params.rear_axle,
                              kappa1=params.kappa1)
    norms = np.linalg.norm(lg, axis=-1)
    channel_max = tuple(float(np.max(np.abs(lg[..., j]))) for j in range(lg.shape[-1]))
    scale = max(1.0, float(np.max(norms))) if norms.size else 1.0
    inactive = tuple(
        INPUT_NAMES[model][j] for j in range(lg.shape[-1]) if channel_max[j] <= 1e-12 * scale
    )
    checks.append(f"input dependence sampled on {states.shape[0]} admissible configurations")

    no_input = float(np.max(norms)) <= 1e-12 if norms.size else True
    attack_witness = None
    kernel_count = 0
    kernel_psi_safe: Optional[float] = None
    kernel_psi_unsafe: Optional[float] = None
    conservative = False

    if no_input:
        # Any approaching configuration certifies failure: no input can help.
        psi0 = lf + np.asarray(params.kappa(h))
        bad = np.argmin(psi0)
        checks.append("row is identically zero; constraint cannot recruit any input")
        if float(psi0[bad]) < 0.0:
            attack_witness = {
                "psi": float(psi0[bad]),
                "h": float(h[bad]),
                "state": [float(x) for x in np.atleast_2d(states)[bad]],
                "center": [float(x) for x in centers[bad]],
                "obstacle_velocity": [float(x) for x in velocities[bad]],
            }
        verdict = "Not a valid CBF"
        return ValidityReport(barrier, model, motion, int(states.shape[0]),
                              float(np.min(norms)), float(np.max(norms)),
                              channel_max, inactive, 0, None, None,
                              attack_witness, False, verdict, tuple(checks))

    if barrier == "hocbf":
        conservative = bool(np.any((_ellipse_h1(states, centers, axes) > 0.0) & (h < 0.0)))
        if conservative:
            checks.append("states safe for the ellipse but already excluded by the "
                          "second-order candidate exist (conservative set)")

    # Kernel construction + verification / attack, per barrier.
    n_kernel = min(max(200, samples // 20), 2000)
    if barrier == "c3bf":
        if model in ("unicycle", "pointmass"):
            checks.append("row norm bounded away from zero on all samples; "
                          "no kernel construction exists (q cannot vanish)")
        else:
            kb = _kernels_c3bf_bicycle(rng, motion, n_kernel, params)
            kernel_count, kernel_psi_safe, kernel_psi_unsafe = _kernel_psi(
                barrier, model, kb, params)
            checks.append(f"{kernel_count} kernel states constructed; "
                          f"hdot + kappa(h) verified on the h >= 0 slice")
    elif barrier == "ellipse" and model == "bicycle":
        kb = _kernels_weighted_perp(rng, model, motion, n_kernel, params, "ellipse")
        if motion == "moving":
            attack_witness = _attack_obstacle_velocity("ellipse", model, kb, params)
            checks.append("obstacle-velocity attack run at rest-state kernels")
        else:
            kernel_count, kernel_psi_safe, _ = _kernel_psi(barrier, model, kb, params)
            checks.append("rest-state kernels satisfy the inequality for a static obstacle")
    elif barrier == "hocbf":
        if model == "bicycle" and motion == "moving":
            kb = _kernels_weighted_perp(rng, model, motion, n_kernel, params, "hocbf")
            attack_witness = _attack_obstacle_velocity("hocbf", model, kb, params)
            checks.append("obstacle-velocity attack run at perpendicular-heading kernels")
        elif model == "bicycle":
            kb = _kernels_hocbf_nonzero_speed(rng, model, motion, n_kernel // 4, params)
            if kb[0].size:
                kernel_count, kernel_psi_safe, _ = _kernel_psi(barrier, model, kb, params,
                                                               tol=1e-6)
                checks.append("nonzero-speed kernels located by root scan; "
                              "inequality verified for the static obstacle")
        elif model == "unicycle" and motion == "static":
            kb = _kernels_weighted_perp(rng, model, motion, n_kernel, params, "hocbf")
            kb[0][:, 3] = rng.uniform(-4.0, 4.0, kb[0].shape[0])
            kernel_count, kernel_psi_safe, _ = _kernel_psi(barrier, model, kb, params)
            checks.append("perpendicular-heading kernels verified for the static obstacle")
        else:
            checks.append("moving obstacle: steering column is structurally zero; "
                          "guarantee survives only on a shrunken set (see witness)")

    if attack_witness is not None:
        verdict = "Not a valid CBF"
    elif barrier == "c3bf":
        verdict = "Valid CBF in D" if kernel_count == 0 else "Valid CBF in C"
    elif INPUT_NAMES[model][0] in inactive:
        verdict = "Valid CBF, No acceleration"
    elif len(inactive) > 0:
        if motion == "moving" and conservative:
            verdict = "Valid CBF, but conservative"
        else:
            verdict = "Valid CBF, No steering"
    else:
        verdict = "Valid CBF"

    return ValidityReport(barrier, model, motion, int(states.shape[0]),
                          float(np.min(norms)), float(np.max(norms)),
                          channel_max, inactive, kernel_count,
                          kernel_psi_safe, kernel_psi_unsafe,
                          attack_witness, conservative, verdict, tuple(checks))


def _ellipse_h1(states, centers, axes) -> np.ndarray:
    dx = centers[..., 0] - states[..., 0]
    dy = centers[..., 1] - states[..., 1]
    return dx**2 / axes[..., 0] ** 2 + dy**2 / axes[..., 1] ** 2 - 1.0


TABLE_ROWS = (
    ("ellipse", "unicycle"),
    ("ellipse", "bicycle"),
    ("hocbf", "unicycle"),
    ("hocbf", "bicycle"),
    ("c3bf", "unicycle"),
    ("c3bf", "bicycle"),
)


def verdict_row(barrier: str, model: str, samples: int = 10000, seed: int = 0) -> dict:
    """Static and moving verdicts of one barrier/model pair, with their reports."""
    entry = {"barrier": barrier, "model": model,
             "extension": (barrier, model) == ("c3bf", "pointmass")}
    for motion in ("static", "moving"):
        rep = validity_probe(barrier, model, motion, samples=samples, seed=seed)
        entry[motion] = rep.verdict
        entry[f"{motion}_report"] = rep.to_dict()
    return entry


def verdict_matrix(samples: int = 10000, seed: int = 0) -> list[dict]:
    """Static and moving verdicts for every barrier/model row of the comparison.

    The point-mass cone row is an extension beyond the published comparison
    and is flagged as such.
    """
    return [verdict_row(barrier, model, samples, seed)
            for barrier, model in TABLE_ROWS + (("c3bf", "pointmass"),)]
