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
* kernel verification: at every constructed kernel state with h >= 0 (to
  within PSI_TOL) the inequality hdot + kappa(h) >= 0 must hold; for the
  cone barrier, kernel states with h < -PSI_TOL violating it show the
  guarantee holds on the safe set only.
* conservativeness witness: states safe for the ellipse (h1 > 0) that the
  second-order candidate already excludes (h2 < 0).

Every step is an array pass: the sampled configurations go through
``barrier_terms`` in one call, each kind of kernel state is constructed in
one batch and verified in one call, with the cone's q and the ellipse h1
taken from ``barriers``, and the velocity attack broadcasts chunks of kernel
states against the whole velocity grid. Row norms are elementwise,
sqrt(x*x + y*y), with the bits of ``np.linalg.norm`` over the last axis
and without its reduction's cost.

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
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .barriers import (BARRIER_MODELS, ClassK, _cone_h, barrier_terms, combined_radius,
                       ellipse_terms, hocbf_terms, reference_kinematics, relative_motion)
# Unused here, but bench/tracing.py wraps every *_terms name in this module.
from .barriers import c3bf_bicycle_terms, c3bf_pointmass_terms, c3bf_unicycle_terms  # noqa: F401
from .models import INPUT_NAMES
from .scenarios import ScenarioConfig

BARRIERS = tuple(BARRIER_MODELS)
OBSTACLE_SPEED_MAX = 5.0
KERNEL_TOL = 1e-9
PSI_TOL = 1e-6
_ATTACK_CHUNK = 26
"""Kernel states per velocity-attack call: 26 x 384 grid velocities = 9,984 triples."""

# Vehicle and gains every probe uses; the vehicle is ScenarioConfig's default one.
WIDTH = ScenarioConfig.width  # the packaged scenarios use 0.6 and 1.8
BODY_OFFSET = ScenarioConfig.body_offset
REAR_AXLE = ScenarioConfig.wheelbase_rear
KAPPA = ClassK()
KAPPA1 = ClassK()


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


def _row_norms(v):
    """sqrt(x*x + y*y) of (..., 2) rows: ``np.linalg.norm(v, axis=-1)``'s bits, not its cost."""
    return np.sqrt(v[..., 0] * v[..., 0] + v[..., 1] * v[..., 1])


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


def _directions(angles: np.ndarray) -> np.ndarray:
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _obstacle_velocities(rng: np.random.Generator, motion: str, n: int,
                         min_speed: float = 0.1) -> np.ndarray:
    """Zero for a static obstacle, else uniform speeds in uniform directions."""
    if motion == "static":
        return np.zeros((n, 2))
    speed = rng.uniform(min_speed, OBSTACLE_SPEED_MAX, n)
    return speed[:, None] * _directions(rng.uniform(0.0, 2.0 * math.pi, n))


def _sample_obstacles(rng: np.random.Generator, points: np.ndarray, motion: str):
    """Obstacles placed outside the combined radius around each protected point."""
    n = points.shape[0]
    axes = rng.uniform(0.3, 2.0, (n, 2))
    radii = combined_radius(axes, WIDTH)
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    dist = radii + rng.uniform(0.2, 12.0, n)
    centers = points + dist[:, None] * _directions(ang)
    return centers, _obstacle_velocities(rng, motion, n), axes, radii


# ---------------------------------------------------------------------------
# Kernel-state constructions (deterministic, per barrier and model).
# ---------------------------------------------------------------------------

def _kernels_c3bf_bicycle(rng, motion, n):
    """States where both columns of the bicycle cone row vanish.

    Moving obstacle: a vehicle at rest with heading perpendicular to
    q = p_rel + v_rel s/||v_rel|| kills both columns. Static obstacle: the
    row vanishes only on cone-boundary headings at tangent length s equal
    to the rear-axle distance, reached while reversing.
    """
    radii = rng.uniform(0.4, 2.0, n)
    dist = radii + rng.uniform(0.3, 8.0, n) if motion == "moving" else np.hypot(radii, REAR_AXLE)
    ang = rng.uniform(0.0, 2.0 * math.pi, n)
    centers = dist[:, None] * _directions(ang)
    velocities = _obstacle_velocities(rng, motion, n, min_speed=0.2)
    if motion == "moving":
        # The vehicle rests at the origin, so p_rel = center and v_rel = cdot.
        qx, qy = _cone_h(relative_motion(((0.0, 0.0), (0.0, 0.0), None), centers, velocities),
                         radii)[3]
        theta, v = np.arctan2(qy, qx) + math.pi / 2.0, np.zeros(n)
    else:
        # Heading with <p, e(theta)> = -s, reached with v < 0.
        theta = ang + np.arccos(-REAR_AXLE / dist) * rng.choice([-1.0, 1.0], n)
        v = -rng.uniform(0.3, 4.0, n)
    zeros = np.zeros(n)
    return np.column_stack([zeros, zeros, theta, v]), centers, velocities, None, radii


def _perpendicular_batch(rng, motion, n, min_scale):
    """Offsets outside random ellipses and headings perpendicular to them.

    Returns the semi-axes, the offset d of the obstacle center from the
    vehicle (d = scale * (c1 cos a, c2 sin a), scale >= min_scale), the
    heading perpendicular to the weighted offset d / axes^2 and the obstacle
    velocities.
    """
    axes = rng.uniform(0.4, 2.0, (n, 2))
    scale = rng.uniform(min_scale, 3.0, n)
    d = scale[:, None] * axes * _directions(rng.uniform(0.0, 2.0 * math.pi, n))
    weighted = d / axes**2
    theta = np.arctan2(weighted[:, 0], -weighted[:, 1])
    return axes, d, theta, _obstacle_velocities(rng, motion, n)


def _kernels_weighted_perp(rng, model, motion, n, barrier: str):
    """Rest/perpendicular constructions for the ellipse and second-order rows.

    The acceleration column of the second-order candidate is
    -2(dx cos th / c1^2 + dy sin th / c2^2); headings perpendicular to the
    weighted offset zero it for any speed. The remaining column carries a
    factor of v, so v = 0 completes the kernel. The ellipse row needs only
    v = 0 (bicycle) since its acceleration column is identically zero.
    """
    axes, d, theta, velocities = _perpendicular_batch(rng, motion, n, 1.05)
    if barrier != "hocbf":
        theta = rng.uniform(-math.pi, math.pi, n)
    rest = np.zeros((n, 2 if model == "unicycle" else 1))
    return np.column_stack([-d, theta, rest]), np.zeros((n, 2)), velocities, axes


def _kernels_hocbf_nonzero_speed(rng, model, motion, n):
    """Second-order kernel states with v != 0, located in closed form.

    The heading is pinned perpendicular to the weighted offset (zeroing the
    acceleration column for every v). h1 and kappa1'(h1) do not depend on
    v, so the bicycle slip column is v (c0 + c1 v): one evaluation at
    v = +-1 gives c0 and c1, and the nonzero root is -c0 / c1. The 20 n
    candidates are drawn and evaluated in one batch, and the first n roots
    with 0.25 <= |v| <= 6 are kept.
    """
    axes, d, theta, velocities = _perpendicular_batch(rng, motion, 20 * n, 1.1)
    pose = np.column_stack([-d, theta])
    states = np.stack([np.column_stack([pose, np.full(20 * n, v)]) for v in (1.0, -1.0)])
    lg = hocbf_terms(states, np.zeros(2), velocities, axes, KAPPA1, "bicycle", REAR_AXLE)[2]
    c0 = 0.5 * (lg[0, :, 1] - lg[1, :, 1])
    c1 = 0.5 * (lg[0, :, 1] + lg[1, :, 1])
    # c1 == 0 gives an infinite or NaN root, which the range test rejects.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        root = -c0 / c1
    keep = np.flatnonzero((np.abs(root) >= 0.25) & (np.abs(root) <= 6.0))[:n]
    return (np.column_stack([pose[keep], root[keep]]), np.zeros((keep.size, 2)),
            velocities[keep], axes[keep])


def _witness(psi, h, state, center, velocity, axes=None) -> dict:
    """JSON-ready record of a state where hdot + kappa(h) < 0 and no input can help."""
    out = {"psi": float(psi), "h": float(h), "state": [float(x) for x in state],
           "center": [float(x) for x in center],
           "obstacle_velocity": [float(x) for x in velocity]}
    if axes is not None:
        out["axes"] = [float(x) for x in axes]
    return out


def _attack_obstacle_velocity(barrier, model, kernel_batch):
    """Search obstacle velocities defeating the constraint at kernel states.

    The first 200 states are each evaluated against a 24-direction by
    16-magnitude grid, _ATTACK_CHUNK states per call: a chunk broadcasts
    (chunk, 1) states against the (384, 2) grid, so no call holds more
    triples than the probe's 10,000-sample batch. Keeps only velocities that
    leave the row in the kernel and the state in the safe set, and reports
    the most negative psi = L_f h + kappa(h): the first state that attains
    it, at its first such grid velocity. A chunk's argmin runs in row-major
    order and a later chunk wins only with a strictly lower psi, which keeps
    that tie rule.
    """
    states, centers, _, axes = (a[:200] for a in kernel_batch)
    magnitudes = np.concatenate([np.linspace(0.05, 1.0, 8), np.linspace(1.5, OBSTACLE_SPEED_MAX, 8)])
    directions = _directions(np.linspace(0.0, 2.0 * math.pi, 24, endpoint=False))
    grid = (magnitudes[None, :, None] * directions[:, None, :]).reshape(-1, 2)
    worst = None
    for start in range(0, states.shape[0], _ATTACK_CHUNK):
        sl = slice(start, start + _ATTACK_CHUNK)
        # The attack runs the ellipse candidates only.
        h, lf, lg = barrier_terms(barrier, model, states[sl, None], None,
                                  centers[sl, None], grid, axes[sl, None], None,
                                  rear_axle=REAR_AXLE, kappa1=KAPPA1)
        kept = (_row_norms(lg) <= KERNEL_TOL) & (h >= 0.0)
        psi = np.where(kept, lf + KAPPA(h), np.inf)
        i, j = np.unravel_index(np.argmin(psi), psi.shape)
        if psi[i, j] < -PSI_TOL and (worst is None or psi[i, j] < worst["psi"]):
            worst = _witness(psi[i, j], h[i, j], states[start + i], centers[start + i], grid[j],
                             axes[start + i])
    return worst


def _kernel_psi(barrier, model, kernel_batch, tol: float = KERNEL_TOL):
    """Kernel count of a constructed batch and its least psi0 = L_f h + kappa(h).

    A state is a kernel state when ||L_g h|| <= tol. Returns the count and
    the minima of psi0 over the safe kernel slice, h >= -PSI_TOL, and the
    unsafe one, h < -PSI_TOL (None when that slice is empty). The slices are
    split with the attack's tolerance: on a cone-boundary construction h is
    zero analytically and only its rounding (~1e-15) falls on either side.
    """
    states, centers, velocities, axes, *radius = kernel_batch
    rel = (relative_motion(reference_kinematics(model, states), centers, velocities)
           if barrier == "c3bf" else None)
    h, lf, lg = barrier_terms(barrier, model, states, rel, centers, velocities, axes,
                              radius[0] if radius else None,
                              rear_axle=REAR_AXLE, kappa1=KAPPA1)
    kernel = _row_norms(lg) <= tol
    psi0 = lf + np.asarray(KAPPA(h))

    def least(where):
        return float(np.min(psi0[where])) if np.any(where) else None

    return (int(np.sum(kernel)), least(kernel & (h >= -PSI_TOL)),
            least(kernel & (h < -PSI_TOL)))


def validity_probe(barrier: str, model: str, motion: str = "moving",
                   samples: int = 10000, seed: int = 0) -> ValidityReport:
    """Run the classification checklist for one barrier/model/motion cell."""
    if model not in BARRIER_MODELS.get(barrier, ()):
        raise ValueError(f"the {barrier} barrier is not defined for the {model} model")
    if motion not in ("static", "moving"):
        raise ValueError(f"motion must be 'static' or 'moving', got {motion!r}")
    if samples < 1:
        raise ValueError("samples must be >= 1")

    rng = np.random.default_rng(seed)
    checks: list[str] = []

    states = _sample_states(rng, model, samples)
    points, point_velocities, _ = kinematics = reference_kinematics(model, states, BODY_OFFSET)
    centers, velocities, axes, radii = _sample_obstacles(rng, np.column_stack(points), motion)
    if barrier == "c3bf":
        # Keep admissible relative velocities only.
        ok = _row_norms(velocities - np.column_stack(point_velocities)) > 1e-3
        states, centers, velocities = states[ok], centers[ok], velocities[ok]
        axes, radii = axes[ok], radii[ok]
        kinematics = reference_kinematics(model, states, BODY_OFFSET)

    # The ellipse candidates read no relative motion.
    rel = relative_motion(kinematics, centers, velocities) if barrier == "c3bf" else None
    h, lf, lg = barrier_terms(barrier, model, states, rel, centers, velocities, axes,
                              radii, body_offset=BODY_OFFSET, rear_axle=REAR_AXLE,
                              kappa1=KAPPA1)
    norms = _row_norms(lg)
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
    # States safe for the ellipse (h1 > 0) but excluded by the second-order candidate.
    conservative = barrier == "hocbf" and bool(np.any(
        (ellipse_terms(states, centers, velocities, axes, model)[0] > 0.0) & (h < 0.0)))
    if conservative:
        checks.append("states safe for the ellipse but already excluded by the "
                      "second-order candidate exist (conservative set)")

    # Kernel construction + verification / attack, per barrier.
    n_kernel = min(max(200, samples // 20), 2000)
    if no_input:
        # Any approaching configuration certifies failure: no input can help.
        psi0 = lf + np.asarray(KAPPA(h))
        bad = np.argmin(psi0)
        checks.append("row is identically zero; constraint cannot recruit any input")
        if float(psi0[bad]) < 0.0:
            attack_witness = _witness(psi0[bad], h[bad], states[bad], centers[bad],
                                      velocities[bad])
    elif barrier == "c3bf":
        if model in ("unicycle", "pointmass"):
            checks.append("row norm bounded away from zero on all samples; "
                          "no kernel construction exists (q cannot vanish)")
        else:
            kb = _kernels_c3bf_bicycle(rng, motion, n_kernel)
            kernel_count, kernel_psi_safe, kernel_psi_unsafe = _kernel_psi(barrier, model, kb)
            checks.append(f"{kernel_count} kernel states constructed; "
                          f"hdot + kappa(h) verified on the h >= 0 slice")
    elif barrier == "ellipse" and model == "bicycle":
        kb = _kernels_weighted_perp(rng, model, motion, n_kernel, "ellipse")
        if motion == "moving":
            attack_witness = _attack_obstacle_velocity("ellipse", model, kb)
            checks.append("obstacle-velocity attack run at rest-state kernels")
        else:
            kernel_count, kernel_psi_safe, _ = _kernel_psi(barrier, model, kb)
            checks.append("rest-state kernels satisfy the inequality for a static obstacle")
    elif barrier == "hocbf":
        if model == "bicycle" and motion == "moving":
            kb = _kernels_weighted_perp(rng, model, motion, n_kernel, "hocbf")
            attack_witness = _attack_obstacle_velocity("hocbf", model, kb)
            checks.append("obstacle-velocity attack run at perpendicular-heading kernels")
        elif model == "bicycle":
            kb = _kernels_hocbf_nonzero_speed(rng, model, motion, n_kernel // 4)
            if kb[0].size:
                kernel_count, kernel_psi_safe, _ = _kernel_psi(barrier, model, kb, tol=1e-6)
                checks.append("nonzero-speed kernels located in closed form; "
                              "inequality verified for the static obstacle")
        elif model == "unicycle" and motion == "static":
            kb = _kernels_weighted_perp(rng, model, motion, n_kernel, "hocbf")
            kb[0][:, 3] = rng.uniform(-4.0, 4.0, kb[0].shape[0])
            kernel_count, kernel_psi_safe, _ = _kernel_psi(barrier, model, kb)
            checks.append("perpendicular-heading kernels verified for the static obstacle")
        else:
            checks.append("moving obstacle: steering column is structurally zero; "
                          "guarantee survives only on a shrunken set (see witness)")

    if no_input or attack_witness is not None:
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


TABLE_ROWS = (
    ("ellipse", "unicycle"),
    ("ellipse", "bicycle"),
    ("hocbf", "unicycle"),
    ("hocbf", "bicycle"),
    ("c3bf", "unicycle"),
    ("c3bf", "bicycle"),
)
MATRIX_ROWS = TABLE_ROWS + (("c3bf", "pointmass"),)
"""The comparison table's rows plus the point-mass cone extension."""


def verdict_row(barrier: str, model: str, samples: int = 10000, seed: int = 0) -> dict:
    """Static and moving verdicts of one barrier/model pair, with their reports."""
    entry = {"barrier": barrier, "model": model,
             "extension": (barrier, model) == ("c3bf", "pointmass")}
    for motion in ("static", "moving"):
        rep = validity_probe(barrier, model, motion, samples=samples, seed=seed)
        entry[motion] = rep.verdict
        entry[f"{motion}_report"] = asdict(rep)
    return entry


def verdict_matrix(samples: int = 10000, seed: int = 0) -> list[dict]:
    """Static and moving verdicts for every barrier/model row of the comparison.

    The point-mass cone row is an extension beyond the published comparison
    and is flagged as such.
    """
    return [verdict_row(barrier, model, samples, seed)
            for barrier, model in MATRIX_ROWS]
