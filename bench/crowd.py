"""Seeded corridor encounters for the ``crowd`` workload.

Each encounter is one vehicle (unicycle or bicycle) starting at the origin
at 2 m/s along +x, with a cone barrier, driving into 16 moving circular
obstacles laid out as 8 jittered columns of 2 on either side of a
corridor. The density is chosen so that about 8 obstacles are in
perception range at a time: the multi-row QP and the per-obstacle barrier
terms dominate a step, and some steps fall back to the least-violation LP.

The encounters form a fixed pool, ``POOL_PER_MODEL`` per model, each built
from ``(POOL_SEED, model, index)``. The pool is fixed so that every
encounter has a summary recorded in ``reference.json``; the run's ``--seed``
picks which encounters run and in what order. To keep the mix of cheap and
expensive encounters the same for every seed, each model's pool is sorted
by its recorded cost per step: the ``TAIL_PER_MODEL`` costliest always run,
so the p90 always sees the pool's tail, and the rest is cut into
``STRATA_PER_MODEL`` strata from each of which the seed draws one encounter.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from conebarrier.safety_filter import ReferenceController
from conebarrier.sim import ObstacleConfig, ScenarioConfig

MODELS = ("unicycle", "bicycle")
POOL_SEED = 20220923
POOL_PER_MODEL = 30
STRATA_PER_MODEL = 10
TAIL_PER_MODEL = 3

PARAMS = {
    "pool_seed": POOL_SEED,
    "pool_per_model": POOL_PER_MODEL,
    "strata_per_model": STRATA_PER_MODEL,
    "tail_per_model": TAIL_PER_MODEL,
    "models": list(MODELS),
    "obstacles": 16,
    "columns": 8,
    "first_column_x_m": 4.0,
    "column_spacing_m": 2.5,
    "corridor_half_width_m": 2.0,
    "position_jitter_m": 0.6,
    "obstacle_radius_m": [0.3, 0.6],
    "obstacle_speed_mps": [0.2, 1.0],
    "vehicle_speed_mps": 2.0,
    "vehicle_width_m": 0.5,
    "barrier": "c3bf",
    "duration_s": 3.0,
    "dt_s": 0.01,
}


def key(model: str, index: int) -> str:
    return f"{model}-{index:03d}"


def pool_keys() -> list[str]:
    return [key(model, i) for model in MODELS for i in range(POOL_PER_MODEL)]


def encounter(name: str) -> tuple[ScenarioConfig, str]:
    """The config of pool entry ``name`` and a digest of the numbers drawn for it."""
    model, index = name.rsplit("-", 1)
    rng = np.random.default_rng([POOL_SEED, MODELS.index(model), int(index)])
    p = PARAMS
    lo_r, hi_r = p["obstacle_radius_m"]
    lo_v, hi_v = p["obstacle_speed_mps"]
    jitter = p["position_jitter_m"]
    drawn = []
    obstacles = []
    for column in range(p["columns"]):
        for side in (-1.0, 1.0):
            radius = rng.uniform(lo_r, hi_r)
            cx = p["first_column_x_m"] + p["column_spacing_m"] * column + rng.uniform(-jitter, jitter)
            cy = side * p["corridor_half_width_m"] + rng.uniform(-jitter, jitter)
            speed = rng.uniform(lo_v, hi_v)
            heading = rng.uniform(0.0, 2.0 * math.pi)
            vel = (speed * math.cos(heading), speed * math.sin(heading))
            drawn += [radius, cx, cy, vel[0], vel[1]]
            obstacles.append(ObstacleConfig(center=(cx, cy), velocity=vel,
                                            semi_axes=(radius, radius)))
    v0 = p["vehicle_speed_mps"]
    initial = (0.0, 0.0, 0.0, v0, 0.0) if model == "unicycle" else (0.0, 0.0, 0.0, v0)
    cfg = ScenarioConfig(
        name=f"crowd_{name}", model=model, initial_state=initial,
        obstacles=tuple(obstacles), controller=ReferenceController(v_des=v0),
        barrier=p["barrier"], width=p["vehicle_width_m"],
        dt=p["dt_s"], duration=p["duration_s"],
    )
    digest = hashlib.sha256(np.asarray(drawn).tobytes()).hexdigest()[:16]
    return cfg, digest


def select(seed: int, cost_per_step: dict[str, float]) -> list[str]:
    """Each model's costliest tail plus one encounter per cost stratum, models alternating."""
    rng = np.random.default_rng(seed)
    picks = []
    for model in MODELS:
        ranked = sorted((k for k in cost_per_step if k.startswith(model + "-")),
                        key=lambda k: (cost_per_step[k], k))
        cut = len(ranked) - TAIL_PER_MODEL
        strata = np.array_split(np.array(ranked[:cut]), STRATA_PER_MODEL)
        chosen = ranked[cut:] + [str(rng.choice(stratum)) for stratum in strata]
        picks.append([chosen[i] for i in rng.permutation(len(chosen))])
    return [name for pair in zip(*picks) for name in pair]
