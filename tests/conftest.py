"""Shared fixtures, the finite-difference oracle, the QP builder and file helpers for the tests."""

import csv
from pathlib import Path

import numpy as np
import pytest
import yaml

from conebarrier.barriers import barrier_terms, reference_kinematics, relative_motion
from conebarrier.safety_filter import QpProblem
from conebarrier.scenarios import EXPECTED_BEHAVIORS, full_suite, load_packaged, scenario_to_dict
from conebarrier.sim import run_scenario


@pytest.fixture(scope="session")
def suite_traces():
    """Every packaged scenario simulated once per session."""
    return {name: run_scenario(cfg) for name, cfg in full_suite().items()}


def directional_fd(h_of, x, direction, delta=1e-6):
    """Central finite difference of h along an unnormalized direction.

    Steps are taken along the normalized direction and rescaled, keeping the
    stencil width independent of the direction's magnitude.
    """
    direction = np.asarray(direction, dtype=float)
    nrm = float(np.linalg.norm(direction))
    if nrm == 0.0:
        return 0.0
    unit = direction / nrm
    hp = h_of(x + delta * unit)
    hm = h_of(x - delta * unit)
    return (hp - hm) / (2.0 * delta) * nrm


def terms(barrier, model, state, center, velocity, axes=None, radius=None, body_offset=0.0,
          rear_axle=None, kappa1=None):
    """``barrier_terms`` with the state's relative motion computed here, as the engine does."""
    state = np.asarray(state, dtype=float)
    rel = relative_motion(reference_kinematics(model, state, body_offset), center, velocity)
    return barrier_terms(barrier, model, state, rel, center, velocity, axes, radius,
                         body_offset=body_offset, rear_axle=rear_axle, kappa1=kappa1)


def cone(model, state, center, velocity, radius, body_offset=0.0, rear_axle=None):
    """The cone barrier's terms through ``terms``."""
    return terms("c3bf", model, state, center, velocity, None, radius, body_offset, rear_axle)


def qp_of(u_ref, rows):
    """The ``QpProblem`` of u_ref and (lg_h, rhs) pairs, stacked into the row arrays a and b."""
    return QpProblem(np.asarray(u_ref, dtype=float),
                     np.array([lg for lg, _ in rows], dtype=float).reshape(len(rows), 2),
                     np.array([rhs for _, rhs in rows], dtype=float))


def behavior_suite():
    """The eight canonical behaviour setups, keyed by name."""
    return {name: load_packaged(name) for name in EXPECTED_BEHAVIORS}


def save_scenario(cfg, path):
    """Write a config as the YAML file ``scenarios.load_scenario`` reads."""
    Path(path).write_text(yaml.safe_dump(scenario_to_dict(cfg), sort_keys=False))


def parse_trace_csv(path):
    """Read an emitted trace back into named float columns."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        cols = [[] for _ in header]
        for row in reader:
            for j, cell in enumerate(row):
                cols[j].append(float(cell))
    return {name: np.array(col) for name, col in zip(header, cols)}
