"""Shared fixtures and the finite-difference oracle for the test suite."""

import numpy as np
import pytest

from conebarrier.barriers import barrier_terms, reference_kinematics
from conebarrier.safety_filter import QpProblem
from conebarrier.scenarios import full_suite
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
    """``barrier_terms`` with the state's kinematics computed here, as the engine does."""
    state = np.asarray(state, dtype=float)
    kinematics = reference_kinematics(model, state, body_offset)
    return barrier_terms(barrier, model, state, kinematics, center, velocity, axes, radius,
                         body_offset=body_offset, rear_axle=rear_axle, kappa1=kappa1)


def cone(model, state, center, velocity, radius, body_offset=0.0, rear_axle=None):
    """The cone barrier's terms through ``terms``."""
    return terms("c3bf", model, state, center, velocity, None, radius, body_offset, rear_axle)


def qp_of(u_ref, rows):
    """The ``QpProblem`` of u_ref and (lg_h, rhs) pairs, stacked into the row arrays a and b."""
    return QpProblem(np.asarray(u_ref, dtype=float),
                     np.array([lg for lg, _ in rows], dtype=float).reshape(len(rows), 2),
                     np.array([rhs for _, rhs in rows], dtype=float))
