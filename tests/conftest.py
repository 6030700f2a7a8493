"""Shared fixtures, the finite-difference oracle and the exact QP reference for the tests."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from conebarrier.barriers import barrier_terms, reference_kinematics, relative_motion
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


def exact_qp(u_ref, rows):
    """The filter QP solved in rational arithmetic over the float rows: (status, u*, t*).

    Evaluates the candidates of a candidate enumeration exactly: u_ref, each
    row's projection and each row pair's intersection. The one nearest u_ref
    that meets every row is u* ('corrected'; 'inactive' if that is u_ref).
    Without one the rows conflict: t* = min_u max_l (b_l - a_l u) is then the
    least worst violation among the pair ties (u_ref's projection onto the
    line where two rows violate equally) and the triple tie points
    ('infeasible', u* None).
    """
    u = tuple(map(Fraction, u_ref))
    a = [tuple(map(Fraction, map(float, lg))) for lg, _ in rows]
    b = [Fraction(float(rhs)) for _, rhs in rows]

    def worst(p):
        return max(bl - (al[0] * p[0] + al[1] * p[1]) for al, bl in zip(a, b))

    def onto(n, c):
        # u_ref's projection onto the line n p = c, or None for n = 0.
        n2 = n[0] * n[0] + n[1] * n[1]
        if not n2:
            return None
        q = (c - n[0] * u[0] - n[1] * u[1]) / n2
        return u[0] + q * n[0], u[1] + q * n[1]

    if worst(u) <= 0:
        return "inactive", u, None
    cand = [p for al, bl in zip(a, b) if (p := onto(al, bl)) is not None]
    for (ai, bi), (aj, bj) in combinations(zip(a, b), 2):
        det = ai[0] * aj[1] - ai[1] * aj[0]
        if det:
            cand.append(((bi * aj[1] - bj * ai[1]) / det, (ai[0] * bj - aj[0] * bi) / det))
    feasible = [p for p in cand if worst(p) <= 0]
    if feasible:
        return "corrected", min(feasible, key=lambda p: (p[0] - u[0]) ** 2 + (p[1] - u[1]) ** 2), None
    ties = [u] + [p for (ai, bi), (aj, bj) in combinations(zip(a, b), 2)
                  if (p := onto((ai[0] - aj[0], ai[1] - aj[1]), bi - bj)) is not None]
    for i, j, k in combinations(range(len(b)), 3):
        p, q = [x - z for x, z in zip(a[i], a[k])], [y - z for y, z in zip(a[j], a[k])]
        det = p[0] * q[1] - p[1] * q[0]
        if det:
            c_p, c_q = b[i] - b[k], b[j] - b[k]
            ties.append(((c_p * q[1] - c_q * p[1]) / det, (c_q * p[0] - c_p * q[0]) / det))
    return "infeasible", None, min(map(worst, ties))
