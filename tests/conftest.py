"""Shared fixtures and independent numeric oracles for the test suite."""

import numpy as np
import pytest

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


def grid_project(u_ref, rows, half_width=10.0, coarse=0.05, mid=0.005, fine=0.001,
                 deep=False):
    """Brute-force projection onto {u : lg u >= rhs} by grid refinement.

    Returns the best feasible grid point at the fine resolution, or None
    when the coarse grid over the box finds no feasible point. With
    ``deep=True`` an empty coarse pass triggers a full-box rescan at the mid
    resolution, catching feasible slivers thinner than the coarse lattice
    (worth the cost only when the instance is known to be feasible).
    """
    u_ref = np.asarray(u_ref, dtype=float)
    rows = [(np.asarray(lg, dtype=float), rhs) for lg, rhs in rows]

    def best_on(lo, hi, step):
        # The lattice is the outer product of two tick vectors, so feasibility
        # and distance are outer sums over blocks of 128 x ticks (a few MB
        # each); no point array.
        # Strict improvement across blocks keeps the first minimizer in the
        # row-major point order.
        ticks_x = np.arange(lo[0], hi[0] + step / 2, step)
        ticks_y = np.arange(lo[1], hi[1] + step / 2, step)
        dx2, dy2 = (ticks_x - u_ref[0]) ** 2, (ticks_y - u_ref[1]) ** 2
        best, best_d2 = None, np.inf
        for start in range(0, ticks_x.size, 128):
            xs = ticks_x[start:start + 128]
            d2 = np.add.outer(dx2[start:start + 128], dy2)
            for lg, rhs in rows:
                d2[np.add.outer(xs * lg[0], ticks_y * lg[1]) < rhs - 1e-9] = np.inf
            i, j = divmod(int(np.argmin(d2)), ticks_y.size)
            if d2[i, j] < best_d2:
                best, best_d2 = np.array([xs[i], ticks_y[j]]), d2[i, j]
        return best

    lo = np.array([-half_width, -half_width])
    hi = np.array([half_width, half_width])
    best = best_on(lo, hi, coarse)
    if best is None:
        if not deep:
            return None
        best = best_on(lo, hi, mid)
        if best is None:
            return None
    for step, window in ((mid, 0.6), (fine, 0.03)):
        refined = best_on(best - window, best + window, step)
        if refined is not None:
            best = refined
    return best
