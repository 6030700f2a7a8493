"""Reference controllers and the QP safety filter against the QP solved exactly in
rationals (``claims.exact_qp``) and against SciPy's linprog and nnls."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conebarrier import sim
from conebarrier.barriers import EPS_V, ClassK
from conebarrier.claims import exact_qp, qp_draws, qp_exact_oracle
from conebarrier.models import slip_from_steering
from conebarrier.safety_filter import (
    ACTIVE_TOL,
    DegenerateRowError,
    EmptyPathError,
    PathTrackerGains,
    QpProblem,
    ReferenceController,
    reference_p_controller,
    reference_path_tracker,
    solve_multi_constraint,
    solve_single_constraint,
)
from conebarrier.scenarios import ObstacleConfig, ScenarioConfig, load_packaged, with_overrides
from conebarrier.sim import run_scenario

from conftest import qp_of


def test_p_controller_at_setpoint():
    ctrl = ReferenceController(k_speed=1.0, k_damp=0.5, v_des=2.0)
    u = reference_p_controller("unicycle", np.array([0, 0, 0, 2.0, 0.0]), ctrl)
    np.testing.assert_array_equal(u, [0.0, 0.0])


def test_p_controller_direct_substitution():
    ctrl = ReferenceController(k_speed=1.0, k_damp=0.5, v_des=2.0)
    u = reference_p_controller("unicycle", np.array([0, 0, 0, 0.0, 1.0]), ctrl)
    np.testing.assert_allclose(u, [2.0, -0.5], atol=0)


def test_p_controller_bicycle_and_pointmass():
    ctrl = ReferenceController(k_speed=2.0, k_damp=0.5, v_des=1.5, heading_des=math.pi / 2)
    np.testing.assert_allclose(
        reference_p_controller("bicycle", np.array([0, 0, 0, 0.5]), ctrl), [2.0, 0.0],
        atol=1e-15)
    u = reference_p_controller("pointmass", np.array([0, 0, 0.0, 0.5]), ctrl)
    np.testing.assert_allclose(u, [0.0, 2.0 * (1.5 - 0.5)], atol=1e-15)
    with pytest.raises(ValueError):
        reference_p_controller("hovercraft", np.zeros(4), ctrl)


def test_default_classk_gain_is_one():
    assert ClassK().gamma == 1.0
    assert ClassK().kind == "linear"


def test_controller_validation():
    with pytest.raises(ValueError):
        ReferenceController(k_speed=0.0, k_damp=0.5, v_des=1.0)


def test_path_tracker_on_path_aligned():
    gains = PathTrackerGains(k_cross=1.0, k_soft=0.5, k_speed=1.0, v_des=2.0)
    path = [(0.0, 0.0), (10.0, 0.0)]
    u = reference_path_tracker(np.array([3.0, 0.0, 0.0, 2.0]), path, 1.0, 1.0, gains)
    assert u[0] == pytest.approx(0.0, abs=1e-15)
    assert u[1] == pytest.approx(0.0, abs=1e-15)


def test_path_tracker_offset_left_steers_right():
    gains = PathTrackerGains(k_cross=1.0, k_soft=0.5, k_speed=1.0, v_des=2.0)
    path = [(0.0, 0.0), (10.0, 0.0)]
    u = reference_path_tracker(np.array([3.0, 1.0, 0.0, 2.0]), path, 1.0, 1.0, gains)
    assert u[1] < 0.0  # left of the path: slip toward negative y


def test_path_tracker_rejects_short_path():
    gains = PathTrackerGains()
    with pytest.raises(EmptyPathError):
        reference_path_tracker(np.array([0, 0, 0, 1.0]), [(0.0, 0.0)], 1.0, 1.0, gains)


def _tracker_with_np_clip(state, path, l_f, l_r, gains, clamps):
    """``reference_path_tracker`` with ``np.clip`` and ``np.linalg.norm``, as the
    reference for its float clamps and tangent norm; records in ``clamps``
    which of tau's and delta's clamps bit."""
    pts = np.asarray(path, dtype=float)
    pos = np.array(state[0:2], dtype=float)
    theta, v = state[2], state[3]
    best = None
    for i in range(pts.shape[0] - 1):
        seg = pts[i + 1] - pts[i]
        seg_len2 = float(seg @ seg)
        if seg_len2 == 0.0:
            continue
        raw = (pos - pts[i]) @ seg / seg_len2
        clamps.update({"tau 0"} if raw < 0.0 else {"tau 1"} if raw > 1.0 else set())
        tau = float(np.clip(raw, 0.0, 1.0))
        foot = pts[i] + tau * seg
        d2 = float((pos - foot) @ (pos - foot))
        if best is None or d2 < best[0]:
            best = (d2, foot, seg)
    _, foot, seg = best
    tangent = seg / np.linalg.norm(seg)
    e_cross = float(tangent[0] * (pos[1] - foot[1]) - tangent[1] * (pos[0] - foot[0]))
    path_heading = math.atan2(tangent[1], tangent[0])
    heading_err = math.atan2(math.sin(path_heading - theta), math.cos(path_heading - theta))
    delta = heading_err - math.atan(gains.k_cross * e_cross / (gains.k_soft + abs(v)))
    clamps.update({"delta -1.4"} if delta < -1.4 else {"delta 1.4"} if delta > 1.4 else set())
    delta = float(np.clip(delta, -1.4, 1.4))
    return np.array([gains.k_speed * (gains.v_des - v), slip_from_steering(delta, l_f, l_r)])


def test_path_tracker_bit_identical_to_np_clip_version():
    rng = np.random.default_rng(29)
    gains = PathTrackerGains(k_cross=1.3, k_soft=0.5, k_speed=1.0, v_des=2.0)
    paths = [np.cumsum(rng.uniform(-4.0, 4.0, (n + 1, 2)), axis=0) for n in (2, 3, 4, 5)]
    paths.append(np.array([[0.0, 0.0], [5.0, 0.0], [5.0, 0.0], [9.0, 3.0]]))  # a zero-length segment
    clamps = set()
    for path in paths:
        lo, hi = path.min(axis=0) - 3.0, path.max(axis=0) + 3.0
        for _ in range(200):
            state = [*rng.uniform(lo, hi), rng.uniform(-2 * math.pi, 2 * math.pi),
                     rng.uniform(-3.0, 3.0)]
            for x in (state, np.array(state)):
                got = reference_path_tracker(x, path, 1.2, 1.6, gains)
                want = _tracker_with_np_clip(x, path, 1.2, 1.6, gains, clamps)
                assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    assert clamps == {"tau 0", "tau 1", "delta -1.4", "delta 1.4"}

    nan_state = [math.nan, 0.0, 0.0, 1.0]
    with pytest.raises(ValueError) as new:
        reference_path_tracker(nan_state, paths[-1], 1.2, 1.6, gains)
    with pytest.raises(ValueError) as old:
        _tracker_with_np_clip(nan_state, paths[-1], 1.2, 1.6, gains, set())
    assert type(new.value) is type(old.value) and str(new.value) == str(old.value)


def test_path_tracker_converges_from_offset():
    # Closed loop without obstacles: 1 m offset must settle within 10 s.
    from conebarrier.models import integrate_step, model_dynamics
    gains = PathTrackerGains(k_cross=1.0, k_soft=0.5, k_speed=1.0, v_des=2.0)
    path = np.array([[0.0, 0.0], [80.0, 0.0]])
    dyn = model_dynamics("bicycle", 1.0)
    x = np.array([0.0, 1.0, 0.0, 2.0])
    dt = 0.01
    for _ in range(1000):
        u = reference_path_tracker(x, path, 1.0, 1.0, gains)
        x = integrate_step(dyn, x, u, dt)
    assert abs(x[1]) < 0.05


@pytest.mark.parametrize("where", ["lg_h[0]", "lg_h[1]", "rhs"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constraint_row_rejects_non_finite(where, bad):
    # Both solvers reject a row with a bad entry through the QP's finiteness
    # test: the row alone, and behind a good row on the multi-row path.
    lg, rhs = [0.5, -1.0], 0.3
    if where == "rhs":
        rhs = bad
    else:
        lg[int(where[-2])] = bad
    for solve, rows in ((solve_single_constraint, [(lg, rhs)]),
                        (solve_multi_constraint, [(lg, rhs)]),
                        (solve_multi_constraint, [([1.0, 0.0], 0.0), (lg, rhs)])):
        with pytest.raises(ValueError, match="finite"):
            solve(qp_of([1.0, 2.0], rows))


def test_single_constraint_inactive_branch():
    qp = qp_of([1.0, 2.0], [([1.0, 0.0], 0.7)])
    res = solve_single_constraint(qp)
    assert res.status == "inactive"
    assert res.psi[0] == pytest.approx(0.3)
    np.testing.assert_array_equal(res.u_star, qp.u_ref)
    np.testing.assert_array_equal(res.u_safe, [0.0, 0.0])


def test_single_constraint_tie_at_zero_is_inactive():
    qp = qp_of([1.0, 0.0], [([1.0, 0.0], 1.0)])
    res = solve_single_constraint(qp)
    assert res.status == "inactive"
    assert res.active_set == ()


def test_single_constraint_formula_substitution():
    # lg=(1,0), psi=-2, u_ref=(0,0): u_safe = (2, 0), constraint exactly tight.
    qp = qp_of(np.zeros(2), [([1.0, 0.0], 2.0)])
    res = solve_single_constraint(qp)
    assert res.psi[0] == pytest.approx(-2.0)
    np.testing.assert_allclose(res.u_safe, [2.0, 0.0], atol=0)
    assert float(np.array([1.0, 0.0]) @ res.u_star) - 2.0 == pytest.approx(0.0, abs=1e-15)
    assert res.status == "corrected"
    assert res.active_set == (0,)


def test_single_constraint_degenerate_row():
    qp = qp_of(np.zeros(2), [(np.zeros(2), 1.0)])
    with pytest.raises(DegenerateRowError):
        solve_single_constraint(qp)


def test_single_constraint_matches_exact():
    rng = np.random.default_rng(2)
    for _ in range(100):
        ang = rng.uniform(0, 2 * math.pi)
        lg = np.array([math.cos(ang), math.sin(ang)])
        rhs = float(rng.uniform(-2, 2))
        qp = qp_of(rng.uniform(-3, 3, 2), [(lg, rhs)])
        res = solve_single_constraint(qp)
        status, u_star, _ = exact_qp(*qp)
        assert res.status == status
        assert float(lg @ res.u_star - rhs) >= -1e-9
        np.testing.assert_allclose(res.u_star, list(map(float, u_star)), rtol=0, atol=1e-14)


def test_multi_no_rows_passthrough():
    u_ref = np.array([0.4, -0.7])
    res = solve_multi_constraint(QpProblem(u_ref, np.empty((0, 2)), np.empty(0)))
    assert res.status == "inactive"
    np.testing.assert_array_equal(res.u_star, u_ref)
    assert res.u_star is not u_ref and not np.shares_memory(res.u_star, u_ref)
    assert res.psi.shape == (0,)
    assert res.active_set == () and res.basis == ()


def test_engine_steps_without_rows_are_inactive(monkeypatch):
    # A shadow run (--barrier none) builds no row at any step: every step's
    # QP gets (0, 2) and (0,) rows and is answered inactive, still one QP per step.
    answers = []
    solve = sim.solve_multi_constraint
    monkeypatch.setattr(sim, "solve_multi_constraint",
                        lambda qp, basis: answers.append((qp, res := solve(qp, basis))) or res)
    trace = run_scenario(with_overrides(load_packaged("braking_unicycle"), barrier="none"))
    assert len(answers) == len(trace.t) > 1
    for qp, res in answers:
        assert qp.a.shape == (0, 2) and qp.b.shape == (0,) and qp.a.dtype == qp.b.dtype == np.float64
        assert res.status == "inactive" and res.active_set == res.basis == ()
    assert np.isnan(trace.psi).all() and not trace.constrained.any()
    assert not trace.qp_active.any()
    np.testing.assert_array_equal(trace.u_star, trace.u_ref)


def test_multi_single_row_bit_identical_to_single():
    # The pass's first move is the closed form: bytes, not values, so that a
    # -0.0 where the closed form gives +0.0 (or the reverse) fails.
    rng = np.random.default_rng(4)
    cases = [qp_of([-0.0, -0.0], [([1.0, 0.0], 1.0)]), qp_of([-0.0, 0.0], [([0.0, -2.0], 0.5)]),
             qp_of([0.0, -0.0], [([-0.0, 3.0], 1.0)])]
    for _ in range(50):
        lg = rng.uniform(-1, 1, 2)
        if np.linalg.norm(lg) < 1e-3:
            continue
        cases.append(qp_of(rng.uniform(-3, 3, 2), [(lg, float(rng.uniform(-2, 2)))]))
    for qp in cases:
        a = solve_single_constraint(qp)
        b = solve_multi_constraint(qp)
        assert a.u_star.tobytes() == b.u_star.tobytes()
        assert a.psi.tobytes() == b.psi.tobytes()
        assert (a.status, a.active_set, a.basis) == (b.status, b.active_set, b.basis)


def test_multi_matches_exact_and_slackness():
    verdict = qp_exact_oracle(qp_draws(6, 200, range(2, 5)))
    assert verdict["passed"], verdict["detail"]
    assert min(verdict["numbers"]["statuses"].values()) > 0


def test_exact_oracle_forgives_a_label_rounding_decides():
    # The violation at u_ref is 2.6e-346 exactly, but psi underflows to 0.0, so
    # the solver answers 'inactive' where the exact QP says 'corrected'; the
    # exact u* rounds to u_ref, which the solver returns bit for bit.
    qp = qp_of([0.0, -2.2250738585072014e-308], [([1.0, 1.1754943508222875e-38], 0.0)])
    assert solve_multi_constraint(qp).status == "inactive"
    assert exact_qp(*qp)[0] == "corrected"
    verdict = qp_exact_oracle([qp])
    assert verdict["passed"], verdict["detail"]
    assert verdict["numbers"]["relabels"] == 1 and verdict["numbers"]["status_mismatches"] == 0
    # A feasible set thinner than the pass's 1e-9 tolerance is not rounding: the
    # exact QP is infeasible (t* ~ 1e-37), the solver answers 'corrected', and
    # the judge counts a mismatch.
    thin = qp_of([0.0, 0.0], [([math.cos(ang), math.sin(ang)], rhs)
                              for ang, rhs in ((0.0, 0.0), (1.0, 0.0), (4.0, 9.743490069220998e-37))])
    assert (exact_qp(*thin)[0], solve_multi_constraint(thin).status) == ("infeasible", "corrected")
    verdict = qp_exact_oracle([thin])
    assert not verdict["passed"]
    assert verdict["numbers"]["relabels"] == 0 and verdict["numbers"]["status_mismatches"] == 1


def _solve(u_ref, rows, basis=()):
    return solve_multi_constraint(qp_of(u_ref, rows), basis)


@st.composite
def _criterion_3_qps(draw):
    """u_ref and one to four unit rows drawn as in acceptance criterion 3."""
    u_ref = np.array(draw(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))))
    return u_ref, [(np.array([math.cos(ang), math.sin(ang)]), rhs) for ang, rhs in draw(st.lists(
        st.tuples(st.floats(0.0, 2 * math.pi, exclude_max=True), st.floats(-2.0, 2.0)),
        min_size=1, max_size=4))]


@st.composite
def _feasible_qps(draw):
    """A feasible criterion-3 instance, a row order and row scales."""
    u_ref, rows = draw(_criterion_3_qps())
    assume(_solve(u_ref, rows).status != "infeasible")
    order = draw(st.permutations(range(len(rows))))
    scales = draw(st.lists(st.floats(1e-2, 1e2), min_size=len(rows), max_size=len(rows)))
    return u_ref, rows, order, scales


@settings(derandomize=True, deadline=None)
@given(_feasible_qps())
def test_qp_feasible_and_invariant_under_row_order_and_scale(instance):
    u_ref, rows, order, scales = instance
    res = _solve(u_ref, rows)
    for lg, rhs in rows:
        assert float(lg @ res.u_star) - rhs >= -1e-9
    for variant in ([rows[k] for k in order],
                    [(s * lg, s * rhs) for s, (lg, rhs) in zip(scales, rows)]):
        other = _solve(u_ref, variant)
        assert other.status == res.status
        assert np.max(np.abs(other.u_star - res.u_star)) <= 1e-9


@settings(derandomize=True, deadline=None, max_examples=400)
@given(_criterion_3_qps())
def test_qp_kkt_conditions_and_least_violation_cold_and_warm(instance):
    # Corrected: u* - u_ref = sum of lambda_i a_i over the active set with
    # lambda_i >= 0 (nnls residual), every row holds to 1e-9, active rows are
    # tight and the others slack (complementary slackness). Infeasible: the
    # worst violation is linprog's t*. Both cold and warm from the cold basis.
    # The exact rational QP has the cold status and, infeasible, linprog's t*.
    # Its label may differ only where rounding decides it: a violation at u_ref
    # that float psi cannot show (u_ref ~ 1e-308, a row entry ~ 1e-38) leaves
    # the exact u* rounding to u_ref.
    nnls = pytest.importorskip("scipy.optimize").nnls
    u_ref, rows = instance
    a_mat, b_vec = np.array([l for l, _ in rows]), np.array([r for _, r in rows])
    cold = _solve(u_ref, rows)
    status, u_exact, t_star = exact_qp(u_ref, a_mat, b_vec)
    assert status == cold.status or (status != "infeasible" != cold.status and np.array_equal(
        cold.u_star, list(map(float, u_exact))))
    for basis in ((), cold.basis):
        res = _solve(u_ref, rows, basis)
        assert res.status == cold.status
        if res.status == "infeasible":
            _, lp_t = _least_violation_vs_linprog(u_ref, rows, basis)
            assert abs(float(t_star) - lp_t) <= 1e-9
            continue
        slack = a_mat @ res.u_star - b_vec
        assert slack.min() >= -1e-9
        if res.status == "inactive":
            assert np.array_equal(res.u_star, u_ref) and not res.active_set
            continue
        assert res.active_set == tuple(np.flatnonzero(np.abs(slack) <= ACTIVE_TOL))
        assert res.active_set
        _, resid = nnls(a_mat[list(res.active_set)].T, res.u_star - u_ref)
        assert resid <= 1e-9 * max(1.0, float(np.linalg.norm(res.u_star - u_ref)))


def test_minimal_deviation_on_sampled_grid():
    rng = np.random.default_rng(8)
    u_ref = np.array([1.0, -2.0])
    rows = [(np.array([0.8, 0.6]), 1.0), (np.array([-0.5, 0.8]), 0.2)]
    res = solve_multi_constraint(qp_of(u_ref, rows))
    d_star = np.linalg.norm(res.u_star - u_ref)
    for _ in range(5000):
        u = rng.uniform(-6, 6, 2)
        if all(float(l @ u - r) >= 0 for l, r in rows):
            assert np.linalg.norm(u - u_ref) >= d_star - 1e-12


def test_switching_continuity_as_psi_crosses_zero():
    lg = np.array([0.6, -0.8])
    u_ref = np.array([0.5, 0.25])
    base = float(lg @ u_ref)
    norms = []
    for eps in np.linspace(-0.01, 0.01, 41):
        res = solve_single_constraint(qp_of(u_ref, [(lg, base + eps)]))
        norms.append(np.linalg.norm(res.u_safe))
    norms = np.array(norms)
    # |u_safe| = max(psi, 0)/|lg|: linear in the violation with no jump.
    np.testing.assert_allclose(norms, np.maximum(np.linspace(-0.01, 0.01, 41), 0.0),
                               atol=1e-12)


def test_infeasible_conflicting_rows_least_violating():
    lg = np.array([1.0, 0.0])
    rows = [(lg, 1.0), (-lg, 1.0)]  # u0 >= 1 and u0 <= -1
    res = solve_multi_constraint(qp_of(np.zeros(2), rows))
    assert res.status == "infeasible"
    # Least worst violation is attained midway: u0 = 0 violates both by 1.
    viol = max(1.0 - res.u_star[0], 1.0 + res.u_star[0])
    assert viol == pytest.approx(1.0, abs=1e-6)


def test_multi_degenerate_zero_row_infeasible_not_raising():
    res = solve_multi_constraint(qp_of(np.zeros(2), [(np.zeros(2), 1.0)]))
    assert res.status == "infeasible"
    res2 = solve_multi_constraint(qp_of(np.zeros(2), [(np.zeros(2), -1.0)]))
    assert res2.status == "inactive"


def _least_violation_vs_linprog(u_ref, rows, basis=()):
    """Solve rows that conflict; check u_star's worst violation against linprog's t*.

    Stage two projects onto the rows relaxed by t* + 1e-9 with a 1e-9
    feasibility tolerance, so the worst violation lies in [t*, t* + 2e-9].
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    res = solve_multi_constraint(qp_of(u_ref, rows), basis)
    assert res.status == "infeasible"
    a_mat = np.array([l for l, _ in rows])
    b_vec = np.array([r for _, r in rows])
    lp = linprog(np.array([0.0, 0.0, 1.0]), A_ub=np.hstack([-a_mat, -np.ones((len(rows), 1))]),
                 b_ub=-b_vec, bounds=[(None, None)] * 3, method="highs")
    assert lp.success and lp.x[2] > 0.0
    worst = float(np.max(b_vec - a_mat @ res.u_star))
    assert lp.x[2] - 1e-12 <= worst <= lp.x[2] + 2e-9
    return res.u_star, float(lp.x[2])


def test_least_violation_matches_linprog_random():
    pytest.importorskip("scipy.optimize")
    # Degenerate conflicts inside larger row sets, cold and warm from all
    # their conflict rows: a violated zero row beside satisfiable rows (a
    # one-row conflict), and a triple whose normals hold 0 on an edge, two of
    # them exactly anti-parallel, so that a pair sets t*.
    zero_row = [(np.array([0.6, 0.8]), 0.3), (np.zeros(2), 0.5), (np.array([1.0, 0.0]), 1.0),
                (np.array([0.0, -1.0]), -2.0)]
    on_edge = [(np.array([0.0, 1.0]), 0.7), (np.array([1.0, 0.0]), 1.0),
               (np.array([-1.0, 0.0]), 0.5), (np.array([-0.6, -0.8]), -3.0)]
    for rows, conflict in ((zero_row, (1,)), (on_edge, (0, 1, 2))):
        for basis in ((), conflict):
            _least_violation_vs_linprog(np.array([-1.5, 0.4]), rows, basis)
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 300:
        rows = [(np.array([math.cos(a), math.sin(a)]), float(rng.uniform(0, 2)))
                for a in rng.uniform(0, 2 * math.pi, rng.integers(3, 13))]
        u_ref = rng.uniform(-3, 3, 2)
        res = solve_multi_constraint(qp_of(u_ref, rows))
        if res.status == "infeasible":
            _least_violation_vs_linprog(u_ref, rows)
            checked += 1


def test_least_violation_anti_parallel_rows_projects_on_tie_line():
    # u0 >= 1 and u0 <= -0.5: no row triple exists; every point of the line
    # u0 = 0.25 violates both rows by t* = 0.75, and the tie-break keeps u1.
    rows = [(np.array([1.0, 0.0]), 1.0), (np.array([-1.0, 0.0]), 0.5)]
    u_ref = np.array([2.0, -1.3])
    u_star, t_star = _least_violation_vs_linprog(u_ref, rows)
    assert t_star == pytest.approx(0.75, abs=1e-12)
    np.testing.assert_allclose(u_star, [0.25, -1.3], atol=2e-9)


def test_least_violation_normals_surrounding_origin_ties_three_rows():
    angles = np.radians([90.0, 210.0, 330.0])
    lgs = [np.array([math.cos(a), math.sin(a)]) for a in angles]
    rows = list(zip(lgs, [1.0, 0.5, 2.0]))
    u_star, t_star = _least_violation_vs_linprog(np.array([3.0, 3.0]), rows)
    # The minimizer is the unique point where all three rows tie at t*.
    tie = np.linalg.solve(np.column_stack([np.array(lgs), np.ones(3)]), [1.0, 0.5, 2.0])
    assert t_star == pytest.approx(tie[2], abs=1e-12)
    np.testing.assert_allclose(u_star, tie[:2], atol=1e-8)


def test_least_violation_nearly_anti_parallel_rows():
    # Rows 1 and 2 are 8e-5 rad from anti-parallel. Cramer's rule on them
    # puts stage two's point 2e-7 outside the relaxed rows; the pass places u
    # on a row's line at the clamped parameter, and stays within them.
    rows = [(np.array([0.2340219, 0.68432405]), 1.86913337),
            (np.array([-2.66938494, 3.4515144]), 1.40995366),
            (np.array([2.51312203, -3.25000547]), 1.59424484)]
    _least_violation_vs_linprog(np.array([0.26174995, 2.61043454]), rows)


def test_least_violation_parallel_rows_far_triples_do_not_undercut():
    # Normals on one line, parallel only up to rounding: each triple's tie
    # point is rounding noise ~1e16 away, where a worst violation computed in
    # floating point is off by order one. The minimum lies on a pair's tie line.
    theta = 6.014328936414339 + np.pi * np.array([0, 0, 1, 1, 0, 1, 0])
    mags = np.array([1.4919649790427134, 0.7738814669539811, 2.425453678283093,
                     2.7782374633720615, 0.8717777896476484, 1.6629097821043421,
                     1.3839832040261415])
    rhs = [1.72406926392462, -1.8379571552462615, 0.9280247826262431, 0.45749298779598657,
           -1.8865385395459158, 0.8768790913069613, -1.936033081905712]
    lgs = mags[:, None] * np.column_stack([np.cos(theta), np.sin(theta)])
    _least_violation_vs_linprog(np.array([1.5477060141385683, 0.07655233957246832]),
                                list(zip(lgs, rhs)))



def test_least_violation_rows_parallel_up_to_rounding_stay_near():
    # Rows m_k (cos(theta + k pi), sin(theta + k pi)) are parallel or
    # anti-parallel, but rounding tilts them by ~1e-15 rad. Taken exactly,
    # their triples tie ~1e15 away with a smaller worst violation; the
    # solver treats them as parallel, as linprog does.
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(0)
    largest = 0.0
    for _ in range(2000):
        theta = rng.uniform(0, 2 * math.pi)
        k = np.arange(rng.integers(2, 6))
        mags = rng.uniform(0.01, 5, len(k))
        rhs = rng.uniform(-2, 2, len(k))
        lgs = mags[:, None] * np.column_stack([np.cos(theta + k * np.pi),
                                               np.sin(theta + k * np.pi)])
        u_ref = rng.uniform(-3, 3, 2)
        rows = list(zip(lgs, rhs))
        res = solve_multi_constraint(qp_of(u_ref, rows))
        largest = max(largest, float(np.max(np.abs(res.u_star))))
        if res.status == "infeasible":
            _least_violation_vs_linprog(u_ref, rows)
    assert largest <= 1e3


def _unit_rows(rng, n_rows, rhs_low):
    """Rows of unit normals at uniform angles with rhs uniform in [rhs_low, 2)."""
    return [(np.array([math.cos(a), math.sin(a)]), float(rng.uniform(rhs_low, 2)))
            for a in rng.uniform(0, 2 * math.pi, n_rows)]


def _crowd_qps(seed):
    """The QPs, with their basis hints, of a unicycle crossing 16 moving obstacles."""
    rng = np.random.default_rng(seed)
    centers = np.column_stack([4.0 + 2.5 * np.arange(8).repeat(2), np.tile([-2.0, 2.0], 8)])
    centers += rng.uniform(-0.6, 0.6, (16, 2))
    obstacles = [ObstacleConfig(center=tuple(c), velocity=tuple(rng.uniform(-1.0, 1.0, 2)),
                                semi_axes=(r, r))
                 for c, r in zip(centers, rng.uniform(0.3, 0.6, 16))]
    cfg = ScenarioConfig(name="crowd", model="unicycle", initial_state=(0.0, 0.0, 0.0, 2.0, 0.0),
                         obstacles=tuple(obstacles), controller=ReferenceController(v_des=2.0),
                         width=0.5, duration=3.0)
    calls = []
    solve = sim.solve_multi_constraint
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sim, "solve_multi_constraint",
                   lambda qp, basis: calls.append((qp, basis)) or solve(qp, basis))
        run_scenario(cfg)
    return [(qp, basis) for qp, basis in calls if len(qp.b) >= 2]


def test_rows_view_shows_the_engine_row_arrays():
    # The benchmark tracer reads qp.u_ref and qp.rows row by row (lg_h, rhs);
    # on engine-built QPs the view must show the row arrays bit for bit.
    qps = [qp for qp, _ in _crowd_qps(1)]
    assert qps
    for qp in qps:
        assert len(qp.rows) == len(qp.a) == len(qp.b) >= 2
        for row, lg, rhs in zip(qp.rows, qp.a, qp.b):
            assert row.lg_h.tobytes() == lg.tobytes()
            assert np.float64(row.rhs).tobytes() == rhs.tobytes()
        assert qp.u_ref.shape == (2,)


def test_warm_start_matches_cold_solve():
    # Unit rows as in the exact-judge and linprog tests, then a crowd run's rows.
    # Each QP is solved cold, then warm from the cold basis, from a random
    # row subset (usually wrong) and, for the crowd rows, from the engine's hint.
    rng = np.random.default_rng(16)
    cases = []
    for n in range(1500):
        rows = _unit_rows(rng, rng.integers(2, 13), -2.0 if n % 2 else 0.0)
        cases.append((qp_of(rng.uniform(-3, 3, 2), rows), ()))
    cases += _crowd_qps(1) + _crowd_qps(2)
    assert len(cases) >= 2000
    statuses = []
    for qp, hint in cases:
        cold = solve_multi_constraint(qp)
        statuses.append(cold.status)
        m = len(qp.b)
        guess = tuple(sorted(rng.choice(m, min(m, rng.integers(1, 4)), replace=False).tolist()))
        for basis in {cold.basis, guess, hint}:
            warm = solve_multi_constraint(qp, basis)
            assert (warm.status, warm.active_set, warm.basis) == (cold.status, cold.active_set,
                                                                  cold.basis)
            assert np.max(np.abs(warm.u_star - cold.u_star)) <= 1e-9
            f_warm, f_cold = (float(np.sum((r.u_star - qp.u_ref) ** 2)) for r in (warm, cold))
            assert abs(f_warm - f_cold) <= 1e-12 * max(1.0, f_cold)
    assert set(statuses) == {"inactive", "corrected", "infeasible"}


def test_warm_start_infeasible_matches_linprog():
    # Infeasible QPs solved warm from the cold solve's conflict rows (a
    # triple, a pair or a zero row): the worst violation matches linprog's t*.
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(18)
    tried = 0
    while tried < 300:
        rows = _unit_rows(rng, rng.integers(3, 13), 0.0)
        u_ref = rng.uniform(-3, 3, 2)
        cold = solve_multi_constraint(qp_of(u_ref, rows))
        if cold.status != "infeasible":
            continue
        _least_violation_vs_linprog(u_ref, rows, cold.basis)
        tried += 1


def test_infeasible_warm_solve_bit_identical_to_cold():
    # Infeasible QPs from crowd runs and unit rows, re-solved warm from the
    # cold solve's conflict rows: one arithmetic computes their level t, so
    # the warm solve repeats the cold solve's last pass bit for bit.
    rng = np.random.default_rng(20)
    cases = [qp for qp, _ in _crowd_qps(1) + _crowd_qps(2)]
    cases += [qp_of(rng.uniform(-3, 3, 2), _unit_rows(rng, rng.integers(3, 13), 0.0))
              for _ in range(600)]
    solved = 0
    for qp in cases:
        cold = solve_multi_constraint(qp)
        if cold.status != "infeasible":
            continue
        warm = solve_multi_constraint(qp, cold.basis)
        assert warm.u_star.tobytes() == cold.u_star.tobytes()
        assert (warm.status, warm.active_set, warm.basis) == (cold.status, cold.active_set,
                                                              cold.basis)
        solved += 1
    assert solved >= 300


def _one_filter_step(obstacles, body_offset=0.1):
    # The per-step filter (rows from the barrier, QP, events) runs inside
    # run_scenario; the first record of a one-step run is its evaluation at
    # the initial state.
    cfg = ScenarioConfig(
        name="filter_step", model="unicycle", initial_state=(0.0, 0.0, 0.0, 2.0, 0.0),
        obstacles=tuple(obstacles),
        controller=ReferenceController(k_speed=1.0, k_damp=0.5, v_des=2.0),
        barrier="c3bf", kappa=ClassK(), body_offset=body_offset, width=0.6,
        perception_radius=10.0, dt=0.01, duration=0.01)
    return run_scenario(cfg)


def test_filter_step_no_obstacles_passthrough():
    trace = _one_filter_step([])
    np.testing.assert_array_equal(trace.u_star[0], trace.u_ref[0])
    assert trace.constrained.shape == (2, 0)
    assert trace.events == ()


def test_filter_step_braking_correction_decelerates():
    # Static obstacle dead ahead at speed: the correction must brake.
    trace = _one_filter_step([ObstacleConfig(center=(9.0, 0.0), semi_axes=(0.75, 0.75))])
    assert trace.constrained[0, 0] and trace.qp_active[0, 0]
    assert trace.psi[0, 0] < 0
    assert trace.u_safe[0, 0] < 0


def test_filter_step_drops_domain_violations_with_events():
    inside = ObstacleConfig(center=(0.5, 0.0), semi_axes=(1.0, 1.0))
    degen = ObstacleConfig(center=(5.0, 0.0), velocity=(2.0, 0.0), semi_axes=(0.5, 0.5))
    trace = _one_filter_step([inside, degen], body_offset=0.0)
    kinds = sorted((e.kind, e.obstacle) for e in trace.events
                   if e.time == 0.0 and e.kind != "perception_entry")
    assert kinds == [("collision", 0), ("degenerate_velocity", 1)]
    assert not trace.constrained[0].any()
    assert np.isnan(trace.h[0]).all() and np.isnan(trace.psi[0]).all()
    np.testing.assert_array_equal(trace.u_star[0], trace.u_ref[0])

    # The EPS_V gate: obstacles pacing the vehicle (relative velocity (0, dv))
    # build a row only when dv exceeds EPS_V.
    slow = ObstacleConfig(center=(5.0, 2.0), velocity=(2.0, EPS_V / 2), semi_axes=(0.5, 0.5))
    fast = ObstacleConfig(center=(5.0, -2.0), velocity=(2.0, 2 * EPS_V), semi_axes=(0.5, 0.5))
    trace = _one_filter_step([slow, fast], body_offset=0.0)
    kinds = sorted((e.kind, e.obstacle) for e in trace.events if e.kind != "perception_entry")
    assert kinds == [("degenerate_velocity", 0)]
    np.testing.assert_array_equal(trace.constrained[0], [False, True])
    assert np.isnan(trace.h[0, 0]) and np.isfinite(trace.h[0, 1])
