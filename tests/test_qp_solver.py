import numpy as np
import pytest

from portopt import qp_solver
from portopt.core import DataError, SolveStatus
from portopt.lp_solver import LpProblem, SimplexState, solve_lp
from portopt.models import _max_return_weights
from portopt.qp_solver import QpProblem, solve_qp

from oracles import projected_gradient_qp


def simplex_qp(q, c, cap=1.0):
    n = len(c)
    return QpProblem(q=q, c=c, a_eq=np.ones((1, n)), b_eq=np.array([1.0]),
                     lower=np.zeros(n), upper=np.full(n, cap))


def random_cov(rng, n, t_days=30, vol=0.02):
    r = rng.normal(0.0, vol, (n, t_days))
    centered = r - r.mean(axis=1, keepdims=True)
    cov = centered @ centered.T / t_days
    return 0.5 * (cov + cov.T) + 1e-8 * np.eye(n)


def test_two_asset_closed_form():
    s1, s2 = 4e-4, 1e-4
    sol = solve_qp(simplex_qp(np.diag([s1, s2]), [0.0, 0.0]))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.v[0] == pytest.approx(s2 / (s1 + s2), abs=1e-9)


def test_two_asset_with_correlation():
    s1, s2, s12 = 5e-4, 3e-4, 1e-4
    q = np.array([[s1, s12], [s12, s2]])
    sol = solve_qp(simplex_qp(q, [0.0, 0.0]))
    expected = (s2 - s12) / (s1 + s2 - 2 * s12)
    assert sol.v[0] == pytest.approx(expected, abs=1e-8)


def test_zero_q_reduces_to_lp():
    c = np.array([-0.01, -0.03, -0.02])
    qp_sol = solve_qp(simplex_qp(np.zeros((3, 3)), c))
    lp_sol = solve_lp(LpProblem(c=c, a_eq=np.ones((1, 3)), b_eq=[1.0],
                                lower=np.zeros(3), upper=np.ones(3)))
    assert qp_sol.status is SolveStatus.OPTIMAL
    assert qp_sol.objective == pytest.approx(lp_sol.objective, abs=1e-12)
    assert qp_sol.iterations <= 2


def test_identical_assets_objective():
    v = 2.5e-4
    sol = solve_qp(simplex_qp(np.full((3, 3), v), [0.0] * 3))
    assert sol.objective == pytest.approx(v, rel=1e-6)


def test_infeasible_region():
    p = QpProblem(q=np.eye(2) * 1e-4, c=[0.0, 0.0], a_eq=np.ones((1, 2)),
                  b_eq=np.array([3.0]), lower=np.zeros(2), upper=np.ones(2))
    assert solve_qp(p).status is SolveStatus.INFEASIBLE


def test_validates_q():
    with pytest.raises(DataError):
        QpProblem(q=np.array([[1.0, 0.5], [0.0, 1.0]]), c=[0.0, 0.0])
    with pytest.raises(DataError):
        QpProblem(q=np.array([[1.0, 0.0], [0.0, -1.0]]), c=[0.0, 0.0])


def test_monotone_descent():
    rng = np.random.default_rng(11)
    q = random_cov(rng, 5)
    c = -rng.uniform(0.0, 0.002, 5)
    problem = simplex_qp(q, c, cap=0.6)

    # re-run the iteration manually to observe every objective value
    oracle = SimplexState(problem._region)
    x = oracle.vertex
    values = []
    for _ in range(200):
        grad = problem.c + 2.0 * problem.q @ x
        assert oracle.minimize(grad) is SolveStatus.OPTIMAL
        s = oracle.vertex
        values.append(float(problem.c @ x + x @ problem.q @ x))
        d = s - x
        denom = float(d @ problem.q @ d)
        gamma = 1.0 if denom <= 1e-14 else min(1.0, max(0.0, float(-(grad @ d)) / (2 * denom)))
        x = x + gamma * d
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-12)


def test_certificate_bounds_suboptimality():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        q = random_cov(rng, n)
        c = -rng.uniform(0, 0.002, n)
        sol = solve_qp(simplex_qp(q, c), gap_tol=1e-7)
        _, ref = projected_gradient_qp(q, c, np.zeros(n), np.ones(n))
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective - ref <= sol.fw_gap + 1e-9


def test_certificate_bounds_grid_optimum():
    from oracles import weight_grid
    rng = np.random.default_rng(29)
    grid = weight_grid(3, cap=1.0, resolution=0.01)
    for _ in range(8):
        q = random_cov(rng, 3)
        c = -rng.uniform(0, 0.002, 3)
        sol = solve_qp(simplex_qp(q, c), gap_tol=1e-7)
        grid_vals = grid @ c + np.einsum("ij,jk,ik->i", grid, q, grid)
        assert sol.objective - float(grid_vals.min()) <= sol.fw_gap + 1e-12


def test_iteration_limit_returns_best_iterate(monkeypatch):
    rng = np.random.default_rng(31)
    q = random_cov(rng, 6)
    monkeypatch.setattr(qp_solver, "MAX_ITERS", 3)
    sol = solve_qp(simplex_qp(q, np.zeros(6)), gap_tol=1e-16)
    assert sol.status is SolveStatus.ITERATION_LIMIT
    assert sol.iterations == 3
    assert np.isfinite(sol.objective)
    assert sol.fw_gap > 0


def test_warm_start_point_used():
    rng = np.random.default_rng(37)
    q = random_cov(rng, 8)
    problem = simplex_qp(q, np.zeros(8))
    cold = solve_qp(problem)
    warm = solve_qp(problem, start=cold.v)
    assert warm.iterations <= cold.iterations
    assert warm.objective == pytest.approx(cold.objective, rel=1e-6)
    # infeasible start points are rejected, not trusted
    bad = solve_qp(problem, start=np.full(8, 0.5))
    assert bad.status is SolveStatus.OPTIMAL
    assert bad.objective == pytest.approx(cold.objective, rel=1e-6)


def test_non_finite_start_falls_back_to_phase1_vertex(monkeypatch):
    rng = np.random.default_rng(43)
    problem = simplex_qp(random_cov(rng, 6), np.zeros(6))
    monkeypatch.setattr(qp_solver, "MAX_ITERS", 5)
    cold = solve_qp(problem, gap_tol=1e-16)
    for start in (np.full(6, np.nan), np.array([np.nan, 1.0, 0.0, 0.0, 0.0, 0.0]),
                  np.array([np.inf, 1.0, 0.0, 0.0, 0.0, 0.0])):
        sol = solve_qp(problem, gap_tol=1e-16, start=start)
        assert np.array_equal(sol.v, cold.v)
        assert sol.fw_gap == cold.fw_gap


def test_return_floor_at_max_return_vertex():
    # The upper endpoint of the reverse-model bisection: the floor equals the
    # best attainable return, phase 1 leaves the floor row's artificial basic
    # (locked at zero), and every oracle call must re-optimize around it.
    rng = np.random.default_rng(41)
    n, cap = 8, 0.3
    mu = rng.normal(0.001, 0.002, n)
    top = _max_return_weights(mu, cap)
    problem = QpProblem(q=random_cov(rng, n), c=np.zeros(n),
                        a_eq=np.ones((1, n)), b_eq=np.array([1.0]),
                        a_ub=-mu[None, :], b_ub=np.array([-(mu @ top)]),
                        lower=np.zeros(n), upper=np.full(n, cap))
    state = SimplexState(problem._region)
    assert np.any(state.basic >= state.n_real)
    for start in (None, top):
        sol = solve_qp(problem, start=start)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.v == pytest.approx(top, abs=1e-9)


def test_level_stop_decides_the_side_a_full_solve_finds():
    # Criterion 03's generator; levels spread around each instance's optimum.
    rng = np.random.default_rng(307)
    sides = {True: 0, False: 0}
    full_iters = level_iters = 0
    for _ in range(30):
        n = int(rng.integers(2, 7))
        t_days = int(rng.integers(n + 2, 40))
        panel = rng.normal(0.0, rng.uniform(0.01, 0.03), (n, t_days))
        centered = panel - panel.mean(axis=1, keepdims=True)
        q = centered @ centered.T / t_days
        q = 0.5 * (q + q.T) + 1e-8 * np.eye(n)
        c = -rng.uniform(0.0, 0.002, n) if rng.random() < 0.5 else np.zeros(n)
        problem = simplex_qp(q, c, cap=float(rng.uniform(0.5, 1.0)))
        full = solve_qp(problem, gap_tol=1e-6)
        assert full.status is SolveStatus.OPTIMAL
        margin = full.fw_gap + 1e-6 * (1.0 + abs(full.objective))
        for rel in rng.uniform(-0.2, 0.2, 4):
            level = full.objective + rel * (1.0 + abs(full.objective)) * abs(full.objective)
            if abs(full.objective - level) <= margin:
                continue
            sol = solve_qp(problem, gap_tol=1e-6, level=level)
            assert sol.status is SolveStatus.OPTIMAL
            assert (sol.objective <= level) == (full.objective <= level)
            sides[sol.objective <= level] += 1
            full_iters += full.iterations
            level_iters += sol.iterations
    assert min(sides.values()) >= 20
    assert 4 * level_iters <= full_iters


def test_level_stop_returns_a_feasible_iterate_with_its_proof():
    rng = np.random.default_rng(311)
    problem = simplex_qp(random_cov(rng, 6), np.zeros(6), cap=0.6)
    full = solve_qp(problem)
    low, high = 0.9 * full.objective, 1.1 * full.objective
    above, below = solve_qp(problem, level=low), solve_qp(problem, level=high)
    assert above.objective - above.fw_gap > low      # f* > low, by the FW bound
    assert below.objective <= high                   # f* <= high, by the iterate
    for sol in (above, below):
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.iterations < full.iterations
        assert sol.v.sum() == pytest.approx(1.0, abs=1e-12)
        assert sol.v.min() >= 0.0 and sol.v.max() <= 0.6
