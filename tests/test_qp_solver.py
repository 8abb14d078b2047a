import numpy as np
import pytest

from portopt import qp_solver
from portopt.core import DataError, SolveStatus
from portopt.lp_solver import LpProblem, SimplexState, solve_lp
from portopt.qp_solver import CriticalLine, QpProblem, solve_qp

from oracles import projected_gradient_qp, weight_grid


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
    assert qp_sol.iterations <= 3


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


def test_return_floor_at_max_return_vertex():
    # The floor equals the best attainable return, the simplex's top vertex
    # for cost -mu; phase 1 leaves the floor row's slack basic at zero, and
    # the active-set steps and the certifying oracle call must work around
    # it.
    rng = np.random.default_rng(41)
    n, cap = 8, 0.3
    mu = rng.normal(0.001, 0.002, n)
    top_state = SimplexState(simplex_qp(np.zeros((n, n)), np.zeros(n), cap)._region)
    assert top_state.minimize(-mu) is SolveStatus.OPTIMAL
    top = top_state.vertex
    problem = QpProblem(q=random_cov(rng, n), c=np.zeros(n),
                        a_eq=np.ones((1, n)), b_eq=np.array([1.0]),
                        a_ub=-mu[None, :], b_ub=np.array([-(mu @ top)]),
                        lower=np.zeros(n), upper=np.full(n, cap))
    state = SimplexState(problem._region)
    floor_slack = n + 1   # after the n weights and the budget row's slack
    assert floor_slack in state.basic
    assert state.solution()[floor_slack] == pytest.approx(0.0, abs=1e-15)
    sol = solve_qp(problem)
    assert sol.status is SolveStatus.OPTIMAL
    assert np.abs(sol.v - top).max() <= 1e-12
    assert sol.fw_gap <= 1e-8 * (1.0 + abs(sol.objective))


def test_householder_basis_spans_the_rows_null_space():
    # Rows of ones (the budget row) and rows of mixed signs and scales,
    # k = 1 to 60: k - 1 orthonormal columns orthogonal to the row.
    rng = np.random.default_rng(34)
    for k in range(1, 61):
        mixed = rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(-6.0, 6.0, k)
        for row in (np.ones(k), mixed):
            z = qp_solver._householder_basis(row)
            assert z.shape == (k, k - 1)
            assert np.abs(row @ z).max(initial=0.0) <= 1e-14 * np.sqrt(row @ row)
            assert np.abs(z.T @ z - np.eye(k - 1)).max(initial=0.0) <= 1e-14


def dense_line(problem: QpProblem, mu: np.ndarray) -> CriticalLine:
    """The critical line over `problem`'s region, reading its dense Q."""
    return CriticalLine(problem._region, mu, q=problem.q)


def test_critical_line_on_an_empty_region_is_infeasible():
    line = dense_line(simplex_qp(np.eye(3), np.zeros(3), cap=0.3), np.ones(3))
    sol = line.at_variance(1.0)
    assert sol.status is SolveStatus.INFEASIBLE


def test_critical_line_two_assets_closed_form():
    # Uncorrelated variances s1 > s2 and returns m1 > m2: from the top vertex
    # (all in asset 1) the line frees asset 2 at t = 2 s1 / (m1 - m2), where
    # its multiplier changes sign, and then moves linearly to the
    # minimum-variance split s2 / (s1 + s2) at t = 0.
    s1, s2, m1, m2 = 4e-4, 1e-4, 0.002, 0.001
    problem = simplex_qp(np.diag([s1, s2]), np.zeros(2))
    mu = np.array([m1, m2])
    # each query on a line of its own, which walks no further than its point
    top = dense_line(problem, mu).at_variance(2.0 * s1)  # the top vertex is below it
    assert top.iterations == 0 and np.all(top.v == [1.0, 0.0])
    for w in (0.9, 0.5, 0.3):      # weight of asset 1 at the point sought
        level = w * w * s1 + (1 - w) ** 2 * s2
        sol = dense_line(problem, mu).at_variance(level)
        assert sol.status is SolveStatus.OPTIMAL and sol.iterations == 1
        assert sol.v[0] == pytest.approx(w, abs=1e-9)
        assert sol.v @ problem.q @ sol.v <= level
    low = dense_line(problem, mu).at_variance(1e-5)  # below every variance: the t = 0 end
    assert low.v[0] == pytest.approx(s2 / (s1 + s2), abs=1e-12) and low.objective > 1e-5


# Beale's LP with rows and columns rescaled (as in test_lp_solver), posed as a
# QP with Q = 0 and every weight capped at 10. Dropping the bound or row of
# largest wrong multiplier and adding the fastest-approached blocking
# constraint repeat the simplex's Dantzig cycle through degenerate working
# sets at the origin.
SCALED_BEALE = QpProblem(q=np.zeros((4, 4)), c=np.array([-0.75, 600.0, -0.08, 24.0]),
                         a_ub=np.array([[0.25, -240.0, -0.16, 36.0],
                                        [0.125, -90.0, -0.02, 3.0],
                                        [0.0, 0.0, 4.0, 0.0]]),
                         b_ub=np.array([0.0, 0.0, 1.0]), lower=np.zeros(4), upper=np.full(4, 10.0))


def record_picks(monkeypatch, hold_rule_off=False) -> list:
    """Record the `bland` flag of every add and drop choice; with
    hold_rule_off, make every choice by the default rule."""
    flags = []
    pick = qp_solver._pick

    def recorded(candidates, score, bland):
        flags.append(bland)
        return pick(candidates, score, bland and not hold_rule_off)

    monkeypatch.setattr(qp_solver, "_pick", recorded)
    return flags


def test_scaled_beale_cycle_ends_under_the_smallest_index_rule(monkeypatch):
    flags = record_picks(monkeypatch)
    sol = solve_qp(SCALED_BEALE)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-0.05, abs=1e-15)
    assert sol.iterations == 24
    assert not flags[0] and flags[-1]   # a repeated working set turned the rule on


def test_cycle_without_the_smallest_index_rule_raises(monkeypatch):
    # With the rule's choices held off the cycle comes back to a working set
    # after the rule is on. The loop ends there, at a vertex short of the
    # optimum, and the certificate raises instead of returning it.
    record_picks(monkeypatch, hold_rule_off=True)
    with pytest.raises(RuntimeError, match="Frank-Wolfe gap"):
        solve_qp(SCALED_BEALE)


def test_gap_tol_is_enforced(monkeypatch):
    # A point short of the optimum (here the phase-1 vertex, returned as the
    # loop's answer) fails the final certificate and raises; it is never
    # returned as Optimal.
    rng = np.random.default_rng(47)
    problem = simplex_qp(random_cov(rng, 6), np.zeros(6))
    monkeypatch.setattr(qp_solver, "_active_set", lambda problem, x, side: (x, 0, side))
    with pytest.raises(RuntimeError, match="Frank-Wolfe gap"):
        solve_qp(problem)
    assert solve_qp(problem, gap_tol=np.inf).status is SolveStatus.OPTIMAL


def test_general_regions_at_any_scale_meet_the_gap():
    # Rank-deficient Q from 1e-6 to 1e4 in size, costs of three sizes, boxes
    # at [0, u] or [-1, u], one or two equality rows (sometimes the same row
    # twice) or none, and up to three `<=` rows of two sizes, each region
    # holding a random point x0. Every solve passes its own gap check (it
    # raises otherwise) and is no worse than x0. Stream 73 holds instances
    # that a tolerance taken from max |Q| got wrong, stream 82 one where Q is
    # nearly zero and ties judged in step-length units, not in units of x,
    # added a bound x had not reached.
    for seed in (73, 82):
        rng = np.random.default_rng(seed)
        for _ in range(100):
            n = int(rng.integers(10, 40))
            b = rng.normal(size=(n, int(rng.integers(0, n + 1)))) * rng.choice([1e-3, 1.0, 100.0])
            q, c = b @ b.T, rng.normal(size=n) * rng.choice([0.0, 1e-3, 1.0])
            lower = rng.choice([0.0, -1.0], n)
            upper = lower + rng.choice([0.5, 1.0, 2.0], n)
            x0 = rng.uniform(lower, upper)
            rows = {}
            if rng.random() < 0.7:
                a_eq = np.vstack([np.ones(n)] + [rng.normal(size=n)] * int(rng.random() < 0.2))
                a_eq = np.vstack([a_eq] * (1 + int(rng.random() < 0.2)))
                rows.update(a_eq=a_eq, b_eq=a_eq @ x0)
            m = int(rng.integers(0, 4))
            if m:
                a_ub = rng.normal(size=(m, n)) * rng.choice([1e-3, 1.0], (m, 1))
                rows.update(a_ub=a_ub, b_ub=a_ub @ x0 + rng.choice([0.0, 0.1], m))
            sol = solve_qp(QpProblem(q=q, c=c, lower=lower, upper=upper, **rows))
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.objective <= c @ x0 + x0 @ q @ x0 + 1e-12


def highs_gap(q, c, x, problem: QpProblem) -> float:
    """Frank-Wolfe gap of x with scipy's HiGHS as the linear oracle."""
    opt = pytest.importorskip("scipy.optimize")
    region = problem._region
    grad = c + 2.0 * (q @ x)
    rows = dict(A_eq=region.a_eq, b_eq=region.b_eq)
    if region.a_ub.shape[0]:
        rows.update(A_ub=region.a_ub, b_ub=region.b_ub)
    res = opt.linprog(grad, bounds=np.column_stack([region.lower, region.upper]),
                      method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                               "dual_feasibility_tolerance": 1e-10}, **rows)
    assert res.status == 0, res.message
    return float(grad @ x - grad @ res.x)


def singular_panel(rng, n, t_days):
    """Daily returns of n > t_days assets (two of them identical), their
    means and their covariance, of rank at most t_days - 1."""
    returns = rng.normal(0.001, 0.02, (n, t_days))
    returns[1] = returns[0]
    mu = returns.mean(axis=1)
    centered = returns - mu[:, None]
    cov = centered @ centered.T / t_days
    return mu, 0.5 * (cov + cov.T)


def test_singular_covariance_without_floor_matches_oracles(monkeypatch):
    # n > T: Q is singular. Minimum variance (c = 0) keeps the gradient in
    # the range of Q, so its Newton steps use the reduced Hessian's
    # pseudo-inverse; at lambda = 1000 with c = -mu the engine also takes
    # zero-curvature steps to the next bound. The objective matches
    # projected gradient and the gap recomputed with HiGHS is at rounding
    # level.
    newton_steps = []
    direction = qp_solver._direction

    def recorded(*args):
        p, newton = direction(*args)
        if p is not None:
            newton_steps.append(newton)
        return p, newton

    monkeypatch.setattr(qp_solver, "_direction", recorded)
    rng = np.random.default_rng(53)
    for lam in (0.0, 1000.0) * 4:
        n = int(rng.integers(6, 13))
        mu, cov = singular_panel(rng, n, int(rng.integers(2, n // 2)))
        cap = float(rng.uniform(1.5 / n, 1.0))
        q, c = (lam * cov, -mu) if lam else (cov, np.zeros(n))
        problem = simplex_qp(q, c, cap=cap)
        sol = solve_qp(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.fw_gap <= 1e-8 * (1.0 + abs(sol.objective))
        _, reference = projected_gradient_qp(q, c, np.zeros(n), np.full(n, cap))
        assert sol.objective <= reference + 1e-12
        assert reference - sol.objective <= 1e-9
        assert abs(highs_gap(q, c, sol.v, problem)) <= 1e-12
    assert newton_steps.count(False) >= 4    # zero-curvature steps


def test_singular_covariance_with_floor_matches_oracles():
    # Minimum variance under a return floor on n = 4 > T assets, the floor
    # anywhere from the unconstrained optimum to the top vertex. No grid
    # point that meets the floor beats the engine, the best is within the
    # grid's resolution, and the gap recomputed with HiGHS is at rounding
    # level.
    rng = np.random.default_rng(59)
    n, grid = 4, weight_grid(4, cap=1.0, resolution=0.01)
    for _ in range(8):
        mu, cov = singular_panel(rng, n, int(rng.integers(2, n)))
        top = float(mu.max())
        rho = float(rng.uniform(mu.mean(), top)) if rng.random() < 0.75 else top
        problem = QpProblem(q=cov, c=np.zeros(n), a_eq=np.ones((1, n)), b_eq=np.array([1.0]),
                            a_ub=-mu[None, :], b_ub=np.array([-rho]),
                            lower=np.zeros(n), upper=np.ones(n))
        sol = solve_qp(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert mu @ sol.v >= rho - 1e-12
        assert sol.fw_gap <= 1e-8 * (1.0 + abs(sol.objective))
        feasible = grid[grid @ mu >= rho]
        values = np.einsum("ij,jk,ik->i", feasible, cov, feasible)
        assert sol.objective <= values.min() + 1e-15
        assert values.min() - sol.objective <= 1e-5
        assert abs(highs_gap(cov, np.zeros(n), sol.v, problem)) <= 1e-12
