"""Independent reference implementations used to check the solvers.

Every function here solves its problem by a different route than the library
(exhaustive enumeration, dense grids, projected gradient, streaming two-pass
statistics) so agreement is meaningful evidence, not a tautology.
"""

from __future__ import annotations

import itertools

import numpy as np

from portopt.lp_solver import LpProblem, solve_lp
from portopt.core import AssetStats, ModelConfig, SolveStatus
from portopt.milp_solver import MilpProblem
from portopt.models import markowitz_problem
from portopt.qp_solver import solve_qp


def enumerate_lp_vertices(problem: LpProblem) -> list[np.ndarray]:
    """All basic feasible points of an LP with bounds, by brute force.

    Every vertex corresponds to a nonsingular basis (one column per row, slacks
    included) with each nonbasic variable pinned at one of its finite bounds.
    Exponential, fine for the tiny instances used in tests.
    """
    n = problem.n_vars
    m_ub = problem.a_ub.shape[0]
    g = np.vstack([
        np.hstack([problem.a_eq, np.zeros((problem.a_eq.shape[0], m_ub))]),
        np.hstack([problem.a_ub, np.eye(m_ub)]),
    ])
    h = np.concatenate([problem.b_eq, problem.b_ub])
    lower = np.concatenate([problem.lower, np.zeros(m_ub)])
    upper = np.concatenate([problem.upper, np.full(m_ub, np.inf)])
    m, n_tot = g.shape
    vertices = []
    for basis in itertools.combinations(range(n_tot), m):
        b_mat = g[:, list(basis)]
        if abs(np.linalg.det(b_mat)) < 1e-10:
            continue
        nonbasic = [j for j in range(n_tot) if j not in basis]
        choices = []
        for j in nonbasic:
            opts = [b for b in {lower[j], upper[j]} if np.isfinite(b)]
            choices.append(opts if opts else [0.0])
        for combo in itertools.product(*choices):
            v = np.zeros(n_tot)
            v[nonbasic] = combo
            rhs = h - g[:, nonbasic] @ np.asarray(combo)
            v[list(basis)] = np.linalg.solve(b_mat, rhs)
            if np.all(v >= lower - 1e-8) and np.all(v <= upper + 1e-8):
                vertices.append(v[:n])
    return vertices


def project_capped_simplex(y: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {x: sum x = 1, lower <= x <= upper}.

    Bisection on the shift tau in x = clip(y - tau, lower, upper); the budget
    is monotone decreasing in tau.
    """
    lo_t = np.min(y - upper) - 1.0
    hi_t = np.max(y - lower) + 1.0
    for _ in range(100):
        tau = 0.5 * (lo_t + hi_t)
        total = np.clip(y - tau, lower, upper).sum()
        if total > 1.0:
            lo_t = tau
        else:
            hi_t = tau
    return np.clip(y - 0.5 * (lo_t + hi_t), lower, upper)


def projected_gradient_qp(q: np.ndarray, c: np.ndarray, lower: np.ndarray,
                          upper: np.ndarray, iters: int = 60_000) -> tuple[np.ndarray, float]:
    """Minimize c @ x + x @ q @ x over the capped simplex by projected gradient."""
    n = c.shape[0]
    lip = 2.0 * max(np.linalg.eigvalsh(q).max(), 1e-12)
    step = 1.0 / lip
    x = project_capped_simplex(np.full(n, 1.0 / n), lower, upper)
    for _ in range(iters):
        grad = c + 2.0 * (q @ x)
        x_new = project_capped_simplex(x - step * grad, lower, upper)
        if np.max(np.abs(x_new - x)) < 1e-14:
            x = x_new
            break
        x = x_new
    return x, float(c @ x + x @ q @ x)


def weight_grid(n: int, cap: float, resolution: float = 0.01) -> np.ndarray:
    """All weight vectors on the budget simplex at the given resolution with
    every coordinate <= cap. Rows sum to exactly 1 up to the resolution."""
    steps = int(round(1.0 / resolution))
    cap_steps = int(round(cap / resolution))
    ranges = [range(0, cap_steps + 1)] * (n - 1)
    grids = []
    for combo in itertools.product(*ranges):
        last = steps - sum(combo)
        if 0 <= last <= cap_steps:
            grids.append(combo + (last,))
    return np.asarray(grids, dtype=float) * resolution


def grid_best_min_day_return(returns: np.ndarray, rho: float, cap: float,
                             resolution: float = 0.01) -> float:
    """Best achievable worst-day portfolio return over the weight grid."""
    n, _ = returns.shape
    grid = weight_grid(n, cap, resolution)
    mu = returns.mean(axis=1)
    feasible = grid @ mu >= rho - 1e-12
    grid = grid[feasible]
    if grid.shape[0] == 0:
        return -np.inf
    worst = (grid @ returns).min(axis=1)
    return float(worst.max())


def grid_best_mad(returns: np.ndarray, rho: float, cap: float,
                  resolution: float = 0.01) -> float:
    """Smallest mean absolute deviation over the weight grid."""
    n, t_days = returns.shape
    grid = weight_grid(n, cap, resolution)
    mu = returns.mean(axis=1)
    feasible = grid @ mu >= rho - 1e-12
    grid = grid[feasible]
    if grid.shape[0] == 0:
        return np.inf
    dev = returns - mu[:, None]
    mad = np.abs(grid @ dev).mean(axis=1)
    return float(mad.min())


def support_enumeration_md_milp(returns: np.ndarray, rho: float,
                                min_alloc: float = 0.05, cap: float = 0.5) -> float:
    """Exact drawdown-MILP optimum: restricted LP for every support subset."""
    n, t_days = returns.shape
    mu = returns.mean(axis=1)
    best = -np.inf
    for r in range(1, n + 1):
        if min_alloc * r > 1 + 1e-12 or cap * r < 1 - 1e-12:
            continue
        for support in itertools.combinations(range(n), r):
            idx = list(support)
            k = len(idx)
            c = np.zeros(k + 1)
            c[k] = 1.0
            day_rows = np.hstack([-returns[idx].T, np.ones((t_days, 1))])
            ret_row = np.concatenate([-mu[idx], [0.0]])[None, :]
            a_eq = np.concatenate([np.ones(k), [0.0]])[None, :]
            problem = LpProblem(
                c=c, sense="max", a_eq=a_eq, b_eq=np.array([1.0]),
                a_ub=np.vstack([day_rows, ret_row]),
                b_ub=np.concatenate([np.zeros(t_days), [-rho]]),
                lower=np.concatenate([np.full(k, min_alloc), [-np.inf]]),
                upper=np.concatenate([np.full(k, cap), [np.inf]]),
            )
            sol = solve_lp(problem)
            if sol.status is SolveStatus.OPTIMAL and sol.objective > best:
                best = sol.objective
    return best


def big_m_milp(problem: MilpProblem) -> MilpProblem:
    """The textbook big-M form of an on/off MILP.

    Each on/off column x_j (threshold t_j, upper bound u_j) gets a binary z_j,
    appended after the base columns in column order, and the rows
    t_j z_j - x_j <= 0 (every lower link first) and x_j - u_j z_j <= 0; the
    x_j become plain continuous columns. For the drawdown MILP these are the
    indicator links min_alloc z <= x <= cap z with M = cap: 843 rows and 781
    columns on the fixture's train window.
    """
    base = problem.base
    cols = np.array(list(problem.on_off), dtype=int)
    t = np.array(list(problem.on_off.values()), dtype=float)
    u = base.upper[cols]
    if not np.all(np.isfinite(u)):
        raise ValueError("the big-M form needs finite upper bounds on the on/off columns")
    n, k = base.n_vars, cols.size
    rows = np.arange(k)
    lo_link = np.zeros((k, n + k))
    lo_link[rows, cols], lo_link[rows, n + rows] = -1.0, t
    hi_link = np.zeros((k, n + k))
    hi_link[rows, cols], hi_link[rows, n + rows] = 1.0, -u

    def widen(a: np.ndarray) -> np.ndarray:
        return np.hstack([a, np.zeros((a.shape[0], k))])

    textbook = LpProblem(c=np.concatenate([base.c, np.zeros(k)]), sense=base.sense,
                         a_eq=widen(base.a_eq), b_eq=base.b_eq,
                         a_ub=np.vstack([widen(base.a_ub), lo_link, hi_link]),
                         b_ub=np.concatenate([base.b_ub, np.zeros(2 * k)]),
                         lower=np.concatenate([base.lower, np.zeros(k)]),
                         upper=np.concatenate([base.upper, np.ones(k)]))
    return MilpProblem(base=textbook, on_off=dict.fromkeys(range(n, n + k), 1.0))


def two_pass_mean_cov(returns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Streaming two-pass mean and population covariance, elementwise loops."""
    n, t_days = returns.shape
    means = np.zeros(n)
    for i in range(n):
        acc = 0.0
        for t in range(t_days):
            acc += returns[i, t]
        means[i] = acc / t_days
    cov = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            acc = 0.0
            for t in range(t_days):
                acc += (returns[i, t] - means[i]) * (returns[j, t] - means[j])
            cov[i, j] = cov[j, i] = acc / t_days
    return means, cov


def random_return_matrix(rng: np.random.Generator, n: int, t_days: int,
                         vol: float = 0.02, drift: float = 0.001) -> np.ndarray:
    """Daily-decimal-scale return panel used across the random suites."""
    base = rng.normal(drift, vol, (n, t_days))
    return np.clip(base, -0.2, 0.2)


def bisection_reverse_markowitz(stats: AssetStats, sigma0: float,
                                cap: float = 1.0) -> tuple[SolveStatus, np.ndarray | None]:
    """The reverse model by bisection on the return floor of the
    minimum-variance model: the largest floor whose minimum variance is at
    most sigma0^2, to a floor interval of 1e-10 in at most 60 solves. The
    global minimum-variance and top-vertex solves are held to sigma0 + 1e-6,
    the bisection steps to sigma0; the top vertex is the greedy one (the
    names of highest mean return, each to the cap). Returns the status and
    the last accepted solve's weights."""
    mu, cfg = stats.mean_returns, ModelConfig(sigma0=sigma0, cap=cap)

    def frontier(rho):
        return solve_qp(markowitz_problem(stats, cfg, rho=rho)[0])

    ceiling, level = (sigma0 + 1e-6) ** 2, sigma0 ** 2
    best = frontier(None)
    if best.status is not SolveStatus.OPTIMAL or best.objective > ceiling:
        return SolveStatus.INFEASIBLE, None
    top, remaining = np.zeros(mu.shape[0]), 1.0
    for i in np.argsort(-mu, kind="stable"):
        top[i] = min(cap, remaining)
        remaining -= top[i]
        if remaining <= 0:
            break
    lo, hi = float(mu @ best.v), float(mu @ top)
    top_sol = frontier(hi)
    if top_sol.objective <= ceiling:
        lo, best = hi, top_sol
    for _ in range(60):
        if hi - lo < 1e-10:
            break
        mid = 0.5 * (lo + hi)
        sol = frontier(mid)
        if sol.objective <= level:
            lo, best = mid, sol
        else:
            hi = mid
    return SolveStatus.OPTIMAL, best.v
