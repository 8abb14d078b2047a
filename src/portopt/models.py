"""The six portfolio models, built from moment estimates or raw returns and
dispatched to the matching solver engine.

Quadratic models (minimum-variance, simultaneous mean-variance) go to the
Frank-Wolfe engine; the mean-absolute-deviation and max-drawdown models are
epigraph LPs for the simplex; the minimum-allocation drawdown variant is a
binary MILP for branch and bound. The reverse mean-variance model (maximize
return subject to a standard-deviation ceiling) is solved by bisecting the
required-return parameter of the minimum-variance model along the efficient
frontier, whose standard deviation is nondecreasing in required return; this
reuses the quadratic engine instead of introducing a QCQP method.

"Maximum drawdown" throughout means the worst single-day portfolio return
min_t of sum_i r[i, t] x[i] over the window, not peak-to-trough drawdown.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (
    Allocation,
    AssetStats,
    DataError,
    ModelConfig,
    ReturnMatrix,
    SolveReport,
    SolveStatus,
    validate_allocation,
)
from .estimation import mean_returns
from .lp_solver import LpProblem, SimplexState, solve_lp
from .milp_solver import MilpProblem, solve_milp
from .qp_solver import QpProblem, QpSolution, solve_qp

QP_GAP_TOL = 1e-8
QP_MAX_ITERS = 50_000
BISECT_ITERS = 60
BISECT_TOL = 1e-10
SIGMA_SLACK = 1e-6


@dataclass(frozen=True)
class ModelLayout:
    """Maps model variable blocks to solver columns.

    x is the allocation block (n columns). The drawdown models add a single
    epigraph scalar y; the MAD model adds one y_t per day; the MILP adds a
    binary indicator block z; the L1 augmentation adds a u block mirroring x.
    Every solver column belongs to exactly one block.
    """

    n_assets: int
    n_cols: int
    x: slice
    y: slice | None = None
    z: slice | None = None
    u: slice | None = None

    def __post_init__(self):
        owned = np.zeros(self.n_cols, dtype=int)
        for block in (self.x, self.y, self.z, self.u):
            if block is not None:
                owned[block] += 1
        if not np.all(owned == 1):
            raise DataError("layout must cover every solver column exactly once")


# ---------------------------------------------------------------------------
# problem builders
# ---------------------------------------------------------------------------

_FROM_CONFIG = object()


def markowitz_problem(stats: AssetStats, cfg: ModelConfig,
                      rho=_FROM_CONFIG) -> tuple[QpProblem, ModelLayout]:
    """Minimum-variance QP: min x' Sigma x s.t. mean' x >= rho, sum x = 1, box.

    Passing rho=None drops the return row entirely (the global minimum-variance
    portfolio), which the frontier bisection uses for its lower endpoint.
    """
    if rho is _FROM_CONFIG:
        rho = cfg.require_rho()
    n = stats.n_assets
    cap = cfg.resolved_cap(1.0)
    a_ub = b_ub = None
    if rho is not None:
        a_ub = -stats.mean_returns[None, :]
        b_ub = np.array([-rho])
    problem = QpProblem(
        q=stats.covariance, c=np.zeros(n),
        a_eq=np.ones((1, n)), b_eq=np.array([1.0]),
        a_ub=a_ub, b_ub=b_ub,
        lower=np.zeros(n), upper=np.full(n, cap),
    )
    return problem, ModelLayout(n_assets=n, n_cols=n, x=slice(0, n))


def simultaneous_problem(stats: AssetStats, cfg: ModelConfig) -> tuple[QpProblem, ModelLayout]:
    """Penalized QP: min -mean' x + lambda * x' Sigma x s.t. sum x = 1, box."""
    n = stats.n_assets
    cap = cfg.resolved_cap(1.0)
    problem = QpProblem(
        q=cfg.lam * stats.covariance, c=-stats.mean_returns,
        a_eq=np.ones((1, n)), b_eq=np.array([1.0]),
        lower=np.zeros(n), upper=np.full(n, cap),
    )
    return problem, ModelLayout(n_assets=n, n_cols=n, x=slice(0, n))


def l1_augment(problem: QpProblem, mu_l1: float) -> QpProblem:
    """Add an L1 penalty block: columns u with x <= u and objective + mu * sum u.

    With long-only weights summing to one, any optimum has sum u = 1 and the
    x block unchanged, so the augmentation provably cannot move the optimizer;
    it exists so that claim can be exercised. Each u column is capped by its
    partner's upper bound, which cuts no optimum (u wants to be minimal) and
    keeps the region bounded for the Frank-Wolfe oracle.
    """
    if not mu_l1 > 0:
        raise DataError("mu_l1 must be positive to augment")
    n = problem.n_vars
    q = np.zeros((2 * n, 2 * n))
    q[:n, :n] = problem.q
    c = np.concatenate([problem.c, np.full(n, mu_l1)])
    pad = lambda a: np.hstack([a, np.zeros((a.shape[0], n))]) if a is not None and a.shape[0] else None
    region = problem._region
    link = np.hstack([np.eye(n), -np.eye(n)])  # x_i - u_i <= 0
    a_ub = np.vstack([m for m in (pad(region.a_ub), link) if m is not None])
    b_ub = np.concatenate([region.b_ub, np.zeros(n)])
    return QpProblem(
        q=q, c=c,
        a_eq=pad(region.a_eq), b_eq=region.b_eq,
        a_ub=a_ub, b_ub=b_ub,
        lower=np.concatenate([region.lower, np.zeros(n)]),
        upper=np.concatenate([region.upper, region.upper]),
    )


def mad_problem(returns: ReturnMatrix, cfg: ModelConfig) -> tuple[LpProblem, ModelLayout]:
    """Mean-absolute-deviation LP: min (1/T) sum_t y_t with y_t >= |deviation_t|.

    Columns are x (n) then y (T); the epigraph pair of rows per day makes
    y_t = |sum_i (r[i,t] - mean_i) x_i| at any optimum. The program has 2T + 2
    functional rows however many assets there are; a short-selling variant
    (dropping x >= 0) would cap the optimal support at 2T + 2 names by basic
    LP counting, but short selling is out of scope throughout this package.
    """
    n, t_days = returns.n_assets, returns.n_days
    rho = cfg.require_rho()
    cap = cfg.resolved_cap(1.0)
    mu = mean_returns(returns)
    dev = returns.returns - mu[:, None]          # n x T deviations
    ncols = n + t_days
    c = np.concatenate([np.zeros(n), np.full(t_days, 1.0 / t_days)])
    rows_pos = np.hstack([dev.T, -np.eye(t_days)])    #  dev' x - y_t <= 0
    rows_neg = np.hstack([-dev.T, -np.eye(t_days)])   # -dev' x - y_t <= 0
    ret_row = np.concatenate([-mu, np.zeros(t_days)])[None, :]
    a_ub = np.vstack([rows_pos, rows_neg, ret_row])
    b_ub = np.concatenate([np.zeros(2 * t_days), [-rho]])
    a_eq = np.concatenate([np.ones(n), np.zeros(t_days)])[None, :]
    problem = LpProblem(
        c=c, sense="min", a_eq=a_eq, b_eq=np.array([1.0]), a_ub=a_ub, b_ub=b_ub,
        lower=np.zeros(ncols),
        upper=np.concatenate([np.full(n, cap), np.full(t_days, np.inf)]),
    )
    layout = ModelLayout(n_assets=n, n_cols=ncols, x=slice(0, n), y=slice(n, ncols))
    return problem, layout


def md_problem(returns: ReturnMatrix, cfg: ModelConfig,
               standard_form: bool = False) -> tuple[LpProblem, ModelLayout]:
    """Max-drawdown LP: max y s.t. y <= portfolio return on every day.

    Columns are x (n) and the single epigraph scalar y, so the program has
    n + 1 variables and T + 2 functional rows regardless of universe size.
    `standard_form` splits the budget equality into opposing inequalities,
    which changes nothing but the encoding.
    """
    n, t_days = returns.n_assets, returns.n_days
    rho = cfg.require_rho()
    cap = cfg.resolved_cap(0.5)
    mu = mean_returns(returns)
    ncols = n + 1
    c = np.zeros(ncols)
    c[n] = 1.0
    day_rows = np.hstack([-returns.returns.T, np.ones((t_days, 1))])  # y - r_t' x <= 0
    ret_row = np.concatenate([-mu, [0.0]])[None, :]
    a_ub = np.vstack([day_rows, ret_row])
    b_ub = np.zeros(t_days + 1)
    b_ub[t_days] = -rho
    budget = np.concatenate([np.ones(n), [0.0]])[None, :]
    if standard_form:
        a_ub = np.vstack([a_ub, budget, -budget])
        b_ub = np.concatenate([b_ub, [1.0, -1.0]])
        a_eq = b_eq = None
    else:
        a_eq, b_eq = budget, np.array([1.0])
    problem = LpProblem(
        c=c, sense="max", a_eq=a_eq, b_eq=b_eq, a_ub=a_ub, b_ub=b_ub,
        lower=np.concatenate([np.zeros(n), [-np.inf]]),
        upper=np.concatenate([np.full(n, cap), [np.inf]]),
    )
    layout = ModelLayout(n_assets=n, n_cols=ncols, x=slice(0, n), y=slice(n, n + 1))
    return problem, layout


def md_milp_problem(returns: ReturnMatrix, cfg: ModelConfig) -> tuple[MilpProblem, ModelLayout]:
    """Drawdown MILP: Model 5 plus binaries z with min_alloc * z <= x <= M * z.

    M equals the cap (0.5 by default), the smallest valid big-M and therefore
    the tightest LP relaxation available. A positive weight is forced up to
    min_alloc, so at most floor(1 / min_alloc) names can be held.
    """
    n, t_days = returns.n_assets, returns.n_days
    rho = cfg.require_rho()
    cap = cfg.resolved_cap(0.5)
    if cfg.min_alloc > cap:
        raise DataError("min_alloc cannot exceed the cap")
    mu = mean_returns(returns)
    ncols = 2 * n + 1
    c = np.zeros(ncols)
    c[n] = 1.0
    x_block = np.s_[:, 0:n]
    day_rows = np.zeros((t_days, ncols))
    day_rows[x_block] = -returns.returns.T
    day_rows[:, n] = 1.0
    ret_row = np.zeros((1, ncols))
    ret_row[0, :n] = -mu
    lo_link = np.zeros((n, ncols))                      # min_alloc z - x <= 0
    lo_link[:, :n] = -np.eye(n)
    lo_link[:, n + 1:] = cfg.min_alloc * np.eye(n)
    hi_link = np.zeros((n, ncols))                      # x - M z <= 0
    hi_link[:, :n] = np.eye(n)
    hi_link[:, n + 1:] = -cap * np.eye(n)
    a_ub = np.vstack([day_rows, ret_row, lo_link, hi_link])
    b_ub = np.concatenate([np.zeros(t_days), [-rho], np.zeros(2 * n)])
    a_eq = np.zeros((1, ncols))
    a_eq[0, :n] = 1.0
    base = LpProblem(
        c=c, sense="max", a_eq=a_eq, b_eq=np.array([1.0]), a_ub=a_ub, b_ub=b_ub,
        lower=np.concatenate([np.zeros(n), [-np.inf], np.zeros(n)]),
        upper=np.concatenate([np.full(n, cap), [np.inf], np.ones(n)]),
    )
    problem = MilpProblem(base=base, binary_indices=tuple(range(n + 1, ncols)))
    layout = ModelLayout(n_assets=n, n_cols=ncols, x=slice(0, n),
                         y=slice(n, n + 1), z=slice(n + 1, ncols))
    return problem, layout


# ---------------------------------------------------------------------------
# solve entry points
# ---------------------------------------------------------------------------

def solve_markowitz(stats: AssetStats, cfg: ModelConfig, *,
                    gap_tol: float = QP_GAP_TOL, max_iters: int = QP_MAX_ITERS) -> SolveReport:
    """Model: minimize portfolio variance subject to a required mean return.

    The report's objective is the portfolio variance x' Sigma x.
    """
    started = time.perf_counter()
    problem, layout = markowitz_problem(stats, cfg)
    sol = solve_qp(problem, max_iters=max_iters, gap_tol=gap_tol)
    return _qp_report("markowitz", sol, layout, cfg.resolved_cap(1.0), started)


def solve_simultaneous(stats: AssetStats, cfg: ModelConfig, *,
                       gap_tol: float = QP_GAP_TOL, max_iters: int = QP_MAX_ITERS) -> SolveReport:
    """Model: minimize -mean return + lambda * variance over the budget box.

    With cfg.mu_l1 > 0 the L1 block is added first; the solver then starts
    from a feasible point with u = x so the augmentation stays tight.
    """
    started = time.perf_counter()
    problem, layout = simultaneous_problem(stats, cfg)
    if cfg.mu_l1 > 0:
        return _solve_augmented("simultaneous", problem, layout, cfg, gap_tol, max_iters, started)
    sol = solve_qp(problem, max_iters=max_iters, gap_tol=gap_tol)
    return _qp_report("simultaneous", sol, layout, cfg.resolved_cap(1.0), started)


def solve_markowitz_l1(stats: AssetStats, cfg: ModelConfig, *,
                       gap_tol: float = QP_GAP_TOL, max_iters: int = QP_MAX_ITERS) -> SolveReport:
    """Minimum-variance model with the L1 augmentation applied."""
    started = time.perf_counter()
    problem, layout = markowitz_problem(stats, cfg)
    return _solve_augmented("markowitz", problem, layout, cfg, gap_tol, max_iters, started)


def _solve_augmented(tag: str, problem: QpProblem, layout: ModelLayout, cfg: ModelConfig,
                     gap_tol: float, max_iters: int, started: float) -> SolveReport:
    n = layout.n_assets
    augmented = l1_augment(problem, cfg.mu_l1)
    # Start from the base problem's own feasibility vertex with u mirroring x
    # (feasible, and the tightest u for that x), the same point the plain
    # solve starts from.
    base = SimplexState(problem._region)
    if not base.feasible:
        sol = QpSolution(np.full(2 * n, np.nan), np.nan, np.inf, 0, SolveStatus.INFEASIBLE)
        return _qp_report(tag, sol, layout, cfg.resolved_cap(1.0), started)
    start = np.tile(base.vertex, 2)
    # The penalty contributes the constant mu to the objective, inflating the
    # relative-gap scale; tighten proportionally so the x block is certified
    # to the same absolute accuracy as the unaugmented solve.
    sol = solve_qp(augmented, max_iters=max_iters,
                   gap_tol=gap_tol / (1.0 + cfg.mu_l1), start=start)
    aug_layout = ModelLayout(n_assets=n, n_cols=2 * n, x=slice(0, n), u=slice(n, 2 * n))
    return _qp_report(tag, sol, aug_layout, cfg.resolved_cap(1.0), started)


def solve_reverse_markowitz(stats: AssetStats, cfg: ModelConfig, *,
                            gap_tol: float = QP_GAP_TOL, max_iters: int = QP_MAX_ITERS) -> SolveReport:
    """Model: maximize mean return subject to a standard-deviation ceiling.

    Solved by bisection on the required return of the minimum-variance model:
    frontier standard deviation is nondecreasing in required return, so the
    largest return whose frontier point stays within sigma0 (plus 1e-6 slack)
    is found to interval width 1e-10 in at most 60 steps. The report's
    objective is the achieved mean return; infeasible when even the global
    minimum-variance portfolio exceeds sigma0.
    """
    started = time.perf_counter()
    sigma0 = cfg.require_sigma0()
    cap = cfg.resolved_cap(1.0)
    mu = stats.mean_returns
    total_iters = 0

    def frontier(rho: float | None, start=None) -> QpSolution:
        nonlocal total_iters
        problem, _ = markowitz_problem(stats, cfg, rho=rho)
        sol = solve_qp(problem, max_iters=max_iters, gap_tol=gap_tol, start=start)
        total_iters += sol.iterations
        return sol

    mv = frontier(None)
    if mv.status is not SolveStatus.OPTIMAL:
        return _failed_report("reverse_markowitz", mv.status, total_iters, started)
    if _std(mv.objective) > sigma0 + SIGMA_SLACK:
        return _failed_report("reverse_markowitz", SolveStatus.INFEASIBLE, total_iters, started)

    top = _max_return_weights(mu, cap)
    hi_sol = frontier(float(mu @ top), start=top)
    if hi_sol.status is not SolveStatus.OPTIMAL:
        return _failed_report("reverse_markowitz", hi_sol.status, total_iters, started)
    if _std(hi_sol.objective) <= sigma0 + SIGMA_SLACK:
        return _portfolio_report("reverse_markowitz", hi_sol.v, float(mu @ hi_sol.v),
                                 cap, total_iters, started)

    lo, hi = float(mu @ mv.v), float(mu @ top)
    best = mv
    warm = hi_sol.v
    for _ in range(BISECT_ITERS):
        if hi - lo < BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        sol = frontier(mid, start=warm)
        if sol.status is not SolveStatus.OPTIMAL:
            return _failed_report("reverse_markowitz", sol.status, total_iters, started)
        if _std(sol.objective) <= sigma0:
            lo, best = mid, sol
        else:
            hi = mid
            warm = sol.v  # return mu @ v >= mid stays feasible for lower rho
    return _portfolio_report("reverse_markowitz", best.v, float(mu @ best.v),
                             cap, total_iters, started)


def solve_mad(returns: ReturnMatrix, cfg: ModelConfig, *, pivot_limit: int = 50_000) -> SolveReport:
    """Model: minimize mean absolute deviation of the portfolio return."""
    started = time.perf_counter()
    problem, layout = mad_problem(returns, cfg)
    sol = solve_lp(problem, pivot_limit=pivot_limit)
    return _lp_report("mad", sol, layout, cfg.resolved_cap(1.0), started)


def solve_md(returns: ReturnMatrix, cfg: ModelConfig, *, pivot_limit: int = 50_000,
             standard_form: bool = False) -> SolveReport:
    """Model: maximize the worst single-day portfolio return (max drawdown)."""
    started = time.perf_counter()
    problem, layout = md_problem(returns, cfg, standard_form=standard_form)
    sol = solve_lp(problem, pivot_limit=pivot_limit)
    return _lp_report("md", sol, layout, cfg.resolved_cap(0.5), started)


def solve_md_milp(returns: ReturnMatrix, cfg: ModelConfig, *,
                  node_limit: int = 100_000) -> SolveReport:
    """Model: the max-drawdown LP with a minimum-allocation rule per name."""
    started = time.perf_counter()
    problem, layout = md_milp_problem(returns, cfg)
    sol = solve_milp(problem, node_limit=node_limit)
    cap = cfg.resolved_cap(0.5)
    if sol.status is not SolveStatus.OPTIMAL:
        return _failed_report("md_milp", sol.status, sol.nodes, started)
    x = _clean_weights(sol.v[layout.x], cap)
    positive = x[x > 1e-9]
    if positive.size and positive.min() < cfg.min_alloc - 1e-9:
        raise RuntimeError("MILP solution violates the minimum-allocation rule")
    return SolveReport(
        model_tag="md_milp", status=SolveStatus.OPTIMAL, objective=float(sol.objective),
        allocation=Allocation(x), wall_time=time.perf_counter() - started,
        iterations=sol.nodes,
    )


SOLVERS = {
    "markowitz": lambda returns, stats, cfg, **kw: solve_markowitz(stats, cfg, **kw),
    "reverse_markowitz": lambda returns, stats, cfg, **kw: solve_reverse_markowitz(stats, cfg, **kw),
    "simultaneous": lambda returns, stats, cfg, **kw: solve_simultaneous(stats, cfg, **kw),
    "mad": lambda returns, stats, cfg, **kw: solve_mad(returns, cfg, **kw),
    "md": lambda returns, stats, cfg, **kw: solve_md(returns, cfg, **kw),
    "md_milp": lambda returns, stats, cfg, **kw: solve_md_milp(returns, cfg, **kw),
}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _std(variance: float) -> float:
    return float(np.sqrt(max(variance, 0.0)))


def _max_return_weights(mu: np.ndarray, cap: float) -> np.ndarray:
    """Greedy vertex maximizing mean return under the cap; deterministic order."""
    order = np.argsort(-mu, kind="stable")
    x = np.zeros(mu.shape[0])
    remaining = 1.0
    for i in order:
        take = min(cap, remaining)
        x[i] = take
        remaining -= take
        if remaining <= 0:
            break
    if remaining > 1e-12:
        raise DataError("cap too small to allocate the full budget")
    return x


def _clean_weights(x: np.ndarray, cap: float) -> np.ndarray:
    x = np.asarray(x, dtype=float).copy()
    x[(x < 0) & (x > -1e-9)] = 0.0
    verdict = validate_allocation(x, cap)
    if not verdict.ok:
        raise RuntimeError(f"solver returned an invalid allocation: {verdict.reason}")
    return x


def _qp_report(tag: str, sol: QpSolution, layout: ModelLayout, cap: float,
               started: float) -> SolveReport:
    if sol.status is not SolveStatus.OPTIMAL:
        return _failed_report(tag, sol.status, sol.iterations, started,
                              detail=f"fw_gap={sol.fw_gap!r}")
    x = _clean_weights(sol.v[layout.x], cap)
    return SolveReport(
        model_tag=tag, status=SolveStatus.OPTIMAL, objective=float(sol.objective),
        allocation=Allocation(x), wall_time=time.perf_counter() - started,
        iterations=sol.iterations, detail=f"fw_gap={sol.fw_gap!r}",
    )


def _lp_report(tag: str, sol, layout: ModelLayout, cap: float, started: float) -> SolveReport:
    if sol.status is not SolveStatus.OPTIMAL:
        return _failed_report(tag, sol.status, sol.pivots, started)
    x = _clean_weights(sol.v[layout.x], cap)
    return SolveReport(
        model_tag=tag, status=SolveStatus.OPTIMAL, objective=float(sol.objective),
        allocation=Allocation(x), wall_time=time.perf_counter() - started,
        iterations=sol.pivots,
    )


def _portfolio_report(tag: str, v: np.ndarray, objective: float, cap: float,
                      iterations: int, started: float) -> SolveReport:
    x = _clean_weights(v, cap)
    return SolveReport(
        model_tag=tag, status=SolveStatus.OPTIMAL, objective=objective,
        allocation=Allocation(x), wall_time=time.perf_counter() - started,
        iterations=iterations,
    )


def _failed_report(tag: str, status: SolveStatus, iterations: int, started: float,
                   detail: str = "") -> SolveReport:
    return SolveReport(
        model_tag=tag, status=status, objective=None, allocation=None,
        wall_time=time.perf_counter() - started, iterations=iterations, detail=detail,
    )
