"""The six portfolio models, built from moment estimates or raw returns and
dispatched to the matching solver engine.

Quadratic models (minimum-variance, simultaneous mean-variance) go to the
active-set QP engine; the mean-absolute-deviation and max-drawdown models are
epigraph LPs for the simplex; the minimum-allocation drawdown variant is the
`md` LP with each weight on/off (0 or at least min_alloc), for branch and
bound. The reverse mean-variance model (maximize return subject to a
standard-deviation ceiling) walks the critical line of the minimum-variance
model, the efficient frontier as a path piecewise linear in its trade-off
parameter, down to where the standard deviation reaches the ceiling; this
takes exact steps in place of a QCQP method, and one oracle call certifies
the point.

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
from .lp_solver import LpProblem, solve_lp
from .milp_solver import MilpProblem, solve_milp
from .qp_solver import GAP_TOL_DEFAULT, QpProblem, critical_line, solve_qp

SIGMA_SLACK = 1e-6


@dataclass(frozen=True)
class ModelLayout:
    """Maps model variable blocks to solver columns.

    x is the allocation block (n columns). The drawdown models add a single
    epigraph scalar y; the MAD model adds one y_t = p_t per day (the positive
    part of that day's deviation). Every solver column belongs to exactly one
    block.
    """

    n_assets: int
    n_cols: int
    x: slice
    y: slice | None = None

    def __post_init__(self):
        owned = np.zeros(self.n_cols, dtype=int)
        for block in (self.x, self.y):
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
    portfolio); its budget-box region is the one the reverse model's critical
    line walks.
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


def mad_problem(returns: ReturnMatrix, cfg: ModelConfig) -> tuple[LpProblem, ModelLayout]:
    """Mean-absolute-deviation LP in one-sided form: min (2/T) sum_t p_t with
    p_t >= deviation_t and p_t >= 0.

    The deviations d_t = r_t - mean are centred (sum_t d_t = 0), so the
    positive and negative parts of d_t' x have equal sums and
    mean_t |d_t' x| = (2/T) sum_t max(d_t' x, 0) (Konno & Yamazaki 1991).
    Columns are x (n) then p (T), with p_t = max(d_t' x, 0) at any optimum.
    The program has T + 2 functional rows (one per day, the return floor and
    the budget) however many assets there are; a short-selling variant
    (dropping x >= 0) would cap the optimal support at T + 2 names by basic
    LP counting, but short selling is out of scope throughout this package.
    """
    n, t_days = returns.n_assets, returns.n_days
    rho = cfg.require_rho()
    cap = cfg.resolved_cap(1.0)
    mu = mean_returns(returns)
    dev = returns.returns - mu[:, None]          # n x T deviations
    ncols = n + t_days
    c = np.concatenate([np.zeros(n), np.full(t_days, 2.0 / t_days)])
    day_rows = np.hstack([dev.T, -np.eye(t_days)])    # dev' x - p_t <= 0
    ret_row = np.concatenate([-mu, np.zeros(t_days)])[None, :]
    a_ub = np.vstack([day_rows, ret_row])
    b_ub = np.concatenate([np.zeros(t_days), [-rho]])
    a_eq = np.concatenate([np.ones(n), np.zeros(t_days)])[None, :]
    problem = LpProblem(
        c=c, sense="min", a_eq=a_eq, b_eq=np.array([1.0]), a_ub=a_ub, b_ub=b_ub,
        lower=np.zeros(ncols),
        upper=np.concatenate([np.full(n, cap), np.full(t_days, np.inf)]),
    )
    layout = ModelLayout(n_assets=n, n_cols=ncols, x=slice(0, n), y=slice(n, ncols))
    return problem, layout


def md_problem(returns: ReturnMatrix, cfg: ModelConfig) -> tuple[LpProblem, ModelLayout]:
    """Max-drawdown LP: max y s.t. y <= portfolio return on every day.

    Columns are x (n) and the single epigraph scalar y, so the program has
    n + 1 variables and T + 2 functional rows regardless of universe size.
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
    a_eq = np.concatenate([np.ones(n), [0.0]])[None, :]
    problem = LpProblem(
        c=c, sense="max", a_eq=a_eq, b_eq=np.array([1.0]), a_ub=a_ub, b_ub=b_ub,
        lower=np.concatenate([np.zeros(n), [-np.inf]]),
        upper=np.concatenate([np.full(n, cap), [np.inf]]),
    )
    layout = ModelLayout(n_assets=n, n_cols=ncols, x=slice(0, n), y=slice(n, n + 1))
    return problem, layout


def md_milp_problem(returns: ReturnMatrix, cfg: ModelConfig) -> tuple[MilpProblem, ModelLayout]:
    """Drawdown MILP: the `md` LP with every weight on/off at min_alloc.

    Each x_i is either 0 or in [min_alloc, cap], so a held name carries at
    least min_alloc and at most floor(1 / min_alloc) names can be held. The
    node LPs of the search are the `md` LP under changed x bounds.
    """
    base, layout = md_problem(returns, cfg)
    cap = cfg.resolved_cap(0.5)
    if cfg.min_alloc > cap:
        raise DataError(f"min_alloc {cfg.min_alloc!r} exceeds the cap {cap!r}")
    on_off = dict.fromkeys(range(layout.x.stop), cfg.min_alloc)
    return MilpProblem(base=base, on_off=on_off), layout


# ---------------------------------------------------------------------------
# solve entry points
# ---------------------------------------------------------------------------

def solve_markowitz(stats: AssetStats, cfg: ModelConfig) -> SolveReport:
    """Model: minimize portfolio variance subject to a required mean return.

    The report's objective is the portfolio variance x' Sigma x, plus the L1
    penalty mu_l1 * sum |x_i| = mu_l1 when cfg.mu_l1 > 0.
    """
    started = time.perf_counter()
    problem, layout = markowitz_problem(stats, cfg)
    return _solve_quadratic("markowitz", problem, layout, cfg, GAP_TOL_DEFAULT, started)


def solve_simultaneous(stats: AssetStats, cfg: ModelConfig, *,
                       gap_tol: float = GAP_TOL_DEFAULT) -> SolveReport:
    """Model: minimize -mean return + lambda * variance over the budget box.

    As in `solve_markowitz`, cfg.mu_l1 > 0 adds the L1 penalty.
    """
    started = time.perf_counter()
    problem, layout = simultaneous_problem(stats, cfg)
    return _solve_quadratic("simultaneous", problem, layout, cfg, gap_tol, started)


def _solve_quadratic(tag: str, problem: QpProblem, layout: ModelLayout, cfg: ModelConfig,
                     gap_tol: float, started: float) -> SolveReport:
    """The active-set engine on a model's QP, with the L1 penalty added after
    the solve.

    Weights are long-only, so mu * sum |x_i| is the linear cost mu * sum x_i,
    and the budget row makes it the constant mu on the feasible region: the
    penalty moves no optimizer, so the unpenalized QP is solved and the
    report's objective is its optimum plus mu * sum x.
    """
    sol = solve_qp(problem, gap_tol=gap_tol)
    x = sol.v[layout.x]
    objective = sol.objective + cfg.mu_l1 * float(x.sum())
    return _report(tag, sol.status, x, objective, cfg.resolved_cap(1.0),
                   sol.iterations, started, f"fw_gap={sol.fw_gap!r}")


def solve_reverse_markowitz(stats: AssetStats, cfg: ModelConfig) -> SolveReport:
    """Model: maximize mean return subject to a standard-deviation ceiling.

    Walks the critical line (`qp_solver.critical_line`) from the top-return
    vertex down to where the standard deviation reaches sigma0, in one
    simplex state and without a QP solve. The point minimizes variance for
    its own return floor; `detail` carries the Frank-Wolfe gap that
    certifies it. The report's objective is its mean return and
    `iterations` counts the walk's steps. Where even the minimum-variance
    end of the line stays above sigma0, that end is returned if it is within
    sigma0 + 1e-6, and the report is Infeasible otherwise (its `detail` then
    certifies that end).
    """
    started = time.perf_counter()
    sigma0 = cfg.require_sigma0()
    problem, _ = markowitz_problem(stats, cfg, rho=None)
    sol = critical_line(problem, stats.mean_returns, sigma0 ** 2)
    status = sol.status
    if status is SolveStatus.OPTIMAL and sol.v @ problem.q @ sol.v > (sigma0 + SIGMA_SLACK) ** 2:
        status = SolveStatus.INFEASIBLE
    return _report("reverse_markowitz", status, sol.v, float(stats.mean_returns @ sol.v),
                   cfg.resolved_cap(1.0), sol.iterations, started, f"fw_gap={sol.fw_gap!r}")


def solve_mad(returns: ReturnMatrix, cfg: ModelConfig) -> SolveReport:
    """Model: minimize mean absolute deviation of the portfolio return."""
    started = time.perf_counter()
    problem, layout = mad_problem(returns, cfg)
    sol = solve_lp(problem)
    return _report("mad", sol.status, sol.v[layout.x], sol.objective, cfg.resolved_cap(1.0),
                   sol.pivots, started)


def solve_md(returns: ReturnMatrix, cfg: ModelConfig) -> SolveReport:
    """Model: maximize the worst single-day portfolio return (max drawdown)."""
    started = time.perf_counter()
    problem, layout = md_problem(returns, cfg)
    sol = solve_lp(problem)
    return _report("md", sol.status, sol.v[layout.x], sol.objective, cfg.resolved_cap(0.5),
                   sol.pivots, started)


def solve_md_milp(returns: ReturnMatrix, cfg: ModelConfig) -> SolveReport:
    """Model: the max-drawdown LP with a minimum-allocation rule per name."""
    started = time.perf_counter()
    problem, layout = md_milp_problem(returns, cfg)
    sol = solve_milp(problem)
    x = sol.v[layout.x] if sol.v is not None else None
    report = _report("md_milp", sol.status, x, sol.objective, cfg.resolved_cap(0.5),
                     sol.nodes, started)
    if report.allocation is not None:
        held = report.allocation.weights[report.allocation.weights > 1e-9]
        if held.size and held.min() < cfg.min_alloc - 1e-9:
            raise RuntimeError("MILP solution violates the minimum-allocation rule")
    return report


SOLVERS = {
    "markowitz": lambda returns, stats, cfg: solve_markowitz(stats, cfg),
    "reverse_markowitz": lambda returns, stats, cfg: solve_reverse_markowitz(stats, cfg),
    "simultaneous": lambda returns, stats, cfg: solve_simultaneous(stats, cfg),
    "mad": lambda returns, stats, cfg: solve_mad(returns, cfg),
    "md": lambda returns, stats, cfg: solve_md(returns, cfg),
    "md_milp": lambda returns, stats, cfg: solve_md_milp(returns, cfg),
}

# The ModelConfig fields each model reads. The CLI refuses a model option set
# away from its default when no model of the run reads it.
MODEL_FIELDS = {
    "markowitz": ("rho", "mu_l1", "cap"),
    "reverse_markowitz": ("sigma0", "cap"),
    "simultaneous": ("lam", "mu_l1", "cap"),
    "mad": ("rho", "cap"),
    "md": ("rho", "cap"),
    "md_milp": ("rho", "cap", "min_alloc"),
}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _clean_weights(x: np.ndarray, cap: float) -> np.ndarray:
    x = np.asarray(x, dtype=float).copy()
    x[(x < 0) & (x > -1e-9)] = 0.0
    verdict = validate_allocation(x, cap)
    if not verdict.ok:
        raise RuntimeError(f"solver returned an invalid allocation: {verdict.reason}")
    return x


def _report(tag: str, status: SolveStatus, x: np.ndarray | None, objective: float | None,
            cap: float, iterations: int, started: float, detail: str = "") -> SolveReport:
    """A model's report. When Optimal it carries the objective and the weights
    x, cleaned and checked against the cap; otherwise neither."""
    optimal = status is SolveStatus.OPTIMAL
    return SolveReport(
        model_tag=tag, status=status, objective=float(objective) if optimal else None,
        allocation=Allocation(_clean_weights(x, cap)) if optimal else None,
        wall_time=time.perf_counter() - started, iterations=iterations, detail=detail,
    )
