"""The six portfolio models, built from moment estimates or raw returns and
dispatched to the matching solver engine.

Quadratic models (minimum-variance, simultaneous mean-variance) go to the
Frank-Wolfe engine; the mean-absolute-deviation and max-drawdown models are
epigraph LPs for the simplex; the minimum-allocation drawdown variant is a
binary MILP for branch and bound. The reverse mean-variance model (maximize
return subject to a standard-deviation ceiling) is solved by bisecting the
required-return parameter of the minimum-variance model along the efficient
frontier, whose standard deviation is nondecreasing in required return; this
reuses the quadratic engine instead of introducing a QCQP method. A bisection
step needs only the side of sigma0^2 its frontier variance lies on, so its
Frank-Wolfe solve stops as soon as the iterate or the gap's lower bound proves
it (`solve_qp`'s `level`); one final full-accuracy solve at the accepted
floor certifies the returned weights.

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
    binary indicator block z. Every solver column belongs to exactly one block.
    (The L1 augmentation appends its u block after x; only x is read back.)
    """

    n_assets: int
    n_cols: int
    x: slice
    y: slice | None = None
    z: slice | None = None

    def __post_init__(self):
        owned = np.zeros(self.n_cols, dtype=int)
        for block in (self.x, self.y, self.z):
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
    """Drawdown MILP: Model 5 plus binaries z with min_alloc * z <= x <= M * z.

    M equals the cap (0.5 by default), the smallest valid big-M and therefore
    the tightest LP relaxation available. A positive weight is forced up to
    min_alloc, so at most floor(1 / min_alloc) names can be held.
    """
    n, t_days = returns.n_assets, returns.n_days
    rho = cfg.require_rho()
    cap = cfg.resolved_cap(0.5)
    if cfg.min_alloc > cap:
        raise DataError(f"min_alloc {cfg.min_alloc!r} exceeds the cap {cap!r}")
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

    The report's objective is the portfolio variance x' Sigma x, plus mu_l1
    when cfg.mu_l1 > 0 adds the L1 block (see `l1_augment`).
    """
    started = time.perf_counter()
    problem, layout = markowitz_problem(stats, cfg)
    return _solve_quadratic("markowitz", problem, layout, cfg, gap_tol, max_iters, started)


def solve_simultaneous(stats: AssetStats, cfg: ModelConfig, *,
                       gap_tol: float = QP_GAP_TOL, max_iters: int = QP_MAX_ITERS) -> SolveReport:
    """Model: minimize -mean return + lambda * variance over the budget box.

    As in `solve_markowitz`, cfg.mu_l1 > 0 adds the L1 block.
    """
    started = time.perf_counter()
    problem, layout = simultaneous_problem(stats, cfg)
    return _solve_quadratic("simultaneous", problem, layout, cfg, gap_tol, max_iters, started)


def _solve_quadratic(tag: str, problem: QpProblem, layout: ModelLayout, cfg: ModelConfig,
                     gap_tol: float, max_iters: int, started: float) -> SolveReport:
    """Frank-Wolfe on a model's QP, with the L1 block added first when mu_l1 > 0."""
    start = None
    if cfg.mu_l1 > 0:
        # Start from the base problem's own feasibility vertex with u mirroring
        # x (feasible, and the tightest u for that x), the same point the plain
        # solve starts from.
        base = SimplexState(problem._region)
        if not base.feasible:
            return _report(tag, SolveStatus.INFEASIBLE, None, None, 1.0, 0, started,
                           f"fw_gap={np.inf!r}")
        start = np.tile(base.vertex, 2)
        problem = l1_augment(problem, cfg.mu_l1)
        # The penalty contributes the constant mu to the objective, inflating
        # the relative-gap scale; tighten proportionally so the x block is
        # certified to the same absolute accuracy as the unaugmented solve.
        gap_tol = gap_tol / (1.0 + cfg.mu_l1)
    sol = solve_qp(problem, max_iters=max_iters, gap_tol=gap_tol, start=start)
    return _report(tag, sol.status, sol.v[layout.x], sol.objective, cfg.resolved_cap(1.0),
                   sol.iterations, started, f"fw_gap={sol.fw_gap!r}")


def solve_reverse_markowitz(stats: AssetStats, cfg: ModelConfig, *,
                            gap_tol: float = QP_GAP_TOL, max_iters: int = QP_MAX_ITERS) -> SolveReport:
    """Model: maximize mean return subject to a standard-deviation ceiling.

    Solved by bisection on the required return of the minimum-variance model:
    frontier standard deviation is nondecreasing in required return, so the
    largest return whose frontier point stays within sigma0 (plus 1e-6 slack)
    is found to interval width 1e-10 in at most 60 steps. Each step needs one
    bit, whether the frontier variance at its floor is above sigma0^2, so its
    solve passes that as `level` and stops once the side is proved; the
    global minimum-variance and top-vertex solves do the same against
    (sigma0 + 1e-6)^2. Every early decision is the one a full solve reaches.
    A final solve to the gap tolerance, warm-started from the accepted point,
    certifies the returned weights as the minimum-variance point of the
    accepted floor. The report's objective is their mean return and
    `iterations` sums the FW iterations of every solve, the final one
    included; infeasible when even the global minimum-variance portfolio
    exceeds sigma0.
    """
    started = time.perf_counter()
    sigma0 = cfg.require_sigma0()
    cap = cfg.resolved_cap(1.0)
    mu = stats.mean_returns
    total_iters = 0

    def frontier(rho: float | None, start=None, level=None) -> QpSolution:
        nonlocal total_iters
        problem, _ = markowitz_problem(stats, cfg, rho=rho)
        sol = solve_qp(problem, max_iters=max_iters, gap_tol=gap_tol, start=start, level=level)
        total_iters += sol.iterations
        return sol

    def report(status: SolveStatus, sol: QpSolution | None = None) -> SolveReport:
        v = None if sol is None else sol.v
        objective = None if sol is None else float(mu @ sol.v)
        return _report("reverse_markowitz", status, v, objective, cap, total_iters, started)

    def certified(rho: float, accepted: QpSolution) -> SolveReport:
        sol = frontier(rho, start=accepted.v)
        return report(sol.status, sol)

    ceiling, level = (sigma0 + SIGMA_SLACK) ** 2, sigma0 ** 2
    mv = frontier(None, level=ceiling)
    if mv.status is not SolveStatus.OPTIMAL:
        return report(mv.status)
    if mv.objective > ceiling:
        return report(SolveStatus.INFEASIBLE)

    top = _max_return_weights(mu, cap)
    hi_sol = frontier(float(mu @ top), start=top, level=ceiling)
    if hi_sol.status is not SolveStatus.OPTIMAL:
        return report(hi_sol.status)
    if hi_sol.objective <= ceiling:
        return certified(float(mu @ top), hi_sol)

    lo, hi = float(mu @ mv.v), float(mu @ top)
    best = mv
    warm = hi_sol.v
    for _ in range(BISECT_ITERS):
        if hi - lo < BISECT_TOL:
            break
        mid = 0.5 * (lo + hi)
        sol = frontier(mid, start=warm, level=level)
        if sol.status is not SolveStatus.OPTIMAL:
            return report(sol.status)
        if sol.objective <= level:  # proved if stopped early, else the full solve's verdict
            lo, best = mid, sol
        else:
            hi = mid
            warm = sol.v  # return mu @ v >= mid stays feasible for lower rho
    return certified(lo, best)


def solve_mad(returns: ReturnMatrix, cfg: ModelConfig, *, pivot_limit: int = 50_000) -> SolveReport:
    """Model: minimize mean absolute deviation of the portfolio return."""
    started = time.perf_counter()
    problem, layout = mad_problem(returns, cfg)
    sol = solve_lp(problem, pivot_limit=pivot_limit)
    return _report("mad", sol.status, sol.v[layout.x], sol.objective, cfg.resolved_cap(1.0),
                   sol.pivots, started)


def solve_md(returns: ReturnMatrix, cfg: ModelConfig, *, pivot_limit: int = 50_000) -> SolveReport:
    """Model: maximize the worst single-day portfolio return (max drawdown)."""
    started = time.perf_counter()
    problem, layout = md_problem(returns, cfg)
    sol = solve_lp(problem, pivot_limit=pivot_limit)
    return _report("md", sol.status, sol.v[layout.x], sol.objective, cfg.resolved_cap(0.5),
                   sol.pivots, started)


def solve_md_milp(returns: ReturnMatrix, cfg: ModelConfig, *,
                  node_limit: int = 100_000) -> SolveReport:
    """Model: the max-drawdown LP with a minimum-allocation rule per name."""
    started = time.perf_counter()
    problem, layout = md_milp_problem(returns, cfg)
    sol = solve_milp(problem, node_limit=node_limit)
    x = sol.v[layout.x] if sol.v is not None else None
    report = _report("md_milp", sol.status, x, sol.objective, cfg.resolved_cap(0.5),
                     sol.nodes, started)
    if report.allocation is not None:
        held = report.allocation.weights[report.allocation.weights > 1e-9]
        if held.size and held.min() < cfg.min_alloc - 1e-9:
            raise RuntimeError("MILP solution violates the minimum-allocation rule")
    return report


SOLVERS = {
    "markowitz": lambda returns, stats, cfg, **kw: solve_markowitz(stats, cfg, **kw),
    "reverse_markowitz": lambda returns, stats, cfg, **kw: solve_reverse_markowitz(stats, cfg, **kw),
    "simultaneous": lambda returns, stats, cfg, **kw: solve_simultaneous(stats, cfg, **kw),
    "mad": lambda returns, stats, cfg, **kw: solve_mad(returns, cfg, **kw),
    "md": lambda returns, stats, cfg, **kw: solve_md(returns, cfg, **kw),
    "md_milp": lambda returns, stats, cfg, **kw: solve_md_milp(returns, cfg, **kw),
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
