"""The six portfolio models, built from moment estimates or raw returns and
dispatched to the matching solver engine.

The three mean-variance models are queries on one path: the minimizer v(t)
of v'Sigma v - t mean'v over the budget box, Markowitz's critical line
(`qp_solver.CriticalLine`), piecewise linear in t. Minimum variance under a
return floor is the point where the return reaches the floor, the
simultaneous model at lambda is v(1/lambda), and the reverse model (maximize
return subject to a standard-deviation ceiling) is the point where the
standard deviation reaches the ceiling. The line depends only on the
moment estimates and the cap, so the estimates keep it
(`AssetStats.critical_lines`): the first query under a cap builds it, and
every later query on those estimates and that cap, by any of the three
models, walks on from the kept line. Each query takes exact steps and
certifies its point with one oracle call. The line reads Sigma through the
estimates' block of centered returns where they keep one, so it needs
neither the n x n covariance nor a `QpProblem`. The mean-absolute-deviation
and max-drawdown models are epigraph LPs for the simplex; the
minimum-allocation drawdown variant is the `md` LP with each weight on/off
(0 or at least min_alloc), for branch and bound, whose search is rooted at
the `md` LP's optimum. That LP depends only on the window, rho and the cap,
so the window keeps it (`ReturnMatrix.md_lps`), and whichever of `md` and
`md_milp` runs first solves it for both.

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
from .lp_solver import AT_LOWER, AT_UPPER, BASIC, Basis, LpProblem, LpSolution, solve_lp
from .milp_solver import MilpProblem, solve_milp
from .qp_solver import GAP_TOL_DEFAULT, CriticalLine, QpProblem, QpSolution

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
    portfolio); that budget-box problem is the one the critical line walks.
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
    """Penalized QP: min -mean' x + lambda * x' Sigma x s.t. sum x = 1, box.

    `solve_simultaneous` answers it as a query on the critical line; this is
    the model's own statement, for a solve by `qp_solver.solve_qp`.
    """
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
    The day rows hold the deviations, so `mad_vertex` reads them back to
    build the vertex `solve_mad` starts from.
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


def mad_vertex(problem: LpProblem, layout: ModelLayout) -> Basis | None:
    """The basis of a feasible vertex of `problem`, a `mad_problem` LP, for
    its cold solve to start from; None where too few names meet the floor.

    With k = ceil(1/cap), the k names of mean return at least rho with the
    least mean absolute deviation |d| (ties to the lowest index) hold the
    budget: the first k - 1 at the cap, the last at the remainder
    1 - (k - 1) cap. The deviations d and the means are read from the day
    and return rows. The last name is basic in the budget row; in each day
    row p_t is basic where the portfolio deviates upward that day and the
    row's slack otherwise; the return row's slack is basic; every other
    column rests at its bound, the capped names at their upper ones. In row
    order B is lower triangular with +-1 on its diagonal, so nonsingular,
    and the vertex is primal feasible: phase 1 takes no pivot from it.
    """
    n, days = layout.n_assets, layout.n_cols - layout.n_assets
    dev = problem.a_ub[:days, :n]           # day t's row holds d_t
    mu, rho = -problem.a_ub[days, :n], -problem.b_ub[days]
    cap = float(problem.upper[0])
    k = np.ceil(1.0 / cap)                  # a float: inf for a subnormal cap
    names = np.flatnonzero(mu >= rho)
    if names.size < k:
        return None
    k = int(k)
    held = names[np.argsort(np.abs(dev[:, names]).mean(axis=0), kind="stable")[:k]]
    x = np.zeros(n)
    x[held[:-1]] = cap
    x[held[-1]] = 1.0 - (k - 1) * cap
    # columns: x, p, then the slacks of the budget row, the day rows and the
    # return row
    day = np.arange(days)
    up = dev @ x > 0.0
    basic = np.concatenate([held[-1:], np.where(up, n + day, n + days + 1 + day),
                            [n + 2 * days + 1]])
    status = np.full(layout.n_cols + days + 2, AT_LOWER, dtype=np.int8)
    status[held[:-1]] = AT_UPPER
    status[basic] = BASIC
    return Basis(basic, status)


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
    # the day rows y - r_t' x <= 0, then the return row, filled in place
    a_ub = np.empty((t_days + 1, ncols))
    np.negative(returns.returns.T, out=a_ub[:t_days, :n])
    a_ub[:t_days, n] = 1.0
    a_ub[t_days, :n] = -mu
    a_ub[t_days, n] = 0.0
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
    return MilpProblem(base=base, on_off=_on_off(returns.n_assets, cfg)), layout


def _on_off(n_assets: int, cfg: ModelConfig) -> dict[int, float]:
    """The drawdown MILP's on/off columns: every weight, at min_alloc."""
    cap = cfg.resolved_cap(0.5)
    if cfg.min_alloc > cap:
        raise DataError(f"min_alloc {cfg.min_alloc!r} exceeds the cap {cap!r}")
    return dict.fromkeys(range(n_assets), cfg.min_alloc)


# ---------------------------------------------------------------------------
# solve entry points
# ---------------------------------------------------------------------------

def _line(stats: AssetStats, cfg: ModelConfig) -> CriticalLine:
    """The critical line of `stats` under cfg's cap, which the three
    mean-variance models query, kept in `stats.critical_lines`. The first
    query under a cap builds it over the budget box, an `LpProblem` built
    here, so that model carries the line's one simplex state, in its own
    `time_s`, and the walk down to its point; later queries walk on only
    past the deepest point so far. The line reads Sigma through
    `stats.centered` where the estimates keep that block, and through their
    dense covariance otherwise, which the constructor has already checked;
    either way no `QpProblem` is built over the n weights."""
    cap = cfg.resolved_cap(1.0)
    if cap not in stats.critical_lines:
        n = stats.n_assets
        region = LpProblem(c=np.zeros(n), a_eq=np.ones((1, n)), b_eq=np.array([1.0]),
                           lower=np.zeros(n), upper=np.full(n, cap))
        sigma = ({"q": stats.covariance} if stats.centered is None
                 else {"centered": stats.centered})
        stats.critical_lines[cap] = CriticalLine(region, stats.mean_returns, **sigma)
    return stats.critical_lines[cap]


@dataclass(frozen=True)
class _MdLp:
    """A window's `md` LP, its layout, and its `solve_lp` solution from
    `start`."""

    problem: LpProblem
    layout: ModelLayout
    start: Basis | None
    solution: LpSolution


def _md_lp(returns: ReturnMatrix, cfg: ModelConfig, start: Basis | None = None) -> _MdLp:
    """The `md` LP of `returns` under cfg's rho and cap, solved from
    `start`, kept in `returns.md_lps` under (rho, cap). `md` and `md_milp`
    (whose root relaxation it is) both read it, so whichever runs first
    builds and solves it. A later call with the same rho and cap and a start
    of the same content (or none again) reads the kept solve; one with
    another start solves again and keeps that solve in its place."""
    key = (cfg.require_rho(), cfg.resolved_cap(0.5))
    kept = returns.md_lps.get(key)
    if kept is None or not _same_basis(kept.start, start):
        problem, layout = md_problem(returns, cfg)
        kept = _MdLp(problem, layout, start, solve_lp(problem, start=start))
        returns.md_lps[key] = kept
    return kept


def _same_basis(a: Basis | None, b: Basis | None) -> bool:
    if a is None or b is None:
        return a is b
    return np.array_equal(a.basic, b.basic) and np.array_equal(a.status, b.status)


def solve_markowitz(stats: AssetStats, cfg: ModelConfig) -> SolveReport:
    """Model: minimize portfolio variance subject to a required mean return.

    The point of the critical line of `stats` where the return reaches rho.
    The report's objective is the portfolio variance x' Sigma x, plus the L1
    penalty mu_l1 * sum |x_i| = mu_l1 when cfg.mu_l1 > 0; `iterations`
    counts the walk's steps to the point, and `detail` carries a bound on
    the Frank-Wolfe gap over the budget box and the return floor, from one
    call in the line's simplex state (`CriticalLine.at_return`).
    """
    started = time.perf_counter()
    rho = cfg.require_rho()
    sol = _line(stats, cfg).at_return(rho)
    return _mean_variance_report("markowitz", sol, cfg, started)


def solve_simultaneous(stats: AssetStats, cfg: ModelConfig, *,
                       gap_tol: float = GAP_TOL_DEFAULT) -> SolveReport:
    """Model: minimize -mean return + lambda * variance over the budget box.

    The point v(1/lambda) of the critical line of `stats` (at lambda = 0,
    the top-return vertex the oracle finds). Its Frank-Wolfe gap for this
    objective must meet gap_tol. As in `solve_markowitz`, cfg.mu_l1 > 0
    adds the L1 penalty.
    """
    started = time.perf_counter()
    sol = _line(stats, cfg).at_penalty(cfg.lam, gap_tol)
    return _mean_variance_report("simultaneous", sol, cfg, started)


def _mean_variance_report(tag: str, sol: QpSolution, cfg: ModelConfig,
                          started: float) -> SolveReport:
    """A query's report, with the L1 penalty added after the solve.

    Weights are long-only, so mu * sum |x_i| is the linear cost mu * sum x_i,
    and the budget row makes it the constant mu on the feasible region: the
    penalty moves no optimizer, so the unpenalized point is taken and the
    report's objective is its value plus mu * sum x.
    """
    objective = sol.objective + cfg.mu_l1 * float(sol.v.sum())
    return _report(tag, sol.status, sol.v, objective, cfg.resolved_cap(1.0),
                   sol.iterations, started, f"fw_gap={sol.fw_gap!r}")


def solve_reverse_markowitz(stats: AssetStats, cfg: ModelConfig) -> SolveReport:
    """Model: maximize mean return subject to a standard-deviation ceiling.

    Walks the critical line of `stats` from the top-return vertex down to
    where the standard deviation reaches sigma0, in one simplex state and
    without a QP solve. The point minimizes
    variance for its own return floor; `detail` carries the Frank-Wolfe gap
    that certifies it. The report's objective is its mean return and
    `iterations` counts the walk's steps. Where even the minimum-variance
    end of the line stays above sigma0, that end is returned if it is within
    sigma0 + 1e-6, and the report is Infeasible otherwise (its `detail` then
    certifies that end).
    """
    started = time.perf_counter()
    sigma0 = cfg.require_sigma0()
    line = _line(stats, cfg)
    sol = line.at_variance(sigma0 ** 2)
    status = sol.status
    if status is SolveStatus.OPTIMAL and line.variance(sol.v) > (sigma0 + SIGMA_SLACK) ** 2:
        status = SolveStatus.INFEASIBLE
    return _report("reverse_markowitz", status, sol.v, float(stats.mean_returns @ sol.v),
                   cfg.resolved_cap(1.0), sol.iterations, started, f"fw_gap={sol.fw_gap!r}")


def solve_mad(returns: ReturnMatrix, cfg: ModelConfig, *,
              start: Basis | None = None) -> SolveReport:
    """Model: minimize mean absolute deviation of the portfolio return.

    Without `start` the simplex starts from `mad_vertex`, a feasible vertex
    the model builds (from the slack basis where it has none), so phase 1
    takes no pivot. `start`, the `basis` of a `mad` report on a window of as
    many days, starts phase 1 where the simplex can take it
    (`_start_detail`); where it cannot, the LP is solved again as without
    `start`, so the answer is the one without it, to the bit.
    """
    started = time.perf_counter()
    problem, layout = mad_problem(returns, cfg)
    sol = None if start is None else solve_lp(problem, start=start)
    taken = sol is not None and sol.warm
    if not taken:
        sol = solve_lp(problem, start=mad_vertex(problem, layout))
    return _report("mad", sol.status, sol.v[layout.x], sol.objective, cfg.resolved_cap(1.0),
                   sol.pivots, started, _start_detail(start, taken), sol.basis)


def solve_md(returns: ReturnMatrix, cfg: ModelConfig, *,
             start: Basis | None = None) -> SolveReport:
    """Model: maximize the worst single-day portfolio return (max drawdown).

    `start`, the `basis` of an `md` report on a window of as many days,
    starts phase 1 where the simplex can take it (`_start_detail`). The
    solve is the one the window keeps (`_md_lp`), so an `md_milp` solve
    under the same rho, cap and start has already made it where it ran
    first; `iterations` are that solve's pivots either way.
    """
    started = time.perf_counter()
    lp = _md_lp(returns, cfg, start)
    sol = lp.solution
    return _report("md", sol.status, sol.v[lp.layout.x], sol.objective, cfg.resolved_cap(0.5),
                   sol.pivots, started, _start_detail(start, sol.warm), sol.basis)


def solve_md_milp(returns: ReturnMatrix, cfg: ModelConfig, *,
                  start: Basis | None = None) -> SolveReport:
    """Model: the max-drawdown LP with a minimum-allocation rule per name.

    The root LP is the `md` LP the window keeps (`_md_lp`): an `md` solve
    under the same rho, cap and start has already solved it where it ran
    first, and the search starts at that optimum without a pivot. The
    report's `basis` is the root LP's, and `start`, that of an `md_milp`
    report on a window of as many days, starts the root LP where the simplex
    can take it (`_start_detail`).
    """
    started = time.perf_counter()
    cfg.require_rho()   # refused before min_alloc, as md_milp_problem does
    on_off = _on_off(returns.n_assets, cfg)
    lp = _md_lp(returns, cfg, start)
    sol = solve_milp(MilpProblem(base=lp.problem, on_off=on_off), root=lp.solution)
    x = sol.v[lp.layout.x] if sol.v is not None else None
    report = _report("md_milp", sol.status, x, sol.objective, cfg.resolved_cap(0.5),
                     sol.nodes, started, _start_detail(start, sol.warm), sol.root_basis)
    if report.allocation is not None:
        held = report.allocation.weights[report.allocation.weights > 1e-9]
        if held.size and held.min() < cfg.min_alloc - 1e-9:
            raise RuntimeError("MILP solution violates the minimum-allocation rule")
    return report


def _start_detail(start: Basis | None, warm: bool) -> str:
    """The `detail` of a drawdown solve: `start=warm` where phase 1 started
    from its `start` basis (it fit the window and was nonsingular there; a
    start that is still primal feasible costs no phase-1 pivot), `start=cold`
    where the solve started as it does without a start instead (from
    `mad_vertex` for `mad`, from the slack basis for the others), so an
    unused start shows, and empty without a start. Either way the answer
    carries the same certificate."""
    if start is None:
        return ""
    return "start=warm" if warm else "start=cold"


# The models that read the moment estimates, and only them: a run of
# drawdown models alone need not hold the estimates' n x n covariance.
MEAN_VARIANCE = ("markowitz", "reverse_markowitz", "simultaneous")

# Each model's solve, called as SOLVERS[tag](returns, stats, cfg). The
# MEAN_VARIANCE models read only the moment estimates `stats`; the drawdown
# models read only the returns, and take `stats=None`, so no covariance is
# live under their solves where the caller holds none. A drawdown model's
# report carries its final basis, and its solve takes a report's basis back
# by keyword, as `start=`, for a window of the same shape.
SOLVERS = {
    "markowitz": lambda returns, stats, cfg: solve_markowitz(stats, cfg),
    "reverse_markowitz": lambda returns, stats, cfg: solve_reverse_markowitz(stats, cfg),
    "simultaneous": lambda returns, stats, cfg: solve_simultaneous(stats, cfg),
    "mad": lambda returns, stats, cfg, *, start=None: solve_mad(returns, cfg, start=start),
    "md": lambda returns, stats, cfg, *, start=None: solve_md(returns, cfg, start=start),
    "md_milp": lambda returns, stats, cfg, *, start=None: solve_md_milp(returns, cfg,
                                                                       start=start),
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
            cap: float, iterations: int, started: float, detail: str = "",
            basis: Basis | None = None) -> SolveReport:
    """A model's report. When Optimal it carries the objective and the weights
    x, cleaned and checked against the cap; otherwise neither."""
    optimal = status is SolveStatus.OPTIMAL
    return SolveReport(
        model_tag=tag, status=status, objective=float(objective) if optimal else None,
        allocation=Allocation(_clean_weights(x, cap)) if optimal else None,
        wall_time=time.perf_counter() - started, iterations=iterations, detail=detail,
        basis=basis,
    )
