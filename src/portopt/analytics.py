"""Backtesting metrics, the risk-penalty selection heuristic, and the
perturbation sensitivity study.

Metrics follow the reporting conventions of the models: "max drawdown" is the
worst single-day portfolio return over the window, the daily standard
deviation is the population figure, and the window return compounds daily
returns. The risk-penalty sweep works in percent units on both axes because
its ideal-point distance heuristic is defined that way; everything else stays
in daily decimals.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    Allocation,
    AssetStats,
    DataError,
    DimensionError,
    ModelConfig,
    ReturnMatrix,
    SolveStatus,
)
from .estimation import PerturbationConfig, asset_stats, covariance_change, perturb_returns
from .models import MEAN_VARIANCE, SOLVERS, _line, solve_simultaneous

log = logging.getLogger(__name__)

POSITION_EPS = 1e-6


@dataclass(frozen=True)
class PortfolioMetrics:
    mean_daily_return: float
    std_daily: float
    max_drawdown: float
    cumulative_return: float
    n_positions: int


@dataclass(frozen=True)
class SplitSpec:
    """Inclusive date intervals for a train/test split; train strictly first."""

    train_start: str
    train_end: str
    test_start: str
    test_end: str

    def __post_init__(self):
        if not (self.train_start <= self.train_end < self.test_start <= self.test_end):
            raise DataError("split ranges must be nonempty, disjoint, and train before test")


@dataclass(frozen=True)
class SweepResult:
    """Frontier trace of the penalized model over a grid of risk penalties.

    std_pct / return_pct hold one frontier point per grid value (NaN where the
    solve failed); the ideal point pairs the smallest std with the largest
    return over the successful points, and chosen_lambda minimizes Euclidean
    distance to it, ties broken toward the smaller penalty.
    """

    lambdas: tuple[float, ...]
    std_pct: tuple[float, ...]
    return_pct: tuple[float, ...]
    statuses: tuple[str, ...]
    ideal_point: tuple[float, float]
    chosen_lambda: float
    distances: tuple[float, ...]


def portfolio_series(returns: ReturnMatrix, allocation: Allocation) -> np.ndarray:
    """Daily portfolio return series: sum_i r[i, t] * x[i] for each day t."""
    x = allocation.weights
    if x.shape[0] != returns.n_assets:
        raise DimensionError(
            f"allocation has {x.shape[0]} weights for {returns.n_assets} assets")
    return returns.returns.T @ x


def compute_metrics(series: np.ndarray, allocation: Allocation) -> PortfolioMetrics:
    """Window metrics of a daily return series under a given allocation."""
    series = np.asarray(series, dtype=float)
    if series.ndim != 1 or series.size == 0:
        raise DimensionError("series must be a nonempty vector")
    return PortfolioMetrics(
        mean_daily_return=float(series.mean()),
        std_daily=float(series.std()),
        max_drawdown=float(series.min()),
        cumulative_return=float(np.prod(1.0 + series) - 1.0),
        n_positions=int(np.sum(allocation.weights > POSITION_EPS)),
    )


def train_test_split(returns: ReturnMatrix, spec: SplitSpec) -> tuple[ReturnMatrix, ReturnMatrix]:
    """Partition columns by date into train and test windows; no overlap.

    Dates are compared lexicographically, which is chronological for ISO-8601
    labels. Raises when either window would be empty.
    """
    dates = np.array(returns.dates)
    train_mask = (dates >= spec.train_start) & (dates <= spec.train_end)
    test_mask = (dates >= spec.test_start) & (dates <= spec.test_end)
    if not train_mask.any():
        raise DataError("train window contains no data")
    if not test_mask.any():
        raise DataError("test window contains no data")
    train = ReturnMatrix(returns.tickers, tuple(dates[train_mask]),
                         returns.returns[:, train_mask])
    test = ReturnMatrix(returns.tickers, tuple(dates[test_mask]),
                        returns.returns[:, test_mask])
    return train, test


def lambda_sweep(stats: AssetStats, grid, *, cap: float | None = None) -> SweepResult:
    """Solve the penalized model for every grid value and pick the penalty
    whose (std%, return%) point lies closest to the ideal corner.

    The ideal corner is (min std%, max return%) over the Optimal grid
    points; distance is plain Euclidean in percent units on both axes, with
    no axis normalization. A point that ends in another status (Infeasible,
    when the cap cannot hold the budget) keeps that status and NaN
    coordinates and is excluded, with one logged warning counting the
    excluded points by status; a point whose solve raises aborts the sweep
    with that exception. Every point is a query on the critical line that
    `stats` keeps for `cap`, so the sweep builds at most one line (none
    where an earlier query on `stats` built it) and walks it once, and each
    point's report carries its own certificate. The points' variances are
    read through that line too (`CriticalLine.variance`), so estimates
    built from data need no n x n covariance here.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise DataError("lambda grid is empty")
    if any(g < 0 for g in grid):
        raise DataError("lambda values must be nonnegative")

    reports = [solve_simultaneous(stats, ModelConfig(lam=lam, cap=cap)) for lam in grid]
    line = _line(stats, ModelConfig(cap=cap))   # the line the points were queried on

    std_pct, ret_pct, statuses = [], [], []
    for report in reports:
        statuses.append(report.status.value)
        if report.status is SolveStatus.OPTIMAL:
            x = report.allocation.weights
            std_pct.append(float(np.sqrt(max(line.variance(x), 0.0))) * 100.0)
            ret_pct.append(float(stats.mean_returns @ x) * 100.0)
        else:
            std_pct.append(np.nan)
            ret_pct.append(np.nan)

    ok = [i for i, s in enumerate(statuses) if s == SolveStatus.OPTIMAL.value]
    excluded = Counter(s for s in statuses if s != SolveStatus.OPTIMAL.value)
    if excluded:
        log.warning("lambda sweep: %d of %d grid points not Optimal, excluded from the "
                    "ideal point: %s", sum(excluded.values()), len(grid),
                    ", ".join(f"{n} {status}" for status, n in sorted(excluded.items())))
    if not ok:
        raise DataError("no grid point solved successfully")
    ideal = (min(std_pct[i] for i in ok), max(ret_pct[i] for i in ok))
    distances = [
        float(np.hypot(std_pct[i] - ideal[0], ret_pct[i] - ideal[1])) if i in set(ok) else np.nan
        for i in range(len(grid))
    ]
    chosen = min(ok, key=lambda i: (distances[i], grid[i]))
    return SweepResult(
        lambdas=tuple(grid), std_pct=tuple(std_pct), return_pct=tuple(ret_pct),
        statuses=tuple(statuses), ideal_point=ideal, chosen_lambda=grid[chosen],
        distances=tuple(distances),
    )


def lambda_grid(low: float = 1e-3, high: float = 1e4, count: int = 100,
                spacing: str = "log") -> list[float]:
    """Equally spaced penalty grid, geometric by default (the range spans
    seven orders of magnitude, so linear spacing degenerates)."""
    if spacing not in ("log", "linear"):
        raise DataError("spacing must be 'log' or 'linear'")
    if count < 1 or not 0 < low <= high < np.inf:
        raise DataError("grid needs count >= 1 and 0 < low <= high < inf")
    if count == 1:
        return [low]
    space = np.geomspace if spacing == "log" else np.linspace
    return list(space(low, high, count))


def allocation_change(before: Allocation, after: Allocation) -> float:
    """Average absolute percent change over the originally held names.

    Only positions with original weight > 1e-6 enter; each contributes
    |after - before| / before in percent, so a dropped name counts 100%.
    """
    b = before.weights
    a = after.weights
    if a.shape != b.shape:
        raise DimensionError("allocations must have the same dimension")
    held = b > POSITION_EPS
    if not held.any():
        raise DataError("no positive original allocations to compare")
    return float(np.mean(np.abs(a[held] - b[held]) / b[held]) * 100.0)


@dataclass(frozen=True)
class SensitivityRow:
    model: str
    alloc_change_pct: float | None
    status: str


@dataclass(frozen=True)
class SensitivityReport:
    cov_avg_abs_diff: float
    cov_relative_change: float
    rows: tuple[SensitivityRow, ...]


def sensitivity_run(returns: ReturnMatrix, cfgs: dict[str, ModelConfig],
                    pcfg: PerturbationConfig) -> SensitivityReport:
    """Solve each requested model on original and perturbed returns and report
    how much the allocation moved, alongside the covariance change.

    `cfgs` maps model tags (keys of models.SOLVERS) to their configs. Rows for
    models that fail on either dataset carry the failure status instead of a
    number. Deterministic for a fixed perturbation seed.

    `covariance_change` reads the covariance change from the two windows
    themselves, in T-row blocks of their Gram products, so it holds no n x n
    array and is the same for any models. Where a requested model reads
    moment estimates (one of `models.MEAN_VARIANCE`), each window's are then
    built once as `AssetStats` (`asset_stats`, which certifies their
    covariance in O(nT)) and kept through the solves; they keep each
    window's n x T block of centered returns, through which the
    mean-variance models read the covariance, so the run holds no n x n
    array. The mean-variance models of one window and cap are queries on
    the critical line its estimates keep, so each window builds one line.
    Otherwise no estimates are built, and the drawdown solvers get
    `stats=None`. `md` and `md_milp` share the `md` LP each window keeps
    (`models._md_lp`). The perturbed window has the
    original's shape, so an LP model's perturbed solve starts from the basis
    of its original solve, which a small perturbation usually leaves
    optimal; its report's `detail` says whether that start was taken.
    """
    unknown = set(cfgs) - set(SOLVERS)
    if unknown:
        raise DataError(f"unknown model tags: {sorted(unknown)}")
    windows = (returns, perturb_returns(returns, pcfg))
    cov_diff, cov_rel = covariance_change(*windows)
    reads_stats = not set(cfgs).isdisjoint(MEAN_VARIANCE)
    stats = tuple(asset_stats(window) if reads_stats else None for window in windows)

    def run(tag: str) -> SensitivityRow:
        solve, cfg = SOLVERS[tag], cfgs[tag]
        before = solve(windows[0], stats[0], cfg)
        start = {} if before.basis is None else {"start": before.basis}
        after = solve(windows[1], stats[1], cfg, **start)
        if before.status is not SolveStatus.OPTIMAL or after.status is not SolveStatus.OPTIMAL:
            status = f"{before.status.value}/{after.status.value}"
            return SensitivityRow(model=tag, alloc_change_pct=None, status=status)
        change = allocation_change(before.allocation, after.allocation)
        return SensitivityRow(model=tag, alloc_change_pct=change, status="Optimal")

    return SensitivityReport(cov_avg_abs_diff=cov_diff, cov_relative_change=cov_rel,
                             rows=tuple(run(tag) for tag in cfgs))
