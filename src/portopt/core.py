"""Shared domain types: prices, returns, moment estimates, allocations, solve reports.

All quantities are daily decimals (a 1% move is 0.01, never 1.0); rendering in
percent happens only at the reporting layer. Every type validates its own
invariants at construction and is immutable afterwards, so instances can be
shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .lp_solver import Basis

BUDGET_TOL = 1e-8
BOX_TOL = 1e-9
PSD_TOL = 1e-10
SYM_TOL = 1e-12


class DimensionError(ValueError):
    """Inputs whose shapes or sizes cannot form a valid instance."""


class DataError(ValueError):
    """Inputs with well-formed shape but invalid values (e.g. nonpositive prices)."""


class SolveStatus(Enum):
    OPTIMAL = "Optimal"
    INFEASIBLE = "Infeasible"
    UNBOUNDED = "Unbounded"
    ITERATION_LIMIT = "IterationLimit"


def _frozen_array(values, dtype=float) -> np.ndarray:
    """A read-only C-ordered copy. Windows with equal values then solve to
    equal bits, whatever the layout they were cut in (a boolean-mask column
    window is F-ordered, a column slice C-ordered)."""
    arr = np.array(values, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PriceMatrix:
    """Adjusted-close prices, one row per ticker, one column per trading day."""

    tickers: tuple[str, ...]
    dates: tuple[str, ...]
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "prices", _frozen_array(self.prices))
        if self.prices.ndim != 2:
            raise DimensionError("prices must be a 2-D matrix")
        if self.prices.shape != (len(self.tickers), len(self.dates)):
            raise DimensionError(
                f"prices shape {self.prices.shape} does not match "
                f"{len(self.tickers)} tickers x {len(self.dates)} dates"
            )
        if not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0):
            raise DataError("prices must be finite and strictly positive")
        if any(a >= b for a, b in zip(self.dates, self.dates[1:])):
            raise DataError("dates must be strictly increasing with no duplicates")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def n_days(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class ReturnMatrix:
    """Daily simple returns r[i, t]; one fewer column than the source prices."""

    tickers: tuple[str, ...]
    dates: tuple[str, ...]
    returns: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tickers", tuple(self.tickers))
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "returns", _frozen_array(self.returns))
        if self.returns.ndim != 2:
            raise DimensionError("returns must be a 2-D matrix")
        if self.returns.shape != (len(self.tickers), len(self.dates)):
            raise DimensionError(
                f"returns shape {self.returns.shape} does not match "
                f"{len(self.tickers)} tickers x {len(self.dates)} dates"
            )
        if not np.all(np.isfinite(self.returns)) or np.any(self.returns <= -1.0):
            raise DataError("returns must be finite and > -1")

    @property
    def n_assets(self) -> int:
        return len(self.tickers)

    @property
    def n_days(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class AssetStats:
    """Per-asset mean daily returns and the covariance matrix between assets.

    The covariance must be symmetric and positive semi-definite within
    tolerance; both are checked here so downstream solvers can assume them.
    """

    mean_returns: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean_returns", _frozen_array(self.mean_returns))
        object.__setattr__(self, "covariance", _frozen_array(self.covariance))
        n = self.mean_returns.shape[0]
        if self.mean_returns.ndim != 1 or self.covariance.shape != (n, n):
            raise DimensionError("mean_returns must be n-vector and covariance n x n")
        if not np.all(np.isfinite(self.mean_returns)) or not np.all(np.isfinite(self.covariance)):
            raise DataError("mean returns and covariance must be finite")
        if np.max(np.abs(self.covariance - self.covariance.T), initial=0.0) > SYM_TOL:
            raise DataError(f"covariance not symmetric within {SYM_TOL}")
        if np.any(np.diag(self.covariance) < 0):
            raise DataError("covariance has negative diagonal entries")
        if n > 0 and not _is_psd(self.covariance):
            raise DataError(f"covariance not positive semi-definite within {PSD_TOL}")

    @property
    def n_assets(self) -> int:
        return self.mean_returns.shape[0]


def _is_psd(matrix: np.ndarray) -> bool:
    # Cholesky of sigma + tol*I is cheap and equivalent to min eigenvalue >= -tol
    # up to rounding; fall back to the eigenvalue check if it fails marginally.
    shifted = matrix + PSD_TOL * np.eye(matrix.shape[0])
    try:
        np.linalg.cholesky(shifted)
        return True
    except np.linalg.LinAlgError:
        return bool(np.linalg.eigvalsh(matrix).min() >= -PSD_TOL)


@dataclass(frozen=True)
class Allocation:
    """Budget-fraction weights: nonnegative, at most 1 each, summing to 1."""

    weights: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen_array(self.weights))
        if self.weights.ndim != 1 or self.weights.size == 0:
            raise DimensionError("weights must be a nonempty vector")
        verdict = validate_allocation(self.weights, cap=1.0)
        if not verdict.ok:
            raise DataError(f"invalid allocation: {verdict.reason}")

    @property
    def n_positions(self) -> int:
        return int(np.sum(self.weights > 1e-6))


@dataclass(frozen=True)
class ValidationResult:
    ok: bool
    reason: str | None = None


def validate_allocation(x, cap: float = 1.0) -> ValidationResult:
    """Check budget and box invariants of a weight vector against a per-asset cap.

    Accepts iff sum(x) = 1 within 1e-8 and -1e-9 <= x_i <= cap + 1e-9 for all i.
    Returns a verdict naming the first violated invariant; never raises on
    finite input.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        return ValidationResult(False, "weights contain NaN or Inf")
    total = float(np.sum(x))
    if abs(total - 1.0) > BUDGET_TOL:
        return ValidationResult(False, f"budget violated: sum(x) = {total!r}")
    low = np.where(x < -BOX_TOL)[0]
    if low.size:
        i = int(low[0])
        return ValidationResult(False, f"negative weight at index {i}: {x[i]!r}")
    high = np.where(x > cap + BOX_TOL)[0]
    if high.size:
        i = int(high[0])
        return ValidationResult(False, f"cap violated at index {i}: {x[i]!r} > {cap!r}")
    return ValidationResult(True)


@dataclass(frozen=True)
class ModelConfig:
    """Knobs shared by the model builders.

    rho        minimum required daily expected return (decimal); required by the
               return-constrained models, no silent default.
    sigma0     maximum daily standard deviation (decimal); required by the
               reverse mean-variance model.
    lam        risk-penalty weight for the simultaneous model.
    mu_l1      L1 penalty weight; 0 disables it.
    cap        per-asset ceiling; None resolves to the model default
               (0.5 for the drawdown models, 1.0 otherwise).
    min_alloc  minimum positive weight (drawdown MILP only; the MILP checks it
               against its resolved cap).

    Which models read which field is declared in models.MODEL_FIELDS.
    """

    rho: float | None = None
    sigma0: float | None = None
    lam: float = 0.0
    mu_l1: float = 0.0
    cap: float | None = None
    min_alloc: float = 0.05

    def __post_init__(self):
        if self.rho is not None and not np.isfinite(self.rho):
            raise DataError("rho must be finite")
        if self.sigma0 is not None and not self.sigma0 > 0:
            raise DataError("sigma0 must be positive")
        if self.lam < 0:
            raise DataError("lambda must be nonnegative")
        if self.mu_l1 < 0:
            raise DataError("mu_l1 must be nonnegative")
        if self.cap is not None and not 0 < self.cap <= 1.0:
            raise DataError("need 0 < cap <= 1")
        if not 0 < self.min_alloc <= 1.0:
            raise DataError("need 0 < min_alloc <= 1")

    def resolved_cap(self, default: float) -> float:
        return default if self.cap is None else self.cap

    def require_rho(self) -> float:
        if self.rho is None:
            raise DataError("this model requires rho (minimum daily expected return)")
        return self.rho

    def require_sigma0(self) -> float:
        if self.sigma0 is None:
            raise DataError("this model requires sigma0 (maximum daily std)")
        return self.sigma0


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one model run: allocation (iff optimal), objective, timing.

    `basis` is the final simplex basis of an LP model's solve (the root LP's
    for the MILP), which that model's solve takes back as `start` for a
    window of the same shape; None for the other models.
    """

    model_tag: str
    status: SolveStatus
    objective: float | None
    allocation: Allocation | None
    wall_time: float
    iterations: int
    detail: str = field(default="", compare=False)
    basis: Basis | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if (self.allocation is not None) != (self.status is SolveStatus.OPTIMAL):
            raise DataError("allocation must be present exactly when status is Optimal")
