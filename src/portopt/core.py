"""Shared domain types: prices, returns, moment estimates, allocations, solve reports.

All quantities are daily decimals (a 1% move is 0.01, never 1.0); rendering in
percent happens only at the reporting layer. Every type validates its own
invariants at construction and is immutable afterwards, with one exception:
`AssetStats.critical_lines`, a memo of what the estimates determine, which
the mean-variance models fill as they are queried. The package runs no
threads; a caller that queries one `AssetStats` from several threads at once
must lock it, because a kept line walks on as it is queried.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .lp_solver import Basis
    from .qp_solver import CriticalLine

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
    tolerance, so downstream solvers can assume both. The constructor checks
    a given matrix: finiteness, symmetry within SYM_TOL, a nonnegative
    diagonal, and λ_min >= -PSD_TOL by a Cholesky (`_is_psd`).
    `from_centered` computes the covariance itself from a block of centered
    returns, and proves the same properties from that block instead.

    `critical_lines` maps a resolved cap to the Markowitz critical line of
    these estimates under it (`models._line`): the three mean-variance
    models build a line on their first query and answer later ones from the
    kept line. It is not an estimate, so it is not in the constructor, the
    comparison or the repr, and every route of construction starts it empty.
    """

    mean_returns: np.ndarray
    covariance: np.ndarray
    critical_lines: dict[float, CriticalLine] = field(
        default_factory=dict, init=False, compare=False, repr=False)

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

    @classmethod
    def from_centered(cls, mean_returns, centered) -> AssetStats:
        """The estimates `mean_returns` and Σ̂ = `gram_covariance(centered)`,
        computed here from an n x T block C of centered returns.

        Σ̂ is symmetric bit for bit, because IEEE addition commutes, and its
        diagonal holds sums of squares, so it is nonnegative; neither needs
        a scan. CCᵀ/T is PSD, and rounding moves Σ̂ from it by at most
        δ = (T + 3)·ε·‖C‖_F²/T + n(T + 1)·η in the 2-norm (ε the machine
        epsilon, η the least subnormal, which covers underflow): each entry
        of fl(CCᵀ) is a length-T inner product, within γ_T·|c_i|·|c_j| of
        the exact one in any summation order, the division and the
        symmetrization add 2u·‖C‖_F²/T more with u = ε/2, and the factor 2
        left over covers the rounding of ‖C‖_F² (Higham, Accuracy and
        Stability of Numerical Algorithms, 2nd ed., 2002, §3.5). By Weyl's
        inequality λ_min(Σ̂) >= -δ, so δ <= PSD_TOL proves the PSD invariant
        in O(nT). Where δ is larger, or ‖C‖_F² overflows, the constructor's
        Cholesky check (`_is_psd`) runs on Σ̂ instead. A product that
        overflows leaves Σ̂ non-finite, which raises as in the constructor.
        The proof holds for any block, since the Σ̂ it certifies is the one
        computed here; the constructor keeps every check for a given matrix.
        """
        mean = _frozen_array(mean_returns)
        centered = np.asarray(centered, dtype=float)
        n = mean.shape[0]
        if mean.ndim != 1 or centered.ndim != 2 or centered.shape[0] != n \
                or centered.shape[1] == 0:
            raise DimensionError("mean_returns must be an n-vector and centered a nonempty "
                                 "n x T block")
        cov = gram_covariance(centered)
        cov.setflags(write=False)  # computed here and held nowhere else
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise DataError("mean returns and covariance must be finite")
        certified = gram_psd_bound(centered) <= PSD_TOL  # False for an infinite bound
        if not certified and n > 0 and not _is_psd(cov):
            raise DataError(f"covariance not positive semi-definite within {PSD_TOL}")
        stats = object.__new__(cls)
        object.__setattr__(stats, "mean_returns", mean)
        object.__setattr__(stats, "covariance", cov)
        object.__setattr__(stats, "critical_lines", {})
        return stats

    @property
    def n_assets(self) -> int:
        return self.mean_returns.shape[0]


def gram_covariance(centered: np.ndarray) -> np.ndarray:
    """The population covariance 0.5·(D + Dᵀ), D = (C Cᵀ)/T, of an n x T
    block C of centered returns: one formula for every covariance estimate,
    so equal blocks give equal bits. `estimation.covariance_change` streams
    the rows of the same D in blocks of T, D[I] = (C[I] Cᵀ)/T, without the
    symmetrization, so its elements are these within rounding, and these
    bits where one block holds all of D, which numpy forms symmetric. A
    fresh C-ordered array."""
    d = (centered @ centered.T) / centered.shape[1]
    return np.ascontiguousarray(0.5 * (d + d.T))


def gram_psd_bound(centered: np.ndarray) -> float:
    """δ = (T + 3)·ε·‖C‖_F²/T + n(T + 1)·η, a bound on how far the rounding
    of `gram_covariance(C)` can move λ_min below 0 (see
    `AssetStats.from_centered`); inf when ‖C‖_F² overflows. O(nT)."""
    n, t = centered.shape
    flat = centered.ravel()
    with np.errstate(over="ignore"):   # an overflow makes δ infinite, never certified
        fro2 = float(flat @ flat)
    info = np.finfo(float)
    return (t + 3) * float(info.eps) * fro2 / t + n * (t + 1) * float(info.smallest_subnormal)


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
        if not 0 <= self.lam < np.inf:
            raise DataError("lambda must be finite and nonnegative")
        if not 0 <= self.mu_l1 < np.inf:
            raise DataError("mu_l1 must be finite and nonnegative")
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
