"""Moment estimation from price data, plus the randomized return perturbation.

Conventions, documented because the literature varies:

* returns are simple (arithmetic) daily returns, P[t+1]/P[t] - 1, so that the
  portfolio return is exactly linear in asset returns;
* the covariance divisor is T (population convention), matching the 1/T mean
  absolute deviation and standard deviation formulas used by the models;
* perturbation noise for asset s is N(0, sigma_s)/c with sigma_s the population
  standard deviation of that asset over the window being perturbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, DimensionError, PriceMatrix, ReturnMatrix, AssetStats


@dataclass(frozen=True)
class PerturbationConfig:
    """Scale divisor c and RNG seed for the return perturbation."""

    c: float = 1000.0
    seed: int = 0

    def __post_init__(self):
        if not self.c > 0:
            raise DataError("perturbation scale c must be positive")
        if self.seed < 0:
            raise DataError(f"perturbation seed must be non-negative, got {self.seed}")


def compute_simple_returns(prices: PriceMatrix) -> ReturnMatrix:
    """Daily simple returns r[i, t] = P[i, t+1] / P[i, t] - 1.

    The output has one fewer column than the input; each return column is
    labeled with the date it realizes on (the later of the two price dates).
    """
    if prices.n_days < 2:
        raise DimensionError("need at least 2 dates to compute returns")
    p = prices.prices
    returns = p[:, 1:] / p[:, :-1] - 1.0
    return ReturnMatrix(prices.tickers, prices.dates[1:], returns)


def mean_returns(returns: ReturnMatrix) -> np.ndarray:
    """Arithmetic mean return per asset over the sample period."""
    if returns.n_days < 1:
        raise DimensionError("need at least 1 day of returns")
    return returns.returns.mean(axis=1)


def covariance(returns: ReturnMatrix) -> np.ndarray:
    """Population covariance (divide by T) between asset return series.

    Symmetrized explicitly so the result passes the AssetStats tolerance even
    after floating-point accumulation on wide matrices.
    """
    if returns.n_days < 2:
        raise DimensionError("need at least 2 days of returns for a covariance")
    r = returns.returns
    centered = r - r.mean(axis=1, keepdims=True)
    cov = (centered @ centered.T) / returns.n_days
    return 0.5 * (cov + cov.T)


def asset_stats(returns: ReturnMatrix) -> AssetStats:
    """Bundle mean returns and covariance, validated as a unit."""
    return AssetStats(mean_returns(returns), covariance(returns))


def perturb_returns(returns: ReturnMatrix, cfg: PerturbationConfig) -> ReturnMatrix:
    """Add independent noise N(0, sigma_s)/c to every return observation.

    sigma_s is the population standard deviation of asset s over the window,
    so volatile assets receive proportionally larger shocks and constant-return
    assets are left untouched. Draws come from a counter-based Philox generator
    keyed by (seed, asset index); day t consumes the t-th draw of its asset's
    stream, so generating rows in parallel matches serial generation and the
    output is reproducible bit-for-bit across platforms for a given seed.

    Noise is added as-is, never clipped; an aggressively small c can push a
    deeply negative return past the -1 floor, which surfaces as the
    ReturnMatrix validation error.
    """
    r = returns.returns
    sigma = r.std(axis=1)  # population std per asset row
    noise = np.empty_like(r)
    for s in range(returns.n_assets):
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(s,)))
        )
        noise[s, :] = gen.standard_normal(returns.n_days)
    perturbed = r + noise * (sigma[:, None] / cfg.c)
    return ReturnMatrix(returns.tickers, returns.dates, perturbed)


def covariance_change(before: np.ndarray, after: np.ndarray) -> tuple[float, float]:
    """Average absolute elementwise difference between two covariance matrices,
    and that average relative to the mean absolute element of the original.
    """
    before = np.asarray(before, dtype=float)
    after = np.asarray(after, dtype=float)
    if before.shape != after.shape:
        raise DimensionError(f"shape mismatch: {before.shape} vs {after.shape}")
    avg_abs_diff = float(np.mean(np.abs(after - before)))
    base = float(np.mean(np.abs(before)))
    relative = avg_abs_diff / base if base > 0 else 0.0
    return avg_abs_diff, relative
