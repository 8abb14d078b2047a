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

from .core import (AssetStats, DataError, DimensionError, PriceMatrix, ReturnMatrix,
                   gram_covariance)


@dataclass(frozen=True)
class PerturbationConfig:
    """Scale divisor c and RNG seed for the return perturbation."""

    c: float = 1000.0
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.c < np.inf:
            raise DataError("perturbation scale c must be finite and positive")
        if not isinstance(self.seed, (int, np.integer)):
            raise DataError(f"perturbation seed must be an integer, got {self.seed!r}")
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

    `core.gram_covariance` of the centered returns C: 0.5·(D + Dᵀ) with
    D = CCᵀ/T, symmetric bit for bit. `asset_stats` computes the same bits
    through the same formula.
    """
    if returns.n_days < 2:
        raise DimensionError("need at least 2 days of returns for a covariance")
    r = returns.returns
    return gram_covariance(r - r.mean(axis=1, keepdims=True))


def asset_stats(returns: ReturnMatrix) -> AssetStats:
    """Mean returns and covariance, validated as a unit.

    `AssetStats.from_centered` keeps the centered returns C, through which
    the mean-variance models read the covariance, and proves the covariance
    PSD from C in O(nT): by a rounding-error bound on the product CCᵀ/T
    where that bound is within PSD_TOL, and otherwise by the constructor's
    Cholesky check. Its `covariance`, built on the first read, is bit for
    bit `covariance(returns)`.
    """
    mean = mean_returns(returns)
    if returns.n_days < 2:
        raise DimensionError("need at least 2 days of returns for a covariance")
    return AssetStats.from_centered(mean, returns.returns - mean[:, None])


def perturb_returns(returns: ReturnMatrix, cfg: PerturbationConfig) -> ReturnMatrix:
    """Add independent noise N(0, sigma_s)/c to every return observation.

    sigma_s is the population standard deviation of asset s over the window,
    so volatile assets receive proportionally larger shocks and constant-return
    assets are left untouched. Day t of asset s takes the t-th standard normal
    that numpy's `Generator(Philox(SeedSequence(entropy=seed,
    spawn_key=(s,))))` draws: the key is that sequence's
    `generate_state(2, uint64)` and the counter starts at 0, so the first block
    of four words is the cipher of counter 1. The stream is computed in
    numpy arrays, for all assets at once and without numpy's random module:
    the keys in one pass of SeedSequence's hash (`_philox_keys`), the words
    and the normals by `philox.standard_normals` (Philox4x64-10 and numpy's
    ziggurat); tests pin it bit for bit against numpy's generator. An asset's
    noise does not depend on the other rows, and the output is reproducible
    bit-for-bit across platforms for a given seed. `philox` is imported here,
    at the first perturbation, so `import portopt` neither compiles it nor
    holds its tables.

    Noise is added as-is, never clipped; an aggressively small c can push a
    deeply negative return past the -1 floor, which surfaces as the
    ReturnMatrix validation error.
    """
    from .philox import standard_normals
    r = returns.returns
    sigma = r.std(axis=1)  # population std per asset row
    noise = standard_normals(_philox_keys(cfg.seed, returns.n_assets), returns.n_days)
    perturbed = r + noise * (sigma[:, None] / cfg.c)
    return ReturnMatrix(returns.tickers, returns.dates, perturbed)


# The constants of numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _philox_keys(seed: int, n: int) -> np.ndarray:
    """The Philox keys of `SeedSequence(entropy=seed, spawn_key=(s,))` for
    s = 0..n-1, as an n x 2 uint64 array, in one vectorized uint32 pass.

    Each row's entropy is the seed's 32-bit words, least significant first and
    zero-padded to the pool size, followed by the spawn word s. The pass runs
    `mix_entropy` on it and then `generate_state(2, uint64)`. The hash
    constant of each step does not depend on the data, so it is a Python int
    shared by all rows, and uint32 array arithmetic wraps as the C code does.
    """
    words, rest = [], int(seed)
    while True:
        words.append(rest & _MASK32)
        rest >>= 32
        if not rest:
            break
    words += [0] * (_POOL_SIZE - len(words))
    entropy = np.empty((n, len(words) + 1), dtype=np.uint32)
    entropy[:, :-1] = words
    entropy[:, -1] = np.arange(n, dtype=np.uint32)

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, entropy.shape[1]):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(entropy[:, i_src]))

    hash_const = _INIT_B
    state = np.empty((n, 4), dtype=np.uint32)
    for i in range(4):
        value = pool[i] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    # two little-endian uint32 words per uint64, as generate_state assembles them
    return state.astype("<u4").view("<u8").astype(np.uint64)


def covariance_change(before: ReturnMatrix, after: ReturnMatrix) -> tuple[float, float]:
    """Average absolute elementwise difference between the covariances of two
    return windows of one shape, and that average relative to the mean
    absolute element of the original's.

    Each window is centered once, C₀ and C₁, and the rows of D = CCᵀ/T are
    formed in blocks of T rows, D[I] = C[I]Cᵀ/T, into one T x n buffer per
    window (one block when T >= n); each block adds |D₁[I] - D₀[I]| and
    |D₀[I]| to two sums, in place. No block is larger than a window's n x T
    returns, so the change holds no n x n array. D is `gram_covariance`'s
    product before its symmetrization, so its elements are the covariances'
    within rounding. Where one block holds all of D, which numpy forms
    symmetric, the result is the bits of `np.mean(np.abs(covariance(after)
    - covariance(before)))` and its ratio to `np.mean(np.abs(covariance(
    before)))`. A non-finite mean or block raises `DataError`, as
    `asset_stats` does.
    """
    if before.returns.shape != after.returns.shape:
        raise DimensionError(f"shape mismatch: {before.returns.shape} vs {after.returns.shape}")
    n, t = before.returns.shape
    if t < 2:
        raise DimensionError("need at least 2 days of returns for a covariance")
    c0, c1 = (r - r.mean(axis=1, keepdims=True) for r in (before.returns, after.returns))
    d0, d1 = np.empty((min(n, t), n)), np.empty((min(n, t), n))
    diff = base = 0.0
    for start in range(0, n, t):
        rows = slice(start, min(start + t, n))
        g0, g1 = d0[:rows.stop - start], d1[:rows.stop - start]
        np.matmul(c0[rows], c0.T, out=g0)
        np.matmul(c1[rows], c1.T, out=g1)
        g0 /= t
        g1 /= t
        diff += float(np.abs(np.subtract(g1, g0, out=g1), out=g1).sum())
        base += float(np.abs(g0, out=g0).sum())
    if not (np.isfinite(diff) and np.isfinite(base)):
        raise DataError("mean returns and covariance must be finite")
    avg_abs_diff = diff / (n * n)
    base /= n * n
    relative = avg_abs_diff / base if base > 0 else 0.0
    return avg_abs_diff, relative
