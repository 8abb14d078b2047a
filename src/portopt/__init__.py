"""Portfolio optimization toolkit: six allocation models (mean-variance QPs,
MAD and max-drawdown LPs, and a minimum-allocation MILP) on top of in-house
simplex, active-set QP and branch-and-bound engines, plus estimation,
backtesting and sensitivity analysis."""

from .core import (
    Allocation,
    AssetStats,
    DataError,
    DimensionError,
    ModelConfig,
    PriceMatrix,
    ReturnMatrix,
    SolveReport,
    SolveStatus,
    validate_allocation,
)
from .estimation import (
    PerturbationConfig,
    asset_stats,
    compute_simple_returns,
    covariance,
    covariance_change,
    mean_returns,
    perturb_returns,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AssetStats",
    "DataError",
    "DimensionError",
    "ModelConfig",
    "PerturbationConfig",
    "PriceMatrix",
    "ReturnMatrix",
    "SolveReport",
    "SolveStatus",
    "asset_stats",
    "compute_simple_returns",
    "covariance",
    "covariance_change",
    "mean_returns",
    "perturb_returns",
    "validate_allocation",
]
