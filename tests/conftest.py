import dataclasses
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from portopt import analytics
from portopt.analytics import SplitSpec, train_test_split
from portopt.cli_io import ingest_prices
from portopt.core import ModelConfig, ReturnMatrix, SolveStatus
from portopt.estimation import asset_stats, compute_simple_returns

FIXTURE_PATH = Path(__file__).parent.parent / "data" / "prices_2020h1.csv"
FIXTURE_RHO = 0.001
FIXTURE_SPLIT = SplitSpec("2020-02-04", "2020-05-01", "2020-05-04", "2020-07-31")


def make_returns(matrix: np.ndarray, prefix: str = "A") -> ReturnMatrix:
    n, t_days = matrix.shape
    tickers = tuple(f"{prefix}{i:03d}" for i in range(n))
    dates = tuple(f"2021-{1 + t // 28:02d}-{1 + t % 28:02d}" for t in range(t_days))
    return ReturnMatrix(tickers, dates, matrix)


def stop_points_above(monkeypatch, lam_max: float):
    """Make every sweep point with lambda above lam_max end at
    IterationLimit without weights, as a solve stopped at a cap would."""
    solve = analytics.solve_simultaneous

    def stopped(stats, cfg, **kw):
        report = solve(stats, cfg, **kw)
        if cfg.lam <= lam_max:
            return report
        return dataclasses.replace(report, status=SolveStatus.ITERATION_LIMIT,
                                   objective=None, allocation=None)

    monkeypatch.setattr(analytics, "solve_simultaneous", stopped)


@pytest.fixture(scope="session")
def fixture_prices():
    return ingest_prices(FIXTURE_PATH)


@pytest.fixture(scope="session")
def fixture_returns(fixture_prices):
    return compute_simple_returns(fixture_prices)


@pytest.fixture(scope="session")
def fixture_split(fixture_returns):
    return train_test_split(fixture_returns, FIXTURE_SPLIT)


@pytest.fixture(scope="session")
def fixture_train(fixture_split):
    return fixture_split[0]


@pytest.fixture(scope="session")
def fixture_stats(fixture_train):
    return asset_stats(fixture_train)


@pytest.fixture(scope="session")
def fixture_md_report(fixture_train):
    from portopt.models import solve_md
    return solve_md(fixture_train, ModelConfig(rho=FIXTURE_RHO))


@pytest.fixture(scope="session")
def fixture_milp_report(fixture_train):
    from portopt.models import solve_md_milp
    return solve_md_milp(fixture_train, ModelConfig(rho=FIXTURE_RHO))
