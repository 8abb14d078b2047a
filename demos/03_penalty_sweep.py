"""Trace the risk/return frontier of the penalized model over a grid of
penalty weights and pick the one closest to the ideal corner.

The ideal corner pairs the lowest standard deviation seen on the grid with
the highest return seen on the grid (both in percent per day); the chosen
penalty minimizes plain Euclidean distance to it.
"""

from pathlib import Path

from portopt import compute_simple_returns, asset_stats
from portopt.cli_io import ingest_prices
from portopt.analytics import lambda_grid, lambda_sweep

FIXTURE = Path(__file__).parent.parent / "data" / "prices_2020h1.csv"
N_SUBSET = 80

prices = ingest_prices(FIXTURE)
prices = type(prices)(prices.tickers[:N_SUBSET], prices.dates, prices.prices[:N_SUBSET])
returns = compute_simple_returns(prices)
train_dates = [d for d in returns.dates if d <= "2020-05-01"]
train = type(returns)(returns.tickers, tuple(train_dates),
                      returns.returns[:, :len(train_dates)])
stats = asset_stats(train)

grid = lambda_grid(1e-3, 1e4, 25, "log")
sweep = lambda_sweep(stats, grid)

print(f"{'lambda':>12} {'std %/d':>9} {'return %/d':>11} {'distance':>9}")
for lam, s, r, d in zip(sweep.lambdas, sweep.std_pct, sweep.return_pct, sweep.distances):
    marker = "  <- chosen" if lam == sweep.chosen_lambda else ""
    print(f"{lam:>12.5g} {s:>9.4f} {r:>11.4f} {d:>9.4f}{marker}")

print(f"\nideal corner: std {sweep.ideal_point[0]:.4f}%, return {sweep.ideal_point[1]:.4f}%")
print(f"chosen penalty: {sweep.chosen_lambda:.5g}")
