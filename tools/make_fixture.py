"""Generate the bundled price fixture: a synthetic large-cap universe over
February-July 2020 trading days, with a market crash and recovery profile
matching that period's character (crash into late March, sharp rebound, then
chop), sector co-movement, and a handful of crisis-winner names.

The data is synthetic so the repository stays self-contained and byte-stable;
it is calibrated to the right order of magnitude (daily vols roughly 1-6%,
cross-correlations driven by market beta) rather than to any real series.

`build_panel` also generates panels of other sizes for benchmarks: any
number of assets, any seed and any list of dates, in the `crash` regime
(the February-July 2020 profile, keyed on the dates) or a `calm` market
throughout. With no arguments it returns the bundled fixture.

Usage: python tools/make_fixture.py [out.csv]
"""

from __future__ import annotations

import datetime as dt
import string
import sys
from pathlib import Path

import numpy as np

N_ASSETS = 390
N_SECTORS = 10
SEED = 7
HOLIDAYS = {"2020-02-17", "2020-04-10", "2020-05-25", "2020-07-03"}


def trading_days() -> list[str]:
    days = []
    day = dt.date(2020, 2, 3)
    while day <= dt.date(2020, 7, 31):
        label = day.isoformat()
        if day.weekday() < 5 and label not in HOLIDAYS:
            days.append(label)
        day += dt.timedelta(days=1)
    return days


def weekdays(first: str, count: int) -> list[str]:
    """`count` consecutive weekdays from `first` (ISO date), no holidays."""
    days = []
    day = dt.date.fromisoformat(first)
    while len(days) < count:
        if day.weekday() < 5:
            days.append(day.isoformat())
        day += dt.timedelta(days=1)
    return days


def tickers(n: int) -> list[str]:
    letters = string.ascii_uppercase
    names = []
    for a in letters:
        for b in letters:
            for c in letters:
                names.append(a + b + c)
                if len(names) == n:
                    return names
    raise ValueError("universe too large")


def market_path(dates: list[str], rng: np.random.Generator,
                regime: str = "crash") -> np.ndarray:
    """Daily market factor returns: the 2020 crash and recovery profile,
    keyed on the dates, or the profile's calm pre-crash market throughout."""
    if regime not in ("crash", "calm"):
        raise ValueError(f"regime must be 'crash' or 'calm', not {regime!r}")
    drift = np.empty(len(dates))
    vol = np.empty(len(dates))
    for i, d in enumerate(dates):
        if regime == "calm" or d < "2020-02-20":
            drift[i], vol[i] = 0.0010, 0.008
        elif d <= "2020-03-23":
            drift[i], vol[i] = -0.0180, 0.042
        elif d <= "2020-06-08":
            drift[i], vol[i] = 0.0085, 0.024
        else:
            drift[i], vol[i] = 0.0005, 0.016
    return drift + vol * rng.standard_normal(len(dates))


def build_panel(n_assets: int = N_ASSETS, seed: int = SEED, dates: list[str] | None = None,
                regime: str = "crash") -> tuple[list[str], list[str], np.ndarray]:
    """Tickers, price dates and an n_assets x len(dates) price matrix drawn
    from `seed`; the dates default to the fixture's trading days."""
    rng = np.random.default_rng(seed)
    dates = trading_days() if dates is None else list(dates)
    names = tickers(n_assets)
    n_days = len(dates)

    market = market_path(dates, rng, regime)
    sectors = 0.006 * rng.standard_normal((N_SECTORS, n_days))
    sector_of = rng.integers(0, N_SECTORS, n_assets)

    beta = rng.uniform(0.35, 1.70, n_assets)
    idio_vol = rng.uniform(0.012, 0.035, n_assets)
    alpha = rng.normal(0.0, 0.0004, n_assets)

    # Crisis winners: low-beta names with genuinely positive drift (cleaning
    # products, groceries and the like outperformed through this window).
    winners = rng.choice(n_assets, size=8, replace=False)
    alpha[winners] = rng.uniform(0.0035, 0.0055, winners.size)
    beta[winners] = rng.uniform(0.15, 0.55, winners.size)
    idio_vol[winners] = rng.uniform(0.004, 0.008, winners.size)
    # And a tail of laggards that keep underperforming.
    losers = rng.choice(np.setdiff1d(np.arange(n_assets), winners), size=25, replace=False)
    alpha[losers] = rng.uniform(-0.0040, -0.0015, losers.size)

    idio = idio_vol[:, None] * rng.standard_normal((n_assets, n_days))
    returns = alpha[:, None] + beta[:, None] * market[None, :] + sectors[sector_of] + idio
    returns = np.clip(returns, -0.24, 0.32)

    start = rng.uniform(18.0, 480.0, n_assets)
    prices = start[:, None] * np.cumprod(1.0 + returns, axis=1)
    prices = np.round(prices, 4)
    assert np.all(prices > 0)
    return names, dates, prices


def write_csv(path: Path, names: list[str], dates: list[str], prices: np.ndarray) -> None:
    with path.open("w", newline="") as fh:
        fh.write("date," + ",".join(names) + "\n")
        for j, d in enumerate(dates):
            row = ",".join(f"{prices[i, j]:.4f}" for i in range(len(names)))
            fh.write(f"{d},{row}\n")


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("data/prices_2020h1.csv")
    out.parent.mkdir(parents=True, exist_ok=True)
    names, dates, prices = build_panel()
    write_csv(out, names, dates, prices)
    print(f"wrote {out}: {len(names)} tickers x {len(dates)} days")
