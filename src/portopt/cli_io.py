"""CSV ingestion, the command-line interface, and report rendering.

File conventions (all CSV, fixed headers, ``YYYY-MM-DD`` dates):

* prices:     ``date,TICK1,TICK2,...`` one row per trading day
* allocation: ``ticker,weight`` with decimal weights summing to 1
* in-sample report:     ``model,exp_return,std_dev,max_drawdown,n_stocks,time_s``
* out-of-sample report: ``model,period_return,daily_return,std_dev,max_drawdown``
* sensitivity report:   ``model,avg_abs_alloc_change``

Metric tables are rendered in percent; allocation weights stay decimal. Every
command writes a ``manifest.json`` capturing the resolved configuration, the
SHA-256 of each input file, and the produced artifacts, so a run can be
reproduced from the manifest alone (wall-clock ``time_s`` columns are the one
run-dependent quantity). Floats are written with 17 significant digits, enough
for an exact round-trip through the readers here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .analytics import (
    SplitSpec,
    compute_metrics,
    lambda_grid,
    lambda_sweep,
    portfolio_series,
    sensitivity_run,
    train_test_split,
)
from .core import (
    Allocation,
    DataError,
    DimensionError,
    ModelConfig,
    PriceMatrix,
    SolveStatus,
)
from .estimation import PerturbationConfig, asset_stats, compute_simple_returns
from .models import MEAN_VARIANCE, MODEL_FIELDS, SOLVERS

log = logging.getLogger(__name__)

MODEL_ALIASES = {
    "reverse": "reverse_markowitz",
    "reverse-markowitz": "reverse_markowitz",
    "md-milp": "md_milp",
}
BACKTEST_ALL = ("markowitz", "reverse_markowitz", "simultaneous", "md", "md_milp")

TABLE1_HEADER = "model,exp_return,std_dev,max_drawdown,n_stocks,time_s"
TABLE2_HEADER = "model,period_return,daily_return,std_dev,max_drawdown"
TABLE3_HEADER = "model,avg_abs_alloc_change"


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


# ---------------------------------------------------------------------------
# price file I/O
# ---------------------------------------------------------------------------

def ingest_prices(path: str | Path) -> PriceMatrix:
    """Load a prices CSV, dropping tickers that have any missing value.

    Rows are sorted by date after loading. Raises on malformed headers,
    non-numeric cells, duplicate dates, nonpositive prices, or fewer than two
    usable rows; missing (empty) cells only cost that ticker its column, with
    a logged warning counting the drops.
    """
    matrix, dropped = _ingest_prices_detail(Path(path))
    if dropped:
        log.warning("dropped %d ticker(s) with missing values: %s",
                    len(dropped), ",".join(dropped))
    return matrix


def _ingest_prices_detail(path: Path) -> tuple[PriceMatrix, list[str]]:
    """The prices and the dropped tickers: one C pass (`_ingest_block`) where
    it takes the file, else the row-by-row reader (`_ingest_rows`), which is
    the only path that drops blank-cell tickers and words every error."""
    try:
        matrix = _ingest_block(path)
    except ValueError:  # loadtxt's parse errors, a bad date or header, bad prices
        matrix = None
    if matrix is None:
        return _ingest_rows(path)
    return matrix, []


def _check_date(text: str) -> None:
    """Raise ValueError unless `text` is a date in canonical YYYY-MM-DD form.

    Windows compare date strings, which is chronological only in that form,
    so the other forms `date.fromisoformat` takes (`20200501`, `2020-W18-5`)
    are refused.
    """
    import datetime as _dt
    if _dt.date.fromisoformat(text).isoformat() != text:
        raise ValueError(f"not a YYYY-MM-DD date: {text!r}")


def _header_tickers(path: Path, reader) -> list[str]:
    """The tickers of a prices file's header row, read from a csv reader."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    if len(header) < 2 or header[0] != "date":
        raise DataError(f"{path}: header must be 'date,TICKER1,...'")
    tickers = [h.strip() for h in header[1:]]
    if any(not t for t in tickers) or len(set(tickers)) != len(tickers):
        raise DataError(f"{path}: ticker names must be nonempty and unique")
    return tickers


def _ingest_block(path: Path) -> PriceMatrix | None:
    """The whole price block in one `np.loadtxt` pass, with the date cells
    checked and collected by a converter on column 0.

    Returns None, or raises ValueError, wherever `_ingest_rows` must decide:
    a header spread over two lines by a quoted newline, a cell loadtxt
    cannot parse (a blank cell, `1_000`), a bad date, rows of unequal width,
    or fewer than two rows; and, through `PriceMatrix`'s own checks, rows of
    another width than the header, a repeated date, or a price that is not
    finite and positive (a `nan` cell, whose ticker the row reader drops).
    loadtxt parses a float as `float()` does, whitespace included, but
    refuses underscores and non-ASCII digits, so every value it returns is
    the one the row reader would take.
    """
    import csv as _csv
    import warnings

    dates = []

    def date_cell(cell: str) -> float:
        _check_date(cell)
        dates.append(cell)
        return 0.0

    # Universal newlines split lines where `newline=""` csv does; loadtxt
    # continues from the line after the header.
    with path.open() as fh:
        reader = _csv.reader(fh)
        tickers = _header_tickers(path, reader)
        if reader.line_num != 1:
            return None
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt notes each blank line it skips
            block = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                               converters={0: date_cell})
    if len(dates) < 2:
        return None
    order = sorted(range(len(dates)), key=dates.__getitem__)
    if order == list(range(len(dates))):  # ascending already: PriceMatrix copies a view
        return PriceMatrix(tickers, dates, block[:, 1:].T)
    return PriceMatrix(tickers, [dates[i] for i in order], block[order, 1:].T)


def _ingest_rows(path: Path) -> tuple[PriceMatrix, list[str]]:
    """The prices file row by row: csv cells, one `map(float)` per row of
    ASCII cells without underscores, and `_parse_cells` for any other row."""
    import csv as _csv

    with path.open(newline="") as fh:
        reader = _csv.reader(fh)
        tickers = _header_tickers(path, reader)
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(tickers) + 1:
                raise DataError(f"{path}:{lineno}: expected {len(tickers) + 1} cells")
            try:
                _check_date(row[0])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad date {row[0]!r}") from None
            joined = "".join(row[1:])
            try:
                # float strips the whitespace str.strip does, so a whole row
                # of numbers converts at once to the same values
                if not _plain_number(joined):
                    raise ValueError
                values = list(map(float, row[1:]))
            except ValueError:
                values = _parse_cells(path, lineno, tickers, row[1:])
            rows.append((row[0], values))

    rows.sort(key=lambda r: r[0])
    dates = [r[0] for r in rows]
    if len(set(dates)) != len(dates):
        dupe = next(d for i, d in enumerate(dates) if d in dates[:i])
        raise DataError(f"{path}: duplicate date {dupe}")
    if len(rows) < 2:
        raise DataError(f"{path}: need at least 2 rows of prices")
    data = np.array([r[1] for r in rows], dtype=float).T  # tickers x days
    keep = ~np.isnan(data).any(axis=1)
    dropped = [t for t, k in zip(tickers, keep) if not k]
    if not keep.any():
        raise DataError(f"{path}: every ticker has missing values")
    matrix = PriceMatrix(
        tuple(t for t, k in zip(tickers, keep) if k), tuple(dates), data[keep])
    return matrix, dropped


def _plain_number(text: str) -> bool:
    """Whether `text` holds no underscore and no character outside ASCII,
    which `float()` would read (`1_000`, non-ASCII digits such as `١٢`)
    and `np.loadtxt` refuses."""
    return text.isascii() and "_" not in text


def _parse_cells(path: Path, lineno: int, tickers: list[str], cells: list[str]) -> list[float]:
    """A row's prices cell by cell: NaN for a blank cell, which drops its
    ticker later, and DataError naming the first non-numeric one, or one
    that only `float()`'s wider syntax reads (`_plain_number`)."""
    values = []
    for ticker, cell in zip(tickers, cells):
        cell = cell.strip()
        if cell == "":
            values.append(np.nan)
            continue
        try:
            if not _plain_number(cell):
                raise ValueError
            values.append(float(cell))
        except ValueError:
            raise DataError(
                f"{path}:{lineno}: non-numeric price {cell!r} for {ticker}") from None
    return values


def write_prices_csv(matrix: PriceMatrix, path: str | Path) -> None:
    """The header through a csv writer, which quotes a ticker holding a
    comma, quote or newline as the readers expect; the rows of dates and
    numbers need no quoting."""
    import csv as _csv
    with Path(path).open("w", newline="") as fh:
        _csv.writer(fh, lineterminator="\n").writerow(["date", *matrix.tickers])
        for j, date in enumerate(matrix.dates):
            fh.write(date + "," + ",".join(_fmt(v) for v in matrix.prices[:, j]) + "\n")


def write_allocation_csv(tickers, allocation: Allocation, path: str | Path) -> None:
    """`ticker,weight` rows through a csv writer, so any ticker ingest takes
    reads back by `read_allocation_csv`."""
    import csv as _csv
    with Path(path).open("w", newline="") as fh:
        writer = _csv.writer(fh, lineterminator="\n")
        writer.writerow(["ticker", "weight"])
        for ticker, weight in zip(tickers, allocation.weights):
            writer.writerow([ticker, _fmt(weight)])


def read_allocation_csv(path: str | Path) -> tuple[tuple[str, ...], Allocation]:
    """Read a `ticker,weight` file as `write_allocation_csv` writes it. A
    malformed file raises DataError naming the file and line."""
    import csv as _csv
    with Path(path).open(newline="") as fh:
        reader = _csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}:1: empty file, expected header 'ticker,weight'") from None
        if header != ["ticker", "weight"]:
            raise DataError(f"{path}:1: expected header 'ticker,weight'")
        weights: dict[str, float] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataError(f"{path}:{lineno}: expected 2 cells")
            ticker, cell = row
            if ticker in weights:
                raise DataError(f"{path}:{lineno}: duplicate ticker {ticker!r}")
            try:
                weights[ticker] = float(cell)
            except ValueError:
                raise DataError(
                    f"{path}:{lineno}: non-numeric weight {cell!r} for {ticker}") from None
    try:
        return tuple(weights), Allocation(np.array(list(weights.values())))
    except (DataError, DimensionError) as err:
        raise DataError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# run configuration and manifest
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """Everything a command needs, serializable into the run manifest."""

    command: str
    prices: str
    output_dir: str
    models: tuple[str, ...] = BACKTEST_ALL
    rho: float | None = None
    sigma0: float | None = None
    lam: float = 0.0
    mu_l1: float = 0.0
    cap: float | None = None
    min_alloc: float = 0.05
    c: float = 1000.0
    seed: int = 0
    grid_min: float = 1e-3
    grid_max: float = 1e4
    grid_n: int = 100
    grid_spacing: str = "log"
    train_end: str | None = None
    test_end: str | None = None

    def __post_init__(self):
        self.models = tuple(self.models)

    def model_config(self) -> ModelConfig:
        return ModelConfig(rho=self.rho, sigma0=self.sigma0, lam=self.lam,
                           mu_l1=self.mu_l1, cap=self.cap, min_alloc=self.min_alloc)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(cfg: RunConfig, outputs: list[str], results: dict) -> None:
    """The run's `manifest.json`: its configuration, which `run_from_manifest`
    replays, the SHA-256 of its input, the files it wrote, and the figures
    its command reports there (`results`; `sweep-lambda` records
    `n_excluded`, its grid points that were not Optimal)."""
    from . import __version__

    manifest = {
        "tool": f"portopt {__version__}",
        "command": cfg.command,
        "config": asdict(cfg),
        "inputs": {cfg.prices: _sha256(Path(cfg.prices))},
        "outputs": sorted(outputs),
        "results": results,
    }
    out = Path(cfg.output_dir) / "manifest.json"
    out.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def run_from_manifest(path: str | Path) -> int:
    """Re-execute the run recorded in a manifest (reproducibility hook)."""
    manifest = json.loads(Path(path).read_text())
    return run_command(RunConfig(**manifest["config"]))


# ---------------------------------------------------------------------------
# table rendering
# ---------------------------------------------------------------------------

def _write_table(path: Path, header: str, rows: list[list[str]]) -> list[str]:
    with path.open("w", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
    return [str(path)]


def render_markdown(columns: list[str], rows: list[list[str]]) -> str:
    """A markdown table; a `|` inside a cell is escaped as `\\|`."""
    def line(cells) -> str:
        return "| " + " | ".join(cell.replace("|", "\\|") for cell in cells) + " |"

    lines = [line(columns), "| " + " | ".join("---" for _ in columns) + " |"]
    lines += [line(row) for row in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def run_command(cfg: RunConfig) -> int:
    """Dispatch one run; returns the process exit status, artifacts on disk.

    Refuses a field set away from its default that the command does not read
    (see `COMMANDS`), whether the config came from the CLI or not.
    """
    if cfg.command not in COMMANDS:
        raise DataError(f"unknown command {cfg.command!r}")
    read = {"command", "prices"} | {_FIELD_OF[flag] for flag in _flags(cfg.command)}
    for f in fields(RunConfig):
        if f.name not in read and getattr(cfg, f.name) != f.default:
            raise DataError(f"{cfg.command} does not read {_FLAG_OF[f.name]} "
                            f"({f.name}={getattr(cfg, f.name)!r})")
    for label, value in (("--train-end", cfg.train_end), ("--test-end", cfg.test_end)):
        if value is not None:
            try:
                _check_date(value)
            except ValueError:
                raise DataError(f"{label} must be a YYYY-MM-DD date, got {value!r}") from None
    # before the output directory is made, so a refused run leaves none behind
    tags = _resolve_models(cfg) if "models" in read else None
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if tags is None:
        handler = {"ingest": _cmd_ingest, "sweep-lambda": _cmd_sweep}[cfg.command]
        outputs, results = handler(cfg, out_dir)
    else:
        handler = {"solve": _cmd_solve, "backtest": _cmd_backtest,
                   "sensitivity": _cmd_sensitivity}[cfg.command]
        outputs, results = handler(cfg, out_dir, tags)
    _write_manifest(cfg, outputs, results)
    return 0


def _load_returns(cfg: RunConfig):
    """The returns of the prices file; the prices are not held past them."""
    return compute_simple_returns(ingest_prices(cfg.prices))


def _train_window(cfg: RunConfig, returns):
    """The returns up to --train-end inclusive; all of them without it."""
    if cfg.train_end is None:
        return returns
    dates = [d for d in returns.dates if d <= cfg.train_end]
    if not dates:
        raise DataError("train_end precedes all data")
    return type(returns)(returns.tickers, tuple(dates), returns.returns[:, :len(dates)])


def _split_spec(cfg: RunConfig, returns) -> SplitSpec:
    if cfg.train_end is None or cfg.test_end is None:
        raise DataError("backtest requires --train-end and --test-end")
    first, last = returns.dates[0], returns.dates[-1]
    if not first <= cfg.train_end < cfg.test_end:
        raise DataError("need first date <= train_end < test_end")
    after_train = next((d for d in returns.dates if d > cfg.train_end), None)
    if after_train is None:
        raise DataError("no data after train_end")
    return SplitSpec(first, cfg.train_end, after_train, min(cfg.test_end, last))


def _resolve_models(cfg: RunConfig) -> list[str]:
    """The run's model tags; refuses an empty list, an unknown model, a model
    named twice (aliases count as their model), a model option that none of
    them reads and more than one model for `solve`."""
    if not cfg.models:
        raise DataError("no model named")
    tags = []
    for name in cfg.models:
        tag = MODEL_ALIASES.get(name, name)
        if tag not in SOLVERS:
            raise DataError(f"unknown model {name!r}")
        if tag in tags:
            raise DataError(f"model {tag} named twice")
        tags.append(tag)
    for f in fields(ModelConfig):
        if (getattr(cfg, f.name) != f.default
                and not any(f.name in MODEL_FIELDS[tag] for tag in tags)):
            raise DataError(f"{_FLAG_OF[f.name]} is read by none of the models: "
                            f"{', '.join(tags)}")
    if cfg.command == "solve" and len(tags) != 1:
        raise DataError("solve takes exactly one --model")
    return tags


def _estimates(window, tags: list[str]):
    """The window's moment estimates where a model of `tags` reads them (one
    of `models.MEAN_VARIANCE`), else None: the drawdown solvers read only
    the returns, so no covariance is held under them."""
    return None if set(tags).isdisjoint(MEAN_VARIANCE) else asset_stats(window)


def _cmd_ingest(cfg: RunConfig, out_dir: Path) -> tuple[list[str], dict]:
    matrix, dropped = _ingest_prices_detail(Path(cfg.prices))
    out = out_dir / "prices_clean.csv"
    write_prices_csv(matrix, out)
    outputs = [str(out)]
    outputs += _write_table(out_dir / "ingest_summary.csv", "n_tickers,n_days,n_dropped",
                            [[str(matrix.n_assets), str(matrix.n_days), str(len(dropped))]])
    print(f"ingested {matrix.n_assets} tickers x {matrix.n_days} days "
          f"({len(dropped)} dropped)")
    return outputs, {}


def _cmd_solve(cfg: RunConfig, out_dir: Path, tags: list[str]) -> tuple[list[str], dict]:
    tag, = tags
    returns = _load_returns(cfg)
    returns = _train_window(cfg, returns)
    stats = _estimates(returns, tags)
    report = SOLVERS[tag](returns, stats, cfg.model_config())
    objective = _fmt(report.objective) if report.objective is not None else ""
    outputs = _write_table(out_dir / "report.csv", "model,objective,status,iterations,time_s",
                           [[tag, objective, report.status.value, str(report.iterations),
                             f"{report.wall_time:.6f}"]])
    if report.status is SolveStatus.OPTIMAL:
        alloc_path = out_dir / "allocation.csv"
        write_allocation_csv(returns.tickers, report.allocation, alloc_path)
        outputs.append(str(alloc_path))
        print(f"{tag}: objective {report.objective!r}, "
              f"{report.allocation.n_positions} positions")
    else:
        print(f"{tag}: {report.status.value}")
    return outputs, {}


def _cmd_backtest(cfg: RunConfig, out_dir: Path, tags: list[str]) -> tuple[list[str], dict]:
    returns = _load_returns(cfg)
    spec = _split_spec(cfg, returns)
    train, test = train_test_split(returns, spec)
    stats = _estimates(train, tags)
    model_cfg = cfg.model_config()

    rows1, rows2 = [], []
    for tag in tags:
        # the mean-variance models share the critical line `stats` keeps
        report = SOLVERS[tag](train, stats, model_cfg)
        if report.status is not SolveStatus.OPTIMAL:
            rows1.append([tag, report.status.value, "", "", "", f"{report.wall_time:.6f}"])
            rows2.append([tag, report.status.value, "", "", ""])
            continue
        m_in = compute_metrics(portfolio_series(train, report.allocation), report.allocation)
        m_out = compute_metrics(portfolio_series(test, report.allocation), report.allocation)
        rows1.append([
            tag, _fmt(m_in.mean_daily_return * 100), _fmt(m_in.std_daily * 100),
            _fmt(m_in.max_drawdown * 100), str(m_in.n_positions),
            f"{report.wall_time:.6f}",
        ])
        rows2.append([
            tag, _fmt(m_out.cumulative_return * 100), _fmt(m_out.mean_daily_return * 100),
            _fmt(m_out.std_daily * 100), _fmt(m_out.max_drawdown * 100),
        ])
    outputs = _write_table(out_dir / "insample.csv", TABLE1_HEADER, rows1)
    outputs += _write_table(out_dir / "outsample.csv", TABLE2_HEADER, rows2)
    print(f"backtest: {len(tags)} models, train {train.n_days} days, test {test.n_days} days")
    return outputs, {}


def _cmd_sweep(cfg: RunConfig, out_dir: Path) -> tuple[list[str], dict]:
    returns = _load_returns(cfg)
    returns = _train_window(cfg, returns)
    stats = asset_stats(returns)
    grid = lambda_grid(cfg.grid_min, cfg.grid_max, cfg.grid_n, cfg.grid_spacing)
    sweep = lambda_sweep(stats, grid, cap=cfg.cap)
    rows = [
        [_fmt(lam), _fmt(s) if np.isfinite(s) else "", _fmt(r) if np.isfinite(r) else "",
         status, _fmt(d) if np.isfinite(d) else ""]
        for lam, s, r, status, d in zip(sweep.lambdas, sweep.std_pct, sweep.return_pct,
                                        sweep.statuses, sweep.distances)
    ]
    outputs = _write_table(out_dir / "frontier.csv",
                           "lambda,std_pct,return_pct,status,distance", rows)
    n_excluded = sum(status != SolveStatus.OPTIMAL.value for status in sweep.statuses)
    summary_rows = [[_fmt(sweep.chosen_lambda), _fmt(sweep.ideal_point[0]),
                     _fmt(sweep.ideal_point[1]), str(n_excluded)]]
    outputs += _write_table(out_dir / "sweep_summary.csv",
                            "chosen_lambda,ideal_std_pct,ideal_return_pct,n_excluded",
                            summary_rows)
    print(f"sweep: chosen lambda {sweep.chosen_lambda!r} "
          f"(ideal point {sweep.ideal_point[0]:.4f}%, {sweep.ideal_point[1]:.4f}%)")
    return outputs, {"n_excluded": n_excluded}


def _cmd_sensitivity(cfg: RunConfig, out_dir: Path, tags: list[str]) -> tuple[list[str], dict]:
    returns = _load_returns(cfg)
    returns = _train_window(cfg, returns)
    model_cfg = cfg.model_config()
    report = sensitivity_run(returns, {tag: model_cfg for tag in tags},
                             PerturbationConfig(c=cfg.c, seed=cfg.seed))
    rows = [[row.model,
             _fmt(row.alloc_change_pct) if row.alloc_change_pct is not None else row.status]
            for row in report.rows]
    outputs = _write_table(out_dir / "sensitivity.csv", TABLE3_HEADER, rows)
    cov_rows = [[_fmt(report.cov_avg_abs_diff), _fmt(report.cov_relative_change)]]
    outputs += _write_table(out_dir / "covariance_change.csv",
                            "avg_abs_diff,relative_change", cov_rows)
    print(f"sensitivity: covariance relative change "
          f"{report.cov_relative_change * 100:.2f}%")
    return outputs, {}


def _cmd_report(args) -> int:
    import csv as _csv
    path = Path(args.input)
    with path.open(newline="") as fh:
        lines = [row for row in _csv.reader(fh) if row]
    if not lines:
        raise DataError(f"{path}: empty report")
    rendered = render_markdown(lines[0], lines[1:])
    if args.output:
        Path(args.output).write_text(rendered)
    else:
        sys.stdout.write(rendered)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _model_list(text: str) -> tuple[str, ...]:
    if text == "all":
        return BACKTEST_ALL
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _read_by(field: str) -> str:
    return "read by " + ", ".join(tag for tag, read in MODEL_FIELDS.items() if field in read)


# Every option a command may take, keyed by flag. Dests are RunConfig fields,
# and an option left out takes the RunConfig default.
OPTIONS = {
    "output-dir": dict(default="out", help="artifact directory"),
    "model": dict(dest="models", action="append", required=True,
                  help="which model to solve: a tag or an alias, as for --models"),
    "models": dict(type=_model_list,
                   help="comma list of models, or 'all' (the default) for the five surveyed"),
    "train-end": dict(help="last training date, inclusive"),
    "test-end": dict(help="last test date, inclusive"),
    "rho": dict(type=float, help="minimum daily expected return (decimal); " + _read_by("rho")),
    "sigma0": dict(type=float,
                   help="maximum daily standard deviation (decimal); " + _read_by("sigma0")),
    "lambda": dict(dest="lam", type=float, help="risk-penalty weight; " + _read_by("lam")),
    "mu-l1": dict(type=float, help="L1 penalty, 0 disables; " + _read_by("mu_l1")),
    "cap": dict(type=float,
                help="per-asset ceiling (default 0.5 for drawdown models, 1 otherwise)"),
    "min-alloc": dict(type=float,
                      help="minimum positive weight (default 0.05); " + _read_by("min_alloc")),
    "c": dict(type=float, help="perturbation scale divisor (default 1000)"),
    "seed": dict(type=int, help="perturbation RNG seed"),
    "grid-min": dict(type=float, help="smallest lambda (default 1e-3)"),
    "grid-max": dict(type=float, help="largest lambda (default 1e4)"),
    "grid-n": dict(type=int, help="number of grid points (default 100)"),
    "grid-spacing": dict(choices=("log", "linear"), help="grid spacing (default log)"),
}
MODEL_OPTIONS = ("rho", "sigma0", "lambda", "mu-l1", "cap", "min-alloc")
# The options each command reads, beyond the prices file and --output-dir.
COMMANDS = {
    "ingest": ("validate and normalize a prices CSV", ()),
    "solve": ("solve one model and write its allocation",
              ("model", "train-end") + MODEL_OPTIONS),
    "backtest": ("train/test split performance tables",
                 ("models", "train-end", "test-end") + MODEL_OPTIONS),
    "sweep-lambda": ("trace the penalty frontier and pick lambda",
                     ("train-end", "cap", "grid-min", "grid-max", "grid-n", "grid-spacing")),
    "sensitivity": ("perturbation study of allocations",
                    ("models", "train-end") + MODEL_OPTIONS + ("c", "seed")),
}
_FIELD_OF = {flag: spec.get("dest", flag.replace("-", "_")) for flag, spec in OPTIONS.items()}
_FLAG_OF = {field: "--" + flag for flag, field in _FIELD_OF.items()}


def _flags(command: str) -> tuple[str, ...]:
    """Every flag a command takes: --output-dir, then its own."""
    return ("output-dir",) + COMMANDS[command][1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="portopt",
        description="Portfolio optimization toolkit: six models, backtesting, "
                    "penalty sweep, and perturbation sensitivity analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command",
                                help="run `portopt <command> -h` for details")
    for command, (help_text, _) in COMMANDS.items():
        p = sub.add_parser(command, help=help_text, argument_default=argparse.SUPPRESS)
        p.add_argument("prices", help="prices CSV (date,TICK1,TICK2,...)")
        for flag in _flags(command):
            p.add_argument("--" + flag, **OPTIONS[flag])

    p = sub.add_parser("report", help="render a report CSV as markdown")
    p.add_argument("--input", required=True)
    p.add_argument("--output", default=None)
    return parser


def config_from_args(args) -> RunConfig:
    """The run configuration: the options given, RunConfig defaults for the rest."""
    return RunConfig(**{f.name: getattr(args, f.name)
                        for f in fields(RunConfig) if hasattr(args, f.name)})


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "report":
            return _cmd_report(args)
        return run_command(config_from_args(args))
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
