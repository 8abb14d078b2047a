import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from portopt.cli_io import (
    RunConfig,
    _ingest_block,
    _ingest_prices_detail,
    _ingest_rows,
    build_parser,
    ingest_prices,
    main,
    read_allocation_csv,
    render_markdown,
    run_command,
    run_from_manifest,
    write_prices_csv,
)
from portopt.core import AssetStats, DataError, PriceMatrix, validate_allocation
from portopt.qp_solver import QpProblem

from conftest import FIXTURE_PATH, stop_points_above


def write_tiny_prices(path: Path, n=10, days=30, seed=5, missing=None):
    rng = np.random.default_rng(seed)
    import datetime as dt
    dates = []
    day = dt.date(2021, 1, 4)
    while len(dates) < days:
        if day.weekday() < 5:
            dates.append(day.isoformat())
        day += dt.timedelta(days=1)
    rets = rng.normal(0.002, 0.012, (n, days))
    prices = 50 * np.cumprod(1 + rets, axis=1)
    with path.open("w") as fh:
        fh.write("date," + ",".join(f"S{i:02d}" for i in range(n)) + "\n")
        for j, d in enumerate(dates):
            cells = []
            for i in range(n):
                if missing and (i, j) in missing:
                    cells.append("")
                else:
                    cells.append(f"{prices[i, j]:.6f}")
            fh.write(d + "," + ",".join(cells) + "\n")
    return dates


class TestIngest:
    def test_minimal_two_day_file(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,XY\n2020-01-02,100.0\n2020-01-03,101.5\n")
        matrix = ingest_prices(f)
        assert matrix.n_assets == 1 and matrix.n_days == 2
        assert matrix.prices[0, 1] == pytest.approx(101.5)

    def test_blank_cell_drops_ticker(self, tmp_path, caplog):
        f = tmp_path / "p.csv"
        write_tiny_prices(f, n=4, days=5, missing={(2, 3)})
        with caplog.at_level("WARNING"):
            matrix = ingest_prices(f)
        assert matrix.n_assets == 3
        assert "S02" in caplog.text
        assert "1 ticker" in caplog.text

    def test_padded_cells_and_a_blank_cell(self, tmp_path, caplog):
        # Rows of numbers convert whole and a row with a blank cell cell by
        # cell; both strip the same whitespace, so the values are exact.
        f = tmp_path / "p.csv"
        f.write_text("date,A,B,C\n"
                     "2020-01-02, 100.5 ,\t7.25,3\n"
                     "2020-01-03,101.0 ,  ,3.5\n"
                     "2020-01-06,\u00a0102.25, 8 ,4\u2003\n")
        with caplog.at_level("WARNING"):
            matrix = ingest_prices(f)
        assert matrix.tickers == ("A", "C")
        assert np.array_equal(matrix.prices, [[100.5, 101.0, 102.25], [3.0, 3.5, 4.0]])
        assert "dropped 1 ticker(s) with missing values: B" in caplog.text
        f.write_text("date,A,B\n2020-01-02, 1.5 , x1 \n2020-01-03,1.0,2.0\n")
        with pytest.raises(DataError, match=r"p\.csv:2: non-numeric price 'x1' for B$"):
            ingest_prices(f)

    def test_rows_sorted_by_date(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,A\n2020-01-03,101.0\n2020-01-02,100.0\n")
        matrix = ingest_prices(f)
        assert matrix.dates == ("2020-01-02", "2020-01-03")
        assert matrix.prices[0, 0] == pytest.approx(100.0)

    def test_malformed_header(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("time,A\n2020-01-02,1.0\n2020-01-03,1.0\n")
        with pytest.raises(DataError):
            ingest_prices(f)

    def test_non_numeric_cell(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,A\n2020-01-02,abc\n2020-01-03,1.0\n")
        with pytest.raises(DataError):
            ingest_prices(f)

    def test_duplicate_date(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,A\n2020-01-02,1.0\n2020-01-02,1.1\n")
        with pytest.raises(DataError):
            ingest_prices(f)

    def test_too_few_rows(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("date,A\n2020-01-02,1.0\n")
        with pytest.raises(DataError):
            ingest_prices(f)

    def test_fixture_dimensions(self, fixture_prices):
        assert fixture_prices.n_assets == 390
        assert fixture_prices.n_days == 126
        assert fixture_prices.dates[0] == "2020-02-03"
        assert fixture_prices.dates[-1] == "2020-07-31"

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = PriceMatrix(
            ("A", "B"), ("2020-01-02", "2020-01-03", "2020-01-06"),
            rng.uniform(10, 500, (2, 3)))
        out = tmp_path / "round.csv"
        write_prices_csv(matrix, out)
        back = ingest_prices(out)
        assert back.tickers == matrix.tickers
        assert back.dates == matrix.dates
        assert np.array_equal(back.prices, matrix.prices)

    def test_quoted_tickers_round_trip(self, tmp_path):
        # Ingest takes a quoted ticker holding a comma or a quote; both files
        # the commands write with tickers read back to the same names.
        prices = tmp_path / "p.csv"
        prices.write_text('date,"X,Y","Q""Z"\n2020-01-02,100,50\n2020-01-03,101,49\n'
                          "2020-01-06,100.5,50.5\n2020-01-07,102,50\n")
        tickers = ("X,Y", 'Q"Z')
        assert main(["ingest", str(prices), "--output-dir", str(tmp_path / "i")]) == 0
        assert ingest_prices(tmp_path / "i" / "prices_clean.csv").tickers == tickers
        assert main(["solve", str(prices), "--model", "md", "--rho", "0",
                     "--output-dir", str(tmp_path / "s")]) == 0
        back, alloc = read_allocation_csv(tmp_path / "s" / "allocation.csv")
        assert back == tickers and alloc.weights.sum() == pytest.approx(1.0)


INGEST_CASES = {
    # name: (file text, whether the one-pass loadtxt reader takes it)
    "quoted": ('date,A,B\n2020-01-02,"100.5",7\n2020-01-03,"101" ,"8"\n', True),
    "padded": ("date,A,B\n2020-01-02, 100.5 ,\t7.25\n2020-01-03,101.0 , 8\u2003\n", True),
    "underscore": ("date,A,B\n2020-01-02,1_000,7\n2020-01-03,1001,8\n", False),
    "arabic-indic digits": ("date,A,B\n2020-01-02,5,7\n2020-01-03,\u0661\u0662,8\n", False),
    "hash cell": ("date,A,B\n2020-01-02,#5,7\n2020-01-03,6,8\n", False),
    "hash line": ("date,A\n2020-01-02,5\n#2020-01-03,6\n2020-01-06,7\n", False),
    "nan": ("date,A,B\n2020-01-02,nan,7\n2020-01-03,101,8\n", False),
    "inf": ("date,A,B\n2020-01-02,inf,7\n2020-01-03,101,8\n", False),
    "blank cell": ("date,A,B\n2020-01-02,,7\n2020-01-03,101,8\n", False),
    "crlf": ("date,A,B\r\n2020-01-02,100,7\r\n2020-01-03,101,8\r\n", True),
    "blank lines": ("date,A\n\n2020-01-02,100\n\n\n2020-01-03,101\n\n", True),
    "unsorted": ("date,A,B\n2020-01-06,3,9\n2020-01-02,1,7\n2020-01-03,2,8\n", True),
    "short row": ("date,A,B\n2020-01-02,1\n2020-01-03,2,8\n", False),
    "long rows": ("date,A,B\n2020-01-02,1,7,9\n2020-01-03,2,8,9\n", False),
    "blank-looking line": ("date,A\n2020-01-02,1\n \n2020-01-03,2\n", False),
    "bad date": ("date,A\n2020-01-02,1\n2020-13-03,2\n", False),
    "compact date": ("date,A\n2020-01-02,1\n20200103,2\n", False),
    "mixed date formats": ("date,A\n2020-01-06,1\n20200103,2\n2020-01-02,3\n", False),
    "duplicate date": ("date,A\n2020-01-03,1\n2020-01-02,2\n2020-01-03,3\n", False),
    "nonpositive": ("date,A\n2020-01-02,0\n2020-01-03,1\n", False),
    "one row": ("date,A\n2020-01-02,1\n", False),
    "two-line header": ('date,"A\nB"\n2020-01-02,1\n2020-01-03,2\n', False),
}


# Cells that `float()` reads and `np.loadtxt` refuses, and dates that
# `date.fromisoformat` reads in another form than YYYY-MM-DD: both readers raise.
INGEST_ERRORS = {
    "underscore": "p.csv:2: non-numeric price '1_000' for A",
    "arabic-indic digits": "p.csv:3: non-numeric price '\u0661\u0662' for A",
    "compact date": "p.csv:3: bad date '20200103'",
    "mixed date formats": "p.csv:3: bad date '20200103'",
}


def _ingest_outcome(read, path):
    try:
        matrix, dropped = read(path)
    except Exception as exc:
        return type(exc), str(exc)
    return matrix.tickers, matrix.dates, matrix.prices.tobytes(), dropped


@pytest.mark.parametrize("name", INGEST_CASES)
def test_ingest_matches_row_reader(tmp_path, caplog, name):
    """Each file gives the row-by-row reader's matrix bytes, dropped tickers,
    warning and error text, whichever path reads it."""
    text, one_pass = INGEST_CASES[name]
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode())
    expected = _ingest_outcome(_ingest_rows, path)
    assert _ingest_outcome(_ingest_prices_detail, path) == expected
    if name in INGEST_ERRORS:
        assert expected[0] is DataError and expected[1].endswith(INGEST_ERRORS[name])
    try:
        taken = _ingest_block(path) is not None
    except ValueError:
        taken = False
    assert taken == one_pass
    with caplog.at_level("WARNING"):
        try:
            ingest_prices(path)
        except DataError:
            pass
    dropped = expected[3] if len(expected) == 4 else []
    assert [r.getMessage() for r in caplog.records] == (
        [f"dropped {len(dropped)} ticker(s) with missing values: {','.join(dropped)}"]
        if dropped else [])


def test_fixture_ingest_takes_one_pass():
    matrix = _ingest_block(FIXTURE_PATH)
    reference, dropped = _ingest_rows(FIXTURE_PATH)
    assert dropped == []
    assert (matrix.tickers, matrix.dates) == (reference.tickers, reference.dates)
    assert matrix.prices.tobytes() == reference.prices.tobytes()


@pytest.mark.parametrize("text, error", [
    ("", r"a\.csv:1: empty file"),
    ("ticker,weight\nA,0.5\nB\n", r"a\.csv:3: expected 2 cells"),
    ("ticker,weight\nA,half\nB,0.5\n", r"a\.csv:2: non-numeric weight 'half' for A"),
    ("ticker,weight\nA,0.5\nA,0.5\n", r"a\.csv:3: duplicate ticker 'A'"),
    ("ticker,weight\n", r"a\.csv: weights must be a nonempty vector"),
    ("ticker,weight\nA,0.5\nB,0.4\n", r"a\.csv: invalid allocation: budget violated"),
    ("ticker,weight\nA,nan\nB,1.0\n", r"a\.csv: invalid allocation: weights contain NaN"),
], ids=["empty", "one_cell", "non_numeric", "duplicate", "header_only", "budget", "nan"])
def test_read_allocation_rejects_malformed_file(tmp_path, text, error):
    f = tmp_path / "a.csv"
    f.write_text(text)
    with pytest.raises(DataError, match=error):
        read_allocation_csv(f)


class TestCommands:
    def test_solve_writes_valid_allocation(self, tmp_path):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        out = tmp_path / "out"
        code = run_command(RunConfig(command="solve", prices=str(prices),
                                     output_dir=str(out), models=("md",), rho=0.001))
        assert code == 0
        tickers, alloc = read_allocation_csv(out / "allocation.csv")
        assert validate_allocation(alloc.weights, cap=0.5).ok
        report = (out / "report.csv").read_text().splitlines()
        assert report[0] == "model,objective,status,iterations,time_s"
        assert report[1].startswith("md,")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "solve"
        assert str(prices) in manifest["inputs"]

    def test_solve_md_on_bundled_fixture(self, tmp_path):
        out = tmp_path / "fix"
        code = main(["solve", str(FIXTURE_PATH), "--model", "md", "--rho", "0.001",
                     "--output-dir", str(out)])
        assert code == 0
        tickers, alloc = read_allocation_csv(out / "allocation.csv")
        assert len(tickers) == 390
        assert validate_allocation(alloc.weights, cap=0.5).ok
        assert alloc.weights.sum() == pytest.approx(1.0, abs=1e-8)

    def test_backtest_table_shapes(self, tmp_path):
        prices = tmp_path / "p.csv"
        dates = write_tiny_prices(prices, days=40)
        out = tmp_path / "bt"
        cfg = RunConfig(command="backtest", prices=str(prices), output_dir=str(out),
                        rho=0.0005, sigma0=0.02, lam=1.0,
                        train_end=dates[19], test_end=dates[-1])
        assert run_command(cfg) == 0
        table1 = (out / "insample.csv").read_text().splitlines()
        table2 = (out / "outsample.csv").read_text().splitlines()
        assert table1[0] == "model,exp_return,std_dev,max_drawdown,n_stocks,time_s"
        assert table2[0] == "model,period_return,daily_return,std_dev,max_drawdown"
        assert len(table1) == 6 and len(table2) == 6
        models = [line.split(",")[0] for line in table1[1:]]
        assert models == ["markowitz", "reverse_markowitz", "simultaneous", "md", "md_milp"]

    def test_backtest_builds_one_line_and_no_qp_for_the_three_mean_variance_models(
            self, tmp_path, monkeypatch):
        # markowitz, reverse_markowitz and simultaneous are queries on one
        # critical line of the train window, which reads the covariance
        # through the window's centered returns: no QpProblem, and no
        # second validation of the covariance.
        from portopt import models
        builds, lines = [], []
        post_init = QpProblem.__post_init__

        class Counted(models.CriticalLine):
            def __init__(self, *args, **kwargs):
                lines.append(kwargs)
                super().__init__(*args, **kwargs)

        def counted(problem):
            builds.append(problem.n_vars)
            post_init(problem)

        monkeypatch.setattr(QpProblem, "__post_init__", counted)
        monkeypatch.setattr(models, "CriticalLine", Counted)
        out = tmp_path / "bt"
        cfg = RunConfig(command="backtest", prices=str(FIXTURE_PATH), output_dir=str(out),
                        rho=0.001, sigma0=0.012, lam=0.08,
                        train_end="2020-05-01", test_end="2020-07-31")
        assert run_command(cfg) == 0
        rows = [line.split(",") for line in (out / "insample.csv").read_text().splitlines()[1:]]
        assert [row[0] for row in rows[:3]] == ["markowitz", "reverse_markowitz",
                                                "simultaneous"]
        assert all(row[1] != "" for row in rows)
        assert builds == [] and [sorted(kwargs) for kwargs in lines] == [["centered"]]

    def test_backtest_runs_no_cholesky(self, tmp_path, monkeypatch):
        # asset_stats certifies the train window's covariance from its
        # centered returns, and the critical line reads the covariance
        # through them, so no Cholesky runs and the n x n covariance is
        # never formed.
        from portopt import core
        factored, formed = [], []
        cholesky, gram = np.linalg.cholesky, core.gram_covariance

        def counted(matrix, *args, **kwargs):
            factored.append(matrix.shape)
            return cholesky(matrix, *args, **kwargs)

        def counted_gram(centered):
            formed.append(centered.shape)
            return gram(centered)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        monkeypatch.setattr(core, "gram_covariance", counted_gram)
        cfg = RunConfig(command="backtest", prices=str(FIXTURE_PATH),
                        output_dir=str(tmp_path / "bt"), rho=0.001, sigma0=0.012, lam=0.08,
                        train_end="2020-05-01", test_end="2020-07-31")
        assert run_command(cfg) == 0
        assert factored == [] and formed == []

    @pytest.mark.parametrize("argv, built", [
        (["solve", "--model", "md", "--rho", "0.0005"], 0),
        (["backtest", "--models", "md,md_milp", "--rho", "0.0005"], 0),
        (["backtest", "--rho", "0.0005", "--sigma0", "0.02", "--lambda", "1"], 1),
        (["solve", "--model", "simultaneous", "--lambda", "1"], 1),
    ], ids=["solve-md", "backtest-drawdown", "backtest-default", "solve-simultaneous"])
    def test_estimates_are_built_only_for_a_mean_variance_model(self, tmp_path, monkeypatch,
                                                                  argv, built):
        # The drawdown solvers read only the returns and get stats=None, so
        # a run of them alone holds no covariance.
        calls = []
        from_centered = AssetStats.from_centered.__func__

        def counted(cls, mean, centered):
            calls.append(centered.shape)
            return from_centered(cls, mean, centered)

        monkeypatch.setattr(AssetStats, "from_centered", classmethod(counted))
        prices = tmp_path / "p.csv"
        dates = write_tiny_prices(prices, n=6, days=40)
        command, *flags = argv
        window = (["--train-end", dates[19], "--test-end", dates[-1]]
                  if command == "backtest" else [])
        assert main([command, str(prices), *flags, *window,
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert len(calls) == built

    def test_sweep_outputs(self, tmp_path):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices, n=6, days=25)
        out = tmp_path / "sw"
        cfg = RunConfig(command="sweep-lambda", prices=str(prices), output_dir=str(out),
                        grid_min=0.01, grid_max=100.0, grid_n=5)
        assert run_command(cfg) == 0
        frontier = (out / "frontier.csv").read_text().splitlines()
        assert frontier[0] == "lambda,std_pct,return_pct,status,distance"
        assert len(frontier) == 6
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "chosen_lambda,ideal_std_pct,ideal_return_pct,n_excluded"

    def test_sweep_summary_counts_excluded_points(self, tmp_path, monkeypatch):
        # The two points above lambda = 1 end at IterationLimit.
        stop_points_above(monkeypatch, 1.0)
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices, n=6, days=25)
        out = tmp_path / "sw"
        cfg = RunConfig(command="sweep-lambda", prices=str(prices), output_dir=str(out),
                        grid_min=1e-3, grid_max=1e5, grid_n=4)
        assert run_command(cfg) == 0
        statuses = [line.split(",")[3]
                    for line in (out / "frontier.csv").read_text().splitlines()[1:]]
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert "IterationLimit" in statuses and "Optimal" in statuses
        assert summary[1].split(",")[-1] == str(statuses.count("IterationLimit"))
        # the manifest records the same count, and still replays
        manifest_bytes = (out / "manifest.json").read_bytes()
        assert json.loads(manifest_bytes)["results"] == {
            "n_excluded": statuses.count("IterationLimit")}
        shutil.rmtree(out)
        assert run_from_manifest_from_bytes(manifest_bytes, tmp_path) == 0
        assert (out / "manifest.json").read_bytes() == manifest_bytes

    def test_sensitivity_deterministic_bytes(self, tmp_path):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices, n=8, days=30)
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            cfg = RunConfig(command="sensitivity", prices=str(prices),
                            output_dir=str(out), models=("md", "md_milp"),
                            rho=0.0005, seed=7, c=1000.0)
            assert run_command(cfg) == 0
            outs.append((out / "sensitivity.csv").read_bytes()
                        + (out / "covariance_change.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_manifest_rerun_reproduces_outputs(self, tmp_path):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices, n=6, days=20)
        out = tmp_path / "sens"
        cfg = RunConfig(command="sensitivity", prices=str(prices), output_dir=str(out),
                        models=("md",), rho=0.0005, seed=3)
        assert run_command(cfg) == 0
        first = (out / "sensitivity.csv").read_bytes()
        manifest_path = out / "manifest.json"
        manifest_bytes = manifest_path.read_bytes()
        shutil.rmtree(out)
        assert run_from_manifest_from_bytes(manifest_bytes, tmp_path) == 0
        assert (out / "sensitivity.csv").read_bytes() == first
        assert manifest_path.read_bytes() == manifest_bytes

    def test_report_renders_a_backtest_table(self, tmp_path):
        prices = tmp_path / "p.csv"
        dates = write_tiny_prices(prices, days=40)
        out = tmp_path / "bt"
        assert main(["backtest", str(prices), "--models", "mad,md", "--rho", "0.0005",
                     "--train-end", dates[19], "--test-end", dates[-1],
                     "--output-dir", str(out)]) == 0
        assert sorted(json.loads((out / "manifest.json").read_text())["outputs"]) == [
            str(out / "insample.csv"), str(out / "outsample.csv")]
        md = tmp_path / "insample.md"
        assert main(["report", "--input", str(out / "insample.csv"), "--output", str(md)]) == 0
        lines = md.read_text().splitlines()
        assert lines[0] == "| model | exp_return | std_dev | max_drawdown | n_stocks | time_s |"
        assert lines[1] == "| --- | --- | --- | --- | --- | --- |"
        assert [line.split(" | ")[0] for line in lines[2:]] == ["| mad", "| md"]

    def test_manifest_with_out_format_is_refused(self, tmp_path):
        # RunConfig has no out_format field; a manifest must drop the key to replay
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices, n=5, days=15)
        out = tmp_path / "ingest"
        assert run_command(RunConfig(command="ingest", prices=str(prices),
                                     output_dir=str(out))) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["out_format"] = "csv"
        with pytest.raises(TypeError, match="out_format"):
            run_from_manifest_from_bytes(json.dumps(manifest).encode(), tmp_path)

    @pytest.mark.parametrize("command, field, value, flag", [
        ("sweep-lambda", "rho", 0.5, "--rho"),
        ("sweep-lambda", "sigma0", 0.01, "--sigma0"),
        ("backtest", "seed", 3, "--seed"),
        ("ingest", "models", ("md",), "--models"),
    ])
    def test_library_config_refuses_unread_field(self, tmp_path, command, field, value, flag):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices, n=5, days=15)
        out = tmp_path / "out"
        cfg = RunConfig(command=command, prices=str(prices), output_dir=str(out),
                        **{field: value})
        with pytest.raises(DataError, match=f"{command} does not read {flag}"):
            run_command(cfg)
        assert not out.exists()

    @pytest.mark.parametrize("command, options", [
        ("ingest", {}),
        ("solve", {"models": ("md",), "rho": 0.001}),
        ("backtest", {"models": ("md", "markowitz"), "rho": 0.0005}),
        ("sweep-lambda", {"grid_n": 3, "cap": 0.6}),
    ])
    def test_manifest_round_trip(self, tmp_path, command, options):
        # sensitivity: test_manifest_rerun_reproduces_outputs
        prices = tmp_path / "p.csv"
        dates = write_tiny_prices(prices, n=6, days=30)
        if command == "backtest":
            options = dict(options, train_end=dates[19], test_end=dates[-1])
        out = tmp_path / "out"
        assert run_command(RunConfig(command=command, prices=str(prices),
                                     output_dir=str(out), **options)) == 0
        manifest = out / "manifest.json"
        outputs = json.loads(manifest.read_text())["outputs"]
        first = {path: Path(path).read_bytes() for path in outputs}
        manifest_bytes = manifest.read_bytes()
        shutil.rmtree(out)
        assert run_from_manifest_from_bytes(manifest_bytes, tmp_path) == 0
        assert manifest.read_bytes() == manifest_bytes
        for path, blob in first.items():
            again = Path(path).read_bytes()
            if b"time_s" in blob.split(b"\n", 1)[0]:   # wall-clock column differs
                blob, again = (b"\n".join(line.rsplit(b",", 1)[0] for line in b.splitlines())
                               for b in (blob, again))
            assert again == blob, path


def run_from_manifest_from_bytes(manifest_bytes: bytes, tmp_path) -> int:
    path = tmp_path / "m.json"
    path.write_bytes(manifest_bytes)
    return run_from_manifest(path)


class TestMainEntry:
    def test_cli_solve_and_report(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        out = tmp_path / "run"
        code = main(["solve", str(prices), "--model", "md", "--rho", "0.001",
                     "--output-dir", str(out)])
        assert code == 0
        code = main(["report", "--input", str(out / "report.csv")])
        assert code == 0
        captured = capsys.readouterr()
        assert "| model |" in captured.out

    def test_cli_error_is_one_line(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "missing.csv"), "--model", "md",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")

    def test_cli_model_aliases(self, tmp_path):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        for alias, expect, flags in (("md-milp", "md_milp", ["--rho", "0.0005"]),
                                     ("reverse", "reverse_markowitz", ["--sigma0", "0.02"])):
            out = tmp_path / alias
            code = main(["solve", str(prices), "--model", alias, *flags,
                         "--output-dir", str(out)])
            assert code == 0
            assert (out / "report.csv").read_text().splitlines()[1].startswith(expect)

    @pytest.mark.parametrize("tag, flags", [("md_milp", ["--rho", "0.0005"]),
                                            ("reverse_markowitz", ["--sigma0", "0.02"])])
    def test_cli_solve_takes_model_tags(self, tmp_path, tag, flags):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        out = tmp_path / tag
        code = main(["solve", str(prices), "--model", tag, *flags, "--output-dir", str(out)])
        assert code == 0
        assert (out / "report.csv").read_text().splitlines()[1].startswith(tag + ",")

    def test_cli_solve_unknown_model_is_a_data_error(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        code = main(["solve", str(prices), "--model", "md_mip",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: DataError: unknown model 'md_mip'"

    def test_cli_infeasible_rho_reports(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        out = tmp_path / "inf"
        code = main(["solve", str(prices), "--model", "md", "--rho", "0.8",
                     "--output-dir", str(out)])
        assert code == 0
        assert not (out / "allocation.csv").exists()
        assert "Infeasible" in (out / "report.csv").read_text()

    @pytest.mark.parametrize("command, flags", [("sweep-lambda", []),
                                                ("sensitivity", ["--rho", "0.001"])],
                             ids=["sweep-lambda", "sensitivity"])
    def test_train_end_before_data_rejected(self, tmp_path, capsys, command, flags):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        code = main([command, str(prices), *flags, "--train-end", "2019-01-01",
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: DataError: train_end precedes all data"

    def test_no_command_takes_threads(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        required = {"solve": ["--model", "md"], "report": ["--input"]}
        for command in ("ingest", "solve", "backtest", "sweep-lambda", "sensitivity", "report"):
            argv = [command, *required.get(command, []), str(prices), "--threads", "2"]
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--seed", "-1"], "perturbation seed must be non-negative, got -1"),
        (["--c", "inf"], "perturbation scale c must be finite and positive"),
        (["--c", "nan"], "perturbation scale c must be finite and positive"),
    ], ids=["seed-negative", "c-infinite", "c-nan"])
    def test_sensitivity_out_of_range_input_refused(self, tmp_path, capsys, flags, message):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        code = main(["sensitivity", str(prices), "--rho", "0.001", *flags,
                     "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: DataError: {message}"
        assert not (tmp_path / "o" / "sensitivity.csv").exists()

    def test_each_command_offers_only_the_flags_it_reads(self):
        sub = build_parser()._subparsers._group_actions[0]
        counts = {command: sum(1 for a in p._actions if a.option_strings
                               and a.option_strings[0] != "-h")
                  for command, p in sub.choices.items() if command != "report"}
        assert counts == {"ingest": 1, "solve": 9, "backtest": 10, "sweep-lambda": 7,
                          "sensitivity": 11}

    @pytest.mark.parametrize("argv", [
        ["ingest", "--rho", "0.001"],
        ["solve", "--model", "md", "--rho", "0.001", "--seed", "3"],
        ["backtest", "--threads", "2"],
        ["sweep-lambda", "--rho", "0.001"],
        ["sensitivity", "--rho", "0.001", "--test-end", "2021-03-01"],
    ])
    def test_unread_flag_is_refused(self, tmp_path, argv, capsys):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        with pytest.raises(SystemExit) as exc:
            main([argv[0], str(prices), *argv[1:], "--output-dir", str(tmp_path / "o")])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["solve", "--model", "md", "--sigma0", "0.01"],
         "--sigma0 is read by none of the models: md"),
        (["backtest", "--models", "md,mad", "--rho", "0.001", "--mu-l1", "1"],
         "--mu-l1 is read by none of the models: md, mad"),
        (["sensitivity", "--models", "markowitz", "--rho", "0.001", "--min-alloc", "0.1"],
         "--min-alloc is read by none of the models: markowitz"),
    ])
    def test_model_flag_no_model_reads_is_refused(self, tmp_path, argv, message, capsys):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        code = main([argv[0], str(prices), *argv[1:], "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: DataError: {message}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, tag", [
        (["sensitivity", "--models", "md,md", "--rho", "0.001"], "md"),
        (["backtest", "--models", "md-milp,md_milp", "--rho", "0.001",
          "--train-end", "2021-01-29", "--test-end", "2021-02-12"], "md_milp"),
        (["solve", "--model", "reverse", "--model", "reverse-markowitz", "--sigma0", "0.02"],
         "reverse_markowitz"),
    ], ids=["sensitivity", "backtest", "solve"])
    def test_a_model_named_twice_is_refused(self, tmp_path, argv, tag, capsys):
        # after aliases resolve, so md-milp and md_milp are one model
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        code = main([argv[0], str(prices), *argv[1:], "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.strip() == f"error: DataError: model {tag} named twice"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["sensitivity", "--models", "md,md_mip", "--rho", "0.001"],
        ["backtest", "--models", "md,md_mip", "--rho", "0.001",
         "--train-end", "2021-01-29", "--test-end", "2021-02-12"],
        ["solve", "--model", "md_mip"],
    ], ids=["sensitivity", "backtest", "solve"])
    def test_an_unknown_model_leaves_no_directory(self, tmp_path, argv, capsys):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        code = main([argv[0], str(prices), *argv[1:], "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: DataError: unknown model 'md_mip'"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv", [
        ["backtest", "--models", ","],
        ["sensitivity", "--models", " "],
        ["sensitivity", "--models", ",", "--rho", "0.001"],
    ], ids=["backtest", "sensitivity", "with_rho"])
    def test_an_empty_model_list_leaves_no_directory(self, tmp_path, argv, capsys):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        code = main([argv[0], str(prices), *argv[1:], "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.strip() == "error: DataError: no model named"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, flag, value", [
        (["solve", "--model", "mad", "--rho", "0.001", "--train-end", "20200501"],
         "--train-end", "20200501"),
        (["sensitivity", "--models", "mad", "--rho", "0.001", "--train-end", "20200501"],
         "--train-end", "20200501"),
        (["backtest", "--models", "md", "--rho", "0.001", "--train-end", "2021-01-29",
          "--test-end", "2020-W31-5"], "--test-end", "2020-W31-5"),
    ], ids=["solve", "sensitivity", "backtest"])
    def test_a_date_in_another_iso_form_is_refused(self, tmp_path, argv, flag, value, capsys):
        # string comparison of dates is chronological only in YYYY-MM-DD form
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        code = main([argv[0], str(prices), *argv[1:], "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.strip() == (
            f"error: DataError: {flag} must be a YYYY-MM-DD date, got {value!r}")
        assert not (tmp_path / "o").exists()

    def test_markowitz_cap_below_min_alloc_default(self, tmp_path):
        # min_alloc (default 0.05) is the MILP's; it does not bound markowitz's cap
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices, n=40)
        out = tmp_path / "mk"
        code = main(["solve", str(prices), "--model", "markowitz", "--rho", "0.001",
                     "--cap", "0.03", "--output-dir", str(out)])
        assert code == 0
        assert "Optimal" in (out / "report.csv").read_text()
        tickers, alloc = read_allocation_csv(out / "allocation.csv")
        assert validate_allocation(alloc.weights, cap=0.03).ok

    def test_mu_l1_shifts_markowitz_objective(self, tmp_path):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices, n=6)
        runs = {}
        for mu in ("0", "5"):
            out = tmp_path / mu
            assert main(["solve", str(prices), "--model", "markowitz", "--rho", "0.001",
                         "--mu-l1", mu, "--output-dir", str(out)]) == 0
            objective = float((out / "report.csv").read_text().splitlines()[1].split(",")[1])
            runs[mu] = objective, read_allocation_csv(out / "allocation.csv")[1].weights
        assert runs["5"][0] - runs["0"][0] == pytest.approx(5.0, abs=1e-9)
        assert np.max(np.abs(runs["5"][1] - runs["0"][1])) <= 1e-6

    def test_report_renders_an_ingest_table(self, tmp_path, capsys):
        prices = tmp_path / "p.csv"
        write_tiny_prices(prices)
        out = tmp_path / "ingest"
        assert main(["ingest", str(prices), "--output-dir", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", "--input", str(out / "ingest_summary.csv")]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "| n_tickers | n_days | n_dropped |", "| --- | --- | --- |", "| 10 | 30 | 0 |"]


def test_report_reads_quoted_cells_and_escapes_bars(tmp_path, capsys):
    # An allocation.csv quotes a ticker that holds a comma; a `|` in a cell
    # would end it in the markdown table.
    f = tmp_path / "allocation.csv"
    f.write_text('ticker,weight\n"A,B",0.5\nC|D,0.5\n')
    assert main(["report", "--input", str(f)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "| ticker | weight |", "| --- | --- |", "| A,B | 0.5 |", "| C\\|D | 0.5 |"]


def test_render_markdown_shape():
    text = render_markdown(["a", "b"], [["1", "2"], ["3", "4"]])
    lines = text.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "| --- | --- |"
    assert len(lines) == 4
