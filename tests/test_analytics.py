import numpy as np
import pytest

from portopt import analytics
from portopt.analytics import (
    SplitSpec,
    SweepResult,
    allocation_change,
    compute_metrics,
    lambda_grid,
    lambda_sweep,
    portfolio_series,
    sensitivity_run,
    train_test_split,
)
from portopt.core import (Allocation, AssetStats, DataError, DimensionError, ModelConfig,
                          ReturnMatrix)
from portopt.estimation import PerturbationConfig, asset_stats
from portopt.qp_solver import QpProblem

from conftest import make_returns, stop_points_above


class TestPortfolioSeries:
    def test_unit_vector_selects_row(self):
        rng = np.random.default_rng(0)
        r = make_returns(rng.normal(0, 0.02, (4, 10)))
        x = Allocation(np.eye(4)[2])
        assert np.allclose(portfolio_series(r, x), r.returns[2])

    def test_equal_weights_identical_assets(self):
        row = np.array([0.01, -0.02, 0.03])
        r = make_returns(np.vstack([row, row]))
        series = portfolio_series(r, Allocation([0.5, 0.5]))
        assert np.allclose(series, row)

    def test_hand_dot_product(self):
        r = make_returns(np.array([[0.1, 0.0], [-0.1, 0.2]]))
        series = portfolio_series(r, Allocation([0.5, 0.5]))
        assert np.allclose(series, [0.0, 0.1])

    def test_dimension_mismatch(self):
        r = make_returns(np.zeros((3, 5)))
        with pytest.raises(DimensionError):
            portfolio_series(r, Allocation([0.5, 0.5]))


class TestMetrics:
    def test_constant_series(self):
        m = compute_metrics(np.array([0.01, 0.01]), Allocation([1.0]))
        assert m.mean_daily_return == pytest.approx(0.01)
        assert m.std_daily == pytest.approx(0.0)
        assert m.max_drawdown == pytest.approx(0.01)
        assert m.cumulative_return == pytest.approx(0.0201)
        assert m.n_positions == 1

    def test_hand_compounding(self):
        m = compute_metrics(np.array([0.1, -0.1]), Allocation([0.5, 0.5]))
        assert m.mean_daily_return == pytest.approx(0.0)
        assert m.max_drawdown == pytest.approx(-0.1)
        assert m.cumulative_return == pytest.approx(-0.01)

    def test_empty_series_rejected(self):
        with pytest.raises(DimensionError):
            compute_metrics(np.array([]), Allocation([1.0]))

    def test_drawdown_never_exceeds_mean(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            series = rng.normal(0, 0.02, rng.integers(1, 30))
            m = compute_metrics(series, Allocation([1.0]))
            assert m.max_drawdown <= m.mean_daily_return + 1e-15

    def test_mean_linearity_against_stats(self):
        rng = np.random.default_rng(9)
        r = make_returns(rng.normal(0.001, 0.02, (5, 40)))
        stats = asset_stats(r)
        x = Allocation(np.full(5, 0.2))
        m = compute_metrics(portfolio_series(r, x), x)
        assert m.mean_daily_return == pytest.approx(
            float(stats.mean_returns @ x.weights), abs=1e-12)


class TestSplit:
    def test_even_split(self):
        r = make_returns(np.zeros((2, 10)) + 0.01)
        spec = SplitSpec(r.dates[0], r.dates[4], r.dates[5], r.dates[9])
        train, test = train_test_split(r, spec)
        assert train.n_days == 5 and test.n_days == 5
        assert set(train.dates).isdisjoint(test.dates)

    def test_empty_train_rejected(self):
        r = make_returns(np.zeros((1, 6)) + 0.01)
        spec = SplitSpec("2000-01-01", "2000-01-02", r.dates[0], r.dates[-1])
        with pytest.raises(DataError):
            train_test_split(r, spec)

    def test_ordering_validated(self):
        with pytest.raises(DataError):
            SplitSpec("2020-05-01", "2020-02-01", "2020-05-02", "2020-08-01")
        with pytest.raises(DataError):
            SplitSpec("2020-02-01", "2020-05-01", "2020-04-01", "2020-08-01")

    def test_no_leakage_columns(self):
        rng = np.random.default_rng(1)
        r = make_returns(rng.normal(0, 0.01, (2, 8)))
        spec = SplitSpec(r.dates[0], r.dates[3], r.dates[4], r.dates[7])
        train, test = train_test_split(r, spec)
        assert np.array_equal(np.hstack([train.returns, test.returns]), r.returns)


class TestLambdaSweep:
    def test_singleton_grid(self):
        stats = AssetStats([0.002, 0.001], np.diag([4e-4, 1e-4]))
        sweep = lambda_sweep(stats, [1.0])
        assert sweep.chosen_lambda == 1.0
        assert sweep.distances[0] == pytest.approx(0.0)
        assert sweep.ideal_point == (sweep.std_pct[0], sweep.return_pct[0])

    def test_two_point_dominance(self):
        stats = AssetStats([0.002, 0.001], np.diag([4e-4, 1e-4]))
        sweep = lambda_sweep(stats, [0.0, 1e9])
        # lambda=0 -> max return vertex: x = (1, 0)
        assert sweep.return_pct[0] == pytest.approx(0.2, abs=1e-9)
        assert sweep.std_pct[0] == pytest.approx(np.sqrt(4e-4) * 100, abs=1e-6)
        # lambda=1e9 -> minimum-variance split x = (0.2, 0.8)
        x_mv = np.array([0.2, 0.8])
        assert sweep.return_pct[1] == pytest.approx(float(x_mv @ [0.002, 0.001]) * 100,
                                                    abs=1e-4)
        assert sweep.std_pct[1] == pytest.approx(
            float(np.sqrt(x_mv @ np.diag([4e-4, 1e-4]) @ x_mv)) * 100, abs=1e-3)
        # neither grid point dominates the other
        assert sweep.return_pct[0] >= sweep.return_pct[1] - 1e-9
        assert sweep.std_pct[1] <= sweep.std_pct[0] + 1e-9

    def test_chosen_point_pareto_undominated(self):
        rng = np.random.default_rng(3)
        r = make_returns(rng.normal(0.001, 0.02, (6, 50)))
        stats = asset_stats(r)
        sweep = lambda_sweep(stats, lambda_grid(1e-2, 1e3, 9))
        k = sweep.lambdas.index(sweep.chosen_lambda)
        for i in range(len(sweep.lambdas)):
            if i == k or not np.isfinite(sweep.std_pct[i]):
                continue
            dominates = (sweep.std_pct[i] < sweep.std_pct[k] - 1e-9
                         and sweep.return_pct[i] > sweep.return_pct[k] + 1e-9)
            assert not dominates

    def test_tie_breaks_to_smaller_lambda(self):
        # identical assets: every lambda yields the same frontier point
        stats = AssetStats([0.001, 0.001], np.full((2, 2), 2e-4))
        sweep = lambda_sweep(stats, [5.0, 1.0, 3.0])
        assert sweep.chosen_lambda == 1.0

    def test_point_that_raises_aborts_the_sweep(self, monkeypatch):
        stats = AssetStats([0.002, 0.001], np.diag([4e-4, 1e-4]))
        solve = analytics.solve_simultaneous

        def failing(stats, cfg, **kw):
            if cfg.lam == 2.0:
                raise RuntimeError("point failed")
            return solve(stats, cfg, **kw)

        monkeypatch.setattr(analytics, "solve_simultaneous", failing)
        with pytest.raises(RuntimeError, match="point failed"):
            lambda_sweep(stats, [1.0, 2.0, 3.0])

    def test_excluded_points_are_warned(self, caplog, monkeypatch):
        rng = np.random.default_rng(3)
        stats = asset_stats(make_returns(rng.normal(0.001, 0.02, (6, 50))))
        stop_points_above(monkeypatch, 1.0)
        with caplog.at_level("WARNING", logger="portopt.analytics"):
            sweep = lambda_sweep(stats, [1e-3, 1e-2, 1e4, 1e5])
        assert sweep.statuses == ("Optimal", "Optimal", "IterationLimit", "IterationLimit")
        assert sweep.chosen_lambda in (1e-3, 1e-2)
        assert [r.levelname for r in caplog.records] == ["WARNING"]
        assert "2 of 4 grid points not Optimal" in caplog.text
        assert "2 IterationLimit" in caplog.text

    def test_fixture_default_grid_excludes_no_point(self, fixture_stats, monkeypatch):
        # Every point of the default 100-point grid on the fixture is an
        # Optimal exact solve whose gap meets the stop, up to lambda = 1e4.
        reports = []
        solve = analytics.solve_simultaneous

        def recorded(stats, cfg, **kw):
            reports.append(solve(stats, cfg, **kw))
            return reports[-1]

        monkeypatch.setattr(analytics, "solve_simultaneous", recorded)
        sweep = lambda_sweep(fixture_stats, lambda_grid())
        assert sweep.statuses == ("Optimal",) * 100
        for report in reports:
            gap = float(report.detail.removeprefix("fw_gap="))
            assert gap <= 1e-8 * (1.0 + abs(report.objective))
        assert sweep.chosen_lambda == 14.849682622544634

    def test_sweep_builds_one_line_and_no_qp_for_every_point(self, fixture_train,
                                                              monkeypatch):
        # Every grid point is a query on one critical line; each still goes
        # through the module's solve_simultaneous, with its own report. The
        # line and the points' variances read the covariance through the
        # window's centered returns, so the sweep builds no QpProblem, runs
        # no Cholesky and never forms the n x n covariance. The estimates
        # are fresh: the shared fixture's keep a line other tests built.
        builds, factored, calls = [], [], []
        post_init, solve = QpProblem.__post_init__, analytics.solve_simultaneous
        cholesky = np.linalg.cholesky

        def counted(problem):
            builds.append(problem.n_vars)
            post_init(problem)

        def counted_cholesky(matrix, *args, **kwargs):
            factored.append(matrix.shape)
            return cholesky(matrix, *args, **kwargs)

        def recorded(stats, cfg, **kw):
            calls.append(cfg.lam)
            return solve(stats, cfg, **kw)

        monkeypatch.setattr(QpProblem, "__post_init__", counted)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(analytics, "solve_simultaneous", recorded)
        grid = lambda_grid()
        stats = asset_stats(fixture_train)
        sweep = lambda_sweep(stats, grid)
        assert sweep.statuses == ("Optimal",) * 100
        assert calls == grid and builds == [] and factored == []
        assert list(stats.critical_lines) == [1.0] and "covariance" not in vars(stats)

    def test_grid_spacing(self):
        log_grid = lambda_grid(1e-3, 1e4, 8, "log")
        assert log_grid[0] == pytest.approx(1e-3)
        assert log_grid[-1] == pytest.approx(1e4)
        ratios = np.diff(np.log(log_grid))
        assert np.allclose(ratios, ratios[0])
        lin_grid = lambda_grid(1.0, 5.0, 5, "linear")
        assert np.allclose(np.diff(lin_grid), 1.0)
        for low, high in ((0.0, 1.0), (np.nan, 1.0), (1e-3, np.inf), (1e-3, np.nan),
                          (np.inf, np.inf)):
            with pytest.raises(DataError):
                lambda_grid(low, high, 5)

    @pytest.mark.parametrize("count", [1, 5])
    def test_grid_rejects_an_unknown_spacing_at_any_count(self, count):
        with pytest.raises(DataError, match="spacing must be 'log' or 'linear'"):
            lambda_grid(1.0, 2.0, count, spacing="bogus")


class TestAllocationChange:
    def test_identity_zero(self):
        a = Allocation([0.5, 0.5])
        assert allocation_change(a, a) == pytest.approx(0.0)

    def test_drop_counts_full(self):
        before = Allocation([0.5, 0.5, 0.0])
        after = Allocation([0.5, 0.0, 0.5])
        assert allocation_change(before, after) == pytest.approx(50.0)

    def test_hand_values(self):
        before = Allocation([0.4, 0.6])
        after = Allocation([0.5, 0.5])
        # |0.5-0.4|/0.4 = 25%, |0.5-0.6|/0.6 = 16.666..%
        assert allocation_change(before, after) == pytest.approx((25.0 + 100 / 6) / 2)

    def test_only_positive_before_positions_count(self):
        before = Allocation([1.0, 0.0])
        after = Allocation([0.25, 0.75])
        # the zero original position is excluded from the average
        assert allocation_change(before, after) == pytest.approx(75.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            allocation_change(Allocation([1.0]), Allocation([0.5, 0.5]))


class TestSensitivity:
    def test_zero_noise_means_zero_change(self):
        means = np.array([0.004, 0.001, 0.002, 0.003])
        data = np.repeat(means[:, None], 12, axis=1)  # constant per asset
        r = make_returns(data)
        cfgs = {
            "markowitz": ModelConfig(rho=0.002),
            "md": ModelConfig(rho=0.002),
            "md_milp": ModelConfig(rho=0.002),
        }
        report = sensitivity_run(r, cfgs, PerturbationConfig(c=1000.0, seed=3))
        assert report.cov_avg_abs_diff == pytest.approx(0.0)
        for row in report.rows:
            assert row.status == "Optimal"
            assert row.alloc_change_pct == pytest.approx(0.0)

    def test_same_seed_identical_report(self):
        rng = np.random.default_rng(21)
        r = make_returns(rng.normal(0.002, 0.02, (6, 30)))
        cfgs = {"md": ModelConfig(rho=0.0), "markowitz": ModelConfig(rho=0.0)}
        a = sensitivity_run(r, cfgs, PerturbationConfig(seed=5))
        b = sensitivity_run(r, cfgs, PerturbationConfig(seed=5))
        assert a == b

    def test_unknown_model_rejected(self):
        r = make_returns(np.random.default_rng(0).normal(0, 0.01, (3, 10)))
        with pytest.raises(DataError):
            sensitivity_run(r, {"nope": ModelConfig()}, PerturbationConfig(seed=1))

    def test_perturbed_drawdown_solves_start_from_the_original_basis(self, fixture_train,
                                                                      monkeypatch):
        # Each drawdown model's second solve gets its first solve's basis and
        # reports start=warm; the rows are those of cold second solves up to
        # rounding. The quadratic model gets no keyword at all.
        from portopt import models
        reports, cold = {}, {}
        cfgs = dict.fromkeys(("markowitz", "mad", "md", "md_milp"), ModelConfig(rho=0.001))
        for tag in cfgs:
            solve = models.SOLVERS[tag]

            def recorded(*args, _solve=solve, _tag=tag, **kwargs):
                report = _solve(*args, **kwargs)
                reports.setdefault(_tag, []).append((kwargs, report))
                return report

            def cold_solve(*args, _solve=solve, **kwargs):
                return _solve(*args)

            monkeypatch.setitem(models.SOLVERS, tag, recorded)
            cold[tag] = cold_solve
        pcfg = PerturbationConfig(c=1000.0, seed=4)
        warm = sensitivity_run(fixture_train, cfgs, pcfg)
        for tag in ("mad", "md", "md_milp"):
            (kw0, before), (kw1, after) = reports[tag]
            assert kw0 == {} and before.detail == ""
            assert kw1["start"] is before.basis and after.detail == "start=warm"
        (kw0, _), (kw1, _) = reports["markowitz"]
        assert kw0 == kw1 == {}
        for tag, solve in cold.items():
            monkeypatch.setitem(models.SOLVERS, tag, solve)
        reference = sensitivity_run(fixture_train, cfgs, pcfg)
        assert warm.cov_avg_abs_diff == reference.cov_avg_abs_diff
        for row, ref in zip(warm.rows, reference.rows):
            assert (row.model, row.status) == (ref.model, ref.status)
            assert abs(row.alloc_change_pct - ref.alloc_change_pct) <= 1e-8 * ref.alloc_change_pct

    def test_stats_are_built_once_per_window_for_any_models(self, monkeypatch):
        # No AssetStats for the drawdown models alone, and two, each with
        # its certified covariance, beside a mean-variance model; the
        # covariance change reads the windows, so it is the same for any
        # models.
        built = []
        from_centered = AssetStats.from_centered.__func__

        def counted(cls, mean, centered):
            stats = from_centered(cls, mean, centered)
            built.append(stats)
            return stats

        monkeypatch.setattr(AssetStats, "from_centered", classmethod(counted))
        rng = np.random.default_rng(12)
        r = make_returns(rng.normal(0.002, 0.02, (6, 30)))
        pcfg = PerturbationConfig(seed=3)
        lp_only = sensitivity_run(r, {"mad": ModelConfig(rho=0.0), "md": ModelConfig(rho=0.0)},
                                  pcfg)
        assert len(built) == 0
        mixed = sensitivity_run(r, {"md": ModelConfig(rho=0.0),
                                    "simultaneous": ModelConfig(lam=1.0)}, pcfg)
        assert len(built) == 2
        assert (lp_only.cov_avg_abs_diff, lp_only.cov_relative_change) == (
            mixed.cov_avg_abs_diff, mixed.cov_relative_change)

    def test_drawdown_solvers_get_no_estimates_in_a_drawdown_run(self, monkeypatch):
        # Alone, the drawdown models get stats=None, so no covariance is
        # live under their solves; beside a mean-variance model every model
        # gets the window's estimates, as before.
        from portopt import models
        seen = []
        for tag, solve in list(models.SOLVERS.items()):
            def recorded(returns, stats, cfg, _solve=solve, _tag=tag, **kwargs):
                seen.append((_tag, stats))
                return _solve(returns, stats, cfg, **kwargs)

            monkeypatch.setitem(models.SOLVERS, tag, recorded)
        r = make_returns(np.random.default_rng(12).normal(0.002, 0.02, (6, 30)))
        drawdown = dict.fromkeys(("mad", "md", "md_milp"), ModelConfig(rho=0.0))
        sensitivity_run(r, drawdown, PerturbationConfig(seed=3))
        assert [tag for tag, _ in seen] == ["mad", "mad", "md", "md", "md_milp", "md_milp"]
        assert all(stats is None for _, stats in seen)
        seen.clear()
        sensitivity_run(r, {"md": ModelConfig(rho=0.0), "simultaneous": ModelConfig(lam=1.0)},
                        PerturbationConfig(seed=3))
        assert [tag for tag, _ in seen] == ["md", "md", "simultaneous", "simultaneous"]
        assert all(isinstance(stats, AssetStats) for _, stats in seen)
        assert seen[0][1] is seen[2][1] and seen[1][1] is seen[3][1]

    def test_a_drawdown_run_peaks_below_one_covariance(self):
        # No n x n array: the covariance change streams T x n Gram blocks,
        # and no estimates are built. 0.39 n x n doubles at 600 x 20, where
        # two covariances and a work buffer read 3.1.
        import tracemalloc
        n = 600
        r = make_returns(np.random.default_rng(28).normal(0.001, 0.02, (n, 20)))
        cfgs = dict.fromkeys(("mad", "md"), ModelConfig(rho=0.0))  # the LPs: no B&B tree
        pcfg = PerturbationConfig(seed=28)
        first = sensitivity_run(r, cfgs, pcfg)   # lazy imports and tables outside the count
        tracemalloc.start()
        try:
            again = sensitivity_run(r, cfgs, pcfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first
        assert peak < 1.0 * 8 * n * n

    def test_a_mean_variance_run_on_the_fixture_holds_no_covariance(self, fixture_train):
        # markowitz reads each window's covariance through its centered
        # returns, so a markowitz,md run holds no n x n array: its tracemalloc
        # peak stays below 1.2 n x n doubles, where the two windows, their
        # centered returns, markowitz's lines and the kept md LP already
        # hold 0.7 before the perturbed md LP is built. The dense
        # covariances and the QP's checks peaked at 4.3.
        import tracemalloc
        window = ReturnMatrix(fixture_train.tickers, fixture_train.dates, fixture_train.returns)
        n = window.n_assets
        cfgs = dict.fromkeys(("markowitz", "md"), ModelConfig(rho=0.001))
        pcfg = PerturbationConfig(c=1000.0, seed=3)
        first = sensitivity_run(window, cfgs, pcfg)   # lazy imports outside the count
        tracemalloc.start()
        try:
            again = sensitivity_run(window, cfgs, pcfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert again == first
        assert peak < 1.2 * 8 * n * n

    MEAN_VARIANCE = {"markowitz": ModelConfig(rho=0.001),
                     "reverse_markowitz": ModelConfig(sigma0=0.012),
                     "simultaneous": ModelConfig(lam=0.08)}

    def test_mean_variance_models_share_one_path_per_window(self, fixture_train, monkeypatch):
        # Two certified estimates with one critical line each, and neither a
        # QpProblem nor a Cholesky: each line reads the covariance through
        # its window's centered returns, and no n x n covariance is formed.
        # A line per model, from fresh estimates of its own, gives the same
        # bits.
        from portopt import analytics, models
        builds, factored, estimates = [], [], []
        post_init, cholesky = QpProblem.__post_init__, np.linalg.cholesky

        def recorded_stats(window):
            estimates.append(asset_stats(window))
            return estimates[-1]

        def counted(problem):
            builds.append(problem.n_vars)
            post_init(problem)

        def counted_cholesky(matrix, *args, **kwargs):
            factored.append(matrix.shape)
            return cholesky(matrix, *args, **kwargs)

        monkeypatch.setattr(QpProblem, "__post_init__", counted)
        monkeypatch.setattr(np.linalg, "cholesky", counted_cholesky)
        monkeypatch.setattr(analytics, "asset_stats", recorded_stats)
        pcfg = PerturbationConfig(c=1000.0, seed=1)
        shared = sensitivity_run(fixture_train, self.MEAN_VARIANCE, pcfg)
        assert builds == [] and factored == []
        assert [list(stats.critical_lines) for stats in estimates] == [[1.0], [1.0]]
        assert not any("covariance" in vars(stats) for stats in estimates)
        for tag in self.MEAN_VARIANCE:
            solve = models.SOLVERS[tag]

            def own_line(returns, stats, cfg, _solve=solve):
                return _solve(returns, asset_stats(returns), cfg)

            monkeypatch.setitem(models.SOLVERS, tag, own_line)
        own = sensitivity_run(fixture_train, self.MEAN_VARIANCE, pcfg)
        assert builds == [] and factored == []
        assert shared == own
        assert all(row.status == "Optimal" for row in shared.rows)

    def test_failures_reported_not_fatal(self):
        rng = np.random.default_rng(31)
        r = make_returns(rng.normal(0.0, 0.01, (4, 20)))
        cfgs = {"md": ModelConfig(rho=0.5)}  # unreachable return floor
        report = sensitivity_run(r, cfgs, PerturbationConfig(seed=2))
        row = report.rows[0]
        assert row.alloc_change_pct is None
        assert "Infeasible" in row.status
