import dataclasses
import hashlib

import numpy as np
import pytest

from portopt import models, qp_solver
from portopt.cli_io import main
from portopt.core import (
    Allocation,
    AssetStats,
    DataError,
    ModelConfig,
    ReturnMatrix,
    SolveStatus,
    validate_allocation,
)
from portopt.estimation import (PerturbationConfig, asset_stats, covariance, mean_returns,
                                perturb_returns)
from portopt.lp_solver import (AT_LOWER, BASIC, PIVOT_TOL, Basis, LpProblem, SimplexState,
                                solve_lp)
from portopt.milp_solver import solve_milp
from portopt.models import (
    MODEL_FIELDS,
    SOLVERS,
    ModelLayout,
    mad_problem,
    mad_vertex,
    markowitz_problem,
    md_milp_problem,
    md_problem,
    simultaneous_problem,
    solve_mad,
    solve_markowitz,
    solve_md,
    solve_md_milp,
    solve_reverse_markowitz,
    solve_simultaneous,
)
from portopt.qp_solver import solve_qp

from conftest import FIXTURE_PATH, FIXTURE_RHO, make_returns
from oracles import big_m_milp, bisection_reverse_markowitz, grid_best_mad, highs_lp, weight_grid


MEAN_VARIANCE = ("markowitz", "reverse_markowitz", "simultaneous")


def stats_from(data):
    return asset_stats(make_returns(np.asarray(data, dtype=float)))


def answer(report):
    """A report's status, objective and weight bytes: its answer without
    its timing."""
    weights = None if report.allocation is None else report.allocation.weights.tobytes()
    return report.status, report.objective, weights


rng_global = np.random.default_rng(2024)


def gap_at_own_floor(x, mu, cov, cap=1.0):
    """FW gap of x for min x'Σx over budget, box [0, cap] and the floor mu'x,
    with a cold simplex solve as the linear oracle."""
    n = x.shape[0]
    grad = 2.0 * cov @ x
    oracle = solve_lp(LpProblem(c=grad, a_eq=np.ones((1, n)), b_eq=[1.0],
                                a_ub=-mu[None, :], b_ub=[-(mu @ x)],
                                lower=np.zeros(n), upper=np.full(n, cap)))
    assert oracle.status is SolveStatus.OPTIMAL
    return float(grad @ x - oracle.objective)


class TestLayout:
    def test_blocks_partition_columns(self):
        with pytest.raises(DataError):
            ModelLayout(n_assets=2, n_cols=4, x=slice(0, 2), y=slice(1, 4))

    def test_md_layout_has_n_plus_one_columns(self):
        returns = make_returns(rng_global.normal(0.001, 0.02, (5, 7)))
        _, layout = md_problem(returns, ModelConfig(rho=0.0))
        assert layout.n_cols == 6
        assert layout.y == slice(5, 6)

    def test_mad_layout_has_n_plus_t_columns(self):
        returns = make_returns(rng_global.normal(0.001, 0.02, (4, 9)))
        _, layout = mad_problem(returns, ModelConfig(rho=0.0))
        assert layout.n_cols == 13

    def test_milp_layout_is_the_md_layout(self):
        returns = make_returns(rng_global.normal(0.001, 0.02, (6, 5)))
        cfg = ModelConfig(rho=0.0, min_alloc=0.1)
        problem, layout = md_milp_problem(returns, cfg)
        assert layout == md_problem(returns, cfg)[1]
        assert layout.n_cols == 7 and problem.base.n_vars == 7
        assert problem.on_off == dict.fromkeys(range(6), 0.1)


class TestMarkowitz:
    def test_single_asset_forced(self):
        stats = stats_from([[0.01, 0.02, 0.0, 0.01]])
        report = solve_markowitz(stats, ModelConfig(rho=0.005))
        assert report.status is SolveStatus.OPTIMAL
        assert np.allclose(report.allocation.weights, [1.0])

    def test_two_uncorrelated_closed_form(self):
        from portopt.core import AssetStats
        cov = np.diag([4e-4, 1e-4])
        stats = AssetStats([0.001, 0.001], cov)
        report = solve_markowitz(stats, ModelConfig(rho=0.0005))
        expected = 1e-4 / (4e-4 + 1e-4)
        assert report.allocation.weights[0] == pytest.approx(expected, abs=1e-7)
        assert report.objective == pytest.approx(
            report.allocation.weights @ cov @ report.allocation.weights)

    def test_infeasible_rho(self):
        stats = stats_from(rng_global.normal(0.0, 0.01, (4, 20)))
        report = solve_markowitz(stats, ModelConfig(rho=0.5))
        assert report.status is SolveStatus.INFEASIBLE
        assert report.allocation is None

    def test_return_constraint_enforced(self):
        data = rng_global.normal(0.001, 0.015, (6, 40))
        stats = stats_from(data)
        rho = float(np.quantile(stats.mean_returns, 0.8))
        report = solve_markowitz(stats, ModelConfig(rho=rho))
        assert report.status is SolveStatus.OPTIMAL
        assert stats.mean_returns @ report.allocation.weights >= rho - 1e-7


class TestReverseMarkowitz:
    def test_concentrates_on_best_asset_when_allowed(self):
        data = rng_global.normal(0.001, 0.01, (5, 60))
        data[2] += 0.004  # clear best asset
        stats = stats_from(data)
        best = int(np.argmax(stats.mean_returns))
        sigma_best = float(np.sqrt(stats.covariance[best, best]))
        report = solve_reverse_markowitz(stats, ModelConfig(sigma0=sigma_best * 1.01))
        assert report.status is SolveStatus.OPTIMAL
        assert report.allocation.weights[best] == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_below_min_variance(self):
        stats = stats_from(rng_global.normal(0.001, 0.02, (4, 30)))
        report = solve_reverse_markowitz(stats, ModelConfig(sigma0=1e-7))
        assert report.status is SolveStatus.INFEASIBLE

    def test_weights_certified_when_sigma0_is_the_min_variance_std(self):
        # With sigma0 at the minimum-variance std the walk ends at or just
        # above the minimum-variance end of the critical line, and the
        # weights' FW gap at their own floor meets the stop plus the
        # oracle's slack.
        rng = np.random.default_rng(13)
        for _ in range(6):
            n = int(rng.integers(3, 6))
            stats = stats_from(rng.normal(0.002, 0.02, (n, 50)))
            mu, cov = stats.mean_returns, stats.covariance
            mv = solve_qp(markowitz_problem(stats, ModelConfig(), rho=None)[0])
            sigma0 = float(np.sqrt(mv.objective))
            report = solve_reverse_markowitz(stats, ModelConfig(sigma0=sigma0))
            assert report.status is SolveStatus.OPTIMAL
            x = report.allocation.weights
            f = float(x @ cov @ x)
            assert np.sqrt(f) <= sigma0 + 1e-6
            gap = gap_at_own_floor(x, mu, cov)
            assert gap <= 1e-8 * (1.0 + f) + 2e-9 * (1.0 + np.abs(mu).max())

    def test_against_simplex_grid(self):
        data = rng_global.normal(0.002, 0.02, (3, 50))
        stats = stats_from(data)
        mv = solve_qp(markowitz_problem(stats, ModelConfig(), rho=None)[0])
        std_lo = float(np.sqrt(mv.objective))
        std_hi = float(np.sqrt(np.max(np.diag(stats.covariance))))
        sigma0 = 0.5 * (std_lo + std_hi)
        report = solve_reverse_markowitz(stats, ModelConfig(sigma0=sigma0))
        assert report.status is SolveStatus.OPTIMAL
        grid = weight_grid(3, cap=1.0, resolution=0.005)
        stds = np.sqrt(np.einsum("ij,jk,ik->i", grid, stats.covariance, grid))
        rets = grid @ stats.mean_returns
        ok = stds <= sigma0
        grid_best = rets[ok].max()
        # grid best return cannot beat the solver beyond grid resolution effects
        assert report.objective >= grid_best - 5e-5


def check_against_bisection(stats, sigma0, cap):
    """The walk's report against the bisection reference: the same status, a
    return no lower than the reference's less 1e-9, and std <= sigma0, or
    <= sigma0 + 1e-6 for a minimum-variance point (the walk's t = 0 end).
    Returns the report."""
    report = solve_reverse_markowitz(stats, ModelConfig(sigma0=sigma0, cap=cap))
    status, ref = bisection_reverse_markowitz(stats, sigma0, cap)
    assert report.status is status
    if status is SolveStatus.OPTIMAL:
        mu, cov = stats.mean_returns, stats.covariance
        x = report.allocation.weights
        assert report.objective >= mu @ ref - 1e-9
        var = max(float(x @ cov @ x), 0.0)
        if not np.sqrt(var) <= sigma0:
            min_var = solve_qp(markowitz_problem(stats, ModelConfig(cap=cap), rho=None)[0])
            assert np.sqrt(var) <= sigma0 + 1e-6 and var <= min_var.objective + 1e-12
    return report


class TestReverseAgainstBisection:
    """The critical-line walk against the return-floor bisection it
    replaced, which is kept in `oracles.py`."""

    @pytest.mark.parametrize("cap", [1.0, 0.5, 0.3])
    @pytest.mark.parametrize("shape", ["plain", "duplicate", "wide"])
    def test_random_panels(self, cap, shape):
        # sigma0 from 0.95 of the minimum-variance std (Infeasible unless
        # that std is below ~2e-5) to above every asset's std (the top
        # vertex, no step); "wide" panels have n > T, a singular covariance.
        rng = np.random.default_rng([int(cap * 10), len(shape)])
        for _ in range(2):
            n = int(rng.integers(6, 20)) if shape == "wide" else int(rng.integers(4, 12))
            t_days = int(rng.integers(3, n)) if shape == "wide" else int(rng.integers(n, 60))
            data = rng.normal(rng.normal(0.001, 0.002, (n, 1)),
                              rng.uniform(0.005, 0.03, (n, 1)), (n, t_days))
            if shape == "duplicate":
                data[1] = data[0]
            stats = stats_from(data)
            min_var = solve_qp(markowitz_problem(stats, ModelConfig(cap=cap), rho=None)[0])
            std_lo = float(np.sqrt(max(min_var.objective, 0.0)))
            std_hi = 1.05 * float(np.sqrt(np.diag(stats.covariance).max()))
            for frac in (0.1, 0.4, 0.7):
                check_against_bisection(stats, std_lo + frac * (std_hi - std_lo), cap)
            check_against_bisection(stats, 0.95 * std_lo if std_lo > 0 else 1e-12, cap)
            top = check_against_bisection(stats, std_hi, cap)
            assert top.iterations == 0

    def test_zero_variance_panel_at_a_tiny_ceiling(self):
        # 17 assets over 5 days hold long-only portfolios whose variance is
        # zero up to rounding; at sigma0 = 6.7e-11 the walk runs to the
        # minimum-variance end and must still match the bisection's return.
        rng = np.random.default_rng(26)
        stats = stats_from(rng.normal(0.002, 0.02, (17, 5)))
        report = check_against_bisection(stats, 6.7e-11, 1.0)
        assert report.status is SolveStatus.OPTIMAL

    def test_duplicated_top_asset(self):
        # Assets 0 and 1 are one series: the one left at a bound has a
        # multiplier that is rounding noise, which must not free it on the
        # way down to the minimum-variance end.
        rng = np.random.default_rng(1)
        data = rng.normal(0.001, 0.02, (3, 32))
        data[0] += 0.006
        data[1] = data[0]
        stats = stats_from(data)
        std_lo = float(np.sqrt(solve_qp(markowitz_problem(stats, ModelConfig(), rho=None)[0])
                               .objective))
        std_hi = 1.05 * float(np.sqrt(stats.covariance[0, 0]))
        for sigma0 in [0.95 * std_lo, *np.linspace(std_lo, std_hi, 7)]:
            check_against_bisection(stats, float(sigma0), 1.0)

    def test_return_tie_starts_at_the_top_faces_least_variance_point(self):
        # Assets 0 and 1 tie in return but not in risk: the top of the
        # critical line is (0.8, 0.2, 0), the least-variance point of the
        # top-return face, not the vertex the oracle finds.
        stats = AssetStats(np.array([0.002, 0.002, 0.001]), np.diag([1e-4, 4e-4, 1e-4]))
        report = check_against_bisection(stats, 0.009, 1.0)
        assert report.iterations == 0
        assert np.allclose(report.allocation.weights, [0.8, 0.2, 0.0], rtol=0, atol=1e-12)
        for sigma0 in (0.0085, 0.008, 0.007, 0.0065, 0.006):
            check_against_bisection(stats, sigma0, 1.0)

    @pytest.mark.parametrize("cap", [1.0, 0.5, 0.3])
    def test_random_return_ties(self, cap):
        # Two to four assets share the top mean exactly, with different
        # risks; at cap 0.3 the face also holds capped weights.
        rng = np.random.default_rng([int(cap * 10), 7])
        for _ in range(4):
            n = int(rng.integers(5, 10))
            cov = stats_from(rng.normal(0.001, rng.uniform(0.005, 0.03, (n, 1)),
                                        (n, 80))).covariance
            mu = rng.normal(0.001, 0.002, n)
            tied = rng.choice(n, size=int(rng.integers(2, 5)), replace=False)
            mu[tied] = mu.max() + 0.001
            stats = AssetStats(mu, cov)
            min_var = solve_qp(markowitz_problem(stats, ModelConfig(cap=cap), rho=None)[0])
            std_lo = float(np.sqrt(max(min_var.objective, 0.0)))
            std_hi = 1.05 * float(np.sqrt(np.diag(cov).max()))
            for frac in (0.2, 0.5, 0.8, 1.0):
                check_against_bisection(stats, std_lo + frac * (std_hi - std_lo), cap)

    @pytest.mark.filterwarnings("error")
    def test_one_point_region_leaves_no_weight_free_at_the_start(self):
        # At cap 1/n the region is one point, and for these returns the
        # oracle leaves the budget row's fixed slack basic: no weight
        # is free until the walk frees the capped one of least return.
        cov = stats_from(np.random.default_rng(5).normal(0.001, 0.02, (4, 40))).covariance
        stats = AssetStats(np.array([0.0022, 0.0006, 0.0021, 0.001]), cov)
        state = SimplexState(LpProblem(c=np.zeros(4), a_eq=np.ones((1, 4)), b_eq=[1.0],
                                       lower=np.zeros(4), upper=np.full(4, 0.25)))
        state.minimize(-stats.mean_returns)
        assert not np.any(state.status[:4] == BASIC)
        std = float(np.sqrt(np.full(4, 0.25) @ stats.covariance @ np.full(4, 0.25)))
        for sigma0 in (0.5 * std, std - 2e-6, std, 2.0 * std):
            report = check_against_bisection(stats, sigma0, 0.25)
            if report.status is SolveStatus.OPTIMAL:
                assert np.all(report.allocation.weights == 0.25)

    def test_free_weight_at_its_cap_at_the_start(self):
        # The top vertex's basic weight sits at the cap: it is free, pinned
        # by the budget row, and must not count as moving.
        rng = np.random.default_rng(0)
        stats = stats_from(rng.normal(0.001, 0.02, (4, 30)))
        mu = stats.mean_returns
        state = SimplexState(LpProblem(c=np.zeros(4), a_eq=np.ones((1, 4)), b_eq=[1.0],
                                       lower=np.zeros(4), upper=np.full(4, 0.5)))
        state.minimize(-mu)
        basic = state.status[:4] == BASIC
        assert basic.sum() == 1 and state.vertex[basic][0] == 0.5
        stds = np.sqrt(np.diag(stats.covariance))
        for sigma0 in np.linspace(0.5 * stds.min(), 1.05 * stds.max(), 9):
            check_against_bisection(stats, float(sigma0), 0.5)

    def test_frontier_rises_and_each_point_is_certified(self):
        # Weights enter and leave at both bounds under cap 0.3. Along a grid
        # of ceilings the return and the std never fall, and each point is
        # the minimum-variance point of its own floor.
        rng = np.random.default_rng(31)
        stats = stats_from(rng.normal(rng.normal(0.001, 0.002, (10, 1)), 0.02, (10, 60)))
        mu, cov = stats.mean_returns, stats.covariance
        min_var = solve_qp(markowitz_problem(stats, ModelConfig(cap=0.3), rho=None)[0])
        top = float(np.sqrt(np.diag(cov).max()))
        last_ret = last_std = -np.inf
        for sigma0 in np.linspace(np.sqrt(min_var.objective), top, 12):
            report = solve_reverse_markowitz(stats, ModelConfig(sigma0=float(sigma0), cap=0.3))
            x = report.allocation.weights
            std = float(np.sqrt(x @ cov @ x))
            assert report.objective >= last_ret and std >= last_std - 1e-15
            assert gap_at_own_floor(x, mu, cov, cap=0.3) <= 1e-8 * (1.0 + std ** 2)
            last_ret, last_std = report.objective, std


class TestFixtureFrontier:
    """The fixture's train window, at the benchmark's backtest settings."""

    SIGMA0 = 0.012

    @pytest.fixture(scope="class")
    def reverse(self, fixture_stats):
        return solve_reverse_markowitz(fixture_stats, ModelConfig(sigma0=self.SIGMA0))

    def test_markowitz_work_and_weights_unchanged(self, fixture_stats):
        # The active-set steps and drops, the objective, the certificate,
        # the 5 names held and the weights' bytes.
        problem, _ = markowitz_problem(fixture_stats, ModelConfig(rho=FIXTURE_RHO))
        sol = solve_qp(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.iterations == 19
        assert sol.objective == 6.885644662527826e-05
        assert abs(sol.fw_gap) <= 1e-18
        assert np.count_nonzero(sol.v > 1e-9) == 5
        assert hashlib.sha256(sol.v.tobytes()).hexdigest() == (
            "5e760830e66e48e6c6b669ea0d805e44b4ef6bccf264eb736645eba1d153dbdb")

    def test_reverse_markowitz_work_and_weights_unchanged(self, reverse):
        # The critical line's steps and the weights' bytes.
        assert reverse.iterations == 3
        assert hashlib.sha256(reverse.allocation.weights.tobytes()).hexdigest() == (
            "601270a65dee60f7148263ff76601eab717eee583cf2afd60fe2a590b0a76881")

    def test_reverse_markowitz_walks_one_state_without_a_qp_solve(self, fixture_train,
                                                                 monkeypatch):
        states = []

        class Counted(qp_solver.SimplexState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        def no_qp_solve(*args, **kwargs):
            raise AssertionError("solve_qp called")

        monkeypatch.setattr(qp_solver, "SimplexState", Counted)
        monkeypatch.setattr(qp_solver, "solve_qp", no_qp_solve)
        queries = [(solve_reverse_markowitz, ModelConfig(sigma0=self.SIGMA0)),
                   (solve_markowitz, ModelConfig(rho=FIXTURE_RHO))]
        # each query alone on fresh estimates, whose critical line no earlier
        # query has built, then all three on one line: one state per line
        for solve, cfg in queries:
            states.clear()
            report = solve(asset_stats(fixture_train), cfg)
            assert report.status is SolveStatus.OPTIMAL and len(states) == 1
        states.clear()
        stats = asset_stats(fixture_train)
        for solve, cfg in [*queries, (solve_simultaneous, ModelConfig(lam=0.08))] * 2:
            assert solve(stats, cfg).status is SolveStatus.OPTIMAL
        assert len(states) == 1

    @pytest.mark.parametrize("solve, pivots, objective, digest", [
        (solve_mad, 46, 0.006195121614437194,
         "f5c4b076c4a1ed4c849951452e4d6a2e6a553cdae4793eb0cc5d8e731c7d8a0a"),
        (solve_md, 8, -0.015244024100047769,
         "770baea1bd933a453667f0687bdae3a576d6c091e4ef41e4393cd15afb6ecaa7"),
    ], ids=["mad", "md"])
    def test_drawdown_lp_work_and_weights_unchanged(self, fixture_train, solve, pivots,
                                                     objective, digest):
        # The LP path pinned to the bit: both phases' pivots, the objective
        # and the weights' bytes.
        report = solve(fixture_train, ModelConfig(rho=FIXTURE_RHO))
        assert report.status is SolveStatus.OPTIMAL
        assert report.iterations == pivots
        assert report.objective == objective
        assert hashlib.sha256(report.allocation.weights.tobytes()).hexdigest() == digest

    def test_reverse_markowitz_return_and_ceiling(self, reverse, fixture_stats):
        assert reverse.status is SolveStatus.OPTIMAL
        x = reverse.allocation.weights
        assert np.sqrt(x @ fixture_stats.covariance @ x) <= self.SIGMA0
        # The critical line's return, to the bit, read through the window's
        # centered returns; the bisection it replaced stopped at
        # 0.002527510071164992.
        assert reverse.objective == 0.002527510114191679

    def test_reverse_markowitz_weights_are_certified(self, reverse, fixture_stats):
        mu, cov = fixture_stats.mean_returns, fixture_stats.covariance
        x = reverse.allocation.weights
        f = float(x @ cov @ x)
        assert gap_at_own_floor(x, mu, cov) <= 1e-8 * (1.0 + f) + 2e-9 * (1.0 + np.abs(mu).max())
        # the walk's own certificate, at the t where it stopped
        assert reverse.detail.startswith("fw_gap=")
        assert float(reverse.detail[len("fw_gap="):]) <= 1e-8 * (1.0 + f)


class TestSimultaneous:
    def test_lambda_zero_max_mean_vertex(self):
        data = rng_global.normal(0.001, 0.015, (6, 30))
        stats = stats_from(data)
        report = solve_simultaneous(stats, ModelConfig(lam=0.0))
        best = int(np.argmax(stats.mean_returns))
        assert report.allocation.weights[best] == pytest.approx(1.0)

    def test_lambda_zero_tie_breaks_lowest_index(self):
        from portopt.core import AssetStats
        stats = AssetStats([0.002, 0.002, 0.001], np.diag([1e-4, 1e-4, 1e-4]))
        report = solve_simultaneous(stats, ModelConfig(lam=0.0))
        assert report.allocation.weights[0] == pytest.approx(1.0)

    def test_huge_lambda_approaches_min_variance(self):
        from portopt.core import AssetStats
        cov = np.diag([4e-4, 2e-4, 8e-4])
        stats = AssetStats([0.002, 0.001, 0.003], cov)
        report = solve_simultaneous(stats, ModelConfig(lam=1e9))
        inv = 1.0 / np.diag(cov)
        expected = inv / inv.sum()
        assert np.max(np.abs(report.allocation.weights - expected)) < 1e-4


def path_instance(rng):
    """A budget-box instance for the path queries: n from 3 to 40 assets over
    T < n days (a singular covariance), a cap of 1 or one that binds, and
    means left as they are, tied at the top (ties at lambda = 0) or tied
    below it. The estimates keep their centered returns, as data-built
    estimates do."""
    n = int(rng.integers(3, 41))
    data = rng.normal(rng.normal(0.001, 0.002, (n, 1)), rng.uniform(0.005, 0.03, (n, 1)),
                      (n, int(rng.integers(2, n))))
    stats = stats_from(data)
    tie = rng.integers(3)
    if tie:
        mu = stats.mean_returns.copy()
        tied = rng.choice(n, size=int(rng.integers(2, min(n, 4) + 1)), replace=False)
        mu[tied] = mu.max() + 5e-4 if tie == 1 else mu[tied[0]]
        stats = AssetStats.from_centered(mu, stats.centered)
    cap = 1.0 if rng.random() < 0.4 else float(rng.uniform(1.0 / n, 0.5))
    return stats, cap


def duplicate_panel(rng):
    """A budget-box instance whose returns repeat some series exactly: n
    from 4 to 30 assets over T < n days, one to n/2 rows copied over
    others, and a cap of 1 or one that binds. Twin series give a reduced
    Hessian that is singular wherever both are free."""
    n = int(rng.integers(4, 31))
    data = rng.normal(rng.normal(0.001, 0.002, (n, 1)), rng.uniform(0.005, 0.03, (n, 1)),
                      (n, int(rng.integers(2, n))))
    copies = int(rng.integers(1, n // 2 + 1))
    data[rng.choice(n, size=copies, replace=False)] = data[rng.choice(n, size=copies)]
    cap = 1.0 if rng.random() < 0.4 else float(rng.uniform(1.0 / n, 0.5))
    return stats_from(data), cap


def line_queries(line, stats, cap, rng) -> list:
    """Queries of the three models on `line`, the walked line of `stats`
    under `cap`: `markowitz` floors and `reverse_markowitz` ceilings at
    three random points inside the line's returns and variances, and
    `simultaneous` at four lambdas, each with the scale of its objective."""
    mu, var_max = stats.mean_returns, float(stats.covariance.diagonal().max())
    ret_lo, ret_hi = float(mu @ line.pieces[-1].x_lo), float(mu @ line.top)
    var_lo, var_hi = (line.variance(line.pieces[k].x_lo) for k in (-1, 0))
    inside = rng.uniform(0.05, 0.95, 3)
    queries = [(solve_markowitz, ModelConfig(rho=float(ret_lo + u * (ret_hi - ret_lo)), cap=cap),
                var_max) for u in inside]
    queries += [(solve_simultaneous, ModelConfig(lam=lam, cap=cap),
                 lam * var_max + np.abs(mu).max()) for lam in (0.0, 0.3, 3.0, 3e4)]
    if var_hi > var_lo:
        queries += [(solve_reverse_markowitz, ModelConfig(
            sigma0=float(np.sqrt(var_lo + u * (var_hi - var_lo))), cap=cap),
            np.abs(mu).max()) for u in inside]
    return queries


def claimed_gap(report) -> float:
    return float(report.detail.removeprefix("fw_gap="))


def highs_floor_gap(x, stats, cap, rho) -> tuple[float, float]:
    """FW gap of x for min v'Σv over the budget box [0, cap] and the floor
    mu'v >= rho, with scipy's HiGHS as the linear oracle, and how far below
    it a sound certificate may read: HiGHS's feasibility tolerances of
    1e-10 move its minimum by 1e-10 max |grad| at most, and an oracle
    vertex whose reduced costs are within PIVOT_TOL reads at most
    2 PIVOT_TOL high, since two points of the budget box differ by at most
    2 in l1."""
    opt = pytest.importorskip("scipy.optimize")
    n = x.shape[0]
    grad = 2.0 * stats.covariance @ x
    res = opt.linprog(grad, A_ub=-stats.mean_returns[None, :], b_ub=[-rho],
                      A_eq=np.ones((1, n)), b_eq=[1.0], bounds=[(0.0, cap)] * n,
                      method="highs", options={"primal_feasibility_tolerance": 1e-10,
                                               "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return float(grad @ x - res.fun), 1e-10 * float(np.abs(grad).max()) + 2.0 * PIVOT_TOL


class TestPathQueries:
    """The three mean-variance models as queries on the one critical line
    their moment estimates keep, in a random order, against an independent
    solve of each model's own problem: `solve_qp` for `markowitz` and
    `simultaneous`, the bisection of `oracles.py` for `reverse_markowitz`.
    `markowitz`'s gap, a bound from the line's own oracle, is also checked
    against its floor region's gap from HiGHS."""

    def check_simultaneous(self, stats, cap, lam):
        cfg = ModelConfig(lam=lam, cap=cap)
        report = solve_simultaneous(stats, cfg)
        ref = solve_qp(simultaneous_problem(stats, cfg)[0])
        assert report.status is ref.status is SolveStatus.OPTIMAL
        assert np.abs(report.allocation.weights - ref.v).max() <= 1e-9
        assert abs(report.objective - ref.objective) <= 1e-9
        assert claimed_gap(report) <= 1e-8 * (1.0 + abs(report.objective))

    def check_markowitz(self, stats, cap, rho):
        cfg = ModelConfig(rho=rho, cap=cap)
        report = solve_markowitz(stats, cfg)
        ref = solve_qp(markowitz_problem(stats, cfg)[0])
        assert report.status is ref.status
        if ref.status is not SolveStatus.OPTIMAL:
            return
        x = report.allocation.weights
        assert abs(report.objective - ref.objective) <= 1e-9
        gap = claimed_gap(report)    # parses a Python float's repr only
        assert gap <= 1e-8 * (1.0 + abs(report.objective))
        floor_gap, error = highs_floor_gap(x, stats, cap, rho)
        assert gap >= floor_gap - error
        assert stats.mean_returns @ x >= rho - 1e-12
        # Where long-only portfolios of zero variance meet the floor, they
        # are all optimal and the weights are not unique; elsewhere they are.
        if ref.objective > 1e-12:
            assert np.abs(x - ref.v).max() <= 1e-9
        else:
            assert report.objective <= 1e-12

    def check_reverse(self, stats, cap, sigma0):
        report = solve_reverse_markowitz(stats, ModelConfig(sigma0=sigma0, cap=cap))
        status, ref = bisection_reverse_markowitz(stats, sigma0, cap)
        assert report.status is status
        if status is SolveStatus.OPTIMAL:
            x, mu, cov = report.allocation.weights, stats.mean_returns, stats.covariance
            # the bisection stops within a floor interval of 1e-10 below
            assert abs(report.objective - mu @ ref) <= 1e-9
            assert np.sqrt(max(x @ cov @ x, 0.0)) <= sigma0 + 1e-6
        assert claimed_gap(report) <= 1e-8 * (1.0 + report.objective)

    def test_queries_match_independent_solves(self):
        rng = np.random.default_rng(2121)
        for _ in range(50):
            stats, cap = path_instance(rng)
            mu = stats.mean_returns
            min_var = solve_qp(markowitz_problem(stats, ModelConfig(cap=cap), rho=None)[0])
            # the top vertex from a line of its own, so the queries below
            # start on a line no query has walked
            top = solve_simultaneous(AssetStats(stats.mean_returns, stats.covariance),
                                     ModelConfig(cap=cap))
            lo, hi = float(mu @ min_var.v), float(mu @ top.allocation.weights)
            std_lo = np.sqrt(max(min_var.objective, 0.0))
            std_hi = np.sqrt(top.allocation.weights @ stats.covariance @ top.allocation.weights)
            queries = ([(self.check_simultaneous, lam) for lam in (0.0, 0.3, 3.0, 30.0, 3e4)]
                       # below the minimum-variance return, on the line, and
                       # above the top return (Infeasible)
                       + [(self.check_markowitz, float(rho))
                          for rho in (lo - 1e-3, *np.linspace(lo, hi, 4), hi + 1e-4)]
                       + [(self.check_reverse,
                           float(std_lo + rng.uniform(0.1, 0.9) * (std_hi - std_lo)))])
            for i in rng.permutation(len(queries)):
                check, value = queries[i]
                check(stats, cap, value)
            assert list(stats.critical_lines) == [cap]

    def test_factor_and_dense_lines_walk_alike(self):
        # The line of data-built estimates reads Sigma through their
        # centered returns C (C C'/T); the line of the same estimates given
        # as a dense matrix reads Sigma itself. Both walk the same pieces on
        # the same working sets, each model's query takes the same steps on
        # both, and their objectives agree within 1e-12 relative to the
        # objective's own scale (a variance can be 0 where T < n, and is
        # then rounding on both). Each markowitz certificate is also a sound
        # bound on the gap HiGHS finds.
        rng = np.random.default_rng(3131)
        for _ in range(40):
            stats, cap = path_instance(rng)
            dense = AssetStats(stats.mean_returns, stats.covariance)
            assert stats.centered is not None and dense.centered is None
            lines = [models._line(s, ModelConfig(cap=cap)) for s in (stats, dense)]
            if not lines[0].feasible:
                assert not lines[1].feasible
                continue
            for line in lines:
                line.at_variance(0.0)    # walks the whole line, down to t = 0
            factor, full = lines[0].pieces, lines[1].pieces
            assert [p.side.tolist() for p in factor] == [p.side.tolist() for p in full]
            for solve, cfg, scale in line_queries(lines[0], stats, cap, rng):
                report, reference = solve(stats, cfg), solve(dense, cfg)
                assert report.status is reference.status is SolveStatus.OPTIMAL
                assert report.iterations == reference.iterations
                assert abs(report.objective - reference.objective) <= 1e-12 * max(
                    abs(report.objective), abs(reference.objective), scale)
                assert claimed_gap(report) <= 1e-8 * (1.0 + abs(report.objective))
                if solve is solve_markowitz:
                    floor_gap, error = highs_floor_gap(report.allocation.weights, stats, cap,
                                                       cfg.rho)
                    assert claimed_gap(report) >= floor_gap - error

    @pytest.mark.parametrize("panel", ["fixture", "path", "duplicate"])
    def test_least_squares_and_lu_walks_alike(self, panel, fixture_train, monkeypatch):
        # Each piece's reduced Newton system is solved by LU, with least
        # squares where LU fails. Making every LU solve fail sends the
        # whole walk to least squares: both walks take the same pieces on
        # the same working sets, each query the same steps, and objectives
        # agree within 1e-12 relative to each objective's scale, as in
        # `test_factor_and_dense_lines_walk_alike` (a variance near 0 is
        # rounding on both). "duplicate" panels repeat series exactly, so
        # their reduced Hessians are singular where twins are both free.
        refused = []

        def refuse(*args, **kwargs):
            refused.append(args[0].shape)
            raise np.linalg.LinAlgError("refused")

        rng = np.random.default_rng(4242)
        instances = {"fixture": lambda: [(asset_stats(fixture_train), cap) for cap in (1.0, 0.2)],
                     "path": lambda: [path_instance(rng) for _ in range(40)],
                     "duplicate": lambda: [duplicate_panel(rng) for _ in range(60)]}[panel]()
        for stats, cap in instances:
            lines = []
            for lu in (True, False):
                own = AssetStats.from_centered(stats.mean_returns, stats.centered)
                with monkeypatch.context() as patch:
                    if not lu:
                        patch.setattr(np.linalg, "solve", refuse)
                    line = models._line(own, ModelConfig(cap=cap))
                    if line.feasible:
                        line.at_variance(0.0)    # walks the whole line, down to t = 0
                lines.append((own, line))
            (lu_stats, lu_line), (ls_stats, ls_line) = lines
            assert lu_line.feasible is ls_line.feasible
            if not lu_line.feasible:
                continue
            assert ([p.side.tolist() for p in lu_line.pieces]
                    == [p.side.tolist() for p in ls_line.pieces])
            for solve, cfg, scale in line_queries(lu_line, stats, cap, rng):
                report, reference = solve(lu_stats, cfg), solve(ls_stats, cfg)
                assert report.status is reference.status
                assert report.iterations == reference.iterations
                if report.status is SolveStatus.OPTIMAL:
                    assert abs(report.objective - reference.objective) <= 1e-12 * max(
                        abs(report.objective), abs(reference.objective), scale)
        assert refused

    def test_a_cap_below_one_over_n_is_infeasible_for_all_three(self):
        stats = stats_from(np.random.default_rng(8).normal(0.001, 0.02, (5, 4)))
        for solve, cfg in ((solve_markowitz, ModelConfig(rho=0.0, cap=0.15)),
                           (solve_simultaneous, ModelConfig(lam=1.0, cap=0.15)),
                           (solve_reverse_markowitz, ModelConfig(sigma0=0.02, cap=0.15))):
            assert solve(stats, cfg).status is SolveStatus.INFEASIBLE
            own = AssetStats(stats.mean_returns, stats.covariance)
            assert solve(own, cfg).status is SolveStatus.INFEASIBLE

    def test_an_infinite_ceiling_returns_the_top_vertex(self):
        stats = stats_from(np.random.default_rng(8).normal(0.001, 0.02, (5, 30)))
        report = solve_reverse_markowitz(stats, ModelConfig(sigma0=np.inf, cap=0.5))
        top = solve_simultaneous(stats, ModelConfig(lam=0.0, cap=0.5))
        assert report.status is SolveStatus.OPTIMAL and report.iterations == 0
        assert report.allocation.weights.tobytes() == top.allocation.weights.tobytes()

    def test_the_estimates_keep_one_line_per_cap(self, monkeypatch):
        # A line is built on the first query under each cap and kept by the
        # estimates that were queried; other estimates of the same window
        # build their own, and repeated queries build none. No line builds
        # a QpProblem or the n x n covariance.
        builds, qp_builds = [], []
        post_init = qp_solver.QpProblem.__post_init__

        class Counted(qp_solver.CriticalLine):
            def __init__(self, region, *args, **kwargs):
                builds.append(region.upper.max())
                super().__init__(region, *args, **kwargs)

        def counted(problem):
            qp_builds.append(problem.n_vars)
            post_init(problem)

        monkeypatch.setattr(models, "CriticalLine", Counted)
        monkeypatch.setattr(qp_solver.QpProblem, "__post_init__", counted)
        returns = make_returns(np.random.default_rng(9).normal(0.001, 0.02, (5, 30)))
        stats = asset_stats(returns)
        queries = [(solve_simultaneous, ModelConfig(lam=1.0, cap=cap)) for cap in (0.15, 0.5)]
        queries += [(solve_markowitz, ModelConfig(rho=0.0, cap=cap)) for cap in (0.15, 0.5)]
        queries += [(solve_reverse_markowitz, ModelConfig(sigma0=0.02, cap=0.5))]
        def answers(estimates):
            return [answer(solve(estimates, cfg)) for solve, cfg in queries]

        first = answers(stats)
        assert builds == [0.15, 0.5] and sorted(stats.critical_lines) == [0.15, 0.5]
        other = asset_stats(returns)
        assert other.critical_lines == {}
        assert answers(other) == first and builds == [0.15, 0.5] * 2
        assert answers(stats) == answers(other) == first and len(builds) == 4
        assert qp_builds == [] and "covariance" not in vars(stats)


class TestL1Augmentation:
    def test_mu_zero_leaves_layout_alone(self):
        stats = stats_from(rng_global.normal(0.001, 0.02, (4, 25)))
        problem, layout = simultaneous_problem(stats, ModelConfig(lam=1.0))
        assert problem.n_vars == 4 and layout.n_cols == 4

    @pytest.mark.parametrize("mu", [1.0, 100.0])
    def test_no_effect_theorem_simultaneous(self, mu):
        data = rng_global.normal(0.001, 0.02, (5, 40))
        stats = stats_from(data)
        base = solve_simultaneous(stats, ModelConfig(lam=2.0))
        aug = solve_simultaneous(stats, ModelConfig(lam=2.0, mu_l1=mu))
        assert aug.allocation.weights.tobytes() == base.allocation.weights.tobytes()
        assert aug.objective - base.objective == pytest.approx(mu, abs=1e-9)

    def test_no_effect_theorem_markowitz(self):
        data = rng_global.normal(0.001, 0.02, (5, 40))
        stats = stats_from(data)
        rho = float(np.quantile(stats.mean_returns, 0.5))
        base = solve_markowitz(stats, ModelConfig(rho=rho))
        aug = solve_markowitz(stats, ModelConfig(rho=rho, mu_l1=5.0))
        assert aug.allocation.weights.tobytes() == base.allocation.weights.tobytes()
        assert aug.objective - base.objective == pytest.approx(5.0, abs=1e-9)


class TestMad:
    def test_single_asset_equals_its_mad(self):
        row = np.array([0.02, -0.01, 0.03, 0.0, -0.02])
        returns = make_returns(row[None, :])
        report = solve_mad(returns, ModelConfig(rho=-1.0))
        expected = np.abs(row - row.mean()).mean()
        assert report.objective == pytest.approx(expected, abs=1e-10)

    def test_constant_asset_gives_zero_objective(self):
        data = np.vstack([np.full(6, 0.002), rng_global.normal(0.001, 0.03, 6)])
        returns = make_returns(data)
        report = solve_mad(returns, ModelConfig(rho=0.001))
        assert report.objective == pytest.approx(0.0, abs=1e-10)
        assert report.allocation.weights[0] == pytest.approx(1.0)

    def test_against_grid_oracle(self):
        data = rng_global.normal(0.001, 0.02, (3, 4))
        rho = float(data.mean(axis=1).min())
        report = solve_mad(make_returns(data), ModelConfig(rho=rho))
        grid_best = grid_best_mad(data, rho, cap=1.0, resolution=0.01)
        assert report.objective <= grid_best + 1e-12
        assert grid_best - report.objective <= 1e-3

    def test_epigraph_tight_at_optimum(self):
        data = rng_global.normal(0.0, 0.02, (4, 10))
        returns = make_returns(data)
        problem, layout = mad_problem(returns, ModelConfig(rho=-1.0))
        sol = solve_lp(problem)
        x = sol.v[layout.x]
        p = sol.v[layout.y]
        dev = (data - data.mean(axis=1, keepdims=True)).T @ x
        # one-sided epigraph: p_t is the positive part of the day's deviation,
        # and the centring identity turns its scaled sum into the MAD
        assert np.max(np.abs(p - np.maximum(dev, 0.0))) < 1e-9
        assert abs(2.0 / dev.size * p.sum() - np.abs(dev).mean()) < 1e-12

    def test_full_window_solves_and_matches_highs(self, tmp_path, fixture_returns):
        # all 125 days: the largest, most degenerate MAD LP the fixture gives.
        # None of its 65 degenerate pivots repeats a basis, so Dantzig
        # pricing alone solves it in 313 pivots.
        opt = pytest.importorskip("scipy.optimize")
        out = tmp_path / "mad"
        code = main(["solve", str(FIXTURE_PATH), "--model", "mad", "--rho", str(FIXTURE_RHO),
                     "--output-dir", str(out)])
        assert code == 0
        report = (out / "report.csv").read_text().splitlines()[1].split(",")
        model, objective, status, pivots = report[:4]
        assert (model, status) == ("mad", "Optimal")
        assert int(pivots) <= 1000
        p, _ = mad_problem(fixture_returns, ModelConfig(rho=FIXTURE_RHO))
        highs = opt.linprog(p.c, A_ub=p.a_ub, b_ub=p.b_ub, A_eq=p.a_eq, b_eq=p.b_eq,
                            bounds=np.column_stack([p.lower, p.upper]), method="highs")
        assert highs.status == 0
        assert abs(float(objective) - highs.fun) <= 1e-9 * (1 + abs(highs.fun))


class TestMadVertex:
    """`solve_mad` starts its cold solve from `mad_vertex`, a feasible vertex
    the model builds, where enough names meet the floor, and from the slack
    basis otherwise."""

    SHAPES = ((24, 8), (40, 16), (8, 24), (12, 40))   # n > T and n < T

    @staticmethod
    def cases(panel: int, n: int, mu: np.ndarray):
        """(cap, rho) pairs: caps 1, 0.5, 0.2, 1/n and one below 1/n, each at
        one of rho 0, a high rho a quarter of the names meet and a rho none
        meets, in turn over the panels."""
        rhos = (0.0, float(np.quantile(mu, 0.75)), float(mu.max()) + 1e-3)
        for i, cap in enumerate((1.0, 0.5, 0.2, 1.0 / n, 0.5 / n)):
            yield cap, rhos[(panel + i) % 3]

    def test_matches_the_slack_basis_solve_and_highs(self):
        rng = np.random.default_rng(26)
        seen = {}   # solves by start, shape (n > T wide) and status
        for panel in range(60):
            n, days = self.SHAPES[panel % len(self.SHAPES)]
            data = rng.normal(0.0005, 0.02, (n, days)) * rng.uniform(0.3, 2.0, (n, 1))
            returns = make_returns(data)
            mu = mean_returns(returns)
            for cap, rho in self.cases(panel, n, mu):
                cfg = ModelConfig(rho=rho, cap=cap)
                problem, layout = mad_problem(returns, cfg)
                slack = solve_lp(problem)
                report = solve_mad(returns, cfg)
                assert report.status is slack.status and report.detail == ""
                vertex = mad_vertex(problem, layout)
                qualify = int(np.count_nonzero(mu >= rho))
                assert (vertex is not None) == (qualify >= np.ceil(1.0 / cap))
                if vertex is not None:
                    state = SimplexState(problem, start=vertex)
                    assert state.warm and state.pivots == 0
                else:
                    # the slack basis solve itself, pivot for pivot
                    assert report.iterations == slack.pivots
                    assert np.array_equal(report.basis.basic, slack.basis.basic)
                highs_status, highs_objective = highs_lp(problem)
                assert highs_status is slack.status
                if slack.status is SolveStatus.OPTIMAL:
                    tol = 1e-12 * (1 + abs(slack.objective))
                    assert abs(report.objective - slack.objective) <= tol
                    assert abs(report.objective - highs_objective) <= 1e-9
                else:
                    assert slack.status is SolveStatus.INFEASIBLE
                key = ("taken" if vertex is not None else "fallback",
                       "wide" if n > days else "tall", slack.status.value)
                seen[key] = seen.get(key, 0) + 1
        for shape in ("wide", "tall"):
            assert seen.get(("taken", shape, "Optimal"), 0) >= 40, seen
            assert seen.get(("fallback", shape, "Optimal"), 0) >= 5, seen
            assert seen.get(("fallback", shape, "Infeasible"), 0) >= 40, seen

    @pytest.mark.parametrize("cap, weights", [(1.0, [1.0]), (0.4, [0.4, 0.4, 1 - 2 * 0.4])])
    def test_fixture_starts_at_its_vertex(self, fixture_train, cap, weights):
        # k = ceil(1/cap) names meeting the floor, in order of least mean
        # |d|: the first k - 1 at the cap, the last, basic in the budget
        # row, at the remainder. Phase 1 takes no pivot from there.
        problem, layout = mad_problem(fixture_train, ModelConfig(rho=FIXTURE_RHO, cap=cap))
        vertex = mad_vertex(problem, layout)
        state = SimplexState(problem, start=vertex)
        assert state.warm and state.pivots == 0
        mu = mean_returns(fixture_train)
        spread = np.abs(fixture_train.returns - mu[:, None]).mean(axis=1)
        names = np.flatnonzero(mu >= FIXTURE_RHO)
        held = names[np.argsort(spread[names], kind="stable")[:len(weights)]]
        assert held[-1] == vertex.basic[0]
        x = state.vertex[layout.x]
        assert np.count_nonzero(x) == len(weights) and x[held].tolist() == weights


class TestMd:
    def test_objective_is_worst_day(self, fixture_md_report, fixture_train):
        x = fixture_md_report.allocation.weights
        worst = float((fixture_train.returns.T @ x).min())
        assert fixture_md_report.objective == pytest.approx(worst, abs=1e-12)

    def test_anticorrelated_pair_beats_coincident_worst_days(self):
        # two good assets whose bad days coincide vs a pair whose bad days alternate
        coincident = np.array([[0.05, -0.04], [0.06, -0.04]])
        alternating = np.array([[0.05, -0.02], [-0.02, 0.05]])
        rep_c = solve_md(make_returns(coincident), ModelConfig(rho=-1.0))
        rep_a = solve_md(make_returns(alternating), ModelConfig(rho=-1.0))
        assert rep_a.objective > rep_c.objective
        assert rep_a.objective == pytest.approx(0.015)  # even split hedges the bad days

    def test_weights_do_not_depend_on_the_window_layout(self, fixture_returns, fixture_train):
        # train_test_split cuts its window with a boolean mask, the CLI's
        # solve command with a column slice: equal values in F and C order,
        # which once ended the LP in different bits.
        days = fixture_train.n_days
        sliced = ReturnMatrix(fixture_returns.tickers, fixture_returns.dates[:days],
                              fixture_returns.returns[:, :days])
        assert sliced.dates == fixture_train.dates
        assert np.array_equal(sliced.returns, fixture_train.returns)
        cfg = ModelConfig(rho=FIXTURE_RHO)
        masked, cut = solve_md(fixture_train, cfg), solve_md(sliced, cfg)
        assert masked.objective == cut.objective
        assert masked.allocation.weights.tobytes() == cut.allocation.weights.tobytes()

    def test_cap_respected_and_feasible(self, fixture_md_report):
        x = fixture_md_report.allocation.weights
        assert validate_allocation(x, cap=0.5).ok

    def test_infeasible_when_cap_blocks_rho(self):
        data = np.array([[0.02, 0.021], [-0.05, -0.049], [-0.05, -0.06]])
        returns = make_returns(data)
        report = solve_md(returns, ModelConfig(rho=0.01))  # needs > 0.5 on asset 0
        assert report.status is SolveStatus.INFEASIBLE


class TestMdMilp:
    def test_min_alloc_equals_cap_forces_two_halves(self):
        data = rng_global.normal(0.001, 0.02, (6, 5))
        returns = make_returns(data)
        report = solve_md_milp(returns, ModelConfig(rho=-1.0, min_alloc=0.5, cap=0.5))
        x = report.allocation.weights
        positive = np.sort(x[x > 1e-9])
        assert positive.shape == (2,)
        assert np.allclose(positive, 0.5)

    def test_support_cap_from_min_alloc(self, fixture_milp_report):
        x = fixture_milp_report.allocation.weights
        positive = x[x > 1e-9]
        assert positive.size <= 20
        assert positive.min() >= 0.05 - 1e-9

    def test_fixture_search_is_plain_best_bound(self, fixture_milp_report):
        # a root, one branching and no heuristic or propagation solves
        assert fixture_milp_report.status is SolveStatus.OPTIMAL
        assert fixture_milp_report.iterations == 3
        assert abs(fixture_milp_report.objective - -0.01535672932609452) <= 1e-12

    def test_fixture_node_lps_reoptimize_from_the_parent_basis(self, fixture_train):
        # the same tree as the plain best-bound search, each node LP the md LP
        # under changed x bounds and each child's re-optimized from its
        # parent's basis
        problem, layout = md_milp_problem(fixture_train, ModelConfig(rho=FIXTURE_RHO))
        sol = solve_milp(problem)
        assert sol.status is SolveStatus.OPTIMAL
        assert (sol.nodes, sol.node_pivots) == (3, 11)
        assert abs(sol.objective - -0.01535672932609452) <= 1e-12
        held = np.flatnonzero(sol.v[layout.x] > 1e-9)
        assert [fixture_train.tickers[i] for i in held] == ["ABM", "ADJ", "AOW"]

    def test_fixture_siblings_share_one_inverse_of_the_parent_basis(self, fixture_train,
                                                                     monkeypatch):
        # Both children reopen from the root's basis, which the first child
        # inverts and the second takes from it. The weights' bytes are those
        # of the explicit inverse.
        from portopt import milp_solver
        states = []

        class Recorded(milp_solver.SimplexState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        monkeypatch.setattr(milp_solver, "SimplexState", Recorded)
        problem, _ = md_milp_problem(fixture_train, ModelConfig(rho=FIXTURE_RHO))
        sol = solve_milp(problem)
        (state,) = states
        assert state.factorizations == 1
        assert sol.objective == -0.015356729326094522
        assert hashlib.sha256(sol.v.tobytes()).hexdigest() == (
            "415d9b94dfe2e652d9dbbf537eacafe563f416bfade47d13b60c3759a31f2a1a")

    def test_full_relaxation_is_the_md_lp(self, fixture_train, fixture_md_report):
        # the big-M form's relaxation, all 843 rows at once: an LP regression
        # case (the B&B's node LPs are the md LP under changed bounds)
        problem, _ = md_milp_problem(fixture_train, ModelConfig(rho=FIXTURE_RHO))
        relaxation = big_m_milp(problem).base
        assert relaxation.a_ub.shape == (843, 781)
        sol = solve_lp(relaxation)
        assert sol.status is SolveStatus.OPTIMAL
        assert abs(sol.objective - fixture_md_report.objective) <= 1e-12

    def test_objective_never_beats_relaxed_md(self, fixture_md_report, fixture_milp_report):
        assert fixture_milp_report.objective <= fixture_md_report.objective + 1e-12

    def test_min_alloc_above_cap_rejected(self):
        data = rng_global.normal(0.001, 0.02, (4, 5))
        with pytest.raises(DataError):
            solve_md_milp(make_returns(data), ModelConfig(rho=0.0, min_alloc=0.6, cap=0.5))


def fresh_window(returns: ReturnMatrix) -> ReturnMatrix:
    """A window of the same values that keeps no LP yet."""
    return ReturnMatrix(returns.tickers, returns.dates, returns.returns)


class TestKeptMdLp:
    """The `md` LP a window keeps (`models._md_lp`): `md`'s problem and
    `md_milp`'s root relaxation, solved once per window, rho and cap."""

    def test_the_window_keeps_one_lp_per_rho_and_cap(self, monkeypatch):
        solves = []

        def counted(problem, **kwargs):
            solves.append(problem.upper[0])
            return solve_lp(problem, **kwargs)

        monkeypatch.setattr(models, "solve_lp", counted)
        data = np.random.default_rng(41).normal(0.001, 0.02, (8, 30))
        returns = make_returns(data)
        cfg = ModelConfig(rho=0.0)
        milp_first = solve_md_milp(returns, cfg)          # solves the LP
        md_second = solve_md(returns, cfg)                # reads it
        assert solves == [0.5] and md_second.basis is milp_first.basis
        assert answer(solve_md(returns, cfg)) == answer(md_second) and len(solves) == 1
        for other in (ModelConfig(rho=0.001), ModelConfig(rho=0.0, cap=0.4)):
            solve_md(returns, other)
            solve_md_milp(returns, other)
        assert solves == [0.5, 0.5, 0.4]
        assert sorted(returns.md_lps) == [(0.0, 0.4), (0.0, 0.5), (0.001, 0.5)]
        # estimates of the same values in another window solve their own,
        # to the same answers as a solve of the LP itself
        again = fresh_window(returns)
        assert answer(solve_md(again, cfg)) == answer(md_second) and len(solves) == 4
        sol = solve_lp(md_problem(returns, cfg)[0])
        assert md_second.objective == sol.objective and md_second.iterations == sol.pivots

    def test_another_start_solves_again(self, fixture_train):
        cfg = ModelConfig(rho=FIXTURE_RHO)
        window = fresh_window(fixture_train)
        cold = solve_md(window, cfg)
        shaken = perturb_returns(window, PerturbationConfig(c=1000.0, seed=4))
        first = solve_md(shaken, cfg)
        warm = solve_md(shaken, cfg, start=cold.basis)     # replaces the kept cold solve
        assert (first.detail, warm.detail, warm.iterations) == ("", "start=warm", 0)
        (kept,) = shaken.md_lps.values()
        assert kept.start is cold.basis
        # a start of the same content reads the kept solve
        copy = Basis(cold.basis.basic.copy(), cold.basis.status.copy())
        assert solve_md(shaken, cfg, start=copy).basis is warm.basis

    def test_md_milp_takes_no_root_pivot_after_md(self, fixture_train, monkeypatch):
        # The search state starts at the root's optimal basis, so phase 1
        # takes no pivot, and no LP is solved for the root: the answer, the
        # nodes and the root basis are those of a search that solves it.
        from portopt import milp_solver
        cfg = ModelConfig(rho=FIXTURE_RHO)
        window = fresh_window(fixture_train)
        md = solve_md(window, cfg)
        states = []

        class Recorded(milp_solver.SimplexState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self.pivots)

        def no_lp_solve(*args, **kwargs):
            raise AssertionError("the root LP was solved again")

        with monkeypatch.context() as m:
            m.setattr(milp_solver, "SimplexState", Recorded)
            m.setattr(models, "solve_lp", no_lp_solve)
            m.setattr(milp_solver, "solve_lp", no_lp_solve)
            report = solve_md_milp(window, cfg)
        assert states == [0] and report.basis is md.basis
        own = solve_milp(md_milp_problem(window, cfg)[0])
        assert report.iterations == own.nodes == 3
        assert report.objective == own.objective
        assert report.allocation.weights.tobytes() == own.v[:window.n_assets].tobytes()
        assert np.array_equal(report.basis.basic, own.root_basis.basic)


class TestWarmStart:
    """The drawdown models re-solved on the fixture's perturbed train window
    from the basis of their solve on the window itself, as `sensitivity`
    does."""

    CFG = ModelConfig(rho=FIXTURE_RHO)

    @staticmethod
    def basic_set(report) -> set:
        return set(report.basis.basic.tolist())

    @pytest.mark.parametrize("solve", [solve_mad, solve_md], ids=["mad", "md"])
    def test_small_perturbations_keep_the_basis_optimal(self, fixture_train, solve):
        # At c = 1000 the original basis is optimal for every one of 40
        # perturbations: no pivot, the cold solve's basis, objective and
        # weights.
        first = solve(fixture_train, self.CFG)
        for seed in range(40):
            shaken = perturb_returns(fixture_train, PerturbationConfig(c=1000.0, seed=seed))
            cold = solve(shaken, self.CFG)
            warm = solve(shaken, self.CFG, start=first.basis)
            assert (warm.detail, warm.iterations) == ("start=warm", 0)
            assert cold.detail == "" and cold.iterations > 0
            assert self.basic_set(warm) == self.basic_set(cold)
            assert abs(warm.objective - cold.objective) <= 1e-12
            assert np.abs(warm.allocation.weights - cold.allocation.weights).max() <= 1e-9

    def test_milp_root_starts_from_the_original_root_basis(self, fixture_train):
        first = solve_md_milp(fixture_train, self.CFG)
        assert first.basis is not None and first.detail == ""
        for seed in range(3):
            shaken = perturb_returns(fixture_train, PerturbationConfig(c=1000.0, seed=seed))
            problem, _ = md_milp_problem(shaken, self.CFG)
            cold, warm = solve_milp(problem), solve_milp(problem, start=first.basis)
            assert warm.warm and not cold.warm
            assert warm.nodes == cold.nodes and warm.node_pivots < cold.node_pivots
            assert abs(warm.objective - cold.objective) <= 1e-12
            assert np.abs(warm.v - cold.v).max() <= 1e-9
            report = solve_md_milp(shaken, self.CFG, start=first.basis)
            assert report.detail == "start=warm" and report.objective == warm.objective

    def assert_falls_back(self, solve, returns, start):
        """A start that cannot be taken: phase 1 starts from the slack
        basis, and the answer is the cold solve's, to the bit."""
        cold = solve(returns, self.CFG)
        report = solve(returns, self.CFG, start=start)
        assert report.detail == "start=cold"
        assert report.iterations == cold.iterations
        assert report.objective == cold.objective
        assert np.array_equal(report.allocation.weights, cold.allocation.weights)

    def test_phase1_repairs_a_start_outside_its_bounds(self, fixture_train):
        # At c = 10 the original mad basis is outside its bounds on most of
        # the 40 perturbed windows. Phase 1 starts from it all the same: every
        # start is taken, every answer is the cold solve's and HiGHS's, and
        # the median warm solve takes fewer pivots than the median cold one.
        first = solve_mad(fixture_train, self.CFG)
        pivots = {"warm": [], "cold": []}
        outside = 0
        for seed in range(40):
            shaken = perturb_returns(fixture_train, PerturbationConfig(c=10.0, seed=seed))
            problem = mad_problem(shaken, self.CFG)[0]
            outside += SimplexState(problem, start=first.basis).pivots > 0
            warm = solve_mad(shaken, self.CFG, start=first.basis)
            cold = solve_mad(shaken, self.CFG)
            assert warm.detail == "start=warm" and warm.status is SolveStatus.OPTIMAL
            for reference in (cold.objective, highs_lp(problem)[1]):
                assert abs(warm.objective - reference) <= 1e-9 * (1 + abs(reference))
            pivots["warm"].append(warm.iterations)
            pivots["cold"].append(cold.iterations)
        assert outside >= 30
        assert np.median(pivots["warm"]) < np.median(pivots["cold"])

    @pytest.mark.parametrize("solve", [solve_mad, solve_md], ids=["mad", "md"])
    def test_a_start_of_another_shape_falls_back(self, fixture_train, solve):
        # a basis of the window's first 40 days has fewer rows
        short = ReturnMatrix(fixture_train.tickers, fixture_train.dates[:40],
                             fixture_train.returns[:, :40])
        self.assert_falls_back(solve, fixture_train, solve(short, self.CFG).basis)

    @pytest.mark.parametrize("solve", [solve_mad, solve_md], ids=["mad", "md"])
    def test_a_start_with_an_out_of_range_column_falls_back(self, fixture_train, solve):
        # the column basic in the budget row replaced by the first index past
        # the last slack
        start = solve(fixture_train, self.CFG).basis
        basic, status = start.basic.copy(), start.status.copy()
        status[basic[0]] = AT_LOWER
        basic[0] = status.size
        self.assert_falls_back(solve, fixture_train, Basis(basic, status))

    def test_only_the_drawdown_models_take_a_start(self, fixture_train, fixture_stats):
        start = solve_md(fixture_train, self.CFG).basis
        for tag in MEAN_VARIANCE:
            with pytest.raises(TypeError):
                SOLVERS[tag](fixture_train, fixture_stats, ModelConfig(), start=start)
            assert SOLVERS[tag](fixture_train, fixture_stats,
                                ModelConfig(rho=FIXTURE_RHO, sigma0=0.012)).basis is None
        report = SOLVERS["md"](fixture_train, None, self.CFG, start=start)
        assert report.detail == "start=warm"


class TestCrossModelInvariants:
    def test_allocations_validate_and_meet_rho(self):
        data = rng_global.normal(0.0015, 0.02, (8, 45))
        returns = make_returns(data)
        stats = asset_stats(returns)
        rho = float(np.quantile(stats.mean_returns, 0.4))
        cases = [
            (solve_markowitz(stats, ModelConfig(rho=rho)), 1.0, True),
            (solve_simultaneous(stats, ModelConfig(lam=1.0)), 1.0, False),
            (solve_mad(returns, ModelConfig(rho=rho)), 1.0, True),
            (solve_md(returns, ModelConfig(rho=rho)), 0.5, True),
            (solve_md_milp(returns, ModelConfig(rho=rho)), 0.5, True),
        ]
        for report, cap, has_rho in cases:
            assert report.status is SolveStatus.OPTIMAL, report.model_tag
            assert validate_allocation(report.allocation.weights, cap).ok, report.model_tag
            if has_rho:
                achieved = stats.mean_returns @ report.allocation.weights
                assert achieved >= rho - 1e-7, report.model_tag

    def test_md_dominates_random_feasible_points(self, fixture_md_report, fixture_train):
        rng = np.random.default_rng(8)
        mu = mean_returns(fixture_train)
        y_star = fixture_md_report.objective
        worst = fixture_train.returns.T  # days x assets
        for _ in range(50):
            x = _random_capped_portfolio(rng, mu, rho=0.001)
            assert (worst @ x).min() <= y_star + 1e-7


def _random_capped_portfolio(rng, mu, rho, cap=0.5):
    n = mu.shape[0]
    support = rng.choice(n, size=int(rng.integers(3, 9)), replace=False)
    raw = rng.dirichlet(np.ones(support.size))
    x = np.zeros(n)
    x[support] = raw
    # push weight over the cap back onto the other names
    for _ in range(40):
        over = x > cap
        if not over.any():
            break
        excess = np.sum(x[over] - cap)
        x[over] = cap
        room = x < cap - 1e-12
        x[room] += excess / room.sum()
    # blend toward the best-return greedy vertex until the return floor holds
    order = np.argsort(-mu, kind="stable")
    greedy = np.zeros(n)
    remaining = 1.0
    for i in order:
        take = min(cap, remaining)
        greedy[i] = take
        remaining -= take
        if remaining <= 0:
            break
    if mu @ x < rho:
        num = rho - mu @ x
        den = mu @ greedy - mu @ x
        theta = min(1.0, max(0.0, num / den + 1e-9))
        x = theta * greedy + (1 - theta) * x
    assert validate_allocation(x, cap).ok
    assert mu @ x >= rho - 1e-9
    return x


def test_model_fields_are_the_fields_each_model_reads():
    names = {f.name for f in dataclasses.fields(ModelConfig)}
    seen = set()

    class Recording(ModelConfig):
        def __getattribute__(self, name):
            if name in names:
                seen.add(name)
            return super().__getattribute__(name)

    returns = make_returns(np.random.default_rng(5).normal(0.001, 0.02, (6, 30)))
    stats = asset_stats(returns)
    assert set(MODEL_FIELDS) == set(SOLVERS)
    for tag, solve in SOLVERS.items():
        cfg = Recording(rho=float(stats.mean_returns.min()), sigma0=1.0, lam=1.0,
                        mu_l1=1.0, cap=0.5, min_alloc=0.1)
        seen.clear()
        assert solve(returns, stats, cfg).status is SolveStatus.OPTIMAL
        assert seen == set(MODEL_FIELDS[tag]), tag


def test_only_the_mean_variance_models_read_the_moment_estimates():
    # The others solve with stats=None; these fail without their stats.
    returns = make_returns(np.random.default_rng(5).normal(0.001, 0.02, (6, 30)))
    cfg = ModelConfig(rho=0.0, sigma0=1.0)
    for tag, solve in SOLVERS.items():
        if tag in MEAN_VARIANCE:
            with pytest.raises(AttributeError):
                solve(returns, None, cfg)
        else:
            assert solve(returns, None, cfg).status is SolveStatus.OPTIMAL
