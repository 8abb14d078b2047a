import dataclasses
import hashlib

import numpy as np
import pytest

from portopt.core import (
    Allocation,
    DataError,
    ModelConfig,
    SolveStatus,
    validate_allocation,
)
from portopt.estimation import asset_stats, covariance, mean_returns
from portopt.lp_solver import LpProblem, solve_lp
from portopt.milp_solver import solve_milp
from portopt.models import (
    MODEL_FIELDS,
    SOLVERS,
    ModelLayout,
    l1_augment,
    mad_problem,
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

from conftest import FIXTURE_RHO, make_returns
from oracles import grid_best_mad, weight_grid


def stats_from(data):
    return asset_stats(make_returns(np.asarray(data, dtype=float)))


rng_global = np.random.default_rng(2024)


def gap_at_own_floor(x, mu, cov):
    """FW gap of x for min x'Σx over budget, box [0, 1] and the floor mu'x,
    with a cold simplex solve as the linear oracle."""
    n = x.shape[0]
    grad = 2.0 * cov @ x
    oracle = solve_lp(LpProblem(c=grad, a_eq=np.ones((1, n)), b_eq=[1.0],
                                a_ub=-mu[None, :], b_ub=[-(mu @ x)],
                                lower=np.zeros(n), upper=np.ones(n)))
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

    def test_milp_layout_has_2n_plus_one_columns(self):
        returns = make_returns(rng_global.normal(0.001, 0.02, (6, 5)))
        problem, layout = md_milp_problem(returns, ModelConfig(rho=0.0))
        assert layout.n_cols == 13
        assert len(problem.binary_indices) == 6
        assert layout.z == slice(7, 13)


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
        # With sigma0 at the minimum-variance std the accepted point is an
        # early-stopped iterate, so the final solve is what certifies the
        # weights: their FW gap meets the stop plus the oracle's slack.
        rng = np.random.default_rng(13)
        for _ in range(6):
            n = int(rng.integers(3, 6))
            stats = stats_from(rng.normal(0.002, 0.02, (n, 50)))
            mu, cov = stats.mean_returns, stats.covariance
            mv = solve_qp(markowitz_problem(stats, ModelConfig(), rho=None)[0])
            sigma0 = float(np.sqrt(mv.objective))
            report = solve_reverse_markowitz(stats, ModelConfig(sigma0=sigma0), gap_tol=1e-6)
            assert report.status is SolveStatus.OPTIMAL
            x = report.allocation.weights
            f = float(x @ cov @ x)
            assert np.sqrt(f) <= sigma0 + 1e-6
            gap = gap_at_own_floor(x, mu, cov)
            assert gap <= 1e-6 * (1.0 + f) + 2e-9 * (1.0 + np.abs(mu).max())

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


class TestFixtureFrontier:
    """The fixture's train window, at the benchmark's backtest settings."""

    SIGMA0 = 0.012

    @pytest.fixture(scope="class")
    def reverse(self, fixture_stats):
        return solve_reverse_markowitz(fixture_stats, ModelConfig(sigma0=self.SIGMA0))

    def test_markowitz_work_and_weights_unchanged(self, fixture_stats):
        # A plain solve (no `level`) keeps its iterates: the count and the
        # weights' bytes are those recorded before `level` existed.
        problem, _ = markowitz_problem(fixture_stats, ModelConfig(rho=FIXTURE_RHO))
        sol = solve_qp(problem, level=None)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.iterations == 6957
        assert sol.objective == 6.88640685894121e-05
        assert hashlib.sha256(sol.v.tobytes()).hexdigest() == (
            "8ccf9f8e1754a003d7822dd20daa8b71bee579027aef7195be1fe67c207616bc")

    def test_reverse_markowitz_decides_early(self, reverse, fixture_stats):
        assert reverse.status is SolveStatus.OPTIMAL
        assert reverse.iterations <= 10_000
        x = reverse.allocation.weights
        assert np.sqrt(x @ fixture_stats.covariance @ x) <= self.SIGMA0 + 1e-6
        # The return of the full-accuracy bisection.
        assert abs(reverse.objective - 0.002527510084917626) <= 1e-9

    def test_reverse_markowitz_weights_are_certified(self, reverse, fixture_stats):
        mu, cov = fixture_stats.mean_returns, fixture_stats.covariance
        x = reverse.allocation.weights
        f = float(x @ cov @ x)
        assert gap_at_own_floor(x, mu, cov) <= 1e-8 * (1.0 + f) + 2e-9 * (1.0 + np.abs(mu).max())


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


class TestL1Augmentation:
    def test_mu_zero_leaves_layout_alone(self):
        stats = stats_from(rng_global.normal(0.001, 0.02, (4, 25)))
        problem, layout = simultaneous_problem(stats, ModelConfig(lam=1.0))
        assert problem.n_vars == 4 and layout.n_cols == 4
        with pytest.raises(DataError):
            l1_augment(problem, 0.0)

    def test_augmented_block_structure(self):
        stats = stats_from(rng_global.normal(0.001, 0.02, (3, 25)))
        problem, _ = simultaneous_problem(stats, ModelConfig(lam=1.0))
        augmented = l1_augment(problem, 1.0)
        assert augmented.n_vars == 6
        assert np.allclose(augmented.c[3:], 1.0)
        # linking rows x_i - u_i <= 0 sit at the bottom of the row block
        assert np.allclose(augmented.a_ub[-3:, :3], np.eye(3))
        assert np.allclose(augmented.a_ub[-3:, 3:], -np.eye(3))

    @pytest.mark.parametrize("mu", [1.0, 100.0])
    def test_no_effect_theorem_simultaneous(self, mu):
        data = rng_global.normal(0.001, 0.02, (5, 40))
        stats = stats_from(data)
        base = solve_simultaneous(stats, ModelConfig(lam=2.0))
        aug = solve_simultaneous(stats, ModelConfig(lam=2.0, mu_l1=mu))
        assert np.max(np.abs(aug.allocation.weights - base.allocation.weights)) <= 1e-6
        assert aug.objective - base.objective == pytest.approx(mu, abs=1e-9)

    def test_no_effect_theorem_markowitz(self):
        data = rng_global.normal(0.001, 0.02, (5, 40))
        stats = stats_from(data)
        rho = float(np.quantile(stats.mean_returns, 0.5))
        base = solve_markowitz(stats, ModelConfig(rho=rho))
        aug = solve_markowitz(stats, ModelConfig(rho=rho, mu_l1=5.0))
        assert np.max(np.abs(aug.allocation.weights - base.allocation.weights)) <= 1e-6
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
        y = sol.v[layout.y]
        dev = (data - data.mean(axis=1, keepdims=True)).T @ x
        assert np.max(np.abs(y - np.abs(dev))) < 1e-9


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
        # a root, three branchings and no heuristic or propagation solves
        assert fixture_milp_report.status is SolveStatus.OPTIMAL
        assert fixture_milp_report.iterations == 7
        assert abs(fixture_milp_report.objective - -0.01535672932609452) <= 1e-12

    def test_objective_never_beats_relaxed_md(self, fixture_md_report, fixture_milp_report):
        assert fixture_milp_report.objective <= fixture_md_report.objective + 1e-12

    def test_min_alloc_above_cap_rejected(self):
        data = rng_global.normal(0.001, 0.02, (4, 5))
        with pytest.raises(DataError):
            solve_md_milp(make_returns(data), ModelConfig(rho=0.0, min_alloc=0.6, cap=0.5))


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
