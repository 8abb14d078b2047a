import warnings

import numpy as np
import pytest

from portopt.core import DataError, ModelConfig, SolveStatus
from portopt.estimation import PerturbationConfig, perturb_returns
from portopt.lp_solver import LpProblem, solve_lp
from portopt.milp_solver import MilpProblem, MilpSolution, solve_milp
from portopt.models import md_milp_problem, solve_md_milp

from conftest import FIXTURE_RHO, make_returns
from oracles import support_enumeration_md_milp


def knapsack_milp(values, weights, budget):
    n = len(values)
    base = LpProblem(c=np.asarray(values, dtype=float), sense="max",
                     a_ub=np.asarray(weights, dtype=float)[None, :],
                     b_ub=np.array([budget]), lower=np.zeros(n), upper=np.ones(n))
    return MilpProblem(base=base, binary_indices=tuple(range(n)))


def brute_force_knapsack(values, weights, budget):
    return max(
        sum(v for v, pick in zip(values, mask) if pick)
        for mask in np.ndindex(*(2,) * len(values))
        if sum(w for w, pick in zip(weights, mask) if pick) <= budget
    )


def test_integral_relaxation_single_node():
    # relaxation optimum already binary: take both items, capacity not binding
    sol = solve_milp(knapsack_milp([1.0, 2.0], [1.0, 1.0], 5.0))
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(3.0)
    assert sol.nodes == 1


def test_small_knapsack_exact():
    values = [6.0, 5.0, 4.0, 3.0]
    weights = [4.0, 3.0, 2.0, 1.0]
    sol = solve_milp(knapsack_milp(values, weights, 6.0))
    best = brute_force_knapsack(values, weights, 6.0)
    assert sol.objective == pytest.approx(best)
    assert np.all(np.abs(sol.v - np.round(sol.v)) <= 1e-6)


def test_infeasible_milp():
    base = LpProblem(c=[1.0], sense="max", a_ub=[[1.0]], b_ub=[-0.5],
                     lower=[0.0], upper=[1.0])
    sol = solve_milp(MilpProblem(base=base, binary_indices=(0,)))
    assert sol.status is SolveStatus.INFEASIBLE


def test_gap_certificate_at_optimum():
    rng = np.random.default_rng(3)
    returns = make_returns(rng.normal(0.001, 0.02, (6, 8)))
    problem, _ = md_milp_problem(returns, ModelConfig(rho=-1.0))
    sol = solve_milp(problem)
    assert sol.status is SolveStatus.OPTIMAL
    assert abs(sol.objective - sol.best_bound) <= 1e-7 * (1 + abs(sol.objective))


def test_matches_support_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(6):
        n = int(rng.integers(3, 7))
        t_days = int(rng.integers(3, 8))
        data = rng.normal(0.001, 0.02, (n, t_days))
        rho = float(np.quantile(data.mean(axis=1), 0.3))
        problem, layout = md_milp_problem(make_returns(data), ModelConfig(rho=rho))
        sol = solve_milp(problem)
        ref = support_enumeration_md_milp(data, rho)
        if np.isfinite(ref):
            assert sol.status is SolveStatus.OPTIMAL
            assert sol.objective == pytest.approx(ref, abs=1e-7)
        else:
            assert sol.status is SolveStatus.INFEASIBLE


def test_determinism():
    rng = np.random.default_rng(29)
    returns = make_returns(rng.normal(0.001, 0.025, (7, 9)))
    problem, _ = md_milp_problem(returns, ModelConfig(rho=0.0))
    a = solve_milp(problem)
    b = solve_milp(problem)
    assert a.nodes == b.nodes
    assert a.objective == b.objective
    assert np.array_equal(a.v, b.v)


def test_bound_monotonicity_parent_child():
    rng = np.random.default_rng(31)
    returns = make_returns(rng.normal(0.0, 0.02, (6, 6)))
    problem, layout = md_milp_problem(returns, ModelConfig(rho=-1.0))
    base = problem.base
    parent = solve_lp(base)
    assert parent.status is SolveStatus.OPTIMAL
    z0 = layout.z.start
    for j in range(z0, z0 + 6):
        for fix in (0.0, 1.0):
            lo, up = base.lower.copy(), base.upper.copy()
            if fix == 0.0:
                up[j] = 0.0
            else:
                lo[j] = 1.0
            child = solve_lp(LpProblem(c=base.c, sense=base.sense, a_eq=base.a_eq,
                                       b_eq=base.b_eq, a_ub=base.a_ub, b_ub=base.b_ub,
                                       lower=lo, upper=up))
            if child.status is SolveStatus.OPTIMAL:
                assert child.objective <= parent.objective + 1e-9  # max sense


def test_incumbent_verified_against_original_constraints():
    rng = np.random.default_rng(41)
    returns = make_returns(rng.normal(0.001, 0.02, (5, 7)))
    cfg = ModelConfig(rho=float(np.quantile(returns.returns.mean(axis=1), 0.2)))
    problem, layout = md_milp_problem(returns, cfg)
    sol = solve_milp(problem)
    assert sol.status is SolveStatus.OPTIMAL
    v = sol.v
    base = problem.base
    assert np.max(np.abs(base.a_eq @ v - base.b_eq)) <= 1e-7
    assert np.max(base.a_ub @ v - base.b_ub) <= 1e-7
    assert np.all(v >= base.lower - 1e-9) and np.all(v <= base.upper + 1e-9)
    z = v[layout.z]
    assert np.all(np.abs(z - np.round(z)) <= 1e-6)


@pytest.mark.parametrize("values, weights, budget", [
    ([10.0, 13.0, 7.0, 8.0, 9.0, 11.0], [5.0, 7.0, 4.0, 5.0, 6.0, 6.0], 17.0),  # no incumbent yet
    ([12.0, 11.0, 9.0, 7.0, 6.0], [7.0, 6.0, 5.0, 4.0, 3.0], 13.0),  # incumbent found
])
def test_node_limit_returns_a_valid_bound(values, weights, budget):
    problem = knapsack_milp(values, weights, budget)
    best = brute_force_knapsack(values, weights, budget)
    assert solve_milp(problem).nodes > 3
    sol = solve_milp(problem, node_limit=3)
    assert sol.status is SolveStatus.ITERATION_LIMIT
    assert sol.nodes == 3
    assert sol.best_bound >= best - 1e-9  # max sense: an upper bound on the optimum
    if sol.v is not None:
        assert np.array_equal(sol.v, np.round(sol.v))
        assert np.dot(weights, sol.v) <= budget + 1e-9
        assert sol.objective == pytest.approx(np.dot(values, sol.v))
        assert sol.objective <= best + 1e-9


def test_node_limit_errors():
    with pytest.raises(DataError):
        solve_milp(knapsack_milp([1.0], [1.0], 1.0), node_limit=0)


def test_binary_bounds_validated():
    base = LpProblem(c=[1.0], sense="max", lower=[0.0], upper=[2.0])
    with pytest.raises(DataError):
        MilpProblem(base=base, binary_indices=(0,))


# Differential tests against HiGHS through scipy, which stays a test-only
# dependency. The two feasibility tolerances are not in scipy's option list
# (hence the filtered warning) but reach HiGHS verbatim; without them HiGHS
# accepts points up to 1e-6 off a row, looser than this solver's 1e-7.
# Presolve is off because with it HiGHS (scipy 1.17.1) reports "Solve error"
# on some tiny instances, e.g. min 5a + 8b + 4c - 3x + 3y subject to
# a - 5b - 2c + 3x + y <= 2 with a, b, c binary, x in [-1.19, 2.52] and
# y in [-1.01, 1.98] (optimum -6.04).
HIGHS_MILP = {"presolve": False, "mip_rel_gap": 1e-12, "mip_feasibility_tolerance": 1e-9,
              "primal_feasibility_tolerance": 1e-10}


def highs_milp(problem: MilpProblem) -> tuple[SolveStatus, float]:
    """Status and objective (in the problem's sense) from scipy's HiGHS."""
    opt = pytest.importorskip("scipy.optimize")
    base = problem.base
    sign = 1.0 if base.sense == "min" else -1.0
    integrality = np.zeros(base.n_vars)
    integrality[list(problem.binary_indices)] = 1
    constraints = []
    if base.a_eq.shape[0]:
        constraints.append(opt.LinearConstraint(base.a_eq, base.b_eq, base.b_eq))
    if base.a_ub.shape[0]:
        constraints.append(opt.LinearConstraint(base.a_ub, -np.inf, base.b_ub))
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="Unrecognized options")
        res = opt.milp(sign * base.c, integrality=integrality,
                       bounds=opt.Bounds(base.lower, base.upper),
                       constraints=constraints, options=HIGHS_MILP)
    if res.status == 2:
        return SolveStatus.INFEASIBLE, np.nan
    assert res.status == 0, res.message
    return SolveStatus.OPTIMAL, sign * float(res.fun)


def assert_matches_highs(problem: MilpProblem) -> MilpSolution:
    sol = solve_milp(problem)
    status, objective = highs_milp(problem)
    assert sol.status is status
    if status is SolveStatus.OPTIMAL:
        assert abs(sol.objective - objective) <= 1e-7 * (1 + abs(objective))
    return sol


def test_matches_highs_on_random_binary_milps():
    rng = np.random.default_rng(5)
    seen = {"min": 0, "max": 0, SolveStatus.INFEASIBLE: 0, "branched": 0}
    for _ in range(300):
        n = int(rng.integers(2, 9))
        n_bin = int(rng.integers(1, n + 1))  # the rest are continuous, finitely bounded
        is_bin = np.arange(n) < n_bin
        lower = np.where(is_bin, 0.0, rng.uniform(-2.0, 0.0, n).round(2))
        upper = np.where(is_bin, 1.0, rng.uniform(0.5, 3.0, n).round(2))
        m = int(rng.integers(1, 5))
        sense = str(rng.choice(["min", "max"]))
        base = LpProblem(c=rng.integers(-9, 10, n).astype(float), sense=sense,
                         a_ub=rng.integers(-5, 6, (m, n)).astype(float),
                         b_ub=rng.integers(-4, 6, m).astype(float), lower=lower, upper=upper)
        sol = assert_matches_highs(MilpProblem(base=base, binary_indices=tuple(range(n_bin))))
        seen[sense] += 1
        seen[SolveStatus.INFEASIBLE] += sol.status is SolveStatus.INFEASIBLE
        seen["branched"] += sol.nodes > 1
    assert min(seen.values()) >= 20, seen


def test_matches_highs_on_md_milp_instances():
    rng = np.random.default_rng(7)
    statuses = []
    for _ in range(40):
        n = int(rng.integers(3, 9))
        data = rng.normal(0.001, 0.02, (n, int(rng.integers(3, 10))))
        rho = float(np.quantile(data.mean(axis=1), rng.uniform(0.2, 0.9)))
        min_alloc = float(rng.choice([0.05, 0.2, 0.3, 0.45]))
        problem, _ = md_milp_problem(make_returns(data), ModelConfig(rho=rho, min_alloc=min_alloc))
        statuses.append(assert_matches_highs(problem).status)
    assert SolveStatus.INFEASIBLE in statuses and SolveStatus.OPTIMAL in statuses


def test_perturbed_fixture_matches_highs(fixture_train):
    # The drawdown benchmark's seed-32 instance. At its default 1e-6
    # feasibility tolerance HiGHS reports -0.015355122, 1.04e-7 above this
    # optimum, from a point 2.7e-7 past one day's row.
    shaken = perturb_returns(fixture_train, PerturbationConfig(c=1000.0, seed=32))
    cfg = ModelConfig(rho=FIXTURE_RHO)
    report = solve_md_milp(shaken, cfg)
    assert report.status is SolveStatus.OPTIMAL
    worst_day = float((shaken.returns.T @ report.allocation.weights).min())
    assert abs(report.objective - worst_day) <= 1e-12
    status, objective = highs_milp(md_milp_problem(shaken, cfg)[0])
    assert status is SolveStatus.OPTIMAL
    assert abs(report.objective - objective) <= 1e-9
