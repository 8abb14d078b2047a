import warnings

import numpy as np
import pytest

from portopt import milp_solver
from portopt.core import DataError, ModelConfig, SolveStatus
from portopt.estimation import PerturbationConfig, perturb_returns
from portopt.lp_solver import LpProblem, SimplexState, solve_lp
from portopt.milp_solver import MilpProblem, MilpSolution, solve_milp
from portopt.models import md_milp_problem, md_problem, solve_md_milp

from conftest import FIXTURE_RHO, make_returns
from oracles import big_m_milp, support_enumeration_md_milp


def knapsack_milp(values, weights, budget):
    n = len(values)
    base = LpProblem(c=np.asarray(values, dtype=float), sense="max",
                     a_ub=np.asarray(weights, dtype=float)[None, :],
                     b_ub=np.array([budget]), lower=np.zeros(n), upper=np.ones(n))
    return MilpProblem(base=base, on_off=dict.fromkeys(range(n), 1.0))


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
    sol = solve_milp(MilpProblem(base=base, on_off={0: 1.0}))
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
    for j, t in problem.on_off.items():
        for on in (False, True):
            lo, up = base.lower.copy(), base.upper.copy()
            if on:
                lo[j] = t
            else:
                up[j] = 0.0
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
    x = v[layout.x]   # snapped: each weight is exactly 0 or at least min_alloc
    assert np.all((x == 0.0) | (x >= cfg.min_alloc))


@pytest.mark.parametrize("values, weights, budget", [
    ([10.0, 13.0, 7.0, 8.0, 9.0, 11.0], [5.0, 7.0, 4.0, 5.0, 6.0, 6.0], 17.0),  # no incumbent yet
    ([12.0, 11.0, 9.0, 7.0, 6.0], [7.0, 6.0, 5.0, 4.0, 3.0], 13.0),  # incumbent found
])
def test_node_limit_returns_a_valid_bound(values, weights, budget, monkeypatch):
    problem = knapsack_milp(values, weights, budget)
    best = brute_force_knapsack(values, weights, budget)
    assert solve_milp(problem).nodes > 3
    monkeypatch.setattr(milp_solver, "NODE_LIMIT", 3)
    sol = solve_milp(problem)
    assert sol.status is SolveStatus.ITERATION_LIMIT
    assert sol.nodes == 3
    assert sol.best_bound >= best - 1e-9  # max sense: an upper bound on the optimum
    if sol.v is not None:
        assert np.array_equal(sol.v, np.round(sol.v))
        assert np.dot(weights, sol.v) <= budget + 1e-9
        assert sol.objective == pytest.approx(np.dot(values, sol.v))
        assert sol.objective <= best + 1e-9


def test_binary_bounds_validated():
    base = LpProblem(c=[1.0, 1.0], sense="max", lower=[0.0, 0.5], upper=[2.0, 2.0])
    assert MilpProblem(base=base, on_off={0: 2.0}).on_off == {0: 2.0}
    for on_off in ({0: 0.0}, {0: -1.0}, {0: np.nan}, {0: 2.5}, {1: 1.0}):
        with pytest.raises(DataError):
            MilpProblem(base=base, on_off=on_off)


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
    """Status and objective (in the problem's sense) from scipy's HiGHS,
    which solves the big-M form: a binary and two link rows per on/off
    column."""
    opt = pytest.importorskip("scipy.optimize")
    textbook = big_m_milp(problem)
    base = textbook.base
    sign = 1.0 if base.sense == "min" else -1.0
    integrality = np.zeros(base.n_vars)
    integrality[list(textbook.on_off)] = 1
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
        sol = assert_matches_highs(MilpProblem(base=base, on_off=dict.fromkeys(range(n_bin), 1.0)))
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


def random_on_off_milp(rng) -> MilpProblem:
    """A random MILP mixing on/off columns with thresholds below their upper
    bounds, binaries and continuous columns under general rows."""
    n_on, n_bin, n_cont = int(rng.integers(1, 4)), int(rng.integers(0, 3)), int(rng.integers(0, 3))
    n = n_on + n_bin + n_cont
    upper = np.concatenate([rng.uniform(0.5, 3.0, n_on).round(2), np.ones(n_bin),
                            rng.uniform(0.5, 3.0, n_cont).round(2)])
    lower = np.concatenate([np.zeros(n_on + n_bin), rng.uniform(-2.0, 0.0, n_cont).round(2)])
    thresholds = (rng.uniform(0.2, 0.9, n_on) * upper[:n_on]).round(2)
    on_off = dict(zip(range(n_on), thresholds)) | dict.fromkeys(range(n_on, n_on + n_bin), 1.0)
    m = int(rng.integers(1, 4))
    base = LpProblem(c=rng.integers(-9, 10, n).astype(float), sense=str(rng.choice(["min", "max"])),
                     a_ub=rng.integers(-5, 6, (m, n)).astype(float),
                     b_ub=rng.integers(-3, 6, m).astype(float), lower=lower, upper=upper)
    return MilpProblem(base=base, on_off=on_off)


def test_on_off_columns_match_highs(monkeypatch):
    # a 1-branch on an on/off column that is not a binary (its upper bound
    # is not 1) reopens the node LP with that column's lower bound at t
    raised = []
    real_reopen = SimplexState.reopen

    def reopen(state, start, cost, lower, upper):
        raised.append(lower)
        return real_reopen(state, start, cost, lower, upper)

    monkeypatch.setattr(SimplexState, "reopen", reopen)
    rng = np.random.default_rng(211)
    seen = {"min": 0, "max": 0, SolveStatus.INFEASIBLE: 0, "branched": 0,
            "branched_on_a_threshold": 0}
    for _ in range(200):
        problem = random_on_off_milp(rng)
        raised.clear()
        sol = assert_matches_highs(problem)
        seen[problem.base.sense] += 1
        seen[SolveStatus.INFEASIBLE] += sol.status is SolveStatus.INFEASIBLE
        seen["branched"] += sol.nodes > 1
        thresholds = {j: t for j, t in problem.on_off.items() if problem.base.upper[j] != 1.0}
        seen["branched_on_a_threshold"] += any(lo[j] == t for lo in raised
                                               for j, t in thresholds.items())
        if sol.v is not None:
            x = sol.v[list(problem.on_off)]
            assert np.all((x == 0.0) | (x >= list(problem.on_off.values())))
    assert min(seen.values()) >= 20, seen


# Variable-bound MILPs: binaries z_i linked to continuous x_i by
# l_i z_i <= x_i <= u_i z_i. Each near miss gives the first pair a feature
# that keeps it from being a plain on/off switch of x_i.
NEAR_MISSES = ("cost", "equality", "third_row", "shared_x", "x_lower", "low_too_big")


def linked_milp(rng, miss: str | None) -> MilpProblem:
    """A random MILP whose pairs (x_i, z_i) are linked by
    l_i z_i <= x_i <= u_i z_i (some without the lower link), with general
    rows over the x, other continuous columns and plain binaries."""
    n_x = int(rng.integers(2, 5))
    n_other, n_plain = int(rng.integers(0, 3)), int(rng.integers(0, 3))
    n = 2 * n_x + n_other + n_plain
    xs = np.arange(n_x)
    plain = n_x + n_other + np.arange(n_plain)
    zs = n_x + n_other + n_plain + np.arange(n_x)
    lower = np.zeros(n)
    upper = np.ones(n)
    upper[xs] = np.where(rng.random(n_x) < 0.2, np.inf, rng.uniform(0.5, 3.0, n_x).round(2))
    lower[n_x:n_x + n_other] = rng.uniform(-2.0, 0.0, n_other).round(2)
    upper[n_x:n_x + n_other] = rng.uniform(0.5, 3.0, n_other).round(2)
    c = rng.integers(-9, 10, n).astype(float)
    c[zs] = 0.0
    u = rng.uniform(0.5, 3.0, n_x).round(2)
    low = np.where(rng.random(n_x) < 0.7,
                   rng.uniform(0.05, 1.0, n_x) * np.minimum(u, upper[xs]), 0.0).round(2)
    partner = xs.copy()
    if miss == "cost":
        c[zs[0]] = float(rng.choice([-3.0, 2.0]))
    elif miss == "shared_x":
        partner[1] = xs[0]
        upper[xs[1]] = 1.0   # x_1 keeps no link to bound it
    elif miss == "x_lower":
        lower[xs[0]] = float(rng.choice([-0.5, 0.1]))
    elif miss == "low_too_big":
        low[0] = round(min(u[0], upper[xs[0]]) + rng.uniform(0.05, 0.5), 2)

    m = int(rng.integers(1, 4))
    a_general = np.zeros((m, n))
    a_general[:, :n - n_x] = rng.integers(-4, 5, (m, n - n_x))
    rows, b_ub = [a_general], [rng.integers(-2, 6, m).astype(float)]
    for i in range(n_x):
        scale = float(rng.choice([1.0, 2.5]))
        link = np.zeros((2, n))
        link[0, partner[i]], link[0, zs[i]] = scale, -scale * u[i]   # x <= u z
        link[1, partner[i]], link[1, zs[i]] = -1.0, low[i]             # l z <= x
        rows.append(link if low[i] > 0 else link[:1])
        b_ub.append(np.zeros(2 if low[i] > 0 else 1))
    kw = {}
    if miss == "equality":
        a_eq = np.zeros((1, n))
        a_eq[0, zs[0]], a_eq[0, xs[1]] = 1.0, 1.0
        kw.update(a_eq=a_eq, b_eq=np.ones(1))
    elif miss == "third_row":
        extra = np.zeros((1, n))
        if rng.random() < 0.5:   # a second upper link on the same x
            extra[0, xs[0]], extra[0, zs[0]] = 1.0, -0.4
            rows.append(extra)
            b_ub.append(np.zeros(1))
        else:                    # a general row
            extra[0, zs[0]], extra[0, xs[1]] = 1.0, float(rng.choice([-2.0, 1.0]))
            rows.append(extra)
            b_ub.append(np.ones(1))
    base = LpProblem(c=c, sense=str(rng.choice(["min", "max"])), a_ub=np.vstack(rows),
                     b_ub=np.concatenate(b_ub), lower=lower, upper=upper, **kw)
    return MilpProblem(base=base, on_off=dict.fromkeys(tuple(plain) + tuple(zs), 1.0))


def test_variable_bound_rule_matches_highs():
    rng = np.random.default_rng(97)
    seen = dict.fromkeys(("exact", "branched") + NEAR_MISSES, 0)
    for i in range(240):
        miss = None if i % 2 == 0 else NEAR_MISSES[(i // 2) % len(NEAR_MISSES)]
        sol = assert_matches_highs(linked_milp(rng, miss))
        seen[miss or "exact"] += 1
        seen["branched"] += sol.nodes > 1
    assert min(seen.values()) >= 20, seen


def test_md_milp_at_the_extreme_min_allocs():
    # The smallest positive min_alloc makes every on/off rule void, so the
    # MILP is the md LP; min_alloc = cap puts each held name exactly at the
    # cap, so each 1-branch fixes its x.
    rng = np.random.default_rng(101)
    tiny = float(np.nextafter(0.0, 1.0))
    optimal = {"tiny": 0, "cap": 0}
    for _ in range(20):
        n = int(rng.integers(3, 9))
        data = rng.normal(0.001, 0.02, (n, int(rng.integers(3, 10))))
        returns = make_returns(data)
        rho = float(np.quantile(data.mean(axis=1), rng.uniform(0.2, 0.9)))
        problem, layout = md_milp_problem(returns, ModelConfig(rho=rho, min_alloc=tiny))
        sol = assert_matches_highs(problem)
        md = solve_lp(md_problem(returns, ModelConfig(rho=rho))[0])
        assert sol.status is md.status
        if sol.status is SolveStatus.OPTIMAL:
            optimal["tiny"] += 1
            assert sol.nodes == 1 and abs(sol.objective - md.objective) <= 1e-12

        cap = float(rng.choice([0.2, 0.25, 0.5]))
        problem, layout = md_milp_problem(returns, ModelConfig(rho=rho, min_alloc=cap, cap=cap))
        sol = assert_matches_highs(problem)
        if sol.status is SolveStatus.OPTIMAL:
            optimal["cap"] += 1
            held = sol.v[layout.x][sol.v[layout.x] > 1e-9]
            assert np.allclose(held, cap, atol=1e-9)
    assert min(optimal.values()) >= 10, optimal


def test_second_child_takes_its_siblings_inverse(monkeypatch):
    # Both children of a node reopen its basis. With the first child's B^-1
    # handed to the second, every search matches one that inverts for each
    # child, node for node and bit for bit, with one inversion less per
    # branched node.
    def search(problem):
        states = []

        class Recorded(SimplexState):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                states.append(self)

        monkeypatch.setattr(milp_solver, "SimplexState", Recorded)
        sol = solve_milp(problem)
        (state,) = states
        return sol, state.factorizations

    take_basis = SimplexState._take_basis
    rng = np.random.default_rng(25)
    branched_total = 0
    for _ in range(6):
        n, days = int(rng.integers(10, 26)), int(rng.integers(30, 71))
        panel = rng.normal(0.0005, 0.01, (n, days))
        problem = md_milp_problem(make_returns(panel), ModelConfig(rho=0.0))[0]
        sol, inversions = search(problem)
        with monkeypatch.context() as m:
            m.setattr(SimplexState, "_take_basis",
                      lambda self, start, binv=None: take_basis(self, start))
            ref, ref_inversions = search(problem)
        assert sol.status is ref.status is SolveStatus.OPTIMAL
        assert (sol.nodes, sol.node_pivots) == (ref.nodes, ref.node_pivots)
        assert sol.objective == ref.objective and sol.v.tobytes() == ref.v.tobytes()
        branched = (sol.nodes - 1) // 2
        assert ref_inversions - inversions == branched
        branched_total += branched
    assert branched_total >= 10
