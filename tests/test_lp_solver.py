import dataclasses
import hashlib

import numpy as np
import pytest

from portopt import lp_solver
from portopt.core import DataError, ModelConfig, SolveStatus
from portopt.lp_solver import (
    AT_LOWER,
    FREE,
    Basis,
    LpProblem,
    SimplexState,
    _max_violation,
    dual_objective,
    solve_lp,
)
from portopt.milp_solver import solve_milp
from portopt.models import mad_problem, markowitz_problem, md_milp_problem
from portopt.qp_solver import solve_qp

from conftest import FIXTURE_RHO, make_returns
from oracles import HIGHS_STATUS, enumerate_lp_vertices, highs_lp


def test_epigraph_of_two_constants():
    p = LpProblem(c=[1.0], sense="max", a_ub=[[1.0], [1.0]], b_ub=[3.0, 5.0],
                  lower=[-np.inf], upper=[np.inf])
    sol = solve_lp(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(3.0)


def test_degenerate_objective_on_budget_simplex():
    p = LpProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                  lower=[0.0, 0.0], upper=[1.0, 1.0])
    sol = solve_lp(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0)


def test_infeasible_and_unbounded():
    infeasible = LpProblem(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0], lower=[0.0])
    assert solve_lp(infeasible).status is SolveStatus.INFEASIBLE
    unbounded = LpProblem(c=[-1.0], lower=[0.0])
    assert solve_lp(unbounded).status is SolveStatus.UNBOUNDED


def test_rejects_nan_inputs():
    with pytest.raises(DataError):
        LpProblem(c=[np.nan])
    with pytest.raises(DataError):
        LpProblem(c=[1.0], a_ub=[[np.inf]], b_ub=[1.0])


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(123)
    checked = 0
    for _ in range(60):
        n = int(rng.integers(2, 6))
        m_ub = int(rng.integers(1, 4))
        kw = dict(
            c=rng.normal(size=n), sense="min",
            a_ub=rng.normal(size=(m_ub, n)), b_ub=rng.normal(size=m_ub) + 1.0,
            lower=np.zeros(n), upper=rng.uniform(0.5, 3.0, size=n),
        )
        if rng.random() < 0.5:
            kw.update(a_eq=np.ones((1, n)), b_eq=np.array([1.0]))
        p = LpProblem(**kw)
        sol = solve_lp(p)
        vertices = enumerate_lp_vertices(p)
        if sol.status is SolveStatus.OPTIMAL:
            best = min(float(p.c @ v) for v in vertices)
            assert sol.objective == pytest.approx(best, abs=1e-9)
            checked += 1
        else:
            assert sol.status is SolveStatus.INFEASIBLE
            assert not vertices
    assert checked >= 30


def test_duality_gap_certificate():
    rng = np.random.default_rng(7)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        p = LpProblem(
            c=rng.normal(size=n), sense="min",
            a_eq=np.ones((1, n)), b_eq=np.array([1.0]),
            a_ub=rng.normal(size=(2, n)), b_ub=rng.normal(size=2) + 1.5,
            lower=np.zeros(n), upper=np.full(n, 1.0),
        )
        sol = solve_lp(p)
        if sol.status is SolveStatus.OPTIMAL:
            gap = abs(sol.objective - dual_objective(p, sol))
            assert gap <= 1e-9 * (1.0 + abs(sol.objective))


def test_vertex_property_interior_count():
    # variables strictly between their bounds never exceed the number of rows
    rng = np.random.default_rng(17)
    for _ in range(30):
        n = int(rng.integers(3, 8))
        m = int(rng.integers(1, 4))
        p = LpProblem(
            c=rng.normal(size=n), sense="min",
            a_eq=np.ones((1, n)), b_eq=np.array([1.0]),
            a_ub=rng.normal(size=(m, n)), b_ub=rng.normal(size=m) + 1.0,
            lower=np.zeros(n), upper=np.full(n, 0.8),
        )
        sol = solve_lp(p)
        if sol.status is SolveStatus.OPTIMAL:
            strict = np.sum((sol.v > p.lower + 1e-7) & (sol.v < p.upper - 1e-7))
            assert strict <= 1 + m


def test_beale_cycling_example_terminates():
    p = LpProblem(
        c=[-0.75, 150.0, -0.02, 6.0],
        a_ub=[[0.25, -60.0, -0.04, 9.0],
              [0.5, -90.0, -0.02, 3.0],
              [0.0, 0.0, 1.0, 0.0]],
        b_ub=[0.0, 0.0, 1.0],
        lower=[0.0] * 4,
    )
    sol = solve_lp(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-0.05)


# Beale's example with its rows and columns rescaled so that Dantzig pricing
# with the largest-|pivot| tie-break cycles through six degenerate bases
SCALED_BEALE_A = np.array([[0.25, -240.0, -0.16, 36.0],
                           [0.125, -90.0, -0.02, 3.0],
                           [0.0, 0.0, 4.0, 0.0]])
SCALED_BEALE_B = np.array([0.0, 0.0, 1.0])
SCALED_BEALE_C = np.array([-0.75, 600.0, -0.08, 24.0])


def test_scaled_beale_cycle_ends_under_the_smallest_index_rule(monkeypatch):
    # With the smallest-index rule switched off the scaled Beale LP never
    # ends. The repeated basis turns the rule on, and the solve finishes in
    # 12 pivots.
    bland_steps = []
    note_step = SimplexState._note_step

    def recorded(self, step, bland, start, seen):
        bland = note_step(self, step, bland, start, seen)
        bland_steps.append(bland)
        return bland

    monkeypatch.setattr(SimplexState, "_note_step", recorded)
    p = LpProblem(c=SCALED_BEALE_C, a_ub=SCALED_BEALE_A, b_ub=SCALED_BEALE_B, lower=np.zeros(4))
    sol = solve_lp(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-0.05)
    assert sol.pivots <= 20
    assert any(bland_steps)


def _reopen_scaled_beale_dual() -> tuple[SimplexState, SolveStatus, int]:
    # The LP dual of the scaled Beale LP, min b @ u over -A' u <= c, u >= 0,
    # reopened at its slack basis: that basis is dual feasible (b >= 0) and
    # breaks two rows (c has two negative entries), and the dual loop's
    # tableau is the negated transpose of the primal loop's, so the dual
    # simplex retraces the primal cycle. Returns the state, the reopen's
    # status and its pivots.
    dual = LpProblem(c=SCALED_BEALE_B, a_ub=-SCALED_BEALE_A.T, b_ub=SCALED_BEALE_C,
                     lower=np.zeros(3))
    state = SimplexState(dual)
    before = state.pivots
    slacks = Basis(np.arange(3, 7), np.full(7, AT_LOWER, dtype=np.int8))
    status = state.reopen(slacks, dual.c, dual.lower, dual.upper)
    return state, status, state.pivots - before


def test_degenerate_stall_hits_bland_rule(monkeypatch):
    # The dual loop repeats a basis after six degenerate steps, takes four
    # smallest-index steps, and ends at the dual optimum 0.05 = -(-0.05).
    # With the rule held off the same loop runs until the pivot limit.
    loop, steps = [], []
    note_step, run, dual_run = SimplexState._note_step, SimplexState.run, SimplexState.dual_run

    def recorded(self, step, bland, start, seen):
        steps.append((loop[-1], note_step(self, step, bland, start, seen)))
        return steps[-1][1]

    def named(name, method):
        def entered(self, cost):
            loop.append(name)
            return method(self, cost)
        return entered

    monkeypatch.setattr(SimplexState, "_note_step", recorded)
    monkeypatch.setattr(SimplexState, "run", named("primal", run))
    monkeypatch.setattr(SimplexState, "dual_run", named("dual", dual_run))
    state, status, pivots = _reopen_scaled_beale_dual()
    assert status is SolveStatus.OPTIMAL
    assert float(SCALED_BEALE_B @ state.vertex) == pytest.approx(0.05)
    assert pivots == 12
    assert [bland for name, bland in steps if name == "dual"].count(True) == 4
    assert not any(bland for name, bland in steps if name == "primal")

    def held_off(self, step, bland, start, seen):
        note_step(self, step, bland, start, seen)
        return False

    monkeypatch.setattr(lp_solver, "PIVOT_LIMIT", 1000)
    monkeypatch.setattr(SimplexState, "_note_step", held_off)
    with pytest.raises(RuntimeError, match="pivot limit"):
        _reopen_scaled_beale_dual()


def test_coincident_rows_at_the_optimum():
    # many coincident constraints at the optimum force degenerate pivots
    n = 6
    p = LpProblem(
        c=-np.ones(n), sense="min",
        a_ub=np.vstack([np.eye(n), np.eye(n), np.ones((1, n))]),
        b_ub=np.concatenate([np.zeros(n), np.zeros(n), [0.0]]),
        lower=np.zeros(n),
    )
    sol = solve_lp(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(0.0, abs=1e-12)


def test_kept_state_matches_cold_solves_with_fewer_pivots():
    rng = np.random.default_rng(5)
    for _ in range(6):
        n = int(rng.integers(10, 40))
        a_ub = rng.normal(size=(int(rng.integers(1, 4)), n))
        region = dict(a_eq=np.ones((1, n)), b_eq=np.array([1.0]),
                      a_ub=a_ub, b_ub=a_ub.mean(axis=1) + rng.uniform(0.05, 0.5, a_ub.shape[0]),
                      lower=np.zeros(n), upper=np.full(n, rng.uniform(0.2, 1.0)))
        state = SimplexState(LpProblem(c=np.zeros(n), **region))
        cold_pivots = 0
        for _ in range(8):
            cost = rng.normal(size=n)
            cold = solve_lp(LpProblem(c=cost, **region))
            cold_pivots += cold.pivots
            assert state.minimize(cost) is SolveStatus.OPTIMAL
            assert cold.status is SolveStatus.OPTIMAL
            assert float(cost @ state.vertex) == pytest.approx(cold.objective, abs=1e-9)
        assert state.pivots < cold_pivots


def test_pivot_limit_bounds_each_loop_not_the_call(monkeypatch):
    # Alternate minimize and reopen calls on one state, first without a
    # binding limit, recording the pivots of each simplex loop (phase 1,
    # phase 2, the dual loop) and of each call. At a PIVOT_LIMIT equal to
    # the largest loop's pivots, the same calls, some of which take more
    # than that, must give the same vertices; one pivot less must stop it.
    rng = np.random.default_rng(91)
    n = 30
    a_ub = rng.normal(size=(3, n))
    region = LpProblem(c=np.zeros(n), a_eq=np.ones((1, n)), b_eq=[1.0], a_ub=a_ub,
                       b_ub=a_ub.mean(axis=1) + 0.3, lower=np.zeros(n), upper=np.full(n, 0.5))
    costs = rng.normal(size=(4, n))
    loops = []

    def counted(method):
        def loop(self, cost):
            before = self.pivots
            outcome = method(self, cost)
            loops.append(self.pivots - before)
            return outcome
        return loop

    monkeypatch.setattr(SimplexState, "run", counted(SimplexState.run))
    monkeypatch.setattr(SimplexState, "dual_run", counted(SimplexState.dual_run))

    def replay() -> tuple[list[int], list[np.ndarray]]:
        state = SimplexState(region)
        calls, vertices = [], []
        for cost in costs:
            before = state.pivots if calls else 0
            assert state.minimize(cost) is SolveStatus.OPTIMAL
            calls.append(state.pivots - before)
            vertices.append(state.vertex)
            upper = region.upper.copy()
            upper[np.argmax(state.vertex)] = 0.0   # the down branch on the largest weight
            before = state.pivots
            assert state.reopen(state.basis(), cost, region.lower, upper) is SolveStatus.OPTIMAL
            calls.append(state.pivots - before)
            vertices.append(state.vertex)
        return calls, vertices

    calls, vertices = replay()
    limit = max(loops)
    assert sum(loops) == sum(calls)
    assert max(calls) > limit   # a per-call budget of `limit` would stop these calls
    monkeypatch.setattr(lp_solver, "PIVOT_LIMIT", limit)
    again, same = replay()
    assert again == calls
    assert all(np.array_equal(a, b) for a, b in zip(same, vertices))
    monkeypatch.setattr(lp_solver, "PIVOT_LIMIT", limit - 1)
    with pytest.raises(RuntimeError, match="pivot limit"):
        replay()


def test_max_violation_of_non_finite_vector_is_inf():
    p = LpProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                  lower=[0.0, 0.0], upper=[1.0, 1.0])
    assert _max_violation(p, np.array([0.5, 0.5])) == 0.0
    assert _max_violation(p, np.array([0.75, 0.5])) == pytest.approx(0.25)
    for v in ([np.nan, 0.5], [np.nan, np.nan], [np.inf, 0.0], [-np.inf, 1.0]):
        assert _max_violation(p, np.array(v)) == np.inf


def test_max_violation_checks_the_bounds_it_is_given():
    p = LpProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                  lower=[0.0, 0.0], upper=[1.0, 1.0])
    v = np.array([0.75, 0.25])
    assert _max_violation(p, v) == 0.0
    assert _max_violation(p, v, np.zeros(2), np.array([0.5, 1.0])) == pytest.approx(0.25)
    assert _max_violation(p, v, np.array([0.0, 0.5]), p.upper) == pytest.approx(0.25)


def test_equality_matches_two_opposing_inequalities():
    # max y s.t. y <= r_t' x every day, sum x = 1, 0 <= x <= 0.5: the budget
    # row as an equality and as a pair of opposing inequalities
    rng = np.random.default_rng(47)
    n, t_days = 5, 8
    r = rng.normal(0.001, 0.02, (n, t_days))
    c = np.concatenate([np.zeros(n), [1.0]])
    days = np.hstack([-r.T, np.ones((t_days, 1))])
    budget = np.concatenate([np.ones(n), [0.0]])[None, :]
    bounds = dict(lower=np.concatenate([np.zeros(n), [-np.inf]]),
                  upper=np.concatenate([np.full(n, 0.5), [np.inf]]))
    direct = solve_lp(LpProblem(c=c, sense="max", a_eq=budget, b_eq=[1.0],
                                a_ub=days, b_ub=np.zeros(t_days), **bounds))
    split = solve_lp(LpProblem(c=c, sense="max", a_ub=np.vstack([days, budget, -budget]),
                               b_ub=np.concatenate([np.zeros(t_days), [1.0, -1.0]]), **bounds))
    assert direct.status is SolveStatus.OPTIMAL and split.status is SolveStatus.OPTIMAL
    assert direct.objective == pytest.approx(split.objective, abs=1e-9)


def test_max_sense_negates_properly():
    p = LpProblem(c=[3.0, 5.0], sense="max",
                  a_ub=[[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]], b_ub=[4.0, 12.0, 18.0])
    sol = solve_lp(p)
    assert sol.objective == pytest.approx(36.0)
    assert np.allclose(sol.v, [2.0, 6.0])


def test_free_variable_handling():
    # min x + y with x free, y >= 0, x + y >= -2  ->  x = -2, y = 0
    p = LpProblem(c=[1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[2.0],
                  lower=[-np.inf, 0.0], upper=[np.inf, np.inf])
    sol = solve_lp(p)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(-2.0)


def _drift_problem():
    rng = np.random.default_rng(59)
    n = 8
    return LpProblem(c=rng.normal(0.0, 1.0, n), a_eq=np.ones((1, n)), b_eq=[1.0],
                     a_ub=rng.normal(0.0, 1.0, (3, n)), b_ub=np.full(3, 0.5),
                     lower=np.zeros(n), upper=np.full(n, 0.4))


def test_drift_guard_reruns_phase1_on_singular_refactorization(monkeypatch):
    # Fake a drifted final vertex once; the guard's refactorization then
    # fails once as singular, so the state must re-solve from phase 1.
    from portopt import lp_solver
    problem = _drift_problem()
    cold = solve_lp(problem)
    real_violation, real_refactorize = lp_solver._max_violation, SimplexState.refactorize
    faults = {"drift": 1, "singular": 1}

    def violation(p, v, *bounds):
        if faults["drift"]:
            faults["drift"] -= 1
            return 1.0
        return real_violation(p, v, *bounds)

    def refactorize(state):
        if faults["singular"]:
            faults["singular"] -= 1
            raise np.linalg.LinAlgError("Singular matrix")
        real_refactorize(state)

    monkeypatch.setattr(lp_solver, "_max_violation", violation)
    monkeypatch.setattr(SimplexState, "refactorize", refactorize)
    sol = solve_lp(problem)
    assert faults == {"drift": 0, "singular": 0}
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(cold.objective, abs=1e-12)
    assert sol.pivots > cold.pivots  # both phases ran again


def test_drift_guard_refuses_a_vertex_that_stays_infeasible(monkeypatch):
    from portopt import lp_solver
    monkeypatch.setattr(lp_solver, "_max_violation", lambda p, v, *bounds: 0.25)
    with pytest.raises(RuntimeError, match="violates a row or bound by 0.25"):
        solve_lp(_drift_problem())


def test_minimize_refactorizes_only_in_the_drift_guard(monkeypatch):
    # Calls continue from the B^-1 the previous call left, so many
    # objectives run without a LAPACK call. Each faked drifted vertex makes
    # the guard refactorize once, and the re-solved vertex is a cold solve's
    # optimum.
    from portopt import lp_solver
    problem = _drift_problem()
    costs = np.random.default_rng(61).normal(size=(6, problem.n_vars))
    state = SimplexState(problem)
    for cost in costs:
        assert state.minimize(cost) is SolveStatus.OPTIMAL
    assert state.factorizations == 0
    real_violation = lp_solver._max_violation
    faked = [True, False, True, False]   # each call: the guard's check, then the re-check

    def violation(p, v, *bounds):
        return 1.0 if faked.pop(0) else real_violation(p, v, *bounds)

    cold = solve_lp(dataclasses.replace(problem, c=costs[-1]))
    monkeypatch.setattr(lp_solver, "_max_violation", violation)
    for count in (1, 2):
        assert state.minimize(costs[-1]) is SolveStatus.OPTIMAL
        assert state.factorizations == count
        assert float(costs[-1] @ state.vertex) == pytest.approx(cold.objective, abs=1e-12)
    assert faked == []


def _cold_start_point(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Every variable at its finite lower bound, else its finite upper bound, else 0."""
    return np.where(np.isfinite(lower), lower, np.where(np.isfinite(upper), upper, 0.0))


def _start_residual(p: LpProblem) -> np.ndarray:
    """b_ub - A_ub v at the cold start point."""
    return p.b_ub - p.a_ub @ _cold_start_point(p.lower, p.upper)


def test_rows_satisfied_at_the_start_need_no_phase1_pivot():
    rng = np.random.default_rng(61)
    n = 12
    p = LpProblem(c=rng.normal(size=n), a_ub=rng.uniform(0.0, 1.0, (6, n)),
                  b_ub=rng.uniform(0.5, 2.0, 6), lower=np.zeros(n), upper=np.ones(n))
    assert np.all(_start_residual(p) >= 0)
    state = SimplexState(p)
    assert state.feasible
    assert state.pivots == 0
    assert np.array_equal(state.vertex, np.zeros(n))


def test_region_infeasible_only_through_a_crashed_row():
    # each region is feasible without its first <= row, which starts with its
    # slack basic; the other rows need an artificial
    cases = [
        LpProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[2.0],
                  a_ub=[[1.0, 1.0]], b_ub=[1.0], lower=[0.0, 0.0], upper=[2.0, 2.0]),
        LpProblem(c=[1.0, -1.0], a_ub=[[1.0, 0.0], [-1.0, 0.0]], b_ub=[1.0, -1.5],
                  lower=[0.0, 0.0], upper=[3.0, 1.0]),
    ]
    for p in cases:
        residual = _start_residual(p)
        assert residual[0] >= 0 and np.all(residual[1:] < 0)
        relaxed = LpProblem(c=p.c, a_eq=p.a_eq, b_eq=p.b_eq, a_ub=p.a_ub[1:], b_ub=p.b_ub[1:],
                            lower=p.lower, upper=p.upper)
        assert solve_lp(relaxed).status is SolveStatus.OPTIMAL
        assert solve_lp(p).status is SolveStatus.INFEASIBLE


def test_fixture_mad_pivots(fixture_train):
    problem, _ = mad_problem(fixture_train, ModelConfig(rho=FIXTURE_RHO))
    sol = solve_lp(problem)
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.pivots <= 300
    assert abs(sol.objective - 0.006195121614436907) <= 1e-12


def test_matches_highs_on_random_lps():
    # Bounds mix [l, inf), [l, u], free and (-inf, u] columns; <= rows have
    # right-hand sides of both signs, so crashed and artificial rows both
    # occur, and some instances add equality rows. A quarter are degenerate:
    # every <= row, one of them twice, is tight at the cold start.
    rng = np.random.default_rng(67)
    seen = {s: 0 for s in HIGHS_STATUS.values()}
    seen.update(degenerate_optimal=0, crashed=0, artificial=0, eq=0, free=0)
    for _ in range(400):
        n = int(rng.integers(2, 9))
        kind = rng.choice(["lower", "box", "free", "upper"], size=n, p=[0.4, 0.3, 0.2, 0.1])
        lower = np.where(np.isin(kind, ["lower", "box"]), rng.uniform(-1, 1, n).round(2), -np.inf)
        upper = np.where(kind == "box", lower + rng.uniform(0.5, 3.0, n).round(2),
                         np.where(kind == "upper", rng.uniform(-1, 1, n).round(2), np.inf))
        a_ub = rng.normal(size=(int(rng.integers(1, 6)), n)).round(2)
        degenerate = rng.random() < 0.25
        if degenerate:
            a_ub = np.vstack([a_ub, a_ub[:1]])
            b_ub = a_ub @ _cold_start_point(lower, upper)
        else:
            b_ub = rng.normal(0.0, 1.5, a_ub.shape[0]).round(2)
        kw = dict(c=rng.normal(size=n).round(2), sense=str(rng.choice(["min", "max"])),
                  a_ub=a_ub, b_ub=b_ub, lower=lower, upper=upper)
        m_eq = int(rng.integers(0, 3))
        if m_eq:
            kw.update(a_eq=rng.normal(size=(m_eq, n)).round(2),
                      b_eq=rng.normal(size=m_eq).round(2))
        p = LpProblem(**kw)
        sol = solve_lp(p)
        status, objective = highs_lp(p)
        assert sol.status is status
        seen[status] += 1
        residual = _start_residual(p)
        seen["crashed"] += int(np.sum(residual >= 0))
        seen["artificial"] += int(np.sum(residual < 0)) + m_eq
        seen["eq"] += m_eq > 0
        seen["free"] += bool(np.any(kind == "free"))
        if status is SolveStatus.OPTIMAL:
            seen["degenerate_optimal"] += degenerate
            assert abs(sol.objective - objective) <= 1e-9 * (1 + abs(objective))
            assert abs(dual_objective(p, sol) - sol.objective) <= 1e-9 * (1 + abs(objective))
    assert min(seen.values()) >= 25, seen


def _child(p: LpProblem, v: np.ndarray, kind: str, rng,
           columns: list[int] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of a child of p whose optimum is v.

    "down" and "up" move one column's bound past v, from above or from below,
    as the two sides of a branch do; "branch" is either side; "fix" fixes one
    column at or near v; "several" tightens two or three columns at once.
    `columns` picks the columns instead of a random draw. Some children are
    infeasible.
    """
    n = p.n_vars
    lower, upper = p.lower.copy(), p.upper.copy()
    if columns is None:
        columns = rng.choice(n, size=min(n, int(rng.integers(2, 4))), replace=False)
        columns = columns if kind == "several" else columns[:1]
    for j in columns:
        move = rng.uniform(0.1, 1.5)
        side = kind if kind in ("down", "up") else str(rng.choice(["down", "up"]))
        if kind == "fix":
            lower[j] = upper[j] = v[j] + rng.choice([-move, 0.0, move])
        elif side == "down":
            upper[j] = v[j] - move
            lower[j] = min(lower[j], upper[j])
        else:
            lower[j] = v[j] + move
            upper[j] = max(upper[j], lower[j])
    return lower, upper


def test_reopen_matches_cold_solves_and_highs():
    # A parent LP is solved, then its one state is re-opened several times in
    # a row under changed bounds: both children of a branch on one column,
    # from the parent's basis, then a third bound change, from the basis of
    # the last child solved to optimality (a grandchild) or else from the
    # parent's. Every re-solve must agree with a cold solve of its child and
    # with HiGHS, and take fewer pivots than the cold solves. A repeated
    # equality row leaves an artificial basic, and such a basis re-opens
    # through phase 1. A child that phase 1 proves infeasible leaves its
    # artificials unlocked and basic in the state the next re-open uses.
    # (Here that next re-open runs phase 1 again; the test below covers a
    # dual-simplex re-open after it.)
    rng = np.random.default_rng(71)
    kinds = ("branch", "fix", "several")
    seen = dict.fromkeys(kinds + ("grandchild", "artificial", "phase1_infeasible",
                                  "after_phase1_infeasible"), 0)
    seen.update({SolveStatus.INFEASIBLE: 0, SolveStatus.OPTIMAL: 0})
    warm_pivots = cold_pivots = 0
    while min(seen.values()) < 20 or sum(seen[k] for k in kinds) < 120:
        n = int(rng.integers(2, 9))
        kind = rng.choice(["lower", "box", "free", "upper"], size=n, p=[0.4, 0.3, 0.2, 0.1])
        lower = np.where(np.isin(kind, ["lower", "box"]), rng.uniform(-1, 1, n).round(2), -np.inf)
        upper = np.where(kind == "box", lower + rng.uniform(0.5, 3.0, n).round(2),
                         np.where(kind == "upper", rng.uniform(-1, 1, n).round(2), np.inf))
        kw = dict(c=rng.normal(size=n).round(2), sense=str(rng.choice(["min", "max"])),
                  a_ub=rng.normal(size=(int(rng.integers(1, 6)), n)).round(2),
                  lower=lower, upper=upper)
        kw["b_ub"] = rng.normal(0.0, 1.5, kw["a_ub"].shape[0]).round(2)
        m_eq = int(rng.integers(0, 3))
        if m_eq:
            a_eq = rng.normal(size=(m_eq, n)).round(2)
            b_eq = rng.normal(size=m_eq).round(2)
            if rng.random() < 0.5:   # tight at the cold start: artificials start basic at 0
                b_eq = a_eq @ _cold_start_point(lower, upper)
            repeat = np.arange(m_eq + 1) % m_eq if rng.random() < 0.25 else np.arange(m_eq)
            kw.update(a_eq=a_eq[repeat], b_eq=b_eq[repeat])
        parent = LpProblem(**kw)
        sign = 1.0 if parent.sense == "min" else -1.0
        state = SimplexState(parent)
        if state.minimize(sign * parent.c) is not SolveStatus.OPTIMAL:
            continue
        column = [int(rng.integers(n))]
        root = latest = (parent, state.vertex, state.basis())
        infeasible_phase1 = False
        for change in ("down", "up", str(rng.choice(kinds))):
            if change in kinds:
                seen[change] += 1
                seen["grandchild"] += latest is not root
                base, v, start = latest
                lo, up = _child(base, v, change, rng)
            else:
                base, v, start = root
                lo, up = _child(base, v, change, rng, column)
            child = LpProblem(c=parent.c, sense=parent.sense, a_eq=parent.a_eq,
                              b_eq=parent.b_eq, a_ub=parent.a_ub, b_ub=parent.b_ub,
                              lower=lo, upper=up)
            through_phase1 = bool(np.any(start.basic >= start.status.size))
            seen["artificial"] += through_phase1
            seen["after_phase1_infeasible"] += infeasible_phase1
            before = state.pivots
            status = state.reopen(start, sign * parent.c, lo, up)
            warm_pivots += state.pivots - before
            cold = solve_lp(child)
            cold_pivots += cold.pivots
            highs_status, highs_objective = highs_lp(child)
            assert status is cold.status is highs_status
            seen[status] += 1
            infeasible_phase1 = through_phase1 and status is SolveStatus.INFEASIBLE
            seen["phase1_infeasible"] += infeasible_phase1
            if status is SolveStatus.OPTIMAL:
                objective = float(child.c @ state.vertex)
                assert _max_violation(child, state.vertex) <= 1e-7
                for reference in (cold.objective, highs_objective):
                    assert abs(objective - reference) <= 1e-9 * (1 + abs(reference))
                if change not in kinds:
                    latest = (child, state.vertex, state.basis())
    assert warm_pivots < cold_pivots, (warm_pivots, cold_pivots)


def test_dual_reopen_after_an_infeasible_phase1_keeps_artificials_locked():
    # x0 is fixed at 0 in the parent and alone in the row x0 = 0, so that
    # row's artificial stays basic at zero and the parent's basis re-opens
    # through phase 1. The first child frees x0 and phase 1 evicts the
    # artificial; the second child's phase 1 proves x0 >= 0.5 infeasible and
    # leaves a new artificial on [0, inf), basic at 0.5. The grandchild
    # re-opens from the first child's basis by the dual simplex, in the same
    # state, where that artificial must be locked again: left free, it
    # would let x0 rise to 1.
    parent = LpProblem(c=[-1.0, -1.0, -2.0], a_eq=[[1.0, 0.0, 0.0]], b_eq=[0.0],
                       a_ub=[[0.0, 1.0, 1.0]], b_ub=[1.0],
                       lower=[0.0, 0.0, 0.0], upper=[0.0, 1.0, 1.0])
    state = SimplexState(parent)
    assert state.minimize(parent.c) is SolveStatus.OPTIMAL
    root = state.basis()
    assert np.any(root.basic >= root.status.size)
    free = state.reopen(root, parent.c, np.array([-1.0, 0.0, 0.0]), np.ones(3))
    assert free is SolveStatus.OPTIMAL
    child = state.basis()
    assert not np.any(child.basic >= child.status.size)
    lifted = state.reopen(root, parent.c, np.array([0.5, 0.0, 0.0]), np.ones(3))
    assert lifted is SolveStatus.INFEASIBLE
    lower, upper = np.array([-1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.5])
    assert state.reopen(child, parent.c, lower, upper) is SolveStatus.OPTIMAL
    cold = solve_lp(LpProblem(c=parent.c, a_eq=parent.a_eq, b_eq=parent.b_eq,
                              a_ub=parent.a_ub, b_ub=parent.b_ub, lower=lower, upper=upper))
    assert state.vertex.tolist() == [0.0, 0.5, 0.5]
    assert float(parent.c @ state.vertex) == cold.objective == -1.5


def test_dual_degenerate_child_terminates_at_the_cold_objective():
    # min w over x_i <= y_i and sum(y) - w <= k/2 - 1 rests at zero with every
    # slack basic. Raising each x_i's lower bound to 0.5 leaves every row
    # x_i <= y_i violated, and each is repaired by a y_i whose reduced cost is
    # zero: k degenerate dual pivots, none of which repeats a basis, before
    # the last row prices w in.
    k = 60
    a_ub = np.zeros((k + 1, 2 * k + 1))
    a_ub[:k, :k] = np.eye(k)
    a_ub[:k, k:2 * k] = -np.eye(k)
    a_ub[k, k:] = np.concatenate([np.ones(k), [-1.0]])
    upper = np.concatenate([np.ones(2 * k), [np.inf]])
    parent = LpProblem(c=np.concatenate([np.zeros(2 * k), [1.0]]), a_ub=a_ub,
                       b_ub=np.concatenate([np.zeros(k), [k / 2 - 1.0]]),
                       lower=np.zeros(2 * k + 1), upper=upper)
    state = SimplexState(parent)
    assert state.minimize(parent.c) is SolveStatus.OPTIMAL
    assert state.pivots == 0
    lower = np.concatenate([np.full(k, 0.5), np.zeros(k + 1)])
    status = state.reopen(state.basis(), parent.c, lower, upper)
    cold = solve_lp(LpProblem(c=parent.c, a_ub=parent.a_ub, b_ub=parent.b_ub,
                              lower=lower, upper=upper))
    assert status is cold.status is SolveStatus.OPTIMAL
    assert state.pivots > k
    assert float(parent.c @ state.vertex) == pytest.approx(cold.objective, abs=1e-12)
    assert cold.objective == pytest.approx(1.0)


def test_reopen_moves_a_free_nonbasic_onto_its_new_bound():
    # w is free and costs nothing, and its one row x + w <= 4 is slack, so it
    # rests nonbasic at 0; a child that bounds it below by 1 must start it at
    # that bound
    parent = LpProblem(c=[1.0, 0.0], a_ub=[[-1.0, 0.0], [1.0, 1.0]], b_ub=[-2.0, 4.0],
                       lower=[0.0, -np.inf], upper=[np.inf, np.inf])
    state = SimplexState(parent)
    assert state.minimize(parent.c) is SolveStatus.OPTIMAL
    assert state.basis().status[1] == FREE
    lower = np.array([0.0, 1.0])
    status = state.reopen(state.basis(), parent.c, lower, parent.upper)
    assert status is SolveStatus.OPTIMAL
    assert state.vertex[1] >= 1.0 and float(parent.c @ state.vertex) == pytest.approx(2.0)


def _moved(p: LpProblem, rng, scale: float, c: np.ndarray) -> LpProblem:
    """p with cost c, and every row coefficient and right-hand side moved by
    relative noise of size `scale`; the bounds and the shape are p's."""
    def move(a):
        return a * (1.0 + scale * rng.normal(size=a.shape))
    return LpProblem(c=c, sense=p.sense, a_eq=move(p.a_eq), b_eq=move(p.b_eq),
                     a_ub=move(p.a_ub), b_ub=move(p.b_ub), lower=p.lower, upper=p.upper)


def test_warm_starts_on_perturbed_lps_match_highs():
    # A random LP is solved, its rows moved by relative noise from 1e-6 to
    # 0.3, half the time under a new cost, and the moved LP solved from the
    # first solve's basis. Small moves keep that basis primal feasible and
    # phase 1 is skipped (under a new cost phase 2 then pivots); large ones,
    # or a basis that holds an artificial, send the solve through phase 1.
    # Either way the status and objective are HiGHS's and the cold solve's,
    # and the dual bound certifies the optimum.
    rng = np.random.default_rng(89)
    seen = dict(warm=0, warm_pivots=0, cold=0, artificial=0)
    seen.update(dict.fromkeys(HIGHS_STATUS.values(), 0))
    while min(seen.values()) < 20:
        n = int(rng.integers(2, 9))
        kind = rng.choice(["lower", "box", "free"], size=n, p=[0.5, 0.35, 0.15])
        lower = np.where(kind == "free", -np.inf, rng.uniform(-1, 1, n).round(2))
        upper = np.where(kind == "box", lower + rng.uniform(0.5, 3.0, n).round(2), np.inf)
        m_ub, m_eq = int(rng.integers(1, 6)), int(rng.integers(0, 3))
        kw = dict(c=rng.normal(size=n).round(2), sense=str(rng.choice(["min", "max"])),
                  a_ub=rng.normal(size=(m_ub, n)).round(2),
                  b_ub=rng.normal(0.5, 1.5, m_ub).round(2), lower=lower, upper=upper)
        if m_eq:
            kw.update(a_eq=rng.normal(size=(m_eq, n)).round(2),
                      b_eq=rng.normal(size=m_eq).round(2))
        base = LpProblem(**kw)
        first = solve_lp(base)
        cost = rng.normal(size=n).round(2) if rng.random() < 0.5 else base.c
        moved = _moved(base, rng, float(10.0 ** rng.uniform(-6, -0.5)), cost)
        sol, cold = solve_lp(moved, start=first.basis), solve_lp(moved)
        status, objective = highs_lp(moved)
        assert sol.status is cold.status is status
        assert not cold.warm
        seen[status] += 1
        seen["warm" if sol.warm else "cold"] += 1
        seen["warm_pivots"] += sol.warm and sol.pivots > 0
        seen["artificial"] += bool(np.any(first.basis.basic >= first.basis.status.size))
        if status is SolveStatus.OPTIMAL:
            assert _max_violation(moved, sol.v) <= 1e-7
            for value in (sol.objective, dual_objective(moved, sol)):
                assert abs(value - objective) <= 1e-9 * (1 + abs(objective))
                assert abs(value - cold.objective) <= 1e-9 * (1 + abs(objective))


def test_start_basis_checks():
    # x0 and x1 have the same column in both rows, so any basis holding both
    # is singular; the state falls back to phase 1 for it, for a basis of
    # another shape and for one that marks a column BASIC without it being
    # basic, and takes the optimal basis it left.
    p = LpProblem(c=[-1.0, -2.0, -1.5], a_ub=[[1.0, 1.0, 1.0], [1.0, 1.0, 3.0]],
                  b_ub=[4.0, 6.0], upper=[3.0, 3.0, 3.0])
    cold = solve_lp(p)
    assert cold.status is SolveStatus.OPTIMAL and not cold.warm
    statuses = np.array([3, 3, 0, 0, 0], dtype=np.int8)   # BASIC, BASIC, then at lower
    starts = [Basis(np.array([0, 1]), statuses),
              Basis(np.array([0]), statuses[:4]),
              Basis(np.array([2, 3]), np.array([3, 3, 3, 3, 0], dtype=np.int8))]
    for start in starts:
        state = SimplexState(p, start=start)
        assert not state.warm and state.feasible
        sol = solve_lp(p, start=start)
        assert (sol.objective, sol.pivots, sol.warm) == (cold.objective, cold.pivots, False)
    warm = solve_lp(p, start=cold.basis)
    assert warm.warm and warm.pivots == 0 and warm.objective == cold.objective


def _record_oracle_states(monkeypatch) -> list:
    """Collect every SimplexState that solve_qp builds."""
    from portopt import qp_solver
    states = []

    class Recorded(SimplexState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(qp_solver, "SimplexState", Recorded)
    return states


def _fixture_markowitz(fixture_stats):
    return markowitz_problem(fixture_stats, ModelConfig(rho=FIXTURE_RHO))[0]


def test_reused_factorization_equals_a_fresh_solve(fixture_stats, monkeypatch):
    # The QP solve builds one state: its phase 1 gives the active-set start
    # and its one certifying oracle call continues from the B^-1 that phase 1
    # left (4 pivots in all). It never refactorizes, and the B^-1 it keeps
    # matches a fresh inverse to rounding.
    states = _record_oracle_states(monkeypatch)
    sol = solve_qp(_fixture_markowitz(fixture_stats))
    (state,) = states
    assert sol.status is SolveStatus.OPTIMAL
    assert (state.pivots, state.factorizations) == (4, 0)
    fresh = np.linalg.inv(state.g[:, state.basic])
    assert np.abs(state.binv - fresh).max() <= 1e-14


def _assert_kept_inverse(state: SimplexState):
    """binv inverts the basis, and the basic values solve
    B x_B = h - G_N x_N afresh."""
    b = state.g[:, state.basic]
    assert np.abs(state.binv @ b - np.eye(state.m)).max() <= 1e-10
    x = state.solution()
    x_n = x.copy()
    x_n[state.basic] = 0.0
    fresh = np.linalg.solve(b, state.h - state.g @ x_n)
    assert np.abs(x[state.basic] - fresh).max() <= 1e-10


def test_kept_inverse_along_a_search_chain():
    # One state per random LP takes a branch-and-bound-like chain of calls:
    # `minimize` at the root, then depth first, each child of a branch on one
    # column reopened from its parent's basis, and now and then `minimize`
    # under a new cost at the node the state is at. After every call the kept
    # B^-1 and the basic values it gives match a fresh solve, and the status
    # and objective are HiGHS's for that node's bounds and cost.
    rng = np.random.default_rng(97)
    seen = dict(eq_rows=0, free=0, box=0, reopen=0, new_cost=0, infeasible=0, unbounded=0)
    calls = 0

    def check(state, p, cost, status):
        nonlocal calls
        calls += 1
        _assert_kept_inverse(state)
        node = dataclasses.replace(p, c=cost, sense="min", lower=state.lower[:p.n_vars],
                                   upper=state.upper[:p.n_vars])
        expected, objective = highs_lp(node)
        assert status is expected
        seen["infeasible"] += status is SolveStatus.INFEASIBLE
        seen["unbounded"] += status is SolveStatus.UNBOUNDED
        if status is SolveStatus.OPTIMAL:
            value = float(cost @ state.vertex)
            assert abs(value - objective) <= 1e-9 * (1 + abs(objective))
        return status is SolveStatus.OPTIMAL

    while min(seen.values()) < 20 or calls < 400:
        n = int(rng.integers(3, 10))
        kind = rng.choice(["lower", "box", "free"], size=n, p=[0.4, 0.4, 0.2])
        lower = np.where(kind == "free", -np.inf, rng.uniform(-1, 1, n).round(2))
        upper = np.where(kind == "box", lower + rng.uniform(0.5, 3.0, n).round(2), np.inf)
        m_ub, m_eq = int(rng.integers(1, 6)), int(rng.integers(0, 3))
        kw = dict(c=rng.normal(size=n).round(2), a_ub=rng.normal(size=(m_ub, n)).round(2),
                  b_ub=rng.normal(0.5, 1.5, m_ub).round(2), lower=lower, upper=upper)
        if m_eq:
            kw.update(a_eq=rng.normal(size=(m_eq, n)).round(2),
                      b_eq=rng.normal(size=m_eq).round(2))
        p = LpProblem(**kw)
        seen["eq_rows"] += m_eq > 0
        seen["free"] += "free" in kind
        seen["box"] += "box" in kind
        state = SimplexState(p)
        if not check(state, p, p.c, state.minimize(p.c)):
            continue
        nodes = [(state.lower[:n].copy(), state.upper[:n].copy(), p.c, state.basis(),
                  state.vertex)]
        for _ in range(8):
            if not nodes:
                break
            lo, up, cost, start, v = nodes.pop()
            node = dataclasses.replace(p, lower=lo, upper=up)
            j = int(rng.integers(n))
            for side in ("down", "up"):
                lo_c, up_c = _child(node, v, side, rng, [j])
                seen["reopen"] += 1
                optimal = check(state, p, cost, state.reopen(start, cost, lo_c, up_c))
                if optimal:
                    nodes.append((lo_c, up_c, cost, state.basis(), state.vertex))
            if optimal and rng.random() < 0.3:   # the state is at the node last pushed
                seen["new_cost"] += 1
                cost = rng.normal(size=n).round(2)
                if check(state, p, cost, state.minimize(cost)):
                    nodes[-1] = (lo_c, up_c, cost, state.basis(), state.vertex)


def test_siblings_share_one_inverse_of_the_parent_basis_on_a_panel(monkeypatch):
    # Each of the 64 nodes below the root reopens from its parent's basis;
    # the second child of each of the 32 branched nodes takes the B^-1 its
    # sibling inverted. How a basis is factorized moves no node, pivot or
    # incumbent byte on this panel.
    from portopt import milp_solver
    panel = np.random.default_rng(7).normal(0.0005, 0.01, (20, 62))
    problem = md_milp_problem(make_returns(panel), ModelConfig(rho=0.0))[0]
    states = []

    class Recorded(SimplexState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    monkeypatch.setattr(milp_solver, "SimplexState", Recorded)
    sol = solve_milp(problem)
    (state,) = states
    assert state.factorizations == 32
    assert sol.status is SolveStatus.OPTIMAL
    assert (sol.nodes, sol.node_pivots) == (65, 323)
    assert hashlib.sha256(sol.v.tobytes()).hexdigest() == (
        "d59c025cf2252f76567221ddad116ec6db60baf51465a8474bbff1a7f84456a1")
