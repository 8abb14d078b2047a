import numpy as np
import pytest

from portopt.core import DataError, SolveStatus
from portopt.lp_solver import (
    LpProblem,
    SimplexState,
    _max_violation,
    dual_objective,
    solve_lp,
)

from oracles import enumerate_lp_vertices


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


def test_degenerate_stall_hits_bland_rule():
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


def test_max_violation_of_non_finite_vector_is_inf():
    p = LpProblem(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[1.0],
                  lower=[0.0, 0.0], upper=[1.0, 1.0])
    assert _max_violation(p, np.array([0.5, 0.5])) == 0.0
    assert _max_violation(p, np.array([0.75, 0.5])) == pytest.approx(0.25)
    for v in ([np.nan, 0.5], [np.nan, np.nan], [np.inf, 0.0], [-np.inf, 1.0]):
        assert _max_violation(p, np.array(v)) == np.inf


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
    real_violation, real_refactorize = lp_solver._max_violation, lp_solver._Tableau.refactorize
    faults = {"drift": 1, "singular": 1}

    def violation(p, v):
        if faults["drift"]:
            faults["drift"] -= 1
            return 1.0
        return real_violation(p, v)

    def refactorize(tab):
        if faults["singular"]:
            faults["singular"] -= 1
            raise np.linalg.LinAlgError("Singular matrix")
        real_refactorize(tab)

    monkeypatch.setattr(lp_solver, "_max_violation", violation)
    monkeypatch.setattr(lp_solver._Tableau, "refactorize", refactorize)
    sol = solve_lp(problem)
    assert faults == {"drift": 0, "singular": 0}
    assert sol.status is SolveStatus.OPTIMAL
    assert sol.objective == pytest.approx(cold.objective, abs=1e-12)
    assert sol.pivots > cold.pivots  # both phases ran again


def test_drift_guard_refuses_a_vertex_that_stays_infeasible(monkeypatch):
    from portopt import lp_solver
    monkeypatch.setattr(lp_solver, "_max_violation", lambda p, v: 0.25)
    with pytest.raises(RuntimeError, match="violates a row or bound by 0.25"):
        solve_lp(_drift_problem())
