"""Dense two-phase simplex for linear programs with bounded variables.

Handles equality rows, `a @ v <= b` inequality rows, and explicit per-variable
bounds (upper bounds may be +inf, and a variable with both bounds infinite is
treated as free). Box constraints never enter the tableau as rows: nonbasic
variables rest at one of their bounds and "bound flip" moves are allowed, so
the basis never grows beyond the number of functional rows. That matters here
because every portfolio LP in this package is dominated by box constraints.

Algorithm notes:

* Phase 1 minimizes the sum of artificial variables added per row; a positive
  phase-1 optimum (> feasibility tolerance) certifies infeasibility. Surviving
  artificials are locked to [0, 0] rather than pivoted out eagerly; locked
  columns always block the ratio test at zero, so degenerate pivots evict them
  on demand and redundant rows stay harmlessly basic.
* Pricing is Dantzig (most negative reduced cost); Bland's smallest-index rule
  engages after 50 consecutive degenerate pivots and guarantees termination.
* The working tableau is B^-1 [A | b], refreshed by direct refactorization if
  the final solution drifts past the feasibility tolerance.
* `SimplexState` keeps the tableau of one feasible region across objectives:
  phase 1 runs once, and each later `minimize` refactorizes the kept basis and
  runs phase 2 from it (a fresh phase 1 only if that basis has drifted
  infeasible). `solve_lp` is one state minimized once.

Tolerances: pivot/optimality 1e-9, primal feasibility 1e-7, both documented in
the solution certificate check so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DimensionError, DataError, SolveStatus

PIVOT_TOL = 1e-9
FEAS_TOL = 1e-7
DEGEN_TOL = 1e-12
BLAND_TRIGGER = 50

AT_LOWER = 0
AT_UPPER = 1
FREE = 2
BASIC = 3


@dataclass(frozen=True)
class LpProblem:
    """min or max of c @ v over {A_eq v = b_eq, A_ub v <= b_ub, l <= v <= u}."""

    c: np.ndarray
    sense: str = "min"
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = c.shape[0]
        a_eq, b_eq = _as_rows(self.a_eq, self.b_eq, n, "eq")
        a_ub, b_ub = _as_rows(self.a_ub, self.b_ub, n, "ub")
        lower = np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float)
        upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        if lower.shape != (n,) or upper.shape != (n,):
            raise DimensionError("bounds must match the number of variables")
        for name, arr in (("c", c), ("b_eq", b_eq), ("b_ub", b_ub)):
            if np.any(np.isnan(arr)) or np.any(np.isinf(arr)):
                raise DataError(f"{name} contains NaN or Inf")
        if np.any(np.isnan(a_eq)) or np.any(np.isnan(a_ub)):
            raise DataError("constraint matrix contains NaN")
        if np.any(np.isinf(a_eq)) or np.any(np.isinf(a_ub)):
            raise DataError("constraint matrix contains Inf")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)) or np.any(lower > upper):
            raise DataError("bounds must satisfy l <= u and contain no NaN")
        if self.sense not in ("min", "max"):
            raise DataError("sense must be 'min' or 'max'")
        for name, val in (("c", c), ("a_eq", a_eq), ("b_eq", b_eq), ("a_ub", a_ub),
                          ("b_ub", b_ub), ("lower", lower), ("upper", upper)):
            object.__setattr__(self, name, val)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


def _as_rows(a, b, n: int, tag: str) -> tuple[np.ndarray, np.ndarray]:
    if a is None and b is None:
        return np.zeros((0, n)), np.zeros(0)
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if a.shape != (b.shape[0], n):
        raise DimensionError(f"{tag} rows: A is {a.shape}, b is {b.shape}, n = {n}")
    return a, b


@dataclass(frozen=True)
class LpSolution:
    """Solver outcome; `v` covers structural variables only (slacks dropped).

    `duals` and `reduced_costs` are reported for the minimization form and
    certify optimality: at an optimum every nonbasic-at-lower column has
    reduced cost >= -1e-9 and every nonbasic-at-upper column has reduced cost
    <= 1e-9. `pivots` counts both phases.
    """

    v: np.ndarray
    objective: float
    status: SolveStatus
    pivots: int
    duals: np.ndarray
    reduced_costs: np.ndarray


class _Tableau:
    """Mutable simplex state over columns = structural + slacks + artificials."""

    def __init__(self, g: np.ndarray, h: np.ndarray, lower: np.ndarray, upper: np.ndarray):
        self.g = g              # m x n_real, original rows (slacks included)
        self.h = h
        self.m = g.shape[0]
        self.n_real = g.shape[1]
        self.lower = lower
        self.upper = upper
        self.basis = np.empty(0, dtype=int)
        self.status = np.empty(0, dtype=np.int8)
        self.work = np.empty((self.m, 0))   # B^-1 [G | h], set by start methods
        self._buf = None                    # pivot-update scratch, same shape as work
        self.pivots = 0
        self.degenerate_run = 0
        self.n_art = 0

    # -- column bookkeeping -------------------------------------------------

    @property
    def n_cols(self) -> int:
        return self.n_real + self.n_art

    def nonbasic_values(self) -> np.ndarray:
        vals = np.zeros(self.n_cols)
        at_low = self.status == AT_LOWER
        at_up = self.status == AT_UPPER
        vals[at_low] = self.lower[at_low]
        vals[at_up] = self.upper[at_up]
        vals[self.basis] = 0.0
        return vals

    def solution(self) -> np.ndarray:
        vals = self.nonbasic_values()
        x_b = self.work[:, -1] - self.work[:, :-1] @ vals
        vals[self.basis] = x_b
        return vals

    # -- starting bases -----------------------------------------------------

    def cold_start(self):
        """Phase-1 setup: nonbasics at their nearest finite bound, one
        artificial per row signed to absorb the residual."""
        status = np.empty(self.n_real, dtype=np.int8)
        finite_low = np.isfinite(self.lower)
        status[:] = FREE
        status[np.isfinite(self.upper)] = AT_UPPER
        status[finite_low] = AT_LOWER  # prefer the lower bound when both exist
        self.status = status
        self.n_art = self.m
        vals = np.zeros(self.n_real)
        vals[status == AT_LOWER] = self.lower[status == AT_LOWER]
        vals[status == AT_UPPER] = self.upper[status == AT_UPPER]
        residual = self.h - self.g @ vals
        signs = np.where(residual < 0, -1.0, 1.0)
        art = np.diag(signs)
        self.lower = np.concatenate([self.lower, np.zeros(self.m)])
        self.upper = np.concatenate([self.upper, np.full(self.m, np.inf)])
        self.status = np.concatenate([self.status, np.full(self.m, BASIC, dtype=np.int8)])
        self.basis = np.arange(self.n_real, self.n_real + self.m)
        g_ext = np.hstack([self.g, art])
        # B = diag(signs) so B^-1 applies row signs directly
        self.work = np.hstack([g_ext, self.h[:, None]]) * signs[:, None]
        self.g = g_ext

    def lock_artificials(self):
        for j in range(self.n_real, self.n_cols):
            self.lower[j] = 0.0
            self.upper[j] = 0.0
            if self.status[j] != BASIC:
                self.status[j] = AT_LOWER

    def refactorize(self):
        b_mat = self.g[:, self.basis]
        self.work = np.linalg.solve(b_mat, np.hstack([self.g, self.h[:, None]]))

    def primal_feasible(self) -> bool:
        x_b = self.solution()[self.basis]
        return bool(np.all(x_b >= self.lower[self.basis] - FEAS_TOL)
                    and np.all(x_b <= self.upper[self.basis] + FEAS_TOL))

    # -- the simplex loop ---------------------------------------------------

    def run(self, cost: np.ndarray, pivot_limit: int) -> str:
        """Minimize cost @ x from the current basis. Returns 'optimal' or
        'unbounded'; raises if the pivot budget is exhausted."""
        bland = False
        while True:
            x = self.solution()
            z = cost - cost[self.basis] @ self.work[:, :-1]
            z[self.basis] = 0.0
            movable = self.upper > self.lower  # fixed columns can never improve
            can_up = ((self.status == AT_LOWER) | (self.status == FREE)) & (z < -PIVOT_TOL) & movable
            can_down = ((self.status == AT_UPPER) | (self.status == FREE)) & (z > PIVOT_TOL) & movable
            candidates = np.where(can_up | can_down)[0]
            if candidates.size == 0:
                return "optimal"
            if bland:
                j = int(candidates[0])
            else:
                j = int(candidates[np.argmax(np.abs(z[candidates]))])
            direction = 1.0 if can_up[j] else -1.0

            step = direction * self.work[:, j]
            x_b = x[self.basis]
            lo_b = self.lower[self.basis]
            up_b = self.upper[self.basis]
            t_rows = np.full(self.m, np.inf)
            dec = step > PIVOT_TOL
            inc = step < -PIVOT_TOL
            with np.errstate(invalid="ignore"):
                t_rows[dec] = (x_b[dec] - lo_b[dec]) / step[dec]
                t_rows[inc] = (x_b[inc] - up_b[inc]) / step[inc]
            t_rows[t_rows < 0] = 0.0  # degeneracy: already at the blocking bound
            t_flip = self.upper[j] - self.lower[j]
            t_best_rows = np.min(t_rows) if self.m else np.inf
            t_star = min(t_best_rows, t_flip)
            if not np.isfinite(t_star):
                return "unbounded"

            if t_flip <= t_best_rows:  # bound flip, basis unchanged
                self.status[j] = AT_UPPER if direction > 0 else AT_LOWER
                self.pivots += 1
            else:
                ties = np.where(t_rows <= t_star + DEGEN_TOL)[0]
                if bland:
                    r = int(ties[np.argmin(self.basis[ties])])
                else:
                    r = int(ties[np.argmax(np.abs(step[ties]))])
                leaving = self.basis[r]
                self.status[leaving] = AT_LOWER if step[r] > 0 else AT_UPPER
                self.basis[r] = j
                self.status[j] = BASIC
                piv = self.work[r, j]
                self.work[r, :] /= piv
                mult = self.work[:, j].copy()
                mult[r] = 0.0
                if self._buf is None or self._buf.shape != self.work.shape:
                    self._buf = np.empty_like(self.work)
                np.multiply(mult[:, None], self.work[r, None, :], out=self._buf)
                self.work -= self._buf
                self.pivots += 1

            if t_star <= DEGEN_TOL:
                self.degenerate_run += 1
                if self.degenerate_run >= BLAND_TRIGGER:
                    bland = True
            else:
                self.degenerate_run = 0
                bland = False
            if self.pivots > pivot_limit:
                raise RuntimeError(f"simplex exceeded the pivot limit ({pivot_limit})")


class SimplexState:
    """A primal feasible basis of one region, kept across objectives.

    Built from an LpProblem whose `c` and `sense` are ignored: the standard
    form is set up and phase 1 runs once, locking artificials left basic at
    zero. `minimize(cost)` runs phase 2 for a minimization cost over the
    structural variables, starting from the kept basis. Every call after the
    first refactorizes that basis, so pivot drift never carries from one call
    to the next; if the refactorized basis is no longer primal feasible within
    1e-7, phase 1 runs again. `pivot_limit` bounds the pivots of each call
    (the first call shares it with the initial phase 1).
    """

    def __init__(self, problem: LpProblem, pivot_limit: int = 50000):
        self.problem = problem
        self._pivot_limit = pivot_limit
        m_ub = problem.a_ub.shape[0]
        self._g = np.vstack([
            np.hstack([problem.a_eq, np.zeros((problem.a_eq.shape[0], m_ub))]),
            np.hstack([problem.a_ub, np.eye(m_ub)]),
        ])
        self._h = np.concatenate([problem.b_eq, problem.b_ub])
        self._lower = np.concatenate([problem.lower, np.zeros(m_ub)])
        self._upper = np.concatenate([problem.upper, np.full(m_ub, np.inf)])
        self._done = 0  # pivots of calls before the current one, and of dropped tableaux
        self._tab = None
        self._phase1()
        self._fresh = True

    def _phase1(self):
        if self._tab is not None:
            self._done += self._tab.pivots
        tab = self._tab = _Tableau(self._g, self._h, self._lower.copy(), self._upper.copy())
        tab.cold_start()
        phase1_cost = np.concatenate([np.zeros(tab.n_real), np.ones(tab.n_art)])
        outcome = tab.run(phase1_cost, self._pivot_limit)
        self.feasible = outcome == "optimal" and float(phase1_cost @ tab.solution()) <= FEAS_TOL
        if self.feasible:
            tab.lock_artificials()

    def _restore(self) -> bool:
        """Refactorize the kept basis, or run phase 1 again when that basis is
        singular or no longer primal feasible. Returns whether the region is
        feasible."""
        try:
            self._tab.refactorize()
            if self._tab.primal_feasible():
                return True
        except np.linalg.LinAlgError:
            pass
        self._phase1()
        return self.feasible

    @property
    def pivots(self) -> int:
        """Pivots over the state's lifetime, phase 1 included."""
        return self._done + self._tab.pivots

    @property
    def vertex(self) -> np.ndarray:
        """The current basic solution over the structural variables."""
        return self._tab.solution()[:self.problem.n_vars]

    def minimize(self, cost: np.ndarray) -> SolveStatus:
        """Minimize cost @ v over the region from the kept basis.

        Returns Optimal or Unbounded, leaving `vertex` at the optimum, or
        Infeasible when the region is empty. A vertex that has drifted past
        the 1e-7 feasibility tolerance is re-solved from the refactorized
        basis (from phase 1 if that basis is singular or infeasible); Optimal
        is returned only for a vertex within the tolerance. Raises
        RuntimeError when the call exceeds the pivot limit or the re-solved
        vertex still violates the tolerance.
        """
        if not self.feasible:
            return SolveStatus.INFEASIBLE
        if self._fresh:
            self._fresh = False
        else:
            self._done += self._tab.pivots
            self._tab.pivots = self._tab.degenerate_run = 0
            if not self._restore():
                return SolveStatus.INFEASIBLE
        full_cost = np.zeros(self._tab.n_cols)
        full_cost[:self.problem.n_vars] = cost
        if self._tab.run(full_cost, self._pivot_limit) == "unbounded":
            return SolveStatus.UNBOUNDED
        # Guard against accumulated tableau drift before certifying.
        if _max_violation(self.problem, self.vertex) > FEAS_TOL:
            if not self._restore():
                return SolveStatus.INFEASIBLE
            if self._tab.run(full_cost, self._pivot_limit) == "unbounded":
                return SolveStatus.UNBOUNDED
            violation = _max_violation(self.problem, self.vertex)
            if violation > FEAS_TOL:
                raise RuntimeError(f"simplex vertex violates a row or bound by {violation:.3g} "
                                   f"after refactorization (tolerance {FEAS_TOL:g})")
        return SolveStatus.OPTIMAL


def solve_lp(problem: LpProblem, pivot_limit: int = 50000) -> LpSolution:
    """Solve an LP to a vertex optimum, or certify infeasibility/unboundedness."""
    sign = 1.0 if problem.sense == "min" else -1.0
    state = SimplexState(problem, pivot_limit)
    status = state.minimize(sign * problem.c)
    return _finish(problem, state, sign * problem.c, status)


def _max_violation(problem: LpProblem, v: np.ndarray) -> float:
    """Largest row or bound violation of v; inf when v is not finite."""
    if not np.isfinite(v).all():
        return np.inf
    worst = 0.0
    if problem.a_eq.shape[0]:
        worst = max(worst, float(np.max(np.abs(problem.a_eq @ v - problem.b_eq))))
    if problem.a_ub.shape[0]:
        worst = max(worst, float(np.max(problem.a_ub @ v - problem.b_ub, initial=0.0)))
    worst = max(worst, float(np.max(problem.lower - v, initial=0.0)))
    worst = max(worst, float(np.max(v - problem.upper, initial=0.0)))
    return worst


def _finish(problem: LpProblem, state: SimplexState, c_min: np.ndarray,
            status: SolveStatus) -> LpSolution:
    tab = state._tab
    v = state.vertex
    if status is SolveStatus.OPTIMAL:
        objective = float(problem.c @ v)
    elif status is SolveStatus.UNBOUNDED:
        objective = -np.inf if problem.sense == "min" else np.inf
    else:
        objective = float("nan")
    full_cost = np.zeros(tab.n_cols)
    full_cost[:problem.n_vars] = c_min
    # duals from the final basis: y solves y @ B = c_B
    try:
        y = np.linalg.solve(tab.g[:, tab.basis].T, full_cost[tab.basis])
    except np.linalg.LinAlgError:
        y = np.zeros(tab.m)
    reduced = full_cost - y @ tab.g
    return LpSolution(
        v=v,
        objective=objective,
        status=status,
        pivots=state.pivots,
        duals=y,
        reduced_costs=reduced[:tab.n_real],
    )


def dual_objective(problem: LpProblem, solution: LpSolution) -> float:
    """Dual bound implied by the final basis, in the original sense.

    For the minimization form the bound is y @ h plus the bound contributions
    of the reduced costs: positive reduced costs bind at lower bounds, negative
    ones at upper bounds. For a certified optimum this matches the primal
    objective to within 1e-9 * (1 + |objective|).
    """
    sign = 1.0 if problem.sense == "min" else -1.0
    m_ub = problem.a_ub.shape[0]
    h = np.concatenate([problem.b_eq, problem.b_ub])
    lower = np.concatenate([problem.lower, np.zeros(m_ub)])
    upper = np.concatenate([problem.upper, np.full(m_ub, np.inf)])
    z = solution.reduced_costs
    value = float(solution.duals @ h)
    pos = z > 0
    neg = z < 0
    value += float(np.sum(np.where(pos, z * np.where(np.isfinite(lower), lower, 0.0), 0.0)))
    value += float(np.sum(np.where(neg, z * np.where(np.isfinite(upper), upper, 0.0), 0.0)))
    return sign * value
