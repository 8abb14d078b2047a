"""Dense two-phase simplex for linear programs with bounded variables.

Handles equality rows, `a @ v <= b` inequality rows, and explicit per-variable
bounds (upper bounds may be +inf, and a variable with both bounds infinite is
treated as free). Box constraints never become rows: nonbasic variables rest
at one of their bounds and "bound flip" moves are allowed, so the basis never
grows beyond the number of functional rows. That matters here because every
portfolio LP in this package is dominated by box constraints.

Algorithm notes:

* Every row has a slack column: a `<=` row's on [0, inf), an equality row's
  on [0, 0]. The all-slack basis B = I is the crash basis (Bixby 1992), and
  no artificial column is ever added. Phase 1 is a composite phase 1 (Maros,
  *Computational Techniques of the Simplex Method*, 2003, ch. 9; Koberstein,
  PhD thesis, Paderborn 2005): from whatever basis the state holds it
  minimizes the sum of the basic variables' distances outside their bounds
  and stops at the first basis whose basics are all within the feasibility
  tolerance. A phase-1 optimum above it certifies infeasibility. An
  equality row's slack is fixed, so it never enters; left basic at 0 (a
  redundant row) it blocks the ratio test at zero, and degenerate pivots
  evict it on demand.
* Pricing is scale invariant. The primal loop enters the column with the
  largest |z_j| / |g_j|, its reduced cost over the norm of its column of
  G, so rescaling a variable does not change which column enters (Dantzig's
  |z_j| alone prefers the columns scaled large, and the slack basis's
  steepest-edge weight sqrt(1 + |g_j|^2) keeps a term that does not scale).
  G never changes, so the norms are computed once, a reference framework
  in the sense of Harris (*Math. Prog.* 5, 1973). The dual loop is exact
  dual steepest edge (Forrest & Goldfarb, *Math. Prog.* 57, 1992); see
  below. The ratio tests' tie-breaks, the largest |pivot|, do depend on
  scale. Within a run of degenerate steps the loop remembers each basis it
  has held; once one repeats, Bland's smallest-index rule takes over until a
  step makes progress. Bland's rule cannot cycle (Bland 1977), so every
  loop finishes; PIVOT_LIMIT still caps the pivots of each loop (phase 1,
  phase 2, the dual loop, the drift guard's re-solve) on its own, and a
  loop past it raises.
* A revised simplex (Dantzig & Orchard-Hays 1954) on the explicit m x m
  inverse B^-1: an iteration prices with y = c_B B^-1 and z = c - y G, takes
  the entering column as B^-1 g_j (the dual loop its pivot row as (B^-1)_r G),
  reads the basic values as B^-1 (h - G x_N) and updates B^-1 alone by one eta
  step, O(m^2) where a tableau's update is O(m n). A drift guard refactorizes
  (one explicit inverse of B) and re-solves if a call's final solution breaks
  a row or bound by more than the feasibility tolerance.
* `SimplexState` is the one simplex class: it holds its basis and B^-1 for
  its whole life, across objectives and bound changes. Phase 1 runs once
  when the state is built: from the slack basis, or from a saved `Basis` of
  a problem of the same shape when that basis is nonsingular in the new
  rows (post-optimal analysis after a change in the data: Gal,
  *Postoptimal Analyses, Parametric Programming and Related Topics*, 1995),
  and then with no pivot where it is still primal feasible. Each later
  `minimize` continues phase 2 from the basis and the B^-1 the previous
  call left. Pivot drift therefore carries from call to call; the drift
  guard is the one place a call refactorizes, and it runs the same phase 1
  from the refactorized basis, or from the slack basis when that one is
  singular. `solve_lp` is one state minimized once, from a given start
  basis or cold.
* A bounded dual simplex re-optimizes after the bounds change under a fixed
  cost: `SimplexState.reopen` writes new bounds into the state and
  takes a saved basis (basic columns and nonbasic statuses); the rows stay as
  they are, so the saved reduced costs stay dual feasible. The dual loop
  takes the row with the largest infeasibility^2 / |e_r' B^-1|^2, exact
  dual steepest edge: the explicit B^-1 gives every weight as a row norm,
  O(m^2) a pivot, with no update recurrence. The ratio test picks the
  column with the smallest |z_j / alpha_rj|, ties broken by the largest
  |alpha_rj|; a row that no column can move back into its bounds proves the
  region empty. A dual-degenerate stall that repeats a basis switches to
  the same smallest-index rule, and the primal simplex then cleans up.
  Branch and bound re-solves its node LPs this way.

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
PIVOT_LIMIT = 50_000    # pivots allowed to each simplex loop

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
        # one isfinite scan an array; the NaN or Inf verdict only where it fails
        for name, arr in (("c", c), ("b_eq", b_eq), ("b_ub", b_ub)):
            if not np.isfinite(arr).all():
                raise DataError(f"{name} contains NaN or Inf")
        if not (np.isfinite(a_eq).all() and np.isfinite(a_ub).all()):
            kind = "NaN" if np.isnan(a_eq).any() or np.isnan(a_ub).any() else "Inf"
            raise DataError(f"constraint matrix contains {kind}")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)) or np.any(lower > upper):
            raise DataError("bounds must satisfy l <= u and contain no NaN")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise DataError("a lower bound of +inf or an upper bound of -inf leaves no value")
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
    <= 1e-9. `reduced_costs` covers every column of `Basis`, the equality
    rows' slacks on [0, 0] included. `pivots` counts both phases. `basis` is
    the final basis, a start for a problem of the same shape, and `warm`
    says whether the solve started from the basis it was given instead of
    the slack basis.
    """

    v: np.ndarray
    objective: float
    status: SolveStatus
    pivots: int
    duals: np.ndarray
    reduced_costs: np.ndarray
    basis: Basis | None = None
    warm: bool = False


def _resting_status(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Where each nonbasic column rests: at its finite lower bound, else at
    its finite upper bound, else free at zero."""
    status = np.full(lower.shape, FREE, dtype=np.int8)
    status[np.isfinite(upper)] = AT_UPPER
    status[np.isfinite(lower)] = AT_LOWER
    return status


@dataclass(frozen=True)
class Basis:
    """A saved simplex basis, without its inverse.

    Columns are the structural variables, then one slack per row in row
    order, the equality rows' before the `<=` rows'. `basic[i]` is the column
    basic in row i and `status` holds every column's status.
    """

    basic: np.ndarray
    status: np.ndarray


class SimplexState:
    """A primal feasible basis of one region, kept across objectives.

    Built from an LpProblem whose `c` and `sense` are ignored. Its standard
    form G = [A | I] has the structural columns and one slack column per
    row, the equality rows' fixed on [0, 0], for the state's whole life; the
    state keeps the basis and its explicit inverse `binv` (m x m for m
    rows). Phase 1 runs once, from the slack basis B = I or, where a
    `start` basis saved from a state of a problem with as many rows and
    columns (`basis()`) fits and is nonsingular in this problem's rows, from
    that basis: with no pivot when it is primal feasible within FEAS_TOL.
    `warm` says whether the start was taken. `minimize(cost)` runs phase 2
    for a minimization cost over the structural variables, starting from
    the kept basis and the `binv` the previous call left. A call
    refactorizes only when its optimal vertex breaks a row or bound by more
    than 1e-7: the drift guard then refactorizes the basis, runs phase 1
    from it (from the slack basis if it is singular) and phase 2 again.
    Each simplex loop may take PIVOT_LIMIT pivots, so a call of several
    loops can take more. `reopen` moves the state to new bounds,
    refactorizes a saved `basis()` and re-optimizes from it by the dual
    simplex. `pivots` and `factorizations` (inversions of a basis) count over
    the state's lifetime, phase 1 included.
    """

    def __init__(self, problem: LpProblem, *, start: Basis | None = None):
        self.problem = problem
        m_eq, m_ub = problem.a_eq.shape[0], problem.a_ub.shape[0]
        self.m = m_eq + m_ub
        # m x (n + m): the structural columns, then each row's slack, filled
        # in place, so the rows are copied once
        n = problem.n_vars
        self.g = np.zeros((self.m, n + self.m))
        self.g[:m_eq, :n] = problem.a_eq
        self.g[m_eq:, :n] = problem.a_ub
        np.fill_diagonal(self.g[:, n:], 1.0)
        # the primal loop's pricing weights, the column norms |g_j| (1 for an
        # all-zero column)
        norms = np.sqrt(np.einsum("ij,ij->j", self.g, self.g))
        self._weights = np.where(norms > 0, norms, 1.0)
        self.h = np.concatenate([problem.b_eq, problem.b_ub])
        self._slack_upper = np.concatenate([np.zeros(m_eq), np.full(m_ub, np.inf)])
        self.basic = np.empty(0, dtype=int)     # the column basic in each row
        self.status = np.empty(0, dtype=np.int8)
        self.binv = np.eye(self.m)          # B^-1, set by the start methods
        self._values = np.empty(0)          # nonbasic values, 0 at basic columns
        self._rhs = np.empty(0)             # h - G @ _values, kept in step with it
        self._xb = None                     # basic_values(), until the next change
        self.pivots = 0
        self.factorizations = 0
        # the saved basis last inverted by a start or a reopen, with its B^-1
        self._inverted: tuple[Basis, np.ndarray] | None = None
        self.set_bounds(problem.lower, problem.upper)
        self.warm = start is not None and self._warm_start(start)
        if not self.warm:
            self._slack_basis()
        self._phase1()

    # -- column bookkeeping -------------------------------------------------

    def set_bounds(self, lower: np.ndarray, upper: np.ndarray):
        """Bound the structural columns by `lower` and `upper`, a `<=` row's
        slack to [0, inf) and an equality row's to [0, 0]. The caller then
        sets the column values to match."""
        self.lower = np.concatenate([lower, np.zeros(self.m)])
        self.upper = np.concatenate([upper, self._slack_upper])

    def set_basis(self, basic: np.ndarray, status: np.ndarray):
        """Take basic columns and column statuses; the caller sets `binv` to
        match."""
        self.basic = basic
        self.status = status
        self._reset_values()

    def _reset_values(self):
        vals = np.zeros(self.g.shape[1])
        at_low = self.status == AT_LOWER
        at_up = self.status == AT_UPPER
        vals[at_low] = self.lower[at_low]
        vals[at_up] = self.upper[at_up]
        vals[self.basic] = 0.0
        self._values = vals
        self._rhs = self.h - self.g @ vals
        self._xb = None

    def _rest(self, j: int, status: int):
        """Nonbasic column j moves to `status` and takes its value there."""
        self._place(j, status, self.lower[j] if status == AT_LOWER else self.upper[j])

    def _place(self, j: int, status: int, value: float):
        """Column j takes `status` and `value` (0 if basic); h - G x_N follows."""
        self.status[j] = status
        if value != self._values[j]:
            self._rhs -= self.g[:, j] * (value - self._values[j])
            self._values[j] = value
        self._xb = None

    def basic_values(self) -> np.ndarray:
        """x_B = B^-1 (h - G x_N) at the current basis, cached until the next
        pivot, bound flip or refactorization; callers must not modify it."""
        if self._xb is None:
            self._xb = self.binv @ self._rhs
        return self._xb

    def solution(self) -> np.ndarray:
        """All column values at the current basis."""
        vals = self._values.copy()
        vals[self.basic] = self.basic_values()
        return vals

    # -- starting bases -----------------------------------------------------

    def _slack_basis(self):
        """The crash basis B = I of every row's slack (Bixby 1992), each
        structural column resting at its nearest finite bound."""
        n = self.problem.n_vars
        status = _resting_status(self.lower, self.upper)
        status[n:] = BASIC
        self.binv = np.eye(self.m)
        self.set_basis(n + np.arange(self.m), status)

    def _warm_start(self, start: Basis) -> bool:
        """Take `start` as the first basis when it fits this state's shape
        and is nonsingular. Returns whether it was taken."""
        basic, status = start.basic, start.status
        if basic.shape != (self.m,) or status.shape != (self.g.shape[1],):
            return False
        # each basic column once and in range, each marked BASIC
        if not np.array_equal(np.sort(basic), np.flatnonzero(status == BASIC)):
            return False
        try:
            self._take_basis(start)
        except np.linalg.LinAlgError:
            return False
        self._inverted = (start, self.binv.copy())
        return True

    def _take_basis(self, start: Basis, binv: np.ndarray | None = None):
        """Set the saved basis `start` under the state's bounds and
        refactorize it; raises LinAlgError when it is singular. A nonbasic
        whose resting bound is gone moves to one that exists. `binv`, the
        inverse of this same basis in this state's rows, is taken in place
        of the inversion."""
        status = start.status.copy()
        resting = _resting_status(self.lower, self.upper)
        kept = (((status == AT_LOWER) & np.isfinite(self.lower))
                | ((status == AT_UPPER) & np.isfinite(self.upper))
                | (status == BASIC) | (status == resting))
        status[~kept] = resting[~kept]
        self.set_basis(start.basic.copy(), status)
        if binv is None:
            self.refactorize()
        else:
            self.binv = binv   # set_basis computed h - G x_N under these bounds

    def refactorize(self):
        """Set binv = B^-1 by one explicit inverse, and h - G x_N afresh. A
        singular basis raises LinAlgError and leaves both as they were."""
        self.binv = np.linalg.inv(self.g[:, self.basic])
        self.factorizations += 1
        self._rhs = self.h - self.g @ self._values
        self._xb = None

    # -- the simplex loops --------------------------------------------------

    @np.errstate(divide="ignore", invalid="ignore")   # steps of 0 are masked below
    def run(self, cost: np.ndarray | None = None) -> str:
        """Minimize cost @ x from the current basis. Returns 'optimal' or
        'unbounded'; raises after more than PIVOT_LIMIT pivots.

        With no cost this is phase 1: each step minimizes the sum of the
        basic variables' distances outside their bounds (cost -1 on a basic
        below its lower bound, +1 on one above its upper bound), and the loop
        returns 'optimal' at the first basis whose basics are all within
        FEAS_TOL of their bounds, or 'infeasible' where no column can shrink
        that sum. A basic outside its bounds blocks the ratio test only where
        it reaches the bound it violates, and leaves at that bound; moving
        away from it, it does not block.
        """
        bland, start, seen = False, self.pivots, set()
        movable = self.upper > self.lower  # fixed columns can never improve
        below = outside = np.zeros(self.m, dtype=bool)   # phase 2 sees every basic within
        while True:
            x_b = self.basic_values()
            low, up = self.lower[self.basic], self.upper[self.basic]
            if cost is None:
                below, above = x_b < low - FEAS_TOL, x_b > up + FEAS_TOL
                outside = below | above
                if not outside.any():
                    return "optimal"
                y = (above.astype(float) - below) @ self.binv   # cost +1 above, -1 below
                z = -(y @ self.g)
            else:
                z = cost - (cost[self.basic] @ self.binv) @ self.g
            z[self.basic] = 0.0
            # basic columns have z = 0, so they never qualify
            can_up = (z < -PIVOT_TOL) & (self.status != AT_UPPER)
            can_down = (z > PIVOT_TOL) & (self.status != AT_LOWER)
            candidates = ((can_up | can_down) & movable).nonzero()[0]
            if candidates.size == 0:
                return "optimal" if cost is not None else "infeasible"
            if bland:
                j = int(candidates[0])
            else:
                j = int(candidates[(np.abs(z[candidates]) / self._weights[candidates]).argmax()])
            direction = 1.0 if can_up[j] else -1.0

            step = direction * (self.binv @ self.g[:, j])
            # the bound each basic heads for: the one it violates, if any
            to_lower = np.where(outside, below, step > 0)
            t_rows = (x_b - np.where(to_lower, low, up)) / step
            t_rows[np.abs(step) <= PIVOT_TOL] = np.inf   # rows the step leaves alone
            t_rows[outside & (t_rows < 0)] = np.inf      # moving away from that bound
            t_rows[t_rows < 0] = 0.0  # degeneracy: already at the blocking bound
            t_flip = self.upper[j] - self.lower[j]
            t_best_rows = t_rows.min() if self.m else np.inf
            t_star = min(t_best_rows, t_flip)
            if t_star == np.inf:
                return "unbounded"

            if t_flip <= t_best_rows:  # bound flip, basis unchanged
                self._rest(j, AT_UPPER if direction > 0 else AT_LOWER)
                self.pivots += 1
            else:
                ties = (t_rows <= t_star + DEGEN_TOL).nonzero()[0]
                if bland:
                    r = int(ties[self.basic[ties].argmin()])
                else:
                    r = int(ties[np.abs(step[ties]).argmax()])
                self._pivot(r, j, direction * step, AT_LOWER if to_lower[r] else AT_UPPER)
            bland = self._note_step(t_star, bland, start, seen)

    def dual_run(self, cost: np.ndarray) -> str:
        """Restore primal feasibility by the bounded dual simplex.

        Starts from a basis whose reduced costs under `cost` are dual
        feasible (as a parent's optimal basis is after bound changes) and
        keeps them so. The leaving row r is the one whose infeasibility
        (distance outside its bounds) squared over |e_r' B^-1|^2 is largest,
        exact dual steepest edge, which a rescaling of any column leaves
        unchanged; it leaves at the bound it violates. The entering column
        is the movable nonbasic that can push it back with the smallest
        |z_j / alpha_rj|, ties broken by the largest |alpha_rj|. Returns
        'feasible' once every basic variable is within FEAS_TOL of its
        bounds, or 'infeasible' when the leaving row has no such column: its
        basic variable is then out of bounds at every point of the region.
        Raises after more than PIVOT_LIMIT pivots.
        """
        bland, start, seen = False, self.pivots, set()
        movable = self.upper > self.lower
        while True:
            x_b = self.basic_values()
            below = self.lower[self.basic] - x_b
            infeasibility = np.maximum(below, x_b - self.upper[self.basic])
            rows = np.flatnonzero(infeasibility > FEAS_TOL)
            if rows.size == 0:
                return "feasible"
            if bland:
                r = int(rows[np.argmin(self.basic[rows])])
            else:
                # exact dual steepest edge: |e_r' B^-1|^2 is a row norm of binv
                norms = np.einsum("ij,ij->i", self.binv[rows], self.binv[rows])
                r = int(rows[np.argmax(infeasibility[rows] ** 2 / norms)])
            to_lower = below[r] > 0
            # x_r = beta_r - sum_j alpha_rj x_j, so raising x_r (to_lower)
            # needs x_j to rise where alpha_rj < 0 or fall where alpha_rj > 0
            alpha = self.binv[r] @ self.g
            push = alpha if to_lower else -alpha
            can_up = ((self.status == AT_LOWER) | (self.status == FREE)) & (push < -PIVOT_TOL)
            can_down = ((self.status == AT_UPPER) | (self.status == FREE)) & (push > PIVOT_TOL)
            candidates = np.flatnonzero((can_up | can_down) & movable)
            if candidates.size == 0:
                return "infeasible"
            z = cost - (cost[self.basic] @ self.binv) @ self.g
            ratios = np.abs(z[candidates] / alpha[candidates])
            t_star = float(np.min(ratios))
            ties = candidates[ratios <= t_star + DEGEN_TOL]
            if bland:
                j = int(ties[0])
            else:
                j = int(ties[np.argmax(np.abs(alpha[ties]))])
            self._pivot(r, j, self.binv @ self.g[:, j], AT_LOWER if to_lower else AT_UPPER)
            bland = self._note_step(t_star, bland, start, seen)

    def _pivot(self, r: int, j: int, column: np.ndarray, leaving_status: int):
        """Column j, with B^-1 g_j = `column`, enters the basis at row r and
        the leaving column rests at `leaving_status`: one eta step on B^-1."""
        self._rest(self.basic[r], leaving_status)
        self.basic[r] = j
        self._place(j, BASIC, 0.0)
        pivot_row = self.binv[r] / column[r]
        self.binv -= column[:, None] * pivot_row
        self.binv[r] = pivot_row
        self.pivots += 1

    def _note_step(self, step: float, bland: bool, start: int, seen: set) -> bool:
        """Count a step of length `step` in a loop that began at `start`
        pivots, and raise once that loop has taken more than PIVOT_LIMIT.
        `seen` holds the sorted bases of the loop's current degenerate run.
        Returns whether the smallest-index rule is on (`bland` says whether
        it was): from the degenerate step that repeats a basis of that run,
        until a step makes progress."""
        if self.pivots - start > PIVOT_LIMIT:
            raise RuntimeError(f"simplex exceeded the pivot limit ({PIVOT_LIMIT})")
        if step > DEGEN_TOL:
            seen.clear()
            return False
        key = np.sort(self.basic).tobytes()
        repeated = key in seen
        seen.add(key)
        return bland or repeated

    # -- phases and calls ---------------------------------------------------

    def _phase1(self) -> bool:
        """Phase 1 from the kept basis; sets and returns `feasible`."""
        self.feasible = self.run(None) == "optimal"
        return self.feasible

    def _restore(self) -> bool:
        """Refactorize the kept basis, or take the slack basis when it is
        singular, and run phase 1 from there. Returns whether the region is
        feasible."""
        try:
            self.refactorize()
        except np.linalg.LinAlgError:
            self._slack_basis()
        return self._phase1()

    def _full_cost(self, cost: np.ndarray) -> np.ndarray:
        """`cost` over the structural variables, zero on every slack."""
        full = np.zeros(self.g.shape[1])
        full[:self.problem.n_vars] = cost
        return full

    def basis(self) -> Basis:
        """The kept basis, to `reopen` at later."""
        return Basis(self.basic.copy(), self.status.copy())

    def reopen(self, start: Basis, cost: np.ndarray, lower: np.ndarray,
               upper: np.ndarray) -> SolveStatus:
        """Minimize cost @ v under new structural bounds `lower` and `upper`,
        starting from a saved `basis()` of this state.

        The rows stay as they are, so the saved basis keeps every reduced
        cost it had. The new bounds go into the state, the basis is
        refactorized, the dual simplex restores primal feasibility, and then
        this is `minimize(cost)` (the primal simplex cleans up and the drift
        guard checks the vertex against the new bounds). Meant for a basis
        optimal for `cost` before the change, as a branch-and-bound parent's
        is for its children.

        B depends only on the basic columns, so reopens of one saved basis in
        a row, as a parent's two children are, invert it once: the first
        keeps a copy of its B^-1, taken before its pivots, and the others
        take copies of it in place of an inversion. A state started from a
        saved basis keeps its inverse the same way, so a search started at
        its root's basis inverts that basis once for the state and both
        children.
        """
        self.set_bounds(lower, upper)
        if self._inverted is not None and self._inverted[0] is start:
            self._take_basis(start, self._inverted[1].copy())
        else:
            self._take_basis(start)
            self._inverted = (start, self.binv.copy())
        self.feasible = self.dual_run(self._full_cost(cost)) == "feasible"
        return self.minimize(cost)

    @property
    def vertex(self) -> np.ndarray:
        """The current basic solution over the structural variables."""
        return self.solution()[:self.problem.n_vars]

    def _violation(self) -> float:
        """The vertex's largest row or bound violation under the state's
        bounds."""
        n = self.problem.n_vars
        return _max_violation(self.problem, self.vertex, self.lower[:n], self.upper[:n])

    def minimize(self, cost: np.ndarray) -> SolveStatus:
        """Minimize cost @ v over the region from the kept basis and B^-1.

        Returns Optimal or Unbounded, leaving `vertex` at the optimum, or
        Infeasible when the region is empty. A vertex that has drifted past
        the 1e-7 feasibility tolerance is re-solved from the refactorized
        basis, phase 1 first (from the slack basis if it is singular); Optimal
        is returned only for a vertex within the tolerance. Raises
        RuntimeError when a simplex loop exceeds PIVOT_LIMIT or the re-solved
        vertex still violates the tolerance.
        """
        if not self.feasible:
            return SolveStatus.INFEASIBLE
        if self.run(self._full_cost(cost)) == "unbounded":
            return SolveStatus.UNBOUNDED
        # Guard against drift accumulated in B^-1 before certifying.
        if self._violation() > FEAS_TOL:
            if not self._restore():
                return SolveStatus.INFEASIBLE
            if self.run(self._full_cost(cost)) == "unbounded":
                return SolveStatus.UNBOUNDED
            violation = self._violation()
            if violation > FEAS_TOL:
                raise RuntimeError(f"simplex vertex violates a row or bound by {violation:.3g} "
                                   f"after refactorization (tolerance {FEAS_TOL:g})")
        return SolveStatus.OPTIMAL


def solve_lp(problem: LpProblem, *, start: Basis | None = None) -> LpSolution:
    """Solve an LP to a vertex optimum, or certify infeasibility/unboundedness.

    `start`, the `basis` of a solution of a problem with the same shape,
    starts phase 1 where `SimplexState` can take it; the answer carries the
    same certificate either way.
    """
    sign = 1.0 if problem.sense == "min" else -1.0
    state = SimplexState(problem, start=start)
    status = state.minimize(sign * problem.c)
    return _finish(problem, state, sign * problem.c, status)


def _max_violation(problem: LpProblem, v: np.ndarray, lower: np.ndarray | None = None,
                   upper: np.ndarray | None = None) -> float:
    """Largest violation of v of the problem's rows and of `lower` and
    `upper` (the problem's bounds by default); inf when v is not finite."""
    if not np.isfinite(v).all():
        return np.inf
    lower = problem.lower if lower is None else lower
    upper = problem.upper if upper is None else upper
    worst = 0.0
    if problem.a_eq.shape[0]:
        worst = max(worst, float(np.abs(problem.a_eq @ v - problem.b_eq).max()))
    if problem.a_ub.shape[0]:
        worst = max(worst, float((problem.a_ub @ v - problem.b_ub).max(initial=0.0)))
    worst = max(worst, float((lower - v).max(initial=0.0)))
    worst = max(worst, float((v - upper).max(initial=0.0)))
    return worst


def _finish(problem: LpProblem, state: SimplexState, c_min: np.ndarray,
            status: SolveStatus) -> LpSolution:
    v = state.vertex
    if status is SolveStatus.OPTIMAL:
        objective = float(problem.c @ v)
    elif status is SolveStatus.UNBOUNDED:
        objective = -np.inf if problem.sense == "min" else np.inf
    else:
        objective = float("nan")
    full_cost = state._full_cost(c_min)
    y = full_cost[state.basic] @ state.binv   # duals: y @ B = c_B
    reduced = full_cost - y @ state.g
    return LpSolution(
        v=v,
        objective=objective,
        status=status,
        pivots=state.pivots,
        duals=y,
        reduced_costs=reduced,
        basis=state.basis(),
        warm=state.warm,
    )


def dual_objective(problem: LpProblem, solution: LpSolution) -> float:
    """Dual bound implied by the final basis, in the original sense.

    For the minimization form the bound is y @ h plus the bound contributions
    of the reduced costs: positive reduced costs bind at lower bounds, negative
    ones at upper bounds. For a certified optimum this matches the primal
    objective to within 1e-9 * (1 + |objective|).
    """
    sign = 1.0 if problem.sense == "min" else -1.0
    m_eq, m_ub = problem.a_eq.shape[0], problem.a_ub.shape[0]
    h = np.concatenate([problem.b_eq, problem.b_ub])
    lower = np.concatenate([problem.lower, np.zeros(m_eq + m_ub)])
    upper = np.concatenate([problem.upper, np.zeros(m_eq), np.full(m_ub, np.inf)])
    z = solution.reduced_costs
    value = float(solution.duals @ h)
    pos = z > 0
    neg = z < 0
    value += float(np.sum(np.where(pos, z * np.where(np.isfinite(lower), lower, 0.0), 0.0)))
    value += float(np.sum(np.where(neg, z * np.where(np.isfinite(upper), upper, 0.0), 0.0)))
    return sign * value
