"""Branch-and-bound over binary variables on top of the LP solver.

Nodes relax the binaries to [0, 1] and tighten bounds as branching decisions
accumulate. Search order is best-bound first (the node with the most promising
LP relaxation is explored next), which keeps the tree small when the root
relaxation is already tight, as it is for the drawdown MILP with its exact
big-M of 0.5. Branching picks the most fractional binary, ties broken by
lowest index, so identical problems explore identical trees.

Node LPs are solved by delayed row activation: the subproblem starts from the
equality rows plus any inequality row touching a variable with an infinite
bound (those keep the subproblem bounded), and inequality rows violated by the
subproblem optimum are activated until none remain, at which point the
solution is exactly optimal for the full row set. Children inherit their
parent's active set, so for problems dominated by indicator-linking rows (one
per binary, almost all slack at any given node) each node works with a small
LP instead of the full one.

A rounding heuristic runs at the root and on a sampling of nodes: all binaries
are fixed to their rounded LP values and the restricted LP is solved; any
feasible result becomes an incumbent. Every incumbent is re-verified against
the original constraints directly, independent of the LP solver's own
bookkeeping.

Tolerances: integrality 1e-6, relative optimality gap 1e-7. No cutting planes
and no general-integer variables.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .core import DataError, DimensionError, SolveStatus
from .lp_solver import LpProblem, LpSolution, solve_lp, FEAS_TOL, _max_violation

INT_TOL = 1e-6
GAP_TOL = 1e-7
HEURISTIC_EVERY = 16


@dataclass(frozen=True)
class MilpProblem:
    """An LpProblem plus the indices of variables constrained to {0, 1}."""

    base: LpProblem
    binary_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(sorted(int(i) for i in set(self.binary_indices)))
        object.__setattr__(self, "binary_indices", idx)
        n = self.base.n_vars
        if any(i < 0 or i >= n for i in idx):
            raise DimensionError("binary index out of range")
        for i in idx:
            if self.base.lower[i] < -1e-12 or self.base.upper[i] > 1.0 + 1e-12:
                raise DataError(f"binary variable {i} must have bounds within [0, 1]")


@dataclass(frozen=True)
class MilpSolution:
    v: np.ndarray | None
    objective: float
    status: SolveStatus
    nodes: int
    best_bound: float


def solve_milp(problem: MilpProblem, node_limit: int = 100_000) -> MilpSolution:
    """Solve a binary MILP exactly by LP-based branch and bound.

    Returns Optimal with the incumbent when no open node can beat it (within
    the relative gap tolerance), Infeasible when no integral assignment is
    feasible, and IterationLimit with the best incumbent found when the node
    budget runs out. `objective` and `best_bound` are reported in the
    problem's own sense.
    """
    if node_limit <= 0:
        raise DataError("node_limit must be positive")
    base = problem.base
    bins = np.array(problem.binary_indices, dtype=int)
    sense_sign = 1.0 if base.sense == "min" else -1.0  # keys are min-form

    def key(value: float) -> float:
        return sense_sign * value

    root_active = _initial_active_rows(base)
    root, root_active = _solve_node(base, base.lower, base.upper, root_active)
    nodes = 1
    if root.status is SolveStatus.INFEASIBLE:
        return MilpSolution(None, np.nan, SolveStatus.INFEASIBLE, nodes, np.nan)
    if root.status is SolveStatus.UNBOUNDED:
        raise DataError("LP relaxation is unbounded; the MILP is malformed")

    incumbent: np.ndarray | None = None
    incumbent_obj = np.inf  # min-form key

    def consider(v: np.ndarray, obj: float):
        nonlocal incumbent, incumbent_obj
        k = key(obj)
        if k < incumbent_obj - 1e-12 and _verify(base, bins, v):
            incumbent, incumbent_obj = v.copy(), k

    def try_rounding(lp_v: np.ndarray, active: np.ndarray) -> None:
        nonlocal nodes
        fixed = np.round(np.clip(lp_v[bins], 0.0, 1.0))
        lo, up = base.lower.copy(), base.upper.copy()
        lo[bins] = fixed
        up[bins] = fixed
        res, _ = _solve_node(base, lo, up, active)
        nodes += 1
        if res.status is SolveStatus.OPTIMAL:
            consider(res.v, res.objective)

    frac = _fractional(root.v, bins)
    if frac.size == 0:
        consider(root.v, root.objective)
        if incumbent is not None:
            return MilpSolution(incumbent, sense_sign * incumbent_obj,
                                SolveStatus.OPTIMAL, nodes, root.objective)
    else:
        try_rounding(root.v, root_active)

    counter = itertools.count()
    heap: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
    heapq.heappush(heap, (key(root.objective), next(counter), base.lower.copy(),
                          base.upper.copy(), root.v, root_active))
    # With best-bound search the popped key is a valid global lower bound; if
    # the heap drains without a cutoff, the incumbent is proven optimal.
    best_bound = key(root.objective)
    drained = True

    while heap:
        bound, _, lo, up, v_rel, active = heapq.heappop(heap)
        best_bound = bound
        if incumbent is not None and bound >= incumbent_obj - GAP_TOL * (1 + abs(incumbent_obj)):
            best_bound = min(bound, incumbent_obj)
            drained = False
            break
        if nodes >= node_limit:
            return MilpSolution(
                incumbent, sense_sign * incumbent_obj if incumbent is not None else np.nan,
                SolveStatus.ITERATION_LIMIT, nodes, sense_sign * bound)

        frac = _fractional(v_rel, bins)
        if frac.size == 0:
            consider(v_rel, sense_sign * bound)
            continue
        j = _most_fractional(v_rel, bins)
        for fix_to in (0.0, 1.0):
            lo_c, up_c = lo.copy(), up.copy()
            if fix_to == 0.0:
                up_c[j] = 0.0
            else:
                lo_c[j] = 1.0
            child, child_active = _solve_node(base, lo_c, up_c, active)
            nodes += 1
            if child.status is not SolveStatus.OPTIMAL:
                continue
            child_key = max(key(child.objective), bound)  # bounds never improve downward
            if incumbent is not None and child_key >= incumbent_obj - GAP_TOL * (1 + abs(incumbent_obj)):
                continue
            if _fractional(child.v, bins).size == 0:
                consider(child.v, child.objective)
            else:
                if nodes % HEURISTIC_EVERY == 0:
                    try_rounding(child.v, child_active)
                heapq.heappush(heap, (child_key, next(counter), lo_c, up_c,
                                      child.v, child_active))

    if incumbent is None:
        return MilpSolution(None, np.nan, SolveStatus.INFEASIBLE, nodes, np.nan)
    if drained:
        best_bound = incumbent_obj
    return MilpSolution(incumbent, sense_sign * incumbent_obj, SolveStatus.OPTIMAL,
                        nodes, sense_sign * best_bound)


def _initial_active_rows(base: LpProblem) -> np.ndarray:
    """Inequality rows that must be present from the start: any row touching a
    variable with an infinite bound, since dropping those can leave the
    subproblem unbounded."""
    if base.a_ub.shape[0] == 0:
        return np.zeros(0, dtype=int)
    unbounded_vars = ~(np.isfinite(base.lower) & np.isfinite(base.upper))
    touches = np.abs(base.a_ub[:, unbounded_vars]).sum(axis=1) > 0
    return np.where(touches)[0]


def _tighten_bounds(base: LpProblem, lower: np.ndarray, upper: np.ndarray,
                    max_passes: int = 4) -> tuple[np.ndarray, np.ndarray, bool]:
    """Bound tightening by interval propagation over the inequality rows.

    Only rows touching at least one fixed variable are propagated; that is
    where branching decisions (fixed binaries) imply bounds on their linked
    continuous variables, letting most nodes solve without ever activating
    the linking rows. Returns (lower, upper, feasible); an empty interval
    proves the node infeasible without an LP solve.
    """
    lower, upper = lower.copy(), upper.copy()
    a = base.a_ub
    if a.shape[0] == 0:
        return lower, upper, True
    for _ in range(max_passes):
        fixed = upper - lower <= 1e-12
        if not fixed.any():
            return lower, upper, True
        rows = np.where(np.abs(a[:, fixed]).sum(axis=1) > 0)[0]
        if rows.size == 0:
            return lower, upper, True
        sub = a[rows]
        nz = sub != 0.0
        with np.errstate(invalid="ignore"):
            terms = np.where(nz, np.minimum(sub * lower, sub * upper), 0.0)
        inf_mask = np.isinf(terms)
        n_inf = inf_mask.sum(axis=1)
        finite_terms = np.where(inf_mask, 0.0, terms)
        finite_sum = finite_terms.sum(axis=1)
        # rows where removing variable j still leaves an infinite minimum give
        # no information about j
        others_inf = n_inf[:, None] - inf_mask
        others = finite_sum[:, None] - finite_terms
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = (base.b_ub[rows][:, None] - others) / sub
        usable = nz & (others_inf == 0)
        ups = np.where(usable & (sub > 0), ratio, np.inf).min(axis=0)
        los = np.where(usable & (sub < 0), ratio, -np.inf).max(axis=0)
        changed = bool(np.any(ups < upper - 1e-12) or np.any(los > lower + 1e-12))
        upper = np.minimum(upper, ups)
        lower = np.maximum(lower, los)
        if np.any(lower > upper + 1e-9):
            return lower, upper, False
        upper = np.maximum(upper, lower)  # collapse near-crossings from rounding
        if not changed:
            break
    return lower, upper, True


def _solve_node(base: LpProblem, lower: np.ndarray, upper: np.ndarray,
                active: np.ndarray) -> tuple[LpSolution, np.ndarray]:
    """Solve one node LP exactly by activating violated inequality rows.

    Infeasibility of a row subset already certifies infeasibility of the full
    LP; an unbounded subset falls back to activating every row once. The
    returned active set feeds the node's children.
    """
    m_ub = base.a_ub.shape[0]
    active = np.asarray(active, dtype=int)
    lower, upper, feasible = _tighten_bounds(base, lower, upper)
    if not feasible:
        infeasible = LpSolution(
            v=np.full(base.n_vars, np.nan), objective=np.nan,
            status=SolveStatus.INFEASIBLE, pivots=0, duals=np.zeros(0),
            reduced_costs=np.zeros(0))
        return infeasible, active
    for _ in range(m_ub + 2):
        sub = LpProblem(c=base.c, sense=base.sense, a_eq=base.a_eq, b_eq=base.b_eq,
                        a_ub=base.a_ub[active] if active.size else None,
                        b_ub=base.b_ub[active] if active.size else None,
                        lower=lower, upper=upper)
        sol = solve_lp(sub)
        if sol.status is SolveStatus.INFEASIBLE:
            return sol, active
        if sol.status is SolveStatus.UNBOUNDED:
            if active.size == m_ub:
                return sol, active
            active = np.arange(m_ub)
            continue
        residual = base.a_ub @ sol.v - base.b_ub if m_ub else np.zeros(0)
        violated = np.where(residual > FEAS_TOL)[0]
        violated = np.setdiff1d(violated, active)
        if violated.size == 0:
            return sol, active
        active = np.union1d(active, violated)
    raise RuntimeError("row activation failed to converge")


def _fractional(v: np.ndarray, bins: np.ndarray) -> np.ndarray:
    vals = v[bins]
    return bins[np.abs(vals - np.round(vals)) > INT_TOL]


def _most_fractional(v: np.ndarray, bins: np.ndarray) -> int:
    vals = v[bins]
    dist = np.abs(vals - np.round(vals))
    order = np.argmax(dist)  # argmax takes the lowest index on ties
    return int(bins[order])


def _verify(base: LpProblem, bins: np.ndarray, v: np.ndarray) -> bool:
    """Check a candidate against the original data, not the solver state."""
    if _max_violation(base, v) > FEAS_TOL:
        return False
    return bool(np.all(np.abs(v[bins] - np.round(v[bins])) <= INT_TOL))
