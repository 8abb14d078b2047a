"""Branch-and-bound over binary variables on top of the LP solver.

Nodes relax the binaries to [0, 1]; branching fixes one binary to 0 or 1 in
each child. Search order is best-bound first (the node with the most promising
LP relaxation is explored next), which keeps the tree small when the root
relaxation is already tight, as it is for the drawdown MILP with its exact
big-M of 0.5. Branching picks the most fractional binary, ties broken by
lowest index, so identical problems explore identical trees.

Before the search, a binary z that only switches one continuous column x on
and off leaves the node LP (variable-bound preprocessing; Savelsbergh, ORSA
J. Computing 6, 1994). Such a z costs nothing, may take both 0 and 1 within
its bounds, is in no equality row, and its only `<=` rows are an upper link
x - u z <= 0 (u > 0) and at most one lower link l z - x <= 0, each with rhs 0
and no other nonzero; x has lower bound 0, 0 <= l <= min(u, upper_x), and no
other binary has such a row on x. Projected onto x the links are bounds: x
in [0, min(upper_x, u)] while z is free, [0, 0] on its 0-branch and
[l, min(upper_x, u)] on its 1-branch. So z's column and link rows leave the
node LP, and z takes the value x implies: 0 at x = 0, 1 at x >= l and x / l
between, branched on like any other binary until its branch fixes it. Every
binary of the drawdown MILP is of this kind, so its node LPs are the `md` LP
(T + 2 rows, n + 1 columns) under changed x bounds.

One `SimplexState` serves the whole search, and only the root LP is solved
cold (phase 1, then phase 2). Every other node LP is re-optimized from its
parent's basis, which the heap entry carries: the branching bound leaves that
basis dual feasible, so the dual simplex restores primal feasibility in a few
pivots (Koberstein, PhD thesis, Paderborn 2005; Huangfu & Hall, Math. Prog.
Comp. 10, 2018). On the fixture's drawdown MILP that is 3 nodes and 32 node
pivots; with the link rows in the node LP it took 7 nodes and 53 pivots.

There is no bound propagation and no rounding heuristic: on the fixture's
drawdown MILP they cost 3.7x the node pivots (5,213 against 1,411), and in
best-bound search an early incumbent saves no node LP. An incumbent's binaries
are snapped to exact 0/1 (a warm vertex can hold a basic binary at 1 - 1e-16),
and the snapped vector is re-verified against the original constraints
directly, independent of the LP solver's own bookkeeping.

Tolerances: integrality 1e-6. A node is pruned when its bound is within
1e-7 * (1 + |incumbent|) of the incumbent, an absolute 1e-7 at objectives
well below 1. No cutting planes and no general-integer variables.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DataError, DimensionError, SolveStatus
from .lp_solver import LpProblem, SimplexState, FEAS_TOL, _max_violation

INT_TOL = 1e-6
GAP_TOL = 1e-7


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
    """Branch-and-bound outcome. `nodes` counts the node LPs solved, root
    included, and `node_pivots` their simplex pivots, the root's phase 1
    included."""

    v: np.ndarray | None
    objective: float
    status: SolveStatus
    nodes: int
    best_bound: float
    node_pivots: int


class _VariableBounds(NamedTuple):
    """Binaries that only switch a continuous column on and off: z[i] links
    to column x[i] by low[i] * z <= x <= up[i] * z (low 0 when there is no
    lower link), through the `<=` rows `rows`."""

    z: np.ndarray
    x: np.ndarray
    low: np.ndarray
    up: np.ndarray
    rows: np.ndarray


def solve_milp(problem: MilpProblem, node_limit: int = 100_000) -> MilpSolution:
    """Solve a binary MILP exactly by LP-based branch and bound.

    Returns Optimal with the incumbent when no open node's bound is more than
    GAP_TOL * (1 + |incumbent|) better than it, Infeasible when no integral
    assignment is feasible, and IterationLimit with the best incumbent found
    (or none) when the node budget runs out. `objective` and `best_bound` are
    reported in the problem's own sense. The incumbent's binaries are exact
    0/1 values.
    """
    if node_limit <= 0:
        raise DataError("node_limit must be positive")
    base = problem.base
    bins = np.array(problem.binary_indices, dtype=int)
    sense_sign = 1.0 if base.sense == "min" else -1.0  # keys are min-form

    def key(value: float) -> float:
        return sense_sign * value

    # the node LP: base without the variable-bound binaries and their rows
    links = _variable_bounds(problem)
    keep = np.ones(base.n_vars, dtype=bool)
    keep[links.z] = False
    column = np.cumsum(keep) - 1          # node-LP column of each kept column
    link_of = np.full(base.n_vars, -1)
    link_of[links.z] = np.arange(links.z.size)
    x_col = column[links.x]
    rows = np.ones(base.a_ub.shape[0], dtype=bool)
    rows[links.rows] = False
    upper = base.upper[keep]
    upper[x_col] = np.minimum(upper[x_col], links.up)
    node_lp = LpProblem(c=base.c[keep], sense=base.sense, a_eq=base.a_eq[:, keep],
                        b_eq=base.b_eq, a_ub=base.a_ub[rows][:, keep], b_ub=base.b_ub[rows],
                        lower=base.lower[keep], upper=upper)
    c_min = sense_sign * node_lp.c
    state = SimplexState(node_lp)

    def full_vector(lo: np.ndarray, up: np.ndarray) -> np.ndarray:
        """The node vertex over base's columns: a removed binary takes the
        value its branch fixed, or else the value its x implies."""
        v = np.zeros(base.n_vars)
        v[keep] = state.vertex
        x = v[links.x]
        z = np.ones(x.size)
        z[x <= 0.0] = 0.0
        between = (x > 0.0) & (x < links.low)
        z[between] = x[between] / links.low[between]
        z[up[x_col] <= 0.0] = 0.0
        z[lo[x_col] > 0.0] = 1.0
        v[links.z] = z
        return v

    def finish(v, objective, status, best):
        return MilpSolution(v, objective, status, nodes, best, state.pivots)

    root_status = state.minimize(c_min)
    nodes = 1
    if root_status is SolveStatus.INFEASIBLE:
        return finish(None, np.nan, SolveStatus.INFEASIBLE, np.nan)
    if root_status is SolveStatus.UNBOUNDED:
        raise DataError("LP relaxation is unbounded; the MILP is malformed")

    incumbent: np.ndarray | None = None
    incumbent_obj = np.inf  # min-form key

    def consider(v: np.ndarray):
        nonlocal incumbent, incumbent_obj
        v = v.copy()
        v[bins] = np.round(v[bins])  # each is within INT_TOL of 0 or 1
        k = key(float(base.c @ v))
        if k < incumbent_obj - 1e-12 and _verify(base, bins, v):
            incumbent, incumbent_obj = v, k

    def pruned(k: float) -> bool:
        return incumbent is not None and k >= incumbent_obj - GAP_TOL * (1 + abs(incumbent_obj))

    counter = itertools.count()
    heap: list = []
    root_v = full_vector(node_lp.lower, node_lp.upper)
    best_bound = key(float(base.c @ root_v))
    heapq.heappush(heap, (best_bound, next(counter), node_lp.lower.copy(),
                          node_lp.upper.copy(), root_v, state.basis()))
    # With best-bound search the popped key is a valid global lower bound; if
    # the heap drains without a cutoff, the incumbent is proven optimal.
    drained = True

    while heap:
        bound, _, lo, up, v_rel, start = heapq.heappop(heap)
        best_bound = bound
        if pruned(bound):
            best_bound = min(bound, incumbent_obj)
            drained = False
            break
        j = _most_fractional(v_rel, bins)
        if j is None:  # only the root is pushed integral
            consider(v_rel)
            continue
        if nodes >= node_limit:
            return finish(incumbent,
                          sense_sign * incumbent_obj if incumbent is not None else np.nan,
                          SolveStatus.ITERATION_LIMIT, sense_sign * bound)
        # the 0-branch caps col at 0 and the 1-branch raises its lower bound
        # to `on`: the binary's own column at 1, or its x at l
        link = link_of[j]
        col, on = (column[j], 1.0) if link < 0 else (x_col[link], links.low[link])
        for fix_to in (0.0, 1.0):
            lo_c, up_c = lo.copy(), up.copy()
            if fix_to == 0.0:
                up_c[col] = 0.0
            else:
                lo_c[col] = on
            status = state.reopen(start, c_min, lo_c, up_c)
            nodes += 1
            if status is not SolveStatus.OPTIMAL:
                continue
            v = full_vector(lo_c, up_c)
            objective = float(base.c @ v)
            child_key = max(key(objective), bound)  # bounds never improve downward
            if pruned(child_key):
                continue
            if _most_fractional(v, bins) is None:
                consider(v)
            else:
                heapq.heappush(heap, (child_key, next(counter), lo_c, up_c, v, state.basis()))

    if incumbent is None:
        return finish(None, np.nan, SolveStatus.INFEASIBLE, np.nan)
    if drained:
        best_bound = incumbent_obj
    return finish(incumbent, sense_sign * incumbent_obj, SolveStatus.OPTIMAL,
                  sense_sign * best_bound)


def _variable_bounds(problem: MilpProblem) -> _VariableBounds:
    """The binaries that solve_milp turns into bounds on their partner column
    (see the module docstring for the rule), in index order."""
    base = problem.base
    n = base.n_vars
    a, b = base.a_ub, base.b_ub
    is_bin = np.zeros(n, dtype=bool)
    is_bin[np.array(problem.binary_indices, dtype=int)] = True
    nonzero = a != 0.0
    pair_rows = np.flatnonzero((nonzero.sum(axis=1) == 2) & (b == 0.0))
    pairs = nonzero[pair_rows]            # a copy
    first = pairs.argmax(axis=1)
    pairs[np.arange(first.size), first] = False
    last = pairs.argmax(axis=1)
    # a link row holds one binary z and one continuous x, with opposite signs
    z = np.where(is_bin[first], first, last)
    x = np.where(is_bin[first], last, first)
    a_z, a_x = a[pair_rows, z], a[pair_rows, x]
    is_up = (a_x > 0) & (a_z < 0)         # x <= u z
    is_low = (a_x < 0) & (a_z > 0)        # l z <= x
    link = (is_bin[z] != is_bin[x]) & (is_up | is_low)
    rows, z, x, a_z, a_x, is_up = (arr[link] for arr in (pair_rows, z, x, a_z, a_x, is_up))

    n_links = np.bincount(z, minlength=n)
    n_up = np.bincount(z[is_up], minlength=n)
    linked = np.unique(z * n + x)         # distinct (z, x) pairs
    partners = np.bincount(linked // n, minlength=n)       # per binary
    binaries_on = np.bincount(linked % n, minlength=n)     # per continuous column
    partner = np.zeros(n, dtype=int)
    partner[z] = x
    up = np.zeros(n)
    low = np.zeros(n)
    up[z[is_up]] = -a_z[is_up] / a_x[is_up]
    low[z[~is_up]] = a_z[~is_up] / -a_x[~is_up]
    ok = (is_bin & (base.c == 0.0) & ~(base.a_eq != 0.0).any(axis=0)
          & (base.lower <= 0.0) & (base.upper >= 1.0)
          & (nonzero.sum(axis=0) == n_links) & (n_up == 1) & (n_links <= 2)
          & (partners == 1) & (binaries_on[partner] == 1) & (base.lower[partner] == 0.0)
          & (low <= np.minimum(up, base.upper[partner])))
    chosen = np.flatnonzero(ok)
    return _VariableBounds(chosen, partner[chosen], low[chosen], up[chosen], rows[ok[z]])


def _most_fractional(v: np.ndarray, bins: np.ndarray) -> int | None:
    """The binary farthest from an integer, lowest index on ties, or None when
    every binary is within INT_TOL of one."""
    if bins.size == 0:
        return None
    dist = np.abs(v[bins] - np.round(v[bins]))
    k = int(np.argmax(dist))  # argmax takes the lowest index on ties
    return int(bins[k]) if dist[k] > INT_TOL else None


def _verify(base: LpProblem, bins: np.ndarray, v: np.ndarray) -> bool:
    """Check a candidate against the original data, not the solver state."""
    return _max_violation(base, v) <= FEAS_TOL and _most_fractional(v, bins) is None
