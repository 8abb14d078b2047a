"""Branch-and-bound over on/off columns on top of the LP solver.

An on/off column j has lower bound 0 and a threshold t_j in (0, upper_j]:
its value is either 0 or at least t_j (a semi-continuous variable). A binary
is the special case of a [0, 1] column with t_j = 1. The drawdown MILP
declares each weight on/off at the minimum allocation, so its LP is the `md`
LP itself, with no indicator columns or big-M link rows.

Nodes relax every on/off column to [0, upper]. A column is fractional when
0 < v_j < t_j, and its distance is min(z, 1 - z) with z = v_j / t_j.
Branching takes the column with the largest distance, ties broken by lowest
index, so identical problems explore identical trees: the 0-branch sets its
upper bound to 0 and the 1-branch raises its lower bound to t_j. Search order
is best-bound first (the node with the most promising LP relaxation is
explored next), which keeps the tree small when the root relaxation is
already tight, as it is for the drawdown MILP.

One `SimplexState` serves the whole search. The root LP starts from phase 1,
or from a given start basis (the root basis of a solve of a problem with the
same shape, as `sensitivity` passes for its perturbed window) where the state
can take it. Every node LP has the problem's own rows under
changed bounds, so every other node is re-optimized from its parent's basis,
which the heap entry carries: the branching bound leaves that basis dual
feasible, so the dual simplex restores primal feasibility in a few pivots
(Koberstein, PhD thesis, Paderborn 2005; Huangfu & Hall, Math. Prog. Comp.
10, 2018). The state keeps one basis and its m x m inverse, artificial
columns included, for the whole search. A node's two children reopen its
basis one after the other: the first inverts B, and the second takes a copy
of that inverse, kept from before the first child's pivots, so each
branched node costs one inversion. On the fixture's drawdown MILP that is 3
nodes, 34 node pivots and 1 factorization; on a 200 x 250 panel of
`tools/make_fixture.py` at seed 7, 196 inversions for 392 child LPs.

There is no bound propagation and no rounding heuristic: on the fixture's
drawdown MILP they cost 3.7x the node pivots (5,213 against 1,411), and in
best-bound search an early incumbent saves no node LP. At an incumbent each
on/off value below its threshold snaps to 0 or t_j, whichever is nearer (a
warm vertex can hold a basic binary at 1 - 1e-16), and the snapped vector is
re-verified against the original constraints directly, independent of the LP
solver's own bookkeeping.

Tolerances: integrality 1e-6 on the distance. A node is pruned when its bound
is within 1e-7 * (1 + |incumbent|) of the incumbent, an absolute 1e-7 at
objectives well below 1. No cutting planes and no general-integer variables.
"""

from __future__ import annotations

import heapq
import itertools
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .core import DataError, DimensionError, SolveStatus
from .lp_solver import Basis, LpProblem, SimplexState, FEAS_TOL, _max_violation

INT_TOL = 1e-6
GAP_TOL = 1e-7
NODE_LIMIT = 100_000    # node LPs a search may solve, root included


@dataclass(frozen=True)
class MilpProblem:
    """An LpProblem plus its on/off columns: `on_off` maps column j to its
    threshold t_j, and v_j must be 0 or at least t_j. Each such column needs
    lower bound 0 and 0 < t_j <= upper_j; a binary is {j: 1.0} on [0, 1]."""

    base: LpProblem
    on_off: Mapping[int, float]

    def __post_init__(self):
        on_off = dict(sorted((int(j), float(t)) for j, t in self.on_off.items()))
        object.__setattr__(self, "on_off", on_off)
        base = self.base
        cols = np.array(list(on_off), dtype=int)
        t = np.array(list(on_off.values()), dtype=float)
        if np.any((cols < 0) | (cols >= base.n_vars)):
            raise DimensionError("on/off column index out of range")
        bad = base.lower[cols] != 0.0
        if bad.any():
            raise DataError(f"on/off column {cols[bad][0]} must have lower bound 0")
        bad = ~(np.isfinite(t) & (t > 0.0) & (t <= base.upper[cols]))
        if bad.any():
            raise DataError(f"on/off column {cols[bad][0]} needs a threshold in (0, upper], "
                            f"got {t[bad][0]!r}")


@dataclass(frozen=True)
class MilpSolution:
    """Branch-and-bound outcome. `v` covers the base LP's columns. `nodes`
    counts the node LPs solved, root included, and `node_pivots` their
    simplex pivots, the root's phase 1 included. `root_basis` is the root
    LP's final basis, a start for a problem of the same shape, and `warm`
    says whether the root started from the basis it was given."""

    v: np.ndarray | None
    objective: float
    status: SolveStatus
    nodes: int
    best_bound: float
    node_pivots: int
    root_basis: Basis | None = None
    warm: bool = False


def solve_milp(problem: MilpProblem, *, start: Basis | None = None) -> MilpSolution:
    """Solve an on/off MILP exactly by LP-based branch and bound.

    `start`, the `root_basis` of a solution of a problem with the same
    shape, starts the root LP where `SimplexState` can take it.

    Returns Optimal with the incumbent when no open node's bound is more than
    GAP_TOL * (1 + |incumbent|) better than it, Infeasible when no assignment
    meeting every on/off rule is feasible, and IterationLimit with the best
    incumbent found (or none) when a node is left to branch after NODE_LIMIT
    node LPs. `objective` and `best_bound` are reported in the problem's own
    sense. Each on/off value of the incumbent is exactly 0 or at least its
    threshold.
    """
    base = problem.base
    cols = np.array(list(problem.on_off), dtype=int)
    t = np.array(list(problem.on_off.values()), dtype=float)
    sense_sign = 1.0 if base.sense == "min" else -1.0  # keys are min-form

    def key(value: float) -> float:
        return sense_sign * value

    c_min = sense_sign * base.c
    state = SimplexState(base, start=start)

    def finish(v, objective, status, best):
        return MilpSolution(v, objective, status, nodes, best, state.pivots, root_basis,
                            state.warm)

    root_status = state.minimize(c_min)
    root_basis = state.basis()
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
        x = v[cols]
        below = x < t  # each is within INT_TOL * t of 0 or t
        v[cols[below]] = np.where(x[below] < t[below] - x[below], 0.0, t[below])
        k = key(float(base.c @ v))
        if k < incumbent_obj - 1e-12 and _verify(base, cols, t, v):
            incumbent, incumbent_obj = v, k

    def pruned(k: float) -> bool:
        return incumbent is not None and k >= incumbent_obj - GAP_TOL * (1 + abs(incumbent_obj))

    counter = itertools.count()
    heap: list = []
    root_v = state.vertex
    best_bound = key(float(base.c @ root_v))
    heapq.heappush(heap, (best_bound, next(counter), base.lower.copy(), base.upper.copy(),
                          root_v, root_basis))
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
        k = _most_fractional(v_rel, cols, t)
        if k is None:  # only the root is pushed integral
            consider(v_rel)
            continue
        if nodes >= NODE_LIMIT:
            return finish(incumbent,
                          sense_sign * incumbent_obj if incumbent is not None else np.nan,
                          SolveStatus.ITERATION_LIMIT, sense_sign * bound)
        j = cols[k]
        for on in (False, True):
            lo_c, up_c = lo.copy(), up.copy()
            if on:
                lo_c[j] = t[k]
            else:
                up_c[j] = 0.0
            status = state.reopen(start, c_min, lo_c, up_c)
            nodes += 1
            if status is not SolveStatus.OPTIMAL:
                continue
            v = state.vertex
            child_key = max(key(float(base.c @ v)), bound)  # bounds never improve downward
            if pruned(child_key):
                continue
            if _most_fractional(v, cols, t) is None:
                consider(v)
            else:
                heapq.heappush(heap, (child_key, next(counter), lo_c, up_c, v, state.basis()))

    if incumbent is None:
        return finish(None, np.nan, SolveStatus.INFEASIBLE, np.nan)
    if drained:
        best_bound = incumbent_obj
    return finish(incumbent, sense_sign * incumbent_obj, SolveStatus.OPTIMAL,
                  sense_sign * best_bound)


def _most_fractional(v: np.ndarray, cols: np.ndarray, t: np.ndarray) -> int | None:
    """The position in `cols` of the on/off column farthest from 0 and from
    its threshold, lowest on ties, or None when every distance is within
    INT_TOL."""
    if cols.size == 0:
        return None
    z = np.clip(v[cols], 0.0, t) / t
    dist = np.minimum(z, 1.0 - z)
    k = int(np.argmax(dist))  # argmax takes the lowest index on ties
    return k if dist[k] > INT_TOL else None


def _verify(base: LpProblem, cols: np.ndarray, t: np.ndarray, v: np.ndarray) -> bool:
    """Check a candidate against the original data, not the solver state."""
    return _max_violation(base, v) <= FEAS_TOL and _most_fractional(v, cols, t) is None
