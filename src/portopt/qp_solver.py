"""Convex quadratic programming over a polytope by a primal active-set method.

Minimizes f(v) = c @ v + v @ Q @ v with Q symmetric positive semi-definite,
over the same row-and-bounds feasible region the LP solver understands
(Nocedal & Wright, *Numerical Optimization*, 2nd ed., section 16.5).

The method keeps a working set W of constraints held at equality: every
equality row, the bounds of the variables it fixes, and the `<=` rows it has
met. It starts at the vertex phase 1 of a `SimplexState` finds, with that
vertex's nonbasic bounds in W. Each iteration works on the free variables:
with Z an orthonormal basis of the null space of W's rows on them, f is
minimized over x + Z w.

* Where the reduced Hessian 2 Z'QZ is positive definite along the reduced
  gradient Z'g, the step is the Newton step to the subspace minimizer.
* Q is singular for a covariance of T < n days (rank at most T - 1). Where
  the reduced gradient has a component along a direction of zero curvature,
  f is linear and falling along it, and the step follows it to the next
  bound or row (Gill, Murray, Saunders & Wright, SIAM Review 33, 1991).
* A step cut short by a bound or row adds it to W. At a subspace minimizer
  the multipliers of W decide: when each has the sign of a KKT point the
  iterate is optimal, else the constraint whose multiplier has the most
  wrong sign leaves W.

Every step of positive length lowers f, and the minimum of f on W's subspace
depends on W alone, so the iterates never return to a working set they
left by such steps. Only a run of zero-length steps (a degenerate vertex)
can revisit one. When a working set comes back at a subspace minimizer,
adding and dropping switch to smallest index, as the simplex's do, for the
rest of the solve. Only rounding can bring a working set back under that
rule; the loop then ends and the certificate below decides. There is no
iteration cap.

One oracle call certifies the result: s minimizes grad f(x) @ s over the
region, and convexity gives f(x) - f* <= g = grad f(x) @ (x - s), the
Frank-Wolfe gap, returned as `fw_gap`. A gap above gap_tol * (1 + |f|)
raises instead of returning. The oracle is the same `SimplexState` whose
phase 1 gave the starting vertex, so the solve runs phase 1 once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, DimensionError, SolveStatus, PSD_TOL, SYM_TOL, _is_psd
from .lp_solver import AT_LOWER, AT_UPPER, DEGEN_TOL, LpProblem, SimplexState

GAP_TOL_DEFAULT = 1e-8
DUAL_TOL = 1e-11    # multipliers and reduced gradients, times 1 + max |grad f|
CURV_TOL = 1e-12    # reduced-Hessian eigenvalues, times the largest or 1 + max |grad f|
RANK_TOL = 1e-12    # singular values of W's rows, relative to the largest
STEP_TOL = 1e-12    # rates of approach to a bound or row, relative to the largest


@dataclass(frozen=True)
class QpProblem:
    """min c @ v + v @ Q @ v over {A_eq v = b_eq, A_ub v <= b_ub, l <= v <= u}.

    The feasible region must be nonempty and bounded (every vertex the oracle
    can return has finite coordinates)."""

    q: np.ndarray
    c: np.ndarray
    a_eq: np.ndarray | None = None
    b_eq: np.ndarray | None = None
    a_ub: np.ndarray | None = None
    b_ub: np.ndarray | None = None
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        n = c.shape[0]
        if q.shape != (n, n):
            raise DimensionError(f"Q must be {n} x {n}, got {q.shape}")
        if not np.all(np.isfinite(q)):
            raise DataError("Q contains NaN or Inf")
        if np.max(np.abs(q - q.T), initial=0.0) > SYM_TOL:
            raise DataError(f"Q not symmetric within {SYM_TOL}")
        if n and not _is_psd(q):
            raise DataError(f"Q not positive semi-definite within {PSD_TOL}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "c", c)
        # Delegate region validation to the LP layer.
        region = LpProblem(c=np.zeros(n), a_eq=self.a_eq, b_eq=self.b_eq,
                           a_ub=self.a_ub, b_ub=self.b_ub,
                           lower=self.lower, upper=self.upper)
        object.__setattr__(self, "_region", region)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]


@dataclass(frozen=True)
class QpSolution:
    v: np.ndarray
    objective: float
    fw_gap: float
    iterations: int
    status: SolveStatus


def solve_qp(problem: QpProblem, gap_tol: float = GAP_TOL_DEFAULT) -> QpSolution:
    """The active-set optimum, certified by its Frank-Wolfe gap.

    Returns status Optimal with a gap at most gap_tol * (1 + |objective|), or
    Infeasible when the oracle's phase 1 finds the region empty.
    `iterations` counts the active-set steps and drops. Raises RuntimeError
    when the objective is unbounded below on the region or when the final
    gap misses gap_tol (a loop that rounding makes cycle ends at a point
    whose gap then decides).
    """
    n, q, c = problem.n_vars, problem.q, problem.c
    oracle = SimplexState(problem._region)
    if not oracle.feasible:
        return QpSolution(np.full(n, np.nan), np.nan, np.inf, 0, SolveStatus.INFEASIBLE)
    x, iterations = _active_set(problem, oracle.vertex, oracle.status[:n])
    grad = c + 2.0 * (q @ x)
    if oracle.minimize(grad) is not SolveStatus.OPTIMAL:
        raise RuntimeError("linear oracle failed: the QP region must be nonempty and bounded")
    gap, f = float(grad @ (x - oracle.vertex)), float(c @ x + x @ q @ x)
    if not gap <= gap_tol * (1.0 + abs(f)):
        raise RuntimeError(f"Frank-Wolfe gap {gap!r} above gap_tol * (1 + |f|), f = {f!r}")
    return QpSolution(x, f, gap, iterations, SolveStatus.OPTIMAL)


def _active_set(problem: QpProblem, x: np.ndarray, status: np.ndarray) -> tuple[np.ndarray, int]:
    """Run the active-set loop from the vertex x, whose nonbasic bounds
    (`status`) form the first working set. Returns the optimal point and the
    number of steps and drops taken.

    The working set is `side`: for each variable -1 (its lower bound), +1
    (its upper bound) or 0 (free), then for each `<=` row 1 (held) or 0.
    f falls at every step that moves x, and the minimum on a set's subspace
    depends on the set alone, so a set met twice at a subspace minimizer
    means a cycle of zero-length steps, or rounding. The smallest-index rule
    then holds for the rest of the solve. A set met twice under it ends the
    loop, since only rounding can cause that, and `solve_qp`'s certificate
    decides whether the point is returned or raises.
    """
    region, q, c, n = problem._region, problem.q, problem.c, problem.n_vars
    a_ub, lower, upper = region.a_ub, region.lower, region.upper
    side = np.zeros(n + a_ub.shape[0], dtype=np.int8)
    side[:n][status == AT_LOWER], side[:n][status == AT_UPPER] = -1, 1
    iterations, bland, visited, at_minimum = 0, False, set(), False
    while True:
        grad = c + 2.0 * (q @ x)
        # the 1 keeps a gradient that vanishes at the optimum from shrinking
        # the tolerance to its own rounding
        tol = DUAL_TOL * (1.0 + float(np.abs(grad).max(initial=0.0)))
        free, held = side[:n] == 0, side[n:] > 0
        a_w = np.vstack([region.a_eq, a_ub[held]])
        if not at_minimum:
            p, newton = _direction(q, grad, a_w[:, free], free, tol)
            at_minimum = p is None
        if at_minimum:
            if side.tobytes() in visited:
                if bland:   # only rounding brings a set back now
                    return x, iterations
                bland, visited = True, set()
            visited.add(side.tobytes())
            # multipliers: reduced costs of the held bounds, and lam of the
            # held rows (minus a `<=` row's KKT multiplier, and the
            # simplex's reduced cost of its slack)
            lam = np.linalg.lstsq(a_w[:, free].T, grad[free], rcond=None)[0]
            wrong = side * np.concatenate([grad - a_w.T @ lam, np.zeros(held.shape[0])])
            wrong[n:][held] = lam[region.a_eq.shape[0]:]
            if not (wrong > tol).any():
                return x, iterations
            side[_pick(np.flatnonzero(wrong > tol), wrong, bland)] = 0
            at_minimum, iterations = False, iterations + 1
            continue

        rate = np.concatenate([np.abs(p), a_ub @ p])    # approach to each bound and row
        dist = np.concatenate([np.where(p > 0, upper - x, x - lower), region.b_ub - a_ub @ x])
        t = np.full(rate.shape, np.inf)
        # max(dist, 0): a step of 0 when already at the blocking bound
        np.divide(np.maximum(dist, 0.0), rate, out=t,
                  where=(side == 0) & (rate > STEP_TOL * rate.max()))
        alpha = min(1.0, t.min()) if newton else t.min()
        if not np.isfinite(alpha):
            raise RuntimeError("QP objective is unbounded below on the region")
        x = x + alpha * p
        iterations += 1
        if alpha < t.min():      # a full Newton step: the subspace minimizer
            at_minimum = True
            continue
        # ties: constraints met within DEGEN_TOL of x's move along p
        j = _pick(np.flatnonzero(t <= alpha + DEGEN_TOL / np.abs(p).max()), rate, bland)
        side[j] = 1 if j >= n or p[j] > 0 else -1


def _pick(candidates: np.ndarray, score: np.ndarray, bland: bool) -> int:
    """The constraint to add or drop: the smallest index under the
    smallest-index rule, else the highest score, as the simplex's pricing
    and ratio test do, with scores within a relative 1e-9 of it going to the
    smallest index."""
    if not bland:
        candidates = candidates[score[candidates] >= (1.0 - 1e-9) * score[candidates].max()]
    return int(candidates[0])


def _direction(q, grad, a_f, free, tol):
    """The step on the free variables, and whether it is the Newton step to
    the subspace minimizer; else it descends along zero curvature, to the
    next bound or row. None when the reduced gradient is below `tol`."""
    _, sing, vt = np.linalg.svd(a_f)
    z = vt[np.count_nonzero(sing > RANK_TOL * sing.max(initial=0.0)):].T
    gz = z.T @ grad[free]
    if np.abs(gz).max(initial=0.0) <= tol:
        return None, False
    e, vecs = np.linalg.eigh(2.0 * (z.T @ q[np.ix_(free, free)] @ z))
    w = vecs.T @ gz
    # curvature that moves the gradient by less than CURV_TOL times
    # 1 + max |grad f| over a unit step counts as none
    flat = e <= CURV_TOL * max(float(e[-1]), tol / DUAL_TOL)
    newton = np.abs(w[flat]).max(initial=0.0) <= tol
    step = -(vecs[:, ~flat] @ (w[~flat] / e[~flat])) if newton else -(vecs[:, flat] @ w[flat])
    p = np.zeros(grad.shape[0])
    p[free] = z @ step
    return p, newton
