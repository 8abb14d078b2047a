"""Convex quadratic programming over a polytope by Frank-Wolfe iteration.

Minimizes c @ v + v @ Q @ v with Q symmetric positive semi-definite, over the
same row-and-bounds feasible region the LP solver understands. Each iteration
asks the simplex for the vertex s minimizing the linearized objective
grad f(v) @ s; the quantity g(v) = grad f(v) @ (v - s) is the Frank-Wolfe gap,
and convexity gives f(v) - f* <= g(v), so the final gap doubles as a duality
certificate for the returned objective.

The step is an exact line search, closed-form for a quadratic along
d = s - v: gamma = clamp(-(grad @ d) / (2 d @ Q @ d), 0, 1), with gamma = 1
when d @ Q @ d vanishes (the objective is linear along d). The objective is
therefore non-increasing at every iteration.

Practical notes: the oracle's feasible region never changes, so one
`SimplexState` serves the whole solve: phase 1 runs once, and each iteration
re-optimizes for the new gradient from the basis and tableau the previous
one left. The oracle inverts B only when its drift guard finds a vertex
off a row or bound by more than 1e-7, and `oracle_factorizations` counts
those inversions: none over the 6,957 oracle calls of the fixture's
`markowitz`. Q @ v is updated incrementally from Q @ s (vertices are
sparse) and refreshed periodically to stop floating-point drift.
Frank-Wolfe's O(1/k) tail makes very tight gaps expensive; the default
relative gap of 1e-8 suits the daily-decimal covariance scale this package
works at, and callers wanting speed can pass 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import DataError, DimensionError, SolveStatus, PSD_TOL, SYM_TOL, _is_psd
from .lp_solver import LpProblem, SimplexState, _max_violation

GAP_TOL_DEFAULT = 1e-8
MAX_ITERS = 50_000      # Frank-Wolfe iterations a solve may take
REFRESH_EVERY = 1024


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
    oracle_pivots: int = 0
    oracle_factorizations: int = 0


def solve_qp(
    problem: QpProblem,
    gap_tol: float = GAP_TOL_DEFAULT,
    start: np.ndarray | None = None,
    level: float | None = None,
) -> QpSolution:
    """Frank-Wolfe with exact line search and the simplex as linear oracle.

    Stops when the Frank-Wolfe gap falls below gap_tol * (1 + |objective|),
    returning status Optimal; after MAX_ITERS iterations the best (current)
    iterate is returned with status IterationLimit and its gap. An infeasible region
    surfaces as status Infeasible from the oracle's phase 1.

    `level` asks only which side of a threshold the optimum f* lies on. The
    solve then also stops, with status Optimal, as soon as that is proved:
    when the iterate reaches objective <= level (it is feasible, so
    f* <= level), or when objective - fw_gap > level + gap_tol * (1 + |f|)
    (the gap's lower bound proves f* > level; the margin covers the oracle's
    reduced-cost tolerance). Optimal then certifies the side, read off as
    objective <= level, not a minimizer; the returned fw_gap is the
    iterate's. A solve that meets the gap stop first is an ordinary Optimal.
    With level=None the iterates are exactly those of the plain solve.

    `start` optionally supplies a feasible warm-start point (used by the
    frontier bisection); a start that is not finite or violates a row or
    bound by more than 1e-9 is replaced by the phase-1 vertex.
    """
    n = problem.n_vars
    q, c = problem.q, problem.c
    oracle = SimplexState(problem._region)
    if not oracle.feasible:
        return QpSolution(np.full(n, np.nan), np.nan, np.inf, 0, SolveStatus.INFEASIBLE,
                          oracle.pivots, oracle.factorizations)
    x = oracle.vertex
    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape == (n,) and _max_violation(problem._region, start) <= 1e-9:
            x = start.copy()

    qx = q @ x
    gap = np.inf
    for it in range(1, MAX_ITERS + 1):
        grad = c + 2.0 * qx
        status = oracle.minimize(grad)
        if status is not SolveStatus.OPTIMAL:
            raise RuntimeError(
                f"linear oracle returned {status.value}; "
                "the QP feasible region must be nonempty and bounded"
            )
        s = oracle.vertex
        gap = float(grad @ (x - s))
        f = float(c @ x + x @ qx)
        margin = gap_tol * (1.0 + abs(f))
        if gap <= margin or (level is not None and (f <= level or f - gap > level + margin)):
            return QpSolution(x, f, gap, it, SolveStatus.OPTIMAL, oracle.pivots,
                              oracle.factorizations)

        d = s - x
        qs = _sparse_matvec(q, s)
        qd = qs - qx
        curvature = float(d @ qd)
        if curvature <= 1e-14:
            gamma = 1.0
        else:
            gamma = min(1.0, max(0.0, gap / (2.0 * curvature)))
        x = x + gamma * d
        qx = qx + gamma * qd
        if it % REFRESH_EVERY == 0:
            qx = q @ x

    f = float(c @ x + x @ (q @ x))
    return QpSolution(x, f, gap, MAX_ITERS, SolveStatus.ITERATION_LIMIT, oracle.pivots,
                      oracle.factorizations)


def _sparse_matvec(q: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Q @ s exploiting that oracle vertices have few nonzero coordinates."""
    nz = np.nonzero(s)[0]
    if nz.size == 0:
        return np.zeros(q.shape[0])
    if nz.size > q.shape[0] // 4:
        return q @ s
    return q[:, nz] @ s[nz]
