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

`CriticalLine` follows the minimizer v(t) of v'Qv - t mu'v over the budget
box as t falls from infinity, Markowitz's critical line (1956; Bailey & Lopez
de Prado, *Algorithms* 6, 2013), with the working-set rules above, and keeps
each piece it walks. The three mean-variance models are queries on one such
line: where v'Qv reaches a level (the reverse model), v(1/lambda) (the
penalized model) and where mu'v reaches a floor (minimum variance). Each
query certifies its point with one call in the line's one `SimplexState`,
and the line walks only as far as its deepest query. The moment estimates
keep one line per cap (`models._line`), which every mean-variance query on
them walks. The line takes its region as an `LpProblem` and reads Q only
through `_Sigma`: a dense matrix, or, for estimates built from data, the
factor form Q = CC'/T of their n x T block C of centered returns (Perold,
*Management Science* 30, 1984), where each product costs O(nT) and v'Qv =
|C'v|^2/T is nonnegative in floating point. So a data-built line holds no
n x n array and builds no n x n `QpProblem` (only a top-return face of tied
weights gets a QP of its own, over those weights); `solve_qp` and
`QpProblem` keep their dense Q and its checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (DataError, DimensionError, SolveStatus, PSD_TOL, SYM_TOL, _is_psd,
                   _is_symmetric)
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
        if not _is_symmetric(q):
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
        return _infeasible(n)
    x, iterations, _ = _active_set(problem, oracle.vertex, _bound_side(oracle.status[:n]))
    f = float(c @ x + x @ q @ x)
    gap = _certify(oracle, c + 2.0 * (q @ x), x, f, gap_tol)
    return QpSolution(x, f, gap, iterations, SolveStatus.OPTIMAL)


def _certify(oracle: SimplexState, grad: np.ndarray, x: np.ndarray, f: float,
             gap_tol: float, slack: float = 0.0) -> float:
    """The Frank-Wolfe gap grad @ (x - s) of x, with s from one oracle call,
    plus `slack`; raises when that is above gap_tol * (1 + |f|)."""
    if oracle.minimize(grad) is not SolveStatus.OPTIMAL:
        raise RuntimeError("linear oracle failed: the QP region must be nonempty and bounded")
    gap = float(grad @ (x - oracle.vertex) + slack)
    if not gap <= gap_tol * (1.0 + abs(f)):
        raise RuntimeError(f"Frank-Wolfe gap {gap!r} above gap_tol * (1 + |f|), f = {f!r}")
    return gap


class _Sigma:
    """Q as `CriticalLine` reads it: a dense symmetric PSD matrix `q`, or,
    where `centered` is given, Q = CC'/T through that n x T block C. The
    line reads Q only here, and so do the reverse model's ceiling test and
    the sweep's standard deviations, through `CriticalLine.variance`. The
    dense form evaluates each expression as the line did on a dense Q, to
    the bit."""

    def __init__(self, q: np.ndarray | None = None, centered: np.ndarray | None = None):
        self.q, self.c = q, centered

    def times(self, v: np.ndarray) -> np.ndarray:
        """Qv: C(C'v)/T in the factor form."""
        if self.c is None:
            return self.q @ v
        return self.c @ (v @ self.c) / self.c.shape[1]

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        """u'Qv: (C'u)'(C'v)/T in the factor form, so v'Qv = |C'v|^2/T >= 0."""
        if self.c is None:
            return float(u @ self.q @ v)
        cv = v @ self.c
        return float((cv if u is v else u @ self.c) @ cv) / self.c.shape[1]

    def reduced(self, free: np.ndarray, z: np.ndarray) -> np.ndarray:
        """z'Q_FF z over the free weights F: (C_F'z)'(C_F'z)/T in the
        factor form."""
        if self.c is None:
            return z.T @ self.q[np.ix_(free, free)] @ z
        y = self.c[free].T @ z
        return y.T @ y / self.c.shape[1]

    def block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The dense block Q[rows, cols]."""
        if self.c is None:
            return self.q[np.ix_(rows, cols)]
        return self.c[rows] @ self.c[cols].T / self.c.shape[1]

    def rounding(self):
        """A function of v that bounds the rounding error of `inner(v, v)`,
        with |Q| or |C| formed once for all its calls. Dense: n eps v'|Q|v.
        Factor form: each entry of C'v is an n-term sum, within
        (n/2) eps (|C|'|v|)_t of the exact one, and |C'v|^2 a T-term sum, so
        the error is at most (n + T) eps ||C|'|v||^2 / T."""
        eps = np.finfo(float).eps
        if self.c is None:
            abs_q, n = np.abs(self.q), self.q.shape[0]
            return lambda v: n * eps * (v @ abs_q @ v)
        abs_c = np.abs(self.c)
        n, t = abs_c.shape
        return lambda v: (n + t) * eps * float(np.square(np.abs(v) @ abs_c).sum()) / t


@dataclass(frozen=True)
class Piece:
    """One piece of the critical line: v(t) = x0 + t x1 for t_lo <= t <= t_hi,
    on which the working set `side` (-1 or +1 for a weight held at its lower
    or upper bound, 0 for a free one) is optimal. x_lo and x_hi are its end
    points as the walk computed them."""

    t_lo: float
    t_hi: float
    x0: np.ndarray
    x1: np.ndarray
    side: np.ndarray
    x_lo: np.ndarray
    x_hi: np.ndarray


class CriticalLine:
    """Markowitz's critical line over a budget box, walked from t = inf only
    as far down as the deepest query so far.

    `region` must be the budget box: one row sum(v) = 1 and bounds; its `c`
    is not read. Q is the dense `q`, or CC'/T for an n x T block C given as
    `centered` (`_Sigma`). For t >= 0 a minimizer v(t) of
    f_t(v) = v'Qv - t mu'v over it is piecewise linear in t, and v'Qv and
    mu'v are nondecreasing in t. The walk starts at t = inf, at the vertex
    the oracle finds for cost -mu (`top`): its basic weight is free and its
    nonbasic bounds fix the others (where the budget row's fixed slack
    stays basic, every weight sits at a bound, and the capped
    weight of least return is freed). On each piece one solve in the null
    space of the budget row gives v(t) = v0 + t v1, and with it the bound
    multipliers r(t) = r0 + t r1 of the fixed weights. Fixed weights that tie
    the free one in mu (within STEP_TOL) span the top-return face with it,
    and the line then starts at that face's least-variance point, found by
    `_active_set` over those weights with the others held at the vertex;
    its working set is the first piece's. The piece ends at the
    largest lower t where a free weight reaches a bound, which fixes it, or
    a fixed weight's multiplier takes the wrong sign, which frees it. Ties
    go to the fastest approach, as in `_active_set`; steps of zero
    length are allowed, and once a working set repeats at one t, choices go
    to smallest index for the rest of the walk (a set met twice under that
    rule raises). t never rises and a working set is optimal on one
    interval of t, so the walk ends at t = 0 without a step cap.

    Each piece is kept in `pieces`, so queries in any order walk the line
    once. The walk's one `SimplexState` (`oracle`) found the top vertex, and
    a query certifies its point with one more call in that state, so a line
    builds one state for any mix of queries. Each query returns the point,
    its model's objective, the Frank-Wolfe gap that certifies it and the
    index of the piece the point lies on (the walk's steps to it), or
    Infeasible when the region is empty.
    """

    def __init__(self, region: LpProblem, mu: np.ndarray, *, q: np.ndarray | None = None,
                 centered: np.ndarray | None = None):
        n = region.n_vars
        self.region, self.mu, self.sigma = region, mu, _Sigma(q, centered)
        self.pieces: list[Piece] = []
        self.oracle = SimplexState(region)
        self.feasible = self.oracle.feasible
        if not self.feasible:
            return
        self.oracle.minimize(-mu)
        self.top = x = self.oracle.vertex
        side = _bound_side(self.oracle.status[:n])
        if side.all():
            side[np.flatnonzero(side > 0)[np.argmin(mu[side > 0])]] = 0
        face = np.abs(mu - mu[side == 0][0]) <= STEP_TOL * np.abs(mu).max()
        if face.sum() > 1:
            x, side = _least_variance_face(region, self.sigma, x, side, face)
        # the walk: the point at t on working set side, and the event times
        # and rates of the last piece, which choose its step
        self._x, self._t, self._side, self._events = x, np.inf, side, None
        self._bland, self._visited = False, set()

    def variance(self, v: np.ndarray) -> float:
        """v'Qv, read as the line reads Q."""
        return self.sigma.inner(v, v)

    def at_variance(self, level: float) -> QpSolution:
        """The point where v'Qv reaches `level`, with f_t as its objective.

        It lies on the piece where v'Qv, a quadratic in t, reaches level
        less the rounding error of evaluating v'Qv, at the quadratic's root
        taken in its stable form, or else at t = 0, the minimum-variance
        end. The certificate is f_t's gap at that t, against
        GAP_TOL_DEFAULT."""
        n, sigma, mu = self.region.n_vars, self.sigma, self.mu
        if not self.feasible:
            return _infeasible(n)
        rounding = sigma.rounding()
        for k, piece in self._walk():
            x, x_next, x1 = piece.x_hi, piece.x_lo, piece.x1
            var = sigma.inner(x_next, x_next)
            # `rounding` bounds the rounding of v'Qv, and is convex in v
            room = level - var - max(rounding(x), rounding(x_next))
            if room >= 0.0 or piece.t_lo == 0.0:
                break
        # v'Qv at t_lo + s in [t_lo, t_hi] is var + 2 b s + a s^2; its
        # root s = room / (b + sqrt(b^2 + a room)) is the stable form (a room
        # is 0 where a is, also for the infinite room of an infinite level)
        room, b, a = max(room, 0.0), sigma.inner(x_next, x1), sigma.inner(x1, x1)
        den = b + np.sqrt(b * b + (a * room if a else 0.0))
        s = min(room / den, piece.t_hi - piece.t_lo) if den > 0.0 else 0.0
        x, t = x_next + s * x1, piece.t_lo + s
        f = float(sigma.inner(x, x) - t * (mu @ x))
        gap = _certify(self.oracle, 2.0 * sigma.times(x) - t * mu, x, f, GAP_TOL_DEFAULT)
        return QpSolution(x, f, gap, k, SolveStatus.OPTIMAL)

    def at_penalty(self, lam: float, gap_tol: float = GAP_TOL_DEFAULT) -> QpSolution:
        """The minimizer of lam v'Qv - mu'v, with that as its objective.

        It is v(1/lam); at lam = 0 the objective is linear, and the point is
        the oracle's top-return vertex, not the least-variance point of a
        face of tied returns. The certificate is the objective's own gap,
        against gap_tol."""
        n, mu = self.region.n_vars, self.mu
        if not self.feasible:
            return _infeasible(n)
        k, x = 0, self.top
        if lam > 0.0:
            t = 1.0 / lam
            for k, piece in self._walk():
                if piece.t_lo <= t:
                    break
            # the first piece holds still, and t may be inf there
            x = piece.x0 if k == 0 else piece.x0 + t * piece.x1
        qx = self.sigma.times(x)
        f = float(lam * (x @ qx) - mu @ x)
        gap = _certify(self.oracle, 2.0 * lam * qx - mu, x, f, gap_tol)
        return QpSolution(x, f, gap, k, SolveStatus.OPTIMAL)

    def at_return(self, rho: float) -> QpSolution:
        """The least-variance point whose return mu'v is at least rho, with
        v'Qv as its objective.

        mu'v(t) is linear on each piece and nondecreasing in t, so the point
        is v at the smallest t where mu'v(t) reaches rho, the root taken
        exactly on its piece, or the t = 0 end where that end's return
        already meets rho. Infeasible when rho is above the top vertex's
        return.

        The certificate is a bound on v'Qv's gap over the box and the floor
        mu'v >= rho, from one call in the line's own oracle: x is v(t), and
        for every v of that region 2(Qx)'v >= (2Qx - t mu)'v + t rho, so
        f_t's gap over the box plus t (mu'x - rho) bounds it from above (t
        is 0 where the floor does not bind). It is checked against
        GAP_TOL_DEFAULT."""
        n, sigma, mu = self.region.n_vars, self.sigma, self.mu
        if not self.feasible or rho > mu @ self.top:
            return _infeasible(n)
        for k, piece in self._walk():
            short = rho - mu @ piece.x_lo
            if short > 0.0 or piece.t_lo == 0.0:
                break
        slope = float(mu @ piece.x1)
        s = min(short / slope, piece.t_hi - piece.t_lo) if short > 0.0 and slope > 0.0 else 0.0
        x, t = piece.x_lo + s * piece.x1, piece.t_lo + s
        f = sigma.inner(x, x)
        gap = _certify(self.oracle, 2.0 * sigma.times(x) - t * mu, x, f, GAP_TOL_DEFAULT,
                       t * (mu @ x - rho))
        return QpSolution(x, f, gap, k, SolveStatus.OPTIMAL)

    def _walk(self):
        """Each piece from t = inf down with its index, walking on past the
        last piece found until one ends at t = 0."""
        k = 0
        while k < len(self.pieces) or self._extend():
            yield k, self.pieces[k]
            k += 1

    def _extend(self) -> bool:
        """Step past the last piece and add the next one; False when the
        last piece already ends at t = 0."""
        if self.pieces:
            if self.pieces[-1].t_lo == 0.0:
                return False
            self._step(self.pieces[-1])
        n, sigma, mu, region = self.region.n_vars, self.sigma, self.mu, self.region
        x, t, side, row = self._x, self._t, self._side, region.a_eq[0]
        free = side == 0
        z = _null_basis(row[None, free])
        x1, x0 = np.zeros(n), x
        # the first piece, from t = inf, holds its free weights still: v1 = 0
        # (the budget row pins one free weight, and free weights that tie in
        # mu stay at the least-variance point of the top face)
        if np.isfinite(t):
            x1[free] = z @ np.linalg.lstsq(2.0 * sigma.reduced(free, z),
                                           z.T @ mu[free], rcond=None)[0]
            x0 = x - t * x1
        # the constant and t parts of grad f_t, less the budget row's
        # multiplier, which the free weights fix: on fixed weights, r0 and r1
        r = np.stack([2.0 * sigma.times(x0), 2.0 * sigma.times(x1) - mu])
        scale = np.abs(r).max(axis=1)
        r -= np.outer(r[:, free] @ row[free] / (row[free] @ row[free]), row)
        # margin + rate * t is a free weight's distance to the bound it moves
        # to, or -side * r for a fixed weight; an event is where it falls to 0
        margin = np.where(free, np.where(x1 > 0, x0 - region.lower, region.upper - x0),
                          -side * r[0])
        rate = np.where(free, np.abs(x1), -side * r[1])
        hit = rate > STEP_TOL * np.where(free, np.abs(x1).max(), scale[1])
        t_ev = np.where(hit, np.minimum(-margin / np.where(hit, rate, 1.0), t), -np.inf)
        # an event where t mu is below the multiplier tolerance is at t = 0
        low = t_ev.max() * np.abs(mu).max() <= DUAL_TOL * (1.0 + scale[0])
        t_next = 0.0 if low else float(t_ev.max())
        self._events = t_ev, rate
        self.pieces.append(Piece(t_next, t, x0, x1, side.copy(), x0 + t_next * x1, x))
        return True

    def _step(self, piece: Piece):
        """Move to the lower end of `piece` and change the working set there:
        fix the free weight or free the fixed one whose event comes first."""
        t_ev, rate = self._events
        t_next, side = piece.t_lo, self._side
        if t_next != self._t:
            self._visited = set()
        self._x, self._t = piece.x_lo, t_next
        if side.tobytes() in self._visited:
            if self._bland:
                raise RuntimeError(f"the critical line repeats a working set at t = {t_next!r}")
            self._bland, self._visited = True, set()
        self._visited.add(side.tobytes())
        j = _pick(np.flatnonzero(t_ev >= t_next - 1e-9 * t_next), rate, self._bland)
        side[j] = 0 if side[j] else (-1 if piece.x1[j] > 0 else 1)


def _infeasible(n: int) -> QpSolution:
    return QpSolution(np.full(n, np.nan), np.nan, np.inf, 0, SolveStatus.INFEASIBLE)


def _bound_side(status: np.ndarray) -> np.ndarray:
    """-1 for a column resting at its lower bound, +1 at its upper, else 0."""
    return (status == AT_UPPER).astype(np.int8) - (status == AT_LOWER)


def _least_variance_face(region: LpProblem, sigma: _Sigma, x: np.ndarray, side: np.ndarray,
                         face: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The least-variance point of the budget box's top-return face and
    its working set: the weights in `face` tie in return and move, from the
    vertex x with bound sides `side`, and the others stay at x. The tied
    weights' QP is the one `QpProblem` a line builds, over them alone."""
    held = ~face
    row = region.a_eq[0]
    sub = QpProblem(q=sigma.block(face, face), c=2.0 * (sigma.block(face, held) @ x[held]),
                    a_eq=row[None, face], b_eq=[region.b_eq[0] - row[held] @ x[held]],
                    lower=region.lower[face], upper=region.upper[face])
    x_face, _, side_face = _active_set(sub, x[face], side[face])
    x, side = x.copy(), side.copy()
    x[face], side[face] = x_face, side_face
    return x, side


def _active_set(problem: QpProblem, x: np.ndarray,
                bound_side: np.ndarray) -> tuple[np.ndarray, int, np.ndarray]:
    """Run the active-set loop from the vertex x, whose bounds held at
    `bound_side` (as `_bound_side` gives them) form the first working set.
    Returns the optimal point, the number of steps and drops taken, and the
    bound sides of the final working set.

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
    side = np.concatenate([bound_side, np.zeros(a_ub.shape[0], dtype=np.int8)])
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
                    return x, iterations, side[:n]
                bland, visited = True, set()
            visited.add(side.tobytes())
            # multipliers: reduced costs of the held bounds, and lam of the
            # held rows (minus a `<=` row's KKT multiplier, and the
            # simplex's reduced cost of its slack)
            lam = np.linalg.lstsq(a_w[:, free].T, grad[free], rcond=None)[0]
            wrong = side * np.concatenate([grad - a_w.T @ lam, np.zeros(held.shape[0])])
            wrong[n:][held] = lam[region.a_eq.shape[0]:]
            if not (wrong > tol).any():
                return x, iterations, side[:n]
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
    z = _null_basis(a_f)
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


def _null_basis(a_f: np.ndarray) -> np.ndarray:
    """Columns spanning the null space of a_f's rows, orthonormal, from an
    SVD; none when the rows have full column rank."""
    _, sing, vt = np.linalg.svd(a_f)
    return vt[np.count_nonzero(sing > RANK_TOL * sing.max(initial=0.0)):].T
