"""Correctness checks of one pass, by routes independent of portopt.

Nothing here imports portopt. Prices are parsed from the input CSV, returns,
moments and the perturbation are recomputed with numpy, every LP and MILP
optimum is compared with HiGHS, and every QP result's Frank-Wolfe gap is
recomputed with HiGHS as the linear oracle. scipy is imported by the
benchmark only. The CSV outputs are checked against the captured weights.

Each check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from workloads import C_PERTURB, LAM, RHO, SIGMA0, TEST_END, TRAIN_END

# Model defaults the workloads leave in place: the minimum allocation, and the
# cap of the drawdown models (the others default to 1).
MIN_ALLOC, MD_CAP = 0.05, 0.5

BUDGET_TOL = 1e-8       # sum(x) = 1, as core.validate_allocation
BOX_TOL = 1e-9          # 0 <= x <= cap
FLOOR_TOL = 1e-7        # mean' x >= rho, the simplex's primal feasibility tolerance
SIGMA_SLACK = 1e-6      # std ceiling slack of the reverse model
MIN_ALLOC_TOL = 1e-9
OBJ_TOL = 1e-7          # agreement with HiGHS on LP and MILP optima
FW_STOP = 1e-8          # the engine's default relative gap stop
FP_SLACK = 1e-12        # rounding slack on the recomputed gap, relative to |grad|
PRICING_TOL = 1e-9      # the simplex oracle's absolute reduced-cost tolerance
OUTPUT_RTOL = 1e-9      # CSV figures recomputed from the captured weights
POSITION_EPS = 1e-6
HIGHS = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
MILP_OPTIONS = {"mip_rel_gap": 1e-9}
SWEEP_GRID = np.geomspace(1e-3, 1e4, 100)
BACKTEST_TAGS = ["markowitz", "reverse_markowitz", "simultaneous", "md", "md_milp"]
DRAWDOWN_TAGS = ["mad", "mad", "md", "md", "md_milp", "md_milp"]


# ---------------------------------------------------------------------------
# data, recomputed from the input file
# ---------------------------------------------------------------------------

def load_returns(path: Path) -> tuple[list[str], np.ndarray]:
    """Dates and simple daily returns (assets x days) of a prices CSV."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    dates = [row[0] for row in rows[1:]]
    prices = np.array([[float(v) for v in row[1:]] for row in rows[1:]]).T
    return dates[1:], prices[:, 1:] / prices[:, :-1] - 1.0


def window(dates, returns, first: str, last: str) -> np.ndarray:
    keep = np.array([first <= d <= last for d in dates])
    return returns[:, keep]


def moments(returns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population covariance (divisor T)."""
    mu = returns.mean(axis=1)
    centered = returns - mu[:, None]
    cov = centered @ centered.T / returns.shape[1]
    return mu, 0.5 * (cov + cov.T)


def perturbed(returns: np.ndarray, seed: int, c: float) -> np.ndarray:
    """The documented perturbation: N(0, sigma_s)/c per observation, drawn from
    a Philox stream keyed by (seed, asset)."""
    noise = np.empty_like(returns)
    for s in range(returns.shape[0]):
        gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(s,))))
        noise[s] = gen.standard_normal(returns.shape[1])
    return returns + noise * (returns.std(axis=1)[:, None] / c)


# ---------------------------------------------------------------------------
# single-allocation checks
# ---------------------------------------------------------------------------

def allocation_failures(x, cap, mu=None, rho=None, cov=None, sigma0=None,
                        min_alloc=None) -> list[str]:
    """Budget, box, return floor, std ceiling and minimum allocation."""
    if not np.all(np.isfinite(x)):
        return ["weights are not finite"]
    out = []
    if abs(x.sum() - 1.0) > BUDGET_TOL:
        out.append(f"budget: sum {x.sum()!r}")
    if x.min() < -BOX_TOL or x.max() > cap + BOX_TOL:
        out.append(f"box: weights in [{x.min()!r}, {x.max()!r}], cap {cap}")
    if rho is not None and mu @ x < rho - FLOOR_TOL:
        out.append(f"return floor: {mu @ x!r} < {rho}")
    if sigma0 is not None and np.sqrt(max(x @ cov @ x, 0.0)) > sigma0 + SIGMA_SLACK:
        out.append(f"std ceiling: {np.sqrt(x @ cov @ x)!r} > {sigma0}")
    if min_alloc is not None:
        held = x[x > MIN_ALLOC_TOL]
        if held.size and held.min() < min_alloc - MIN_ALLOC_TOL:
            out.append(f"min-alloc: held weight {held.min()!r} < {min_alloc}")
    return out


def fw_gap(q, c, x, cap, mu=None, rho=None) -> tuple[float, float, float]:
    """Frank-Wolfe gap of x for min c'x + x'Qx over budget, box and an optional
    return floor, with HiGHS as the linear oracle. Returns (gap, f, |grad|max)."""
    grad = c + 2.0 * (q @ x)
    n = x.shape[0]
    a_ub = b_ub = None
    if rho is not None:
        a_ub, b_ub = -mu[None, :], [-rho]
    res = linprog(grad, A_ub=a_ub, b_ub=b_ub, A_eq=np.ones((1, n)), b_eq=[1.0],
                  bounds=[(0.0, cap)] * n, method="highs", options=HIGHS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS oracle failed: {res.message}")
    return float(grad @ x - grad @ res.x), float(c @ x + x @ q @ x), float(np.abs(grad).max())


def oracle_slack(mu=None) -> float:
    """How far the engine's own gap may understate the true one.

    The engine's oracle stops at a vertex whose reduced costs are at least
    -PRICING_TOL. Moving from it to the true minimizer changes the nonbasic
    weights by at most 2 in total (budget 1, weights >= 0) and the slack of
    the return floor by at most 2 max|mu|, so the oracle's value is within
    PRICING_TOL times that of the minimum."""
    return 2.0 * PRICING_TOL * (1.0 + (float(np.abs(mu).max()) if mu is not None else 0.0))


def claimed_gap(detail: str | None) -> float | None:
    """The Frank-Wolfe gap the engine reports in ``SolveReport.detail``."""
    for part in (detail or "").split():
        if part.startswith("fw_gap="):
            return float(part[len("fw_gap="):])
    return None


def qp_failures(q, c, x, cap, mu=None, rho=None, claimed=None, reported=None) -> list[str]:
    """The Frank-Wolfe gap at x, recomputed with HiGHS as the oracle, is within
    the engine's stop plus what the oracle's tolerance allows; and, where the
    engine reports its own gap and objective, that gap meets the stop exactly."""
    gap, f, scale = fw_gap(q, c, x, cap, mu, rho)
    out = []
    limit = FW_STOP * (1.0 + abs(f)) + oracle_slack(mu if rho is not None else None) \
        + FP_SLACK * (1.0 + scale)
    if gap > limit:
        out.append(f"FW gap {gap!r} > {limit!r}")
    if reported is not None:
        stop = FW_STOP * (1.0 + abs(reported))
        if claimed is None or not claimed <= stop:
            out.append(f"engine's FW gap {claimed!r} above its stop {stop!r}")
    return out


def md_optimum(r, mu, rho, cap, min_alloc=None) -> float:
    """max_x min_t r_t'x over budget, box and floor; with min_alloc, the MILP
    with indicators z: min_alloc z <= x <= cap z."""
    n, t = r.shape
    k = 2 * n + 1 if min_alloc is not None else n + 1
    c = np.zeros(k)
    c[n] = -1.0
    rows = np.zeros((t + 1, k))
    rows[:t, :n] = -r.T
    rows[:t, n] = 1.0
    rows[t, :n] = -mu
    upper = np.zeros(t + 1)
    upper[t] = -rho
    budget = np.zeros((1, k))
    budget[0, :n] = 1.0
    lo = np.concatenate([np.zeros(n), [-np.inf]])
    hi = np.concatenate([np.full(n, cap), [np.inf]])
    if min_alloc is None:
        res = linprog(c, A_ub=rows, b_ub=upper, A_eq=budget, b_eq=[1.0],
                      bounds=list(zip(lo, hi)), method="highs", options=HIGHS)
        if res.status != 0:
            raise RuntimeError(f"HiGHS LP failed: {res.message}")
        return -float(res.fun)
    links = np.zeros((2 * n, k))
    links[:n, :n] = -np.eye(n)
    links[:n, n + 1:] = min_alloc * np.eye(n)
    links[n:, :n] = np.eye(n)
    links[n:, n + 1:] = -cap * np.eye(n)
    res = milp(c, integrality=np.concatenate([np.zeros(n + 1), np.ones(n)]),
               bounds=Bounds(np.concatenate([lo, np.zeros(n)]),
                             np.concatenate([hi, np.ones(n)])),
               constraints=[LinearConstraint(np.vstack([rows, links]), -np.inf,
                                             np.concatenate([upper, np.zeros(2 * n)])),
                            LinearConstraint(budget, 1.0, 1.0)],
               options=MILP_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS MILP failed: {res.message}")
    return -float(res.fun)


def mad_optimum(r, mu, rho, cap) -> float:
    """min_x (1/T) sum_t |dev_t'x| over budget, box and floor."""
    n, t = r.shape
    dev = (r - mu[:, None]).T
    c = np.concatenate([np.zeros(n), np.full(t, 1.0 / t)])
    a_ub = np.vstack([np.hstack([dev, -np.eye(t)]), np.hstack([-dev, -np.eye(t)]),
                      np.concatenate([-mu, np.zeros(t)])[None, :]])
    b_ub = np.concatenate([np.zeros(2 * t), [-rho]])
    budget = np.concatenate([np.ones(n), np.zeros(t)])[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=budget, b_eq=[1.0],
                  bounds=[(0.0, cap)] * n + [(0.0, None)] * t, method="highs", options=HIGHS)
    if res.status != 0:
        raise RuntimeError(f"HiGHS LP failed: {res.message}")
    return float(res.fun)


def objective_failures(label: str, got, want: float, achieved: float) -> list[str]:
    out = []
    if got is None or abs(got - want) > OBJ_TOL * max(1.0, abs(want)):
        out.append(f"{label}: objective {got!r}, HiGHS {want!r}")
    if got is not None and abs(achieved - got) > OBJ_TOL * max(1.0, abs(got)):
        out.append(f"{label}: weights achieve {achieved!r}, reported {got!r}")
    return out


def op_failures(tag: str, objective, lam: float, x, r, mu, cov, detail=None) -> list[str]:
    """Check one Optimal model solve against the data it should have received."""
    if tag == "markowitz":
        return (allocation_failures(x, 1.0, mu, RHO)
                + qp_failures(cov, np.zeros_like(mu), x, 1.0, mu, RHO,
                              claimed_gap(detail), objective))
    if tag == "reverse_markowitz":
        # The bisection's last accepted point is a minimum-variance optimum for
        # a floor at or below mu'x; its gap with the floor at mu'x is no
        # larger, so that is what is checked.
        return (allocation_failures(x, 1.0, cov=cov, sigma0=SIGMA0)
                + qp_failures(cov, np.zeros_like(mu), x, 1.0, mu, float(mu @ x)))
    if tag == "simultaneous":
        return allocation_failures(x, 1.0) + qp_failures(lam * cov, -mu, x, 1.0,
                                                          claimed=claimed_gap(detail),
                                                          reported=objective)
    if tag == "mad":
        achieved = float(np.abs((r - mu[:, None]).T @ x).mean())
        return (allocation_failures(x, 1.0, mu, RHO)
                + objective_failures(tag, objective, mad_optimum(r, mu, RHO, 1.0), achieved))
    min_alloc = MIN_ALLOC if tag == "md_milp" else None
    achieved = float((r.T @ x).min())
    return (allocation_failures(x, MD_CAP, mu, RHO, min_alloc=min_alloc)
            + objective_failures(tag, objective, md_optimum(r, mu, RHO, MD_CAP, min_alloc),
                                 achieved))


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= OUTPUT_RTOL * max(abs(a), abs(b)) + 1e-12


def _rows(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))[1:]


def _series_row(series: np.ndarray, cumulative: bool) -> list[float]:
    head = [(np.prod(1.0 + series) - 1.0) * 100] if cumulative else []
    return head + [series.mean() * 100, series.std() * 100, series.min() * 100]


def _expected_config(workload: str, i: int) -> dict:
    if workload == "sweep":
        lam = float(SWEEP_GRID[i]) if i < len(SWEEP_GRID) else None
        return {"rho": None, "sigma0": None, "lam": lam, "cap": None}
    if workload == "backtest":
        return {"rho": RHO, "sigma0": SIGMA0, "lam": LAM, "cap": None, "min_alloc": MIN_ALLOC}
    return {"rho": RHO, "sigma0": None, "lam": 0.0, "cap": None, "min_alloc": MIN_ALLOC}


def check_pass(workload: str, seed: int, prices: Path, out_dir: Path, ops: list,
               arrays) -> tuple[list[list[str]], list[str]]:
    """Failures of each captured operation, and failures of the CSV outputs."""
    dates, returns = load_returns(prices)
    train = window(dates, returns, dates[0], TRAIN_END)
    datasets = [train]
    if workload == "drawdown":
        datasets.append(perturbed(train, seed, C_PERTURB))
    expected_tags = {"backtest": BACKTEST_TAGS, "drawdown": DRAWDOWN_TAGS,
                     "sweep": ["simultaneous"] * len(SWEEP_GRID)}[workload]
    stats = [moments(d) for d in datasets]
    weights = []
    op_out = []
    for i, op in enumerate(ops):
        x = arrays[f"w{i}"] if op["weights"] else None
        weights.append(x)
        failures = []
        if i >= len(expected_tags) or op["tag"] != expected_tags[i]:
            failures.append(f"unexpected operation {op['tag']} at position {i}")
        want_cfg = _expected_config(workload, i)
        got_cfg = {key: op[key] for key in want_cfg}
        if got_cfg != want_cfg:
            failures.append(f"configuration {got_cfg} != {want_cfg}")
        k = i % 2 if workload == "drawdown" else 0  # original, then perturbed returns
        if op["data"] >= 0:
            given = arrays[f"r{op['data']}"]
            if given.shape != datasets[k].shape or not np.allclose(
                    given, datasets[k], rtol=0, atol=1e-14):
                failures.append("solver received other returns than the workload's window")
        if op["status"] != "Optimal":
            failures.append(f"status {op['status']}")
        elif not failures:
            try:
                failures += op_failures(op["tag"], op["objective"], op["lam"], x,
                                        datasets[k], *stats[k], op.get("detail"))
            except RuntimeError as exc:  # HiGHS could not solve the reference
                failures.append(str(exc))
        op_out.append(failures)
    try:
        out_failures = _output_failures(workload, out_dir, ops, weights, dates, returns,
                                        train, datasets, stats)
    except (OSError, ValueError, IndexError) as exc:
        out_failures = [f"outputs unreadable: {type(exc).__name__}: {exc}"]
    return op_out, out_failures


def _output_failures(workload, out_dir, ops, weights, dates, returns, train, datasets,
                     stats) -> list[str]:
    out = []
    if workload == "backtest":
        test = window(dates, returns, next(d for d in dates if d > TRAIN_END), TEST_END)
        for name, data, cumulative in (("insample.csv", train, False),
                                       ("outsample.csv", test, True)):
            rows = _rows(out_dir / name)
            if len(rows) != len(ops):
                out.append(f"{name}: {len(rows)} rows for {len(ops)} models")
            for op, x, row in zip(ops, weights, rows):
                if x is None:
                    continue
                want = _series_row(data.T @ x, cumulative)
                got = [float(v) for v in row[1:1 + len(want)]]
                if row[0] != op["tag"] or not all(map(_close, got, want)):
                    out.append(f"{name}: row {row[:len(want) + 1]} != {want}")
                if not cumulative and int(row[4]) != int(np.sum(x > POSITION_EPS)):
                    out.append(f"{name}: {op['tag']} n_stocks {row[4]}")
        return out
    if workload == "sweep":
        mu, cov = stats[0]
        rows = _rows(out_dir / "frontier.csv")
        if len(rows) != len(ops):
            out.append(f"frontier.csv: {len(rows)} rows for {len(ops)} grid points")
        points = [(np.sqrt(x @ cov @ x) * 100, mu @ x * 100) if x is not None else None
                  for x in weights]
        ok = [p for p in points if p is not None]
        ideal = (min(p[0] for p in ok), max(p[1] for p in ok))
        dist = [np.hypot(p[0] - ideal[0], p[1] - ideal[1]) if p else np.inf for p in points]
        for op, p, d, row in zip(ops, points, dist, rows):
            if float(row[0]) != op["lam"] or row[3] != op["status"]:
                out.append(f"frontier.csv: row {row} for lambda {op['lam']!r}")
            elif p is not None and not all(map(_close, [float(v) for v in row[1:3]] +
                                               [float(row[4])], [p[0], p[1], d])):
                out.append(f"frontier.csv: row {row} != {p[0]!r},{p[1]!r},{d!r}")
        chosen = min(range(len(ops)), key=lambda i: (dist[i], ops[i]["lam"]))
        summary = [float(v) for v in _rows(out_dir / "sweep_summary.csv")[0]]
        if not all(map(_close, summary, [ops[chosen]["lam"], *ideal])):
            out.append(f"sweep_summary.csv: {summary} != {ops[chosen]['lam']!r}, {ideal}")
        return out
    rows = {row[0]: row[1] for row in _rows(out_dir / "sensitivity.csv")}
    for i in range(0, len(ops) - 1, 2):
        before, after = weights[i], weights[i + 1]
        if before is None or after is None:
            continue
        held = before > POSITION_EPS
        want = float(np.mean(np.abs(after[held] - before[held]) / before[held]) * 100)
        got = rows.get(ops[i]["tag"])
        if got is None or not _close(float(got), want):
            out.append(f"sensitivity.csv: {ops[i]['tag']} {got} != {want!r}")
    cov0, cov1 = stats[0][1], stats[1][1]
    diff = float(np.mean(np.abs(cov1 - cov0)))
    want = [diff, diff / float(np.mean(np.abs(cov0)))]
    got = [float(v) for v in _rows(out_dir / "covariance_change.csv")[0]]
    if not all(map(_close, got, want)):
        out.append(f"covariance_change.csv: {got} != {want}")
    return out
