"""Solve every model once on the bundled fixture's train window, the three
drawdown models (`mad`, `md`, `md_milp`) on its seed-N perturbation too, and
`mad` on the fixture's full window, and report status, objective, seconds and
work per solve.

The perturbed drawdown solves run the way the `sensitivity` command runs
them: each starts from the final basis of its model's solve on the train
window (the root basis for `md_milp`), and its row's `start` says whether
that start was taken (`warm`) or phase 1 ran (`cold`). Every other solve is
cold. A checkout whose reports carry no basis solves them cold.

Work is the model report's `iterations`: for the three mean-variance models
the critical-line steps from the top-return vertex to the piece their point
lies on (`markowitz`, `reverse_markowitz`, `simultaneous`; a checkout that
solves `markowitz` and `simultaneous` by the active-set QP reports its
steps and drops instead), simplex pivots (both phases) for `mad` and `md`,
and B&B nodes for `md_milp`, whose node pivots are read from the `MilpSolution` of
one more solve of the same problem from the same start (each node is one
LP). That second solve is timed apart from building its problem, as
`build_seconds` and `solve_seconds`, after the report's own solve. The LP
models also report the phase-1 pivots of their region, from the same start
(0 where it is taken). `markowitz` and
`reverse_markowitz` report their oracles' work, summed over every simplex
state the solve builds: `oracle_states`, `oracle_pivots` and
`oracle_factorizations` (inversions of a basis). Solved alone, each
mean-variance model builds its own critical line and with it one state,
whose top-return vertex starts the walk; `reverse_markowitz` certifies its
point with one more call in that state, and `markowitz` builds a second
state, of the budget box and its return floor, whose one call certifies
its point. `md_milp` reports the
factorizations of its search's simplex state as `node_factorizations`. A
checkout whose `SimplexState` lacks a counter records null for it. Inputs
match the benchmark's workloads: train window up to 2020-05-01, rho 0.001,
sigma0 0.012, lambda 0.08, perturbation divisor c = 1000. The window is a
column slice; where `ReturnMatrix` stores C order it solves to
the same bits as the `backtest` command's date-mask window. The full window
(all 125 days) is the `solve` command's input; its `mad` row is the largest,
most degenerate LP the fixture gives.

The `backtest` section solves the three mean-variance models in the
`backtest` command's order on one shared `MeanVariancePath` of the train
window (each model alone where the checkout has none), 10 times over with a
fresh path each time. It reports each model's median seconds and its walk
steps, the median of the three together, and `qp_builds`, the `QpProblem`s
one pass builds. The first model carries the path's one build and its walk.
The `sweep` section runs `lambda_sweep` on the default 100-point grid over
the train window 3 times and reports the median seconds, `n_excluded`
(points not Optimal), `qp_builds` and `path_pieces`, the pieces of the
critical line the sweep walked (null on a checkout without one).

The `data` section times the steps before any solve, first of all in the
process: the fixture's ingest and the train window's seed-N perturbation,
each as its first call in the process (`first_seconds`; the first
perturbation includes the lazy `numpy.random` import) and the least of 20
more calls (`min_seconds`), with the SHA-256 of the perturbed returns.

The `estimation` section times `asset_stats` on the train window the same
way, right after the `data` steps, and reports the route by which it proved
the covariance PSD: `certificate` (the O(nT) rounding bound on the centered
block) or `cholesky` (the n x n check); `delta_over_psd_tol` is that bound,
δ = (T + 3)·ε·‖C‖_F²/T, over `PSD_TOL`, computed here from the window. It
also counts the `np.linalg.cholesky` calls of one fixture `backtest` command
(`backtest_choleskys`).

Usage:
    python tools/bench_models.py [--seed N] [--src DIR] [--label NAME] [--out FILE]

`--src` points at the `src` directory of the checkout to measure (default:
this checkout's), so one script measures two commits. With `--out`, the run
is stored under `--label` in that JSON file, keeping the other labels there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "prices_2020h1.csv"
TRAIN_END = "2020-05-01"
RHO, SIGMA0, LAM, C_PERTURB = 0.001, 0.012, 0.08, 1000.0
MODELS = ("markowitz", "reverse_markowitz", "simultaneous", "mad", "md", "md_milp")
DRAWDOWN = ("mad", "md", "md_milp")
MEAN_VARIANCE = ("markowitz", "reverse_markowitz", "simultaneous")
ORACLE_COUNTED = ("markowitz", "reverse_markowitz")


def _record_states(module) -> list:
    """Make `module` build SimplexStates that append themselves to the
    returned list."""
    states = []

    class Recorded(module.SimplexState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            states.append(self)

    module.SimplexState = Recorded
    return states


def _total(states: list, name: str):
    """A counter summed over `states`, or None where a state lacks it."""
    if not all(hasattr(state, name) for state in states):
        return None
    return sum(getattr(state, name) for state in states)


def _oracle_work(states: list) -> dict:
    return {"oracle_states": len(states), "oracle_pivots": _total(states, "pivots"),
            "oracle_factorizations": _total(states, "factorizations")}


def _timed(call, repeats: int = 20) -> tuple[dict, object]:
    """The seconds of a first call and the least of `repeats` more, and the
    first call's result."""
    started = time.perf_counter()
    result = call()
    first = time.perf_counter() - started
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        call()
        times.append(time.perf_counter() - started)
    return {"first_seconds": round(first, 6), "min_seconds": round(min(times), 6)}, result


def run(seed: int) -> dict:
    from portopt import milp_solver, models, qp_solver
    from portopt.cli_io import ingest_prices
    from portopt.core import ModelConfig, ReturnMatrix
    from portopt.estimation import (PerturbationConfig, asset_stats, compute_simple_returns,
                                    perturb_returns)
    from portopt.lp_solver import SimplexState

    ingest_seconds, prices = _timed(lambda: ingest_prices(FIXTURE))
    returns = compute_simple_returns(prices)
    days = sum(d <= TRAIN_END for d in returns.dates)
    train = ReturnMatrix(returns.tickers, returns.dates[:days], returns.returns[:, :days])
    perturb_seconds, shaken = _timed(
        lambda: perturb_returns(train, PerturbationConfig(c=C_PERTURB, seed=seed)))
    data = {"ingest_seconds": ingest_seconds, "perturb_seconds": perturb_seconds,
            "perturbed_sha256": hashlib.sha256(shaken.returns.tobytes()).hexdigest()}
    estimation = _estimation(train)
    cfg = ModelConfig(rho=RHO, sigma0=SIGMA0, lam=LAM)
    builders = {"mad": models.mad_problem, "md": models.md_problem}
    oracle_states = _record_states(qp_solver)
    search_states = _record_states(milp_solver)
    builds = _count_builds(qp_solver)

    def solve(tag: str, window: ReturnMatrix, start=None) -> tuple[dict, object]:
        """The row of one solve, from `start` where one is given, and the
        final basis its report carries (None on a checkout without one)."""
        stats = asset_stats(window)
        oracle_states.clear()
        kw = {} if start is None else {"start": start}
        started = time.perf_counter()
        report = models.SOLVERS[tag](window, stats, cfg, **kw)
        row = {"status": report.status.value, "objective": report.objective,
               "seconds": round(time.perf_counter() - started, 4), "work": report.iterations}
        if report.allocation is not None:
            row["names"] = int((report.allocation.weights > 1e-9).sum())
        if tag in ORACLE_COUNTED:
            row.update(_oracle_work(oracle_states))
        if tag in DRAWDOWN:
            row["start"] = "warm" if report.detail == "start=warm" else "cold"
        if tag == "md_milp":
            started = time.perf_counter()
            problem = models.md_milp_problem(window, cfg)[0]
            search_states.clear()
            built = time.perf_counter()
            sol = milp_solver.solve_milp(problem, **kw)
            row.update(build_seconds=round(built - started, 6),
                       solve_seconds=round(time.perf_counter() - built, 6),
                       node_pivots=sol.node_pivots,
                       node_factorizations=_total(search_states, "factorizations"))
        if tag in builders:
            row["phase1_pivots"] = SimplexState(builders[tag](window, cfg)[0], **kw).pivots
        return row, getattr(report, "basis", None)

    fixture, bases = {}, {}
    for tag in MODELS:
        fixture[tag], bases[tag] = solve(tag, train)
    return {
        "data": data,
        "estimation": estimation,
        "fixture": fixture,
        f"perturbed_seed_{seed}": {tag: solve(tag, shaken, bases[tag])[0] for tag in DRAWDOWN},
        "full_window": {"mad": solve("mad", returns)[0]},
        "backtest": _backtest(asset_stats(train), cfg, builds),
        "sweep": _sweep(asset_stats(train), builds),
    }


def _counting(fn, calls: list):
    """`fn`, appending its first argument's shape to `calls` on each call."""
    def counted(matrix, *args, **kwargs):
        calls.append(matrix.shape)
        return fn(matrix, *args, **kwargs)

    return counted


def _estimation(train) -> dict:
    """`asset_stats` on the train window: its seconds, the route of its PSD
    proof, the rounding bound over PSD_TOL, and the Choleskys of one
    fixture `backtest`."""
    import contextlib
    import io
    import tempfile

    import numpy as np

    from portopt import core
    from portopt.cli_io import RunConfig, run_command
    from portopt.estimation import asset_stats

    seconds, _ = _timed(lambda: asset_stats(train))
    checks, factored = [], []
    is_psd, cholesky = core._is_psd, np.linalg.cholesky
    core._is_psd = _counting(is_psd, checks)
    try:
        asset_stats(train)
    finally:
        core._is_psd = is_psd
    r = train.returns
    centered = r - r.mean(axis=1, keepdims=True)
    days = r.shape[1]
    delta = (days + 3) * np.finfo(float).eps * float(np.sum(centered * centered)) / days

    np.linalg.cholesky = _counting(cholesky, factored)
    try:
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            run_command(RunConfig(command="backtest", prices=str(FIXTURE), output_dir=out,
                                  rho=RHO, sigma0=SIGMA0, lam=LAM, train_end=TRAIN_END,
                                  test_end="2020-07-31"))
    finally:
        np.linalg.cholesky = cholesky
    return {"asset_stats_seconds": seconds, "route": "cholesky" if checks else "certificate",
            "delta_over_psd_tol": float(f"{delta / core.PSD_TOL:.4g}"),
            "backtest_choleskys": len(factored)}


def _count_builds(qp_solver) -> list:
    """Make every `QpProblem` built append its size to the returned list."""
    builds = []
    post_init = qp_solver.QpProblem.__post_init__

    def counted(problem):
        builds.append(problem.n_vars)
        post_init(problem)

    qp_solver.QpProblem.__post_init__ = counted
    return builds


def _backtest(stats, cfg, builds: list, repeats: int = 10) -> dict:
    """The mean-variance models as the `backtest` command solves them;
    `builds` lists the `QpProblem`s built."""
    from statistics import median

    from portopt import models

    shared = getattr(models, "MeanVariancePath", None)
    seconds = {tag: [] for tag in MEAN_VARIANCE}
    totals, steps, qp_builds = [], {}, None
    for _ in range(repeats):
        builds.clear()
        kw = {} if shared is None else {"path": shared(stats, cfg.cap)}
        first = time.perf_counter()
        for tag in MEAN_VARIANCE:
            started = time.perf_counter()
            report = models.SOLVERS[tag](None, stats, cfg, **kw)
            seconds[tag].append(time.perf_counter() - started)
            steps[tag] = report.iterations
        totals.append(time.perf_counter() - first)
        qp_builds = len(builds)
    rows = {tag: {"seconds": round(median(seconds[tag]), 6), "work": steps[tag]}
            for tag in MEAN_VARIANCE}
    return {"shared_path": shared is not None, "repeats": repeats,
            "seconds": round(median(totals), 6), "qp_builds": qp_builds, **rows}


def _sweep(stats, builds: list, repeats: int = 3) -> dict:
    """The default 100-point lambda sweep over the train window; `builds`
    lists the `QpProblem`s built."""
    from statistics import median

    from portopt import analytics, models

    lines = []
    if hasattr(models, "CriticalLine"):
        class Recorded(models.CriticalLine):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                lines.append(self)

        models.CriticalLine = Recorded
    grid = analytics.lambda_grid()
    times = []
    for _ in range(repeats):
        builds.clear()
        lines.clear()
        started = time.perf_counter()
        result = analytics.lambda_sweep(stats, grid)
        times.append(time.perf_counter() - started)
    return {"points": len(grid), "repeats": repeats, "seconds": round(median(times), 6),
            "n_excluded": sum(status != "Optimal" for status in result.statuses),
            "chosen_lambda": result.chosen_lambda, "qp_builds": len(builds),
            "path_pieces": sum(len(line.pieces) for line in lines) if lines else None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3, help="perturbation seed (default 3)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="src directory of the checkout to measure")
    parser.add_argument("--label", default="run", help="key of this run in --out")
    parser.add_argument("--out", type=Path, help="JSON file to store the run in")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    result = run(args.seed)
    data = result["data"]
    for step in ("ingest", "perturb"):
        times = data[f"{step}_seconds"]
        print(f"data {step:14s} first {times['first_seconds']:.4f}s "
              f"min {times['min_seconds']:.4f}s")
    print(f"data perturbed_sha256 {data['perturbed_sha256']}")
    for section in ("estimation", "backtest", "sweep"):
        print(f"{section:18s} " + " ".join(f"{k}={v}" for k, v in result[section].items()))
    for window, rows in result.items():
        if window in ("data", "estimation", "backtest", "sweep"):
            continue
        for tag, row in rows.items():
            extra = " ".join(f"{k}={v}" for k, v in row.items()
                             if k not in ("status", "objective", "seconds", "work"))
            print(f"{window:18s} {tag:18s} {row['status']:10s} {row['objective']!r:24s} "
                  f"{row['seconds']:8.3f}s work={row['work']} {extra}")
    if args.out is not None:
        stored = json.loads(args.out.read_text()) if args.out.exists() else {}
        stored[args.label] = {"seed": args.seed, **result}
        args.out.write_text(json.dumps(stored, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
