"""Solve every model once on the bundled fixture's train window, the three
drawdown models (`mad`, `md`, `md_milp`) on its seed-N perturbation too, and
`mad` on the fixture's full window, and report status, objective, seconds and
work per solve.

The perturbed drawdown solves run the way the `sensitivity` command runs
them: each starts from the final basis of its model's solve on the train
window (the root basis for `md_milp`). Every other solve is given no start.
A drawdown row's `start` names the basis its answer's simplex state
started from: `warm` (the given basis was taken), `vertex` (a basis the
model built, as `mad` does without a start) or `cold` (the slack basis),
and `phase1_pivots` counts the pivots phase 1 took from it (0 where it was
primal feasible). For `md_milp` that is the phase 1 of its search's state,
which starts at the optimal basis of the `md` LP the window keeps (`md`
runs first and solved it), so it reads 0.

Work is the model report's `iterations`: for the three mean-variance models
the critical-line steps from the top-return vertex to the piece their point
lies on (`markowitz`, `reverse_markowitz`, `simultaneous`), simplex pivots
(both phases) for `mad` and `md`, and B&B nodes for `md_milp`, whose node
pivots are read from the `MilpSolution` of one more solve of the same
problem from the same start (each node is one LP). That second solve is
timed apart from building its problem, as `build_seconds` and
`solve_seconds`, after the report's own solve. Solved alone, each
mean-variance model builds its own critical line, kept by the estimates,
and with it the line's one simplex state, whose top-return vertex starts
the walk and whose one more call certifies the point; its `oracle_pivots`
and `oracle_factorizations` (inversions of a basis) are read from that
state. `md_milp` reports the factorizations of its search's simplex state as
`node_factorizations`. Inputs match the benchmark's workloads: train window
up to 2020-05-01, rho 0.001, sigma0 0.012, lambda 0.08, perturbation divisor
c = 1000. The window is a column slice; `ReturnMatrix` stores C order, so it
solves to the same bits as the `backtest` command's date-mask window. The
full window (all 125 days) is the `solve` command's input; its `mad` row is
the largest, most degenerate LP the fixture gives.

The `backtest` section solves the three mean-variance models in the
`backtest` command's order on one set of moment estimates of the train
window, which share the one critical line the estimates keep, 10 times over
with fresh estimates each time, so no pass reuses a line another pass built.
It reports each model's median seconds and its walk steps, the median of the
three together, and `qp_builds`, the critical lines the estimates keep after
one pass (the key's name is older than the lines: a data-built line builds
no `QpProblem` and reads the covariance through the window's centered
returns). The first model carries the
line's one build and its walk. The `sweep` section runs `lambda_sweep` on
the default 100-point grid over fresh estimates of the train window 3 times
and reports the median seconds, `n_excluded` (points not Optimal),
`qp_builds` (lines, as above) and `path_pieces`, the pieces of the kept
lines the sweep walked. Building the estimates is outside both timers.
`src_lines` counts the lines of the measured checkout's `portopt` package.

The `data` section times the steps before any solve, first of all in the
process: the fixture's ingest and the train window's seed-N perturbation,
each as its first call in the process (`first_seconds`) and the least of
20 more calls (`min_seconds`), with the SHA-256 of the perturbed returns.

The `estimation` section times `asset_stats` on the train window the same
way, right after the `data` steps, and reports the route by which it proves
the covariance PSD: `certificate` (the O(nT) rounding bound on the centered
block, `core.gram_psd_bound`, is within `PSD_TOL`) or `cholesky` (the n x n
check); `delta_over_psd_tol` is that bound over `PSD_TOL`. It also counts
the `np.linalg.cholesky` calls of one fixture `backtest` command
(`backtest_choleskys`, 0 where no `QpProblem` is built) and its
`np.linalg.svd`, `lstsq` and `eigh` calls (`backtest_svds`, 0 where the
critical line takes its null spaces in closed form and its steps by LU).

The `mean_variance` section is the mean-variance rungs of the scale
ladder (ROADMAP item 4 will absorb it): for each of MEAN_VARIANCE_RUNGS, a
`tools/make_fixture.build_panel` panel of n names over T + 1 weekdays from
2019-01-02 (`calm`) or 2020-02-03 (`crash`), it times `markowitz` with its
estimates (`asset_stats` and `solve_markowitz` at rho 0 and the default
cap) and the default 100-point `lambda_sweep` with its estimates, each the
least of 3 runs on fresh estimates, and reports the walk steps to
`markowitz`'s point, the pieces the sweep walked and the chosen lambda. The
panels are synthetic, not the paper's data.

The `panels` section solves the drawdown models with no start on generated
panels (`tools/make_fixture.build_panel` in its `calm` regime over T + 1
weekdays from 2019-01-02, rho 0): for each panel, `mad` and `md` with their seconds
and pivots (both phases), and `md_milp` with its seconds, B&B nodes and
node pivots. The panels are synthetic, not the paper's data.

The `memory` section runs one `sensitivity_run` of `mad` and `md` (rho
0.001 on the fixture, 0 on a panel, the seed-N perturbation) in a fresh
interpreter per input: the fixture's train window and the generated
MEMORY_PANELS (`calm`, as in `panels`, seed 7), and one of `markowitz` and
`md` on the fixture (row `fixture markowitz,md`, the path of a run that
builds moment estimates). It reports the process's VmHWM, its
peak resident size, once the input is built and again after the run
(`growth_mb`, the run's own rise), the run's seconds, and `tracemalloc`'s
peak over a second, identical run in n x n doubles (`peak_nxn`): how many
n x n arrays the run holds at its fullest.

Usage:
    python tools/bench_models.py [--seed N] [--src DIR] [--label NAME] [--out FILE]

`--src` points at the `src` directory of the checkout to measure (default:
this checkout's), so one script measures two commits. With `--out`, the run
is stored under `--label` in that JSON file, keeping the other labels there.
`run` patches the modules it counts only within its own calls, so it can run
more than once in one process.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "data" / "prices_2020h1.csv"
TRAIN_END = "2020-05-01"
RHO, SIGMA0, LAM, C_PERTURB = 0.001, 0.012, 0.08, 1000.0
MODELS = ("markowitz", "reverse_markowitz", "simultaneous", "mad", "md", "md_milp")
DRAWDOWN = ("mad", "md", "md_milp")
MEAN_VARIANCE = ("markowitz", "reverse_markowitz", "simultaneous")
PANELS = ((200, 250, 7),)   # generated panels: assets, return days, seed
# the mean-variance rungs: assets, return days, regime
MEAN_VARIANCE_RUNGS = ((2000, 250, "calm"), (2000, 250, "crash"), (390, 250, "calm"),
                       (50, 250, "calm"))
REGIME_START = {"calm": "2019-01-02", "crash": "2020-02-03"}
MEMORY_PANELS = ((1000, 250), (2000, 250))   # the memory section's panels: assets, days


@contextlib.contextmanager
def _recorded_states(module):
    """Within the block, `module` builds SimplexStates that append themselves
    to the yielded list, each with `phase1_pivots`, its pivots when built
    (phase 1 runs in the constructor)."""
    states = []

    class Recorded(module.SimplexState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.phase1_pivots = self.pivots
            states.append(self)

    with mock.patch.object(module, "SimplexState", Recorded):
        yield states


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


def _start_taken(report, state) -> str:
    """The basis the simplex state `state` of a drawdown report's answer
    started from: the given one (`warm`), one the model built (`vertex`) or
    the slack basis (`cold`). `md_milp`'s root LP starts from the slack
    basis without a given one; its search's own state starts at that
    root's optimal basis, which is not the model's choice of start."""
    if report.detail == "start=warm":
        return "warm"
    if report.model_tag == "md_milp":
        return "cold"
    return "vertex" if state.warm else "cold"


def run(seed: int) -> dict:
    from portopt import lp_solver, milp_solver, models
    from portopt.cli_io import ingest_prices
    from portopt.core import ModelConfig, ReturnMatrix
    from portopt.estimation import (PerturbationConfig, asset_stats, compute_simple_returns,
                                    perturb_returns)

    ingest_seconds, prices = _timed(lambda: ingest_prices(FIXTURE))
    returns = compute_simple_returns(prices)
    days = sum(d <= TRAIN_END for d in returns.dates)
    train = ReturnMatrix(returns.tickers, returns.dates[:days], returns.returns[:, :days])
    perturb_seconds, shaken = _timed(
        lambda: perturb_returns(train, PerturbationConfig(c=C_PERTURB, seed=seed)))
    data = {"ingest_seconds": ingest_seconds, "perturb_seconds": perturb_seconds,
            "perturbed_sha256": hashlib.sha256(shaken.returns.tobytes()).hexdigest()}
    cfg = ModelConfig(rho=RHO, sigma0=SIGMA0, lam=LAM)
    estimation = _estimation(train)

    def solve(tag: str, window: ReturnMatrix, start=None) -> tuple[dict, object]:
        """The row of one solve, from `start` where one is given, and the
        final basis its report carries."""
        stats = asset_stats(window)
        for states in (lp_states, search_states):
            states.clear()
        kw = {} if start is None else {"start": start}
        started = time.perf_counter()
        report = models.SOLVERS[tag](window, stats, cfg, **kw)
        row = {"status": report.status.value, "objective": report.objective,
               "seconds": round(time.perf_counter() - started, 4), "work": report.iterations}
        if report.allocation is not None:
            row["names"] = int((report.allocation.weights > 1e-9).sum())
        if tag in MEAN_VARIANCE:
            oracle = stats.critical_lines[cfg.resolved_cap(1.0)].oracle
            row.update(oracle_pivots=oracle.pivots, oracle_factorizations=oracle.factorizations)
        if tag in DRAWDOWN:
            state = (search_states if tag == "md_milp" else lp_states)[-1]
            row["start"] = _start_taken(report, state)
            row["phase1_pivots"] = state.phase1_pivots
        if tag == "md_milp":
            started = time.perf_counter()
            problem = models.md_milp_problem(window, cfg)[0]
            search_states.clear()
            built = time.perf_counter()
            sol = milp_solver.solve_milp(problem, **kw)
            row.update(build_seconds=round(built - started, 6),
                       solve_seconds=round(time.perf_counter() - built, 6),
                       node_pivots=sol.node_pivots,
                       node_factorizations=sum(s.factorizations for s in search_states))
        return row, report.basis

    fixture, bases = {}, {}
    with (_recorded_states(lp_solver) as lp_states,
          _recorded_states(milp_solver) as search_states):
        for tag in MODELS:
            fixture[tag], bases[tag] = solve(tag, train)
        perturbed = {tag: solve(tag, shaken, bases[tag])[0] for tag in DRAWDOWN}
        full_window = {"mad": solve("mad", returns)[0]}
    return {
        "data": data,
        "estimation": estimation,
        "fixture": fixture,
        f"perturbed_seed_{seed}": perturbed,
        "full_window": full_window,
        "backtest": _backtest(train, cfg),
        "sweep": _sweep(train),
        "mean_variance": _mean_variance(),
        "panels": _panels(),
        "memory": _memory(seed),
    }


def _vm_hwm_mb() -> float:
    """This process's peak resident size (VmHWM) in MB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _memory_pass(size: str, seed: str, models: str) -> None:
    """One memory row, printed as JSON: a `sensitivity_run` of `models` on
    the fixture's train window (`size` "fixture") or an assets x days panel,
    run once in this fresh interpreter and once more under tracemalloc."""
    import tracemalloc

    from portopt.analytics import sensitivity_run
    from portopt.core import ModelConfig, PriceMatrix, ReturnMatrix
    from portopt.estimation import PerturbationConfig, compute_simple_returns

    if size == "fixture":
        from portopt.cli_io import ingest_prices
        returns = compute_simple_returns(ingest_prices(FIXTURE))
        days = sum(d <= TRAIN_END for d in returns.dates)
        returns = ReturnMatrix(returns.tickers, returns.dates[:days], returns.returns[:, :days])
        cfg = ModelConfig(rho=RHO)
    else:
        import make_fixture   # beside this script
        n_assets, days = map(int, size.split("x"))
        dates = make_fixture.weekdays("2019-01-02", days + 1)
        returns = compute_simple_returns(PriceMatrix(*make_fixture.build_panel(
            n_assets, make_fixture.SEED, dates, "calm")))
        cfg = ModelConfig(rho=0.0)
    cfgs = dict.fromkeys(models.split(","), cfg)
    pcfg = PerturbationConfig(c=C_PERTURB, seed=int(seed))
    before = _vm_hwm_mb()
    started = time.perf_counter()
    report = sensitivity_run(returns, cfgs, pcfg)
    seconds = time.perf_counter() - started
    after = _vm_hwm_mb()
    tracemalloc.start()
    sensitivity_run(returns, cfgs, pcfg)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    print(json.dumps({
        "vm_hwm_before_mb": round(before, 2), "vm_hwm_after_mb": round(after, 2),
        "growth_mb": round(after - before, 2), "seconds": round(seconds, 4),
        "peak_nxn": round(peak / (8 * returns.n_assets ** 2), 3),
        "rows": {row.model: row.status for row in report.rows}}))


def _memory(seed: int) -> dict:
    """`_memory_pass` on the fixture, each MEMORY_PANELS panel and the
    fixture's `markowitz,md` run, each in a fresh interpreter on the
    measured checkout."""
    import portopt
    src = str(Path(portopt.__file__).resolve().parent.parent)
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import bench_models; "
            "bench_models._memory_pass(*sys.argv[3:])")
    runs = [("fixture", "mad,md"), *((f"{n}x{days}", "mad,md") for n, days in MEMORY_PANELS),
            ("fixture", "markowitz,md")]
    rows = {}
    for size, models in runs:
        done = subprocess.run([sys.executable, "-c", code, src, str(ROOT / "tools"), size,
                               str(seed), models], capture_output=True, text=True, check=True)
        rows[size if models == "mad,md" else f"{size} {models}"] = json.loads(done.stdout)
    return rows


def _panels() -> dict:
    """Cold `mad`, `md` and `md_milp` solves on each generated panel."""
    import make_fixture   # beside this script

    from portopt import milp_solver, models
    from portopt.core import ModelConfig, PriceMatrix
    from portopt.estimation import compute_simple_returns

    cfg = ModelConfig(rho=0.0)
    rows = {}
    for n_assets, days, seed in PANELS:
        dates = make_fixture.weekdays("2019-01-02", days + 1)
        panel = make_fixture.build_panel(n_assets, seed, dates, "calm")
        returns = compute_simple_returns(PriceMatrix(*panel))
        row = {}
        for tag in ("mad", "md"):
            started = time.perf_counter()
            report = models.SOLVERS[tag](returns, None, cfg)
            row[tag] = {"status": report.status.value, "objective": report.objective,
                        "seconds": round(time.perf_counter() - started, 4),
                        "pivots": report.iterations}
        problem = models.md_milp_problem(returns, cfg)[0]
        started = time.perf_counter()
        sol = milp_solver.solve_milp(problem)
        row["md_milp"] = {"status": sol.status.value, "objective": sol.objective,
                          "seconds": round(time.perf_counter() - started, 4),
                          "nodes": sol.nodes, "node_pivots": sol.node_pivots}
        rows[f"{n_assets}x{days}_seed{seed}_calm"] = row
    return rows


def _mean_variance(repeats: int = 3) -> dict:
    """`markowitz` with its estimates and the default sweep with its
    estimates on each MEAN_VARIANCE_RUNGS panel, the least of `repeats`."""
    import make_fixture   # beside this script

    from portopt import analytics, models
    from portopt.core import ModelConfig, PriceMatrix
    from portopt.estimation import asset_stats, compute_simple_returns

    cfg, grid = ModelConfig(rho=0.0), analytics.lambda_grid()
    rows = {}
    for n_assets, days, regime in MEAN_VARIANCE_RUNGS:
        dates = make_fixture.weekdays(REGIME_START[regime], days + 1)
        returns = compute_simple_returns(PriceMatrix(*make_fixture.build_panel(
            n_assets, make_fixture.SEED, dates, regime)))
        solve_times, sweep_times = [], []
        for _ in range(repeats):
            started = time.perf_counter()
            report = models.solve_markowitz(asset_stats(returns), cfg)
            solve_times.append(time.perf_counter() - started)
            started = time.perf_counter()
            stats = asset_stats(returns)
            sweep = analytics.lambda_sweep(stats, grid)
            sweep_times.append(time.perf_counter() - started)
        rows[f"{n_assets}x{days}_{regime}"] = {
            "markowitz": {"status": report.status.value, "objective": report.objective,
                          "seconds": round(min(solve_times), 4),
                          "walk_steps": report.iterations},
            "sweep": {"seconds": round(min(sweep_times), 4),
                      "n_excluded": sum(status != "Optimal" for status in sweep.statuses),
                      "path_pieces": sum(len(line.pieces)
                                         for line in stats.critical_lines.values()),
                      "chosen_lambda": sweep.chosen_lambda}}
    return rows


def _estimation(train) -> dict:
    """`asset_stats` on the train window: its seconds, the route of its PSD
    proof, the rounding bound over PSD_TOL, and the Choleskys and the SVD
    and symmetric eigen calls of one fixture `backtest`."""
    import io
    import tempfile

    import numpy as np

    from portopt.cli_io import RunConfig, run_command
    from portopt.core import PSD_TOL, gram_psd_bound
    from portopt.estimation import asset_stats, mean_returns

    seconds, _ = _timed(lambda: asset_stats(train))
    # the centered block `asset_stats` proves the covariance PSD from
    delta = gram_psd_bound(train.returns - mean_returns(train)[:, None])
    with (mock.patch.object(np.linalg, "cholesky", wraps=np.linalg.cholesky) as cholesky,
          mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd,
          mock.patch.object(np.linalg, "lstsq", wraps=np.linalg.lstsq) as lstsq,
          mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh,
          tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO())):
        run_command(RunConfig(command="backtest", prices=str(FIXTURE), output_dir=out,
                              rho=RHO, sigma0=SIGMA0, lam=LAM, train_end=TRAIN_END,
                              test_end="2020-07-31"))
    return {"asset_stats_seconds": seconds,
            "route": "certificate" if delta <= PSD_TOL else "cholesky",
            "delta_over_psd_tol": float(f"{delta / PSD_TOL:.4g}"),
            "backtest_choleskys": cholesky.call_count,
            "backtest_svds": svd.call_count + lstsq.call_count + eigh.call_count}


def _backtest(train, cfg, repeats: int = 10) -> dict:
    """The mean-variance models as the `backtest` command solves them."""
    from statistics import median

    from portopt import models
    from portopt.estimation import asset_stats

    seconds = {tag: [] for tag in MEAN_VARIANCE}
    totals, steps = [], {}
    for _ in range(repeats):
        stats = asset_stats(train)
        first = time.perf_counter()
        for tag in MEAN_VARIANCE:
            started = time.perf_counter()
            report = models.SOLVERS[tag](None, stats, cfg)
            seconds[tag].append(time.perf_counter() - started)
            steps[tag] = report.iterations
        totals.append(time.perf_counter() - first)
    rows = {tag: {"seconds": round(median(seconds[tag]), 6), "work": steps[tag]}
            for tag in MEAN_VARIANCE}
    return {"repeats": repeats, "seconds": round(median(totals), 6),
            "qp_builds": len(stats.critical_lines), **rows}


def _sweep(train, repeats: int = 3) -> dict:
    """The default 100-point lambda sweep over the train window."""
    from statistics import median

    from portopt import analytics
    from portopt.estimation import asset_stats

    grid = analytics.lambda_grid()
    times = []
    for _ in range(repeats):
        stats = asset_stats(train)
        started = time.perf_counter()
        result = analytics.lambda_sweep(stats, grid)
        times.append(time.perf_counter() - started)
    lines = stats.critical_lines.values()
    return {"points": len(grid), "repeats": repeats, "seconds": round(median(times), 6),
            "n_excluded": sum(status != "Optimal" for status in result.statuses),
            "chosen_lambda": result.chosen_lambda, "qp_builds": len(lines),
            "path_pieces": sum(len(line.pieces) for line in lines)}


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
    result["src_lines"] = sum(len(path.read_text().splitlines())
                              for path in (args.src / "portopt").glob("*.py"))
    data = result["data"]
    for step in ("ingest", "perturb"):
        times = data[f"{step}_seconds"]
        print(f"data {step:14s} first {times['first_seconds']:.4f}s "
              f"min {times['min_seconds']:.4f}s")
    print(f"data perturbed_sha256 {data['perturbed_sha256']}")
    print(f"src_lines          {result['src_lines']}")
    for section in ("estimation", "backtest", "sweep"):
        print(f"{section:18s} " + " ".join(f"{k}={v}" for k, v in result[section].items()))
    for size, row in result["memory"].items():
        print(f"memory {size:11s} " + " ".join(f"{k}={v}" for k, v in row.items()))
    for rung, rows in result["mean_variance"].items():
        for tag, row in rows.items():
            print(f"{rung:26s} {tag:9s} " + " ".join(f"{k}={v}" for k, v in row.items()))
    for panel, rows in result["panels"].items():
        for tag, row in rows.items():
            print(f"{panel:26s} {tag:8s} " + " ".join(f"{k}={v}" for k, v in row.items()))
    for window, rows in result.items():
        if window in ("data", "estimation", "backtest", "sweep", "mean_variance", "panels",
                      "memory", "src_lines"):
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
