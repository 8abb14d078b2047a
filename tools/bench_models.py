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
primal feasible). A checkout whose reports carry no basis solves them with
no start.

Work is the model report's `iterations`: for the three mean-variance models
the critical-line steps from the top-return vertex to the piece their point
lies on (`markowitz`, `reverse_markowitz`, `simultaneous`; a checkout that
solves `markowitz` and `simultaneous` by the active-set QP reports its
steps and drops instead), simplex pivots (both phases) for `mad` and `md`,
and B&B nodes for `md_milp`, whose node pivots are read from the `MilpSolution` of
one more solve of the same problem from the same start (each node is one
LP). That second solve is timed apart from building its problem, as
`build_seconds` and `solve_seconds`, after the report's own solve.
`markowitz` and `reverse_markowitz` report their oracles' work, summed over every simplex
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
`backtest` command's order on one set of moment estimates of the train
window, which share one critical line (through a `MeanVariancePath` on a
checkout that has one, each model alone on one that has neither), 10 times
over with fresh estimates each time, so no pass reuses a line another pass
built. It reports each model's median seconds and its walk steps, the
median of the three together, and `qp_builds`, the `QpProblem`s one pass
builds. The first model carries the line's one build and its walk. The
`sweep` section runs `lambda_sweep` on the default 100-point grid over
fresh estimates of the train window 3 times and reports the median seconds,
`n_excluded` (points not Optimal), `qp_builds` and `path_pieces`, the pieces
of the critical line the sweep walked (null on a checkout without one).
Building the estimates is outside both timers. `src_lines` counts the lines
of the measured checkout's `portopt` package.

The `data` section times the steps before any solve, first of all in the
process: the fixture's ingest and the train window's seed-N perturbation,
each as its first call in the process (`first_seconds`; on a checkout that
draws the perturbation with `numpy.random`, the first perturbation includes
its lazy import) and the least of 20 more calls (`min_seconds`), with the
SHA-256 of the perturbed returns. Its `perturb_ladder` times the seed-N
perturbation of panels of LADDER's sizes (assets x days, the fixture's
returns repeated) the same way, by the checkout's `perturb_returns` and then
by numpy's per-asset loop (one Philox generator reset to each asset's key,
the way `perturb_returns` drew it before it computed the stream in numpy
arrays), checks that both give the same bits, and reports
`numpy_random_import_seconds`: `import numpy.random` after `import numpy`,
the least and the median of 5 fresh interpreters. The loop's first call
follows that import in the process, so it leaves the import out.

The `estimation` section times `asset_stats` on the train window the same
way, right after the `data` steps, and reports the route by which it proved
the covariance PSD: `certificate` (the O(nT) rounding bound on the centered
block) or `cholesky` (the n x n check); `delta_over_psd_tol` is that bound,
δ = (T + 3)·ε·‖C‖_F²/T, over `PSD_TOL`, computed here from the window. It
also counts the `np.linalg.cholesky` calls of one fixture `backtest` command
(`backtest_choleskys`).

The `panels` section solves the drawdown models with no start on generated
panels (`tools/make_fixture.build_panel` in its `calm` regime over T + 1
weekdays from 2019-01-02, rho 0): for each panel, `mad` and `md` with their seconds
and pivots (both phases), and `md_milp` with its seconds, B&B nodes and
node pivots. The panels are synthetic, not the paper's data.

The `warm` section solves `mad` and `md` on the train window's c = 10
perturbations, seeds 0-39, once from the final basis of the model's solve
on the window itself and once with no start (`cold`), and reports the
starts taken, the median pivots and seconds of either, and the largest objective gap between
the two solves of one window. At c = 10 the start is outside its bounds on
most windows, so this measures how phase 1 fares from it.

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
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import subprocess
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
PANELS = ((200, 250, 7),)   # generated panels: assets, return days, seed
LADDER = ((390, 62), (390, 125), (200, 250), (1000, 250), (2000, 250))  # assets x days
WARM_C, WARM_SEEDS = 10.0, 40   # the warm section's perturbations
MEMORY_PANELS = ((1000, 250), (2000, 250))   # the memory section's panels: assets, days


def _record_states(module) -> list:
    """Make `module` build SimplexStates that append themselves to the
    returned list, each with `phase1_pivots`, its pivots when built (phase 1
    runs in the constructor)."""
    states = []

    class Recorded(module.SimplexState):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.phase1_pivots = self.pivots
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


def _start_taken(report, state) -> str:
    """The basis the simplex state `state` of a drawdown report's answer
    started from: the given one (`warm`), one the model built (`vertex`) or
    the slack basis (`cold`)."""
    if report.detail == "start=warm":
        return "warm"
    return "vertex" if getattr(state, "warm", False) else "cold"


def run(seed: int) -> dict:
    from portopt import lp_solver, milp_solver, models, qp_solver
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
            "perturbed_sha256": hashlib.sha256(shaken.returns.tobytes()).hexdigest(),
            "perturb_ladder": _ladder(returns, seed)}
    estimation = _estimation(train)
    cfg = ModelConfig(rho=RHO, sigma0=SIGMA0, lam=LAM)
    oracle_states = _record_states(qp_solver)
    lp_states = _record_states(lp_solver)
    search_states = _record_states(milp_solver)
    builds = _count_builds(qp_solver)

    def solve(tag: str, window: ReturnMatrix, start=None) -> tuple[dict, object]:
        """The row of one solve, from `start` where one is given, and the
        final basis its report carries (None on a checkout without one)."""
        stats = asset_stats(window)
        for states in (oracle_states, lp_states, search_states):
            states.clear()
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
                       node_factorizations=_total(search_states, "factorizations"))
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
        "backtest": _backtest(train, cfg, builds),
        "sweep": _sweep(train, builds),
        "panels": _panels(),
        "warm": _warm(train, cfg),
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


def _numpy_loop(window, cfg):
    """The perturbation by numpy's per-asset loop: one Philox generator
    reset to each asset's key in turn, with the checkout's keys."""
    import numpy as np
    from portopt.core import ReturnMatrix
    from portopt.estimation import _philox_keys
    r = window.returns
    noise = np.empty_like(r)
    bitgen = np.random.Philox(0)
    gen = np.random.Generator(bitgen)
    state = bitgen.state
    for s, key in enumerate(_philox_keys(cfg.seed, window.n_assets)):
        state["state"]["key"] = key
        bitgen.state = state
        gen.standard_normal(out=noise[s])
    return ReturnMatrix(window.tickers, window.dates, r + noise * (r.std(axis=1)[:, None] / cfg.c))


def _ladder(returns, seed: int) -> dict:
    """The checkout's `perturb_returns` and numpy's per-asset loop on
    panels of the LADDER sizes (the fixture's returns repeated), and
    `import numpy.random` after `import numpy` in fresh interpreters."""
    import numpy as np
    from portopt.core import ReturnMatrix
    from portopt.estimation import PerturbationConfig, perturb_returns
    cfg = PerturbationConfig(c=C_PERTURB, seed=seed)
    panels = {f"{n}x{days}": ReturnMatrix(tuple(f"S{s}" for s in range(n)),
                                          tuple(f"D{t:04d}" for t in range(days)),
                                          np.resize(returns.returns, (n, days)))
              for n, days in LADDER}
    timed = {size: _timed(lambda: perturb_returns(panel, cfg)) for size, panel in panels.items()}
    importlib.import_module("numpy.random")  # its import is timed apart, below
    ladder = {}
    for size, panel in panels.items():
        loop, reference = _timed(lambda: _numpy_loop(panel, cfg))
        same = timed[size][1].returns.tobytes() == reference.returns.tobytes()
        ladder[size] = {"portopt": timed[size][0], "numpy_loop": loop, "same_bits": same}
    code = ("import time, numpy; t = time.perf_counter(); import numpy.random; "
            "print(time.perf_counter() - t)")
    imports = sorted(float(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                          text=True, check=True).stdout) for _ in range(5))
    return {"sizes": ladder, "numpy_random_import_seconds": {
        "min_seconds": round(imports[0], 6), "median_seconds": round(imports[2], 6)}}


def _warm(train, cfg) -> dict:
    """`mad` and `md` on each c = WARM_C perturbation of the train window,
    from the window's own basis and cold."""
    from statistics import median

    from portopt import models
    from portopt.estimation import PerturbationConfig, perturb_returns

    windows = [perturb_returns(train, PerturbationConfig(c=WARM_C, seed=seed))
               for seed in range(WARM_SEEDS)]
    rows = {}
    for tag in ("mad", "md"):
        start = models.SOLVERS[tag](train, None, cfg).basis
        runs = {"warm": [], "cold": []}
        for window in windows:
            for side, kw in (("warm", {"start": start}), ("cold", {})):
                started = time.perf_counter()
                report = models.SOLVERS[tag](window, None, cfg, **kw)
                runs[side].append((report, time.perf_counter() - started))
        row = {"c": WARM_C, "seeds": WARM_SEEDS,
               "starts_taken": sum(r.detail == "start=warm" for r, _ in runs["warm"])}
        for side, solved in runs.items():
            row[f"median_{side}_pivots"] = median(r.iterations for r, _ in solved)
            row[f"median_{side}_seconds"] = round(median(t for _, t in solved), 6)
        row["max_objective_gap"] = max(abs(w.objective - c.objective)
                                       for (w, _), (c, _) in zip(runs["warm"], runs["cold"]))
        rows[tag] = row
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


def _backtest(train, cfg, builds: list, repeats: int = 10) -> dict:
    """The mean-variance models as the `backtest` command solves them;
    `builds` lists the `QpProblem`s built."""
    from statistics import median

    from portopt import models
    from portopt.estimation import asset_stats

    shared = getattr(models, "MeanVariancePath", None)
    seconds = {tag: [] for tag in MEAN_VARIANCE}
    totals, steps, qp_builds = [], {}, None
    for _ in range(repeats):
        stats = asset_stats(train)
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
    shared_line = shared is not None or hasattr(stats, "critical_lines")
    return {"shared_path": shared_line, "repeats": repeats,
            "seconds": round(median(totals), 6), "qp_builds": qp_builds, **rows}


def _sweep(train, builds: list, repeats: int = 3) -> dict:
    """The default 100-point lambda sweep over the train window; `builds`
    lists the `QpProblem`s built."""
    from statistics import median

    from portopt import analytics, models
    from portopt.estimation import asset_stats

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
        stats = asset_stats(train)
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
    result["src_lines"] = sum(len(path.read_text().splitlines())
                              for path in (args.src / "portopt").glob("*.py"))
    data = result["data"]
    for step in ("ingest", "perturb"):
        times = data[f"{step}_seconds"]
        print(f"data {step:14s} first {times['first_seconds']:.4f}s "
              f"min {times['min_seconds']:.4f}s")
    print(f"data perturbed_sha256 {data['perturbed_sha256']}")
    ladder = data["perturb_ladder"]
    for size, row in ladder["sizes"].items():
        print(f"data perturb {size:9s} " + " ".join(
            f"{path} first {row[path]['first_seconds']:.4f}s min {row[path]['min_seconds']:.4f}s"
            for path in ("portopt", "numpy_loop")) + f" same_bits={row['same_bits']}")
    print("data import numpy.random " + " ".join(
        f"{k}={v}" for k, v in ladder["numpy_random_import_seconds"].items()))
    print(f"src_lines          {result['src_lines']}")
    for section in ("estimation", "backtest", "sweep"):
        print(f"{section:18s} " + " ".join(f"{k}={v}" for k, v in result[section].items()))
    for tag, row in result["warm"].items():
        print(f"warm {tag:13s} " + " ".join(f"{k}={v}" for k, v in row.items()))
    for size, row in result["memory"].items():
        print(f"memory {size:11s} " + " ".join(f"{k}={v}" for k, v in row.items()))
    for panel, rows in result["panels"].items():
        for tag, row in rows.items():
            print(f"{panel:26s} {tag:8s} " + " ".join(f"{k}={v}" for k, v in row.items()))
    for window, rows in result.items():
        if window in ("data", "estimation", "backtest", "sweep", "panels", "warm", "memory",
                      "src_lines"):
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
