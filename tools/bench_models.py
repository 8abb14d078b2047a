"""Solve every model once on the bundled fixture's train window, the three
drawdown models (`mad`, `md`, `md_milp`) on its seed-N perturbation too, and
`mad` on the fixture's full window, and report status, objective, seconds and
work per solve.

Work is the model report's `iterations`: active-set iterations for
`markowitz` and `simultaneous`, critical-line steps for `reverse_markowitz`,
simplex pivots (both phases) for `mad` and `md`, and B&B
nodes for `md_milp`, whose node pivots are read from the `MilpSolution` of
one more solve of the same problem (each node is one LP). That second solve
is timed apart from building its problem, as `build_seconds` and
`solve_seconds`; both are warm, after the report's own solve. The LP models
also report the phase-1 pivots of their region. `markowitz` and
`reverse_markowitz` report their oracles' work, summed over every simplex
state the solve builds: `oracle_states`, `oracle_pivots` and
`oracle_factorizations` (inversions of a basis). `markowitz` builds one state
for its QP solve (phase 1 and the certifying call); `reverse_markowitz`
makes no QP solve and builds one state, whose top-return vertex starts its
critical-line walk and whose last call certifies it. `md_milp` reports the
factorizations of its search's simplex state as `node_factorizations`. A
checkout whose `SimplexState` lacks a counter records null for it. Inputs
match the benchmark's workloads: train window up to 2020-05-01, rho 0.001,
sigma0 0.012, lambda 0.08, perturbation divisor c = 1000. The window is a
column slice; where `ReturnMatrix` stores C order it solves to
the same bits as the `backtest` command's date-mask window. The full window
(all 125 days) is the `solve` command's input; its `mad` row is the largest,
most degenerate LP the fixture gives.

Usage:
    python tools/bench_models.py [--seed N] [--src DIR] [--label NAME] [--out FILE]

`--src` points at the `src` directory of the checkout to measure (default:
this checkout's), so one script measures two commits. With `--out`, the run
is stored under `--label` in that JSON file, keeping the other labels there.
"""

from __future__ import annotations

import argparse
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


def run(seed: int) -> dict:
    from portopt import milp_solver, models, qp_solver
    from portopt.cli_io import ingest_prices
    from portopt.core import ModelConfig, ReturnMatrix
    from portopt.estimation import (PerturbationConfig, asset_stats, compute_simple_returns,
                                    perturb_returns)
    from portopt.lp_solver import SimplexState

    returns = compute_simple_returns(ingest_prices(FIXTURE))
    days = sum(d <= TRAIN_END for d in returns.dates)
    train = ReturnMatrix(returns.tickers, returns.dates[:days], returns.returns[:, :days])
    shaken = perturb_returns(train, PerturbationConfig(c=C_PERTURB, seed=seed))
    cfg = ModelConfig(rho=RHO, sigma0=SIGMA0, lam=LAM)
    builders = {"mad": models.mad_problem, "md": models.md_problem}
    oracle_states = _record_states(qp_solver)
    search_states = _record_states(milp_solver)

    def solve(tag: str, window: ReturnMatrix) -> dict:
        stats = asset_stats(window)
        oracle_states.clear()
        started = time.perf_counter()
        report = models.SOLVERS[tag](window, stats, cfg)
        row = {"status": report.status.value, "objective": report.objective,
               "seconds": round(time.perf_counter() - started, 4), "work": report.iterations}
        if report.allocation is not None:
            row["names"] = int((report.allocation.weights > 1e-9).sum())
        if tag in ORACLE_COUNTED:
            row.update(_oracle_work(oracle_states))
        if tag == "md_milp":
            started = time.perf_counter()
            problem = models.md_milp_problem(window, cfg)[0]
            search_states.clear()
            built = time.perf_counter()
            sol = milp_solver.solve_milp(problem)
            row.update(build_seconds=round(built - started, 6),
                       solve_seconds=round(time.perf_counter() - built, 6),
                       node_pivots=sol.node_pivots,
                       node_factorizations=_total(search_states, "factorizations"))
        if tag in builders:
            row["phase1_pivots"] = SimplexState(builders[tag](window, cfg)[0]).pivots
        return row

    return {
        "fixture": {tag: solve(tag, train) for tag in MODELS},
        f"perturbed_seed_{seed}": {tag: solve(tag, shaken) for tag in DRAWDOWN},
        "full_window": {"mad": solve("mad", returns)},
    }


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
    for window, rows in result.items():
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
