"""One pass of a workload in a fresh process.

Imports portopt from the checkout's ``src``, calls ``portopt.cli_io.main``
once, and writes what the pass did to ``pass.json`` and ``arrays.npz`` in the
working directory. An untraced pass is timed with a ``Gauge`` (gauge.py). ``run.py`` starts it with the pass directory as working
directory; by hand:

    cd <pass dir> && python3 <root>/perfbench/worker.py --root <root> \\
        --workload sweep --seed 1 --trace 0

Every model solve (one operation) is captured through thin wrappers on
``models.SOLVERS`` and on ``analytics.solve_simultaneous`` (the sweep's
per-point call): status, work count, time, configuration, weights and the
returns matrix it was given. With ``--trace 1`` the public functions of every
layer are wrapped as well and each call records a span (see spans.py). All
wrapping patches module and class attributes at run time; nothing under
``src/`` is edited.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

PROBLEM_FUNCTIONS = ("markowitz_problem", "simultaneous_problem", "mad_problem", "md_problem",
            "md_milp_problem", "l1_augment")


def capture_ops(solvers: dict, analytics, ops: list, arrays: dict) -> None:
    """Record every model solve the pass makes into ``ops`` and ``arrays``."""
    matrices: dict[int, tuple[int, object]] = {}  # id -> (index, matrix kept alive)

    def wrap(fn, tag: str, takes_returns: bool):
        def captured(*args, **kwargs):
            cfg = args[-1]
            op = {"tag": tag, "rho": cfg.rho, "sigma0": cfg.sigma0, "lam": cfg.lam,
                  "cap": cfg.cap, "min_alloc": cfg.min_alloc, "data": -1,
                  "iterations": 0, "objective": None, "weights": False}
            if takes_returns:
                matrix = args[0]
                if id(matrix) not in matrices:
                    matrices[id(matrix)] = (len(matrices), matrix)
                    arrays[f"r{len(matrices) - 1}"] = matrix.returns
                op["data"] = matrices[id(matrix)][0]
            start = perf_counter()
            try:
                report = fn(*args, **kwargs)
            except Exception as exc:
                op["op_s"] = perf_counter() - start
                op["status"] = f"error: {type(exc).__name__}: {exc}"
                ops.append(op)
                raise
            op["op_s"] = perf_counter() - start
            op["status"] = report.status.value
            op["iterations"] = report.iterations
            op["objective"] = report.objective
            op["detail"] = report.detail
            if report.allocation is not None:
                arrays[f"w{len(ops)}"] = report.allocation.weights
                op["weights"] = True
            ops.append(op)
            return report
        return captured

    for tag, fn in list(solvers.items()):
        solvers[tag] = wrap(fn, tag, True)
    analytics.solve_simultaneous = wrap(analytics.solve_simultaneous, "simultaneous", False)


def trace_layers(recorder, portopt_modules) -> list[str]:
    """Wrap each layer's public functions at every module that binds them.

    Returns the bindings that no longer exist, so a refactor that moves one
    shows up in the report instead of stopping the traced pass.
    """
    analytics, cli_io, core, lp_solver, milp_solver, models, qp_solver = portopt_modules
    limit = core.SolveStatus.ITERATION_LIMIT

    def lp_counts(args, sol):
        problem = args[0]
        m_ub = problem.a_ub.shape[0]
        return sol.pivots, problem.a_eq.shape[0] + m_ub, problem.n_vars + m_ub

    def qp_counts(args, sol):
        return sol.iterations, int(sol.status is limit)

    def milp_counts(args, sol):
        return (sol.nodes,)

    def sweep_counts(args, result):
        return (sum(status != "Optimal" for status in result.statuses),)

    functions = [
        (cli_io, "ingest_prices", "cli_io.ingest", "", None),
        (cli_io, "compute_simple_returns", "estimation.returns", "", None),
        (cli_io, "asset_stats", "estimation.stats", "", None),
        (cli_io, "train_test_split", "analytics.split", "", None),
        (cli_io, "portfolio_series", "analytics.metrics", "", None),
        (cli_io, "compute_metrics", "analytics.metrics", "", None),
        (cli_io, "lambda_grid", "analytics.grid", "", None),
        (cli_io, "lambda_sweep", "analytics.sweep", "", sweep_counts),
        (cli_io, "sensitivity_run", "analytics.sensitivity", "", None),
        (analytics, "perturb_returns", "estimation.perturb", "", None),
        (analytics, "asset_stats", "estimation.stats", "", None),
        (analytics, "covariance", "estimation.covariance", "", None),
        (analytics, "covariance_change", "estimation.covariance", "", None),
        (analytics, "solve_simultaneous", "models.solve", "simultaneous", None),
        (models, "mean_returns", "estimation.mean", "", None),
        (models, "validate_allocation", "core.validate", "", None),
        (models, "solve_qp", "qp_solver.solve_qp", "", qp_counts),
        (models, "solve_milp", "milp_solver.solve_milp", "", milp_counts),
        (models, "solve_lp", "lp_solver.solve_lp", "direct", lp_counts),
        (qp_solver, "solve_lp", "lp_solver.solve_lp", "oracle", lp_counts),
        (milp_solver, "solve_lp", "lp_solver.solve_lp", "node", lp_counts),
    ]
    functions += [(models, name, "models.build", "", None) for name in PROBLEM_FUNCTIONS]
    missing = []
    for module, attr, name, tag, count in functions:
        if not hasattr(module, attr):
            missing.append(f"{module.__name__}.{attr}")
            continue
        setattr(module, attr, recorder.wrap(getattr(module, attr), name, tag, count))

    validators = [(cls, "core.validate") for cls in
                  (core.PriceMatrix, core.ReturnMatrix, core.AssetStats, core.Allocation)]
    validators += [(lp_solver.LpProblem, "lp_solver.validate"),
                   (qp_solver.QpProblem, "qp_solver.validate")]
    for cls, name in validators:
        cls.__post_init__ = recorder.wrap(cls.__post_init__, name)

    for tag, fn in list(models.SOLVERS.items()):
        models.SOLVERS[tag] = recorder.wrap(fn, "models.solve", tag)
    return missing


def peak_rss_mb() -> float:
    """Peak resident memory of this process image in MB.

    VmHWM restarts at exec. ``ru_maxrss`` does not: it keeps the parent's
    resident size at the moment this process was spawned, so it is only the
    fallback where /proc is missing.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def write_spans(path: Path, spans) -> None:
    with path.open("w") as fh:
        fh.write("name\ttag\tparent\tstart\tend\tcounts\n")
        for name, tag, parent, start, end, counts in spans:
            counts = "raised" if counts is None else ",".join(str(c) for c in counts)
            fh.write(f"{name}\t{tag}\t{parent}\t{start!r}\t{end!r}\t{counts}\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))

    import numpy as np
    import portopt
    from portopt import analytics, cli_io, core, lp_solver, milp_solver, models, qp_solver

    from gauge import Gauge
    from spans import Recorder, layer_metrics
    from workloads import PRICES, WORKLOADS

    if (root / "src") not in Path(portopt.__file__).resolve().parents:
        print(f"error: imported portopt from {portopt.__file__}, not from {root / 'src'}",
              file=sys.stderr)
        return 3
    workload = WORKLOADS[args.workload]
    ops: list = []
    arrays: dict = {}
    capture_ops(models.SOLVERS, analytics, ops, arrays)
    entry = cli_io.main
    recorder = None
    unwrapped: list[str] = []
    if args.trace:
        recorder = Recorder()
        unwrapped = trace_layers(recorder, (analytics, cli_io, core, lp_solver, milp_solver,
                                            models, qp_solver))
        entry = recorder.wrap(cli_io.main, "cli_io.main")

    argv_pass = workload.argv(str(Path("..") / PRICES), args.seed)
    gauge = None
    if args.trace:
        start = perf_counter()
        exit_code = entry(argv_pass)
        wall = perf_counter() - start
    else:
        with Gauge() as gauge:
            exit_code = entry(argv_pass)
        wall = gauge.wall_s
    peak_mb = peak_rss_mb()

    result = {"exit": exit_code, "wall_s": wall, "peak_rss_mb": peak_mb, "ops": ops}
    if gauge is not None:
        result["gauge"] = gauge.reading()
    if recorder is not None:
        result["layers"] = layer_metrics(recorder.spans)
        result["unwrapped"] = unwrapped
        write_spans(Path("spans.tsv"), recorder.spans)
    np.savez("arrays.npz", **arrays)
    Path("pass.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
