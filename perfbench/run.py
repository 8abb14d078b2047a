"""portopt's benchmark: the ``backtest``, ``sweep`` and ``drawdown`` workloads,
each driven through the public CLI entry ``portopt.cli_io.main``.

    python3 perfbench/run.py --workload backtest --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout; it imports portopt from the
checkout's ``src`` and builds nothing. Each pass runs in a fresh worker
process (worker.py) with BLAS pinned to one thread, one pass at a time; passes
repeat while another one fits in ``--seconds`` (at least one runs), and
timings are medians over them. The first pass's results are checked by routes
independent of portopt (checks.py); every later pass must reproduce its
outputs (``time_s`` aside), statuses, work counts and weights exactly.
``--trace 1`` adds one traced pass and reports the per-layer metrics instead
of the end-to-end ones. BENCHMARK.json lists the workloads that are gated.

Workings go to ``.bench_work/<workload>/`` in the checkout, including
``result.json`` with every sample and the recorded environment. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)  # before numpy loads, here and in every child

import argparse
import ast
import hashlib
import json
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import check_pass
from workloads import WORKLOADS, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 11
DEADLINE_S = 170.0   # the whole run must end within 180 s
CHECK_RESERVE_S = 15.0


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            **BLAS_THREADS, "threads_flag": 1, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def child_env() -> dict:
    # A fixed hash seed gives every worker the same dict and set layouts.
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")


# Run in a fresh interpreter: time ``import portopt`` with a Gauge, whose
# module is pure Python and loads nothing that portopt would.
SETUP_CODE = f"""import sys
sys.path.append({str(HERE)!r})
from gauge import Gauge
with Gauge() as gauge:
    import portopt
print(repr(gauge.reading()))
"""


def setup_times(cwd: Path) -> list[dict]:
    """Gauge readings of fresh interpreters that ``import portopt``."""
    readings = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=cwd, env=child_env(),
                              check=True, capture_output=True, text=True, timeout=60)
        readings.append(ast.literal_eval(done.stdout.strip().splitlines()[-1]))
    return readings


def run_pass(work: Path, index: int, workload: str, seed: int, trace: int,
             timeout: float) -> dict:
    """One pass in a fresh worker; ``{"exit": None}`` if it produced nothing."""
    pass_dir = work / f"pass{index}"
    pass_dir.mkdir()
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    with (pass_dir / "log.txt").open("w") as log:
        try:
            subprocess.run(cmd, cwd=pass_dir, env=child_env(), stdout=log,
                           stderr=subprocess.STDOUT, timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            return {"exit": None, "error": f"timed out after {timeout:.0f} s", "dir": pass_dir}
    result_file = pass_dir / "pass.json"
    if not result_file.exists():
        tail = (pass_dir / "log.txt").read_text().strip().splitlines()[-1:]
        return {"exit": None, "error": f"worker failed: {tail}", "dir": pass_dir}
    result = json.loads(result_file.read_text())
    with np.load(pass_dir / "arrays.npz") as arrays:
        result["arrays"] = {key: arrays[key] for key in arrays.files}
    result["dir"] = pass_dir
    return result


def output_digest(out_dir: Path) -> str:
    """SHA-256 over every output file, with insample.csv's time_s column cut."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "insample.csv":
            data = b"\n".join(line.rsplit(b",", 1)[0] for line in data.splitlines())
        digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0" + data + b"\0")
    return digest.hexdigest()


def same_work(a: dict, b: dict, arrays_a: dict, arrays_b: dict, i: int) -> bool:
    """Two passes' i-th operations agree on everything but their time."""
    keys = [k for k in a if k != "op_s"]
    if any(a[k] != b.get(k) for k in keys):
        return False
    return not a["weights"] or bool((arrays_a[f"w{i}"] == arrays_b[f"w{i}"]).all())


def tally(n_ops: int, passes: list[dict], op_checks: list[list[str]],
          digests: list[str]) -> tuple[int, list[str]]:
    """Failed operations over all passes, and the correctness problems found.

    An operation fails when it raised, returned a status other than Optimal,
    failed a check on pass 0, never ran because its command aborted or its
    worker died, or differs from pass 0, as do all of a pass whose outputs
    differ. A status is a failure but not a correctness problem; everything
    else is both.
    """
    problems = []
    first = passes[0]
    reference = first["ops"] if first["exit"] is not None else []
    for i, found in enumerate(op_checks):
        problems += [f"op {i} ({reference[i]['tag']}): {f}" for f in found
                     if not f.startswith("status ")]
    checked = [i < len(op_checks) and not op_checks[i] for i in range(n_ops)]
    failed = 0
    for k, p in enumerate(passes):
        if p["exit"] is None:
            problems.append(f"pass {k}: {p['error']}")
            failed += n_ops
            continue
        same_outputs = digests[k] == digests[0]
        if not same_outputs:
            problems.append(f"pass {k}: outputs differ from pass 0")
        for i in range(n_ops):
            same = (i < len(p["ops"]) and i < len(reference)
                    and same_work(reference[i], p["ops"][i], first["arrays"], p["arrays"], i))
            if i < len(reference) and not same:
                problems.append(f"pass {k}: operation {i} differs from pass 0")
            failed += not (checked[i] and same and same_outputs)
    return failed, problems


def quantile(values, q: float) -> float:
    """The q-quantile for q in tenths, by the inclusive method."""
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[round(q * 10) - 1]


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict,
                 started: float) -> tuple[dict, dict]:
    """Measure and check one workload; returns (result line, full record)."""
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    prices = write_inputs(ROOT, workload, work)

    setup = [] if trace else setup_times(work)
    # The traced pass goes first, so that the per-layer metrics exist even when
    # no untraced pass fits in the time left; one traced pass bounds the time
    # of an untraced one.
    traced = None
    if trace:
        traced = run_pass(work, 0, name, seed, 1,
                          DEADLINE_S - CHECK_RESERVE_S - (perf_counter() - started))
    per_pass = traced.get("wall_s", 0.0) if traced else 0.0
    passes = []
    measure_start = perf_counter()
    while not passes or measured + per_pass <= seconds:  # the next pass ends within --seconds
        elapsed = perf_counter() - started
        if (passes or traced) and elapsed + 1.3 * per_pass + CHECK_RESERVE_S > DEADLINE_S:
            break  # another pass would leave no room to finish within the run's time limit
        passes.append(run_pass(work, len(passes) + bool(traced), name, seed, 0,
                               DEADLINE_S - CHECK_RESERVE_S - elapsed))
        measured = perf_counter() - measure_start
        per_pass = measured / len(passes)

    every = ([traced] if traced else []) + passes
    first = every[0]
    op_checks, output_checks = [], []
    if first["exit"] is not None:
        op_checks, output_checks = check_pass(name, seed, prices, first["dir"] / "out",
                                              first["ops"], first["arrays"])
    failed, failures = tally(workload.ops, every, op_checks,
                             [output_digest(p["dir"] / "out") for p in every])
    if first["exit"] == 0:  # an aborted command leaves no outputs to check
        failures += output_checks
    reference = first.get("ops", [])

    op_times = [op["op_s"] for p in passes if p["exit"] is not None for op in p["ops"]]
    gauges = [p["gauge"] for p in passes if p["exit"] is not None]
    walls = [g["gauged_s"] for g in gauges]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "ops_per_pass": workload.ops,
              "pass_wall_s": walls, "pass_gauge": gauges,
              "setup_s": [g["gauged_s"] for g in setup], "setup_gauge": setup,
              "peak_rss_mb": [p["peak_rss_mb"] for p in passes if p["exit"] is not None],
              "op_s": op_times, "failures": failures,
              "not_traced": traced.get("unwrapped", []) if traced else [],
              "statuses": [op["status"] for op in reference]}
    if trace:
        layers = traced.get("layers", {}) if traced["exit"] is not None else {}
        if layers:
            # Plain time, bursts taken out, to compare with the traced pass's.
            untraced = statistics.median(g["net_s"] for g in gauges) if gauges else 0.0
            layers["trace.untraced_wall_s"] = untraced
            layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced if walls else 0.0
            layers["point_p50_s"] = quantile(op_times, 0.5)
            layers["point_p90_s"] = quantile(op_times, 0.9)
            if abs(layers["trace.self_sum_s"] - layers["trace.wall_s"]) > 1e-6:
                failures.append("self times do not add up to the traced wall time")
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]} if layers else {}
    elif not walls:
        metrics = {}
    else:
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(record["setup_s"]),
                  "peak_rss_mb": statistics.median(record["peak_rss_mb"])}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    attempted = workload.ops * len(every)
    line = {"correct": not failures and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics}
    record["result"] = line
    (work / "result.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    return line, record


def report(record: dict) -> None:
    """Human-readable lines for one workload, before the JSON line."""
    name = record["workload"]
    line = record["result"]
    env = " ".join(f"{k}={v}" for k, v in record["environment"].items())
    print(f"[{name}] environment: {env}")
    passes = len(record["pass_wall_s"])
    share = line["failed"] / line["attempted"]
    print(f"[{name}] {passes} untraced pass(es) of {record['ops_per_pass']} operations; "
          f"failed_share = {share:g} ({line['failed']} of {line['attempted']} operations)")
    samples = {"wall_s": passes, "setup_s": len(record["setup_s"]),
               "peak_rss_mb": passes, "trace.untraced_wall_s": passes,
               "point_p50_s": len(record["op_s"]), "point_p90_s": len(record["op_s"])}
    for metric, value in line["metrics"].items():
        count = f" ({samples[metric]} samples)" if metric in samples else ""
        print(f"[{name}] {metric} = {value['value']:.6g} {value['unit']}{count}")
    for label, gauges in (("pass", record["pass_gauge"]), ("setup", record["setup_gauge"])):
        if gauges:
            wall = statistics.median(g["wall_s"] for g in gauges)
            burst = statistics.median(g["burst_s"] for g in gauges)
            print(f"[{name}] {label}: median plain wall {wall:.6g} s, "
                  f"median burst {burst * 1e3:.4g} ms")
    for failure in record["failures"]:
        print(f"[{name}] FAILED: {failure}")
    if record["trace"] and not passes:
        print(f"[{name}] no untraced pass fitted after the traced one; "
              "trace.untraced_wall_s and trace.overhead_s read 0")
    if record["not_traced"]:
        print(f"[{name}] not traced, binding gone: {', '.join(record['not_traced'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="portopt benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("backtest", "sweep", "drawdown", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    needed = [ROOT / "src" / "portopt" / "__init__.py", ROOT / "tools" / "make_fixture.py",
              ROOT / "data" / "prices_2020h1.csv", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: not a portopt checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    names = ("backtest", "sweep", "drawdown") if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        lines[name], record = run_workload(name, args.seed, args.seconds, args.trace, spec,
                                           perf_counter() if len(names) > 1 else started)
        report(record)
    if len(names) == 1:
        print(json.dumps(lines[names[0]]))
    else:
        print(json.dumps({
            "correct": all(line["correct"] for line in lines.values()),
            "attempted": sum(line["attempted"] for line in lines.values()),
            "failed": sum(line["failed"] for line in lines.values()),
            "metrics": {f"{name}.{metric}": value for name, line in lines.items()
                        for metric, value in line["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
