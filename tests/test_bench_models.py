import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from portopt import core, lp_solver, milp_solver, models, qp_solver

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# `main` puts `--src` on `sys.path`, so it runs in a fresh interpreter.
# `_memory`, `_mean_variance` and `_panels` are stubbed: their generated
# panels take most of a full run's time.
SMOKE = """
import sys
sys.path.insert(0, sys.argv[1])
import bench_models
bench_models._memory = lambda seed: {}
bench_models._panels = lambda: {}
bench_models._mean_variance = lambda: {}
sys.exit(bench_models.main(["--seed", "3", "--label", "smoke", "--out", sys.argv[2]]))
"""


def test_bench_script_runs_its_sections_on_this_tree(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, "-c", SMOKE, str(TOOLS), str(out)],
                   capture_output=True, text=True, check=True)
    result = json.loads(out.read_text())["smoke"]
    assert set(result) == {"seed", "data", "estimation", "fixture", "perturbed_seed_3",
                           "full_window", "backtest", "sweep", "mean_variance", "panels",
                           "memory", "src_lines"}
    assert set(result["data"]) == {"ingest_seconds", "perturb_seconds", "perturbed_sha256"}
    fixture = result["fixture"]
    assert set(fixture) == {"markowitz", "reverse_markowitz", "simultaneous", "mad", "md",
                            "md_milp"}
    assert all(row["status"] == "Optimal" for row in fixture.values())
    counters = [fixture[tag][key] for tag, key in (
        ("markowitz", "oracle_pivots"), ("reverse_markowitz", "oracle_factorizations"),
        ("simultaneous", "oracle_pivots"), ("md_milp", "node_factorizations"))]
    assert all(isinstance(count, int) for count in counters)
    assert {row["start"] for row in result["perturbed_seed_3"].values()} <= {
        "warm", "vertex", "cold"}
    assert isinstance(result["sweep"]["path_pieces"], int)


def _counts(result: dict) -> dict:
    """`result` without its timings."""
    return {key: _counts(value) if isinstance(value, dict) else value
            for key, value in result.items() if "seconds" not in key}


def test_run_twice_in_one_process_leaves_the_modules_as_they_were(monkeypatch):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, os.environ.get(var, "1"))   # the script sets them
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_models

    monkeypatch.setattr(bench_models, "_memory", lambda seed: {})
    monkeypatch.setattr(bench_models, "_panels", lambda: {})
    monkeypatch.setattr(bench_models, "_mean_variance", lambda: {})
    patched = [(lp_solver, "SimplexState"), (milp_solver, "SimplexState"),
               (qp_solver.QpProblem, "__post_init__"), (models, "CriticalLine"),
               (core, "_is_psd"), (np.linalg, "cholesky")]
    originals = [getattr(owner, name) for owner, name in patched]
    first, second = bench_models.run(3), bench_models.run(3)
    assert [getattr(owner, name) for owner, name in patched] == originals
    assert _counts(second) == _counts(first)
