import json
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"

# `run` patches the solver modules it counts, so it runs in a fresh
# interpreter. `_memory` and `_panels` are stubbed: their generated panels
# take most of a full run's time.
SMOKE = """
import sys
sys.path.insert(0, sys.argv[1])
import bench_models
bench_models._memory = lambda seed: {}
bench_models._panels = lambda: {}
sys.exit(bench_models.main(["--seed", "3", "--label", "smoke", "--out", sys.argv[2]]))
"""


def test_bench_script_runs_its_sections_on_this_tree(tmp_path):
    out = tmp_path / "bench.json"
    subprocess.run([sys.executable, "-c", SMOKE, str(TOOLS), str(out)],
                   capture_output=True, text=True, check=True)
    result = json.loads(out.read_text())["smoke"]
    assert set(result) == {"seed", "data", "estimation", "fixture", "perturbed_seed_3",
                           "full_window", "backtest", "sweep", "panels", "memory",
                           "src_lines"}
    assert set(result["data"]) == {"ingest_seconds", "perturb_seconds", "perturbed_sha256"}
    fixture = result["fixture"]
    assert set(fixture) == {"markowitz", "reverse_markowitz", "simultaneous", "mad", "md",
                            "md_milp"}
    assert all(row["status"] == "Optimal" for row in fixture.values())
    counters = [fixture[tag][key] for tag, key in (
        ("markowitz", "oracle_pivots"), ("reverse_markowitz", "oracle_factorizations"),
        ("md_milp", "node_factorizations"))]
    assert all(isinstance(count, int) for count in counters)
    assert {row["start"] for row in result["perturbed_seed_3"].values()} <= {
        "warm", "vertex", "cold"}
    assert isinstance(result["sweep"]["path_pieces"], int)
