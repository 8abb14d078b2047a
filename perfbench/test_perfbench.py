"""Tests of the benchmark's own logic: span self-time arithmetic, the failure
tally, the Frank-Wolfe gap check, the gauge, the seed-7 fixture check, and
agreement with BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import claimed_gap, oracle_slack, qp_failures  # noqa: E402
from gauge import Gauge  # noqa: E402
from spans import Recorder, layer_metrics, per_layer_names, self_times  # noqa: E402
from workloads import WORKLOADS, sha256, write_inputs  # noqa: E402


def span(name, parent, start, end, tag="", counts=()):
    return (name, tag, parent, start, end, counts)


def test_self_time_subtracts_children_at_every_depth():
    spans = [span("cli_io.main", -1, 0.0, 10.0),
             span("models.solve", 0, 1.0, 4.0, "md"),
             span("lp_solver.solve_lp", 1, 2.0, 3.0, "direct", (5, 3, 4)),
             span("analytics.sweep", 0, 5.0, 9.0)]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [span("cli_io.main", -1, 0.0, 10.0),
             span("core.validate", 0, 1.0, 5.0),
             span("core.validate", 0, 3.0, 6.0),
             span("core.validate", 0, 8.0, 12.0)]  # clipped at the parent's end
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_recorder_nests_spans_and_self_times_add_up():
    rec = Recorder()

    def leaf():
        return sum(range(1000))

    def boom():
        raise ValueError("x")

    traced_leaf = rec.wrap(leaf, "lp_solver.solve_lp", "oracle")
    traced_boom = rec.wrap(boom, "lp_solver.solve_lp", "node")

    def middle():
        traced_leaf()
        traced_leaf()
        with pytest.raises(ValueError):
            traced_boom()

    rec.wrap(rec.wrap(middle, "qp_solver.solve_qp"), "cli_io.main")()
    names = [(s[0], s[2]) for s in rec.spans]
    assert names == [("cli_io.main", -1), ("qp_solver.solve_qp", 0),
                     ("lp_solver.solve_lp", 1), ("lp_solver.solve_lp", 1),
                     ("lp_solver.solve_lp", 1)]
    assert rec.spans[-1][5] is None  # the raising call has no counts
    root = rec.spans[0]
    assert sum(self_times(rec.spans)) == pytest.approx(root[4] - root[3], abs=1e-12)


def test_layer_metrics_split_lp_calls_by_caller_and_count_work():
    spans = [span("cli_io.main", -1, 0.0, 10.0),
             span("models.solve", 0, 0.0, 9.0, "reverse_markowitz"),
             span("qp_solver.solve_qp", 1, 0.0, 4.0, counts=(40, 0)),
             span("lp_solver.solve_lp", 2, 0.0, 1.0, "oracle", (2, 3, 10)),
             span("qp_solver.solve_qp", 1, 4.0, 8.0, counts=(50_000, 1)),
             span("milp_solver.solve_milp", 0, 9.0, 10.0, counts=(4,)),
             span("lp_solver.solve_lp", 5, 9.0, 9.5, "node", (1, 1, 1)),
             span("lp_solver.solve_lp", 5, 9.5, 10.0, "node", None)]
    m = layer_metrics(spans)
    assert set(m) == set(per_layer_names())
    assert m["models.reverse_markowitz.qp_solves"] == 2
    assert m["qp_solver.fw_iters"] == 50_040 and m["qp_solver.capped"] == 1
    assert m["lp_solver.oracle.calls"] == 1 and m["lp_solver.oracle.pivots"] == 2
    assert m["lp_solver.node.calls"] == 2 and m["lp_solver.failed"] == 1
    assert m["milp_solver.lps_per_node"] == pytest.approx(2 / 4)
    assert m["lp_solver.tableau_gb"] == pytest.approx((2 * 3 * 11 + 1 * 1 * 2) * 16 / 1e9)
    assert m["trace.self_sum_s"] == pytest.approx(m["trace.wall_s"]) == pytest.approx(10.0)


def _pass(ops, weights=None, exit_code=0):
    arrays = {f"w{i}": np.asarray(w) for i, w in enumerate(weights or []) if w is not None}
    return {"exit": exit_code, "ops": ops, "arrays": arrays}


def _op(tag, status="Optimal", iterations=7, weights=True):
    return {"tag": tag, "status": status, "iterations": iterations, "objective": 0.5,
            "op_s": 0.1, "weights": weights}


def test_tally_counts_each_kind_of_failure_without_aborting():
    ops = [_op("mad"), _op("mad", status="Infeasible", weights=False),
           _op("md", status="error: LinAlgError: Singular matrix", weights=False)]
    first = _pass(ops, [[1.0], None, None], exit_code=2)  # the command aborted
    checks = [[], ["status Infeasible"], ["status error: LinAlgError: Singular matrix"]]
    failed, problems = run.tally(6, [first], checks, ["d0"])
    assert failed == 5  # non-Optimal, raised, and three that never ran
    assert problems == []  # statuses are failures, not wrong answers

    failed, problems = run.tally(2, [_pass([_op("md"), _op("md")], [[1.0], [1.0]])],
                                 [[], ["md: objective 1, HiGHS 2"]], ["d0"])
    assert failed == 1 and problems == ["op 1 (md): md: objective 1, HiGHS 2"]


def test_tally_fails_operations_that_do_not_repeat_exactly():
    first = _pass([_op("md"), _op("md")], [[0.5, 0.5], [1.0]])
    same = _pass([_op("md"), _op("md")], [[0.5, 0.5], [1.0]])
    other = _pass([_op("md", iterations=8), _op("md")], [[0.5, 0.5], [0.0]])
    lost = {"exit": None, "error": "timed out after 170 s"}
    failed, problems = run.tally(2, [first, same, other, lost], [[], []],
                                 ["d0", "d0", "d1", "d0"])
    assert failed == 2 + 2
    assert problems == ["pass 2: outputs differ from pass 0",
                        "pass 2: operation 0 differs from pass 0",
                        "pass 2: operation 1 differs from pass 0",
                        "pass 3: timed out after 170 s"]


def test_fw_gap_check_allows_the_oracle_tolerance_and_holds_the_engine_to_its_stop():
    q = np.diag([1.0, 2.0, 3.0])
    c = np.zeros(3)
    best = np.array([6.0, 3.0, 2.0]) / 11.0  # minimizes x'Qx on the simplex
    f = float(best @ q @ best)
    assert qp_failures(q, c, best, 1.0, claimed=1e-12, reported=f) == []
    assert qp_failures(q, c, np.array([1.0, 0.0, 0.0]), 1.0)[0].startswith("FW gap")
    assert qp_failures(q, c, best, 1.0, claimed=2e-8, reported=f) == [
        f"engine's FW gap 2e-08 above its stop {1e-8 * (1 + f)!r}"]
    assert qp_failures(q, c, best, 1.0, claimed=None, reported=f)  # no certificate
    assert oracle_slack() == pytest.approx(2e-9)
    assert oracle_slack(np.array([0.01, -0.03])) == pytest.approx(2e-9 * 1.03)
    assert claimed_gap("fw_gap=9.956739220532713e-09") == pytest.approx(9.956739220532713e-09)
    assert claimed_gap("") is None


def test_gauge_takes_its_bursts_out_and_rescales_the_rest():
    with Gauge() as gauge:
        total = sum(i * i for i in range(300_000))
    assert total > 0
    r = gauge.reading()
    assert r["bursts"] >= 2  # one on entry, one on exit
    assert r["net_s"] == pytest.approx(r["wall_s"] - r["bursts"] * r["burst_s"])
    assert r["gauged_s"] == pytest.approx(r["net_s"] * 0.001 / r["burst_s"])


def test_seed_7_generator_reproduces_the_bundled_fixture(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    prices = write_inputs(ROOT, WORKLOADS["backtest"], work)
    assert sha256(prices) == sha256(ROOT / "data" / "prices_2020h1.csv")


def test_seed_7_check_rejects_a_fixture_the_generator_does_not_make(tmp_path):
    fake = tmp_path / "root"
    shutil.copytree(ROOT / "tools", fake / "tools")
    (fake / "data").mkdir()
    data = (ROOT / "data" / "prices_2020h1.csv").read_bytes()
    (fake / "data" / "prices_2020h1.csv").write_bytes(data.replace(b"2020-07-31", b"2020-07-30"))
    with pytest.raises(RuntimeError, match="does not reproduce"):
        write_inputs(fake, WORKLOADS["backtest"], tmp_path)


def test_benchmark_json_names_the_metrics_the_benchmark_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == per_layer_names()
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert [w["name"] for w in spec["workloads"]] == ["backtest", "drawdown"]
