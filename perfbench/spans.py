"""Spans recorded around calls into portopt's layers, and the per-layer
metrics computed from them.

A span is one call into a wrapped function, stored as the tuple
``(name, tag, parent, start, end, counts)``:

* ``name`` is ``<layer>.<what>``; the layer is one of the package modules;
* ``tag`` refines the name (the model tag of a solve, or which module called
  ``solve_lp``);
* ``parent`` is the index of the enclosing span, -1 for the root;
* ``start`` and ``end`` are ``perf_counter`` readings;
* ``counts`` holds the work counts read off the returned object, or ``None``
  when the call raised.

Spans stay in memory during the pass and are written out after it. A span's
self time is its duration minus the part of it that its children cover, so
the self times of all spans add up to the root span's duration.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

LAYERS = ("cli_io", "core", "estimation", "models", "qp_solver", "lp_solver",
          "milp_solver", "analytics")
MODEL_TAGS = ("markowitz", "reverse_markowitz", "simultaneous", "mad", "md", "md_milp")
# solve_lp is bound separately in qp_solver, milp_solver and models; the
# binding that was called names the use.
LP_CALLERS = ("oracle", "node", "direct")
TABLEAU_BYTES_PER_ENTRY = 16  # one 8-byte read and one 8-byte write per pivot


class Recorder:
    """Collects spans from wrapped callables; single-threaded by design (the
    benchmark runs every command with ``--threads 1``)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def wrap(self, fn, name: str, tag: str = "", count=None):
        """Return ``fn`` wrapped to record one span per call.

        ``count(args, result)`` returns the work counts of a successful call.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[sid] = (name, tag, parent, start, perf_counter(), None)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[sid] = (name, tag, parent, start, end,
                          count(args, result) if count is not None else ())
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[2] >= 0:
            children[span[2]].append(i)
    out = []
    for i, (_, _, _, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted((spans[c][3], spans[c][4]) for c in children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def _model_of(spans) -> list[str]:
    """The model tag of the nearest enclosing model solve, '' outside one.
    Parents are recorded before their children, so one forward pass works."""
    owner = []
    for name, tag, parent, *_ in spans:
        if name == "models.solve":
            owner.append(tag)
        else:
            owner.append(owner[parent] if parent >= 0 else "")
    return owner


def layer_metrics(spans) -> dict[str, float]:
    """The per-layer metrics of one traced pass (see BENCHMARK.json)."""
    selfs = self_times(spans)
    owner = _model_of(spans)
    m = dict.fromkeys(per_layer_names(), 0.0)
    root = [i for i, s in enumerate(spans) if s[2] < 0]
    for i, (name, tag, parent, start, end, counts) in enumerate(spans):
        layer = name.split(".", 1)[0]
        dur = end - start
        m[f"{layer}.self_s"] += selfs[i]
        if name == "cli_io.ingest":
            m["cli_io.ingest_s"] += dur
        elif name == "core.validate":
            m["core.validate_s"] += dur
        elif name == "estimation.stats":
            m["estimation.stats_s"] += dur
        elif name == "estimation.perturb":
            m["estimation.perturb_s"] += dur
        elif name == "models.build":
            m["models.build_s"] += dur
        elif name == "models.solve":
            m[f"models.{tag}.solve_s"] += dur
        elif name == "qp_solver.solve_qp":
            m["qp_solver.calls"] += 1
            if owner[i] == "reverse_markowitz":
                m["models.reverse_markowitz.qp_solves"] += 1
            if counts is not None:
                m["qp_solver.fw_iters"] += counts[0]
                m["qp_solver.capped"] += counts[1]
        elif name == "qp_solver.validate":
            m["qp_solver.validate_s"] += dur
        elif name == "lp_solver.solve_lp":
            m[f"lp_solver.{tag}.calls"] += 1
            m[f"lp_solver.{tag}.self_s"] += selfs[i]
            if tag == "node":
                m["milp_solver.node_lps"] += 1
            if counts is None:
                m["lp_solver.failed"] += 1
            else:
                pivots, rows, cols = counts
                m[f"lp_solver.{tag}.pivots"] += pivots
                m["lp_solver.tableau_gb"] += (
                    pivots * rows * (cols + 1) * TABLEAU_BYTES_PER_ENTRY / 1e9)
        elif name == "lp_solver.validate":
            m["lp_solver.validate_s"] += dur
        elif name == "milp_solver.solve_milp":
            if counts is not None:
                m["milp_solver.nodes"] += counts[0]
        elif name == "analytics.sweep":
            m["analytics.sweep_s"] += dur
            if counts is not None:
                m["analytics.sweep_dropped"] += counts[0]
        elif name == "analytics.sensitivity":
            m["analytics.sensitivity_s"] += dur
        elif name == "analytics.metrics":
            m["analytics.metrics_s"] += dur
    nodes = m["milp_solver.nodes"]
    m["milp_solver.lps_per_node"] = m["milp_solver.node_lps"] / nodes if nodes else 0.0
    m["trace.wall_s"] = sum(spans[i][4] - spans[i][3] for i in root)
    m["trace.self_sum_s"] = sum(selfs)
    m["trace.spans"] = float(len(spans))
    return m


def per_layer_names() -> list[str]:
    """Every per-layer metric name a traced pass reports, in a fixed order."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += ["cli_io.ingest_s", "core.validate_s", "estimation.stats_s",
              "estimation.perturb_s", "models.build_s"]
    names += [f"models.{tag}.solve_s" for tag in MODEL_TAGS]
    names += ["models.reverse_markowitz.qp_solves", "qp_solver.calls", "qp_solver.fw_iters",
              "qp_solver.capped", "qp_solver.validate_s"]
    for caller in LP_CALLERS:
        names += [f"lp_solver.{caller}.calls", f"lp_solver.{caller}.pivots",
                  f"lp_solver.{caller}.self_s"]
    names += ["lp_solver.validate_s", "lp_solver.failed", "lp_solver.tableau_gb",
              "milp_solver.nodes", "milp_solver.node_lps", "milp_solver.lps_per_node",
              "analytics.sweep_s", "analytics.sweep_dropped", "analytics.sensitivity_s",
              "analytics.metrics_s", "trace.wall_s", "trace.self_sum_s", "trace.spans",
              "trace.untraced_wall_s", "trace.overhead_s", "point_p50_s", "point_p90_s"]
    return names
