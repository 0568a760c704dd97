"""The benchmark's metrics: names, units, directions, bounds, and what
each per-layer number is expected to move.

This table is the single source; ``run.py --write-spec`` renders
``BENCHMARK.json`` from it and the smoke test checks the two agree.

Every run reports every metric.  A workload is a repeated *cycle* with a
primary operation kind (``op``) and a contrast kind (``alt``), so the
same five end-to-end metrics read on all six workloads; README.md maps
them to what a user of each workload sees.  Per-layer times are per
cycle (total time in the step over the traced cycles / traced cycles), so
they add up to the cycle time and a saving in one layer reads directly as
a share of it; a layer a workload never enters reports 0.
"""

from __future__ import annotations

#: name, unit, better, bound (share of the parent's median).
END_TO_END = [
    ("op_ms_p50", "ms", "lower", 0.25),
    ("alt_ms_p50", "ms", "lower", 0.25),
    ("cycles_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("setup_s", "s", "lower", 0.25),
]

#: name, unit, better, and the end-to-end metric / workload it should move.
PER_LAYER = [
    ("datalog.parse_ms", "ms", "lower",
     "op_ms_p50 on compile-corpus; nothing visible elsewhere"),
    ("datalog.rules", "count", "lower", "context for datalog.parse_ms"),
    ("analysis.lint_ms", "ms", "lower",
     "op_ms_p50 and alt_ms_p50 on compile-corpus"),
    ("analysis.diagnostics", "count", "lower", "context for lint_ms"),
    ("analysis.dataflow_ms", "ms", "lower",
     "op_ms_p50 on compile-corpus and on bound-query (run per query)"),
    ("constraints.ic_check_ms", "ms", "lower",
     "setup_s on the paper workloads today; op_ms_p50 on serve-churn once "
     "ICs are enforced at writes"),
    ("constraints.violations", "count", "lower", "must be 0"),
    ("core.residues_ms", "ms", "lower",
     "alt_ms_p50 on compile-corpus (the long-IC tail)"),
    ("core.residues", "count", "higher", "context for residues_ms"),
    ("core.optimize_ms", "ms", "lower",
     "alt_ms_p50 on compile-corpus; op_ms_p50 on the paper workloads"),
    ("core.steps_applied", "count", "higher", "context for optimize_ms"),
    ("core.rules_out", "count", "lower",
     "op_ms_p50 on university-elim and genealogy-prune: a smaller rewritten "
     "program is less fixpoint work"),
    ("core.pushed_speedup", "ratio", "higher",
     "alt/op paired ratio on university-elim and genealogy-prune, compile "
     "time included; 0 elsewhere"),
    ("engine.cbo_ms", "ms", "lower",
     "op_ms_p50 on bound-query and compile-corpus"),
    ("engine.cbo_groups", "count", "lower", "context for cbo_ms"),
    ("engine.magic_rewrite_ms", "ms", "lower", "op_ms_p50 on bound-query"),
    ("engine.cbo_regret", "ratio", "lower",
     "time of the plan choose_plan picks / best of the candidates timed; "
     "1.0 is perfect; should move alt_ms_p50 on bound-query"),
    ("engine.kernel_compile_ms", "ms", "lower",
     "op_ms_p50 on compile-corpus"),
    ("engine.fixpoint_s", "s", "lower",
     "op_ms_p50, alt_ms_p50, cycles_per_s on closure-xl and the paper "
     "workloads; alt_ms_p50 on bound-query; 0 on compile-corpus"),
    ("engine.iterations", "count", "lower", "context for fixpoint_s"),
    ("engine.derivations", "count", "lower", "context for fixpoint_s"),
    ("engine.rows_matched", "count", "lower", "context for fixpoint_s"),
    ("engine.atom_lookups", "count", "lower", "context for fixpoint_s"),
    ("engine.useful_ratio", "ratio", "higher",
     "new facts / rows produced; the share of fixpoint work not wasted"),
    ("engine.replans", "count", "lower", "context for fixpoint_s"),
    ("engine.facts_per_s", "facts/s", "higher",
     "derived facts / fixpoint second; cycles_per_s on closure-xl"),
    ("engine.top_kernel_share", "ratio", "lower",
     "largest kernel's share of fixpoint time (closure-xl)"),
    ("engine.fixpoint_s.default", "s", "lower",
     "no end-to-end metric by design: evaluate()'s defaults on closure-xl"),
    ("engine.fixpoint_s.vectorized", "s", "lower",
     "no end-to-end metric by design: the batch executor on closure-xl"),
    ("engine.fixpoint_s.parallel", "s", "lower",
     "no end-to-end metric by design: 4 shards on closure-xl"),
    ("facts.intern_ms", "ms", "lower",
     "op_ms_p50 on closure-xl and the paper workloads"),
    ("facts.symbols", "count", "lower", "context for intern_ms"),
    ("facts.decode_ms", "ms", "lower",
     "op_ms_p50 on closure-xl (second-largest step) and paper workloads"),
    ("facts.apply_ms", "ms", "lower", "op_ms_p50 on serve-churn"),
    ("facts.copy_ms", "ms", "lower",
     "op_ms_p50 on serve-churn (snapshot publish is two copies)"),
    ("incremental.maintain_ms", "ms", "lower", "op_ms_p50 on serve-churn"),
    ("incremental.rows_added", "count", "lower", "context for maintain_ms"),
    ("incremental.rows_removed", "count", "lower",
     "context for maintain_ms"),
    ("incremental.recompute_s", "s", "lower",
     "the from-scratch alternative to maintain on serve-churn"),
    ("incremental.maintain_speedup", "ratio", "higher",
     "recompute / maintain on serve-churn"),
    ("serving.materialize_s", "s", "lower", "setup_s on serve-churn"),
    ("serving.update_ms", "ms", "lower",
     "op_ms_p50 on serve-churn: apply + maintain + publish"),
    ("serving.refresh_ms", "ms", "lower", "part of serving.update_ms"),
    ("serving.publish_ms", "ms", "lower",
     "update - refresh - apply; cross-check with facts.copy_ms"),
    ("serving.snapshot_query_ms.first", "ms", "lower",
     "per call; op_ms_p50 on serve-churn (first read of a new snapshot)"),
    ("serving.snapshot_query_ms.warm", "ms", "lower",
     "per call; alt_ms_p50 on serve-churn"),
    ("serving.incremental_refreshes", "count", "higher",
     "run total; must equal the updates made"),
    ("serving.full_refreshes", "count", "lower", "run total; must be 1"),
    ("serving.stale_reads", "count", "lower",
     "run total; must be 0 at max_lag=0"),
    ("runtime.budget_overhead", "ratio", "lower",
     "fixpoint under a never-firing Budget / without; op_ms_p50 on "
     "closure-xl"),
    ("baselines.guided_s", "s", "lower",
     "context for core.pushed_speedup: residues checked at run time"),
    ("baselines.residue_checks", "count", "lower",
     "context for baselines.guided_s"),
    ("bench.trace_overhead", "ratio", "lower",
     "traced / untraced cycle time; above 1.05 the per-layer numbers are "
     "not to be trusted"),
    ("bench.cycle_ms", "ms", "lower", "1 / cycles_per_s, traced cycles"),
    ("bench.op_ms_p95", "ms", "lower",
     "tail of the primary operation; the median when fewer than 200 "
     "samples"),
    ("bench.alt_ms_p95", "ms", "lower", "tail of the contrast operation"),
] + [(f"self_ms.{layer}", "ms", "lower",
      f"self time of {layer} per cycle: the most a change to it can save")
     for layer in ("datalog", "analysis", "constraints", "core", "engine",
                   "facts", "incremental", "serving", "bench")]

RUN_SECONDS = 12


def benchmark_json(workloads) -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": cls.name, "why": cls.why}
                      for cls in workloads],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _moves in PER_LAYER],
    }


def percentile(values: list[float], share: float) -> float:
    """The ``share`` quantile by the nearest-rank rule."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def tail(values: list[float]) -> float:
    """p95 when at least ten samples lie beyond it, else the median."""
    if len(values) >= 200:
        return percentile(values, 0.95)
    return percentile(values, 0.5)
