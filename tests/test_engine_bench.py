"""Engine benchmark baseline: workload construction and the CI gate.

The full benchmark runs in CI's bench-smoke job; here we keep the cheap
invariants — the workload corpus is well-formed and the regression gate
trips on exactly the conditions it documents.
"""

from __future__ import annotations

import pytest

from repro.bench.engine_bench import (build_workloads,
                                      regression_failures)


def test_build_workloads_covers_the_three_scenarios():
    workloads = build_workloads("smoke")
    assert [w.name for w in workloads] == [
        "transitive_closure", "same_generation", "magic"]
    for workload in workloads:
        assert workload.edb.total_facts() > 0
        assert workload.query.pred == workload.answer_pred


def test_build_workloads_rejects_unknown_scale():
    with pytest.raises(ValueError, match="unknown scale"):
        build_workloads("galactic")


def _report(speedup, agreement_ok=True, configs_ok=True,
            interned_speedup=2.0, repeats=3):
    def block(name):
        methods = {
            method: {"compiled": {"wall_ms": 10.0},
                     "interpreted": {"wall_ms": 20.0},
                     "speedup": 2.0}
            for method in ("naive", "seminaive", "magic")}
        methods["seminaive"]["speedup"] = speedup
        return {
            "name": name,
            "methods": methods,
            "seminaive_configs": {
                "baseline": {"wall_ms": 10.0},
                "interned_adaptive": {
                    "wall_ms": 10.0 / interned_speedup},
            },
            "interned_speedup": interned_speedup,
            "agreement": {
                "methods_agree": agreement_ok,
                "executors_agree": True,
                "naive_matches_seminaive": True,
                "configs_agree": configs_ok,
            },
        }
    return {"repeats": repeats,
            "workloads": [block("transitive_closure"),
                          block("same_generation")]}


def test_regression_gate_passes_when_compiled_is_faster():
    assert regression_failures(_report(2.4)) == []


def test_regression_gate_allows_slowdown_within_ratio():
    # 1.2x slower than interpreted is inside the default 1.5x allowance.
    assert regression_failures(_report(1 / 1.2)) == []


def test_regression_gate_fails_on_excessive_slowdown():
    failures = regression_failures(_report(1 / 2.0))
    assert failures and "slower than interpreted" in failures[0]


def test_regression_gate_fails_on_disagreement():
    failures = regression_failures(_report(2.0, agreement_ok=False))
    assert failures == ["transitive_closure: methods_agree is false",
                        "same_generation: methods_agree is false"]


def test_regression_gate_fails_on_config_disagreement():
    failures = regression_failures(_report(2.0, configs_ok=False))
    assert "transitive_closure: configs_agree is false" in failures


def test_per_cell_floor_fails_on_missing_executor_cell():
    report = _report(2.0)
    del report["workloads"][0]["methods"]["magic"]["interpreted"]
    failures = regression_failures(report)
    assert failures == ["transitive_closure/magic/interpreted: cell "
                        "missing or budget exceeded"]


def test_per_cell_floor_fails_on_slow_config_cell():
    # 2x slower than the compiled baseline is outside the default 1.5x
    # allowance — the per-cell floor trips even with no speedup gates.
    failures = regression_failures(_report(2.0, interned_speedup=0.5))
    assert any("interned_adaptive: 2.00x slower than the compiled "
               "baseline" in f for f in failures)


def test_config_cell_inside_the_allowance_passes():
    # 1.2x slower than the baseline stays inside the 1.5x per-cell
    # allowance, the only floor the interned+adaptive cell has.
    assert regression_failures(
        _report(2.0, interned_speedup=1 / 1.2)) == []


def test_regression_gate_fails_on_missing_workload():
    assert regression_failures({"repeats": 3, "workloads": []}) == \
        ["workload 'transitive_closure' missing from report"]


def test_regression_gate_fails_on_too_few_repeats():
    failures = regression_failures(_report(2.4, repeats=1))
    assert failures == ["report measured with repeats=1; gates need "
                        ">= 3 for stable medians"]


def test_regression_gate_fails_on_timeout_row():
    report = _report(2.0)
    cell = report["workloads"][0]["methods"]["seminaive"]["compiled"]
    cell["budget_exceeded"] = True
    del report["workloads"][0]["methods"]["seminaive"]["speedup"]
    failures = regression_failures(report)
    assert failures == ["transitive_closure/seminaive/compiled: cell "
                        "missing or budget exceeded"]
