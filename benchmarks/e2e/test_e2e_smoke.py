"""Smoke test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Not collected by tier-1 (``testpaths = ["tests"]``).  Runs every workload
at the ``--smoke`` sizes, untraced and traced, and checks the output
contract, the answers and the span bookkeeping.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]


def run(workload: str, trace: int, out: Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--smoke", "--seed", "11", "--trace", str(trace),
         "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 0, done.stdout
    return json.loads(done.stdout.splitlines()[-1])


def test_spec_is_rendered_from_the_tables():
    import workloads
    assert SPEC == metrics.benchmark_json(workloads.WORKLOADS.values())
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload, tmp_path):
    result = run(workload, 0, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for entry in SPEC["end_to_end"]:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert metric["value"] > 0, entry["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_and_consistent_spans(workload,
                                                             tmp_path):
    result = run(workload, 1, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}

    events = json.loads(
        (tmp_path / f"trace-{workload}.json").read_text())["traceEvents"]
    assert events
    spans = {event["args"]["span"]: event for event in events}
    own = {index: event["dur"] for index, event in spans.items()}
    for index, event in spans.items():
        parent = event["args"]["parent"]
        # Every span has a parent recorded before it, or is a root.
        assert parent == -1 or (parent in spans and parent < index)
        if parent != -1:
            assert event["args"]["op"] == spans[parent]["args"]["op"]
            own[parent] -= event["dur"]
    # Self times add up to the operation's time, operation by operation.
    by_op: dict[int, float] = {}
    roots: dict[int, float] = {}
    for index, event in spans.items():
        op = event["args"]["op"]
        by_op[op] = by_op.get(op, 0.0) + own[index]
        if event["args"]["parent"] == -1:
            roots[op] = event["dur"]
    for op, total in roots.items():
        assert by_op[op] == pytest.approx(total, rel=0.02, abs=1.0)
