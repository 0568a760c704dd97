"""E7 — sequence-level vs rule-level residue discovery.

Regenerates the E7 table (what each method finds on the paper's
examples) and benchmarks residue generation on Example 2.1, whose IC is
invisible below the ``r0 r0 r0`` sequence.
"""

import pytest

from repro.bench.experiments import experiment_e7
from repro.core import generate_residues, rule_level_residues
from repro.datalog import Program
from repro.workloads import example_2_1


@pytest.fixture(scope="module")
def workload():
    example = example_2_1()
    return example.program, example.ic("ic")


def test_e7_table(benchmark, record_table):
    table = benchmark.pedantic(experiment_e7, rounds=1, iterations=1)
    record_table(table)


def test_e7_bench_sequence_level(benchmark, workload):
    program, ic = workload
    # A fresh Program each round: generate_residues memoises on the
    # instance, so reusing one would time a dict lookup.
    items = benchmark(
        lambda: generate_residues(Program(program.rules), "p", ic))
    assert any(item.sequence == ("r0", "r0", "r0") for item in items)


def test_e7_bench_rule_level(benchmark, workload):
    program, ic = workload
    items = benchmark(lambda: rule_level_residues(program, ic))
    # The rule-level reading finds nothing pushable here.
    assert all(len(item.sequence) == 1 for item in items)
