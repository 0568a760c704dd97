"""E4 — compile-time cost of residue generation.

Regenerates the E4 table (Algorithm 3.1's SD-graph detection vs the
exhaustive sequence enumerator over IC chain length) and benchmarks both
methods on the length-4 chain.
"""

import pytest

from repro.bench.experiments import _chain_ic_text, experiment_e4
from repro.constraints import ics_from_text
from repro.core import generate_residues, generate_residues_exhaustive
from repro.datalog import Program
from repro.workloads import example_4_3


@pytest.fixture(scope="module")
def workload():
    example = example_4_3()
    ic = ics_from_text(_chain_ic_text(4))[0]
    return example.program, ic


def test_e4_table(benchmark, record_table):
    table = benchmark.pedantic(
        lambda: experiment_e4(lengths=(2, 3, 4), repeats=2),
        rounds=1, iterations=1)
    record_table(table)


def test_e4_bench_graph_method(benchmark, workload):
    program, ic = workload
    # A fresh Program each round: generate_residues and unfold memoise
    # on the instance, so reusing one would time dict lookups.
    items = benchmark(
        lambda: generate_residues(Program(program.rules), "anc", ic,
                                  max_extend=0))
    assert items


def test_e4_bench_exhaustive_method(benchmark, workload):
    program, ic = workload
    items = benchmark(
        lambda: generate_residues_exhaustive(Program(program.rules), "anc",
                                             ic, max_length=5))
    assert items
