"""Soundness fuzzing for the dataflow analysis.

The engine does not consume the analysis (lint and ``choose_plan``
do), so every claim it makes is held to what a *plain* evaluation of
the same generated program observes:

1. **Emptiness.**  Any IDB predicate the analysis proves empty must
   evaluate to zero rows under every executor/planner/method
   combination.  Programs are generated over small integer EDBs with
   comparison/equality rules biased toward (but not guaranteed to
   produce) unsatisfiable conjunctions, so both verdicts get exercised.

2. **Dead rules and always-true comparisons.**  A rule the analysis
   calls dead must have no solution, and a comparison it calls always
   true must hold on every solution of its rule with that comparison
   removed — both watched through a derivation hook
   (``tests.conftest.dataflow_verdict_violations``).

3. **Size bounds** are upper bounds on what evaluates.
"""

import random

import pytest

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - dev extra not installed
    HAVE_HYPOTHESIS = False

from repro.analysis.dataflow import analyze_dataflow
from repro.datalog import parse_program
from repro.engine import evaluate
from repro.facts import Database
from repro.workloads import random_linear_program
from tests.conftest import dataflow_verdict_violations

#: Trimmed combo matrix: one representative per executor/method axis
#: plus the planner variants that change join order.
COMBOS = [
    {"executor": "compiled", "planner": "greedy"},
    {"executor": "compiled", "planner": "adaptive"},
    {"executor": "interpreted", "planner": "source"},
    {"executor": "compiled", "method": "naive"},
    {"executor": "compiled", "interning": "on", "planner": "adaptive"},
]


def build_program(rng):
    """A small random program over integer EDBs e/2 and f/2.

    Rules mix joins, recursion and integer-constant comparisons chosen
    so some conjunctions are satisfiable and others provably are not
    (EDB values live in 0..5; constants range over -2..12).
    """
    edb = Database()
    for _ in range(rng.randint(3, 8)):
        edb.add_fact("e", rng.randint(0, 5), rng.randint(0, 5))
    for _ in range(rng.randint(2, 6)):
        edb.add_fact("f", rng.randint(0, 5), rng.randint(0, 5))
    ops = ("<", "<=", ">", ">=", "=", "!=")
    lines = ["b0: p(X, Y) :- e(X, Y).",
             "r0: p(X, Z) :- p(X, Y), f(Y, Z)."]
    flat_emitted = False
    for i in range(rng.randint(1, 4)):
        op1 = rng.choice(ops)
        c1 = rng.randint(-2, 12)
        if rng.random() < 0.5:
            op2 = rng.choice(ops)
            c2 = rng.randint(-2, 12)
            lines.append(f"q{i}: out{i}(X) :- p(X, Y), "
                         f"X {op1} {c1}, Y {op2} {c2}.")
        else:
            lines.append(f"q{i}: flat{i}(X, Y) :- e(X, Y), "
                         f"X {op1} {c1}.")
            flat_emitted = True
    if flat_emitted and rng.random() < 0.5:
        lines.append("c0: chained(X) :- flat0(X, X)."
                     if "flat0" in "\n".join(lines)
                     else "c0: chained(X) :- p(X, X).")
    return parse_program("\n".join(lines)), edb


@pytest.mark.parametrize("seed", range(30))
def test_inferred_empty_predicates_evaluate_empty(seed):
    rng = random.Random(seed)
    program, edb = build_program(rng)
    flow = analyze_dataflow(program, edb=edb)
    empty_idb = flow.empty & set(program.idb_predicates)
    combo = COMBOS[seed % len(COMBOS)]
    result = evaluate(program, edb, **combo)
    for pred in empty_idb:
        assert result.count(pred) == 0, \
            (f"seed {seed}: {pred} inferred empty but evaluated "
             f"to {result.count(pred)} rows under {combo}")


@pytest.mark.parametrize("seed", range(30, 40))
def test_every_combo_respects_empty_verdicts(seed):
    """One seed, the full combo sweep — emptiness must hold under all
    join orders, executors and evaluation methods."""
    rng = random.Random(seed)
    program, edb = build_program(rng)
    flow = analyze_dataflow(program, edb=edb)
    empty_idb = flow.empty & set(program.idb_predicates)
    if not empty_idb:
        pytest.skip(f"seed {seed}: analysis proved nothing empty")
    for combo in COMBOS:
        result = evaluate(program, edb, **combo)
        for pred in empty_idb:
            assert result.count(pred) == 0, (seed, pred, combo)


if HAVE_HYPOTHESIS:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_hypothesis_emptiness_soundness(seed):
        rng = random.Random(seed)
        program, edb = build_program(rng)
        flow = analyze_dataflow(program, edb=edb)
        empty_idb = flow.empty & set(program.idb_predicates)
        result = evaluate(program, edb, planner="adaptive")
        for pred in empty_idb:
            assert result.count(pred) == 0, (seed, pred)

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_hypothesis_size_bounds_are_upper_bounds(seed):
        rng = random.Random(seed)
        program, edb = build_program(rng)
        flow = analyze_dataflow(program, edb=edb)
        result = evaluate(program, edb)
        for pred in program.idb_predicates:
            assert result.count(pred) <= flow.size_bound(pred), \
                (seed, pred, result.count(pred), flow.size_bound(pred))


#: The hook runs under the semi-naive method only.
HOOKED = [
    {"executor": "compiled"},
    {"executor": "interpreted", "planner": "source"},
    {"executor": "compiled", "interning": "on", "planner": "adaptive"},
]


class TestVerdictsUnderAHook:
    """Dead rules have no solution and always-true comparisons reject
    none, on both generators' programs."""

    @pytest.mark.parametrize("seed", range(30))
    def test_comparison_heavy_programs(self, seed):
        program, edb = build_program(random.Random(seed))
        flow = analyze_dataflow(program, edb=edb)
        assert dataflow_verdict_violations(
            program, edb, flow, **HOOKED[seed % len(HOOKED)]) == []

    @pytest.mark.parametrize("seed", range(6))
    def test_lint_clean_programs(self, seed):
        text, edb = random_linear_program(random.Random(seed))
        program = parse_program(text)
        flow = analyze_dataflow(program, edb=edb)
        assert dataflow_verdict_violations(
            program, edb, flow, **HOOKED[seed % len(HOOKED)]) == []

    def test_both_verdicts_are_exercised(self):
        """The 30 seeds above are not vacuous: some rules are called
        dead and some comparisons always true."""
        dead = true = 0
        for seed in range(30):
            program, edb = build_program(random.Random(seed))
            flow = analyze_dataflow(program, edb=edb)
            dead += len(flow.dead_rules)
            true += sum(map(len, flow.true_checks.values()))
        assert dead >= 10 and true >= 10, (dead, true)
