"""Differential fuzzing: every executor/planner/interning combo agrees.

Random linear-recursive programs (with negation, comparisons and
constant anchors mixed in) are evaluated under the full knob matrix.
Evaluation is deterministic, so every combination must produce the same
fact fingerprint — and resilience behavior (budget exhaustion, chaos
faults) must surface identical payloads regardless of which join
machinery was running when the limit hit.
"""

import random

import pytest

from repro.datalog import parse_program
from repro.engine import evaluate
from repro.errors import BudgetExceededError
from repro.runtime import ChaosError
from repro.runtime.budget import Budget
from repro.runtime.chaos import ChaosPlan
from repro.workloads import random_linear_program

#: (executor, planner, interning).
#: The vectorized combos sweep every planner both interned (batch
#: kernels over columnar storage) and not (falls back to the compiled
#: kernels), so the whole-frontier accounting is differentially checked
#: against the row-at-a-time executors under each join order.
#: The cbo combos pin the cost-based enumerating optimizer's
#: whole-program degeneration: with no query in sight its rewrite
#: space collapses to the identity program running on the adaptive
#: machinery, so facts, counters, budget payloads and chaos ordinals
#: must all be bit-identical to every other cell — including under the
#: vectorized executor, where cbo additionally makes a per-rule
#: batch-vs-row kernel choice (both verdicts are pinned to identical
#: counters).
COMBOS = [(executor, planner, interning)
          for executor in ("compiled", "interpreted", "vectorized")
          for planner in ("greedy", "adaptive", "source", "cbo")
          for interning in ("off", "on")]


def fingerprint(result):
    return tuple(sorted(
        (pred, tuple(sorted(result.facts(pred))))
        for pred in result.program.idb_predicates))


@pytest.mark.parametrize("seed", range(8))
def test_all_combos_derive_identical_facts(seed):
    text, edb = random_linear_program(random.Random(seed))
    program = parse_program(text)
    prints = {}
    counts = {}
    for combo in COMBOS:
        executor, planner, interning = combo
        result = evaluate(program, edb, executor=executor,
                          planner=planner, interning=interning)
        prints[combo] = fingerprint(result)
        counts[combo] = (result.stats.derivations,
                         result.stats.duplicate_derivations)
    assert len(set(prints.values())) == 1, \
        f"seed {seed}: fact fingerprints diverge"
    # Total derivation events are join-order independent: every combo
    # derives the same solution multiset per rule firing.
    assert len(set(counts.values())) == 1, \
        f"seed {seed}: derivation counts diverge: {counts}"


@pytest.mark.parametrize("seed", (3, 11))
def test_budget_exhaustion_payloads_match_across_combos(seed):
    text, edb = random_linear_program(random.Random(seed))
    program = parse_program(text)
    payloads = set()
    for executor, planner, interning in COMBOS:
        budget = Budget(max_derivations=120)
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, edb, executor=executor, planner=planner,
                     interning=interning, budget=budget)
        error = info.value
        # Which row tipped the counter over differs by enumeration
        # order, but the accounted totals at the boundary must not.
        payloads.add((error.resource, error.limit, error.spent,
                      error.last_round))
    assert len(payloads) == 1, payloads


@pytest.mark.parametrize("seed", (5,))
def test_chaos_fault_ordinals_match_across_combos(seed):
    text, edb = random_linear_program(random.Random(seed))
    program = parse_program(text)
    triggered = set()
    for executor, planner, interning in COMBOS:
        plan = ChaosPlan().fail_derivation(40)
        with plan.active():
            with pytest.raises(ChaosError):
                evaluate(program, edb, executor=executor,
                         planner=planner, interning=interning)
        triggered.add(tuple(plan.triggered))
    assert len(triggered) == 1, triggered
