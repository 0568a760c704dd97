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

#: (executor, planner, interning): 12 cells.  ``compiled`` runs the
#: generated whole-frontier functions (interned and raw).
COMBOS = [(executor, planner, interning)
          for executor in ("compiled", "interpreted")
          for planner in ("greedy", "adaptive", "source")
          for interning in ("off", "on")]


#: What a ``(seed, flavor)`` draw adds to the generator's program: a pure
#: copy rule over the recursive predicate, in a stratum of its own or
#: closed back into the recursion (so it also fires on deltas).  The
#: compiled executor runs such a rule as a set union unless a hook, a
#: chaos plan or a counter limit has to see each row — which the cells
#: below alternate.  ``filter`` adds a recursive rule whose comparison
#: sits between its two atoms, so the count of the filter's survivors
#: feeds the next atom's lookups in the middle of the body; ``fact``
#: adds a ground fact to the recursive stratum, whose firing inserts
#: its head row without a kernel and which the recursion then extends
#: (the veto hook below vetoes it: its empty binding sums to 0).
#: ``exists`` adds two recursive rules with atoms whose new variable
#: nothing reads, two in the middle of one body and one last in the
#: other: a kernel probes such an atom instead of walking its bucket,
#: and weights every later count by the product of the bucket lengths.
#: ``member`` adds two recursive rules with an atom whose new variable
#: only membership tests read, one test (after an atom that walks) in
#: one body and two in the other: a kernel takes that atom's set of
#: values once, weights the steps up to the first test by its size and
#: intersects it with each test's, weighting later counts by what
#: passes.
COPY_RULES = {
    "copy": "c0: c(X, Y) :- p(X, Y).\n",
    "copy-loop": "c0: c(X, Y) :- p(X, Y).\nc1: p(X, Y) :- c(X, Y).\n",
    "filter": "f0: p(X, Z) :- p(X, Y), X < Y, e0(Y, Z).\n",
    "fact": "s0: p(n0, n99).\n",
    "exists": "x0: p(X, Z) :- p(X, Y), e0(Y, W), e1(Y, U), e0(U, V), "
              "e1(U, Z).\n"
              "x1: p(X, Z) :- p(X, Y), e1(Y, Z), e0(Z, W).\n",
    "member": "m0: p(X, Z) :- p(X, Y), e1(Y, W), e0(Y, Z), e0(Z, W).\n"
              "m1: p(X, Z) :- p(X, Y), e1(Y, Z), e0(Y, W), e0(Z, W), "
              "e1(X, W).\n",
}

#: The draws of the matrix tests: eight plain ones and one per flavor.
DRAWS = (*range(8), (2, "copy"), (6, "copy-loop"), (1, "filter"),
         (4, "fact"), (0, "exists"), (8, "member"))


def draw(seed):
    """``random_linear_program`` for an ``int``; a ``(seed, flavor)``
    pair appends ``COPY_RULES[flavor]`` to that draw."""
    if isinstance(seed, int):
        return random_linear_program(random.Random(seed))
    number, flavor = seed
    text, edb = random_linear_program(random.Random(number))
    return text + COPY_RULES[flavor], edb


def fingerprint(result):
    return tuple(sorted(
        (pred, tuple(sorted(result.facts(pred))))
        for pred in result.program.idb_predicates))


@pytest.mark.parametrize("seed", DRAWS)
def test_all_combos_derive_identical_facts(seed):
    text, edb = draw(seed)
    program = parse_program(text)
    prints = {}
    counts = {}
    for combo in COMBOS:
        executor, planner, interning = combo
        result = evaluate(program, edb, executor=executor,
                          planner=planner, interning=interning)
        prints[combo] = fingerprint(result)
        counts[combo] = (result.stats.derivations,
                         result.stats.duplicate_derivations,
                         result.stats.iterations,
                         result.stats.rules_fired)
    assert len(set(prints.values())) == 1, \
        f"seed {seed}: fact fingerprints diverge"
    # The semantic counters are join-order independent: every combo
    # derives the same solution multiset per rule firing, in the same
    # rounds, whichever executor and planner ran it.
    assert len(set(counts.values())) == 1, \
        f"seed {seed}: semantic counters diverge: {counts}"


@pytest.mark.parametrize("seed", DRAWS)
def test_full_counters_match_wherever_join_orders_coincide(seed):
    """The whole ``EvalStats`` dict, not just the derivation totals.

    ``atom_lookups`` / ``rows_matched`` / ``comparisons_checked`` /
    ``negation_checks`` depend on the join order, so they are compared
    within a planner: hooked generated = unhooked generated under every
    planner and interning (an always-true hook selects the second text
    of the same kernels: same plans), and both = the interpreter —
    hooked and unhooked as well — under ``source`` (the one planner
    where it runs the same order); interned against raw throughout.  A
    hook that vetoes must also leave the same facts whichever executor
    consults it.
    """
    text, edb = draw(seed)
    program = parse_program(text)

    def always(rule, binding, round_index):
        return True

    def stats(**knobs):
        return evaluate(program, edb, **knobs).stats.as_dict()

    for planner in ("greedy", "adaptive", "source"):
        generated = stats(planner=planner)
        for interning in ("off", "on"):
            assert stats(planner=planner, interning=interning) == generated
            assert stats(planner=planner, interning=interning,
                         hook=always) == generated, (planner, interning)
    for interning in ("off", "on"):
        for hook in (None, always):
            assert stats(planner="source", interning=interning, hook=hook,
                         executor="interpreted") == stats(planner="source")

    def veto(rule, binding, round_index):
        # Deterministic in the binding alone, so order cannot matter.
        return sum(sum(map(ord, str(v))) for v in binding.values()) % 3

    def vetoed(**knobs):
        result = evaluate(program, edb, planner="source", hook=veto,
                          **knobs)
        return fingerprint(result), result.stats.as_dict()

    reference = vetoed(executor="interpreted")
    for interning in ("off", "on"):
        assert vetoed(interning=interning) == reference


@pytest.mark.parametrize("seed", (3, 11, (3, "copy-loop"), (3, "fact"),
                                  (3, "exists"), (3, "member")))
def test_budget_exhaustion_payloads_match_across_combos(seed):
    text, edb = draw(seed)
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


@pytest.mark.parametrize("seed", (5, (5, "copy-loop"), (5, "fact"),
                                  (5, "exists"), (5, "member")))
def test_chaos_fault_ordinals_match_across_combos(seed):
    text, edb = draw(seed)
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
