"""Tests for the resilience layer: budgets, deadlines, cancellation.

Every evaluation method must terminate within a configured budget and
raise the typed error carrying partial progress — and a generous budget
must never change answers (budgets only truncate with an explicit
error, never silently).
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro import (Budget, BudgetExceededError, EvaluationCancelledError,
                   EvaluationError, evaluate, evaluate_with_magic,
                   magic_rewrite, parse_program, topdown_query)
from repro.datalog import parse_atom
from repro.engine import naive_evaluate, seminaive_evaluate
from repro.engine.bindings import EvalStats
from repro.engine.topdown import TabledEvaluator
from repro.facts import Database
from repro.facts.changelog import Changeset, VersionedDatabase
from repro.incremental import maintain
from repro.runtime import budget as budget_module, current_budget

REACH = """
reach(X, Y) :- edge(X, Y).
reach(X, Y) :- reach(X, Z), edge(Z, Y).
"""


def chain_db(n: int) -> Database:
    db = Database()
    db.ensure("edge", 2)
    for i in range(n):
        db.add_fact("edge", f"n{i}", f"n{i + 1}")
    return db


@pytest.fixture
def program():
    return parse_program(REACH)


class TestBudgetObject:
    def test_typed_errors_subclass_evaluation_error(self):
        assert issubclass(BudgetExceededError, EvaluationError)
        assert issubclass(EvaluationCancelledError, EvaluationError)

    def test_cancel_is_sticky_and_thread_safe(self):
        budget = Budget()
        thread = threading.Thread(target=budget.cancel)
        thread.start()
        thread.join()
        assert budget.cancelled
        with pytest.raises(EvaluationCancelledError):
            budget.checkpoint()

    def test_the_clock_interval_is_not_a_setting(self):
        assert not hasattr(Budget(), "tick")
        with pytest.raises(TypeError):
            Budget(deadline_check_interval=1)

    def test_ambient_installation(self, program):
        assert current_budget() is None
        with Budget(max_facts=3).activate() as budget:
            assert current_budget() is budget
            with pytest.raises(BudgetExceededError):
                evaluate(program, chain_db(10))
        assert current_budget() is None


class TestSeminaiveBudget:
    def test_max_facts(self, program):
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, chain_db(30), budget=Budget(max_facts=10))
        error = info.value
        assert error.resource == "facts"
        assert error.limit == 10
        assert error.stats is not None and error.stats.derivations == 10
        assert error.last_round is not None

    def test_max_derivations_counts_duplicates(self, program):
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, chain_db(30),
                     budget=Budget(max_derivations=25))
        stats = info.value.stats
        assert stats.derivations + stats.duplicate_derivations == 25

    def test_deadline(self, program):
        budget = Budget(timeout_s=0.0)
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, chain_db(30), budget=budget)
        assert info.value.resource == "deadline"

    def test_max_rounds(self, program):
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, chain_db(30), budget=Budget(max_rounds=3))
        assert info.value.resource == "rounds"
        assert info.value.last_round == 3

    def test_cancellation(self, program):
        budget = Budget()
        budget.cancel()
        with pytest.raises(EvaluationCancelledError):
            evaluate(program, chain_db(5), budget=budget)

    def test_iteration_cap_raises_typed_error(self, program, monkeypatch):
        """Satellite: cap exhaustion must raise, never silently truncate."""
        monkeypatch.setattr(budget_module, "MAX_ROUNDS", 4)
        with pytest.raises(BudgetExceededError) as info:
            seminaive_evaluate(program, chain_db(30))
        assert info.value.resource == "rounds"
        assert info.value.limit == 4
        assert "4" in str(info.value)

    def test_a_refused_round_is_not_counted(self, program):
        """Rounds 0 and 1 run; round 2 is refused and not counted."""
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, chain_db(30), budget=Budget(max_rounds=1))
        assert info.value.last_round == 1
        assert info.value.stats.iterations == 2


class TestNaiveBudget:
    def test_max_derivations(self, program):
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, chain_db(30), method="naive",
                     budget=Budget(max_derivations=12))
        assert info.value.resource == "derivations"

    def test_deadline(self, program):
        budget = Budget(timeout_s=0.0)
        with pytest.raises(BudgetExceededError):
            evaluate(program, chain_db(30), method="naive", budget=budget)

    def test_iteration_cap_raises_typed_error(self, program, monkeypatch):
        monkeypatch.setattr(budget_module, "MAX_ROUNDS", 2)
        with pytest.raises(BudgetExceededError) as info:
            naive_evaluate(program, chain_db(30))
        assert info.value.resource == "rounds"
        assert info.value.stats is not None

    def test_a_refused_round_is_not_counted(self, program):
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, chain_db(30), method="naive",
                     budget=Budget(max_rounds=1))
        assert info.value.last_round == 1
        assert info.value.stats.iterations == 1

    def test_cancellation(self, program):
        budget = Budget()
        budget.cancel()
        with pytest.raises(EvaluationCancelledError):
            evaluate(program, chain_db(5), method="naive", budget=budget)


class TestTopdownBudget:
    def test_max_facts(self, program):
        goal = parse_atom('reach("n0", Y)')
        with pytest.raises(BudgetExceededError) as info:
            topdown_query(program, chain_db(40), goal,
                          budget=Budget(max_facts=10))
        assert info.value.resource == "facts"
        assert info.value.stats.derivations == 10

    def test_max_derivations_counts_duplicates(self, program):
        goal = parse_atom('reach("n0", Y)')
        with pytest.raises(BudgetExceededError) as info:
            topdown_query(program, chain_db(40), goal,
                          budget=Budget(max_derivations=25))
        error = info.value
        assert error.resource == "derivations"
        assert error.limit == 25 and error.spent == 25
        stats = error.stats
        assert stats.derivations + stats.duplicate_derivations == 25
        # Each outer round re-derives what the rounds before it found.
        assert (stats.derivations, stats.duplicate_derivations) == (6, 19)
        assert error.last_round == 5 and stats.iterations == 6

    def test_deadline(self, program):
        goal = parse_atom('reach("n0", Y)')
        with pytest.raises(BudgetExceededError) as info:
            topdown_query(program, chain_db(40), goal,
                          budget=Budget(timeout_s=0.0))
        error = info.value
        assert error.resource == "deadline"
        assert error.last_round == 0
        assert error.stats.derivations == 0

    def test_round_cap_raises_typed_error(self, program, monkeypatch):
        monkeypatch.setattr(budget_module, "MAX_ROUNDS", 1)
        goal = parse_atom('reach("n0", Y)')
        evaluator = TabledEvaluator(program, chain_db(10))
        with pytest.raises(BudgetExceededError) as info:
            evaluator.query(goal)
        assert info.value.resource == "rounds"

    def test_a_refused_round_is_not_counted(self, program):
        evaluator = TabledEvaluator(program, chain_db(10),
                                    budget=Budget(max_rounds=1))
        with pytest.raises(BudgetExceededError) as info:
            evaluator.query(parse_atom('reach("n0", Y)'))
        assert info.value.last_round == 1
        assert info.value.stats.iterations == 1

    def test_cancellation(self, program):
        budget = Budget()
        budget.cancel()
        with pytest.raises(EvaluationCancelledError):
            topdown_query(program, chain_db(5),
                          parse_atom('reach("n0", Y)'), budget=budget)


class TestMaintenanceRounds:
    """Every maintenance pass runs the semi-naive round loop: its first
    round fires the changed rows, and each round is counted."""

    @staticmethod
    def _inserted_at_the_head(budget=None):
        program = parse_program(REACH)
        source = VersionedDatabase(chain_db(30))
        idb = seminaive_evaluate(program, source.db)
        source.apply(Changeset.from_text('+edge(m, n0).'))
        stats = EvalStats()
        maintain(program, source.db, idb, source.changes_since(0),
                 stats=stats, budget=budget)
        return stats

    def test_a_pass_counts_its_rounds(self):
        # reach(m, n0) in round 1, reach(m, nk) in round k + 1, and a
        # last round that derives nothing.
        assert self._inserted_at_the_head().iterations == 32

    def test_the_first_round_counts_against_max_rounds(self):
        with pytest.raises(BudgetExceededError) as info:
            self._inserted_at_the_head(Budget(max_rounds=3))
        assert info.value.resource == "rounds"
        assert info.value.last_round == 3
        assert info.value.stats.iterations == 3


@pytest.mark.parametrize("call", [
    lambda p, db: seminaive_evaluate(p, db, max_iterations=4),
    lambda p, db: naive_evaluate(p, db, max_iterations=4),
    lambda p, db: maintain(p, db, seminaive_evaluate(p, db), Changeset(),
                           max_iterations=4),
    lambda p, db: TabledEvaluator(p, db, max_rounds=4),
], ids=["seminaive", "naive", "maintain", "topdown"])
def test_budget_max_rounds_is_the_only_round_bound(program, call):
    with pytest.raises(TypeError):
        call(program, chain_db(3))


class TestMagicBudget:
    def test_evaluation_budget(self, program):
        query = parse_atom('reach("n0", Y)')
        with pytest.raises(BudgetExceededError) as info:
            evaluate_with_magic(program, chain_db(40), query,
                                budget=Budget(max_facts=10))
        assert info.value.resource == "facts"

    def test_rewrite_respects_cancellation(self, program):
        budget = Budget()
        budget.cancel()
        with pytest.raises(EvaluationCancelledError):
            magic_rewrite(program, parse_atom('reach("n0", Y)'),
                          budget=budget)

    def test_deadline(self, program):
        budget = Budget(timeout_s=0.0)
        with pytest.raises(BudgetExceededError):
            evaluate_with_magic(program, chain_db(40),
                                parse_atom('reach("n0", Y)'),
                                budget=budget)


class TestPartialProgressReporting:
    def test_error_reports_how_far_evaluation_got(self, program):
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, chain_db(30), budget=Budget(max_facts=40))
        error = info.value
        # 30 base facts land in the initialization round; the rest are
        # delta-round derivations, so progress must be visible.
        assert error.stats.derivations == 40
        assert error.stats.iterations >= 1
        assert error.last_round >= 0
        assert "40" in str(error)


# ---------------------------------------------------------------------------
# Property: budgets never alter answers, they only truncate with an error
# ---------------------------------------------------------------------------

nodes = st.integers(min_value=0, max_value=6).map(lambda i: f"n{i}")
edges = st.lists(st.tuples(nodes, nodes), min_size=0, max_size=18)


@settings(max_examples=30, deadline=None)
@given(edges)
def test_generous_budget_never_changes_answers(pairs):
    program = parse_program(REACH)
    db = Database()
    db.ensure("edge", 2)
    for a, b in pairs:
        db.add_fact("edge", a, b)
    unbudgeted = evaluate(program, db).facts("reach")
    generous = Budget(timeout_s=120.0, max_derivations=10_000_000,
                      max_facts=10_000_000, max_rounds=10_000)
    assert evaluate(program, db, budget=generous).facts("reach") \
        == unbudgeted
    with Budget(timeout_s=120.0).activate():
        assert evaluate(program, db,
                        method="naive").facts("reach") == unbudgeted
