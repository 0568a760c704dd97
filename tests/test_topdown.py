"""Tests for the tabled top-down engine."""

import random

import pytest

from hypothesis import given, settings, strategies as st

from repro.core import SemanticOptimizer
from repro.datalog import atom, parse_program
from repro.engine import evaluate, topdown_query
from repro.engine.engine import select_answers
from repro.engine.topdown import TabledEvaluator
from repro.errors import EvaluationError
from repro.facts import Database
from repro.workloads import (GenealogyParams, example_4_3,
                             generate_genealogy)


class TestBasics:
    def test_bound_query(self, tc_program, chain_db):
        result = topdown_query(tc_program, chain_db,
                               atom("reach", "a", "Y"))
        assert result.project(atom("reach", "a", "Y")) == \
            {("a", "b"), ("a", "c"), ("a", "d")}

    def test_free_query(self, tc_program, chain_db):
        goal = atom("reach", "X", "Y")
        result = topdown_query(tc_program, chain_db, goal)
        assert result.project(goal) == \
            evaluate(tc_program, chain_db).facts("reach")

    def test_fully_bound_query(self, tc_program, chain_db):
        hit = topdown_query(tc_program, chain_db,
                            atom("reach", "a", "d"))
        miss = topdown_query(tc_program, chain_db,
                             atom("reach", "d", "a"))
        assert hit.project(atom("reach", "a", "d"))
        assert not miss.project(atom("reach", "d", "a"))

    def test_repeated_variable_query(self, tc_program):
        db = Database({"edge": [("a", "b"), ("b", "a"), ("c", "d")]})
        goal = atom("reach", "X", "X")
        result = topdown_query(tc_program, db, goal)
        assert result.project(goal) == {("a", "a"), ("b", "b")}

    def test_cyclic_data_terminates(self, tc_program):
        db = Database({"edge": [("a", "b"), ("b", "a")]})
        goal = atom("reach", "a", "Y")
        result = topdown_query(tc_program, db, goal)
        assert result.project(goal) == {("a", "a"), ("a", "b")}

    def test_comparisons_prune_early(self, chain_db):
        program = parse_program("""
            r0: big(X, Y) :- edge(X, Y), X != a.
        """)
        goal = atom("big", "a", "Y")
        result = topdown_query(program, chain_db, goal)
        assert not result.project(goal)
        # The comparison refuted the rule before touching edge.
        assert result.stats.atom_lookups == 0

    def test_right_linear_program(self, chain_db):
        program = parse_program("""
            r0: reach(X, Y) :- edge(X, Y).
            r1: reach(X, Y) :- edge(X, Z), reach(Z, Y).
        """)
        goal = atom("reach", "a", "Y")
        result = topdown_query(program, chain_db, goal)
        assert result.project(goal) == \
            {("a", "b"), ("a", "c"), ("a", "d")}

    def test_negation_rejected(self, chain_db):
        program = parse_program("p(X) :- node(X), not edge(X, X).")
        with pytest.raises(EvaluationError):
            topdown_query(program, chain_db, atom("p", "X"))

    def test_unsafe_rule_rejected(self, chain_db):
        program = parse_program("p(X) :- edge(X, Y), Z > 3.")
        with pytest.raises(EvaluationError):
            topdown_query(program, chain_db, atom("p", "X"))

    def test_evaluator_reuses_tables(self, tc_program, chain_db):
        evaluator = TabledEvaluator(tc_program, chain_db)
        first = evaluator.query(atom("reach", "a", "Y"))
        lookups_after_first = evaluator.stats.atom_lookups
        second = evaluator.query(atom("reach", "a", "Y"))
        assert second.answers == first.answers
        # The completed table answers without re-deriving.
        assert evaluator.stats.derivations == first.stats.derivations


class TestBoundQueriesDoLessWork:
    def test_disconnected_components(self, tc_program):
        db = Database()
        for i in range(15):
            db.add_fact("edge", f"a{i}", f"a{i + 1}")
            db.add_fact("edge", f"b{i}", f"b{i + 1}")
        bound = topdown_query(tc_program, db, atom("reach", "a0", "Y"))
        free = topdown_query(tc_program, db, atom("reach", "X", "Y"))
        assert bound.stats.derivations < free.stats.derivations


class TestAgainstBottomUp:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                    min_size=0, max_size=14),
           st.integers(0, 5))
    def test_property_bound_first_argument(self, pairs, start):
        program = parse_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- reach(X, Z), edge(Z, Y).
        """)
        db = Database()
        db.ensure("edge", 2)
        for a, b in pairs:
            db.add_fact("edge", f"n{a}", f"n{b}")
        goal = atom("reach", f"n{start}", "Y")
        assert topdown_query(program, db, goal).project(goal) == \
            select_answers(evaluate(program, db).idb, goal)


class TestPruningPayoff:
    def test_young_ancestor_query_is_cheaper_when_pruned(self):
        example = example_4_3()
        optimized = SemanticOptimizer(
            example.program, [example.ic("ic1")]).optimize().optimized
        db = generate_genealogy(
            GenealogyParams(generations=7, width=10,
                            young_fraction=0.8), random.Random(5))
        young = sorted({(y, ya) for (_, _, y, ya) in db.facts("par")
                        if ya <= 50})[0]
        goal = atom("anc", "X", "Xa", young[0], young[1])
        plain = topdown_query(example.program, db, goal)
        pruned = topdown_query(optimized, db, goal)
        assert plain.project(goal) == pruned.project(goal)
        assert pruned.stats.rows_matched < plain.stats.rows_matched
