"""Tests for the empirical-equivalence utilities."""

import pytest

from repro.constraints import ic_from_text, satisfies
from repro.core.equivalence import (check_equivalent,
                                    infer_numeric_columns, make_consistent,
                                    random_consistent_databases,
                                    random_database)
from repro.datalog import parse_program
from repro.facts import Database
from repro.workloads import load


class TestRandomDatabase:
    def test_schema_respected(self, rng):
        db = random_database({"p": 2, "q": 1}, 5, 10, rng)
        assert db.relation("p").arity == 2
        assert db.relation("q").arity == 1
        assert len(db.relation("p")) <= 10

    def test_numeric_columns(self, rng):
        db = random_database({"p": 2}, 5, 10, rng,
                             numeric_columns={"p": [1]}, max_value=9)
        for sym, num in db.facts("p"):
            assert isinstance(sym, str)
            assert isinstance(num, int) and 1 <= num <= 9


class TestNumericColumns:
    @pytest.mark.parametrize("name, expected", [
        ("example_2_1", {}),
        ("example_3_2", {"pays": [0]}),
        ("example_4_1", {}),
        ("example_4_3", {"par": [1, 3]}),
        ("example_5_1", {"transcript": [2, 3]}),
    ])
    def test_paper_examples(self, name, expected):
        """Example 4.3's age column 1 joins the compared column 3 (``Za``
        in ic1, and ``anc``'s columns through r1), so both draw
        numbers."""
        example = load(name)
        assert infer_numeric_columns(example.program, example.ics) \
            == expected

    def test_a_class_runs_through_an_idb_predicate(self):
        program = parse_program("""
            r0: p(X, N) :- a(X, N).
            r1: q(X) :- p(X, N), b(N, M), N > 3.
        """)
        assert infer_numeric_columns(program) == {"a": [1], "b": [0]}


class TestMakeConsistent:
    def test_repairs_fact_ic_by_adding(self, rng):
        ic = ic_from_text("boss(E, B) -> experienced(B).")
        db = random_database({"boss": 2}, 4, 8, rng)
        make_consistent(db, [ic])
        assert satisfies(db, ic)
        assert len(db.facts("experienced")) > 0

    def test_repairs_denial_by_deleting(self, rng):
        ic = ic_from_text("p(X, N), N > 50 -> .")
        db = random_database({"p": 2}, 4, 20, rng,
                             numeric_columns={"p": [1]}, max_value=100)
        make_consistent(db, [ic])
        assert satisfies(db, ic)
        assert all(n <= 50 for _, n in db.facts("p"))

    def test_interacting_ics(self, rng):
        add = ic_from_text("works_with(A, B), expert(B, F) -> expert(A, F).")
        deny = ic_from_text("expert(X, f0), expert(X, f1) -> .")
        db = random_database({"works_with": 2, "expert": 2}, 4, 8, rng)
        make_consistent(db, [add, deny])
        assert satisfies(db, add, deny)

    def test_batch_helper(self, rng):
        ic = ic_from_text("p(X, Y) -> q(Y).")
        batch = random_consistent_databases({"p": 2, "q": 1}, [ic], 3,
                                            rng)
        assert len(batch) == 3
        assert all(satisfies(db, ic) for db in batch)


class TestCheckEquivalent:
    def test_detects_difference(self, tc_program, chain_db):
        weaker = parse_program("reach(X, Y) :- edge(X, Y).")
        counterexample = check_equivalent(tc_program, weaker, "reach",
                                          [chain_db])
        assert counterexample is not None
        assert counterexample.only_first  # the closure tuples
        assert not counterexample.only_second
        assert "disagree" in str(counterexample)

    def test_passes_for_equal_programs(self, tc_program, chain_db):
        right_linear = parse_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- edge(X, Z), reach(Z, Y).
        """)
        assert check_equivalent(tc_program, right_linear, "reach",
                                [chain_db]) is None

    def test_empty_batch_trivially_passes(self, tc_program):
        weaker = parse_program("reach(X, Y) :- edge(X, Y).")
        assert check_equivalent(tc_program, weaker, "reach", []) is None
