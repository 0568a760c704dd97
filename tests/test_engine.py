"""Integration tests for the evaluation engines."""

import random

import pytest

from repro.datalog import atom, parse_program
from repro.engine import (EvalProfile, evaluate, evaluate_with_magic,
                          magic_answers, naive_evaluate,
                          seminaive_evaluate, stratify)
from repro.engine.engine import select_answers
from repro.engine.bindings import EvalStats
from repro.errors import EvaluationError
from repro.facts import Database
from tests.conftest import tc_closure


class TestTransitiveClosure:
    def test_chain(self, tc_program, chain_db):
        result = evaluate(tc_program, chain_db)
        assert result.facts("reach") == tc_closure(
            {("a", "b"), ("b", "c"), ("c", "d")})

    def test_diamond_dedup(self, tc_program, diamond_db):
        result = evaluate(tc_program, diamond_db)
        assert ("a", "d") in result.facts("reach")
        assert result.count("reach") == 5

    def test_naive_equals_seminaive(self, tc_program, rng):
        for _ in range(10):
            db = Database()
            nodes = rng.randint(2, 9)
            for _ in range(rng.randint(1, 18)):
                a, b = rng.randrange(nodes), rng.randrange(nodes)
                db.add_fact("edge", f"n{a}", f"n{b}")
            naive = evaluate(tc_program, db, method="naive")
            semi = evaluate(tc_program, db, method="seminaive")
            assert naive.facts("reach") == semi.facts("reach")

    def test_cyclic_graph_terminates(self, tc_program):
        db = Database({"edge": [("a", "b"), ("b", "a")]})
        result = evaluate(tc_program, db)
        assert result.facts("reach") == {("a", "b"), ("b", "a"),
                                         ("a", "a"), ("b", "b")}

    def test_empty_edb(self, tc_program):
        assert evaluate(tc_program, Database()).count("reach") == 0


class TestEngineFeatures:
    def test_comparisons_filter(self, chain_db):
        program = parse_program("""
            r0: big(X, Y) :- edge(X, Y), X != a.
        """)
        result = evaluate(program, chain_db)
        assert result.facts("big") == {("b", "c"), ("c", "d")}

    def test_arithmetic_in_head_via_equality(self):
        program = parse_program("next(X, Y) :- num(X), Y = X + 1.")
        db = Database({"num": [(1,), (2,)]})
        assert evaluate(program, db).facts("next") == {(1, 2), (2, 3)}

    def test_stratified_negation(self, chain_db):
        program = parse_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- reach(X, Z), edge(Z, Y).
            unreachable(X, Y) :- node(X), node(Y), not reach(X, Y).
        """)
        db = chain_db.copy()
        for n in "abcd":
            db.add_fact("node", n)
        result = evaluate(program, db)
        assert ("d", "a") in result.facts("unreachable")
        assert ("a", "d") not in result.facts("unreachable")

    def test_non_stratifiable_rejected(self):
        program = parse_program("p(X) :- e(X), not p(X).")
        with pytest.raises(EvaluationError):
            evaluate(program, Database({"e": [("a",)]}))

    def test_stratify_orders_negation(self):
        program = parse_program("""
            a(X) :- e(X).
            b(X) :- e(X), not a(X).
            c(X) :- b(X).
        """)
        strata = stratify(program)
        index = {pred: i for i, s in enumerate(strata) for pred in s}
        assert index["a"] < index["b"] <= index["c"]

    def test_unsafe_rule_raises_at_evaluation(self):
        program = parse_program("p(X) :- e(X), Y > X.")
        with pytest.raises(EvaluationError):
            evaluate(program, Database({"e": [(1,)]}))

    def test_unknown_method(self, tc_program, chain_db):
        with pytest.raises(EvaluationError):
            evaluate(tc_program, chain_db, method="bogus")

    @pytest.mark.parametrize("bad", [{"method": "bogus"},
                                     {"planner": "bogus"},
                                     {"executor": "bogus"},
                                     {"method": "naive",
                                      "profile": EvalProfile()}])
    def test_options_are_validated_before_any_work(
            self, tc_program, chain_db, monkeypatch, bad):
        # The O(EDB) re-encode may not run for a call that is going to
        # be refused — nor, at the magic entry points, the rewrite.  A
        # profile the naive method would silently leave empty is
        # refused like a hook.
        monkeypatch.setattr(Database, "interned",
                            lambda self, symbols=None: pytest.fail(
                                "re-encoded the EDB before validating"))
        monkeypatch.setattr("repro.engine.engine.magic_rewrite",
                            lambda *args, **kwargs: pytest.fail(
                                "rewrote the program before validating"))
        with pytest.raises(EvaluationError,
                           match="bogus|require the semi-naive method"):
            evaluate(tc_program, chain_db, interning="on", **bad)
        if "method" in bad:
            return  # the magic entry points are semi-naive only
        for entry in (evaluate_with_magic, magic_answers):
            with pytest.raises(EvaluationError, match="bogus"):
                entry(tc_program, chain_db, atom("reach", "a", "X"),
                      interning="on", **bad)

    def test_source_planner_same_answers(self, tc_program, diamond_db):
        greedy = evaluate(tc_program, diamond_db, planner="greedy")
        source = evaluate(tc_program, diamond_db, planner="source")
        assert greedy.facts("reach") == source.facts("reach")

    def test_hook_vetoes_derivations(self, tc_program, chain_db):
        def hook(rule, binding, round_index):
            return rule.label != "r1"  # no recursive derivations

        result = evaluate(tc_program, chain_db, hook=hook)
        assert result.facts("reach") == chain_db.facts("edge")

    def test_hook_round_index(self, tc_program, chain_db):
        # The round index is a lower bound on the number of recursive
        # applications in the derivation (rules later in the init round
        # already see earlier rules' output, compressing depths).
        rounds = []

        def hook(rule, binding, round_index):
            rounds.append((rule.label, round_index))
            return True

        evaluate(tc_program, chain_db, hook=hook)
        assert ("r0", 0) in rounds
        assert max(r for _, r in rounds) >= 1
        # r0 (non-recursive) only ever fires in the init round.
        assert all(r == 0 for label, r in rounds if label == "r0")

    def test_stats_counters_populated(self, tc_program, chain_db):
        result = evaluate(tc_program, chain_db)
        stats = result.stats
        assert stats.derivations == 6
        assert stats.atom_lookups > 0
        assert stats.rule_rows.get("r1", 0) > 0
        assert sum(stats.rule_rows.values()) == stats.rows_matched

    def test_stats_merge(self):
        a, b = EvalStats(), EvalStats()
        a.derivations, b.derivations = 2, 3
        a.rule_rows["x"] = 1
        b.rule_rows["x"] = 2
        a.merge(b)
        assert a.derivations == 5 and a.rule_rows["x"] == 3

    def test_query_method(self, tc_program, chain_db):
        result = evaluate(tc_program, chain_db)
        assert result.query("reach(a, Y)") == {("b",), ("c",), ("d",)}

    def test_query_with_comparison(self, tc_program, chain_db):
        result = evaluate(tc_program, chain_db)
        rows = result.query("reach(X, Y), X != a")
        assert ("b", "c") in rows and all(x != "a" for x, _ in rows)


class TestQueryHelpers:
    def test_query_answers_filters_constants(self, tc_program, chain_db):
        answers = select_answers(evaluate(tc_program, chain_db).idb,
                                 atom("reach", "a", "Y"))
        assert answers == {("a", "b"), ("a", "c"), ("a", "d")}

    def test_query_answers_repeated_variable(self, tc_program):
        db = Database({"edge": [("a", "b"), ("b", "a")]})
        answers = select_answers(evaluate(tc_program, db).idb,
                                 atom("reach", "X", "X"))
        assert answers == {("a", "a"), ("b", "b")}

    def test_query_answers_on_edb(self, tc_program, chain_db):
        assert select_answers(chain_db,
                              atom("edge", "a", "Y")) == {("a", "b")}

    def test_consistent_answers(self, tc_program, chain_db):
        def reach(program):
            return evaluate(program, chain_db).facts("reach")

        same = parse_program("""
            a0: reach(X, Y) :- edge(X, Y).
            a1: reach(X, Y) :- edge(X, Z), reach(Z, Y).
        """)  # right-linear variant
        assert reach(tc_program) == reach(same)
        different = parse_program("reach(X, Y) :- edge(X, Y).")
        assert not reach(tc_program) == reach(different)



def _all_answers(program, db, query):
    """``query`` through the three answer entry points, raw and
    interned: six sets that must be one."""
    from repro.engine.optimizer import cbo_answers

    return [
        magic_answers(program, db, query),
        magic_answers(program, db, query, interning="on"),
        select_answers(evaluate(program, db).idb, query),
        select_answers(evaluate(program, db.interned()).idb, query),
        cbo_answers(program, db, query),
        cbo_answers(program, db, query, interning="on"),
    ]


class TestAnswerSelection:
    """`select_answers` is the one selection behind `magic_answers`,
    a plain evaluation and `cbo_answers` (each used to carry its own
    filter loop, and the magic one ignored repeated variables)."""

    THREE_EDGES = {"edge": [("a", "b"), ("b", "a"), ("b", "c")]}

    @pytest.mark.parametrize("args, expected", [
        (("X", "X"), {("a", "a"), ("b", "b")}),
        (("a", "X"), {("a", "a"), ("a", "b"), ("a", "c")}),
        (("X", "a"), {("a", "a"), ("b", "a")}),
        (("zz", "X"), set()),       # a constant no stored value equals
        (("X", "Y"), {(x, y) for x in "ab" for y in "abc"}),
    ])
    def test_entry_points_agree(self, tc_program, args, expected):
        db = Database(self.THREE_EDGES)
        for answers in _all_answers(tc_program, db, atom("reach", *args)):
            assert answers == expected

    def test_constant_and_repeated_variable_over_three_columns(self):
        program = parse_program("""
            p(X, Y, Z) :- t(X, Y, Z).
            p(X, Y, Z) :- p(X, Y, W), s(W, Z).
        """)
        db = Database({"t": [("a", 1, 2), ("a", 3, 3), ("b", 4, 4)],
                       "s": [(2, 1), (3, 5)]})
        for answers in _all_answers(program, db, atom("p", "a", "X", "X")):
            assert answers == {("a", 1, 1), ("a", 3, 3)}

    def test_query_constant_matches_by_hash_equality(self):
        # 1 == 1.0 == True: `lookup` probes a hash index where the
        # loops compared with `!=`; both storage modes keep the first
        # representative, so the rows agree (as sets) everywhere.
        program = parse_program("q(X, Y) :- n(X, Y).")
        db = Database({"n": [(1.0, "x"), (True, "y"), (2, "z")]})
        for answers in _all_answers(program, db, atom("q", 1, "Y")):
            assert answers == {(1.0, "x"), (1.0, "y")}

    @pytest.mark.parametrize("args", [("a",), ("a", "X", "Y"),
                                      ("X", "Y", "Z")])
    def test_arity_mismatch_is_a_typed_error(self, tc_program, args):
        from repro.engine.optimizer import cbo_answers
        from repro.errors import ReproError

        db = Database(self.THREE_EDGES)
        query = atom("reach", *args)
        for run in (
                lambda **kw: magic_answers(tc_program, db, query, **kw),
                lambda **kw: cbo_answers(tc_program, db, query, **kw)):
            for options in ({}, {"interning": "on"}):
                with pytest.raises(ReproError):
                    run(**options)
        for edb in (db, db.interned()):
            with pytest.raises(EvaluationError, match="arity"):
                select_answers(evaluate(tc_program, edb).idb, query)

    @pytest.fixture
    def scans(self, monkeypatch):
        """Names of the relations decoded wholesale (`rows()` or
        iteration) while the test runs."""
        from repro.facts.relation import Relation

        seen = []
        for name in ("rows", "__iter__"):
            real = getattr(Relation, name)
            monkeypatch.setattr(
                Relation, name,
                lambda self, real=real: seen.append(self.name)
                or real(self))
        return seen

    def _long_chain(self):
        return Database({"edge": [(f"n{i}", f"n{i + 1}")
                                  for i in range(30)]}).interned()

    def test_selection_never_materializes_the_relation(
            self, tc_program, scans):
        """A constant-bound query under the identity plan costs one
        index probe and the decode of the matches."""
        from repro.engine.optimizer import ChosenPlan, cbo_answers

        db = self._long_chain()
        query = atom("reach", "X", "n30")
        choice = ChosenPlan(program=tc_program, transforms=(), cost=0.0,
                            fingerprint="identity")
        del scans[:]
        answers = cbo_answers(tc_program, db, query, choice=choice)
        assert answers == {(f"n{i}", "n30") for i in range(30)}
        assert "reach" not in scans

    def test_an_answer_relation_read_once_is_not_indexed(self,
                                                          tc_program):
        """A bound query's adorned relation is read once, by the answer
        selection: it is scanned, and no index is built on it."""
        db = self._long_chain()
        query = atom("reach", "n3", "Y")
        result = evaluate_with_magic(tc_program, db, query)
        answers = select_answers(result.idb, query, pred="reach__bf")
        assert answers == {("n3", f"n{i}") for i in range(4, 31)}
        assert result.idb.relation("reach__bf").indexes == {}
        assert select_answers(result.idb, query, pred="reach__bf") \
            == answers
        assert list(result.idb.relation("reach__bf").indexes) == [(0,)]

    def test_count_is_a_len(self, tc_program, scans):
        result = evaluate(tc_program, self._long_chain())
        assert result.count("reach") == 31 * 30 // 2
        assert result.count("nowhere") == 0
        assert "reach" not in scans


class TestMagicSets:
    def test_bound_first_argument(self, tc_program, chain_db):
        answers = magic_answers(tc_program, chain_db,
                                atom("reach", "b", "Y"))
        assert answers == {("b", "c"), ("b", "d")}

    def test_matches_plain_on_random_graphs(self, tc_program, rng):
        for _ in range(8):
            db = Database()
            nodes = rng.randint(3, 8)
            for _ in range(rng.randint(2, 14)):
                a, b = rng.randrange(nodes), rng.randrange(nodes)
                db.add_fact("edge", f"n{a}", f"n{b}")
            query = atom("reach", "n0", "Y")
            assert magic_answers(tc_program, db, query) == \
                select_answers(evaluate(tc_program, db).idb, query)

    def test_does_less_work_on_bound_queries(self, tc_program):
        # Two disconnected chains; a bound query should never explore
        # the other component.
        db = Database()
        for i in range(20):
            db.add_fact("edge", f"a{i}", f"a{i+1}")
            db.add_fact("edge", f"b{i}", f"b{i+1}")
        from repro.engine import evaluate_with_magic
        bound = evaluate_with_magic(tc_program, db,
                                    atom("reach", "a0", "Y"))
        full = evaluate(tc_program, db)
        assert bound.stats.derivations < full.stats.derivations

    def test_all_free_query(self, tc_program, chain_db):
        answers = magic_answers(tc_program, chain_db,
                                atom("reach", "X", "Y"))
        assert answers == evaluate(tc_program, chain_db).facts("reach")

    def test_requires_idb_query(self, tc_program, chain_db):
        from repro.errors import TransformError
        with pytest.raises(TransformError):
            magic_answers(tc_program, chain_db, atom("edge", "a", "Y"))

    def test_rejects_negation(self, chain_db):
        from repro.errors import TransformError
        program = parse_program("p(X) :- node(X), not q(X). q(X) :- e(X).")
        with pytest.raises(TransformError):
            magic_answers(program, chain_db, atom("p", "a"))

    SG = """
        s0: sg(X, X) :- node(X).
        s1: sg(X, Y) :- par(X, Xp), sg(Xp, Yp), par(Y, Yp).
    """

    @pytest.mark.parametrize("case", [
        "tc-bf", "tc-fb", "sg-bf", "sg-fb",
        *(f"draw{seed}-{pattern}" for seed in (0, 1, 4, 6)
          for pattern in ("bf", "fb"))])
    def test_no_magic_rule_derives_itself(self, tc_program, rng, case):
        """``m_p__bf(X) :- m_p__bf(X).`` adds a stratum and derives
        nothing: no rewrite keeps a rule whose head is in its body, and
        the answers stay the plain evaluation's."""
        from repro.engine.magic import magic_rewrite
        from repro.workloads import random_linear_program

        name, pattern = case.split("-")
        if name == "tc":
            program, pred = tc_program, "reach"
            db = Database({"edge": [(f"n{rng.randrange(12)}",
                                     f"n{rng.randrange(12)}")
                                    for _ in range(30)]})
        elif name == "sg":
            program, pred = parse_program(self.SG), "sg"
            db = Database({"node": [(f"n{i}",) for i in range(12)],
                           "par": [(f"n{i}", f"n{i // 2}")
                                   for i in range(1, 12)]})
        else:
            text, db = random_linear_program(random.Random(int(name[4:])))
            program, pred = parse_program(text), "p"
        constant = min((row[0] for pred in db.predicates()
                        for row in db.facts(pred)), key=repr)
        args = (constant, "Y") if pattern == "bf" else ("X", constant)
        query = atom(pred, *args)
        rewritten = magic_rewrite(program, query)
        assert not [rule for rule in rewritten.program
                    if rule.head in rule.body]
        assert magic_answers(program, db, query) == \
            select_answers(evaluate(program, db).idb, query)
