"""Tests for join-plan introspection."""

import pytest

from repro.datalog import parse_program
from repro.engine import EvalStats, evaluate
from repro.engine.plan import explain_plan, plan_rule
from repro.facts import Database


@pytest.fixture
def join_program():
    return parse_program("""
        r0: s(P, S, M) :- big(P, S), pays(M, S), doctoral(S).
    """)


@pytest.fixture
def skewed_db():
    db = Database()
    for i in range(50):
        db.add_fact("big", f"p{i}", f"s{i % 10}")
    for i in range(10):
        db.add_fact("pays", i * 100, f"s{i}")
    db.add_fact("doctoral", "s1")
    return db


class TestGreedyPlans:
    def test_smallest_relation_anchors(self, join_program, skewed_db):
        plan = plan_rule(join_program.rule("r0"), join_program, skewed_db)
        first = plan.steps[0]
        assert first.kind == "scan"
        assert first.literal.pred == "doctoral"

    def test_later_atoms_probe(self, join_program, skewed_db):
        plan = plan_rule(join_program.rule("r0"), join_program, skewed_db)
        kinds = [step.kind for step in plan.steps]
        assert kinds == ["scan", "probe", "probe"]
        # pays is probed on its bound S column (column 1).
        pays_step = [s for s in plan.steps
                     if getattr(s.literal, "pred", None) == "pays"][0]
        assert pays_step.bound_columns == (1,)

    def test_source_planner_keeps_order(self, join_program, skewed_db):
        plan = plan_rule(join_program.rule("r0"), join_program, skewed_db,
                         planner="source")
        preds = [getattr(s.literal, "pred", None) for s in plan.steps]
        assert preds == ["big", "pays", "doctoral"]

    def test_comparisons_marked(self, skewed_db):
        program = parse_program(
            "q(M) :- pays(M, S), M > 100, D = M + 1.")
        plan = plan_rule(program.rule("r0"), program, skewed_db)
        kinds = {str(s.literal): s.kind for s in plan.steps}
        assert kinds["M > 100"] == "check"
        assert kinds["D = (M + 1)"] == "bind"

    def test_idb_sizes_from_result(self, tc_program, chain_db):
        result = evaluate(tc_program, chain_db)
        plan = plan_rule(tc_program.rule("r1"), tc_program, chain_db,
                         idb=result.idb)
        reach_step = [s for s in plan.steps
                      if getattr(s.literal, "pred", None) == "reach"][0]
        assert reach_step.relation_size == 6

    def test_explain_plan_renders_all_rules(self, tc_program, chain_db):
        text = explain_plan(tc_program, chain_db)
        assert "r0:" in text and "r1:" in text
        assert "scan" in text or "probe" in text

    def test_render_contains_sizes(self, join_program, skewed_db):
        plan = plan_rule(join_program.rule("r0"), join_program, skewed_db)
        assert "(~1 rows)" in plan.render()


class TestOneStatisticsSource:
    """``explain`` costs plans from the statistics the engines use.

    Until PR 15 it read a separate, incrementally maintained
    ``RelationStats`` whose distinct counts kept deleted values, and
    attached it to the caller's relations as a side effect.
    """

    def _skewed_after_churn(self):
        program = parse_program(
            "r0: out(X, Y, Z) :- seed(X), a(X, Y), b(X, Z).")
        db = Database()
        db.add_fact("seed", 0)
        for i in range(100):
            db.add_fact("a", i, 0)
            db.add_fact("b", i % 10, i)
        # Whatever explain reads is in place before the churn...
        explain_plan(program, db, planner="adaptive", show_stats=True)
        a = db.relation("a")
        for i in range(1, 100):
            assert a.discard((i, 0))
        for j in range(1, 100):
            assert a.add((0, j))
        # ...after which column 0 of `a` holds one distinct value.
        return program, db

    def test_plan_rule_reports_what_the_kernel_cache_compiles(self):
        from repro.engine.fire import Firer

        program, db = self._skewed_after_churn()
        rule = program.rule("r0")
        firer = Firer("adaptive", "compiled", None, EvalStats())
        firer.run(rule, lambda atom, index: db.relation(atom.pred))
        kernel = firer.kernels.get(rule, None)
        plan = plan_rule(rule, program, db, planner="adaptive")
        assert [step.literal for step in plan.steps] \
            == [rule.body[index] for index in kernel.order]
        assert {index: step.estimate
                for index, step in zip(kernel.order, plan.steps)} \
            == kernel.plan_costs
        estimates = {step.literal.pred: step.estimate
                     for step in plan.steps}
        assert estimates == {"seed": 1.0, "b": 10.0, "a": 100.0}
        assert [step.literal.pred for step in plan.steps] \
            == ["seed", "b", "a"]
        text = explain_plan(program, db, planner="adaptive",
                            show_stats=True)
        assert "edb a/2: 100 rows, distinct=[1,100]" in text
        assert "epoch" not in text

    def test_explain_leaves_the_insert_path_alone(self):
        from repro.engine.plan import explain_kernels
        from repro.facts import Relation

        program = parse_program("r0: out(X, Z) :- seed(X), b(X, Z).")
        db = Database()
        db.add_fact("seed", 0)
        db.add_fact("b", 0, 1)
        relation = db.relation("b")
        # ``_profile`` is the statistics memo itself: rendering fills
        # it (as it filled the old distinct-count dict in place), and no
        # mutation path ever reads it.
        before = {slot: getattr(relation, slot)
                  for slot in Relation.__slots__ if slot != "_profile"}
        for render in (explain_plan, explain_kernels):
            render(program, db, planner="adaptive", show_stats=True)
        # Nothing was attached to the relation and no index was built:
        # the next insert does exactly the work it did before.
        assert all(getattr(relation, slot) is value
                   for slot, value in before.items())
        assert relation.indexes == {}

    def test_an_idb_relation_not_yet_derived_reads_as_empty(self):
        """``explain`` without an ``idb`` plans the start of the
        fixpoint: ``p`` from the stratum below holds nothing yet, so it
        is costed at 0 rows and anchors the join; the recursion scans
        its own stratum's ``p`` — the frontier of its round 0."""
        program = parse_program(
            "b0: p(X, Y) :- e(X, Y).\n"
            "r0: p(X, Z) :- p(X, Y), e(Y, Z).\n"
            "q0: q(X, Z) :- p(X, Y), e(Y, Z).\n")
        db = Database.from_text("e(1, 2). e(2, 3). e(3, 4).")
        cold = plan_rule(program.rule("q0"), program, db,
                         planner="adaptive")
        assert [(s.literal.pred, s.relation_size, s.estimate)
                for s in cold.steps][0] == ("p", 0, 0.0)
        recursive = plan_rule(program.rule("r0"), program, db,
                              planner="adaptive")
        assert [(s.literal.pred, s.kind) for s in recursive.steps] == \
            [("p", "scan"), ("e", "probe")]
