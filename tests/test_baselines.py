"""Tests for the evaluation-paradigm baselines."""

import pytest

from repro.baselines import (ResidueGuidedEngine, guided_evaluate,
                             optimize_rule_level)
from repro.core import SemanticOptimizer
from repro.core.equivalence import make_consistent, random_database
from repro.engine import evaluate


class TestRuleLevelOptimizer:
    def test_blind_to_sequence_residues(self, ex32):
        report = optimize_rule_level(ex32.program, [ex32.ic("ic1")],
                                     pred="eval")
        # ic1's residue lives on r1 r1: invisible at rule level.
        assert not report.changed
        assert report.optimized == ex32.program

    def test_still_handles_rule_level_introduction(self, ex32):
        report = optimize_rule_level(ex32.program, [ex32.ic("ic2")],
                                     pred="eval",
                                     small_relations={"doctoral"})
        assert report.changed
        assert report.applied_steps[0].sequence == ("r2",)

    def test_sequence_residues_method_is_empty(self, ex32):
        from repro.baselines.rule_residues import RuleLevelOptimizer
        ic = ex32.ic("ic1")
        full = SemanticOptimizer(ex32.program, [ic], pred="eval")
        assert any(len(i.sequence) > 1 for i in full.residues(ic))
        optimizer = RuleLevelOptimizer(ex32.program, [ic], pred="eval")
        assert all(len(i.sequence) == 1 for i in optimizer.residues(ic))


class TestGuidedEngine:
    def test_attaches_sequence_guards(self, ex43):
        engine = ResidueGuidedEngine(ex43.program, [ex43.ic("ic1")],
                                     pred="anc")
        assert engine.attached_guards >= 1
        guards = engine.guards_for("r1")
        assert guards
        condition, min_round = guards[0]
        assert str(condition[0]) == "Ya <= 50"
        assert min_round >= 2

    def test_no_guards_for_fact_ics(self, ex32):
        engine = ResidueGuidedEngine(ex32.program, [ex32.ic("ic1")],
                                     pred="eval")
        assert engine.attached_guards == 0

    def test_same_answers_with_checks_counted(self, ex43, rng):
        engine = ResidueGuidedEngine(ex43.program, [ex43.ic("ic1")],
                                     pred="anc")
        for _ in range(4):
            db = random_database({"par": 4}, 6, 14, rng,
                                 numeric_columns={"par": [1, 3]})
            make_consistent(db, [ex43.ic("ic1")])
            plain = evaluate(ex43.program, db)
            guided = engine.evaluate(db)
            assert plain.facts("anc") == guided.facts("anc")
            assert plain.stats.residue_checks == 0
        assert guided.method == "seminaive+residue-guided"

    def test_checks_grow_with_derivations(self, ex43, rng):
        engine = ResidueGuidedEngine(ex43.program, [ex43.ic("ic1")],
                                     pred="anc")
        small = random_database({"par": 4}, 4, 6, rng,
                                numeric_columns={"par": [1, 3]})
        large = random_database({"par": 4}, 10, 40, rng,
                                numeric_columns={"par": [1, 3]})
        for db in (small, large):
            make_consistent(db, [ex43.ic("ic1")])
        checks_small = engine.evaluate(small).stats.residue_checks
        checks_large = engine.evaluate(large).stats.residue_checks
        assert checks_large >= checks_small

    def test_wrapper(self, ex43, rng):
        db = random_database({"par": 4}, 5, 10, rng,
                             numeric_columns={"par": [1, 3]})
        make_consistent(db, [ex43.ic("ic1")])
        result = guided_evaluate(ex43.program, [ex43.ic("ic1")], db,
                                 pred="anc")
        assert result.facts("anc") == \
            evaluate(ex43.program, db).facts("anc")


class TestThreeWayAgreement:
    """Plain, transformed and guided must always agree — the paradigms
    differ in where the constraint knowledge is paid for, not in what is
    computed."""

    def test_genealogy(self, ex43, rng):
        optimized = SemanticOptimizer(
            ex43.program, [ex43.ic("ic1")]).optimize().optimized
        engine = ResidueGuidedEngine(ex43.program, [ex43.ic("ic1")],
                                     pred="anc")
        for _ in range(5):
            db = random_database({"par": 4}, 7, 16, rng,
                                 numeric_columns={"par": [1, 3]})
            make_consistent(db, [ex43.ic("ic1")])
            plain = evaluate(ex43.program, db).facts("anc")
            pushed = evaluate(optimized, db).facts("anc")
            guided = engine.evaluate(db).facts("anc")
            assert plain == pushed == guided
