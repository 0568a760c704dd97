"""Chaos tests: every fallback path of the resilience layer must fire.

The fault-injection harness (:mod:`repro.runtime.chaos`) makes named
optimizer stages or the Nth engine derivation raise or stall on cue;
these tests prove that `optimize()` degrades exactly as designed
and that engine faults surface as typed errors, not hangs.
"""

import pytest

from repro import (Budget, BudgetExceededError, Database, ChaosPlan,
                   SemanticOptimizer, evaluate, ics_from_text,
                   parse_program)
from repro.core.equivalence import infer_numeric_columns
from repro.datalog import parse_atom
from repro.runtime import ChaosError, active_plan
from repro.runtime.chaos import checkpoint
from repro.workloads.paper_examples import ALL_EXAMPLES

PROGRAM = """
r0: anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
r1: anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
"""

ICS = """
ic1: Ya <= 50, par(Z, Za, Y, Ya), par(Z2, Z2a, Z, Za),
     par(Z3, Z3a, Z2, Z2a) -> .
"""


@pytest.fixture
def program():
    return parse_program(PROGRAM)


@pytest.fixture
def ics():
    return ics_from_text(ICS)


def par_db(n: int = 12) -> Database:
    db = Database()
    db.ensure("par", 4)
    for i in range(n):
        db.add_fact("par", f"p{i}", 20 + i, f"p{i + 1}", 21 + i)
    return db


class TestChaosPlan:
    def test_inactive_by_default(self):
        assert active_plan() is None
        checkpoint("anything")  # no-op without an active plan

    def test_stage_fault_fires_only_inside_block(self):
        plan = ChaosPlan().fail_stage("s1")
        with plan.active():
            with pytest.raises(ChaosError):
                checkpoint("s1")
            checkpoint("other")  # unscheduled stages pass through
        checkpoint("s1")  # deactivated again
        assert plan.triggered == [("stage", "s1")]

    def test_custom_exception(self):
        plan = ChaosPlan().fail_stage("s1", ValueError("boom"))
        with plan.active(), pytest.raises(ValueError):
            checkpoint("s1")

    def test_derivation_ordinals_are_one_based(self):
        with pytest.raises(ValueError):
            ChaosPlan().fail_derivation(0)


class TestEngineChaos:
    def test_nth_derivation_fault_seminaive(self, program):
        plan = ChaosPlan().fail_derivation(5)
        with plan.active(), pytest.raises(ChaosError):
            evaluate(program, par_db())
        assert plan.triggered == [("derivation", 5)]

    def test_nth_derivation_fault_naive(self, program):
        plan = ChaosPlan().fail_derivation(3)
        with plan.active(), pytest.raises(ChaosError):
            evaluate(program, par_db(), method="naive")

    def test_nth_derivation_fault_topdown(self):
        from repro import topdown_query
        reach = parse_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- reach(X, Z), edge(Z, Y).
        """)
        db = Database()
        db.ensure("edge", 2)
        for i in range(10):
            db.add_fact("edge", f"n{i}", f"n{i + 1}")
        plan = ChaosPlan().fail_derivation(4)
        with plan.active(), pytest.raises(ChaosError):
            topdown_query(reach, db, parse_atom('reach("n0", Y)'))

    def test_stall_plus_deadline_terminates(self, program):
        """A stalled derivation trips the deadline at the next check."""
        plan = ChaosPlan().fail_derivation(3, stall_s=0.05)
        budget = Budget(timeout_s=0.01)
        with plan.active(), pytest.raises(BudgetExceededError) as info:
            evaluate(program, par_db(), budget=budget)
        assert info.value.resource == "deadline"


class TestOptimizeSafeDegradation:
    def test_no_faults_on_any_paper_example(self):
        for make in ALL_EXAMPLES:
            example = make()
            report = SemanticOptimizer(example.program, list(example.ics),
                                       pred=example.pred).optimize()
            assert report.failures == [] and not report.degraded, \
                example.name

    def test_residue_stage_fault_degrades_per_ic(self, program, ics):
        plan = ChaosPlan().fail_stage("residues")
        with plan.active():
            report = SemanticOptimizer(program, ics).optimize()
        # The stage failure is recorded, but the per-IC retry recovers
        # every residue, so the optimization still lands.
        assert [f.stage for f in report.failures] == ["residues"]
        assert report.changed
        plain = SemanticOptimizer(program, ics).optimize()
        assert plain.failures == []
        assert str(report.optimized) == str(plain.optimized)

    def test_single_bad_ic_dropped_others_survive(self, program, ics):
        plan = ChaosPlan().fail_stage("residues")
        plan.fail_stage("residues:ic1", RuntimeError("ic1 is cursed"))
        with plan.active():
            report = SemanticOptimizer(program, ics).optimize()
        assert report.optimized is program  # only IC was dropped
        dropped = [f for f in report.failures
                   if f.stage == "residues:ic1"]
        assert dropped and dropped[0].dropped == ("ic1",)
        assert dropped[0].error_type == "RuntimeError"

    def test_periodic_stage_fault_falls_through_to_phase2(
            self, program, ics):
        plan = ChaosPlan().fail_stage("periodic:anc/r1")
        with plan.active():
            report = SemanticOptimizer(program, ics).optimize()
        assert any(f.stage == "periodic:anc/r1" for f in report.failures)
        # Phase 2 still pushes the residues the periodic path dropped.
        assert report.changed

    def test_push_stage_fault_drops_group_only(self, program, ics):
        plan = ChaosPlan().fail_stage("periodic:anc/r1")
        plan.fail_stage("push:anc/r1 r1 r1", RuntimeError("push died"))
        with plan.active():
            report = SemanticOptimizer(program, ics).optimize()
        assert any(f.stage == "push:anc/r1 r1 r1"
                   for f in report.failures)
        # Everything failed, so the sound fallback is the original.
        for step in report.steps:
            assert not step.outcome.applied \
                or step.outcome.program is not None

    def test_every_stage_failing_returns_original(self, program, ics):
        plan = ChaosPlan()
        for stage in ("residues", "residues:ic1", "periodic:anc/r1",
                      "push:anc/r1 r1 r1", "push:anc/r1 r1 r0",
                      "collapse"):
            plan.fail_stage(stage)
        with plan.active():
            report = SemanticOptimizer(program, ics).optimize()
        assert report.optimized is program
        assert report.degraded and not report.changed
        # The degraded program still evaluates correctly.
        result = evaluate(report.optimized, par_db())
        assert result.count("anc") > 0

    def test_budget_expiry_degrades_instead_of_raising(self, program,
                                                       ics):
        budget = Budget(timeout_s=0.0)
        report = SemanticOptimizer(program, ics).optimize(
            budget=budget)
        assert report.degraded
        assert any(f.error_type == "BudgetExceededError"
                   for f in report.failures)
        # Sound output even under a zero budget.
        assert evaluate(report.optimized, par_db()).count("anc") > 0

    def test_cancellation_degrades_gracefully(self, program, ics):
        budget = Budget()
        budget.cancel()
        report = SemanticOptimizer(program, ics).optimize(
            budget=budget)
        assert report.optimized is program
        assert any(f.error_type == "EvaluationCancelledError"
                   for f in report.failures)

    def test_summary_mentions_degradation(self, program, ics):
        plan = ChaosPlan().fail_stage("residues")
        plan.fail_stage("residues:ic1")
        with plan.active():
            report = SemanticOptimizer(program, ics).optimize()
        text = report.summary()
        assert "degraded" in text and "residues:ic1" in text


class TestSampledVerification:
    def test_passes_on_sound_optimization(self, program, ics):
        report = SemanticOptimizer(program, ics).optimize(
            verify="sample")
        assert report.verification == "passed"
        assert not report.quarantined

    def test_skipped_when_nothing_applied(self, program):
        report = SemanticOptimizer(program, []).optimize(
            verify="sample")
        assert report.verification == "skipped"

    def test_rejects_unknown_mode(self, program, ics):
        with pytest.raises(ValueError):
            SemanticOptimizer(program, ics).optimize(verify="full")

    def test_quarantines_unsound_stage_output(self, program, ics):
        """A buggy stage whose output drops answers must be caught by
        the spot-check and quarantined back to the source program."""

        class BuggyOptimizer(SemanticOptimizer):
            def _collapse_stage(self, current, preserved):
                collapsed = super()._collapse_stage(current, preserved)
                # Simulate a miscompiled stage: silently lose the rule
                # publishing depth-1 answers into anc.
                from repro.datalog.program import Program
                return Program(
                    [r for r in collapsed if r.label != "anc_from_d0"],
                    edb_hint=tuple(collapsed.edb_predicates))

        report = BuggyOptimizer(program, ics).optimize(
            verify="sample")
        assert report.verification == "mismatch"
        assert report.quarantined
        assert report.optimized is program
        assert "suspect steps" in report.verification_detail
        assert not report.changed

    def test_verification_error_keeps_optimization(self, program, ics):
        plan = ChaosPlan().fail_stage("verify")
        with plan.active():
            report = SemanticOptimizer(program, ics).optimize(
                verify="sample")
        assert report.verification == "error"
        assert not report.quarantined
        assert report.changed  # guard-validated edits are kept


class TestNumericColumnInference:
    def test_infers_from_ics_and_rules(self, program, ics):
        columns = infer_numeric_columns(program, ics)
        # ic1 compares Ya <= 50; Ya sits in columns 3 (and via the chain
        # variables Za/Z2a, columns 1) of par.
        assert 3 in columns["par"]

    def test_no_comparisons_no_columns(self):
        reach = parse_program("""
            reach(X, Y) :- edge(X, Y).
            reach(X, Y) :- reach(X, Z), edge(Z, Y).
        """)
        assert infer_numeric_columns(reach, []) == {}
