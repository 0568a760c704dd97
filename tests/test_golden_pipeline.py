"""Golden tests: the exact optimized programs for every paper example.

These snapshots pin the end-to-end behaviour of the pipeline — residue
detection, action choice, compilation — so that refactors cannot
silently change what the optimizer emits.  If a change is intentional,
update the expected text and explain why in the commit.
"""

import pytest

from repro.core import SemanticOptimizer
from repro.datalog import format_program


def _optimize(example, **kwargs):
    report = SemanticOptimizer(example.program, list(example.ics),
                               pred=example.pred, **kwargs).optimize()
    assert report.failures == []
    return report


class TestGoldenPrograms:
    def test_example_3_2_default(self, ex32):
        report = SemanticOptimizer(
            ex32.program, [ex32.ic("ic1")], pred="eval").optimize()
        assert report.failures == []
        expected = """\
r2: eval_support(P, S, T, M) :- eval(P, S, T), pays(M, G, S, T).

r0_d0: eval__d0(P, S, T) :- super(P, S, T).

r1_d0_step: eval__deep(P, S, T) :- works_with(P, P0), eval__d0(P0, S, T), expert(P, F), field(T, F).
r1_deep_step: eval__deep(P, S, T) :- works_with(P, P0), eval__deep(P0, S, T), field(T, F).

eval_from_d0: eval(P, S, T) :- eval__d0(P, S, T).
eval_from_deep: eval(P, S, T) :- eval__deep(P, S, T)."""
        assert format_program(report.optimized,
                              group_by_head=True) == expected

    def test_example_4_3_default(self, ex43):
        report = _optimize(ex43)
        expected = """\
r0_d0: anc__d0(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).

r1_d0_step: anc__d1(X, Xa, Y, Ya) :- anc__d0(X, Xa, Z, Za), par(Z, Za, Y, Ya).

r1_d1_step: anc__deep(X, Xa, Y, Ya) :- anc__d1(X, Xa, Z, Za), par(Z, Za, Y, Ya).
r1_deep_step_c0_n: anc__deep(X, Xa, Y, Ya) :- anc__deep(X, Xa, Z, Za), par(Z, Za, Y, Ya), Ya > 50.

anc_from_d0: anc(X, Xa, Y, Ya) :- anc__d0(X, Xa, Y, Ya).
anc_from_d1: anc(X, Xa, Y, Ya) :- anc__d1(X, Xa, Y, Ya).
anc_from_deep: anc(X, Xa, Y, Ya) :- anc__deep(X, Xa, Y, Ya)."""
        assert format_program(report.optimized,
                              group_by_head=True) == expected

    def test_example_4_1_threaded(self, ex41):
        report = _optimize(ex41, compilation="automaton")
        text = format_program(report.optimized, group_by_head=True)
        lines = text.splitlines()
        # The executive-guarded chain drops exactly the level-0
        # experienced atom (3 remain of the pattern's 4); the
        # not-executive chain keeps all 4.
        executive = [l for l in lines if "= executive" in l
                     and "!=" not in l]
        not_executive = [l for l in lines if "!= executive" in l]
        assert len(executive) == 1 and len(not_executive) == 1
        assert executive[0].count("experienced") == 3
        assert not_executive[0].count("experienced") == 4

    def test_example_3_2_automaton_collapsed(self, ex32):
        report = SemanticOptimizer(
            ex32.program, [ex32.ic("ic1")], pred="eval",
            compilation="automaton").optimize()
        assert report.failures == []
        expected = """\
r2: eval_support(P, S, T, M) :- eval(P, S, T), pays(M, G, S, T).

eval__alpha1_e+eval__alpha2: eval(P, S, T) :- works_with(P, P0), works_with(P0, P0_3_3), eval(P0_3_3, S, T), expert(P0, F_1_1), field(T, F_1_1), field(T, F).
eval__beta1+eval__gamma2_r0: eval(P, S, T) :- works_with(P, P0), super(P0, S, T), expert(P, F), field(T, F).
r0: eval(P, S, T) :- super(P, S, T)."""
        assert format_program(report.optimized,
                              group_by_head=True) == expected


class TestGoldenReports:
    def test_example_4_3_report_lines(self, ex43):
        summary = _optimize(ex43).summary()
        assert summary.splitlines()[0] == (
            "1/2 residue pushes applied (0 stage(s) degraded, "
            "verification: skipped)")
        assert "[prune] ic=ic1 seq=r1 r1 r1 residue='Ya <= 50 ->' " \
               "-> applied" in summary

    def test_example_3_2_both_ics_report(self, ex32):
        report = SemanticOptimizer(
            ex32.program, list(ex32.ics), pred="eval",
            small_relations={"doctoral"}).optimize()
        assert report.failures == []
        lines = report.summary().splitlines()
        assert lines[0] == ("2/2 residue pushes applied (0 stage(s) "
                            "degraded, verification: skipped)")
        assert any("[eliminate] ic=ic1 seq=r1 r1" in line
                   for line in lines)
        assert any("[introduce] ic=ic2 seq=r2" in line for line in lines)

    def test_example_4_1_report(self, ex41):
        summary = _optimize(ex41).summary()
        assert "[eliminate] ic=ic1 seq=r2 r2 r2 r2" in summary
        assert "applied" in summary
