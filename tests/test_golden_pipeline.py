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
        """Algorithm 4.1's isolated program: the rank test sits on the
        level-3 alpha-rule, and its ``= executive`` verdict climbs the
        duplicated ``_e`` chain to the level-0 rule, which alone drops
        its ``experienced`` atom."""
        report = _optimize(ex41, compilation="automaton")
        expected = """\
triple__alpha1: triple(E1, E2, E3) :- boss(U, E3, R), experienced(U), triple__p1(U, E1, E2).
triple__alpha1_e: triple(E1, E2, E3) :- boss(U, E3, R), triple__p1_e(U, E1, E2).
triple__beta1: triple(E1, E2, E3) :- boss(U, E3, R), experienced(U), triple__q1(U, E1, E2).
r1: triple(E1, E2, E3) :- same_level(E1, E2, E3).

triple__alpha2: triple__p1(U, E1, E2) :- boss(U_5, E2, R_4), experienced(U_5), triple__p2(U_5, U, E1).
triple__beta2: triple__p1(U, E1, E2) :- boss(U_5, E2, R_4), experienced(U_5), triple__q2(U_5, U, E1).

triple__alpha2_e: triple__p1_e(U, E1, E2) :- boss(U_5, E2, R_4), experienced(U_5), triple__p2_e(U_5, U, E1).

triple__alpha3: triple__p2(U_5, U, E1) :- boss(U_10, E1, R_9), experienced(U_10), triple__p3(U_10, U_5, U).
triple__beta3: triple__p2(U_5, U, E1) :- boss(U_10, E1, R_9), experienced(U_10), triple__q3(U_10, U_5, U).

triple__alpha3_e: triple__p2_e(U_5, U, E1) :- boss(U_10, E1, R_9), experienced(U_10), triple__p3_e(U_10, U_5, U).

triple__alpha4_e: triple__p3_e(U_10, U_5, U) :- boss(U_15, U, R_14), experienced(U_15), triple(U_15, U_10, U_5), R_14 = executive.

triple__alpha4_n: triple__p3(U_10, U_5, U) :- boss(U_15, U, R_14), experienced(U_15), triple(U_15, U_10, U_5), R_14 != executive.

triple__gamma2_r1: triple__q1(U, E1, E2) :- same_level(U, E1, E2).

triple__gamma3_r1: triple__q2(U_5, U, E1) :- same_level(U_5, U, E1).

triple__gamma4_r1: triple__q3(U_10, U_5, U) :- same_level(U_10, U_5, U)."""
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
