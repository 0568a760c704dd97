"""Tests for the chase-based containment checker (the soundness guard)."""

import pytest

from repro.constraints import ic_from_text, ics_from_text
from repro.core.containment import (ChaseInstance, chase, contained_under,
                                    elimination_is_sound, entails, freeze,
                                    introduction_is_sound,
                                    pruning_is_sound)
from repro.core.sequences import unfold
from repro.datalog.atoms import atom, comparison
from repro.datalog.parser import parse_literal
from repro.datalog.terms import FreshVariableSupply


class TestEntails:
    def test_syntactic(self):
        assert entails([parse_literal("X > 5")], parse_literal("X > 5"))

    def test_converse_orientation(self):
        assert entails([parse_literal("X > 5")], parse_literal("5 < X"))

    def test_ground(self):
        assert entails([], parse_literal("3 < 5"))
        assert not entails([], parse_literal("5 < 3"))

    def test_equality_rewriting(self):
        assumptions = [comparison("X", "=", "executive"),
                       parse_literal("Y > 3")]
        assert entails(assumptions, comparison("X", "=", "executive"))

    def test_equality_chains_to_ground(self):
        assumptions = [comparison("X", "=", 7)]
        assert entails(assumptions, parse_literal("X > 5"))
        assert not entails(assumptions, parse_literal("X > 9"))

    def test_reflexive_equality(self):
        assert entails([], comparison("X", "=", "X"))

    def test_incomplete_but_sound(self):
        # X > 5 entails X > 4 semantically, but the checker is
        # deliberately syntactic: it must never claim entailment wrongly.
        assert not entails([parse_literal("X > 5")],
                           parse_literal("X > 4"))


class TestChase:
    def test_fires_fact_ic(self):
        ic = ic_from_text("boss(E, B) -> experienced(B).")
        instance, supply = freeze((atom("boss", "X", "Y"),))
        chase(instance, [ic], supply)
        assert atom("experienced", "Y") in instance.atoms

    def test_respects_evaluable_premise(self):
        ic = ic_from_text("boss(E, B, R), R = executive -> exp(B).")
        instance, supply = freeze((atom("boss", "X", "Y", "R"),))
        chase(instance, [ic], supply)
        assert not any(a.pred == "exp" for a in instance.atoms)
        # With the premise assumed, the IC fires.
        instance2, supply2 = freeze(
            (atom("boss", "X", "Y", "R"),),
            [comparison("R", "=", "executive")])
        chase(instance2, [ic], supply2)
        assert any(a.pred == "exp" for a in instance2.atoms)

    def test_existential_head_invents_null(self):
        ic = ic_from_text("emp(E) -> boss(E, B).")
        instance, supply = freeze((atom("emp", "X"),))
        chase(instance, [ic], supply)
        bosses = [a for a in instance.atoms if a.pred == "boss"]
        assert len(bosses) == 1
        assert bosses[0].args[0].name == "X"

    def test_restricted_step_does_not_refire(self):
        ic = ic_from_text("emp(E) -> boss(E, B).")
        instance, supply = freeze((atom("emp", "X"),
                                   atom("boss", "X", "Y")))
        chase(instance, [ic], supply)
        assert len([a for a in instance.atoms if a.pred == "boss"]) == 1

    def test_denial_marks_inconsistent(self):
        ic = ic_from_text("p(X), X > 5 -> .")
        instance, supply = freeze((atom("p", "X"),),
                                  [parse_literal("X > 5")])
        chase(instance, [ic], supply)
        assert instance.inconsistent

    def test_transitive_closure_ic_terminates(self):
        ic = ic_from_text("ww(A, B), ww(B, C) -> ww(A, C).")
        instance, supply = freeze(
            (atom("ww", "X", "Y"), atom("ww", "Y", "Z"),
             atom("ww", "Z", "W")))
        chase(instance, [ic], supply)
        assert atom("ww", "X", "W") in instance.atoms

    @pytest.mark.parametrize("rounds", [3, 25])
    def test_non_terminating_ics_stop_at_the_round_bound(self, rounds,
                                                         monkeypatch):
        """Each round invents one fresh successor: only the bound ends
        the chase, with one atom per round."""
        monkeypatch.setattr("repro.core.containment.CHASE_ROUNDS", rounds)
        ic = ic_from_text("e(A, B) -> e(B, C).")
        instance, supply = freeze((atom("e", "X", "Y"),))
        chase(instance, [ic], supply)
        assert len(instance.atoms) == 1 + rounds


class TestEliminationGuard:
    def test_example_4_2_elimination_sound(self, ex32):
        clause = unfold(ex32.program, "eval", ("r1", "r1"))
        literals = clause.literals()
        target = literals.index(atom("expert", "P", "F"))
        assert elimination_is_sound(clause.head, literals, target,
                                    [ex32.ic("ic1")])

    def test_inner_expert_not_eliminable(self, ex32):
        clause = unfold(ex32.program, "eval", ("r1", "r1"))
        literals = clause.literals()
        inner = [i for i, lit in enumerate(literals)
                 if getattr(lit, "pred", None) == "expert"][1]
        assert not elimination_is_sound(clause.head, literals, inner,
                                        [ex32.ic("ic1")])

    def test_nothing_eliminable_without_ics(self, ex32):
        clause = unfold(ex32.program, "eval", ("r1", "r1"))
        literals = clause.literals()
        for index, lit in enumerate(literals):
            if getattr(lit, "pred", None) in ("works_with", "expert"):
                assert not elimination_is_sound(clause.head, literals,
                                                index, [])

    def test_duplicate_atom_always_eliminable(self):
        head = atom("p", "X")
        body = (atom("a", "X", "Y"), atom("a", "X", "Y"))
        assert elimination_is_sound(head, body, 0, [])

    def test_conditional_elimination_uses_assumptions(self, ex41):
        clause = unfold(ex41.program, "triple",
                        ("r2", "r2", "r2", "r2"))
        literals = clause.literals()
        target = literals.index(atom("experienced", "U"))
        condition_var = [lit for lit in literals
                         if getattr(lit, "pred", None) == "boss"][-1]
        rank = condition_var.args[2]
        condition = (comparison(rank, "=", "executive"),)
        assert elimination_is_sound(clause.head, literals, target,
                                    [ex41.ic("ic1")],
                                    assumptions=condition)
        assert not elimination_is_sound(clause.head, literals, target,
                                        [ex41.ic("ic1")])

    def test_head_variable_atom_not_eliminable(self, ex21):
        """Example 2.1's d-atom binds the output X6: not eliminable."""
        clause = unfold(ex21.program, "p", ("r0", "r0", "r0", "r0"))
        literals = clause.literals()
        target = literals.index(atom("d", "Y5", "X6"))
        assert not elimination_is_sound(clause.head, literals, target,
                                        [ex21.ic("ic")])


class TestContainedUnder:
    def test_introduction_direction(self, ex32):
        """Adding the ic2-implied doctoral atom preserves answers."""
        r2 = ex32.program.rule("r2")
        literals = r2.body
        larger = literals + (atom("doctoral", "S"),)
        condition = [parse_literal("M > 10000")]
        assert contained_under(r2.head, literals, larger,
                               [ex32.ic("ic2")], assumptions=condition)
        assert not contained_under(r2.head, literals, larger,
                                   [ex32.ic("ic2")])

    def test_inconsistent_smaller_side_is_contained(self):
        ic = ic_from_text("p(X), X > 5 -> .")
        head = atom("q", "X")
        smaller = (atom("p", "X"), parse_literal("X > 5"))
        larger = smaller + (atom("ghost", "X"),)
        assert contained_under(head, smaller, larger, [ic])


class TestIntroductionAndPruningGuards:
    def test_introduction_needs_the_residue_condition(self, ex32):
        r2 = ex32.program.rule("r2")
        doctoral = atom("doctoral", "S")
        condition = [parse_literal("M > 10000")]
        assert introduction_is_sound(r2.head, r2.body, doctoral,
                                     [ex32.ic("ic2")], condition)
        assert not introduction_is_sound(r2.head, r2.body, doctoral,
                                         [ex32.ic("ic2")])

    def test_example_4_3_prunes_only_the_young(self, ex43):
        clause = unfold(ex43.program, "anc", ("r1", "r1", "r1"))
        young = [parse_literal("Ya <= 50")]
        assert pruning_is_sound(clause.literals(), [ex43.ic("ic1")],
                                young)
        assert not pruning_is_sound(clause.literals(), [ex43.ic("ic1")])
        assert not pruning_is_sound(clause.literals(), [], young)
