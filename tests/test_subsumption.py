"""Unit tests for classical and free subsumption (paper Section 2).

The key fixtures are the paper's own Examples 2.1 and 3.2, whose
residues are stated explicitly in the text.
"""

import pytest

from repro.constraints import (expand, extend_to_useful,
                               free_subsumptions, ic_from_text,
                               maximal_free_subsumptions,
                               partial_subsumptions, rule_residues,
                               subsumptions)
from repro.constraints.subsumption import match_literal, rename_ic_apart
from repro.datalog import parse_rule
from repro.datalog.atoms import atom, comparison
from repro.datalog.unify import EMPTY_SUBSTITUTION
from repro.core.sequences import unfold


class TestClauseSubsumption:
    def test_subset_subsumes(self):
        pattern = (atom("a", "X", "Y"),)
        target = (atom("a", "u", "v"), atom("b", "v"))
        assert next(subsumptions(pattern, target), None) is not None

    def test_shared_variables_respected(self):
        pattern = (atom("a", "X", "Y"), atom("b", "Y", "Z"))
        good = (atom("a", "u", "v"), atom("b", "v", "w"))
        bad = (atom("a", "u", "v"), atom("b", "x", "w"))
        assert next(subsumptions(pattern, good), None) is not None
        assert next(subsumptions(pattern, bad), None) is None

    def test_two_pattern_atoms_may_share_a_target(self):
        pattern = (atom("a", "X", "Y"), atom("a", "Y", "X"))
        target = (atom("a", "u", "u"),)
        assert next(subsumptions(pattern, target), None) is not None

    def test_enumerates_all(self):
        pattern = (atom("a", "X"),)
        target = (atom("a", "u"), atom("a", "v"))
        assert len(list(subsumptions(pattern, target))) == 2


class TestMatchLiteral:
    def test_comparison_same_op(self):
        results = list(match_literal(comparison("X", "<", "Y"),
                                     comparison("A", "<", "B"),
                                     EMPTY_SUBSTITUTION))
        assert len(results) == 1

    def test_comparison_converse(self):
        results = list(match_literal(comparison("X", "<", "Y"),
                                     comparison("B", ">", "A"),
                                     EMPTY_SUBSTITUTION))
        assert len(results) == 1

    def test_comparison_mismatch(self):
        assert not list(match_literal(comparison("X", "<", "Y"),
                                      comparison("A", "<=", "B"),
                                      EMPTY_SUBSTITUTION))

    def test_atom_vs_comparison(self):
        assert not list(match_literal(atom("p", "X"),
                                      comparison("X", "=", 1),
                                      EMPTY_SUBSTITUTION))


class TestRenameApart:
    def test_colliding_variables_renamed(self):
        ic = ic_from_text("a(X, Y) -> b(Y).")
        clause = (atom("c", "X"),)
        renamed = rename_ic_apart(ic, clause)
        assert "X" not in {v.name for v in renamed.variables()}

    def test_no_collision_no_change(self):
        ic = ic_from_text("a(P, Q) -> b(Q).")
        clause = (atom("c", "X"),)
        assert rename_ic_apart(ic, clause) == ic


class TestPartialSubsumptionExample21(object):
    """Example 2.1: the classical residue via the expanded form."""

    def test_residue(self, ex21):
        r0 = ex21.program.rule("r0")
        ic = ex21.ic("ic")
        residues = rule_residues(ic, r0.body)
        # The paper: X2' = X2, X3' = X3 -> d(X5, X6) (modulo names).
        full = [r for r in residues if len(r.body) == 2
                and r.head is not None and r.head.pred == "d"]
        assert full, [str(r) for r in residues]
        residue = full[0]
        assert all(lit.op == "=" for lit in residue.body)
        # Equality-bodied: evaluable-only, hence "free" in Def 4.1 terms.
        assert residue.is_free and residue.is_conditional

    def test_no_subsumption_no_residue(self):
        ic = ic_from_text("zzz(X) -> w(X).")
        rule = parse_rule("p(X) :- a(X).")
        assert rule_residues(ic, rule.body) == []


class TestFreeSubsumptionExample21:
    """Example 2.1's two free residues, verbatim."""

    def test_both_partial_free_residues(self, ex21):
        r0 = ex21.program.rule("r0")
        ic = ex21.ic("ic")
        residues = {str(fs.residue)
                    for fs in free_subsumptions(ic, r0.body)}
        # b matched: residue a(...), c(...) -> d(...)
        assert any("a(" in r and "c(" in r for r in residues)
        # a and c matched: residue b(...) -> d(...)
        assert any(r.startswith("b(") for r in residues)

    def test_partial_free_residues_verbatim(self, ex21):
        """The partial search's output, pinned: matched atoms, theta and
        residue of each maximal partial matching, in order."""
        r0 = ex21.program.rule("r0")
        items = [(sorted(fs.matched), fs.complete, str(fs.subst),
                  str(fs.residue))
                 for fs in free_subsumptions(ex21.ic("ic"), r0.body)]
        assert items == [
            ([1], False, "{V2/Y2, V4/X3}",
             "a(V1, Y2, V3), c(X3, V5, V6) -> d(V6, V7)"),
            ([0, 2], False, "{V1/X1, V2/X2, V3/X4, V4/Y3, V5/Y4, V6/X5}",
             "b(X2, Y3) -> d(X5, V7)"),
        ]

    def test_no_maximal_on_single_r0(self, ex21):
        r0 = ex21.program.rule("r0")
        assert next(maximal_free_subsumptions(ex21.ic("ic"), r0.body),
                    None) is None

    def test_maximal_on_unfolded_r0r0r0(self, ex21):
        clause = unfold(ex21.program, "p", ("r0", "r0", "r0"))
        items = list(maximal_free_subsumptions(ex21.ic("ic"),
                                               clause.literals()))
        assert items
        residue = items[0].residue
        assert residue.body == ()  # unconditional
        assert residue.head is not None and residue.head.pred == "d"


class TestUsefulness:
    def test_trivially_useful_null_residue(self, ex43):
        clause = unfold(ex43.program, "anc", ("r1", "r1", "r1"))
        items = list(maximal_free_subsumptions(ex43.ic("ic1"),
                                               clause.literals()))
        assert items
        extended = extend_to_useful(items[0].residue, clause.literals())
        assert extended is not None  # null residues are trivially useful

    def test_strict_extension_needs_the_fourth_instance(self, ex21):
        """The head only lands strictly on ``r0^4`` (the paper's own
        Example 3.1 display indeed shows four rule instances)."""
        ic = ex21.ic("ic")
        short = unfold(ex21.program, "p", ("r0", "r0", "r0"))
        short_items = list(maximal_free_subsumptions(
            ic, short.literals()))
        assert all(extend_to_useful(item.residue, short.literals(),
                                    strict=True) is None
                   for item in short_items)

        long = unfold(ex21.program, "p", ("r0", "r0", "r0", "r0"))
        long_items = list(maximal_free_subsumptions(ic, long.literals()))
        stricts = [extend_to_useful(item.residue, long.literals(),
                                    strict=True) for item in long_items]
        landed = [s for s in stricts if s is not None]
        assert landed
        # The extension maps V7 to the level-0 output variable X6.
        assert str(landed[0].head) == "d(Y5, X6)"
        assert any(item.literal == landed[0].head for item in long.body)

    def test_loose_extension_example_3_2(self, ex32):
        clause = unfold(ex32.program, "eval", ("r1", "r1"))
        items = list(maximal_free_subsumptions(ex32.ic("ic1"),
                                               clause.literals()))
        residue = items[0].residue
        assert extend_to_useful(residue, clause.literals(),
                                strict=True) is None
        loose = extend_to_useful(residue, clause.literals(), strict=False)
        assert loose is not None
        assert str(loose.head) == "expert(P, F)"  # the paper's reading

    def test_is_useful_wrapper(self, ex32):
        clause = unfold(ex32.program, "eval", ("r1", "r1"))
        items = list(maximal_free_subsumptions(ex32.ic("ic1"),
                                               clause.literals()))
        assert extend_to_useful(items[0].residue, clause.literals(),
                                strict=True) is None
        assert extend_to_useful(items[0].residue, clause.literals(),
                                strict=False) is not None


class TestResidueClassification:
    def test_kinds(self, ex41, ex43):
        conditional_fact = rule_residues(
            ex41.ic("ic1"), ex41.program.rule("r2").body)[0]
        assert conditional_fact.kind == "conditional fact"
        clause = unfold(ex43.program, "anc", ("r1", "r1", "r1"))
        null = list(maximal_free_subsumptions(
            ex43.ic("ic1"), clause.literals()))[0].residue
        assert null.kind == "conditional null"
        assert null.is_null and not null.is_fact

    def test_simplified_drops_trivial_equalities(self):
        from repro.constraints import Residue
        from repro.datalog.unify import Substitution
        residue = Residue((comparison("X", "=", "X"),
                           comparison("X", ">", 1),
                           comparison("X", ">", 1)),
                          atom("p", "X"), Substitution())
        simplified = residue.simplified()
        assert simplified.body == (comparison("X", ">", 1),)

    def test_tautology(self):
        from repro.constraints import Residue
        from repro.datalog.unify import Substitution
        residue = Residue((atom("p", "X"),), atom("p", "X"),
                          Substitution())
        assert residue.is_tautology


COMPLETE_CASES = [
    ("ex21", "p", "ic", ("r0", "r0", "r0")),
    ("ex21", "p", "ic", ("r0", "r0", "r0", "r0")),
    ("ex32", "eval", "ic1", ("r1", "r1")),
    ("ex32", "eval", "ic1", ("r1", "r1", "r0")),
    ("ex41", "triple", "ic1", ("r2", "r2", "r2", "r2")),
    ("ex43", "anc", "ic1", ("r1", "r1", "r1")),
    ("ex43", "anc", "ic1", ("r1", "r1", "r0")),
]


class TestCompleteMatchingsOnly:
    """Maximal free subsumption searches complete matchings directly."""

    @pytest.mark.parametrize("fixture,pred,label,sequence", COMPLETE_CASES)
    def test_equals_the_complete_partial_matchings(self, request, fixture,
                                                   pred, label, sequence):
        """Same items, same order, as the complete matchings that the
        partial search finds."""
        example = request.getfixturevalue(fixture)
        ic = example.ic(label)
        literals = unfold(example.program, pred, sequence).literals()
        complete = [fs for fs in free_subsumptions(ic, literals)
                    if fs.complete]
        assert list(maximal_free_subsumptions(ic, literals)) == complete
