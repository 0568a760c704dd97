"""Unit tests for repro.datalog.program."""

import pytest

from repro.datalog import parse_program
from repro.datalog.atoms import atom
from repro.datalog.program import Program
from repro.datalog.rules import rule
from repro.engine.stratify import stratify
from repro.errors import ProgramError


class TestConstruction:
    def test_auto_labels(self):
        program = Program([rule(atom("p", "X"), atom("e", "X")),
                           rule(atom("p", "X"), atom("f", "X"))])
        assert [r.label for r in program] == ["r0", "r1"]

    def test_auto_labels_avoid_existing(self):
        program = Program([rule(atom("p", "X"), atom("e", "X"),
                                label="r0"),
                           rule(atom("p", "X"), atom("f", "X"))])
        labels = [r.label for r in program]
        assert labels[0] == "r0" and labels[1] != "r0"

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ProgramError):
            Program([rule(atom("p", "X"), atom("e", "X"), label="r"),
                     rule(atom("q", "X"), atom("e", "X"), label="r")])

    def test_rule_lookup(self, tc_program):
        assert tc_program.rule("r1").head.pred == "reach"
        with pytest.raises(ProgramError):
            tc_program.rule("nope")

    def test_non_rule_rejected(self):
        with pytest.raises(TypeError):
            Program(["p(X) :- q(X)."])


class TestPredicateSplit:
    def test_idb_edb(self, tc_program):
        assert tc_program.idb_predicates == {"reach"}
        assert tc_program.edb_predicates == {"edge"}

    def test_edb_hint_adds_unreferenced(self):
        program = parse_program("p(X) :- e(X).", edb_hint=("extra",))
        assert "extra" in program.edb_predicates

    def test_is_edb(self, tc_program):
        assert tc_program.is_edb("edge")
        assert not tc_program.is_edb("reach")

    def test_rules_for(self, tc_program):
        assert len(tc_program.rules_for("reach")) == 2
        assert tc_program.rules_for("edge") == ()


class TestRecursionInfo:
    def test_linear_recursion(self, tc_program):
        info = tc_program.recursion_info()
        assert info.recursive_predicates == {"reach"}
        assert not info.has_mutual_recursion
        assert info.is_linear("reach")

    def test_nonlinear_detected(self):
        program = parse_program(
            "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), t(Z, Y).")
        info = program.recursion_info()
        assert "t" in info.nonlinear_predicates
        assert not info.is_linear("t")

    def test_mutual_recursion_detected(self):
        program = parse_program("""
            even(X) :- zero(X).
            even(X) :- succ(Y, X), odd(Y).
            odd(X) :- succ(Y, X), even(X).
        """)
        info = program.recursion_info()
        assert info.has_mutual_recursion
        assert frozenset({"even", "odd"}) in info.mutual_groups

    def test_require_linear_passes(self, tc_program):
        tc_program.require_linear("reach")

    def test_require_linear_rejects_nonlinear(self):
        program = parse_program(
            "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), t(Z, Y).")
        with pytest.raises(ProgramError):
            program.require_linear("t")

    def test_non_recursive_predicate_is_fine(self):
        program = parse_program("view(X) :- base(X).")
        program.require_linear("view")
        assert program.recursion_info().recursive_predicates == frozenset()


class TestRuleSets:
    def test_exit_and_recursive_rules(self, tc_program):
        assert [r.label for r in tc_program.exit_rules("reach")] == ["r0"]
        assert [r.label for r in
                tc_program.recursive_rules("reach")] == ["r1"]


class TestTransformHelpers:
    def test_replace_rule(self, tc_program):
        replacement = rule(atom("reach", "X", "Y"),
                           atom("edge2", "X", "Y"), label="r0b")
        replaced = tc_program.replace_rule("r0", replacement)
        assert len(replaced) == 2
        assert replaced.rule("r0b").body[0].pred == "edge2"

    def test_replace_rule_with_nothing_deletes(self, tc_program):
        shrunk = tc_program.replace_rule("r1")
        assert len(shrunk) == 1

    def test_replace_unknown_label(self, tc_program):
        with pytest.raises(ProgramError):
            tc_program.replace_rule("missing")

    def test_add_rules(self, tc_program):
        grown = tc_program.add_rules(
            rule(atom("other", "X"), atom("edge", "X", "X"), label="x"))
        assert len(grown) == 3
        assert len(tc_program) == 2  # original untouched

    def test_with_fact_swaps_and_keeps_the_shape_analyses(self):
        program = parse_program(
            "r0: reach(X, Y) :- seed(X), edge(X, Y).\n"
            "r1: reach(X, Y) :- reach(X, Z), edge(Z, Y).\n"
            "s0: seed(a).")
        strata = stratify(program)
        info, arities = program.recursion_info(), \
            program.predicate_arities()
        old = program.rule("s0")
        new = rule(atom("seed", "b"), label="s0")
        swapped = program.with_fact(old, new)
        assert [str(r) for r in swapped] == [
            str(program.rule("r0")), str(program.rule("r1")), "seed(b)."]
        assert swapped.recursion_info() is info
        assert swapped.predicate_arities() is arities
        assert stratify(swapped) == strata
        assert swapped._strata is program._strata
        assert str(program.rule("s0")) == "seed(a)."  # original untouched

    @pytest.mark.parametrize("new", [
        rule(atom("seed", "b", "c"), label="s0"),
        rule(atom("other", "b"), label="s0"),
        rule(atom("seed", "X"), atom("edge", "X", "X"), label="s0")])
    def test_with_fact_rejects_a_change_of_shape(self, new):
        program = parse_program("r0: p(X) :- seed(X).\ns0: seed(a).")
        with pytest.raises(ProgramError):
            program.with_fact(program.rule("s0"), new)

    def test_with_fact_rejects_a_fact_outside_the_program(self):
        program = parse_program("r0: p(X) :- seed(X).\ns0: seed(a).")
        with pytest.raises(ProgramError):
            program.with_fact(rule(atom("seed", "a"), label="s0"),
                              rule(atom("seed", "b"), label="s0"))


class TestArities:
    def test_consistent(self, tc_program):
        arities = tc_program.predicate_arities()
        assert arities["reach"] == 2 and arities["edge"] == 2

    def test_computed_once_and_read_only(self, tc_program):
        arities = tc_program.predicate_arities()
        assert tc_program.predicate_arities() is arities
        with pytest.raises(TypeError):
            arities["reach"] = 3  # type: ignore[index]

    def test_inconsistent_rejected(self):
        program = parse_program("p(X) :- e(X). q(X) :- e(X, X).")
        with pytest.raises(ProgramError):
            program.predicate_arities()


class TestDependencyGraph:
    def test_edges_point_body_to_head(self, tc_program):
        graph = tc_program.dependency_graph()
        assert graph.has_edge("edge", "reach")
        assert graph.has_edge("reach", "reach")

    def test_negative_flag(self):
        program = parse_program("p(X) :- e(X), not q(X). q(X) :- f(X).")
        graph = program.dependency_graph()
        assert graph["q"]["p"]["negative"] is True
        assert graph["e"]["p"]["negative"] is False
