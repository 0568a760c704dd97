"""Unit tests for repro.datalog.rules."""

import pickle

import pytest

from repro.datalog.atoms import Negation, atom, comparison
from repro.datalog.rules import Rule, is_connected, rule
from repro.datalog.terms import Variable
from repro.datalog.unify import Substitution


@pytest.fixture
def anc_rule():
    return rule(atom("anc", "X", "Y"),
                atom("anc", "X", "Z"), atom("par", "Z", "Y"),
                label="r1")


class TestRuleBasics:
    def test_str(self, anc_rule):
        assert str(anc_rule) == "anc(X, Y) :- anc(X, Z), par(Z, Y)."

    def test_fact_str(self):
        assert str(rule(atom("p", "a"))) == "p(a)."

    def test_is_fact(self, anc_rule):
        assert rule(atom("p", "a")).is_fact
        assert not anc_rule.is_fact

    def test_hash_is_kept_and_equality_ignores_labels(self, anc_rule):
        twin = rule(atom("anc", "X", "Y"),
                    atom("anc", "X", "Z"), atom("par", "Z", "Y"),
                    label="other")
        assert hash(anc_rule) == hash(anc_rule) \
            == hash((anc_rule.head, anc_rule.body)) == hash(twin)
        assert anc_rule == twin and {anc_rule: 1}[twin] == 1
        assert anc_rule != anc_rule.with_head(atom("anc", "Y", "X"))

    def test_a_pickled_rule_drops_its_kept_hash(self, anc_rule):
        hash(anc_rule)
        copied = pickle.loads(pickle.dumps(anc_rule))
        assert "_hash" not in copied.__dict__
        assert copied == anc_rule and copied.label == "r1"
        assert hash(copied) == hash(anc_rule)

    def test_constructor_validates_head(self):
        with pytest.raises(TypeError):
            rule(comparison("X", "=", 1))

    def test_constructor_validates_body(self):
        with pytest.raises(TypeError):
            rule(atom("p", "X"), "not a literal")


class TestRuleInspection:
    def test_partitions_body(self):
        r = rule(atom("h", "X"), atom("a", "X"), comparison("X", ">", 1),
                 Negation(atom("b", "X")))
        assert [a.pred for a in r.database_atoms()] == ["a"]
        assert len(r.evaluable_atoms()) == 1
        assert len(r.negated_atoms()) == 1

    def test_body_predicates_include_negated(self):
        r = rule(atom("h", "X"), atom("a", "X"), Negation(atom("b", "X")))
        assert r.body_predicates() == {"a", "b"}

    def test_variable_partitions(self, anc_rule):
        assert anc_rule.head_variables() == {Variable("X"), Variable("Y")}
        assert anc_rule.local_variables() == {Variable("Z")}

    def test_occurrences_of(self, anc_rule):
        occurrences = list(anc_rule.occurrences_of("anc"))
        assert occurrences == [(0, atom("anc", "X", "Z"))]
        assert anc_rule.count_occurrences("par") == 1
        assert anc_rule.count_occurrences("missing") == 0


class TestRuleTransforms:
    def test_apply_substitution_keeps_label(self, anc_rule):
        subst = Substitution({Variable("X"): Variable("W")})
        applied = anc_rule.apply(subst)
        assert applied.label == "r1"
        assert applied.head == atom("anc", "W", "Y")

    def test_with_body_and_head(self, anc_rule):
        new = anc_rule.with_head(atom("anc2", "X", "Y"))
        assert new.head.pred == "anc2"
        assert new.body == anc_rule.body

    def test_add_literals(self, anc_rule):
        extended = anc_rule.add_literals(comparison("X", "!=", "Y"))
        assert len(extended.body) == 3

    def test_remove_body_index(self, anc_rule):
        shorter = anc_rule.remove_body_index(1)
        assert [lit.pred for lit in shorter.database_atoms()] == ["anc"]

    def test_remove_body_index_bounds(self, anc_rule):
        with pytest.raises(IndexError):
            anc_rule.remove_body_index(5)


class TestConnectivity:
    def test_empty_and_singleton_connected(self):
        assert is_connected(())
        assert is_connected((atom("p", "X"),))

    def test_shared_variable_connects(self):
        assert is_connected((atom("a", "X", "Y"), atom("b", "Y", "Z")))

    def test_disjoint_not_connected(self):
        assert not is_connected((atom("a", "X"), atom("b", "Y")))

    def test_transitively_connected(self):
        lits = (atom("a", "X", "Y"), atom("b", "Z", "W"),
                atom("c", "Y", "Z"))
        assert is_connected(lits)

    def test_comparison_can_bridge(self):
        lits = (atom("a", "X"), comparison("X", "<", "Y"), atom("b", "Y"))
        assert is_connected(lits)

    def test_ground_literal_disconnects(self):
        assert not is_connected((atom("a", "X"), atom("b", "c")))
