"""Unit tests for repro.datalog.atoms."""

import pytest

from repro.datalog.atoms import (Atom, Comparison, Negation, atom,
                                 comparison, constants_of, is_database,
                                 literal_variables)
from repro.datalog.terms import ArithExpr, Constant, Variable


class TestAtom:
    def test_str(self):
        assert str(atom("par", "X", "alice")) == "par(X, alice)"

    def test_zero_arity(self):
        assert str(Atom("halt", ())) == "halt"

    def test_variables_with_repeats(self):
        a = atom("t", "X", "Y", "X")
        assert list(a.variables()) == [Variable("X"), Variable("Y"),
                                       Variable("X")]
        assert a.variable_set() == {Variable("X"), Variable("Y")}

    def test_arity(self):
        assert atom("p", "X", "Y").arity == 2


class TestComparison:
    def test_str(self):
        assert str(comparison("X", ">", 100)) == "X > 100"

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            comparison("X", "~", 1)

    @pytest.mark.parametrize("op,complement", [
        ("=", "!="), ("!=", "="), ("<", ">="), (">=", "<"),
        (">", "<="), ("<=", ">"),
    ])
    def test_complement(self, op, complement):
        c = comparison("X", op, "Y")
        assert c.complement().op == complement
        assert c.complement().complement() == c

    @pytest.mark.parametrize("op,converse", [
        ("=", "="), ("!=", "!="), ("<", ">"), (">", "<"),
        ("<=", ">="), (">=", "<="),
    ])
    def test_converse_swaps_operands(self, op, converse):
        c = comparison("X", op, "Y")
        swapped = c.converse()
        assert swapped.op == converse
        assert swapped.lhs == c.rhs and swapped.rhs == c.lhs

    def test_variables_include_arithmetic(self):
        c = Comparison(">", ArithExpr("+", Variable("A"), Constant(1)),
                       Variable("B"))
        assert c.variable_set() == {Variable("A"), Variable("B")}


class TestNegation:
    def test_str(self):
        assert str(Negation(atom("p", "X"))) == "not p(X)"

    def test_variables(self):
        assert Negation(atom("p", "X", "Y")).variable_set() == \
            {Variable("X"), Variable("Y")}


class TestHelpers:
    def test_is_database(self):
        assert is_database(atom("p", "X"))
        assert not is_database(comparison("X", "=", 1))

    def test_literal_variables(self):
        lits = (atom("p", "X", "Y"), comparison("Y", "<", "Z"))
        assert literal_variables(lits) == {Variable("X"), Variable("Y"),
                                           Variable("Z")}

    def test_constants_of_atom(self):
        assert constants_of(atom("p", "X", "alice", 3)) == \
            {Constant("alice"), Constant(3)}

    def test_constants_of_comparison_with_arith(self):
        c = Comparison("<", ArithExpr("+", Variable("X"), Constant(5)),
                       Constant(10))
        assert constants_of(c) == {Constant(5), Constant(10)}

    def test_constants_of_negation(self):
        assert constants_of(Negation(atom("p", "a"))) == {Constant("a")}
