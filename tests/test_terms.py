"""Unit tests for repro.datalog.terms."""

import pytest

from repro.datalog.terms import (ArithExpr, Constant, FreshVariableSupply,
                                 Variable, is_variable_name, mk_term,
                                 variables_of)


class TestVariable:
    def test_str(self):
        assert str(Variable("X")) == "X"

    def test_equality_and_hash(self):
        assert Variable("X") == Variable("X")
        assert Variable("X") != Variable("Y")
        assert len({Variable("X"), Variable("X"), Variable("Y")}) == 2

    def test_repr(self):
        assert "X" in repr(Variable("X"))


class TestConstant:
    def test_symbol_str_is_bare(self):
        assert str(Constant("alice")) == "alice"

    def test_non_identifier_is_quoted(self):
        assert str(Constant("New York")) == "'New York'"

    def test_uppercase_string_is_quoted(self):
        # Would otherwise re-parse as a variable.
        assert str(Constant("Bob")) == "'Bob'"

    def test_quote_escaping(self):
        assert str(Constant("it's")) == "'it\\'s'"

    def test_numbers(self):
        assert str(Constant(42)) == "42"
        assert str(Constant(2.5)) == "2.5"

    def test_equality_distinguishes_types(self):
        assert Constant(1) != Constant("1")


class TestArithExpr:
    def test_str(self):
        expr = ArithExpr("+", Variable("X"), Constant(1))
        assert str(expr) == "(X + 1)"

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValueError):
            ArithExpr("%", Variable("X"), Constant(1))

    def test_nested(self):
        inner = ArithExpr("*", Variable("X"), Constant(2))
        outer = ArithExpr("-", inner, Variable("Y"))
        assert str(outer) == "((X * 2) - Y)"


class TestMkTerm:
    def test_uppercase_becomes_variable(self):
        assert mk_term("X1") == Variable("X1")

    def test_underscore_becomes_variable(self):
        assert mk_term("_tmp") == Variable("_tmp")

    def test_lowercase_becomes_constant(self):
        assert mk_term("alice") == Constant("alice")

    def test_numbers_become_constants(self):
        assert mk_term(7) == Constant(7)
        assert mk_term(1.5) == Constant(1.5)

    def test_terms_pass_through(self):
        var = Variable("X")
        assert mk_term(var) is var

    def test_rejects_unknown(self):
        with pytest.raises(TypeError):
            mk_term(object())


class TestVariablesOf:
    def test_variable(self):
        assert list(variables_of(Variable("X"))) == [Variable("X")]

    def test_constant_has_none(self):
        assert list(variables_of(Constant(3))) == []

    def test_arith_collects_left_to_right(self):
        expr = ArithExpr("+", Variable("A"),
                         ArithExpr("*", Variable("B"), Variable("A")))
        assert list(variables_of(expr)) == [Variable("A"), Variable("B"),
                                            Variable("A")]


class TestIsVariableName:
    @pytest.mark.parametrize("name,expected", [
        ("X", True), ("Xa", True), ("_", True), ("x", False),
        ("aX", False), ("X1", True), ("1X", False),
    ])
    def test_cases(self, name, expected):
        assert is_variable_name(name) is expected


class TestFreshVariableSupply:
    def test_avoids_reserved(self):
        supply = FreshVariableSupply({"V_1", "V_2"})
        fresh = supply.fresh()
        assert fresh.name not in {"V_1", "V_2"}

    def test_never_repeats(self):
        supply = FreshVariableSupply()
        names = {supply.fresh().name for _ in range(50)}
        assert len(names) == 50

    def test_base_prefix(self):
        supply = FreshVariableSupply()
        assert supply.fresh("Xa").name.startswith("Xa_")

    def test_reserve_extends(self):
        supply = FreshVariableSupply()
        first = supply.fresh("Q")
        supply.reserve({"Q_2", "Q_3"})
        names = {supply.fresh("Q").name for _ in range(5)}
        assert not names & {"Q_2", "Q_3", first.name}

    def test_fork_continues_independently(self):
        supply = FreshVariableSupply({"X_2"})
        supply.fresh("X")
        fork = supply.fork()
        ahead = [supply.fresh("X").name for _ in range(3)]
        assert [fork.fresh("X").name for _ in range(3)] == ahead
        assert "X_2" not in ahead and len(set(ahead)) == 3
