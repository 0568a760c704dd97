"""Unit tests for substitutions, unification and matching."""

import pytest

from repro.datalog.atoms import atom, comparison
from repro.datalog.terms import ArithExpr, Constant, Variable
from repro.datalog.unify import (EMPTY_SUBSTITUTION, Substitution, match,
                                 match_terms, unify)

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


class TestSubstitution:
    def test_apply_to_atom(self):
        subst = Substitution({X: Constant("a")})
        assert subst.apply(atom("p", "X", "Y")) == atom("p", "a", "Y")

    def test_apply_to_comparison(self):
        subst = Substitution({X: Constant(3)})
        applied = subst.apply_literal(comparison("X", "<", "Y"))
        assert applied == comparison(3, "<", "Y")

    def test_apply_inside_arithmetic(self):
        subst = Substitution({X: Constant(2)})
        expr = ArithExpr("+", X, Y)
        assert subst.apply_term(expr) == ArithExpr("+", Constant(2), Y)

    def test_bind_is_persistent_copy(self):
        base = Substitution()
        extended = base.bind(X, Constant(1))
        assert X in extended and X not in base

    def test_compose_order(self):
        first = Substitution({X: Y})
        second = Substitution({Y: Constant("a")})
        composed = first.compose(second)
        assert composed.apply_term(X) == Constant("a")
        assert composed.apply_term(Y) == Constant("a")

    def test_restrict(self):
        subst = Substitution({X: Constant(1), Y: Constant(2)})
        assert set(subst.restrict([X])) == {X}

    def test_equality_and_hash(self):
        a = Substitution({X: Constant(1)})
        b = Substitution({X: Constant(1)})
        assert a == b and hash(a) == hash(b)


class TestUnify:
    def test_simple(self):
        unifier = unify(atom("p", "X", "b"), atom("p", "a", "Y"))
        assert unifier is not None
        assert unifier.apply(atom("p", "X", "b")) == atom("p", "a", "b")

    def test_different_predicates(self):
        assert unify(atom("p", "X"), atom("q", "X")) is None

    def test_different_arities(self):
        assert unify(atom("p", "X"), atom("p", "X", "Y")) is None

    def test_clash(self):
        assert unify(atom("p", "a"), atom("p", "b")) is None

    def test_repeated_variables(self):
        unifier = unify(atom("p", "X", "X"), atom("p", "Y", "a"))
        assert unifier is not None
        assert unifier.apply_term(Y) == Constant("a")

    def test_occurs_check(self):
        left = atom("p", "X")
        from repro.datalog.atoms import Atom
        right = Atom("p", (ArithExpr("+", X, Constant(1)),))
        assert unify(left, right) is None

    def test_mgu_application_makes_equal(self):
        a = atom("p", "X", "Y", "c")
        b = atom("p", "b", "Z", "Z")
        unifier = unify(a, b)
        assert unifier is not None
        assert unifier.apply(a) == unifier.apply(b)


class TestMatch:
    def test_pattern_variable_binds(self):
        theta = match(atom("p", "X"), atom("p", "a"))
        assert theta is not None and theta[X] == Constant("a")

    def test_target_variable_is_rigid(self):
        # One-way: the pattern constant cannot absorb a target variable.
        assert match(atom("p", "a"), atom("p", "X")) is None

    def test_pattern_variable_can_bind_target_variable(self):
        theta = match(atom("p", "X"), atom("p", "Y"))
        assert theta is not None and theta[X] == Y

    def test_consistency_across_positions(self):
        assert match(atom("p", "X", "X"), atom("p", "a", "b")) is None
        theta = match(atom("p", "X", "X"), atom("p", "a", "a"))
        assert theta is not None

    def test_extends_existing_substitution(self):
        seed = Substitution({X: Constant("a")})
        assert match(atom("p", "X"), atom("p", "b"), seed) is None
        theta = match(atom("p", "X"), atom("p", "a"), seed)
        assert theta == seed

    def test_match_terms_arith(self):
        pattern = ArithExpr("+", X, Constant(1))
        target = ArithExpr("+", Constant(5), Constant(1))
        theta = match_terms(pattern, target, EMPTY_SUBSTITUTION)
        assert theta is not None and theta[X] == Constant(5)

    def test_match_terms_arith_op_mismatch(self):
        pattern = ArithExpr("+", X, Constant(1))
        target = ArithExpr("-", Constant(5), Constant(1))
        assert match_terms(pattern, target, EMPTY_SUBSTITUTION) is None
