"""Unit tests for the Prolog-like parser."""

import pytest

from repro.datalog.atoms import Atom, Comparison, Negation, atom, comparison
from repro.datalog.parser import (ParsedIC, ParsedQuery, parse_atom,
                                  parse_ic, parse_literal, parse_program,
                                  parse_query, parse_rule,
                                  parse_statements, tokenize)
from repro.datalog.rules import Rule
from repro.datalog.terms import ArithExpr, Constant, Variable
from repro.errors import ParseError


class TestTokenizer:
    def test_kinds(self):
        tokens = list(tokenize("p(X, 1) :- q. % comment"))
        kinds = [t.kind for t in tokens]
        assert kinds == ["IDENT", "PUNCT", "VAR", "PUNCT", "NUMBER",
                         "PUNCT", "PUNCT", "IDENT", "PUNCT", "EOF"]

    def test_multichar_operators(self):
        texts = [t.text for t in tokenize(":- -> <= >= != ?-")]
        assert texts[:-1] == [":-", "->", "<=", ">=", "!=", "?-"]

    def test_prolog_style_inequalities_normalized(self):
        texts = [t.text for t in tokenize("=< =>")]
        assert texts[:-1] == ["<=", ">="]

    def test_strings_with_escapes(self):
        tokens = list(tokenize("'it\\'s' \"two words\""))
        assert tokens[0].text == "it's"
        assert tokens[1].text == "two words"

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            list(tokenize("'oops"))

    def test_float_vs_end_of_clause(self):
        tokens = list(tokenize("p(3.8). q(4)."))
        numbers = [t.text for t in tokens if t.kind == "NUMBER"]
        assert numbers == ["3.8", "4"]

    def test_unknown_character(self):
        with pytest.raises(ParseError) as err:
            list(tokenize("p(X) @ q"))
        assert "@" in str(err.value)

    def test_line_numbers(self):
        tokens = list(tokenize("a.\nb."))
        b_token = [t for t in tokens if t.text == "b"][0]
        assert b_token.line == 2


#: Every token field of tricky inputs, as the per-character scanner the
#: compiled pattern replaced produced them: a number's ``.`` before the
#: end of a statement, ``1.5``, escapes (an escaped newline continues
#: the string without starting a line), a comment (columns stop in it),
#: the Prolog-style operators and spans over several lines.
TOKEN_PINS = [
    ("p(3). q(1.5).",
     [("IDENT", "p", 1, 1, 2), ("PUNCT", "(", 1, 2, 3),
      ("NUMBER", "3", 1, 3, 4), ("PUNCT", ")", 1, 4, 5),
      ("PUNCT", ".", 1, 5, 6), ("IDENT", "q", 1, 7, 8),
      ("PUNCT", "(", 1, 8, 9), ("NUMBER", "1.5", 1, 9, 12),
      ("PUNCT", ")", 1, 12, 13), ("PUNCT", ".", 1, 13, 14),
      ("EOF", "", 1, 14, 14)]),
    ("'it\\'s' \"a\\\\b\" 'tab\\\tx'",
     [("STRING", "it's", 1, 1, 8), ("STRING", "a\\b", 1, 9, 15),
      ("STRING", "tab\tx", 1, 16, 24), ("EOF", "", 1, 24, 24)]),
    ("p(X) % comment\n  :- q(X).",
     [("IDENT", "p", 1, 1, 2), ("PUNCT", "(", 1, 2, 3),
      ("VAR", "X", 1, 3, 4), ("PUNCT", ")", 1, 4, 5),
      ("PUNCT", ":-", 2, 3, 5), ("IDENT", "q", 2, 6, 7),
      ("PUNCT", "(", 2, 7, 8), ("VAR", "X", 2, 8, 9),
      ("PUNCT", ")", 2, 9, 10), ("PUNCT", ".", 2, 10, 11),
      ("EOF", "", 2, 11, 11)]),
    ("X =< Y, Y => Z, X != 2",
     [("VAR", "X", 1, 1, 2), ("PUNCT", "<=", 1, 3, 5),
      ("VAR", "Y", 1, 6, 7), ("PUNCT", ",", 1, 7, 8),
      ("VAR", "Y", 1, 9, 10), ("PUNCT", ">=", 1, 11, 13),
      ("VAR", "Z", 1, 14, 15), ("PUNCT", ",", 1, 15, 16),
      ("VAR", "X", 1, 17, 18), ("PUNCT", "!=", 1, 19, 21),
      ("NUMBER", "2", 1, 22, 23), ("EOF", "", 1, 23, 23)]),
    ("r0: p(X, Y) :-\n    q(X, 'two\\\nlines'),\n\tY >= 1.2.3 . % end",
     [("IDENT", "r0", 1, 1, 3), ("PUNCT", ":", 1, 3, 4),
      ("IDENT", "p", 1, 5, 6), ("PUNCT", "(", 1, 6, 7),
      ("VAR", "X", 1, 7, 8), ("PUNCT", ",", 1, 8, 9),
      ("VAR", "Y", 1, 10, 11), ("PUNCT", ")", 1, 11, 12),
      ("PUNCT", ":-", 1, 13, 15), ("IDENT", "q", 2, 5, 6),
      ("PUNCT", "(", 2, 6, 7), ("VAR", "X", 2, 7, 8),
      ("PUNCT", ",", 2, 8, 9), ("STRING", "two\nlines", 2, 10, 22),
      ("PUNCT", ")", 2, 22, 23), ("PUNCT", ",", 2, 23, 24),
      ("VAR", "Y", 3, 2, 3), ("PUNCT", ">=", 3, 4, 6),
      ("NUMBER", "1.2.3", 3, 7, 12), ("PUNCT", ".", 3, 13, 14),
      ("EOF", "", 3, 15, 15)]),
]


@pytest.mark.parametrize("text, expected", TOKEN_PINS)
def test_every_token_field_is_pinned(text, expected):
    assert [(t.kind, t.text, t.line, t.column, t.end)
            for t in tokenize(text)] == expected


def test_a_numeric_character_that_is_no_digit_is_a_parse_error():
    """``\u00b2`` (superscript two) is a digit to ``str.isdigit`` but
    no decimal: it is refused where it stands, not read as a number
    that ``int`` cannot convert."""
    with pytest.raises(ParseError) as err:
        parse_program("p(\u00b2).")
    assert (err.value.line, err.value.column) == (1, 3)


class TestRuleParsing:
    def test_simple_rule(self):
        r = parse_rule("anc(X, Y) :- par(X, Y).")
        assert r.head == atom("anc", "X", "Y")
        assert r.body == (atom("par", "X", "Y"),)

    def test_labelled_rule(self):
        assert parse_rule("r7: p(X) :- q(X).").label == "r7"

    def test_fact(self):
        r = parse_rule("par(ann, bob).")
        assert r.is_fact
        assert r.head.args == (Constant("ann"), Constant("bob"))

    def test_comparisons_in_body(self):
        r = parse_rule("p(X) :- q(X, Y), X > Y, Y != 3.")
        assert r.evaluable_atoms() == (comparison("X", ">", "Y"),
                                       comparison("Y", "!=", 3))

    def test_negation_in_body(self):
        r = parse_rule("p(X) :- q(X), not r(X).")
        assert r.negated_atoms() == (Negation(atom("r", "X")),)

    def test_negation_of_comparison_rejected(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) :- q(X), not X > 3.")

    def test_arithmetic_argument(self):
        r = parse_rule("p(X) :- q(X, Y), Y > X + 1.")
        cmp_ = r.evaluable_atoms()[0]
        assert cmp_.rhs == ArithExpr("+", Variable("X"), Constant(1))

    def test_precedence(self):
        r = parse_rule("p(X) :- q(X), X > 1 + 2 * 3.")
        rhs = r.evaluable_atoms()[0].rhs
        assert isinstance(rhs, ArithExpr) and rhs.op == "+"
        assert rhs.right == ArithExpr("*", Constant(2), Constant(3))

    def test_parenthesized_expression(self):
        r = parse_rule("p(X) :- q(X), X > (1 + 2) * 3.")
        rhs = r.evaluable_atoms()[0].rhs
        assert rhs.op == "*"

    def test_negative_number(self):
        r = parse_rule("p(X) :- q(X), X > -5.")
        assert r.evaluable_atoms()[0].rhs == Constant(-5)

    def test_zero_arity_atoms(self):
        r = parse_rule("flag :- sensor(X), X > 3.")
        assert r.head == Atom("flag", ())

    def test_missing_period(self):
        with pytest.raises(ParseError):
            parse_rule("p(X) :- q(X)")

    def test_head_must_be_atom(self):
        with pytest.raises(ParseError):
            parse_rule("X > 3 :- q(X).")


class TestICParsing:
    def test_fact_ic(self):
        ic = parse_ic("a(X, Y), X > 5 -> b(Y).")
        assert isinstance(ic, ParsedIC)
        assert ic.head == atom("b", "Y")
        assert len(ic.body) == 2

    def test_denial_with_empty_head(self):
        ic = parse_ic("a(X), X > 5 -> .")
        assert ic.head is None

    def test_denial_with_false(self):
        ic = parse_ic("a(X) -> false.")
        assert ic.head is None

    def test_labelled(self):
        assert parse_ic("ic3: a(X) -> b(X).").label == "ic3"

    def test_evaluable_head(self):
        ic = parse_ic("a(X, Y) -> X < Y.")
        assert ic.head == comparison("X", "<", "Y")


class TestQueryParsing:
    def test_with_marker(self):
        q = parse_query("?- anc(X, Y), Y != bob.")
        assert isinstance(q, ParsedQuery)
        assert len(q.literals) == 2

    def test_marker_and_period_optional(self):
        q = parse_query("anc(X, Y)")
        assert q.literals == (atom("anc", "X", "Y"),)


class TestMixedUnits:
    def test_statement_kinds(self):
        statements = parse_statements("""
            p(X) :- e(X).
            e(a).
            ic: e(X) -> p(X).
            ?- p(X).
        """)
        kinds = [type(s).__name__ for s in statements]
        assert kinds == ["Rule", "Rule", "ParsedIC", "ParsedQuery"]

    def test_parse_program_rejects_ics(self):
        with pytest.raises(ParseError):
            parse_program("p(X) :- e(X). e(X) -> p(X).")

    def test_parse_program_roundtrip(self, tc_program):
        text = "\n".join(f"{r.label}: {r}" for r in tc_program)
        again = parse_program(text)
        assert again == tc_program


class TestSpans:
    def test_rule_span_covers_statement(self):
        r = parse_rule("anc(X, Y) :- par(X, Y).")
        assert r.span is not None
        assert (r.span.line, r.span.column) == (1, 1)
        assert r.span.end_column >= len("anc(X, Y) :- par(X, Y).")

    def test_atom_spans(self):
        r = parse_rule("anc(X, Y) :- par(X, Y).")
        assert (r.head.span.line, r.head.span.column) == (1, 1)
        body_atom = r.body[0]
        assert (body_atom.span.line, body_atom.span.column) == (1, 14)

    def test_spans_across_lines(self):
        r = parse_statements("e(a).\nanc(X, Y) :- par(X, Y).")[1]
        assert r.span.line == 2

    def test_negation_and_comparison_spans(self):
        r = parse_rule("p(X) :- q(X), not r(X), X > 3.")
        neg = r.negated_atoms()[0]
        cmp_ = r.evaluable_atoms()[0]
        assert (neg.span.line, neg.span.column) == (1, 15)
        assert (cmp_.span.line, cmp_.span.column) == (1, 25)

    def test_span_excluded_from_equality(self):
        assert parse_rule("p(X) :- q(X).") == parse_rule("  p(X) :- q(X).")

    def test_ic_and_query_spans(self):
        ic, query = parse_statements("a(X) -> b(X).\n?- a(X).")
        assert ic.span.line == 1
        assert query.span.line == 2

    def test_substitution_preserves_spans(self):
        from repro.datalog.unify import Substitution

        r = parse_rule("p(X) :- q(X).")
        ground = r.apply(Substitution({Variable("X"): Constant(1)}))
        assert ground.span == r.span
        assert ground.body[0].span == r.body[0].span


class TestParseErrorExcerpts:
    def test_error_carries_line_and_column(self):
        with pytest.raises(ParseError) as err:
            parse_rule("p(X) :- q(X)")
        assert err.value.line == 1
        assert err.value.column == 13

    def test_caret_excerpt_in_message(self):
        with pytest.raises(ParseError) as err:
            parse_rule("p(X) :- q(X)")
        text = str(err.value)
        assert "line 1" in text and "column 13" in text
        assert "p(X) :- q(X)" in text and "^" in text

    def test_excerpt_points_at_offending_token(self):
        with pytest.raises(ParseError) as err:
            parse_statements("e(a).\np(X) := q(X).")
        text = str(err.value)
        assert "line 2" in text
        gutter, caret_line = text.splitlines()[-2:]
        assert "p(X) := q(X)" in gutter
        assert caret_line.index("^") > caret_line.index("|")

    def test_unterminated_string_has_excerpt(self):
        with pytest.raises(ParseError) as err:
            list(tokenize("p('oops"))
        assert "unterminated" in str(err.value) and "^" in str(err.value)

    def test_head_must_be_atom_location(self):
        with pytest.raises(ParseError) as err:
            parse_rule("X > 3 :- q(X).")
        assert err.value.line == 1 and err.value.column == 1


class TestSingleItemHelpers:
    def test_parse_atom(self):
        assert parse_atom("par(X, 30)") == atom("par", "X", 30)

    def test_parse_atom_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_atom("par(X), q(Y)")

    def test_parse_literal_comparison(self):
        assert parse_literal("X >= 2") == comparison("X", ">=", 2)

    def test_parse_literal_negation(self):
        assert parse_literal("not p(X)") == Negation(atom("p", "X"))
