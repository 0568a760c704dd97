"""A recursive-descent parser for the Prolog-like notation of the paper.

Grammar (informal)::

    unit      := statement*
    statement := [label ':'] (rule | ic | fact | query)
    rule      := atom ':-' literals '.'
    fact      := atom '.'
    ic        := literals '->' [literal] '.'
    query     := '?-' literals '.'
    literals  := literal (',' literal)*
    literal   := 'not' atom | atom | comparison
    atom      := ident ['(' term (',' term)* ')']
    comparison:= expr op expr        with op in  = != < <= > >=
    expr      := product (('+'|'-') product)*
    product   := unary (('*'|'/') unary)*
    unary     := ['-'] (var | number | string | ident | '(' expr ')')

Identifiers starting with a lowercase letter are predicate/constant
symbols; identifiers starting with an uppercase letter or ``_`` are
variables.  ``%`` starts a comment to end of line.  An IC may have an empty
head (a denial): ``a(X), X > 5 -> .`` or equivalently ``... -> false.``
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

from ..errors import ParseError
from .atoms import Atom, Comparison, Literal, Negation
from .rules import Rule
from .program import Program
from .spans import Span, caret_excerpt
from .terms import ArithExpr, Constant, Term, Variable

_OP_NORMALIZE = {"=<": "<=", "=>": ">="}


class Token(NamedTuple):
    """One lexeme: a tuple, which a bound query builds several of at
    a third of a frozen dataclass's cost."""

    kind: str  # IDENT VAR NUMBER STRING PUNCT EOF
    text: str
    line: int
    column: int
    #: Exclusive end column; defaults to ``column + len(text)``.
    end_column: int = -1

    @property
    def end(self) -> int:
        if self.end_column >= 0:
            return self.end_column
        return self.column + len(self.text)

    def span(self) -> Span:
        return Span(self.line, self.column, self.line, self.end)


def _excerpt(text: str, line: int, column: int, width: int = 1) -> str:
    return caret_excerpt(text, Span(line, column, line, column + width))


#: One token (or skipped stretch) of the notation, tried in this order
#: at each position.  A number's ``.`` must be followed by a digit, or
#: it ends the statement (``p(3).``); a string runs to its closing
#: quote on the same line, a backslash escaping the next character
#: (newline included); punctuation lists two-character operators
#: first.
_TOKEN = re.compile(r"""
      (?P<newline>\n)
    | (?P<space>[ \t\r]+)
    | (?P<comment>%[^\n]*)
    | (?P<number>\d+(?:\.\d+)*)
    | (?P<word>[^\W\d]\w*)
    | (?P<string>'(?:[^'\\\n]|\\[\s\S])*'|"(?:[^"\\\n]|\\[\s\S])*")
    | (?P<punct>:-|\?-|->|<=|>=|!=|=<|=>|[(),.<>=+\-*/:])
""", re.VERBOSE)
_ESCAPE = re.compile(r"\\([\s\S])")


def tokenize(text: str) -> Iterator[Token]:
    """Yield tokens; raises :class:`ParseError` on unknown characters.

    Columns advance one per character consumed, except inside a
    comment (the next token is on a new line, or is the end of input
    at the comment's column); a string's token starts at its opening
    quote, ends after its closing one and holds the unescaped text.
    """
    line, column = 1, 1
    index = 0
    length = len(text)
    match = _TOKEN.match
    while index < length:
        found = match(text, index)
        if found is None or (found.lastgroup == "word"
                             and not (text[index].isalpha()
                                      or text[index] == "_")):
            # (A word starts with a letter or ``_``: ``\w`` also holds
            # numeric characters that are not decimal digits.)
            if text[index] in "'\"":
                raise ParseError("unterminated string", line, column,
                                 excerpt=_excerpt(text, line, column))
            raise ParseError(f"unexpected character {text[index]!r}",
                             line, column,
                             excerpt=_excerpt(text, line, column))
        kind = found.lastgroup
        lexeme = found.group()
        index = found.end()
        if kind == "newline":
            line += 1
            column = 1
            continue
        if kind == "comment":
            continue
        if kind == "punct":
            yield Token("PUNCT", _OP_NORMALIZE.get(lexeme, lexeme),
                        line, column)
        elif kind == "word":
            first = lexeme[0]
            yield Token("VAR" if first.isupper() or first == "_"
                        else "IDENT", lexeme, line, column)
        elif kind == "number":
            yield Token("NUMBER", lexeme, line, column)
        elif kind == "string":
            body = lexeme[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(r"\1", body)
            yield Token("STRING", body, line, column,
                        end_column=column + len(lexeme))
        column += len(lexeme)
    yield Token("EOF", "", line, column)


@dataclass(frozen=True)
class ParsedIC:
    """A parsed integrity constraint ``body -> head`` (head may be None)."""

    body: tuple[Literal, ...]
    head: Literal | None
    label: str | None = None
    span: Span | None = None


@dataclass(frozen=True)
class ParsedQuery:
    """A parsed query ``?- literals.``"""

    literals: tuple[Literal, ...]
    span: Span | None = None


Statement = Union[Rule, ParsedIC, ParsedQuery]

_COMPARISON_OPS = {"=", "!=", "<", "<=", ">", ">="}


class _Parser:
    def __init__(self, text: str) -> None:
        self._text = text
        self._tokens = list(tokenize(text))
        # A second EOF: the parser looks one token past the current one
        # at most, and never moves past the first EOF.
        self._tokens.append(self._tokens[-1])
        self._pos = 0

    # -- token plumbing -----------------------------------------------------
    def _peek(self, offset: int = 0) -> Token:
        return self._tokens[self._pos + offset]

    def _next(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def _last(self) -> Token:
        """The most recently consumed token (for span ends)."""
        return self._tokens[max(self._pos - 1, 0)]

    def _span_from(self, start: Token) -> Span:
        end = self._last()
        return Span(start.line, start.column, end.line, end.end)

    def _fail(self, message: str, token: Token) -> "ParseError":
        width = max(len(token.text), 1)
        return ParseError(message, token.line, token.column,
                          excerpt=_excerpt(self._text, token.line,
                                           token.column, width))

    def _expect(self, kind: str, text: str | None = None) -> Token:
        token = self._peek()
        if token.kind != kind or (text is not None and token.text != text):
            want = text if text is not None else kind
            raise self._fail(
                f"expected {want!r}, found {token.text or token.kind!r}",
                token)
        return self._next()

    def _at_punct(self, text: str, offset: int = 0) -> bool:
        token = self._tokens[self._pos + offset]
        return token.kind == "PUNCT" and token.text == text

    # -- grammar -------------------------------------------------------------
    def parse_unit(self) -> list[Statement]:
        statements: list[Statement] = []
        while self._peek().kind != "EOF":
            statements.append(self.parse_statement())
        return statements

    def parse_statement(self) -> Statement:
        label = None
        start = self._peek()
        if (self._peek().kind == "IDENT" and self._at_punct(":", 1)
                and not self._at_punct(":-", 1)):
            label = self._next().text
            self._next()  # ':'
        if self._at_punct("?-"):
            self._next()
            literals = self._parse_literals()
            self._expect("PUNCT", ".")
            return ParsedQuery(tuple(literals), span=self._span_from(start))
        head_start = self._peek()
        literals = self._parse_literals()
        if self._at_punct(":-"):
            self._next()
            if len(literals) != 1 or not isinstance(literals[0], Atom):
                raise self._fail("rule head must be a single database atom",
                                 head_start)
            body = self._parse_literals()
            self._expect("PUNCT", ".")
            return Rule(literals[0], tuple(body), label=label,
                        span=self._span_from(start))
        if self._at_punct("->"):
            self._next()
            head: Literal | None = None
            if not self._at_punct("."):
                if (self._peek().kind == "IDENT"
                        and self._peek().text == "false"
                        and self._at_punct(".", 1)):
                    self._next()
                else:
                    head = self._parse_literal()
            self._expect("PUNCT", ".")
            return ParsedIC(tuple(literals), head, label=label,
                            span=self._span_from(start))
        # A bare atom followed by '.' is a fact.
        self._expect("PUNCT", ".")
        if len(literals) != 1 or not isinstance(literals[0], Atom):
            raise self._fail("a fact must be a single database atom",
                             head_start)
        return Rule(literals[0], (), label=label,
                    span=self._span_from(start))

    def _parse_literals(self) -> list[Literal]:
        literals = [self._parse_literal()]
        while self._at_punct(","):
            self._next()
            literals.append(self._parse_literal())
        return literals

    def _parse_literal(self) -> Literal:
        token = self._peek()
        if token.kind == "IDENT" and token.text == "not":
            self._next()
            inner = self._parse_literal()
            if not isinstance(inner, Atom):
                raise self._fail("'not' applies to database atoms only",
                                 token)
            return Negation(inner, span=self._span_from(token))
        # An identifier followed by '(' is a database atom...
        if token.kind == "IDENT" and self._at_punct("(", 1):
            return self._parse_atom()
        # ... a zero-arity atom when followed by a literal separator ...
        if token.kind == "IDENT" and (
                self._at_punct(",", 1) or self._at_punct(".", 1)
                or self._at_punct(":-", 1) or self._at_punct("->", 1)):
            self._next()
            return Atom(token.text, (), span=token.span())
        # ... otherwise we are looking at a comparison.
        lhs = self._parse_expr()
        op_token = self._peek()
        if op_token.kind != "PUNCT" or op_token.text not in _COMPARISON_OPS:
            raise self._fail(
                f"expected comparison operator, found "
                f"{op_token.text or op_token.kind!r}",
                op_token)
        self._next()
        rhs = self._parse_expr()
        return Comparison(op_token.text, lhs, rhs,
                          span=self._span_from(token))

    def _parse_atom(self) -> Atom:
        start = self._peek()
        name = self._expect("IDENT").text
        args: list[Term] = []
        if self._at_punct("("):
            self._next()
            if not self._at_punct(")"):
                args.append(self._parse_expr())
                while self._at_punct(","):
                    self._next()
                    args.append(self._parse_expr())
            self._expect("PUNCT", ")")
        return Atom(name, tuple(args), span=self._span_from(start))

    def _parse_expr(self) -> Term:
        left = self._parse_product()
        while self._at_punct("+") or self._at_punct("-"):
            op = self._next().text
            right = self._parse_product()
            left = ArithExpr(op, left, right)
        return left

    def _parse_product(self) -> Term:
        left = self._parse_unary()
        while self._at_punct("*") or self._at_punct("/"):
            op = self._next().text
            right = self._parse_unary()
            left = ArithExpr(op, left, right)
        return left

    def _parse_unary(self) -> Term:
        token = self._peek()
        if self._at_punct("-"):
            self._next()
            number = self._expect("NUMBER")
            return Constant(-_to_number(number.text))
        if self._at_punct("("):
            self._next()
            inner = self._parse_expr()
            self._expect("PUNCT", ")")
            return inner
        if token.kind == "NUMBER":
            self._next()
            return Constant(_to_number(token.text))
        if token.kind == "STRING":
            self._next()
            return Constant(token.text)
        if token.kind == "VAR":
            self._next()
            return Variable(token.text)
        if token.kind == "IDENT":
            self._next()
            return Constant(token.text)
        raise self._fail(
            f"expected a term, found {token.text or token.kind!r}", token)


def _to_number(text: str) -> int | float:
    return float(text) if "." in text else int(text)


def parse_statements(text: str) -> list[Statement]:
    """Parse a mixed unit of rules, facts, ICs and queries."""
    return _Parser(text).parse_unit()


def parse_program(text: str, edb_hint: tuple[str, ...] = ()) -> Program:
    """Parse rules/facts only; any IC or query in the text is an error."""
    rules: list[Rule] = []
    for statement in parse_statements(text):
        if not isinstance(statement, Rule):
            span = statement.span
            raise ParseError(
                f"expected only rules, found {type(statement).__name__}",
                span.line if span else None,
                span.column if span else None,
                excerpt=caret_excerpt(text, span) if span else None)
        rules.append(statement)
    return Program(rules, edb_hint=edb_hint)


def parse_rule(text: str) -> Rule:
    """Parse exactly one rule (or fact)."""
    statements = parse_statements(text)
    if len(statements) != 1 or not isinstance(statements[0], Rule):
        raise ParseError("expected exactly one rule")
    return statements[0]


def parse_ic(text: str) -> ParsedIC:
    """Parse exactly one integrity constraint."""
    statements = parse_statements(text)
    if len(statements) != 1 or not isinstance(statements[0], ParsedIC):
        raise ParseError("expected exactly one integrity constraint")
    return statements[0]


def parse_query(text: str) -> ParsedQuery:
    """Parse exactly one query, with or without the leading ``?-``."""
    stripped = text.strip()
    if not stripped.startswith("?-"):
        stripped = "?- " + stripped
    if not stripped.rstrip().endswith("."):
        stripped = stripped.rstrip() + "."
    statements = parse_statements(stripped)
    if len(statements) != 1 or not isinstance(statements[0], ParsedQuery):
        raise ParseError("expected exactly one query")
    return statements[0]


def parse_atom(text: str) -> Atom:
    """Parse a single database atom such as ``par(X, Y)``."""
    parser = _Parser(text)
    result = parser._parse_atom()
    if parser._peek().kind != "EOF":
        token = parser._peek()
        raise parser._fail(f"trailing input after atom: {token.text!r}",
                           token)
    return result


def parse_literal(text: str) -> Literal:
    """Parse a single literal (atom, comparison, or negated atom)."""
    parser = _Parser(text)
    result = parser._parse_literal()
    if parser._peek().kind != "EOF":
        token = parser._peek()
        raise parser._fail(f"trailing input after literal: {token.text!r}",
                           token)
    return result
