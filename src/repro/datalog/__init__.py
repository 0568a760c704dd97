"""Datalog substrate: terms, atoms, rules, programs, parsing, analysis."""

from .spans import Span, caret_excerpt
from .terms import (ArithExpr, Constant, FreshVariableSupply, Term,
                    Variable, mk_term)
from .atoms import (Atom, Comparison, Literal, Negation, atom, comparison,
                    literal_variables)
from .rules import Rule, is_connected, rule
from .program import Program
from .parser import (ParsedIC, ParsedQuery, parse_atom, parse_ic,
                     parse_literal, parse_program, parse_query, parse_rule,
                     parse_statements)
from .unify import EMPTY_SUBSTITUTION, Substitution, match, unify
from .rectify import is_rectified, rectify_program, rectify_rule
from .analysis import is_range_restricted, is_safe, validate_program
from .pretty import format_program, format_rule, format_table

__all__ = [
    "Span", "caret_excerpt",
    "ArithExpr", "Constant", "FreshVariableSupply", "Term", "Variable",
    "mk_term",
    "Atom", "Comparison", "Literal", "Negation", "atom", "comparison",
    "literal_variables",
    "Rule", "is_connected", "rule",
    "Program",
    "ParsedIC", "ParsedQuery", "parse_atom", "parse_ic", "parse_literal",
    "parse_program", "parse_query", "parse_rule", "parse_statements",
    "EMPTY_SUBSTITUTION", "Substitution", "match", "unify",
    "is_rectified", "rectify_program", "rectify_rule",
    "is_range_restricted", "is_safe", "validate_program",
    "format_program", "format_rule", "format_table",
]
