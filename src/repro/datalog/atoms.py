"""Atoms and literals.

The paper distinguishes *database predicates* (EDB/IDB atoms) from
*evaluable predicates* (built-in comparisons such as ``X > Y`` or
``X > 100``).  We model these as two classes:

- :class:`Atom` — a database atom ``pred(t1, ..., tn)``.
- :class:`Comparison` — an evaluable atom ``lhs op rhs``.

Negation (used by the engine's stratified-negation extension and never
needed for the optimizer's own output, see DESIGN.md) wraps an atom in
:class:`Negation`.  A *literal* is any of the three.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence, Union

from .spans import Span
from .terms import ArithExpr, Constant, Term, Variable, mk_term, variables_of


@dataclass(frozen=True, slots=True)
class Atom:
    """A database atom ``pred(t1, ..., tn)``.

    ``span`` ties the atom back to its source text when it came from the
    parser; it never participates in equality or hashing, so transformed
    and hand-built atoms compare as before.
    """

    pred: str
    args: tuple[Term, ...]
    span: Span | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        if not self.args:
            return self.pred
        return f"{self.pred}({', '.join(str(a) for a in self.args)})"

    @property
    def arity(self) -> int:
        return len(self.args)

    def variables(self) -> Iterator[Variable]:
        """Yield every variable occurrence (left to right, with repeats)."""
        for arg in self.args:
            yield from variables_of(arg)

    def variable_set(self) -> frozenset[Variable]:
        return frozenset(self.variables())


#: Comparison operators with their complements (used to build ``not E``).
COMPARISON_COMPLEMENT = {
    "=": "!=",
    "!=": "=",
    "<": ">=",
    ">=": "<",
    ">": "<=",
    "<=": ">",
}

#: Operators with operand order swapped (``a < b`` == ``b > a``).
COMPARISON_CONVERSE = {
    "=": "=",
    "!=": "!=",
    "<": ">",
    ">": "<",
    "<=": ">=",
    ">=": "<=",
}


@dataclass(frozen=True, slots=True)
class Comparison:
    """An evaluable atom ``lhs op rhs`` with ``op`` a comparison operator."""

    op: str
    lhs: Term
    rhs: Term
    span: Span | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_COMPLEMENT:
            raise ValueError(f"unknown comparison operator {self.op!r}")

    def __str__(self) -> str:
        return f"{self.lhs} {self.op} {self.rhs}"

    def variables(self) -> Iterator[Variable]:
        yield from variables_of(self.lhs)
        yield from variables_of(self.rhs)

    def variable_set(self) -> frozenset[Variable]:
        return frozenset(self.variables())

    def complement(self) -> "Comparison":
        """Return the logical negation as another comparison.

        This is what makes the optimizer's conditional splits executable
        without negation support: ``not (X > 5)`` is just ``X <= 5``.
        """
        return Comparison(COMPARISON_COMPLEMENT[self.op], self.lhs,
                          self.rhs, span=self.span)

    def converse(self) -> "Comparison":
        """Return the same constraint with operands swapped."""
        return Comparison(COMPARISON_CONVERSE[self.op], self.rhs,
                          self.lhs, span=self.span)


@dataclass(frozen=True, slots=True)
class Negation:
    """Negation of a database atom (stratified-negation extension)."""

    atom: Atom
    span: Span | None = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return f"not {self.atom}"

    def variables(self) -> Iterator[Variable]:
        yield from self.atom.variables()

    def variable_set(self) -> frozenset[Variable]:
        return self.atom.variable_set()


#: Any body element of a rule or IC.
Literal = Union[Atom, Comparison, Negation]


def atom(pred: str, *args: object) -> Atom:
    """Convenience constructor: ``atom('par', 'X', 'Y')``.

    Arguments are coerced with :func:`repro.datalog.terms.mk_term`, so
    uppercase strings become variables and everything else constants.
    """
    return Atom(pred, tuple(mk_term(a) for a in args))


def comparison(lhs: object, op: str, rhs: object) -> Comparison:
    """Convenience constructor: ``comparison('X', '>', 100)``."""
    return Comparison(op, mk_term(lhs), mk_term(rhs))


def is_database(literal: Literal) -> bool:
    """True when ``literal`` is a (positive) database atom."""
    return isinstance(literal, Atom)


def literal_variables(literals: Sequence[Literal]) -> frozenset[Variable]:
    """The set of variables occurring in a sequence of literals."""
    out: set[Variable] = set()
    for lit in literals:
        out.update(lit.variables())
    return frozenset(out)


def constants_of(literal: Literal) -> frozenset[Constant]:
    """The set of constants appearing in ``literal``."""

    def walk(term: Term) -> Iterator[Constant]:
        if isinstance(term, Constant):
            yield term
        elif isinstance(term, ArithExpr):
            yield from walk(term.left)
            yield from walk(term.right)

    out: set[Constant] = set()
    if isinstance(literal, Atom):
        for arg in literal.args:
            out.update(walk(arg))
    elif isinstance(literal, Comparison):
        out.update(walk(literal.lhs))
        out.update(walk(literal.rhs))
    else:
        return constants_of(literal.atom)
    return frozenset(out)
