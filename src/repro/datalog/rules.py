"""Rules and facts.

A :class:`Rule` is ``head :- body`` with a database atom head and a body of
literals (database atoms, comparisons, and — engine extension — negated
atoms).  A fact is a rule with an empty body and a ground head; ground EDB
facts normally live in :class:`repro.facts.database.Database` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .atoms import Atom, Comparison, Literal, Negation
from .spans import Span
from .terms import Variable
from .unify import Substitution


@dataclass(frozen=True)
class Rule:
    """A Datalog rule ``head :- body``.

    Attributes:
        head: the head atom.
        body: the body literals, in source order.
        label: an optional name such as ``r0`` used in reports and when
            referring to rules inside expansion sequences.
        span: the source range of the whole statement when the rule came
            from the parser; excluded from equality like ``label``.
    """

    head: Atom
    body: tuple[Literal, ...]
    label: str | None = field(default=None, compare=False)
    span: Span | None = field(default=None, compare=False, repr=False)

    def __hash__(self) -> int:
        # Kernel caches hash a rule per firing, and the generated hash
        # would walk head and body every time: the rule is immutable,
        # so its hash is computed once.  Equality stays field-wise.
        found = self.__dict__.get("_hash")
        if found is None:
            found = hash((self.head, self.body))
            object.__setattr__(self, "_hash", found)
        return found

    def __getstate__(self) -> dict[str, object]:
        # A string's hash is per process: a pickled rule recomputes it.
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    def __str__(self) -> str:
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(lit) for lit in self.body)
        return f"{self.head} :- {body}."

    # -- inspection --------------------------------------------------------
    @property
    def is_fact(self) -> bool:
        return not self.body

    def database_atoms(self) -> tuple[Atom, ...]:
        """The positive database atoms of the body, in order."""
        return tuple(lit for lit in self.body if isinstance(lit, Atom))

    def evaluable_atoms(self) -> tuple[Comparison, ...]:
        return tuple(lit for lit in self.body if isinstance(lit, Comparison))

    def negated_atoms(self) -> tuple[Negation, ...]:
        return tuple(lit for lit in self.body if isinstance(lit, Negation))

    def body_predicates(self) -> frozenset[str]:
        """Names of database predicates referenced in the body."""
        preds = set()
        for lit in self.body:
            if isinstance(lit, Atom):
                preds.add(lit.pred)
            elif isinstance(lit, Negation):
                preds.add(lit.atom.pred)
        return frozenset(preds)

    def head_variables(self) -> frozenset[Variable]:
        return self.head.variable_set()

    def body_variables(self) -> frozenset[Variable]:
        out: set[Variable] = set()
        for lit in self.body:
            out.update(lit.variables())
        return frozenset(out)

    def variables(self) -> frozenset[Variable]:
        return self.head_variables() | self.body_variables()

    def local_variables(self) -> frozenset[Variable]:
        """Variables appearing only in the body (the paper's terminology)."""
        return self.body_variables() - self.head_variables()

    def occurrences_of(self, pred: str) -> Iterator[tuple[int, Atom]]:
        """Yield ``(body_index, atom)`` for each positive occurrence."""
        for index, lit in enumerate(self.body):
            if isinstance(lit, Atom) and lit.pred == pred:
                yield index, lit

    def count_occurrences(self, pred: str) -> int:
        return sum(1 for _ in self.occurrences_of(pred))

    # -- construction helpers ----------------------------------------------
    def apply(self, subst: Substitution) -> "Rule":
        """Apply a substitution to head and body, keeping the label."""
        return Rule(subst.apply(self.head),
                    subst.apply_literals(self.body),
                    label=self.label, span=self.span)

    def with_body(self, body: tuple[Literal, ...]) -> "Rule":
        return Rule(self.head, body, label=self.label, span=self.span)

    def with_head(self, head: Atom) -> "Rule":
        return Rule(head, self.body, label=self.label, span=self.span)

    def with_label(self, label: str | None) -> "Rule":
        return Rule(self.head, self.body, label=label, span=self.span)

    def add_literals(self, *literals: Literal) -> "Rule":
        return Rule(self.head, self.body + tuple(literals),
                    label=self.label, span=self.span)

    def remove_body_index(self, index: int) -> "Rule":
        if not 0 <= index < len(self.body):
            raise IndexError(f"body index {index} out of range")
        body = self.body[:index] + self.body[index + 1:]
        return Rule(self.head, body, label=self.label, span=self.span)


def rule(head: Atom, *body: Literal, label: str | None = None) -> Rule:
    """Convenience constructor mirroring :func:`repro.datalog.atoms.atom`."""
    for lit in body:
        if not isinstance(lit, (Atom, Comparison, Negation)):
            raise TypeError(f"not a literal: {lit!r}")
    if not isinstance(head, Atom):
        raise TypeError(f"rule head must be a database atom, got {head!r}")
    return Rule(head, tuple(body), label=label)


def is_connected(literals: tuple[Literal, ...]) -> bool:
    """Connectivity test used for both rules and ICs (Section 1).

    A conjunction is connected when, viewing literals as nodes joined by
    shared variables, the graph has a single connected component.  Ground
    literals attach to nothing; a conjunction containing a ground literal
    and anything else is therefore disconnected, matching the definition.
    """
    literals = tuple(literals)
    if len(literals) <= 1:
        return True
    var_sets = [frozenset(lit.variables()) for lit in literals]
    remaining = set(range(1, len(literals)))
    reached_vars = set(var_sets[0])
    changed = True
    while changed and remaining:
        changed = False
        for index in list(remaining):
            if var_sets[index] & reached_vars:
                remaining.discard(index)
                reached_vars |= var_sets[index]
                changed = True
    return not remaining
