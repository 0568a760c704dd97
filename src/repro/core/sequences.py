"""Expansion sequences and their unfolding into conjunctive clauses.

An *expansion sequence* is a sequence of program rules applied top-down
(Section 2): ``r0 r1 r0`` denotes the proof-tree spine where the recursive
predicate is expanded with ``r0``, then ``r1``, then ``r0``.  For linear
programs, expansion sequences are in 1-1 correspondence with proof trees.

Unfolding composes the rules into a single clause.  Every body literal of
the unfolded clause carries *provenance* — which rule instance (level) and
which body position it came from — because the push transformations of
Section 4 must edit the alpha-rule corresponding to a specific atom
occurrence.  The per-level variable renamings are exposed so Algorithm 4.1
can emit alpha-rules in exactly the unfolding's variable space (the
paper's step 5 "head unification").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..datalog.atoms import Atom, Literal
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import FreshVariableSupply, Variable
from ..datalog.unify import Substitution, unify
from ..errors import TransformError


@dataclass(frozen=True)
class ProvenancedLiteral:
    """A literal of an unfolded clause with its origin.

    Attributes:
        literal: the (renamed) literal.
        level: 0-based index of the rule instance in the sequence.
        body_index: the literal's position in that rule's original body.
    """

    literal: Literal
    level: int
    body_index: int


@dataclass(frozen=True)
class SequenceClause:
    """The unfolding of an expansion sequence.

    Attributes:
        pred: the recursive predicate the sequence expands.
        labels: the rule labels of the sequence, top-down.
        head: the clause head (the first rule's head).
        body: all body literals with provenance, level-major order.  When
            the last rule is recursive this includes the trailing
            recursive atom (its provenance points at that occurrence).
        instances: the renamed rule instances, one per level; instance
            ``i``'s head is the recursive call emitted by instance
            ``i-1`` (instance 0 keeps the original head).
        level_substitutions: per level, the renaming from the original
            rule's variables into the unfolding's variable space.
        recursive_tail: index into ``body`` of the trailing recursive
            atom, or None when the sequence ends with an exit rule.
    """

    pred: str
    labels: tuple[str, ...]
    head: Atom
    body: tuple[ProvenancedLiteral, ...]
    instances: tuple[Rule, ...]
    level_substitutions: tuple[Substitution, ...]
    recursive_tail: int | None

    def literals(self) -> tuple[Literal, ...]:
        """The bare body literals."""
        return tuple(item.literal for item in self.body)

    def __str__(self) -> str:
        body = ", ".join(str(item.literal) for item in self.body)
        return f"{self.head} :- {body}."

    def provenance_of(self, literal: Literal) -> ProvenancedLiteral | None:
        """First provenance entry whose literal equals ``literal``."""
        for item in self.body:
            if item.literal == literal:
                return item
        return None

    def variables(self) -> frozenset[Variable]:
        out = set(self.head.variables())
        for item in self.body:
            out.update(item.literal.variables())
        return frozenset(out)


def _sequence_rules(program: Program, pred: str,
                    labels: Sequence[str]) -> list[Rule]:
    rules = []
    for position, label in enumerate(labels):
        rule = program.rule(label)
        if rule.head.pred != pred:
            raise TransformError(
                f"rule {label} defines {rule.head.pred}, not {pred}")
        occurrences = rule.count_occurrences(pred)
        if occurrences > 1:
            raise TransformError(
                f"rule {label} is not linear in {pred}")
        if occurrences == 0 and position != len(labels) - 1:
            raise TransformError(
                f"exit rule {label} can only terminate a sequence")
        rules.append(rule)
    if not rules:
        raise TransformError("an expansion sequence needs at least one rule")
    return rules


@dataclass(frozen=True)
class UnfoldedPrefix:
    """An unfolded sequence with its trailing recursive call held apart.

    Every sequence that starts with these labels shares this state: a
    longer sequence expands ``call`` with its next rule, while the
    sequence itself puts ``call`` back into the body as its recursive
    tail.  States are memoised on the :class:`Program`, keyed by the
    predicate and the labels, and never change once stored.

    Attributes:
        instances: the renamed rule instances, one per level.
        substitutions: per level, the renaming into the unfolding's
            variable space.
        body: the body literals with provenance, without ``call``.
        call: the last level's recursive call, or None when the last
            rule is an exit rule (or there are no levels yet).
        call_at: where ``call`` sits in the sequence's own body.
        supply: the fresh-variable supply after these levels' renamings;
            extending a prefix draws from a fork of it.
    """

    instances: tuple[Rule, ...]
    substitutions: tuple[Substitution, ...]
    body: tuple[ProvenancedLiteral, ...]
    call: ProvenancedLiteral | None
    call_at: int
    supply: FreshVariableSupply


def _expand(prefix: UnfoldedPrefix, rule: Rule, pred: str,
            labels: tuple[str, ...]) -> UnfoldedPrefix:
    """Unfold ``rule`` one level below ``prefix``.

    ``labels`` is the sequence being unfolded, for error messages.
    """
    level = len(prefix.instances)
    supply = prefix.supply
    if level == 0:
        renaming = Substitution()
        instance = rule
    else:
        assert prefix.call is not None
        call_atom = prefix.call.literal
        assert isinstance(call_atom, Atom)
        supply = supply.fork()
        fresh_map = {v: supply.fresh(v.name) for v in sorted(
            rule.variables(), key=lambda v: v.name)}
        renaming = Substitution(fresh_map)
        renamed = rule.apply(renaming)
        unifier = unify(renamed.head, call_atom)
        if unifier is None:
            raise TransformError(
                f"cannot unfold {labels}: head of {rule.label} does "
                f"not unify with the recursive call {call_atom}")
        foreign = set(unifier) - set(renamed.variables())
        if foreign:
            # Binding call-site variables would have to propagate to
            # earlier levels; rectified heads never trigger this.
            raise TransformError(
                f"cannot unfold {labels}: rule {rule.label} has a "
                "non-rectified head that constrains the call site; "
                "rectify the program first")
        instance = renamed.apply(unifier)
        renaming = renaming.compose(unifier)

    body = list(prefix.body)
    call: ProvenancedLiteral | None = None
    call_at = len(body)
    for body_index, literal in enumerate(instance.body):
        item = ProvenancedLiteral(literal, level, body_index)
        original = rule.body[body_index]
        if isinstance(original, Atom) and original.pred == pred:
            call, call_at = item, len(body)
        else:
            body.append(item)
    return UnfoldedPrefix(
        instances=prefix.instances + (instance,),
        substitutions=prefix.substitutions + (renaming,),
        body=tuple(body), call=call, call_at=call_at, supply=supply)


def _unfolded(program: Program, pred: str, labels: tuple[str, ...],
              rules: Sequence[Rule]) -> UnfoldedPrefix:
    """The memoised state of ``labels``: the longest stored prefix,
    extended one level at a time, each new level stored on the way."""
    memo = program._unfolded
    if (pred, ()) not in memo:
        # The empty prefix: fresh names avoid every variable of the
        # program, collected once per program and predicate.
        names = {v.name for rule in program for v in rule.variables()}
        memo[pred, ()] = UnfoldedPrefix((), (), (), None, 0,
                                        FreshVariableSupply(names))
    cut = len(labels)
    while (pred, labels[:cut]) not in memo:
        cut -= 1
    state = memo[pred, labels[:cut]]
    for end in range(cut, len(labels)):
        state = _expand(state, rules[end], pred, labels)
        memo[pred, labels[:end + 1]] = state
    return state


def unfold(program: Program, pred: str,
           labels: Sequence[str]) -> SequenceClause:
    """Unfold an expansion sequence into a :class:`SequenceClause`.

    Sequences share the unfolding of their common prefix: ``r1 r1 r0``
    extends the stored state of ``r1 r1``, which is also the state of the
    sequence ``r1 r1`` itself.  A level is renamed exactly as a
    from-scratch unfolding would rename it, because each state keeps the
    fresh-variable supply where its last level left it.
    """
    labels = tuple(labels)
    rules = _sequence_rules(program, pred, labels)
    state = _unfolded(program, pred, labels, rules)
    body = state.body
    recursive_tail: int | None = None
    if state.call is not None:
        recursive_tail = state.call_at
        body = body[:recursive_tail] + (state.call,) + body[recursive_tail:]
    return SequenceClause(
        pred=pred,
        labels=labels,
        head=state.instances[0].head,
        body=body,
        instances=state.instances,
        level_substitutions=state.substitutions,
        recursive_tail=recursive_tail)


def enumerate_sequences(program: Program, pred: str, max_length: int
                        ) -> Iterator[tuple[str, ...]]:
    """Enumerate expansion-sequence label tuples up to ``max_length``.

    All prefixes consist of recursive rules; a sequence may end with an
    exit rule.  Lengths from 1 to ``max_length`` are produced in
    breadth-first order.
    """
    recursive = [r.label for r in program.recursive_rules(pred)]
    exits = [r.label for r in program.exit_rules(pred)]
    frontier: list[tuple[str, ...]] = [()]
    for _ in range(max_length):
        next_frontier: list[tuple[str, ...]] = []
        for prefix in frontier:
            for label in recursive:
                sequence = prefix + (label,)
                yield sequence
                next_frontier.append(sequence)
            for label in exits:
                yield prefix + (label,)
        frontier = next_frontier
