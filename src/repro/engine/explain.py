"""Why-provenance: derivation trees for derived tuples.

The paper reasons about programs through their *proof trees*; this
module materializes one for any derived tuple, which is useful both for
debugging optimized programs (the transformed program must admit a proof
for exactly the same tuples) and for intelligent answering ("why is this
an answer?").

:func:`explain` performs a goal-directed search over the already-computed
IDB: for the goal tuple it finds a rule and a body instantiation whose
atoms are EDB facts or (recursively explained) IDB tuples.  Termination
is guaranteed by only recursing into tuples and memoizing failures, with
recursive sub-goals required to have strictly smaller derivation ranks
(the round at which semi-naive first derived them).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Constant, ConstValue, Variable
from ..errors import EvaluationError
from ..facts.database import Database
from ..facts.relation import Relation, Row
from . import builtins
from .bindings import EvalStats, solve_body
from .seminaive import seminaive_evaluate


@dataclass(frozen=True)
class Derivation:
    """One node of a derivation tree.

    Attributes:
        atom: the derived (or stored) ground atom.
        rule: the rule label used, or None for EDB facts.
        children: sub-derivations for the rule's database atoms.
    """

    atom: Atom
    rule: str | None
    children: tuple["Derivation", ...] = ()

    @property
    def is_fact(self) -> bool:
        return self.rule is None

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def size(self) -> int:
        return 1 + sum(child.size() for child in self.children)

    def rule_string(self) -> tuple[str, ...]:
        """The expansion-sequence reading of the tree: rule labels in
        depth-first order (EDB leaves omitted)."""
        labels: list[str] = []
        if self.rule is not None:
            labels.append(self.rule)
        for child in self.children:
            labels.extend(child.rule_string())
        return tuple(labels)

    def render(self, indent: int = 0) -> str:
        """ASCII proof tree."""
        pad = "  " * indent
        tag = f"  [{self.rule}]" if self.rule else "  [edb]"
        lines = [f"{pad}{self.atom}{tag}"]
        for child in self.children:
            lines.append(child.render(indent + 1))
        return "\n".join(lines)


class Explainer:
    """Builds derivation trees over a computed IDB."""

    def __init__(self, program: Program, edb: Database,
                 idb: Database | None = None) -> None:
        self.program = program
        self.edb = edb
        if idb is None:
            idb = seminaive_evaluate(program, edb, EvalStats())
        self.idb = idb
        self._ranks: dict[tuple[str, Row], int] = {}
        self._rank_idb()

    def _rank_idb(self) -> None:
        """Recompute first-derivation rounds: naive rounds over the
        interpreter, recording the round each tuple first appears in."""
        stats = EvalStats()
        arities = self.program.predicate_arities()
        known: dict[str, set[Row]] = {
            pred: set() for pred in self.program.idb_predicates}
        round_index = 0
        changed = True
        while changed:
            changed = False
            snapshot = Database()
            for pred, rows in known.items():
                relation = snapshot.ensure(pred, arities[pred])
                relation.add_all(rows)

            def fetch(atom: Atom, index: int) -> Relation:
                if atom.pred in self.program.idb_predicates:
                    return snapshot.relation(atom.pred)
                return self.edb.relation_or_empty(atom.pred, atom.arity)

            for rule in self.program:
                for binding in solve_body(rule, fetch, stats):
                    row = _instantiate(rule.head, binding)
                    key = (rule.head.pred, row)
                    if key not in self._ranks:
                        self._ranks[key] = round_index
                        known[rule.head.pred].add(row)
                        changed = True
            round_index += 1

    def rank(self, pred: str, row: Row) -> int:
        return self._ranks.get((pred, row), -1)

    def explain(self, goal: Atom) -> Optional[Derivation]:
        """A derivation tree for a ground goal, or None when not derived."""
        row = _ground_row(goal)
        if self.program.is_edb(goal.pred):
            if row in self.edb.relation_or_empty(goal.pred, goal.arity):
                return Derivation(goal, None)
            return None
        if row not in self.idb.relation_or_empty(goal.pred, goal.arity):
            return None
        return self._explain_idb(goal.pred, row)

    def _explain_idb(self, pred: str, row: Row) -> Optional[Derivation]:
        goal_rank = self.rank(pred, row)
        goal_atom = Atom(pred, tuple(Constant(v) for v in row))
        for rule in self.program.rules_for(pred):
            derivation = self._explain_via(rule, goal_atom, row, goal_rank)
            if derivation is not None:
                return derivation
        return None  # pragma: no cover - every IDB tuple has a proof

    def _explain_via(self, rule: Rule, goal_atom: Atom, row: Row,
                     goal_rank: int) -> Optional[Derivation]:
        binding: dict[Variable, ConstValue] = {}
        for head_arg, value in zip(rule.head.args, row):
            if isinstance(head_arg, Constant):
                if head_arg.value != value:
                    return None
            elif isinstance(head_arg, Variable):
                if binding.setdefault(head_arg, value) != value:
                    return None
        stats = EvalStats()

        def fetch(atom: Atom, index: int) -> Relation:
            if atom.pred in self.program.idb_predicates:
                return self.idb.relation(atom.pred)
            return self.edb.relation_or_empty(atom.pred, atom.arity)

        for solution in solve_body(rule, fetch, stats, initial=binding):
            # Sub-derivations must be strictly older for IDB subgoals of
            # the same predicate rank, which rules out circular proofs.
            children: list[Derivation] = []
            acceptable = True
            for literal in rule.body:
                if not isinstance(literal, Atom):
                    continue
                sub_row = _instantiate(literal, solution)
                sub_atom = Atom(literal.pred,
                                tuple(Constant(v) for v in sub_row))
                if self.program.is_edb(literal.pred):
                    children.append(Derivation(sub_atom, None))
                    continue
                sub_rank = self.rank(literal.pred, sub_row)
                if sub_rank < 0 or (sub_rank >= goal_rank >= 0):
                    acceptable = False
                    break
                sub_derivation = self._explain_idb(literal.pred, sub_row)
                if sub_derivation is None:
                    acceptable = False
                    break
                children.append(sub_derivation)
            if acceptable:
                return Derivation(goal_atom, rule.label or "?",
                                  tuple(children))
        return None


def _instantiate(atom: Atom, binding) -> Row:
    row = []
    for arg in atom.args:
        if isinstance(arg, Constant):
            row.append(arg.value)
        elif isinstance(arg, Variable):
            row.append(binding[arg])
        else:
            row.append(builtins.eval_term(arg, binding))
    return tuple(row)


def _ground_row(goal: Atom) -> Row:
    row = []
    for arg in goal.args:
        if not isinstance(arg, Constant):
            raise EvaluationError(f"explain needs a ground goal: {goal}")
        row.append(arg.value)
    return tuple(row)


def explain(program: Program, edb: Database, goal: Atom,
            idb: Database | None = None) -> Optional[Derivation]:
    """One-call derivation tree for ``goal`` (None when underivable)."""
    return Explainer(program, edb, idb).explain(goal)


def explain_answer(result, goal: Atom) -> Optional[Derivation]:
    """Derivation tree for a query answer of an ``EvaluationResult``.

    Unlike :func:`explain`, this follows the *rewritten* program the
    result was actually computed with: when the evaluation went through
    a magic rewriting — ``evaluate_with_magic`` or a cost-based
    optimizer choice (:func:`repro.engine.optimizer.cbo_evaluate`) — a
    ground goal on the original predicate is translated to the adorned
    predicate the rewritten program derives, so the proof tree shows
    the magic/adorned rules that actually fired (seed facts appear as
    ``magic_seed`` nodes).
    """
    if result.magic is not None:
        adorned = result.magic.query_pred
        if goal.pred != adorned \
                and adorned.startswith(f"{goal.pred}__"):
            goal = Atom(adorned, goal.args)
    return Explainer(result.program, result.edb,
                     result.idb).explain(goal)
