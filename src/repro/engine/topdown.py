"""Tabled top-down evaluation (SLD resolution with memoization).

The paper's Section 1 frames two paradigms for recursive query
processing — evaluation (semi-naive) and rewriting (magic sets) — and its
optimization targets the *proof trees* a program generates.  Top-down
evaluation materializes exactly those proof trees on demand, which makes
it the setting where subtree pruning pays directly: a pushed guard stops
the expansion of a doomed subtree before its subgoals are ever called
(experiment E9).

The engine is a classic tabling scheme:

- a *table* per subgoal call pattern ``(pred, bound-argument tuple)``
  caches the answers produced so far;
- recursive calls that hit an in-progress table consume its current
  answers and are resumed when new answers arrive (semi-naive style
  fixpoint over the call graph, implemented as an outer iteration);
- comparisons evaluate as soon as their variables are bound, and ``=``
  may bind, exactly as in the bottom-up engine.

Supported: positive programs with evaluable atoms (the class the paper
optimizes).  Negation is not supported top-down; use the bottom-up
engine for stratified programs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterator

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Constant, ConstValue, Variable
from ..errors import EvaluationError
from ..facts.database import Database
from ..facts.relation import Relation, Row
from ..runtime import chaos
from ..runtime.budget import Budget, check_round, resolve_budget
from . import builtins
from .bindings import EvalStats, _match_row

#: A call pattern: which argument positions are bound, and to what.
CallKey = tuple[str, tuple[tuple[int, ConstValue], ...]]


@dataclass
class _Table:
    """Answers accumulated for one call pattern."""

    answers: set[Row] = field(default_factory=set)
    complete: bool = False


@dataclass
class TopDownResult:
    """Result of a top-down query."""

    answers: frozenset[Row]
    stats: EvalStats
    elapsed_seconds: float
    tables: int

    def project(self, query: Atom) -> frozenset[tuple]:
        """Rows filtered to the query's constant positions."""
        keep = []
        for row in self.answers:
            ok = True
            binding: dict[Variable, ConstValue] = {}
            for value, arg in zip(row, query.args):
                if isinstance(arg, Constant):
                    if arg.value != value:
                        ok = False
                        break
                elif isinstance(arg, Variable):
                    if binding.setdefault(arg, value) != value:
                        ok = False
                        break
            if ok:
                keep.append(row)
        return frozenset(keep)


class TabledEvaluator:
    """Tabled SLD evaluation of one program over one database."""

    def __init__(self, program: Program, edb: Database,
                 budget: Budget | None = None) -> None:
        for rule in program:
            if any(isinstance(lit, Negation) for lit in rule.body):
                raise EvaluationError(
                    "the top-down engine does not support negation")
        self.program = program
        self.edb = edb
        self.budget = resolve_budget(budget)
        self._chaos = chaos.active_plan()
        self._round = 0
        # Derivation events until the next budget checkpoint (the
        # countdown of ``Firer._merge_rows``).
        self._countdown = 0
        self.stats = EvalStats()
        self._tables: dict[CallKey, _Table] = {}
        self._changed = False

    # -- public API ---------------------------------------------------------
    def query(self, goal: Atom) -> TopDownResult:
        """Answer a single-atom query."""
        start = time.perf_counter()
        key = self._call_key(goal)
        rounds = 0
        while True:
            rounds += 1
            self._round = rounds
            check_round(self.budget, self.stats, rounds,
                        "top-down evaluation")
            self._changed = False
            self._in_progress: set[CallKey] = set()
            self._solve_call(goal, key)
            if not self._changed:
                break
        table = self._tables[key]
        table.complete = True
        elapsed = time.perf_counter() - start
        return TopDownResult(frozenset(table.answers), self.stats,
                             elapsed, len(self._tables))

    # -- internals -------------------------------------------------------------
    @staticmethod
    def _call_key(goal: Atom) -> CallKey:
        bound = tuple((index, arg.value)
                      for index, arg in enumerate(goal.args)
                      if isinstance(arg, Constant))
        return (goal.pred, bound)

    def _solve_call(self, goal: Atom, key: CallKey) -> _Table:
        table = self._tables.get(key)
        if table is None:
            table = _Table()
            self._tables[key] = table
        if key in self._in_progress or table.complete:
            return table
        self._in_progress.add(key)
        for rule in self.program.rules_for(goal.pred):
            self._expand(rule, goal, table)
        return table

    def _expand(self, rule: Rule, goal: Atom, table: _Table) -> None:
        """Resolve ``goal`` against one rule and collect head answers."""
        self.stats.rules_fired += 1
        # Bind head variables from the goal's constants.  Rectified
        # heads make this a plain assignment; repeated variables and
        # head constants are checked.
        binding: dict[Variable, ConstValue] = {}
        for head_arg, goal_arg in zip(rule.head.args, goal.args):
            if not isinstance(goal_arg, Constant):
                continue
            if isinstance(head_arg, Constant):
                if head_arg.value != goal_arg.value:
                    return
            elif isinstance(head_arg, Variable):
                known = binding.setdefault(head_arg, goal_arg.value)
                if known != goal_arg.value:
                    return
        for solution in self._solve_body(rule, list(rule.body), binding):
            row = []
            for head_arg in rule.head.args:
                if isinstance(head_arg, Constant):
                    row.append(head_arg.value)
                else:
                    try:
                        row.append(solution[head_arg])
                    except KeyError:
                        raise EvaluationError(
                            f"rule {rule.label or rule} is not range "
                            "restricted") from None
            materialized = tuple(row)
            if self._chaos is not None:
                self._chaos.derivation()
            if materialized not in table.answers:
                table.answers.add(materialized)
                self.stats.derivations += 1
                self._changed = True
            else:
                self.stats.duplicate_derivations += 1
            if self.budget is not None:
                self._countdown -= 1
                if self._countdown <= 0:
                    self._countdown = self.budget.checkpoint(
                        self.stats, last_round=max(self._round - 1, 0))

    def _solve_body(self, rule: Rule, body: list,
                    binding: dict[Variable, ConstValue]
                    ) -> Iterator[dict[Variable, ConstValue]]:
        """Left-to-right SLD over the body with eager comparisons."""
        if not body:
            yield binding
            return
        # Run any decidable comparison first (selection pushdown).
        for index, literal in enumerate(body):
            if isinstance(literal, Comparison):
                bound_vars = set(binding)
                if builtins.can_check(literal, bound_vars) or \
                        builtins.can_bind(literal, bound_vars):
                    self.stats.comparisons_checked += 1
                    extended = builtins.solve(literal, binding)
                    if extended is None:
                        return
                    rest = body[:index] + body[index + 1:]
                    yield from self._solve_body(rule, rest, extended)
                    return
        # Otherwise take the first database atom.
        for index, literal in enumerate(body):
            if isinstance(literal, Atom):
                rest = body[:index] + body[index + 1:]
                for extended in self._solve_atom(literal, binding):
                    yield from self._solve_body(rule, rest, extended)
                return
        # Only undecidable comparisons remain: the rule is unsafe.
        stuck = ", ".join(str(lit) for lit in body)
        raise EvaluationError(
            f"unsafe rule {rule.label or rule}: cannot evaluate {stuck}")

    def _solve_atom(self, atom: Atom,
                    binding: dict[Variable, ConstValue]
                    ) -> Iterator[dict[Variable, ConstValue]]:
        grounded = self._ground(atom, binding)
        if atom.pred in self.program.idb_predicates:
            key = self._call_key(grounded)
            table = self._solve_call(grounded, key)
            rows: Iterator[Row] = iter(sorted(table.answers))
            self.stats.atom_lookups += 1
            for row in rows:
                extended = _match_row(atom, row, binding)
                if extended is not None:
                    self.stats.rows_matched += 1
                    yield extended
            return
        relation: Relation = self.edb.relation_or_empty(
            atom.pred, atom.arity)
        pattern = tuple(
            (index, arg.value)
            for index, arg in enumerate(grounded.args)
            if isinstance(arg, Constant))
        self.stats.atom_lookups += 1
        for row in relation.lookup(pattern):
            extended = _match_row(atom, row, binding)
            if extended is not None:
                self.stats.rows_matched += 1
                yield extended

    def _ground(self, atom: Atom,
                binding: dict[Variable, ConstValue]) -> Atom:
        args = []
        for arg in atom.args:
            if isinstance(arg, Variable) and arg in binding:
                args.append(Constant(binding[arg]))
            else:
                args.append(arg)
        return Atom(atom.pred, tuple(args))


def topdown_query(program: Program, edb: Database, goal: Atom,
                  budget: Budget | None = None) -> TopDownResult:
    """One-call tabled top-down evaluation of ``goal``."""
    return TabledEvaluator(program, edb, budget=budget).query(goal)
