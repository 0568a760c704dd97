"""High-level evaluation facade.

:func:`evaluate` runs a program over an EDB with the chosen fixpoint
method and returns an :class:`EvaluationResult` bundling the IDB, the
instrumentation counters and query helpers.  This is the public entry
point used by examples, tests and the benchmark harness.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..datalog.atoms import Atom
from ..datalog.parser import parse_query
from ..datalog.program import Program
from ..datalog.terms import Constant, Variable
from ..errors import EvaluationError
from ..facts.database import Database
from ..facts.symbols import validate_interning
from ..runtime.budget import Budget, resolve_budget
from .bindings import EvalStats, validate_planner
from .compile import validate_executor
from .magic import MagicProgram, magic_rewrite
from .naive import naive_evaluate
from .profile import EvalProfile
from .seminaive import DerivationHook, answers, seminaive_evaluate

#: Known fixpoint methods.
METHODS = ("seminaive", "naive")


@dataclass
class EvaluationResult:
    """The outcome of evaluating a program over a database."""

    program: Program
    edb: Database
    idb: Database
    stats: EvalStats
    elapsed_seconds: float
    method: str = "seminaive"
    magic: Optional[MagicProgram] = field(default=None, repr=False)
    executor: str = "compiled"
    #: :class:`repro.engine.optimizer.ChosenPlan` when the cost-based
    #: enumerating optimizer picked the evaluated program.
    choice: Optional[object] = field(default=None, repr=False)

    def facts(self, pred: str) -> frozenset[tuple]:
        """All derived tuples of an IDB predicate."""
        return frozenset(self.idb.facts(pred))

    def count(self, pred: str) -> int:
        return len(self.idb.relation(pred)) if pred in self.idb else 0

    def query(self, text_or_literals) -> set[tuple]:
        """Evaluate a conjunctive query over EDB + IDB.

        Accepts query text (``"p(X, 3), X > 2"``) or parsed literals.
        Returns tuples over the query variables in order of appearance.
        """
        if isinstance(text_or_literals, str):
            literals = parse_query(text_or_literals).literals
        else:
            literals = tuple(text_or_literals)
        return answers(literals, self.program, self.edb, self.idb,
                       self.stats)


def evaluate(program: Program, edb: Database, method: str = "seminaive",
             hook: Optional[DerivationHook] = None,
             planner: str = "greedy",
             budget: Budget | None = None,
             executor: str = "compiled",
             interning: str = "off",
             profile: EvalProfile | None = None) -> EvaluationResult:
    """Evaluate ``program`` bottom-up over ``edb``.

    Args:
        program: the Datalog program.
        edb: the extensional database (never mutated).
        method: ``"seminaive"`` (default) or ``"naive"``.
        hook: optional per-derivation veto hook (semi-naive only); used by
            the residue-guided baseline.
        planner: ``"greedy"`` reorders joins by boundness and size;
            ``"adaptive"`` by the live cardinality statistics of what a
            rule's first firing reads; ``"source"`` keeps database
            atoms in rule order
            (the fixed join orders the paper's era assumed; used by
            experiment E2).  The cost-based enumerating optimizer
            (magic per adornment, residue pushing, linearization,
            fusion) is not a planner: it chooses a whole program at the
            query-bearing entry points
            :func:`repro.engine.optimizer.cbo_evaluate` /
            :func:`repro.engine.optimizer.cbo_answers`.
        budget: optional :class:`repro.runtime.Budget` bounding the run;
            exhaustion or cancellation raises the typed errors of
            :mod:`repro.errors` carrying the partial stats.
        executor: ``"compiled"`` (default) runs rule bodies as cached
            kernels (:mod:`repro.engine.compile`): one generated
            whole-frontier function per body, ``hook`` or not;
            ``"interpreted"`` uses the reference interpreter.  Both
            derive identical databases, and ``derivations``,
            ``duplicate_derivations``, ``iterations`` and
            ``rules_fired`` are equal under every planner.  The
            per-step counters (``atom_lookups``, ``rows_matched``,
            ``comparisons_checked``, ``negation_checks``) are equal
            wherever the join orders coincide (``planner="source"``):
            a kernel is planned once per (rule, variant), at its first
            firing, and the interpreter re-plans every firing.
        interning: ``"on"`` re-encodes the EDB over a shared
            :class:`~repro.facts.symbols.SymbolTable` (one pass) so the
            whole fixpoint joins over dense ``int`` codes; ``"off"``
            (default) evaluates in whatever mode ``edb`` already is —
            an EDB built with :meth:`Database.interned
            <repro.facts.database.Database.interned>` stays interned
            either way.
        profile: optional :class:`~repro.engine.profile.EvalProfile`
            collecting per-kernel wall time and per-round delta sizes
            (semi-naive method only).
    """
    stats = EvalStats()
    if method not in METHODS:
        raise EvaluationError(
            f"unknown method {method!r}; expected one of {METHODS}")
    if method == "naive" and (hook is not None or profile is not None):
        raise EvaluationError(
            "hooks and profiles require the semi-naive method")
    validate_planner(planner)
    validate_executor(executor)
    validate_interning(interning)
    budget = resolve_budget(budget)
    if interning == "on":
        edb = edb.interned()
    start = time.perf_counter()
    if method == "seminaive":
        idb = seminaive_evaluate(program, edb, stats, hook=hook,
                                 planner=planner, budget=budget,
                                 executor=executor, profile=profile)
    else:
        idb = naive_evaluate(program, edb, stats, budget=budget,
                             executor=executor, planner=planner)
    elapsed = time.perf_counter() - start
    return EvaluationResult(program, edb, idb, stats, elapsed, method,
                            executor=executor)


def evaluate_with_magic(program: Program, edb: Database, query: Atom,
                        budget: Budget | None = None,
                        executor: str = "compiled",
                        planner: str = "greedy",
                        interning: str = "off") -> EvaluationResult:
    """Magic-rewrite ``program`` for ``query`` and evaluate the result.

    The returned result's :meth:`EvaluationResult.facts` must be asked for
    the *adorned* query predicate; use :attr:`EvaluationResult.magic` or
    the convenience :func:`magic_answers`.  ``budget`` covers the
    rewriting *and* the evaluation of the rewritten program.
    ``planner`` and ``interning`` are as in :func:`evaluate`.
    """
    validate_planner(planner)
    validate_executor(executor)
    validate_interning(interning)
    budget = resolve_budget(budget)
    if interning == "on":
        edb = edb.interned()
    rewritten = magic_rewrite(program, query, budget=budget)
    stats = EvalStats()
    start = time.perf_counter()
    idb = seminaive_evaluate(rewritten.program, edb, stats, budget=budget,
                             executor=executor, planner=planner)
    elapsed = time.perf_counter() - start
    return EvaluationResult(rewritten.program, edb, idb, stats, elapsed,
                            method="seminaive+magic", magic=rewritten,
                            executor=executor)


def magic_answers(program: Program, edb: Database, query: Atom,
                  budget: Budget | None = None,
                  executor: str = "compiled",
                  planner: str = "greedy",
                  interning: str = "off") -> frozenset[tuple]:
    """Answers to ``query`` (full tuples) computed via magic sets."""
    result = evaluate_with_magic(program, edb, query, budget=budget,
                                 executor=executor, planner=planner,
                                 interning=interning)
    assert result.magic is not None
    # Magic guarantees relevance, but the adorned relation may hold
    # tuples for every seed binding: select on the query all the same.
    return select_answers(result.idb, query, pred=result.magic.query_pred)


def select_answers(source: Database, query: Atom,
                   pred: str | None = None) -> frozenset[tuple]:
    """The rows of ``source`` that answer the single-atom ``query``.

    The one answer selection of the query-bearing entry points: the
    query's constants go to :meth:`Relation.lookup
    <repro.facts.relation.Relation.lookup>` as a bound-column pattern —
    encoded once, one hash probe, only the matches decoded — and each
    repeated variable costs one equality check per matching row.
    ``pred`` names the relation to read when it is not the query's own
    (the adorned predicate of a magic rewrite).  An unknown relation
    has no rows; one of another arity than the query is an error.
    """
    name = query.pred if pred is None else pred
    if name not in source:
        return frozenset()
    relation = source.relation(name)
    if relation.arity != query.arity:
        raise EvaluationError(
            f"query {query} has arity {query.arity}, but relation "
            f"{name!r} has arity {relation.arity}")
    rows = relation.lookup(tuple(
        (column, arg.value) for column, arg in enumerate(query.args)
        if isinstance(arg, Constant)))
    first: dict[Variable, int] = {}
    repeats = []
    for column, arg in enumerate(query.args):
        if isinstance(arg, Variable) \
                and first.setdefault(arg, column) != column:
            repeats.append((first[arg], column))
    if repeats:
        rows = [row for row in rows
                if all(row[i] == row[j] for i, j in repeats)]
    return frozenset(rows)

