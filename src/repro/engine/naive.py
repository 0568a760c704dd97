"""Naive bottom-up fixpoint evaluation (reference implementation).

Re-evaluates every rule against the full relations each round until
nothing new is derived.  Quadratically redundant, but its simplicity makes
it the oracle that the semi-naive engine (and every program
transformation) is property-tested against.
"""

from __future__ import annotations

from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..facts.database import Database
from ..facts.relation import Relation
from ..runtime.budget import Budget, check_round, resolve_budget
from .bindings import EvalStats, check_edb_arities
from .fire import Firer
from .stratify import stratify


def naive_evaluate(program: Program, edb: Database,
                   stats: EvalStats | None = None,
                   budget: Budget | None = None,
                   executor: str = "compiled",
                   planner: str = "greedy") -> Database:
    """Compute the IDB of ``program`` over ``edb`` naively.

    Returns a new :class:`Database` containing only IDB relations; the EDB
    is never mutated.  ``budget`` (explicit or ambient, see
    :mod:`repro.runtime.budget`) bounds the run; exhaustion raises
    :class:`BudgetExceededError` carrying the partial stats.

    ``executor="compiled"`` (default) lowers each rule once into a
    slot-based kernel (:mod:`repro.engine.compile`) reused across all
    rounds; ``"interpreted"`` keeps the reference interpreter.
    ``planner`` is as in :func:`~repro.engine.seminaive
    .seminaive_evaluate`; every round reads full relations, so no
    occurrence is a frontier.  Storage follows the EDB: an interned EDB
    yields an interned IDB sharing its symbol table.
    """
    stats = stats if stats is not None else EvalStats()
    budget = resolve_budget(budget)
    firer = Firer(planner, executor, edb.symbols, stats, budget)
    check_edb_arities(program, edb)
    arities = program.predicate_arities()
    idb = Database(symbols=edb.symbols)
    for pred in program.idb_predicates:
        idb.ensure(pred, arities[pred])

    def fetch(atom: Atom, index: int) -> Relation:
        if atom.pred in program.idb_predicates:
            return idb.relation(atom.pred)
        return edb.relation_or_empty(atom.pred, atom.arity)

    for stratum in stratify(program):
        rules = [r for r in program if r.head.pred in stratum]
        changed = True
        rounds = 0
        while changed:
            rounds += 1
            check_round(budget, stats, rounds, "naive evaluation")
            changed = False
            for rule in rules:
                # The firing is buffered, so the body scan sees a
                # snapshot of the relation the merge then writes.
                derived = firer.run(rule, fetch)
                if firer.merge(derived, idb.relation(rule.head.pred),
                               last_round=rounds - 1):
                    changed = True
    return idb
