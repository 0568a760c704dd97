"""Naive bottom-up fixpoint evaluation (reference implementation).

Re-evaluates every rule against the full relations each round until
nothing new is derived.  Quadratically redundant, but its simplicity makes
it the oracle that the semi-naive engine (and every program
transformation) is property-tested against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..errors import BudgetExceededError
from ..facts.database import Database
from ..facts.relation import Relation
from ..runtime import chaos
from ..runtime.budget import Budget, resolve_budget
from .bindings import (EvalStats, check_edb_arities, instantiate_head,
                       solve_body, validate_planner)
from .compile import KernelCache, validate_executor
from .stratify import stratify

if TYPE_CHECKING:
    from ..analysis.dataflow import DataflowResult

#: Safety valve for runaway fixpoints (e.g. value-inventing arithmetic).
DEFAULT_MAX_ITERATIONS = 100_000


def naive_evaluate(program: Program, edb: Database,
                   stats: EvalStats | None = None,
                   max_iterations: int = DEFAULT_MAX_ITERATIONS,
                   budget: Budget | None = None,
                   executor: str = "compiled",
                   planner: str = "greedy",
                   dataflow: "DataflowResult | None" = None) -> Database:
    """Compute the IDB of ``program`` over ``edb`` naively.

    Returns a new :class:`Database` containing only IDB relations; the EDB
    is never mutated.  ``budget`` (explicit or ambient, see
    :mod:`repro.runtime.budget`) bounds the run; exhaustion raises
    :class:`BudgetExceededError` carrying the partial stats.

    ``executor="compiled"`` (default) lowers each rule once into a
    slot-based kernel (:mod:`repro.engine.compile`) reused across all
    rounds; ``"interpreted"`` keeps the reference interpreter.
    ``planner`` is as in :func:`~repro.engine.seminaive
    .seminaive_evaluate`.  Storage follows the EDB: an interned EDB
    yields an interned IDB sharing its symbol table.
    """
    stats = stats if stats is not None else EvalStats()
    validate_executor(executor)
    validate_planner(planner)
    check_edb_arities(program, edb)
    budget = resolve_budget(budget)
    chaos_plan = chaos.active_plan()
    arities = program.predicate_arities()
    idb = Database(symbols=edb.symbols)
    for pred in program.idb_predicates:
        idb.ensure(pred, arities[pred])

    def fetch(atom: Atom, index: int) -> Relation:
        if atom.pred in program.idb_predicates:
            return idb.relation(atom.pred)
        return edb.relation_or_empty(atom.pred, atom.arity)

    def sizes(atom: Atom, index: int) -> int:
        return len(fetch(atom, index))

    def cost(atom: Atom, index: int,
             bound_cols: tuple[int, ...]) -> float:
        relation = fetch(atom, index)
        if dataflow is not None and not len(relation):
            # Cold statistics: seed from the static size bounds.
            return dataflow.probe_estimate(atom.pred, bound_cols)
        return relation.probe_estimate(bound_cols)

    keep_atom_order = planner == "source"
    # planner="cbo" reuses the adaptive cost path: rewrite enumeration
    # happens before evaluation (:mod:`repro.engine.optimizer`).
    adaptive = planner in ("adaptive", "cbo")
    kernels = None
    if executor != "interpreted":
        kernels = KernelCache(keep_atom_order=keep_atom_order,
                              symbols=edb.symbols, adaptive=adaptive,
                              true_checks=dataflow.true_checks
                              if dataflow is not None else None)
    for stratum in stratify(program):
        # Provably-dead rules derive no rows under any join order, so
        # skipping them leaves every counter and ordinal unchanged.
        rules = [r for r in program if r.head.pred in stratum
                 and not (dataflow is not None and dataflow.is_dead(r))]
        changed = True
        rounds = 0
        while changed:
            rounds += 1
            stats.iterations += 1
            if rounds > max_iterations:
                raise BudgetExceededError(
                    f"naive evaluation exceeded {max_iterations} rounds",
                    resource="rounds", limit=max_iterations,
                    spent=rounds - 1, stats=stats, last_round=rounds - 1)
            if budget is not None:
                budget.check_round(stats, last_round=rounds - 1)
            changed = False
            for rule in rules:
                stats.rules_fired += 1
                target = idb.relation(rule.head.pred)
                # Buffer insertions so the body scan sees a snapshot.
                if kernels is not None:
                    kernel = kernels.kernel(
                        rule, None, sizes,
                        cost=cost if adaptive else None)
                    derived = kernel.execute(fetch, stats)
                    target_add = target.raw_add
                else:
                    derived = [instantiate_head(rule, binding)
                               for binding in solve_body(
                                   rule, fetch, stats,
                                   keep_atom_order=keep_atom_order)]
                    target_add = target.add
                if kernels is not None and chaos_plan is None:
                    # Bulk insert (see the semi-naive engine): one
                    # C-level set difference per budget window, same
                    # counter totals as the sequential path.
                    position, total = 0, len(derived)
                    while position < total:
                        if budget is not None:
                            countdown = budget.checkpoint(
                                stats, last_round=rounds - 1)
                            chunk = derived[position:position
                                            + max(countdown, 1)]
                        else:
                            chunk = derived if position == 0 \
                                else derived[position:]
                        position += len(chunk)
                        new_rows = target.raw_merge_new(chunk)
                        if new_rows:
                            stats.derivations += len(new_rows)
                            changed = True
                        stats.duplicate_derivations += \
                            len(chunk) - len(new_rows)
                    continue
                countdown = budget.checkpoint(stats,
                                              last_round=rounds - 1) \
                    if budget is not None else 0
                for row in derived:
                    if chaos_plan is not None:
                        chaos_plan.derivation()
                    if target_add(row):
                        stats.derivations += 1
                        changed = True
                    else:
                        stats.duplicate_derivations += 1
                    if budget is not None:
                        countdown -= 1
                        if countdown <= 0:
                            countdown = budget.checkpoint(
                                stats, last_round=rounds - 1)
    if kernels is not None:
        stats.replans += kernels.replans
    return idb
