"""Semi-naive bottom-up evaluation with delta relations.

This is the engine the paper's evaluation-paradigm comparison assumes
("the various subqueries computed in an iteration of the bottom-up
evaluation loop", Section 1).  Per stratum:

1. *Initialization round*: every rule fires once, in program order,
   against the materialized lower strata and whatever earlier rules of
   the round have put into the stratum's own relations, seeding the
   deltas.  A stratum none of whose rules reads a same-stratum atom is
   complete after this round and keeps no delta at all.
2. *Delta rounds* (:func:`delta_rounds`): a rule with ``k`` body
   occurrences of predicates holding a delta is fired ``k`` times, each
   time redirecting one occurrence to the delta of the previous round.
   For linear rules — the paper's setting — ``k = 1`` and this is the
   textbook optimal schedule.  The same loop runs every pass of
   incremental maintenance (:mod:`repro.incremental.maintain`), with the
   changed rows as the first round's deltas: the repo has one round
   schedule, bounded by :func:`~repro.runtime.budget.check_round`.

A per-rule *hook* lets :mod:`repro.baselines.guided` inject residue checks
into each iteration, which is exactly where the run-time overhead of the
evaluation-based approach lives.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Collection, Iterable, Optional, Sequence

from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Variable
from ..facts.database import Database
from ..facts.relation import Relation, Row
from ..runtime.budget import Budget, check_round, resolve_budget
from .bindings import (Binding, EvalStats, Fetch, check_edb_arities,
                       frontier_occurrences, solve_body)
from .compile import KernelCache
from .fire import Firer
from .profile import EvalProfile
from .stratify import is_recursive_stratum, stratify

#: Optional per-derivation hook: ``hook(rule, binding, round) -> bool`` —
#: return False to suppress the derivation (used by residue-guided
#: evaluation).  ``round`` counts delta rounds within the stratum: 0 for
#: the initialization round.  It is a *lower bound* on how often a
#: linear recursion's recursive rule was applied beneath the derivation,
#: not the count: rules fired later within a round already see what
#: earlier rules of the same round derived (the recursive rule reads the
#: exit rule's output in round 0), so a tuple derived in round ``j``
#: used the recursive rule at least ``j`` times.
DerivationHook = Callable[[Rule, Binding, int], bool]

#: One firing of a delta round: ``fire(rule, index, fetch, round)``
#: fires ``rule`` with body occurrence ``index`` reading its delta
#: through ``fetch`` and returns the rows that are new — duplicate-free,
#: and new to whatever the firing put them into.
DeltaFire = Callable[[Rule, int, Fetch, int], Collection[Row]]


def seminaive_evaluate(program: Program, edb: Database,
                       stats: EvalStats | None = None,
                       hook: Optional[DerivationHook] = None,
                       planner: str = "greedy",
                       budget: Budget | None = None,
                       executor: str = "compiled",
                       profile: EvalProfile | None = None,
                       kernels: KernelCache | None = None,
                       ) -> Database:
    """Compute the IDB of ``program`` over ``edb`` semi-naively.

    Returns a new :class:`Database` of IDB relations.  ``hook``, when
    given, is consulted before each head insertion and may veto it.
    ``budget`` (explicit or ambient, see :mod:`repro.runtime.budget`)
    bounds the run; exhaustion raises :class:`BudgetExceededError`
    carrying the partial stats and the last completed delta round.

    ``executor`` selects how rule bodies run: ``"compiled"`` (default)
    lowers each rule once per (stratum, delta-variant) into a kernel
    (:mod:`repro.engine.compile`) reused across all rounds — one
    generated whole-frontier function per body, with a closing hook
    filter when ``hook`` is given;
    ``"interpreted"`` keeps the reference
    :func:`~repro.engine.bindings.solve_body` interpreter, the
    semantics oracle.  Both derive identical databases with equal
    ``derivations``, ``duplicate_derivations``, ``iterations`` and
    ``rules_fired`` under every planner; the per-step counters
    (``atom_lookups``, ``rows_matched``, ``comparisons_checked``,
    ``negation_checks``) are equal wherever the join orders coincide
    (``planner="source"``), because a kernel's plan is fixed per
    (rule, variant) at its first firing while the interpreter re-plans
    every firing.  Hooks, chaos injection and budgets behave
    identically under either (one firing path,
    :mod:`repro.engine.fire`).  The compiled executor inserts a pure
    copy rule ``p(X̄) :- q(X̄)`` as one set union of ``q``'s stored
    rows — same counters — whenever no hook, chaos plan or
    derivation/fact limit has to see the rows one at a time.

    ``profile``, when given, accumulates per-kernel wall time and
    per-round delta sizes (:class:`~repro.engine.profile.EvalProfile`).

    ``planner`` orders joins: ``"greedy"`` (default) by boundness and
    relation size, ``"adaptive"`` by statistics-estimated selectivity
    (compiled executor; falls back to greedy order under the
    interpreter), ``"source"`` keeps atoms in rule order.  A compiled
    kernel is planned once, from what its first firing reads.

    Storage follows the EDB: when ``edb`` is interned (carries a
    :class:`~repro.facts.symbols.SymbolTable`) the IDB and deltas share
    its table and compiled kernels join over dense ``int`` codes,
    inserting derived rows without ever decoding them.

    ``kernels`` lets a caller reuse compiled kernels across runs, with
    the contract of :func:`repro.incremental.maintain`'s: the cache must
    be compiled against ``edb``'s symbol table and needs
    ``executor="compiled"`` (else ``EvaluationError``), and a kernel is
    planned at its key's first firing, which may be an earlier run's.
    """
    stats = stats if stats is not None else EvalStats()
    firer = Firer(planner, executor, edb.symbols, stats,
                  resolve_budget(budget), hook, kernels=kernels)
    check_edb_arities(program, edb)
    arities = program.predicate_arities()
    idb = Database(symbols=edb.symbols)
    for pred in program.idb_predicates:
        idb.ensure(pred, arities[pred])
    for stratum in stratify(program):
        _evaluate_stratum(program, stratum, edb, idb, firer, profile)
    return idb


def delta_rounds(rules: Sequence[Rule], deltas: dict[str, Relation],
                 read: Fetch, firer: Firer, fire: DeltaFire, where: str,
                 profile: EvalProfile | None = None) -> None:
    """Semi-naive delta rounds over ``rules`` until no delta is left.

    Each round, numbered from 1, first passes the round boundary
    (:func:`~repro.runtime.budget.check_round`; ``where`` names the
    schedule), then calls ``fire(rule, index, fetch, round)`` for every
    rule and every body atom whose predicate has a non-empty delta:
    ``fetch`` reads that delta at occurrence ``index`` and ``read`` at
    every other.  The rows ``fire`` returns make up the next round's
    delta of the rule's head predicate.  ``profile``, when given,
    records each round's delta sizes.
    """
    heads = {rule.head.pred: rule.head.arity for rule in rules}
    rounds = 0
    while any(len(delta) for delta in deltas.values()):
        rounds += 1
        check_round(firer.budget, firer.stats, rounds, where)
        next_deltas = {pred: Relation(pred, arity, symbols=firer.symbols)
                       for pred, arity in heads.items()}
        for rule in rules:
            for index, lit in enumerate(rule.body):
                if not isinstance(lit, Atom) \
                        or not len(deltas.get(lit.pred, ())):
                    continue

                def fetch(atom: Atom, occurrence: int,
                          _index: int = index) -> Relation:
                    if occurrence == _index:
                        return deltas[atom.pred]
                    return read(atom, occurrence)

                new_rows = fire(rule, index, fetch, rounds)
                if new_rows:
                    next_deltas[rule.head.pred].raw_merge(new_rows)
                # Dropped here, not held beside the next firing's rows.
                del new_rows
        deltas = next_deltas
        if profile is not None:
            profile.record_round(rounds, {pred: len(rel)
                                          for pred, rel in deltas.items()})


def _copied_atom(rule: Rule) -> Atom | None:
    """The body atom of a pure copy rule ``p(X̄) :- q(X̄)`` — one
    positive atom over distinct variables, handed to the head as they
    stand — or None for any other rule."""
    if len(rule.body) != 1:
        return None
    (source,) = rule.body
    if isinstance(source, Atom) and source.args == rule.head.args \
            and all(isinstance(arg, Variable) for arg in source.args) \
            and len(set(source.args)) == len(source.args):
        return source
    return None


def _evaluate_stratum(program: Program, stratum: frozenset[str],
                      edb: Database, idb: Database, firer: Firer,
                      profile: EvalProfile | None) -> None:
    stats = firer.stats
    rules = [r for r in program if r.head.pred in stratum]
    # Unlabeled rules must not collapse into one per-head bucket: key
    # rule_rows by label when present, else by head predicate and the
    # rule's position within the stratum.
    rule_keys = {id(rule): rule.label or f"{rule.head.pred}#{index}"
                 for index, rule in enumerate(rules)}
    # A stratum none of whose rules reads a same-stratum atom is
    # saturated by its initialization round: it keeps no delta (nothing
    # would read one) and needs no closing round to find that out.
    recursive = is_recursive_stratum(stratum, rules)
    # A copy rule's derived rows *are* its source's row set, so the
    # insert is one set union — unless something must see the rows one
    # at a time.
    copied: dict[int, Atom | None] = {
        id(rule): _copied_atom(rule) for rule in rules} \
        if firer.whole_sets else {}

    def base_fetch(atom: Atom, index: int) -> Relation:
        if atom.pred in program.idb_predicates:
            return idb.relation(atom.pred)
        return edb.relation_or_empty(atom.pred, atom.arity)

    def fire(rule: Rule, variant: int | None, fetch: Fetch,
             round_index: int) -> Collection[Row]:
        rows_before = stats.rows_matched
        fire_start = perf_counter() if profile is not None else 0.0
        # Buffer insertions so the body scan sees a snapshot of the
        # relations (a rule may read the relation it writes).
        derived: Collection[Row]
        source = copied.get(id(rule))
        if source is not None:
            derived = fetch(source, 0).raw_rows()
            stats.rules_fired += 1
            stats.atom_lookups += 1
            stats.rows_matched += len(derived)
        else:
            # Greedy ranks base relations in every round and never
            # looks at a delta, so the frontier rule reaches it where a
            # base relation *is* the frontier: round 0.
            derived = firer.run(
                rule, fetch, variant,
                frontier_occurrences(rule, stratum, variant),
                ranked=None if variant is None else base_fetch,
                round_index=round_index)
        merge_start = perf_counter() if profile is not None else 0.0
        key = rule_keys[id(rule)]
        stats.rule_rows[key] = stats.rule_rows.get(key, 0) \
            + stats.rows_matched - rows_before
        new_rows = firer.merge(derived, idb.relation(rule.head.pred),
                               last_round=max(round_index - 1, 0))
        if profile is not None:
            done = perf_counter()
            # Solutions, counting the ones a folding kernel returned as
            # repeats of its rows.
            profile.record_fire(
                key if variant is None else f"{key}@d{variant}",
                merge_start - fire_start, done - merge_start,
                len(derived) + getattr(derived, "repeats", 0))
        return new_rows

    def initialization_round() -> dict[str, Relation]:
        deltas = {pred: Relation(pred, idb.relation(pred).arity,
                                 symbols=idb.symbols)
                  for pred in stratum} if recursive else {}
        stats.iterations += 1
        for rule in rules:
            new_rows = fire(rule, None, base_fetch, 0)
            delta = deltas.get(rule.head.pred)
            if new_rows and delta is not None:
                delta.raw_merge(new_rows)
            del new_rows
        if profile is not None:
            # Every relation of the stratum was empty before this round,
            # so its size is its round-0 frontier, delta kept or not.
            profile.record_round(0, {pred: len(idb.relation(pred))
                                     for pred in stratum})
        return deltas

    # Passed straight from the call: no local here holds the round-0
    # deltas while the delta rounds run.
    delta_rounds(rules, initialization_round(), base_fetch, firer, fire,
                 "semi-naive evaluation", profile)


def answers(query_literals: Iterable, program: Program, edb: Database,
            idb: Database, stats: EvalStats | None = None) -> set[tuple]:
    """Evaluate a conjunctive query over ``edb + idb``.

    Returns the set of tuples of values for the query's *distinguished
    variables* — the variables of the query literals in order of first
    appearance.
    """
    stats = stats if stats is not None else EvalStats()
    literals = tuple(query_literals)
    distinguished: list[Variable] = []
    for lit in literals:
        for var in lit.variables():
            if var not in distinguished:
                distinguished.append(var)

    def fetch(atom: Atom, index: int) -> Relation:
        if atom.pred in program.idb_predicates:
            return idb.relation(atom.pred)
        return edb.relation_or_empty(atom.pred, atom.arity)

    probe = Rule(Atom("__query__", tuple(distinguished)), literals)
    results: set[tuple] = set()
    for binding in solve_body(probe, fetch, stats):
        results.add(tuple(binding[v] for v in distinguished))
    return results
