"""Delta-driven maintenance of materialized IDB relations.

Every evaluation engine in this repo computes a fixpoint from an
immutable EDB snapshot.  This module keeps an already-computed IDB
*live* under EDB changesets instead of recomputing it:

* **Insertions** re-enter the semi-naive loop with the inserted rows as
  the first round's deltas — the delta rounds that run inside one
  evaluation (:func:`~repro.engine.seminaive.delta_rounds`), and
  compiled kernels kept across EDB versions (see
  :mod:`repro.engine.compile`), which is the fixpoint-maintenance
  reading of semi-naive evaluation (Zaniolo et al., PAPERS.md).
* **Deletions** use *DRed* — delete-and-rederive — in every stratum,
  recursive or not: overdelete everything the deleted rows could have
  supported, then rederive what still has a proof from the reduced
  database.

Every pass that closes over a delta — insertion, DRed's overdeletion
and its propagation of rederived rows — is one
:func:`~repro.engine.seminaive.delta_rounds` call: the same round loop
and round bound (:func:`~repro.runtime.budget.check_round`) as
evaluation, with only the firing its own.  A pass's first round fires
the changed rows, its later rounds what the previous round added, and
each round counts in ``stats.iterations``.

Both passes run stratum by stratum.  A changeset with deletions runs a
full deletion pass first (taking the database from the pre state to the
"mid" state ``db - deletes``), then an insertion pass (mid to post);
each pass is exact for monotone rules, and their composition covers
mixed changesets.  Programs where a changed predicate can reach a
*negated* occurrence are rejected with
:class:`~repro.errors.IncrementalUnsupported` — deletions can then grow
relations and neither pass bounds the effect — and the serving layer
(:mod:`repro.serving`) falls back to full recomputation.

Neither pass needs an exact delta partition.  The insertion pass reads
the delta at one occurrence and the current state everywhere else,
exactly like the in-evaluation semi-naive rounds; the overdeletion pass
reads the *before* state at every other occurrence of a changed
predicate, so it finds every derivation a deleted row took part in —
a superset that the sets absorb and rederivation corrects.

No state is copied.  Every firing reads the live relations with the
changed rows toggled in place, at O(|Δ|) and with every live index kept
current: the EDB inserts are out for the deletion pass (post → mid),
each stratum's overdeletion has the changed predicates' deleted rows
back in (mid → before), and the insertion pass reads the post state.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Collection, Iterable, Iterator

from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..datalog.rules import Negation, Rule
from ..datalog.terms import Constant, ConstValue
from ..errors import EvaluationError, IncrementalUnsupported
from ..facts.changelog import Changeset
from ..facts.database import Database
from ..facts.relation import Relation, Row
from ..runtime.budget import Budget, resolve_budget
from ..engine.bindings import (EvalStats, Fetch, check_edb_arities,
                               validate_planner)
from ..engine.compile import KernelCache
from ..engine.fire import Firer
from ..engine.seminaive import DeltaFire, delta_rounds
from ..engine.stratify import stratify


@dataclass
class MaintenanceResult:
    """What one :func:`maintain` call did to the materialized IDB."""

    #: Net rows added per IDB predicate, in the storage domain (codes
    #: when interned).  These are the sets the run accumulated, not
    #: copies: read-only to the caller.
    added_rows: dict[str, set[Row]] = field(default_factory=dict)
    #: Net rows removed per IDB predicate, likewise.  A row the deletion
    #: pass removed and the insertion pass derived again is in both
    #: sets, so a consumer replaying the delta applies removals first.
    removed_rows: dict[str, set[Row]] = field(default_factory=dict)
    stats: EvalStats = field(default_factory=EvalStats)

    def total_added(self) -> int:
        return sum(len(rows) for rows in self.added_rows.values())

    def total_removed(self) -> int:
        return sum(len(rows) for rows in self.removed_rows.values())

    def __repr__(self) -> str:
        return (f"MaintenanceResult(+{self.total_added()}, "
                f"-{self.total_removed()})")


def maintain(program: Program, edb: Database, idb: Database,
             changeset: Changeset,
             stats: EvalStats | None = None,
             planner: str = "greedy",
             executor: str = "compiled",
             budget: Budget | None = None,
             kernels: KernelCache | None = None) -> MaintenanceResult:
    """Bring ``idb`` current after ``changeset`` was applied to ``edb``.

    ``edb`` must already be in the *post*-changeset state (as left by
    :meth:`repro.facts.changelog.VersionedDatabase.apply`) and
    ``changeset`` must be the *effective* delta: every delete was
    present before, every insert absent, and the two sets are disjoint.
    ``idb`` — the materialization of ``program`` over the pre state —
    is updated **in place**.  The earlier states the delta passes read
    are ``edb`` itself with the changeset's rows toggled in place, so
    ``edb`` is **mutated during the call** and is in its post state
    again whenever the call returns or raises.  No other thread may
    read it meanwhile; the serving layer ensures that (readers see only
    published snapshots, and one writer at a time applies and
    refreshes).  Callers keep no per-row bookkeeping between calls.

    ``kernels`` lets a serving layer reuse compiled rule kernels
    across refreshes.  ``planner`` is validated as in
    :func:`~repro.engine.evaluate`; ``"source"`` keeps body atoms in
    rule order and the other two plan greedily over delta-aware sizes —
    each occurrence ranked by the relation its pass reads (the delta for
    the redirected one), which is what a firing that joins a small delta
    against converged relations needs.  Each kernel is planned at its
    first firing; with ``kernels`` that may be an earlier refresh's.
    Raises
    :class:`~repro.errors.IncrementalUnsupported` when a changed
    predicate can reach a negated occurrence; raises
    :class:`~repro.errors.EvaluationError` when the changeset touches
    an IDB predicate.
    """
    validate_planner(planner)
    firer = Firer(planner if planner == "source" else "greedy", executor,
                  edb.symbols, stats if stats is not None else EvalStats(),
                  resolve_budget(budget), kernels=kernels)
    check_edb_arities(program, edb)
    derived = changeset.predicates() & program.idb_predicates
    if derived:
        raise EvaluationError(
            f"changeset touches IDB predicate"
            f"{'s' if len(derived) > 1 else ''} "
            f"{', '.join(sorted(derived))}; incremental maintenance "
            "updates EDB relations only")
    _require_monotone_impact(program, changeset.predicates())
    return _Maintenance(program, edb, idb, changeset, firer).run()


def _require_monotone_impact(program: Program,
                             changed: frozenset[str]) -> None:
    """Reject changesets whose effect can flow through a negation."""
    graph = program.dependency_graph()
    affected = set(changed)
    frontier = [pred for pred in changed if graph.has_node(pred)]
    while frontier:
        pred = frontier.pop()
        for successor in graph.successors(pred):
            if successor not in affected:
                affected.add(successor)
                frontier.append(successor)
    for rule in program:
        for lit in rule.body:
            if isinstance(lit, Negation) and lit.atom.pred in affected:
                raise IncrementalUnsupported(
                    f"changeset affects {lit.atom.pred!r}, which occurs "
                    f"negated in rule `{rule}`; deletion deltas are not "
                    "exact through negation — recompute instead",
                    reason="negation")


class _Maintenance:
    """One maintenance run: deletion pass, then insertion pass."""

    def __init__(self, program: Program, edb: Database, idb: Database,
                 changeset: Changeset, firer: Firer) -> None:
        self.program = program
        self.edb = edb
        self.idb = idb
        self.firer = firer
        self.stats = firer.stats
        self.symbols = edb.symbols
        self.arities = dict(program.predicate_arities())
        # Storage-domain changeset rows.
        self.edb_deletes = {pred: self._encode_rows(rows)
                            for pred, rows in changeset.deletes.items()
                            if rows}
        self.edb_inserts = {pred: self._encode_rows(rows)
                            for pred, rows in changeset.inserts.items()
                            if rows}
        for pred in changeset.predicates():
            self.arities.setdefault(pred, _changeset_arity(changeset,
                                                           pred))
        # Net IDB deltas, accumulated as the passes climb the strata;
        # a predicate is only entered with rows.
        self.idb_removed: dict[str, set[Row]] = {}
        self.idb_added: dict[str, set[Row]] = {}
        # EDB relations, resolved once: a predicate the database lacks
        # gets one empty stand-in, so rows toggled into it are seen.
        self._edb_rels: dict[str, Relation] = {}

    # -- domain helpers ------------------------------------------------------
    def _encode_rows(self, rows: Iterable[Iterable[ConstValue]]
                     ) -> set[Row]:
        if self.symbols is None:
            return {tuple(row) for row in rows}
        intern_row = self.symbols.intern_row
        return {intern_row(tuple(row)) for row in rows}

    def _deltas(self, rows: dict[str, set[Row]],
                rules: list[Rule]) -> dict[str, Relation]:
        """A pass's first-round deltas: the ``rows`` of the predicates
        ``rules`` read, as relations."""
        read = {lit.pred for rule in rules for lit in rule.body
                if isinstance(lit, Atom)}
        deltas: dict[str, Relation] = {}
        for pred in read & rows.keys():
            deltas[pred] = Relation(pred, self.arities[pred],
                                    symbols=self.symbols)
            deltas[pred].raw_merge(rows[pred])
        return deltas

    # -- the state every pass reads ------------------------------------------
    def _live(self, pred: str) -> Relation:
        """``pred``'s live relation, as the toggles have left it: what
        every occurrence no pass redirects to a delta reads."""
        if pred in self.program.idb_predicates:
            return self.idb.relation(pred)
        if pred not in self._edb_rels:
            self._edb_rels[pred] = self.edb.relation_or_empty(
                pred, self.arities[pred])
        return self._edb_rels[pred]

    def _read(self, atom: Atom, occurrence: int) -> Relation:
        return self._live(atom.pred)

    @contextmanager
    def _toggled(self, rows: dict[str, set[Row]],
                 present: bool) -> Iterator[None]:
        """``rows`` in (``present``) or out of their live relations for
        the block, and flipped back after it, also when it raises.
        Only rows whose membership changed are flipped back."""
        flipped: list[tuple[Relation, Collection[Row]]] = []
        try:
            for pred, pred_rows in rows.items():
                rel = self._live(pred)
                flipped.append((rel, rel.raw_merge_new(pred_rows) if present
                                else rel.raw_discard_all(pred_rows)))
            yield
        finally:
            for rel, moved in flipped:
                if present:
                    rel.raw_discard_all(moved)
                else:
                    rel.raw_merge(moved)

    # -- budget / chaos ------------------------------------------------------
    def _tick_rows(self, rows: list[Row], last_round: int = 0) -> None:
        """Budget/chaos events of a firing whose rows are *not* merged
        (overdeletion and rederivation consume them themselves): one
        chaos event per row, one checkpoint per firing."""
        chaos_plan, budget = self.firer.chaos_plan, self.firer.budget
        if chaos_plan is not None:
            for _ in rows:
                chaos_plan.derivation()
        if budget is not None:
            budget.checkpoint(self.stats, last_round=last_round)

    # -- driver --------------------------------------------------------------
    def run(self) -> MaintenanceResult:
        strata = stratify(self.program)
        rules_by_stratum = [
            [r for r in self.program if r.head.pred in stratum]
            for stratum in strata]
        if self.edb_deletes:
            with self._toggled(self.edb_inserts, present=False):
                for stratum, rules in zip(strata, rules_by_stratum):
                    self._dred(stratum, rules)
        if self.edb_inserts:
            insert = self._inserting(self.idb_added)
            for rules in rules_by_stratum:
                # Δ⁺ for everything inserted so far this pass.
                changed = {**self.edb_inserts, **self.idb_added}
                delta_rounds(rules, self._deltas(changed, rules), self._read,
                             self.firer, insert, "incremental insertion")
        return MaintenanceResult(self.idb_added, self.idb_removed,
                                 self.stats)

    # -- deletion pass -------------------------------------------------------
    def _dred(self, stratum: frozenset[str], rules: list[Rule]) -> None:
        # Predicate -> Δ⁻ for everything deleted so far this pass.
        changed = {**self.edb_deletes, **self.idb_removed}
        if not changed:
            return
        rels = {pred: self.idb.relation(pred) for pred in stratum}

        # Phase 1 — overdelete closure.  With the deleted rows back in,
        # every occurrence but the delta's reads a changed predicate's
        # *before* state (and the untouched stratum relations), so every
        # derivation that consumed a deleted row is found; the closure
        # is a superset, sets absorb the overcount.
        over: dict[str, set[Row]] = {pred: set() for pred in stratum}

        def overdelete(rule: Rule, index: int, fetch: Fetch,
                       round_index: int) -> list[Row]:
            # The rows still stored and not yet overdeleted are
            # overdeleted now, and are the next round's delta.
            derived = self.firer.run(rule, fetch, ("overdelete", index))
            self._tick_rows(derived, last_round=round_index - 1)
            store = rels[rule.head.pred].raw_rows()
            seen = over[rule.head.pred]
            fresh = []
            for row in derived:
                if row in store and row not in seen:
                    seen.add(row)
                    fresh.append(row)
            return fresh

        with self._toggled(changed, present=True):
            delta_rounds(rules, self._deltas(changed, rules), self._read,
                         self.firer, overdelete, "incremental overdeletion")

        # Phase 2 — remove the overdeleted rows.
        for pred in stratum:
            rels[pred].raw_discard_all(over[pred])
            self.stats.overdeleted += len(over[pred])

        # Phase 3 — rederive from the reduced database.  A candidate
        # cannot support itself — it is absent from its own relation
        # until rederived; cascades among candidates are left to the
        # phase-4 propagation.
        rederived: dict[str, set[Row]] = {pred: set() for pred in stratum}
        self._rederive_batched(stratum, rules, rels, over, rederived)

        # Phase 4 — propagate the rederived rows within the stratum
        # (anything they in turn support must come back too).
        delta_rounds(rules, self._deltas(rederived, rules), self._read,
                     self.firer, self._inserting(None),
                     "incremental propagation")

        for pred in stratum:
            net = {row for row in over[pred]
                   if row not in rels[pred].raw_rows()}
            if net:
                self.idb_removed.setdefault(pred, set()).update(net)
                self.stats.retracted += len(net)

    def _rederive_batched(self, stratum: frozenset[str],
                          rules: list[Rule],
                          rels: dict[str, Relation],
                          over: dict[str, set[Row]],
                          rederived: dict[str, set[Row]]) -> None:
        """Set-oriented rederivation: one firing per rule.

        The candidate set becomes a guard relation joined in front of
        the rule body — a magic seed bound to the head — so one compiled
        kernel execution checks every candidate at once instead of one
        interpreted body solve each.  The synthetic guard rule is
        structurally stable across refreshes, so its kernel compiles
        once per view lifetime.
        """
        for pred in sorted(stratum):
            candidates = over[pred]
            if not candidates:
                continue
            guard_pred = f"__dred__{pred}"
            guard_rel = Relation(guard_pred, self.arities[pred],
                                 symbols=self.symbols)
            guard_rel.raw_merge(candidates)
            found = rederived[pred]
            for rule in rules:
                if rule.head.pred != pred:
                    continue
                if not rule.body:
                    # A fact rule (a ground head) supports its head.
                    row = next(iter(self._encode_rows([tuple(
                        arg.value for arg in rule.head.args
                        if isinstance(arg, Constant))])))
                    if row in candidates:
                        found.add(row)
                    continue
                guard = Atom(guard_pred, rule.head.args)
                batch_rule = Rule(rule.head, (guard,) + tuple(rule.body))

                def fetch(atom: Atom, occurrence: int,
                          _guard_pred: str = guard_pred,
                          _guard_rel: Relation = guard_rel) -> Relation:
                    if atom.pred == _guard_pred:
                        return _guard_rel
                    return self._live(atom.pred)

                derived = self.firer.run(batch_rule, fetch,
                                         ("rederive",))
                self._tick_rows(derived)
                for row in derived:
                    if row in candidates:
                        found.add(row)
            if found:
                rels[pred].raw_merge(found)
                self.stats.rederived += len(found)
                self.stats.derivations += len(found)

    # -- insertion -----------------------------------------------------------
    def _inserting(self, added: dict[str, set[Row]] | None) -> DeltaFire:
        """The firing of the insertion pass and of DRed's phase 4: the
        derived rows go into the live head relation, and the new ones
        into ``added`` when given."""
        def insert(rule: Rule, index: int, fetch: Fetch,
                   round_index: int) -> Collection[Row]:
            new_rows = self.firer.merge(
                self.firer.run(rule, fetch, ("insert", index)),
                self.idb.relation(rule.head.pred),
                last_round=round_index - 1)
            if added is not None and new_rows:
                added.setdefault(rule.head.pred, set()).update(new_rows)
            return new_rows
        return insert


def _changeset_arity(changeset: Changeset, pred: str) -> int:
    for by_pred in (changeset.inserts, changeset.deletes):
        rows = by_pred.get(pred)
        if rows:
            return len(next(iter(rows)))
    return 0
