"""Materialized views: one program's IDB kept live across EDB versions.

A :class:`MaterializedView` pairs one program with one
:class:`~repro.facts.changelog.VersionedDatabase` and keeps
the program's full IDB materialized across EDB versions — the first
use pays a fixpoint evaluation, every later use pays only
:func:`~repro.incremental.maintain.maintain` over the net changeset
since the version the view last saw.  Compiled rule kernels persist
inside the view, so the compile-once / reuse-many economics the paper
argues for rewrites (Section 3) extend across the whole update stream.
The registry of views and the database they share belong to
:class:`~repro.serving.threaded.ThreadedServer`, the one server.

* **State transitions are atomic.**  ``_materialize`` replaces the IDB
  only once the new one is fully evaluated, so a fault mid-rebuild
  (budget, chaos, bug) leaves the previous state — in particular the
  last published snapshot — fully intact and the view cleanly
  ``valid=False``, never half-built.
* **Snapshot publication.**  Every successful refresh ends by swapping
  in an immutable :class:`~repro.serving.snapshots.Snapshot`
  (version-pinned EDB + IDB views).  Readers use only the snapshot; the
  live ``idb`` is the writer's workspace.  A snapshot is the previous
  one with the refresh's delta appended to each relation's patch log —
  the base relations, their indexes and the logs are shared, so a
  write costs the change, not the database or the patch.
* **Chaos fault points** at every serving transition —
  ``serving:refresh`` (incremental maintenance), ``serving:materialize``
  (full rebuild) and ``serving:snapshot-swap`` (publication); the
  server adds ``serving:apply`` (changeset ingestion) — so tests and
  the chaos benchmark can prove each recovery path fires.

Self-healing: a refresh interrupted mid-flight leaves the view invalid
and the next refresh discards the partial state with a full,
from-scratch materialization.  A changeset the maintenance engine
cannot handle (:class:`~repro.errors.IncrementalUnsupported`) falls
back the same way, silently — correctness never depends on the
incremental path.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from typing import Collection, Mapping, NamedTuple

from ..datalog.program import Program
from ..errors import IncrementalUnsupported, ReproError
from ..facts.changelog import Changeset, VersionedDatabase
from ..facts.database import Database
from ..facts.relation import PatchedRelation, Relation, Row
from ..facts.symbols import SymbolTable
from ..engine.bindings import EvalStats
from ..engine.compile import KernelCache, validate_executor
from ..engine.bindings import validate_planner
from ..engine.seminaive import seminaive_evaluate
from ..incremental.maintain import MaintenanceResult, maintain
from ..runtime import chaos
from ..runtime.budget import Budget
from .snapshots import Snapshot


def program_fingerprint(program: Program) -> str:
    """A stable 16-hex-digit digest of the program's rules, in order.

    Computed once per program (a read keys its view by it) and kept on
    the immutable :class:`Program`.
    """
    found = program._fingerprint
    if found is None:
        text = "\n".join(str(rule) for rule in program)
        found = program._fingerprint = \
            hashlib.sha256(text.encode()).hexdigest()[:16]
    return found


def relation_fingerprint(db: Database) -> str:
    """A digest of a database's facts, interning-agnostic.

    Computed over the sorted value-domain serialization, so a raw and an
    interned database holding the same facts fingerprint identically —
    the property the differential tests lean on.
    """
    return hashlib.sha256(db.to_text().encode()).hexdigest()[:16]


#: A snapshot relation is rebuilt over a fresh base once its patch log
#: has outgrown ``len(base) // COMPACTION_RATIO`` rows.  Not a
#: parameter: one compaction is O(n) and happens once per n/8 delta
#: rows, so it adds amortised O(1) per delta row whatever the value,
#: while a read filters at most one logged row per eight base rows.
COMPACTION_RATIO = 8

#: Storage-domain rows to remove from / add to relations, by predicate.
_Rows = Mapping[str, Collection[Row]]


class _Delta(NamedTuple):
    """What the last refresh changed, kept until it is published."""

    from_version: int
    changes: Changeset
    result: MaintenanceResult


def _next_relation(live: Relation, previous: PatchedRelation | None,
                   patch: tuple[Collection[Row], Collection[Row]] | None
                   ) -> PatchedRelation:
    """The snapshot relation for ``live``: ``previous`` patched, or a
    fresh base when there is nothing to patch or the log outgrew it."""
    if previous is not None and patch is not None:
        view = previous.patched(*patch)
        if len(view.log) <= len(view.base) // COMPACTION_RATIO:
            return view
    base = live.copy()
    if previous is not None:
        # On the writer's clock, so no reader ever pays a cold index.
        base.build_indexes_like(previous.base)
    return PatchedRelation(base)


def _next_database(live: Database, previous: Database | None,
                   delta: tuple[_Rows, _Rows] | None,
                   compactions: Counter[str]) -> Database:
    """The snapshot of ``live``.  ``delta`` is what to remove from and
    add to ``previous`` to get there, or None when ``previous`` cannot
    be patched (it is then only mined for its index column sets).
    Counts every relation that takes a new base under a previous one
    in ``compactions``."""
    relations = []
    for name in live:
        before = previous.relation(name) \
            if previous is not None and name in previous else None
        patch = (delta[0].get(name, ()), delta[1].get(name, ())) \
            if delta is not None else None
        relation = _next_relation(live.relation(name), before, patch)
        if before is not None and relation.base is not before.base:
            compactions[name] += 1
        relations.append(relation)
    return Database.of_relations(relations, live.symbols)


def _storage_rows(by_pred: Mapping[str, set[Row]],
                  symbols: SymbolTable | None) -> _Rows:
    """One side of a changeset in the storage domain of ``symbols``."""
    if symbols is None:
        return by_pred
    return {pred: [symbols.intern_row(row) for row in rows]
            for pred, rows in by_pred.items()}


class MaterializedView:
    """One program's IDB, kept live against a versioned database."""

    def __init__(self, program: Program, source: VersionedDatabase,
                 planner: str = "greedy", executor: str = "compiled") -> None:
        validate_executor(executor)
        validate_planner(planner)
        self.program = program
        self.source = source
        self.planner = planner
        self.executor = executor
        self.idb: Database | None = None
        self.kernels = KernelCache(symbols=source.db.symbols) \
            if executor == "compiled" else None
        #: EDB version the materialization reflects; -1 = never built.
        self.version = -1
        #: False while the IDB may be mid-maintenance garbage.
        self.valid = False
        #: The last-good snapshot, published by every successful
        #: refresh for lock-free readers; swapped atomically, never
        #: mutated.
        self.snapshot: Snapshot | None = None
        #: The last refresh's delta, until a publish consumed it; None
        #: after a full rebuild (the next snapshot is then a full copy).
        self._delta: _Delta | None = None
        self.stats = EvalStats()
        self.full_refreshes = 0
        self.incremental_refreshes = 0
        self.snapshots_published = 0
        #: Per relation: how many new bases a publish took for it after
        #: its first (a full rebuild, its log outgrown or torn).
        self.compactions: Counter[str] = Counter()
        self.last_mode: str | None = None
        self.last_refresh_s: float | None = None

    @property
    def key(self) -> tuple[str, str, str]:
        return (program_fingerprint(self.program), self.planner,
                self.executor)

    def __repr__(self) -> str:
        state = "stale" if self.version < self.source.version \
            else "fresh"
        if not self.valid:
            state = "invalid"
        return (f"MaterializedView({self.key[0]}, v{self.version} "
                f"{state}, planner={self.planner}, "
                f"executor={self.executor})")

    # -- lifecycle -----------------------------------------------------------
    def _materialize(self, budget: Budget | None) -> str:
        """Full from-scratch rebuild with an atomic commit.

        The view's own state is only touched once the new IDB is fully
        evaluated.  An error at any point (chaos fault, budget expiry,
        engine bug) therefore leaves the previous ``idb``/``snapshot``
        exactly as they were — the view is cleanly invalid, never
        half-built.
        """
        started = time.perf_counter()
        self.valid = False
        chaos.checkpoint("serving:materialize")
        target_version = self.source.version
        stats = EvalStats()
        self.idb = seminaive_evaluate(
            self.program, self.source.db, stats=stats,
            planner=self.planner, budget=budget, executor=self.executor)
        self._delta = None
        self.stats.merge(stats)
        self.version = target_version
        self.valid = True
        self.full_refreshes += 1
        self.last_mode = "full"
        self.last_refresh_s = time.perf_counter() - started
        self._publish()
        return "full"

    def refresh(self, budget: Budget | None = None) -> str:
        """Bring the view current; returns how it got there.

        ``"fresh"`` — already at the source version, nothing ran.
        ``"incremental"`` — delta maintenance over the net changeset.
        ``"full"`` — from-scratch materialization (first build, an
        invalidated view, or an unsupported changeset).

        Any error escaping a refresh leaves the view invalid; the next
        call self-heals with a full rebuild.
        """
        if not self.valid or self.idb is None:
            return self._materialize(budget)
        if self.version >= self.source.version:
            self.last_mode = "fresh"
            self._publish()
            return "fresh"
        from_version = self.version
        changes = self.source.changes_since(from_version)
        if changes.is_empty:
            self.version = self.source.version
            self.last_mode = "fresh"
            self._delta = _Delta(from_version, changes, MaintenanceResult())
            self._publish()
            return "fresh"
        started = time.perf_counter()
        self.valid = False
        try:
            chaos.checkpoint("serving:refresh")
            result = maintain(
                self.program, self.source.db, self.idb, changes,
                stats=self.stats,
                planner=self.planner, executor=self.executor,
                budget=budget, kernels=self.kernels)
        except IncrementalUnsupported:
            return self._materialize(budget)
        self._delta = _Delta(from_version, changes, result)
        self.version = self.source.version
        self.valid = True
        self.incremental_refreshes += 1
        self.last_mode = "incremental"
        self.last_refresh_s = time.perf_counter() - started
        self._publish()
        return "incremental"

    def _publish(self) -> None:
        """Swap in the next snapshot.

        Runs only on a *valid* view; skipped when the last-good
        snapshot already reflects the view's version.  When that
        snapshot stands at the version the kept delta starts from, the
        next one is the same relations patched — EDB with the net
        changeset, IDB with what maintenance reported, each appended to
        the relation's patch log — and shares every base, index and log
        with it.  Otherwise (first publish, full rebuild, a delta
        superseded before it was published) it is a full copy of the
        live state; and a relation whose log has outgrown its base
        (:data:`COMPACTION_RATIO`) is re-based the same way, as is
        (by :meth:`PatchedRelation.patched`) one whose previous view is
        no longer its log's newest: a publish after it raised.

        The chaos checkpoint sits before the swap, so an injected fault
        leaves the previous snapshot serving — and because ``refresh``
        then raises, the server's writer retries and the next successful
        refresh (mode ``"fresh"``) re-attempts the swap with the delta
        still kept.
        """
        if self.idb is None:
            return
        previous, delta = self.snapshot, self._delta
        if previous is not None and previous.version >= self.version:
            return
        chaos.checkpoint("serving:snapshot-swap")
        edb_delta = idb_delta = None
        if previous is not None and delta is not None \
                and previous.version == delta.from_version:
            symbols = self.source.db.symbols
            edb_delta = (_storage_rows(delta.changes.deletes, symbols),
                         _storage_rows(delta.changes.inserts, symbols))
            idb_delta = (delta.result.removed_rows, delta.result.added_rows)
        old_edb, old_idb = (previous.edb, previous.idb) \
            if previous is not None else (None, None)
        self.snapshot = Snapshot(
            self.program, self.version,
            _next_database(self.source.db, old_edb, edb_delta,
                           self.compactions),
            _next_database(self.idb, old_idb, idb_delta, self.compactions))
        self._delta = None
        self.snapshots_published += 1

    def invalidate(self) -> None:
        """Force the next refresh to rebuild from scratch."""
        self.valid = False

    # -- inspection ----------------------------------------------------------
    def facts(self, pred: str) -> frozenset[tuple]:
        if self.idb is None:
            raise ReproError("view was never materialized; call refresh()")
        return self.idb.facts(pred)

    def fingerprint(self) -> str:
        """Digest of the current IDB (for differential comparison)."""
        if self.idb is None:
            raise ReproError("view was never materialized; call refresh()")
        return relation_fingerprint(self.idb)

    def describe(self) -> dict:
        """A JSON-friendly summary (CLI ``serve --describe``)."""
        return {
            "program": self.key[0],
            "planner": self.planner,
            "executor": self.executor,
            "version": self.version,
            "source_version": self.source.version,
            "valid": self.valid,
            "full_refreshes": self.full_refreshes,
            "incremental_refreshes": self.incremental_refreshes,
            "last_mode": self.last_mode,
            "idb_facts": self.idb.total_facts()
            if self.idb is not None else 0,
            "snapshot": self.snapshot.describe()
            if self.snapshot is not None else None,
            "patch_logs": {} if self.snapshot is None else {
                name: {"rows": len(db.relation(name).log),
                       "compactions": self.compactions[name]}
                for db in (self.snapshot.edb, self.snapshot.idb)
                for name in db},
        }
