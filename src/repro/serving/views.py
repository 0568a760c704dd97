"""Materialized views and the view registry (the serving core).

A :class:`MaterializedView` pairs one program with one
:class:`~repro.facts.changelog.VersionedDatabase` and keeps
the program's full IDB materialized across EDB versions — the first
use pays a fixpoint evaluation, every later use pays only
:func:`~repro.incremental.maintain.maintain` over the net changeset
since the version the view last saw.  Compiled rule kernels and
support counts persist inside the view, so the compile-once /
reuse-many economics the paper argues for rewrites (Section 3) extend
across the whole update stream.

A :class:`Server` is a registry of such views keyed by
``(program fingerprint, planner, executor)`` — the knobs that change
what a materialization physically is — plus the shared versioned
database.  ``serve`` refreshes lazily: queries between updates are
answered straight from the warm IDB.

Concurrency additions (PR 6):

* **State transitions are atomic.**  ``_materialize`` computes the new
  IDB and support counts into locals and commits them in one step, so
  a fault mid-rebuild (budget, chaos, bug) leaves the previous
  state — in particular the last published snapshot — fully intact and
  the view cleanly ``valid=False``, never half-built.
* **Snapshot publication.**  With ``publish_snapshots=True`` every
  successful refresh ends by swapping in an immutable
  :class:`~repro.serving.snapshots.Snapshot` (version-pinned EDB + IDB
  copies).  Readers use only the snapshot; the live ``idb`` is the
  writer's workspace.
* **Chaos fault points** at every serving transition —
  ``serving:refresh`` (incremental maintenance), ``serving:materialize``
  (full rebuild), ``serving:apply`` (changeset ingestion) and
  ``serving:snapshot-swap`` (publication) — so tests and the chaos
  benchmark can prove each recovery path fires.
* **Fault-aggregating ``refresh_all``.**  One raising view no longer
  aborts the sweep: every view is refreshed, failures are collected
  into a :class:`RefreshReport`, and the caller decides.

Self-healing is unchanged: a refresh interrupted mid-flight leaves the
view invalid and the next refresh discards the partial state with a
full, from-scratch materialization.  A changeset the maintenance
engine cannot handle (:class:`~repro.errors.IncrementalUnsupported`)
falls back the same way, silently — correctness never depends on the
incremental path.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

from ..datalog.parser import parse_query
from ..datalog.program import Program
from ..errors import IncrementalUnsupported, ReproError
from ..facts.changelog import Changeset, VersionedDatabase
from ..facts.database import Database
from ..engine.bindings import EvalStats
from ..engine.compile import KernelCache, validate_executor
from ..engine.bindings import validate_planner
from ..engine.seminaive import answers, seminaive_evaluate
from ..incremental.maintain import SupportCounts, maintain, \
    support_counts
from ..runtime import chaos
from ..runtime.budget import Budget
from .snapshots import Snapshot


def program_fingerprint(program: Program) -> str:
    """A stable 16-hex-digit digest of the program's rules, in order."""
    text = "\n".join(str(rule) for rule in program)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def relation_fingerprint(db: Database) -> str:
    """A digest of a database's facts, interning-agnostic.

    Computed over the sorted value-domain serialization, so a raw and an
    interned database holding the same facts fingerprint identically —
    the property the differential tests lean on.
    """
    return hashlib.sha256(db.to_text().encode()).hexdigest()[:16]


class MaterializedView:
    """One program's IDB, kept live against a versioned database."""

    def __init__(self, program: Program, source: VersionedDatabase,
                 planner: str = "greedy", executor: str = "compiled",
                 use_counts: bool = True,
                 publish_snapshots: bool = False) -> None:
        validate_executor(executor)
        validate_planner(planner)
        self.program = program
        self.source = source
        self.planner = planner
        self.executor = executor
        self.use_counts = use_counts
        self.idb: Database | None = None
        self.counts: SupportCounts | None = None
        self.kernels = KernelCache(
            keep_atom_order=planner == "source",
            symbols=source.db.symbols) \
            if executor == "compiled" else None
        #: EDB version the materialization reflects; -1 = never built.
        self.version = -1
        #: False while the IDB may be mid-maintenance garbage.
        self.valid = False
        #: When True, every successful refresh publishes an immutable
        #: :class:`Snapshot` for lock-free concurrent readers.
        self.publish_snapshots = publish_snapshots
        #: The last-good snapshot; swapped atomically, never mutated.
        self.snapshot: Snapshot | None = None
        self.stats = EvalStats()
        self.full_refreshes = 0
        self.incremental_refreshes = 0
        self.snapshots_published = 0
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

        The new IDB and support counts are computed into locals; the
        view's own state is only touched once everything succeeded.  An
        error at any point (chaos fault, budget expiry, engine bug)
        therefore leaves the previous ``idb``/``counts``/``snapshot``
        exactly as they were — the view is cleanly invalid, never
        half-built.
        """
        started = time.perf_counter()
        self.valid = False
        chaos.checkpoint("serving:materialize")
        target_version = self.source.version
        stats = EvalStats()
        idb = seminaive_evaluate(
            self.program, self.source.db, stats=stats,
            planner=self.planner, budget=budget, executor=self.executor)
        counts = support_counts(
            self.program, self.source.db, idb, stats=stats,
            executor=self.executor) \
            if self.use_counts else None
        self.idb = idb
        self.counts = counts
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
        changes = self.source.changes_since(self.version)
        if changes.is_empty:
            self.version = self.source.version
            self.last_mode = "fresh"
            self._publish()
            return "fresh"
        started = time.perf_counter()
        self.valid = False
        try:
            chaos.checkpoint("serving:refresh")
            maintain(self.program, self.source.db, self.idb, changes,
                     counts=self.counts, stats=self.stats,
                     planner=self.planner, executor=self.executor,
                     budget=budget, kernels=self.kernels)
        except IncrementalUnsupported:
            return self._materialize(budget)
        self.version = self.source.version
        self.valid = True
        self.incremental_refreshes += 1
        self.last_mode = "incremental"
        self.last_refresh_s = time.perf_counter() - started
        self._publish()
        return "incremental"

    def _publish(self) -> None:
        """Swap in a fresh snapshot when publication is enabled.

        Runs only on a *valid* view; skipped when the last-good
        snapshot already reflects the view's version.  The chaos
        checkpoint sits before the swap, so an injected fault leaves
        the previous snapshot serving — and because ``refresh`` then
        raises, the write pipeline retries and the next successful
        refresh (mode ``"fresh"``) re-attempts the swap.
        """
        if not self.publish_snapshots or self.idb is None:
            return
        if self.snapshot is not None \
                and self.snapshot.version >= self.version:
            return
        chaos.checkpoint("serving:snapshot-swap")
        snapshot = Snapshot(self.program, self.version,
                            self.source.db.copy(), self.idb.copy())
        self.snapshot = snapshot
        self.snapshots_published += 1

    def invalidate(self) -> None:
        """Force the next refresh to rebuild from scratch."""
        self.valid = False

    # -- reads ---------------------------------------------------------------
    def query(self, text_or_literals) -> set[tuple]:
        """Answer a conjunctive query from the warm materialization.

        The caller is responsible for refreshing first (``Server.serve``
        does); querying a stale view answers as of :attr:`version`.
        """
        if self.idb is None:
            raise ReproError("view was never materialized; call refresh()")
        if isinstance(text_or_literals, str):
            literals = parse_query(text_or_literals).literals
        else:
            literals = tuple(text_or_literals)
        return answers(literals, self.program, self.source.db,
                       self.idb, self.stats)

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
            "counts": self.counts is not None
            and len(self.counts.by_pred),
            "full_refreshes": self.full_refreshes,
            "incremental_refreshes": self.incremental_refreshes,
            "last_mode": self.last_mode,
            "idb_facts": self.idb.total_facts()
            if self.idb is not None else 0,
            "snapshot": self.snapshot.describe()
            if self.snapshot is not None else None,
        }


@dataclass
class RefreshReport:
    """What :meth:`Server.refresh_all` did, per view.

    ``modes`` maps program fingerprint to the refresh mode for every
    view that succeeded; ``errors`` maps program fingerprint to the
    exception for every view that raised.  The sweep never aborts
    early: one failing view costs only that view's refresh, not the
    freshness of every view registered after it.
    """

    modes: dict[str, str] = field(default_factory=dict)
    errors: dict[str, Exception] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.errors

    def raise_first(self) -> None:
        """Re-raise the first failure, for callers that want the old
        abort-on-error behaviour after the full sweep."""
        for error in self.errors.values():
            raise error

    def summary(self) -> str:
        lines = [f"view {fp}: {mode}"
                 for fp, mode in self.modes.items()]
        lines.extend(
            f"view {fp}: FAILED {type(err).__name__}: {err}"
            for fp, err in self.errors.items())
        return "\n".join(lines) if lines else "(no views)"


class Server:
    """A versioned database plus a registry of materialized views."""

    def __init__(self, db: Database | None = None,
                 source: VersionedDatabase | None = None) -> None:
        if source is not None and db is not None:
            raise ReproError("pass either db or source, not both")
        self.source = source if source is not None \
            else VersionedDatabase(db)
        self.views: dict[tuple[str, str, str], MaterializedView] = {}

    def __repr__(self) -> str:
        return (f"Server(v{self.source.version}, "
                f"{len(self.views)} views)")

    @property
    def version(self) -> int:
        return self.source.version

    def view(self, program: Program, planner: str = "greedy",
             executor: str = "compiled",
             use_counts: bool = True,
             publish_snapshots: bool = False) -> MaterializedView:
        """Get or create the view for ``(program, planner, executor)``."""
        key = (program_fingerprint(program), planner, executor)
        existing = self.views.get(key)
        if existing is not None:
            if publish_snapshots:
                existing.publish_snapshots = True
            return existing
        view = MaterializedView(program, self.source, planner=planner,
                                executor=executor,
                                use_counts=use_counts,
                                publish_snapshots=publish_snapshots)
        self.views[key] = view
        return view

    def idb_predicates(self) -> frozenset[str]:
        """IDB predicates across every registered view's program."""
        preds: set[str] = set()
        for view in list(self.views.values()):
            preds |= view.program.idb_predicates
        return frozenset(preds)

    def apply(self, changeset: Changeset) -> int:
        """Apply a changeset to the shared database; views go stale.

        Nothing recomputes here — refresh is lazy, at the next serve.
        The ``serving:apply`` chaos point fires *before* any mutation,
        so an injected ingestion fault is atomic: either the whole
        changeset lands (and is logged) or none of it does.
        """
        chaos.checkpoint("serving:apply")
        return self.source.apply(changeset,
                                 idb_predicates=self.idb_predicates())

    def serve(self, program: Program, query,
              planner: str = "greedy", executor: str = "compiled",
              budget: Budget | None = None) -> set[tuple]:
        """Answer ``query`` from a warm, current materialization."""
        view = self.view(program, planner=planner, executor=executor)
        view.refresh(budget)
        return view.query(query)

    def refresh_all(self, budget: Budget | None = None) -> RefreshReport:
        """Refresh every view, aggregating failures instead of aborting.

        A view whose refresh raises is recorded in the report's
        ``errors`` (and left invalid, to self-heal on its next refresh)
        while the sweep continues with the remaining views.
        """
        report = RefreshReport()
        # Iterate a copy: a concurrent reader may register a view
        # mid-sweep (it will be picked up by the next sweep).
        for key, view in list(self.views.items()):
            try:
                report.modes[key[0]] = view.refresh(budget)
            except Exception as error:  # noqa: BLE001 - aggregated
                report.errors[key[0]] = error
        return report

    def describe(self) -> dict:
        return {
            "version": self.source.version,
            "edb_facts": self.source.db.total_facts(),
            "log_entries": len(self.source.log),
            "views": [view.describe()
                      for view in list(self.views.values())],
        }
