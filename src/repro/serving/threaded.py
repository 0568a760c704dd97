"""The server: snapshot readers over a single maintenance writer.

:class:`ThreadedServer` is the serving tier's one server.  It owns the
shared :class:`~repro.facts.changelog.VersionedDatabase` and the
registry of :class:`~repro.serving.views.MaterializedView` objects
keyed by ``(program fingerprint, planner, executor)`` — the knobs that
change what a materialization physically is.  Every read answers from
an immutable MVCC snapshot (:mod:`repro.serving.snapshots`) and every
write goes through the :class:`~repro.serving.pipeline.WritePipeline`,
drained by one maintenance writer.  The synchronization story is
deliberately thin:

* **Readers are lock-free on the hot path.**  A read pins the view's
  current snapshot with one reference load and never touches shared
  mutable state again; a refresh — or a *failed, mid-flight* refresh —
  concurrently churning the live IDB is invisible to it.  This is the
  epoch scheme: the snapshot reference is the epoch pointer, old
  epochs die when their last reader drops them.
* **Admission control** caps concurrent readers with a semaphore;
  over-admission sheds load with a typed
  :class:`~repro.errors.ServingUnavailable` (``reason="admission"``)
  instead of queueing unbounded work.
* **Per-request deadlines**: every read carries a deadline; a reader
  whose staleness bound cannot be met in time gets
  ``reason="deadline"`` (or ``"no-snapshot"`` before the first
  materialization) rather than blocking forever.
* **Bounded staleness**: a read is served from the last-good snapshot
  whenever it satisfies the :class:`~repro.serving.snapshots.
  StalenessBound`; otherwise the reader nudges the writer
  (``request_refresh``) and waits on a condition variable the writer
  notifies after every cycle.  Callers that need current answers (the
  CLI, the shell) construct the server with ``StalenessBound(max_lag=0)``.

Without a running writer (``start()`` never called) the server
degrades to a synchronous mode: ``update`` processes its batch before
returning, and a reader that needs freshness runs the refresh inline
under the lock every inline update takes too — same results, no
background thread, never two refreshes of a view at once — which is
what keeps the CLI, the shell and deterministic tests simple.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from ..datalog.program import Program
from ..errors import ReproError, ServingUnavailable
from ..facts.changelog import Changeset, VersionedDatabase
from ..facts.database import Database
from ..runtime import chaos
from ..runtime.budget import Budget
from ..runtime.retry import CircuitBreaker, HealthState, RetryPolicy
from .pipeline import BackgroundWriter, WritePipeline
from .snapshots import Snapshot, StalenessBound
from .views import MaterializedView, program_fingerprint


@dataclass
class ReadResult:
    """One answered read, with its consistency provenance.

    ``rows`` came from an immutable snapshot at ``version``;
    ``source_version`` is where the live database stood at serve time,
    so ``lag = source_version - version`` is exactly how many applied
    changesets the answer may predate (0 = current).
    """

    rows: set
    version: int
    source_version: int
    snapshot_age_s: float
    latency_s: float

    @property
    def lag(self) -> int:
        return self.source_version - self.version

    @property
    def stale(self) -> bool:
        return self.lag > 0


class ThreadedServer:
    """A versioned database and its registry of materialized views,
    behind admission control, deadlines, and a maintenance writer.

    Args:
        db / source: the database to serve — a plain
            :class:`~repro.facts.database.Database` (wrapped, not
            copied) or a :class:`~repro.facts.changelog.
            VersionedDatabase`; at most one.
        max_readers: concurrent-reader cap (admission control).
        staleness: default :class:`StalenessBound` for reads; ``None``
            means "any last-good snapshot" (maximum availability).
        default_deadline_s: per-read deadline when the caller gives
            none.
        max_queue / retry / breaker / rebuild_after /
        refresh_timeout_s: forwarded to the :class:`WritePipeline`.
        poll_s: writer loop poll interval.
    """

    def __init__(self, db: Database | None = None,
                 source: VersionedDatabase | None = None, *,
                 max_readers: int = 8,
                 staleness: StalenessBound | None = None,
                 default_deadline_s: float = 5.0,
                 max_queue: int = 256,
                 retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 rebuild_after: int = 2,
                 refresh_timeout_s: float | None = None,
                 poll_s: float = 0.02) -> None:
        if max_readers < 1:
            raise ValueError("max_readers must be >= 1")
        if source is not None and db is not None:
            raise ReproError("pass either db or source, not both")
        self.source = source if source is not None \
            else VersionedDatabase(db)
        self.views: dict[tuple[str, str, str], MaterializedView] = {}
        self.staleness = staleness if staleness is not None \
            else StalenessBound()
        self.default_deadline_s = default_deadline_s
        self.pipeline = WritePipeline(
            self, max_queue=max_queue, retry=retry,
            breaker=breaker, rebuild_after=rebuild_after,
            refresh_timeout_s=refresh_timeout_s)
        self._writer = BackgroundWriter(self.pipeline, poll_s=poll_s,
                                        on_cycle=self._notify_readers)
        self._fresh = threading.Condition()
        self._admission = threading.BoundedSemaphore(max_readers)
        self.max_readers = max_readers
        self._views_lock = threading.Lock()
        self._inline_refresh_lock = threading.Lock()
        self._stopped = False
        # -- counters (best-effort under the GIL; for reports) --------------
        self.reads = 0
        self.stale_reads = 0
        self.reads_rejected = 0

    # -- lifecycle -----------------------------------------------------------
    @property
    def version(self) -> int:
        return self.source.version

    @property
    def health(self) -> HealthState:
        return self.pipeline.health

    def start(self) -> "ThreadedServer":
        """Start the background maintenance writer."""
        self._stopped = False
        self._writer.start()
        return self

    def stop(self, flush: bool = True, timeout_s: float = 10.0) -> None:
        """Stop serving; optionally flush queued writes first.

        New reads and writes are rejected (``reason="stopped"``) as
        soon as this is called; with ``flush`` the writer is given
        ``timeout_s`` to drain what was already queued.
        """
        self._stopped = True
        if flush:
            self.flush(timeout_s=timeout_s)
        self._writer.stop(timeout_s=timeout_s)
        self._notify_readers()

    def flush(self, timeout_s: float = 10.0) -> bool:
        """Block until every accepted write is applied (a barrier).

        Returns False when the pipeline could not drain before the
        timeout (e.g. the circuit is open); queued work is preserved
        either way.
        """
        deadline = time.monotonic() + timeout_s
        if not self._writer.running:
            while not self.pipeline.drained() \
                    and time.monotonic() < deadline:
                with self._inline_refresh_lock:
                    worked = self.pipeline.process_once()
                self._notify_readers()
                if not worked:
                    # Open circuit: wait out the cooldown, as the
                    # writer thread does, instead of spinning.
                    wait = self.pipeline.breaker.retry_after_s() \
                        or self._writer.poll_s
                    time.sleep(max(0.0, min(
                        wait, deadline - time.monotonic())))
            return self.pipeline.drained()
        while time.monotonic() < deadline:
            if self.pipeline.drained():
                return True
            time.sleep(0.005)
        return self.pipeline.drained()

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _notify_readers(self) -> None:
        with self._fresh:
            self._fresh.notify_all()

    # -- writes --------------------------------------------------------------
    def update(self, changeset: Changeset,
               timeout_s: float | None = 0.0) -> None:
        """Submit one changeset to the write pipeline.

        Raises :class:`ServingUnavailable` when stopped, when the
        circuit is open, or on queue backpressure.  When no writer
        thread is running the batch is processed synchronously before
        returning (degraded single-threaded mode).
        """
        if self._stopped:
            raise ServingUnavailable("server is stopped",
                                     reason="stopped")
        self.pipeline.submit(changeset, timeout_s=timeout_s)
        if not self._writer.running:
            # A reader's inline refresh maintains the same views.
            with self._inline_refresh_lock:
                self.pipeline.process_once()
            self._notify_readers()

    # -- the write pipeline's steps (run by its single writer) ---------------
    def _idb_predicates(self) -> frozenset[str]:
        """IDB predicates across every registered view's program."""
        preds: set[str] = set()
        for view in list(self.views.values()):
            preds |= view.program.idb_predicates
        return frozenset(preds)

    def _check(self, changeset: Changeset) -> None:
        """Raise the ``EvaluationError`` :meth:`_apply` would refuse
        ``changeset`` with (a row of the wrong arity, an IDB predicate
        of a registered view); nothing is touched and no chaos
        checkpoint fires."""
        self.source.check(changeset, idb_predicates=self._idb_predicates())

    def _apply(self, changeset: Changeset) -> int:
        """Apply a changeset to the shared database; views go stale.

        The ``serving:apply`` chaos point fires *before* any mutation,
        so an injected ingestion fault is atomic: either the whole
        changeset lands (and is logged) or none of it does.
        """
        chaos.checkpoint("serving:apply")
        return self.source.apply(changeset,
                                 idb_predicates=self._idb_predicates())

    def _sweep(self, budget: Budget | None = None) -> None:
        """Refresh every view, then re-raise the first failure.

        One raising view costs only its own refresh (it is left
        invalid, to self-heal on its next refresh), never the freshness
        of the views registered after it.
        """
        first: Exception | None = None
        # Iterate a copy: a concurrent reader may register a view
        # mid-sweep (it will be picked up by the next sweep).
        for view in list(self.views.values()):
            try:
                view.refresh(budget)
            except Exception as error:  # noqa: BLE001 - re-raised below
                first = first or error
        if first is not None:
            raise first

    # -- reads ---------------------------------------------------------------
    def view(self, program: Program, planner: str = "greedy",
             executor: str = "compiled") -> MaterializedView:
        """Get or create the view for ``(program, planner, executor)``."""
        key = (program_fingerprint(program), planner, executor)
        with self._views_lock:
            view = self.views.get(key)
            if view is None:
                view = MaterializedView(program, self.source,
                                        planner=planner,
                                        executor=executor)
                self.views[key] = view
            return view

    def read(self, program: Program, query,
             planner: str = "greedy", executor: str = "compiled",
             deadline_s: float | None = None,
             staleness: StalenessBound | None = None) -> ReadResult:
        """Answer ``query`` from a snapshot within the staleness bound.

        The returned :class:`ReadResult` names the exact version the
        answer reflects.  Failure modes are all typed
        :class:`ServingUnavailable`: ``"stopped"``, ``"admission"``
        (reader cap), ``"no-snapshot"`` / ``"deadline"`` (the bound
        could not be met before the deadline).
        """
        if self._stopped:
            raise ServingUnavailable("server is stopped",
                                     reason="stopped")
        started = time.perf_counter()
        deadline = time.monotonic() + (
            deadline_s if deadline_s is not None
            else self.default_deadline_s)
        bound = staleness if staleness is not None else self.staleness
        if not self._admission.acquire(
                timeout=max(0.0, deadline - time.monotonic())):
            self.reads_rejected += 1
            raise ServingUnavailable(
                f"admission control: {self.max_readers} concurrent "
                "readers already admitted", reason="admission")
        try:
            view = self.view(program, planner=planner, executor=executor)
            snapshot = self._pin_snapshot(view, bound, deadline)
            source_version = self.source.version
            rows = snapshot.query(query)
            self.reads += 1
            if snapshot.version < source_version:
                self.stale_reads += 1
            return ReadResult(
                rows=rows, version=snapshot.version,
                source_version=source_version,
                snapshot_age_s=snapshot.age_s(),
                latency_s=time.perf_counter() - started)
        finally:
            self._admission.release()

    def _pin_snapshot(self, view: MaterializedView,
                      bound: StalenessBound,
                      deadline: float) -> Snapshot:
        """A snapshot satisfying ``bound``, or a typed failure.

        Fast path: the current snapshot already qualifies.  Slow path:
        nudge the writer and wait for publication; without a running
        writer, refresh inline (one reader at a time — the others wait
        on the condition as if a writer existed).
        """
        while True:
            snapshot = view.snapshot
            if bound.allows(snapshot, self.source.version):
                return snapshot  # type: ignore[return-value]
            if not self._writer.running:
                if self._inline_refresh_lock.acquire(blocking=False):
                    try:
                        view.refresh()
                    except Exception:  # noqa: BLE001 - mapped below
                        # Same contract as threaded mode, where the
                        # writer absorbs refresh faults: the reader
                        # keeps the last-good snapshot and times out
                        # with a typed deadline failure if the bound
                        # stays unreachable.
                        pass
                    finally:
                        self._inline_refresh_lock.release()
                        self._notify_readers()
                    if bound.allows(view.snapshot, self.source.version):
                        return view.snapshot  # type: ignore[return-value]
            else:
                self.pipeline.request_refresh()
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                snapshot = view.snapshot
                if snapshot is None:
                    raise ServingUnavailable(
                        "view has no materialized snapshot yet and the "
                        "deadline expired", reason="no-snapshot")
                raise ServingUnavailable(
                    f"staleness bound {bound!r} not met by deadline "
                    f"(last-good snapshot is v{snapshot.version}, "
                    f"source at v{self.source.version})",
                    reason="deadline")
            with self._fresh:
                self._fresh.wait(timeout=min(remaining, 0.05))

    def describe(self) -> dict:
        return {
            "health": str(self.health),
            "version": self.source.version,
            "edb_facts": self.source.db.total_facts(),
            "log_entries": len(self.source.log),
            "reads": self.reads,
            "stale_reads": self.stale_reads,
            "reads_rejected": self.reads_rejected,
            "max_readers": self.max_readers,
            "writer_running": self._writer.running,
            "pipeline": self.pipeline.describe(),
            "views": [view.describe()
                      for view in list(self.views.values())],
        }
