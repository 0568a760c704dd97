"""The server: snapshot readers over a single maintenance writer.

:class:`ThreadedServer` is the serving tier's one server.  It owns the
shared :class:`~repro.facts.changelog.VersionedDatabase`, the registry
of :class:`~repro.serving.views.MaterializedView` objects keyed by
``(program fingerprint, planner, executor)`` — the knobs that change
what a materialization physically is — and the write side: a bounded
write queue drained by one maintenance writer.  Every read answers
from an immutable MVCC snapshot (:mod:`repro.serving.snapshots`).  The
synchronization story is deliberately thin:

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
  StalenessBound`; otherwise the reader asks the writer for a refresh
  and waits on a condition variable the writer notifies after every
  batch.  Callers that need current answers (the CLI, the shell)
  construct the server with ``StalenessBound(max_lag=0)``.

**The write side.**  Clients :meth:`~ThreadedServer.update` changesets
into a bounded queue (:data:`MAX_QUEUE`).  One batch
(:meth:`~ThreadedServer.process_once`) drains the whole backlog into
one net delta via :meth:`Changeset.compose
<repro.facts.changelog.Changeset.compose>` — three queued updates cost
one refresh, and an insert a later delete cancels never touches the
engine — applies it, and refreshes every registered view.  Failures
escalate through three layers (see ``docs/serving.md`` for the full
matrix):

1. **Bounded retry with exponential backoff + jitter**
   (:class:`~repro.runtime.retry.RetryPolicy`) absorbs transient
   faults; readers meanwhile serve the last-good snapshot.
2. After :data:`REBUILD_AFTER` consecutive failed batches the server
   abandons the incremental path: views are invalidated so the next
   attempt is a **full from-scratch rebuild** (health ``REBUILDING``).
3. A :class:`~repro.runtime.retry.CircuitBreaker` counts failed
   batches; when it opens, new writes are **rejected** with a typed
   :class:`~repro.errors.ServingUnavailable` (health ``UNAVAILABLE``)
   instead of queueing work that cannot complete.  After the cooldown
   one probe batch is let through; success closes the circuit.

A changeset that can never apply (a row of the wrong arity, an IDB
predicate) is none of the above — the engine is healthy, the input was
bad: it is **dropped** at drain with its typed error (``last_error``,
``dropped_changesets``), never retried, never carried, and moves
neither the health state nor the breaker.  No batch lets an exception
escape: every failure is recorded and mapped to a state transition,
which is what the chaos tests assert.

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
from collections import deque
from dataclasses import dataclass

from ..datalog.program import Program
from ..errors import EvaluationError, ServingUnavailable
from ..facts.changelog import Changeset, VersionedDatabase
from ..facts.database import Database
from ..runtime import chaos
from ..runtime.budget import Budget
from ..runtime.retry import CircuitBreaker, HealthState, RetryPolicy
from .snapshots import Snapshot, StalenessBound
from .views import MaterializedView, program_fingerprint

#: Per-read deadline when the caller gives none (``read(deadline_s=)``).
DEFAULT_DEADLINE_S = 5.0

#: Bound of the write queue; a full queue rejects writes
#: (``ServingUnavailable(reason="backpressure")``).  A reader's refresh
#: request is a flag beside the queue, never an entry in it.
MAX_QUEUE = 256

#: Consecutive failed batches before every view is invalidated and
#: recovery switches to full rebuilds.
REBUILD_AFTER = 2

#: How long an idle writer waits before it looks again at an open
#: circuit's cooldown; a write, a refresh request and ``stop()`` wake
#: it at once.
POLL_S = 0.02


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
    latency_s: float

    @property
    def lag(self) -> int:
        return self.source_version - self.version

    @property
    def stale(self) -> bool:
        return self.lag > 0


class ThreadedServer:
    """A versioned database and its registry of materialized views,
    behind admission control, deadlines, and one maintenance writer.

    Args:
        db: the database to serve, wrapped (not copied) in a
            :class:`~repro.facts.changelog.VersionedDatabase`.
        max_readers: concurrent-reader cap (admission control).
        staleness: default :class:`StalenessBound` for reads; ``None``
            means "any last-good snapshot" (maximum availability).
        retry: backoff policy for one batch's apply+refresh attempts.
        breaker: circuit breaker over *batches*; opens after its
            failure threshold and then rejects new writes.

    Thread-compatible by construction: any number of threads may read
    and :meth:`submit`; exactly one thread at a time — the writer
    thread, or under a lock the caller of a synchronous ``update`` or
    ``flush`` — runs :meth:`process_once`.
    """

    def __init__(self, db: Database | None = None, *,
                 max_readers: int = 8,
                 staleness: StalenessBound | None = None,
                 retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None) -> None:
        if max_readers < 1:
            raise ValueError("max_readers must be >= 1")
        self.source = VersionedDatabase(db)
        self.views: dict[tuple[str, str, str], MaterializedView] = {}
        self.staleness = staleness if staleness is not None \
            else StalenessBound()
        self.max_readers = max_readers
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None \
            else CircuitBreaker(failure_threshold=4, cooldown_s=0.5)
        self.health = HealthState.HEALTHY
        self.last_error: Exception | None = None
        self._admission = threading.BoundedSemaphore(max_readers)
        self._views_lock = threading.Lock()
        self._inline_refresh_lock = threading.Lock()
        self._fresh = threading.Condition()
        # -- the write queue, guarded by ``_queued`` -------------------------
        self._queued = threading.Condition()
        self._queue: deque[Changeset] = deque()
        self._refresh_requested = False
        self._halting = False
        #: A drained-but-not-yet-applied net changeset from a batch
        #: whose every retry failed; composed *before* newly queued
        #: changesets on the next batch so update order is preserved
        #: and no submitted write that can apply is ever dropped.
        self._carry: Changeset | None = None
        self._consecutive_failures = 0
        #: True while a batch (drain -> apply -> refresh) is in flight.
        self._busy = False
        self._absorbed = 0
        self._writer: threading.Thread | None = None
        self._stopped = False
        # -- counters (best-effort under the GIL; for reports) --------------
        self.reads = 0
        self.stale_reads = 0
        self.reads_rejected = 0
        self.submitted = 0
        self.rejected = 0
        self.batches = 0
        self.changesets_coalesced = 0
        #: Changesets dropped because they could never apply: each
        #: offender screened out at drain, plus (counted once) a
        #: composed batch that only failed as a whole.
        self.dropped_changesets = 0
        self.applied_versions = 0
        self.refresh_failures = 0
        self.full_rebuilds_forced = 0

    # -- lifecycle -----------------------------------------------------------
    @property
    def version(self) -> int:
        return self.source.version

    @property
    def _writer_running(self) -> bool:
        return self._writer is not None and self._writer.is_alive()

    def start(self) -> "ThreadedServer":
        """Start the background maintenance writer."""
        self._stopped = False
        if not self._writer_running:
            self._halting = False
            self._writer = threading.Thread(
                target=self._write_loop, name="repro-serving-writer",
                daemon=True)
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
        with self._queued:
            self._halting = True
            self._queued.notify_all()
        if self._writer is not None:
            self._writer.join(timeout=timeout_s)
            self._writer = None
        self._notify_readers()

    def flush(self, timeout_s: float = 10.0) -> bool:
        """Block until every accepted write is applied (a barrier).

        Returns False when the writes could not drain before the
        timeout (e.g. the circuit is open); queued work is preserved
        either way.
        """
        deadline = time.monotonic() + timeout_s
        while not self.drained() and time.monotonic() < deadline:
            if self._writer_running:
                time.sleep(0.005)
                continue
            with self._inline_refresh_lock:
                worked = self.process_once()
            self._notify_readers()
            if not worked:
                # Open circuit: wait out the cooldown, as the writer
                # thread does, instead of spinning.
                wait = self.breaker.retry_after_s() or POLL_S
                time.sleep(max(0.0, min(wait,
                                        deadline - time.monotonic())))
        return self.drained()

    def drained(self) -> bool:
        """True when every accepted write has been applied — nothing
        queued, nothing carried from a failed batch, no batch in
        flight.  The barrier tests and :meth:`flush` poll."""
        return (not self._queue and self._carry is None
                and not self._busy and self._absorbed >= self.submitted)

    def __enter__(self) -> "ThreadedServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _notify_readers(self) -> None:
        with self._fresh:
            self._fresh.notify_all()

    def _write_loop(self) -> None:
        while not self._halting:
            if self.process_once(block_s=POLL_S):
                self._notify_readers()
            elif self.health == HealthState.UNAVAILABLE:
                # Open circuit with nothing to do: sleep out a slice of
                # the cooldown instead of spinning.
                with self._queued:
                    self._queued.wait_for(lambda: self._halting,
                                          timeout=POLL_S)

    # -- writes --------------------------------------------------------------
    def update(self, changeset: Changeset,
               timeout_s: float | None = 0.0) -> None:
        """Submit one changeset; without a running writer thread the
        batch is processed synchronously before returning.

        Raises :class:`ServingUnavailable` when stopped, when the
        circuit is open, or on queue backpressure.
        """
        if self._stopped:
            raise ServingUnavailable("server is stopped",
                                     reason="stopped")
        self.submit(changeset, timeout_s=timeout_s)
        if not self._writer_running:
            # A reader's inline refresh maintains the same views.
            with self._inline_refresh_lock:
                self.process_once()
            self._notify_readers()

    def submit(self, changeset: Changeset,
               timeout_s: float | None = 0.0) -> None:
        """Enqueue one changeset for the next batch, processing nothing.

        Raises :class:`ServingUnavailable` when the circuit is open
        (``reason="circuit-open"``, with a ``retry_after_s`` hint) or
        the queue stays full past ``timeout_s`` (``None`` waits for
        room however long it takes; ``reason="backpressure"``).
        """
        if self.breaker.state == "open":
            self.rejected += 1
            raise ServingUnavailable(
                "the write circuit is open after repeated refresh "
                "failures; retry later", reason="circuit-open",
                retry_after_s=self.breaker.retry_after_s())
        with self._queued:
            if not self._queued.wait_for(
                    lambda: len(self._queue) < MAX_QUEUE,
                    timeout=timeout_s):
                self.rejected += 1
                raise ServingUnavailable(
                    "write queue is full; the maintenance writer is not "
                    "keeping up", reason="backpressure")
            self._queue.append(changeset)
            self.submitted += 1
            self._queued.notify_all()

    def _request_refresh(self) -> None:
        """Ask the writer for a refresh sweep without new changes; any
        number of requests before the next batch make one sweep."""
        with self._queued:
            self._refresh_requested = True
            self._queued.notify_all()

    def _drain(self, block_s: float | None) -> tuple[list[Changeset], bool]:
        """Take everything queued: ``(changesets, refresh requested)``.

        With ``block_s`` an idle caller first waits up to that long for
        a write, a refresh request or :meth:`stop`.
        """
        with self._queued:
            if block_s is not None:
                self._queued.wait_for(
                    lambda: self._queue or self._refresh_requested
                    or self._halting, timeout=block_s)
            batch = list(self._queue)
            self._queue.clear()
            refresh, self._refresh_requested = \
                self._refresh_requested, False
            if batch:
                self._queued.notify_all()  # room for blocked submitters
        return batch, refresh

    def _idb_predicates(self) -> frozenset[str]:
        """IDB predicates across every registered view's program."""
        preds: set[str] = set()
        for view in list(self.views.values()):
            preds |= view.program.idb_predicates
        return frozenset(preds)

    def _appliable(self, changeset: Changeset) -> bool:
        """Whether ``VersionedDatabase.apply`` would take ``changeset``
        (no row of the wrong arity, no IDB predicate of a registered
        view); when not, it is counted as dropped with its typed
        error.  Nothing is touched and no chaos checkpoint fires."""
        try:
            self.source.check(changeset,
                              idb_predicates=self._idb_predicates())
        except EvaluationError as error:
            self.dropped_changesets += 1
            self.last_error = error
            return False
        return True

    def process_once(self, block_s: float | None = None) -> bool:
        """Drain, apply, and refresh one batch; returns True if any
        work was seen.

        Never raises: every failure updates counters, health state,
        and the breaker, and leaves recovery to the next call.  The
        batch is only marked done once apply+refresh succeeded — a
        changeset is either fully applied and materialized, still owned
        by the retry/rebuild ladder, or dropped because it can never
        apply.
        """
        if not self.breaker.allow():
            # Open circuit: don't hammer a struggling engine.  Leave
            # queued work where it is; the cooldown will let a probe
            # batch through.
            self.health = HealthState.UNAVAILABLE
            return False
        batch, refresh = self._drain(block_s)
        # ``_busy`` covers drain-to-done (not the blocking wait), and
        # the carry is only picked up / put back inside it, so the
        # ``drained()`` barrier can never observe a half-claimed batch.
        self._busy = True
        try:
            carry, self._carry = self._carry, None
            net, parts = carry, int(carry is not None)
            for changeset in batch:
                if self._appliable(changeset):
                    self.changesets_coalesced += 1
                    parts += 1
                    net = changeset if net is None \
                        else net.compose(changeset)
            # One changeset screened just now needs no second check.
            # A composition can fail where each part applies (two parts
            # disagree on a new predicate's arity), and a carry was
            # screened before the views registered since.
            if (parts > 1 or carry is not None) \
                    and not self._appliable(net):
                net = None
            if not (batch or refresh or carry is not None) \
                    and self.health == HealthState.HEALTHY:
                return False
            self.batches += 1
            applied = net is None or net.is_empty

            def attempt() -> None:
                # ``applied`` survives across retry attempts, so the
                # changeset is applied exactly once even when a later
                # refresh attempt fails and the batch is retried.
                nonlocal applied
                if not applied:
                    # Before any mutation, so an injected ingestion
                    # fault is atomic: all of the changeset lands (and
                    # is logged) or none of it does.
                    chaos.checkpoint("serving:apply")
                    self.source.apply(
                        net, idb_predicates=self._idb_predicates())
                    self.applied_versions += 1
                    applied = True
                self._sweep()

            try:
                self.retry.call(attempt, on_failure=self._note_failure)
            except Exception as error:  # noqa: BLE001 - mapped to state
                self._batch_failed(error, None if applied else net)
                return True
            self._consecutive_failures = 0
            self.breaker.record_success()
            self.health = HealthState.HEALTHY
            return True
        finally:
            # Drained submissions are accounted for here — either fully
            # applied or parked in the carry (which ``drained()`` also
            # checks) — never while the batch is still in flight.
            self._absorbed += len(batch)
            self._busy = False

    def _note_failure(self, attempt: int, error: BaseException) -> None:
        """Per-attempt bookkeeping; the batch-level ladder advances in
        :meth:`_batch_failed` only once every retry is exhausted."""
        self.refresh_failures += 1
        if isinstance(error, Exception):
            self.last_error = error
        if self.health == HealthState.HEALTHY:
            self.health = HealthState.DEGRADED

    def _batch_failed(self, error: Exception,
                      unapplied: Changeset | None) -> None:
        """Climb the ladder after a batch whose every retry failed."""
        self.last_error = error
        self.breaker.record_failure()
        self._consecutive_failures += 1
        if unapplied is not None:
            # The EDB mutation never landed: carry it into the next
            # batch (composed before newer submissions) so no accepted
            # write that can apply is ever dropped.
            self._carry = unapplied
        if self._consecutive_failures >= REBUILD_AFTER:
            # The incremental path keeps failing batch after batch:
            # discard the possibly poisoned materializations and
            # recover from scratch.
            self.health = HealthState.REBUILDING
            self.full_rebuilds_forced += 1
            for view in list(self.views.values()):
                view.invalidate()
        if self.breaker.state != "closed":
            self.health = HealthState.UNAVAILABLE
        elif self.health == HealthState.HEALTHY:
            self.health = HealthState.DEGRADED

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
        could not be met before the deadline, by default
        :data:`DEFAULT_DEADLINE_S`).
        """
        if self._stopped:
            raise ServingUnavailable("server is stopped",
                                     reason="stopped")
        started = time.perf_counter()
        deadline = time.monotonic() + (
            deadline_s if deadline_s is not None else DEFAULT_DEADLINE_S)
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
                latency_s=time.perf_counter() - started)
        finally:
            self._admission.release()

    def _pin_snapshot(self, view: MaterializedView,
                      bound: StalenessBound,
                      deadline: float) -> Snapshot:
        """A snapshot satisfying ``bound``, or a typed failure.

        Fast path: the current snapshot already qualifies.  Slow path:
        ask the writer for a refresh and wait for publication; without
        a running writer, refresh inline (one reader at a time — the
        others wait on the condition as if a writer existed).
        """
        while True:
            snapshot = view.snapshot
            if bound.allows(snapshot, self.source.version):
                return snapshot  # type: ignore[return-value]
            if not self._writer_running:
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
                self._request_refresh()
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
            "writer_running": self._writer_running,
            "queue": len(self._queue),
            "submitted": self.submitted,
            "rejected": self.rejected,
            "batches": self.batches,
            "changesets_coalesced": self.changesets_coalesced,
            "dropped_changesets": self.dropped_changesets,
            "applied_versions": self.applied_versions,
            "refresh_failures": self.refresh_failures,
            "full_rebuilds_forced": self.full_rebuilds_forced,
            "breaker": self.breaker.describe(),
            "last_error": f"{type(self.last_error).__name__}: "
                          f"{self.last_error}"
            if self.last_error is not None else None,
            "views": [view.describe()
                      for view in list(self.views.values())],
        }
