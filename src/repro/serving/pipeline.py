"""The fault-tolerant write pipeline: queue, coalescing, retry, breaker.

All mutation of a served database funnels through one
:class:`WritePipeline`: clients :meth:`submit` changesets into a
bounded ingestion queue and a *single* maintenance writer drains it —
batching every queued changeset into one net delta via
:meth:`Changeset.compose <repro.facts.changelog.Changeset.compose>`
(three queued updates cost one refresh, and an insert a later delete
cancels never touches the engine at all), applying it, and refreshing
the registered views under a per-refresh budget.

Failure handling is layered, each layer with a defined client-visible
behaviour (see ``docs/serving.md`` for the full matrix):

1. **Bounded retry with exponential backoff + jitter**
   (:class:`~repro.runtime.retry.RetryPolicy`) absorbs transient
   faults; readers meanwhile serve the last-good snapshot.
2. After ``rebuild_after`` consecutive refresh failures the pipeline
   abandons the incremental path: views are invalidated so the next
   attempt is a **full from-scratch rebuild** (health
   ``REBUILDING``).
3. A :class:`~repro.runtime.retry.CircuitBreaker` counts refresh
   failures; when it opens (``failure_threshold``), new writes are
   **rejected** with a typed
   :class:`~repro.errors.ServingUnavailable` (health
   ``UNAVAILABLE``) instead of queueing work that cannot complete.
   After the cooldown one probe batch is let through; success closes
   the circuit and re-opens ingestion.

A changeset that can never apply (a row of the wrong arity, an IDB
predicate) is none of the above — the engine is healthy, the input was
bad: it is **dropped** at drain with its typed error (``last_error``,
``dropped_changesets``), never retried, never carried, and moves
neither the health state nor the breaker.

The pipeline itself never lets an exception escape ``process_once`` —
every failure is recorded (``last_error``, counters) and mapped to a
state transition, which is what the chaos tests assert.
"""

from __future__ import annotations

import queue
import threading
import time
from typing import TYPE_CHECKING, Callable, Optional

from ..errors import EvaluationError, ServingUnavailable
from ..facts.changelog import Changeset
from ..runtime.budget import Budget
from ..runtime.retry import CircuitBreaker, HealthState, RetryPolicy

if TYPE_CHECKING:
    from .threaded import ThreadedServer

#: Sentinel queued to request a refresh sweep without new changes
#: (readers waiting on a staleness bound use this to nudge the writer).
_REFRESH = object()


class WritePipeline:
    """Changeset ingestion and the single maintenance writer.

    Thread-compatible by construction: any number of threads may call
    :meth:`submit`; exactly one thread (the owner — a
    :class:`~repro.serving.threaded.ThreadedServer`'s writer loop or
    synchronous ``update``, or a test driving :meth:`process_once`
    directly) runs the apply/refresh side.

    Args:
        server: the server whose database and views to maintain; the
            pipeline runs its ``_check``, ``_apply`` and ``_sweep``.
        max_queue: ingestion queue bound; a full queue rejects writes
            with :class:`ServingUnavailable` (backpressure).
        retry: backoff policy for one batch's apply+refresh attempts.
        breaker: circuit breaker over *batches*; opens after its
            failure threshold and then rejects new writes.
        rebuild_after: consecutive batch failures before views are
            invalidated and recovery switches to full rebuilds.
        refresh_timeout_s: per-refresh budget deadline; ``None`` for
            unbounded refreshes.
        sleep: injectable sleep (tests pass a no-op to run backoff
            schedules in zero wall-clock time).
    """

    def __init__(self, server: "ThreadedServer", max_queue: int = 256,
                 retry: RetryPolicy | None = None,
                 breaker: CircuitBreaker | None = None,
                 rebuild_after: int = 2,
                 refresh_timeout_s: float | None = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.server = server
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None \
            else CircuitBreaker(failure_threshold=4, cooldown_s=0.5)
        self.rebuild_after = rebuild_after
        self.refresh_timeout_s = refresh_timeout_s
        self._sleep = sleep
        self._queue: "queue.Queue[object]" = queue.Queue(maxsize=max_queue)
        #: A drained-but-not-yet-applied net changeset from a batch
        #: whose every retry failed; re-composed *before* newly queued
        #: changesets on the next cycle so update order is preserved
        #: and no submitted write that can apply is ever dropped.
        self._carry: Changeset | None = None
        self._consecutive_failures = 0
        self.health = HealthState.HEALTHY
        self.last_error: Exception | None = None
        # -- counters (single-writer updated; read freely) ------------------
        self.submitted = 0
        self.absorbed = 0
        #: True while a batch (drain -> apply -> refresh) is in flight.
        self.busy = False
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

    def __repr__(self) -> str:
        return (f"WritePipeline({self.health}, "
                f"queue={self._queue.qsize()}, "
                f"breaker={self.breaker.state})")

    # -- ingestion (any thread) ---------------------------------------------
    def submit(self, changeset: Changeset,
               timeout_s: float | None = 0.0) -> None:
        """Enqueue one changeset for the maintenance writer.

        Raises :class:`ServingUnavailable` when the circuit is open
        (``reason="circuit-open"``, with a ``retry_after_s`` hint) or
        the queue stays full past ``timeout_s``
        (``reason="backpressure"``).
        """
        if self.breaker.state == "open":
            self.rejected += 1
            raise ServingUnavailable(
                "write pipeline circuit is open after repeated refresh "
                "failures; retry later", reason="circuit-open",
                retry_after_s=self.breaker.retry_after_s())
        try:
            if timeout_s is None:
                self._queue.put(changeset)
            else:
                self._queue.put(changeset, block=timeout_s > 0,
                                timeout=timeout_s or None)
        except queue.Full:
            self.rejected += 1
            raise ServingUnavailable(
                "write queue is full; the maintenance writer is not "
                "keeping up", reason="backpressure") from None
        self.submitted += 1

    def request_refresh(self) -> None:
        """Ask the writer for a refresh sweep without new changes."""
        try:
            self._queue.put_nowait(_REFRESH)
        except queue.Full:
            pass  # a full queue already guarantees an imminent sweep

    def pending(self) -> int:
        return self._queue.qsize()

    def drained(self) -> bool:
        """True when every accepted write has been applied — nothing
        queued, nothing carried from a failed batch, no batch in
        flight.  The barrier tests and ``ThreadedServer.flush`` poll."""
        return (self._queue.empty() and self._carry is None
                and not self.busy and self.absorbed >= self.submitted)

    # -- the maintenance writer (single thread) -----------------------------
    def _drain(self, block_s: float | None
               ) -> tuple[Changeset | None, bool, int]:
        """Collect everything queued into one net changeset.

        Returns ``(net changeset or None, saw any work, changesets
        drained)``; composing here is the batching/coalescing step —
        one refresh absorbs the whole backlog.  A changeset that can
        never apply is dropped before it is composed, so neither the
        net delta nor the carry ever holds one.
        """
        items: list[object] = []
        try:
            if block_s is None:
                items.append(self._queue.get_nowait())
            else:
                items.append(self._queue.get(timeout=block_s))
        except queue.Empty:
            return None, self._carry is not None, 0
        while True:
            try:
                items.append(self._queue.get_nowait())
            except queue.Empty:
                break
        net: Changeset | None = None
        drained = 0
        for item in items:
            if item is _REFRESH:
                continue
            drained += 1
            if self._appliable(item):
                self.changesets_coalesced += 1
                net = item if net is None else net.compose(item)
        return net, True, drained

    def _appliable(self, changeset: Changeset) -> bool:
        """Whether the server's ``_apply`` would take ``changeset``;
        when not, it is counted as dropped with its typed error."""
        try:
            self.server._check(changeset)
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
        net, saw_work, drained = self._drain(block_s)
        # ``busy`` covers drain-to-done (not the blocking wait), and the
        # carry is only picked up / put back inside it, so the
        # ``drained()`` barrier can never observe a half-claimed batch.
        self.busy = True
        try:
            carry, self._carry = self._carry, None
            if carry is not None:
                net = carry if net is None else carry.compose(net)
            if net is not None and not self._appliable(net):
                # Each part applies, the whole does not: two queued
                # changesets disagree on a new predicate's arity.
                net = None
            if not saw_work and self.health == HealthState.HEALTHY:
                return False
            self.batches += 1
            state = {"applied": net is None or net.is_empty}
            try:
                self.retry.call(
                    lambda: self._apply_and_refresh(net, state),
                    retry_on=(Exception,), sleep=self._sleep,
                    on_failure=self._note_failure)
            except Exception as error:  # noqa: BLE001 - mapped to state
                self.last_error = error
                self.breaker.record_failure()
                self._consecutive_failures += 1
                if not state["applied"] and net is not None \
                        and not net.is_empty:
                    # The EDB mutation never landed: carry it into the
                    # next batch (composed before newer submissions) so
                    # no accepted write that can apply is ever dropped.
                    self._carry = net
                if self._consecutive_failures >= self.rebuild_after:
                    # The incremental path keeps failing batch after
                    # batch: discard the possibly poisoned
                    # materializations and recover from scratch.
                    self.health = HealthState.REBUILDING
                    self.full_rebuilds_forced += 1
                    for view in list(self.server.views.values()):
                        view.invalidate()
                if self.breaker.state != "closed":
                    self.health = HealthState.UNAVAILABLE
                elif self.health == HealthState.HEALTHY:
                    self.health = HealthState.DEGRADED
                return True
            self._consecutive_failures = 0
            self.breaker.record_success()
            self.health = HealthState.HEALTHY
            return True
        finally:
            # Drained submissions are accounted for here — either fully
            # applied or parked in the carry (which ``drained()`` also
            # checks) — never while the batch is still in flight.
            self.absorbed += drained
            self.busy = False

    def _note_failure(self, attempt: int, error: BaseException) -> None:
        """Per-attempt bookkeeping; the batch-level ladder (consecutive
        failures, rebuilds, breaker) advances in :meth:`process_once`
        only once every retry of the batch is exhausted."""
        self.refresh_failures += 1
        if isinstance(error, Exception):
            self.last_error = error
        if self.health == HealthState.HEALTHY:
            self.health = HealthState.DEGRADED

    def _apply_and_refresh(self, net: Changeset | None,
                           state: dict) -> None:
        """One attempt: land the batch (once) and refresh every view.

        ``state["applied"]`` survives across retry attempts, so the
        changeset is applied exactly once even when a later refresh
        attempt fails and the batch is retried — a retry can never
        double-apply the EDB mutation.
        """
        if not state["applied"]:
            assert net is not None
            self.server._apply(net)
            self.applied_versions += 1
            state["applied"] = True
        budget = Budget(timeout_s=self.refresh_timeout_s) \
            if self.refresh_timeout_s is not None else None
        self.server._sweep(budget)

    def describe(self) -> dict:
        return {
            "health": str(self.health),
            "queue": self._queue.qsize(),
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
        }


class BackgroundWriter:
    """Runs a :class:`WritePipeline` on a dedicated daemon thread.

    The loop blocks briefly on the ingestion queue so a stop request is
    noticed within ``poll_s`` even when no traffic arrives.  ``stop``
    drains nothing: queued-but-unprocessed changesets are reported via
    ``pipeline.pending()`` so callers can decide to flush first
    (:meth:`ThreadedServer.stop <repro.serving.threaded.ThreadedServer.
    stop>` does, by default).
    """

    def __init__(self, pipeline: WritePipeline,
                 poll_s: float = 0.05,
                 on_cycle: Optional[Callable[[], None]] = None) -> None:
        self.pipeline = pipeline
        self.poll_s = poll_s
        self._on_cycle = on_cycle
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        #: Exception that killed the loop itself (never expected:
        #: process_once is no-raise; this catches harness bugs).
        self.crashed: BaseException | None = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "BackgroundWriter":
        if self.running:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-serving-writer", daemon=True)
        self._thread.start()
        return self

    def _run(self) -> None:
        try:
            while not self._stop.is_set():
                worked = self.pipeline.process_once(block_s=self.poll_s)
                if self._on_cycle is not None and worked:
                    self._on_cycle()
                if not worked and self.pipeline.health \
                        == HealthState.UNAVAILABLE:
                    # Open circuit with nothing to do: sleep out a
                    # slice of the cooldown instead of spinning.
                    self._stop.wait(self.poll_s)
        except BaseException as error:  # pragma: no cover - harness bug
            self.crashed = error
            raise

    def stop(self, timeout_s: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None
