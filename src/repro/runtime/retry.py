"""Retry, backoff, and health-state primitives for long-lived services.

The serving tier (:mod:`repro.serving`) keeps materialized views alive
against an update stream for an unbounded length of time, so transient
failures (budget expiry under load, injected chaos faults, a changeset
the incremental engine rejects) are *expected* events with defined
recovery paths, not exceptions to crash on.  This module supplies the
policy pieces that recovery is built from:

* :class:`RetryPolicy` — bounded retry with exponential backoff and
  deterministic jitter.  The jitter RNG is injectable so tests replay
  identical schedules; the sleep function is injectable so tests run in
  zero wall-clock time.
* :class:`CircuitBreaker` — the classic closed / open / half-open
  automaton over consecutive failures.  While open, callers shed work
  immediately instead of piling onto a struggling dependency; after a
  cooldown one probe is let through, and its outcome decides between
  closing the circuit and re-opening it.
* :class:`HealthState` — the coarse condition a service component
  reports: the serving writer walks ``HEALTHY -> DEGRADED ->
  REBUILDING -> UNAVAILABLE`` as failures accumulate and back as
  recoveries land, and operators/benchmarks read it as the one-word
  summary of "is this thing OK".

Everything here is synchronous and thread-compatible: breaker state is
lock-protected, and the only blocking call is the injectable ``sleep``.
"""

from __future__ import annotations

import enum
import random
import threading
import time
from typing import Callable, Iterator, Optional, Tuple, Type


class HealthState(enum.Enum):
    """Coarse operational condition of a serving component."""

    #: Normal operation; the fast path (incremental refresh) is in use.
    HEALTHY = "healthy"
    #: Recent failures; retries/backoff in progress, answers may be
    #: served from a bounded-stale snapshot.
    DEGRADED = "degraded"
    #: The fast path was abandoned; a full from-scratch rebuild is the
    #: current recovery attempt.
    REBUILDING = "rebuilding"
    #: The circuit is open: new work is rejected with
    #: :class:`~repro.errors.ServingUnavailable` until a probe succeeds.
    UNAVAILABLE = "unavailable"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class RetryPolicy:
    """Bounded retry with exponential backoff and jitter.

    Args:
        max_attempts: total attempts (first try included); >= 1.
        base_delay_s: delay before the second attempt.
        multiplier: backoff growth factor per further attempt.
        max_delay_s: cap on any single delay.
        jitter: fraction of each delay randomized away: the sleep for
            attempt ``i`` is uniform in
            ``[delay_i * (1 - jitter), delay_i]``.  ``0`` disables
            jitter (fully deterministic schedules for tests).
        rng: source of jitter randomness; inject a seeded
            :class:`random.Random` for reproducible schedules.
    """

    def __init__(self, max_attempts: int = 3,
                 base_delay_s: float = 0.05,
                 multiplier: float = 2.0,
                 max_delay_s: float = 2.0,
                 jitter: float = 0.5,
                 rng: Optional[random.Random] = None) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")
        self.max_attempts = max_attempts
        self.base_delay_s = base_delay_s
        self.multiplier = multiplier
        self.max_delay_s = max_delay_s
        self.jitter = jitter
        self._rng = rng if rng is not None else random.Random()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RetryPolicy(max_attempts={self.max_attempts}, "
                f"base={self.base_delay_s:g}s, "
                f"x{self.multiplier:g} <= {self.max_delay_s:g}s, "
                f"jitter={self.jitter:g})")

    def delay_s(self, attempt: int) -> float:
        """The jittered sleep after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempts are 1-based")
        raw = min(self.base_delay_s * self.multiplier ** (attempt - 1),
                  self.max_delay_s)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        return raw * (1.0 - self.jitter * self._rng.random())

    def delays(self) -> Iterator[float]:
        """The jittered delays between the policy's attempts, in order
        (``max_attempts - 1`` values)."""
        for attempt in range(1, self.max_attempts):
            yield self.delay_s(attempt)

    def call(self, fn: Callable[[], object],
             retry_on: Tuple[Type[BaseException], ...] = (Exception,),
             sleep: Callable[[float], None] = time.sleep,
             on_failure: Callable[[int, BaseException], None]
             | None = None) -> object:
        """Run ``fn`` under the policy; returns its first success.

        Only exceptions matching ``retry_on`` are retried; anything
        else propagates immediately.  ``on_failure(attempt, error)`` is
        invoked before each backoff sleep (and for the final, fatal
        attempt), which is where callers hook failure counters and
        circuit breakers.  When every attempt fails, the last error is
        re-raised unchanged.
        """
        last: BaseException | None = None
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except retry_on as error:
                last = error
                if on_failure is not None:
                    on_failure(attempt, error)
                if attempt < self.max_attempts:
                    sleep(self.delay_s(attempt))
        assert last is not None
        raise last


class CircuitBreaker:
    """Consecutive-failure circuit breaker (closed / open / half-open).

    ``record_failure`` past ``failure_threshold`` consecutive failures
    opens the circuit: :meth:`allow` answers ``False`` (shed the work)
    until ``cooldown_s`` has elapsed, then lets exactly one probe
    through (half-open).  The probe's :meth:`record_success` closes the
    circuit and resets the count; its :meth:`record_failure` re-opens
    it for another cooldown.  All transitions are lock-protected; the
    clock is injectable for deterministic tests.
    """

    def __init__(self, failure_threshold: int = 5,
                 cooldown_s: float = 1.0,
                 clock: Callable[[], float] = time.monotonic) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        self._opened_at: float | None = None
        self._probing = False
        #: Lifetime counters, for reports.
        self.total_failures = 0
        self.total_successes = 0
        self.times_opened = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CircuitBreaker({self.state}, "
                f"{self._consecutive_failures}/"
                f"{self.failure_threshold} failures)")

    @property
    def state(self) -> str:
        """``"closed"`` | ``"open"`` | ``"half-open"``."""
        with self._lock:
            return self._state_locked()

    def _state_locked(self) -> str:
        if self._opened_at is None:
            return "closed"
        if self._probing or \
                self._clock() - self._opened_at >= self.cooldown_s:
            return "half-open"
        return "open"

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def retry_after_s(self) -> float | None:
        """Seconds until the next probe is allowed; ``None`` if now."""
        with self._lock:
            if self._opened_at is None:
                return None
            remaining = self.cooldown_s - (self._clock() - self._opened_at)
            return max(0.0, remaining) if remaining > 0 else None

    def allow(self) -> bool:
        """May one unit of work proceed right now?

        Closed: always.  Open: no, until the cooldown elapses.
        Half-open: yes for exactly one caller (the probe); concurrent
        callers are shed until the probe reports back.
        """
        with self._lock:
            state = self._state_locked()
            if state == "closed":
                return True
            if state == "open":
                return False
            if self._probing:
                return False
            self._probing = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self.total_successes += 1
            self._consecutive_failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self.total_failures += 1
            self._consecutive_failures += 1
            was_open = self._opened_at is not None
            if self._probing or (not was_open and
                                 self._consecutive_failures
                                 >= self.failure_threshold):
                # A failed probe, or the threshold crossed: (re)start
                # the cooldown from now.
                self._opened_at = self._clock()
                self._probing = False
                self.times_opened += 1
            elif was_open:
                self._opened_at = self._clock()

    def describe(self) -> dict:
        """JSON-friendly snapshot for reports and ``describe`` CLIs."""
        with self._lock:
            return {
                "state": self._state_locked(),
                "consecutive_failures": self._consecutive_failures,
                "failure_threshold": self.failure_threshold,
                "total_failures": self.total_failures,
                "total_successes": self.total_successes,
                "times_opened": self.times_opened,
            }
