"""The concurrent, fault-tolerant serving tier.

The layer the ROADMAP's "millions of users" story runs on:

* :mod:`~repro.serving.threaded` — :class:`ThreadedServer`, the one
  server: it owns the versioned database and the view registry, answers
  every read from a snapshot under admission control and per-request
  deadlines, and owns the write side — a bounded queue that one
  maintenance writer (a background thread, or the caller in
  synchronous mode) drains in batches, composing the backlog into one
  net changeset, under retry-with-backoff, forced rebuilds and a
  circuit breaker.  What no caller varies is a module constant there
  (``DEFAULT_DEADLINE_S``, ``MAX_QUEUE``, ``REBUILD_AFTER``,
  ``POLL_S``), not a constructor keyword.
* :mod:`~repro.serving.views` — :class:`MaterializedView`: a warm
  materialization kept live by incremental maintenance, with atomic
  state transitions and chaos fault points.
* :mod:`~repro.serving.snapshots` — MVCC :class:`Snapshot` reads with
  a :class:`StalenessBound`: readers pin an immutable version and
  never block on (or observe) a half-applied refresh.

See ``docs/serving.md`` for the failure matrix: every fault mode maps
to a defined recovery path and a typed, client-visible behaviour.
"""

from .snapshots import Snapshot, StalenessBound
from .threaded import ReadResult, ThreadedServer
from .views import (MaterializedView, program_fingerprint,
                    relation_fingerprint)

__all__ = [
    "MaterializedView", "program_fingerprint", "relation_fingerprint",
    "Snapshot", "StalenessBound",
    "ThreadedServer", "ReadResult",
]
