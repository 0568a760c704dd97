"""The concurrent, fault-tolerant serving tier.

The layer the ROADMAP's "millions of users" story runs on:

* :mod:`~repro.serving.threaded` — :class:`ThreadedServer`, the one
  server: it owns the versioned database and the view registry, answers
  every read from a snapshot, and funnels every write through the
  write pipeline, with admission control, per-request deadlines and an
  optional background writer thread.
* :mod:`~repro.serving.views` — :class:`MaterializedView`: a warm
  materialization kept live by incremental maintenance, with atomic
  state transitions and chaos fault points.
* :mod:`~repro.serving.snapshots` — MVCC :class:`Snapshot` reads with
  a :class:`StalenessBound`: readers pin an immutable version and
  never block on (or observe) a half-applied refresh.
* :mod:`~repro.serving.pipeline` — the :class:`WritePipeline`: one
  maintenance writer draining a batching/coalescing ingestion queue
  under retry-with-backoff and a circuit breaker.

See ``docs/serving.md`` for the failure matrix: every fault mode maps
to a defined recovery path and a typed, client-visible behaviour.
"""

from .pipeline import BackgroundWriter, WritePipeline
from .snapshots import Snapshot, StalenessBound
from .threaded import ReadResult, ThreadedServer
from .views import (MaterializedView, program_fingerprint,
                    relation_fingerprint)

__all__ = [
    "MaterializedView", "program_fingerprint", "relation_fingerprint",
    "Snapshot", "StalenessBound",
    "WritePipeline", "BackgroundWriter",
    "ThreadedServer", "ReadResult",
]
