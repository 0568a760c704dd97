"""The concurrent, fault-tolerant serving tier.

The layer the ROADMAP's "millions of users" story runs on:

* :mod:`~repro.serving.views` — :class:`MaterializedView` /
  :class:`Server`: warm materializations kept live by incremental
  maintenance, with atomic state transitions and chaos fault points.
* :mod:`~repro.serving.snapshots` — MVCC :class:`Snapshot` reads with
  a :class:`StalenessBound`: readers pin an immutable version and
  never block on (or observe) a half-applied refresh.
* :mod:`~repro.serving.pipeline` — the :class:`WritePipeline`: one
  maintenance writer draining a batching/coalescing ingestion queue
  under retry-with-backoff and a circuit breaker.
* :mod:`~repro.serving.threaded` — :class:`ThreadedServer`: admission
  control, per-request deadlines, and the background writer thread.

See ``docs/serving.md`` for the failure matrix: every fault mode maps
to a defined recovery path and a typed, client-visible behaviour.
"""

from .pipeline import BackgroundWriter, WritePipeline
from .snapshots import Snapshot, StalenessBound
from .threaded import ReadResult, ThreadedServer
from .views import (MaterializedView, RefreshReport, Server,
                    program_fingerprint, relation_fingerprint)

__all__ = [
    "MaterializedView", "Server", "RefreshReport",
    "program_fingerprint", "relation_fingerprint",
    "Snapshot", "StalenessBound",
    "WritePipeline", "BackgroundWriter",
    "ThreadedServer", "ReadResult",
]
