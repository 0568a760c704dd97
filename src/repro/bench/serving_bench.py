"""Concurrent serving benchmark: the ``BENCH_serving.json`` artifact.

A :class:`~repro.serving.threaded.ThreadedServer` is driven by a mixed
workload — ``readers`` reader threads answering a transitive-closure
query from MVCC snapshots while one writer client streams small edge
changesets through the server's writer — and the harness measures what
clients actually observe: read latency (p50/p99), throughput (QPS),
the stale-read ratio (answers served from a snapshot behind the
applied version), and the error rate, split into *expected* typed
:class:`~repro.errors.ServingUnavailable` rejections and *unexpected*
exceptions (of which there must be none).

Every mode runs twice: ``steady`` (no faults) and ``chaos``, where the
:mod:`~repro.runtime.chaos` harness fails a bounded number of
``serving:apply`` and ``serving:refresh`` entries mid-run, so the
report also demonstrates the recovery ladder — retries, degraded
health, and the return to ``HEALTHY`` — under live traffic.  After
each mode the surviving materialization must fingerprint identically
to a from-scratch semi-naive evaluation of the final database: the
differential guarantee, now checked at the end of a concurrent,
fault-injected run.

:func:`regression_failures` is the CI gate (``bench-serving
--check``): nonzero read throughput in every mode, zero unexpected
errors, zero errors of any kind in steady state, and fingerprint
agreement everywhere.
"""

from __future__ import annotations

import json
import platform
import random
import threading
import time

from ..datalog.parser import parse_program
from ..engine.seminaive import seminaive_evaluate
from ..errors import ServingUnavailable
from ..facts.changelog import Changeset
from ..facts.database import Database
from ..runtime.chaos import ChaosPlan
from ..runtime.retry import CircuitBreaker, HealthState, RetryPolicy
from ..serving.threaded import ThreadedServer
from ..serving.views import relation_fingerprint

#: Report format version (bump when the JSON shape changes).
REPORT_VERSION = 2

#: Default artifact filename.
DEFAULT_REPORT_PATH = "BENCH_serving.json"

#: The served program: transitive closure, the paper's canonical
#: recursive query and the one every other bench gates on.
TC_PROGRAM = """
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
"""

TC_QUERY = "reach(n0, X)"

#: The server's write-side counters each mode reports, from
#: :meth:`ThreadedServer.describe`.
SERVER_COUNTERS = ("queue", "submitted", "rejected", "batches",
                   "changesets_coalesced", "dropped_changesets",
                   "applied_versions", "refresh_failures",
                   "full_rebuilds_forced", "breaker", "last_error")


def _build_edb(seed: int, nodes: int = 48,
               edges: int = 160) -> tuple[Database, list[str]]:
    """A deterministic random digraph EDB (no self loops)."""
    rng = random.Random(seed)
    labels = [f"n{i}" for i in range(nodes)]
    db = Database()
    db.ensure("edge", 2)
    chosen: set[tuple[str, str]] = set()
    while len(chosen) < edges:
        src, dst = rng.choice(labels), rng.choice(labels)
        if src != dst and (src, dst) not in chosen:
            chosen.add((src, dst))
            db.add_fact("edge", src, dst)
    return db, labels


def _random_update(rng: random.Random,
                   labels: list[str]) -> Changeset:
    """A small edge churn batch: two inserts, one delete."""
    def edge() -> tuple[str, str]:
        while True:
            src, dst = rng.choice(labels), rng.choice(labels)
            if src != dst:
                return src, dst

    return Changeset(inserts={"edge": {edge(), edge()}},
                     deletes={"edge": {edge()}})


def _percentile(sorted_values: list[float], fraction: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(fraction * (len(sorted_values) - 1) + 0.5))
    return sorted_values[index]


def _chaos_plan() -> ChaosPlan:
    """Bounded mid-run faults: the recovery ladder must fire and heal.

    ``serving:apply`` fails twice (the retry loop should absorb it
    within one batch) and ``serving:refresh`` fails three times (enough
    to fail a whole batch and degrade health before the next batch
    recovers).  Both faults exhaust well before the run ends, so the
    final state must be healthy and fingerprint-clean.
    """
    plan = ChaosPlan()
    plan.fail_stage("serving:apply", repeats=1)
    plan.fail_stage("serving:refresh", repeats=2)
    return plan


def _run_mode(name: str, duration_s: float, readers: int,
              seed: int, plan: ChaosPlan | None) -> dict:
    program = parse_program(TC_PROGRAM)
    edb, labels = _build_edb(seed)
    server = ThreadedServer(
        db=edb, max_readers=readers + 2,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.01,
                          max_delay_s=0.05),
        breaker=CircuitBreaker(failure_threshold=8, cooldown_s=0.2))
    # Materialize once before the clock starts so reader latencies
    # measure serving, not the one-time view construction.
    server.view(program)
    server.read(program, TC_QUERY)

    latencies: list[float] = []
    stale_reads = 0
    reads = 0
    expected_errors: dict[str, int] = {}
    unexpected: list[str] = []
    writes = {"submitted": 0, "rejected": 0}
    lock = threading.Lock()
    stop = threading.Event()

    def reader_loop() -> None:
        nonlocal reads, stale_reads
        while not stop.is_set():
            try:
                result = server.read(program, TC_QUERY,
                                     deadline_s=1.0)
            except ServingUnavailable as error:
                with lock:
                    key = error.reason
                    expected_errors[key] = expected_errors.get(key, 0) + 1
                continue
            except Exception as error:  # noqa: BLE001 - the gate
                with lock:
                    unexpected.append(
                        f"reader: {type(error).__name__}: {error}")
                continue
            with lock:
                reads += 1
                latencies.append(result.latency_s)
                if result.stale:
                    stale_reads += 1

    def writer_loop() -> None:
        rng = random.Random(seed + 13)
        while not stop.is_set():
            changeset = _random_update(rng, labels)
            try:
                server.update(changeset, timeout_s=0.05)
                with lock:
                    writes["submitted"] += 1
            except ServingUnavailable:
                with lock:
                    writes["rejected"] += 1
            except Exception as error:  # noqa: BLE001 - the gate
                with lock:
                    unexpected.append(
                        f"writer: {type(error).__name__}: {error}")
            time.sleep(0.002)

    threads = [threading.Thread(target=reader_loop,
                                name=f"bench-reader-{i}", daemon=True)
               for i in range(readers)]
    threads.append(threading.Thread(target=writer_loop,
                                    name="bench-writer", daemon=True))

    started = time.perf_counter()
    server.start()
    context = plan.active() if plan is not None else None
    if context is not None:
        context.__enter__()
    try:
        for thread in threads:
            thread.start()
        time.sleep(duration_s)
        stop.set()
        for thread in threads:
            thread.join(timeout=5.0)
        server.stop(flush=True, timeout_s=10.0)
    finally:
        if context is not None:
            context.__exit__(None, None, None)
    elapsed = time.perf_counter() - started

    # The differential guarantee, post-chaos: the surviving
    # materialization equals a from-scratch evaluation of the final
    # database.
    view = server.view(program)
    if not view.valid:
        view.refresh()
    recomputed = seminaive_evaluate(program, server.source.db)
    agree = (relation_fingerprint(view.idb)
             == relation_fingerprint(recomputed))

    latencies.sort()
    entry = {
        "mode": name,
        "duration_s": round(elapsed, 3),
        "reads": reads,
        "qps": round(reads / elapsed, 1) if elapsed > 0 else 0.0,
        "latency_p50_ms": round(
            _percentile(latencies, 0.50) * 1000, 3),
        "latency_p99_ms": round(
            _percentile(latencies, 0.99) * 1000, 3),
        "stale_reads": stale_reads,
        "stale_read_ratio": round(stale_reads / reads, 4)
        if reads else 0.0,
        "expected_errors": dict(sorted(expected_errors.items())),
        "unexpected_errors": unexpected,
        "error_rate": round(
            (sum(expected_errors.values()) + len(unexpected))
            / max(1, reads + sum(expected_errors.values())), 4),
        "writes_submitted": writes["submitted"],
        "writes_rejected": writes["rejected"],
        "final_version": server.version,
        "final_health": str(server.health),
        "fingerprints_agree": agree,
    }
    described = server.describe()
    entry.update((key, described[key]) for key in SERVER_COUNTERS)
    if plan is not None:
        entry["faults_fired"] = len(plan.triggered)
    return entry


def run_serving_benchmark(duration_s: float = 2.0, readers: int = 4,
                          seed: int = 7, chaos: bool = True) -> dict:
    """Run the steady and (optionally) chaos modes; returns the report."""
    report: dict = {
        "version": REPORT_VERSION,
        "duration_s": duration_s,
        "readers": readers,
        "writers": 1,
        "seed": seed,
        "python": platform.python_version(),
        "modes": [],
    }
    report["modes"].append(_run_mode("steady", duration_s, readers,
                                     seed, plan=None))
    if chaos:
        report["modes"].append(_run_mode("chaos", duration_s, readers,
                                         seed, plan=_chaos_plan()))
    summary: dict = {}
    for mode in report["modes"]:
        prefix = mode["mode"]
        summary[f"{prefix}_qps"] = mode["qps"]
        summary[f"{prefix}_p99_ms"] = mode["latency_p99_ms"]
        summary[f"{prefix}_stale_ratio"] = mode["stale_read_ratio"]
        summary[f"{prefix}_error_rate"] = mode["error_rate"]
    report["summary"] = summary
    return report


def write_serving_benchmark(report: dict,
                            path: str = DEFAULT_REPORT_PATH) -> None:
    """Write the report as ``BENCH_serving.json``."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


def regression_failures(report: dict) -> list[str]:
    """Check the report against the CI gate; returns failure messages.

    Fails when any mode served zero reads, saw an unexpected (untyped)
    exception, or ended with a materialization that disagrees with the
    from-scratch recomputation — and when the steady mode saw *any*
    error at all (there is nothing to shed without faults).
    """
    failures: list[str] = []
    modes = report.get("modes", [])
    if not modes:
        failures.append("report has no benchmark modes")
    for mode in modes:
        name = mode.get("mode", "?")
        if mode.get("reads", 0) <= 0 or mode.get("qps", 0) <= 0:
            failures.append(f"{name}: no reads were served")
        for message in mode.get("unexpected_errors", []):
            failures.append(f"{name}: unexpected error: {message}")
        if mode.get("fingerprints_agree") is False:
            failures.append(
                f"{name}: final materialization disagrees with "
                "from-scratch recomputation")
        if name == "steady":
            errors = mode.get("expected_errors", {})
            if errors:
                failures.append(
                    f"steady: reads/writes were rejected without "
                    f"faults: {errors}")
        if name == "chaos" and mode.get("final_health") \
                != str(HealthState.HEALTHY):
            failures.append(
                f"chaos: server did not recover to HEALTHY "
                f"(final health {mode.get('final_health')!r})")
    return failures
