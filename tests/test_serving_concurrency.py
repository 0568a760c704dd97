"""The acceptance workload: concurrent readers under a faulty writer.

Four reader threads answer a recursive query from MVCC snapshots while
one writer client streams edge changesets to the server's writer and the
chaos harness fails ``serving:apply`` and ``serving:refresh`` entries
mid-run.  The suite asserts the serving tier's whole contract at once:

* no unhandled exception ever escapes a reader or the writer — every
  failure a client sees is a typed ``ServingUnavailable``;
* every read is served from a consistent snapshot: its answer set
  equals a from-scratch semi-naive evaluation of the database *at the
  snapshot's version* (reconstructed via ``state_at``), even for reads
  served mid-fault from the last-good snapshot;
* after the faults exhaust, the writer drains and heals: a
  ``max_lag=0`` read returns the current version and the final
  materialization fingerprints identically to a full recomputation.

Runs are time-boxed to fractions of a second; CI additionally wraps
the suite in pytest-timeout so a deadlock fails fast instead of
hanging the job.
"""

import random
import sys
import threading
import time

from repro.datalog import parse_program
from repro.engine.bindings import EvalStats
from repro.engine.seminaive import answers, seminaive_evaluate
from repro.errors import ServingUnavailable
from repro.facts import Database
from repro.facts.changelog import Changeset
from repro.runtime.chaos import ChaosPlan
from repro.runtime.retry import CircuitBreaker, RetryPolicy
from repro.serving import (StalenessBound, ThreadedServer,
                           relation_fingerprint)
from repro.serving.views import program_fingerprint  # noqa: F401 - api

TC = """
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
"""

QUERY = "reach(n0, X)"

READERS = 4
RUN_S = 0.6


def _random_db(seed=7, nodes=24, edges=70):
    rng = random.Random(seed)
    db = Database()
    db.ensure("edge", 2)
    while db.total_facts() < edges:
        src, dst = rng.randrange(nodes), rng.randrange(nodes)
        if src != dst:
            db.add_fact("edge", f"n{src}", f"n{dst}")
    return db


def _server(db):
    return ThreadedServer(
        db=db, max_readers=READERS + 2,
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.005,
                          max_delay_s=0.02, jitter=0.0),
        breaker=CircuitBreaker(failure_threshold=10, cooldown_s=0.1))


def _expected_rows(server, program, version):
    """The query's answer from a from-scratch evaluation at ``version``."""
    from repro.datalog.parser import parse_query

    historical = server.source.state_at(version)
    idb = seminaive_evaluate(program, historical)
    return answers(parse_query(QUERY).literals, program, historical,
                   idb, EvalStats())


def test_mixed_workload_with_chaos_faults_stays_consistent():
    program = parse_program(TC)
    server = _server(_random_db())
    server.view(program)

    stop = threading.Event()
    lock = threading.Lock()
    observed = {}          # version -> one answer set served at it
    unhandled = []
    shed = {"reads": 0, "writes": 0}

    def reader_loop(index):
        bound = StalenessBound(max_lag=3) if index % 2 else None
        while not stop.is_set():
            try:
                result = server.read(program, QUERY, deadline_s=2.0,
                                     staleness=bound)
            except ServingUnavailable:
                with lock:
                    shed["reads"] += 1
                continue
            except Exception as error:  # noqa: BLE001 - the assertion
                with lock:
                    unhandled.append(
                        f"reader: {type(error).__name__}: {error}")
                return
            with lock:
                previous = observed.setdefault(
                    result.version, frozenset(result.rows))
                # Reads at one version must all see one answer set.
                if previous != frozenset(result.rows):
                    unhandled.append(
                        f"reader: divergent answers at "
                        f"v{result.version}")
                    return

    def writer_loop():
        rng = random.Random(99)
        while not stop.is_set():
            src = f"n{rng.randrange(24)}"
            dst = f"n{rng.randrange(24, 30)}"
            sign = "+" if rng.random() < 0.7 else "-"
            try:
                server.update(
                    Changeset.from_text(f"{sign}edge({src}, {dst})."),
                    timeout_s=0.05)
            except ServingUnavailable:
                with lock:
                    shed["writes"] += 1
            except Exception as error:  # noqa: BLE001 - the assertion
                with lock:
                    unhandled.append(
                        f"writer: {type(error).__name__}: {error}")
                return
            stop.wait(0.002)

    plan = ChaosPlan()
    plan.fail_stage("serving:apply", repeats=1)
    plan.fail_stage("serving:refresh", repeats=2)

    with server:
        server.read(program, QUERY)  # publish the first snapshot
        threads = [threading.Thread(target=reader_loop, args=(i,),
                                    daemon=True)
                   for i in range(READERS)]
        threads.append(threading.Thread(target=writer_loop, daemon=True))
        with plan.active():
            for thread in threads:
                thread.start()
            stop.wait(RUN_S)
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            assert server.flush(timeout_s=10.0), \
                server.describe()

        # No thread died, faults really fired, and reads were served
        # right through the outage.
        assert unhandled == []
        assert plan.triggered, "chaos faults never fired"
        assert observed, "no read completed"

        # Every served version is consistent with a from-scratch
        # evaluation of the database *at that version*.
        for version, rows in sorted(observed.items()):
            assert rows == frozenset(_expected_rows(
                server, program, version)), \
                f"answers served at v{version} diverge from " \
                f"a from-scratch evaluation at v{version}"

        # Healed: a current-version read succeeds and the final
        # materialization equals a full recomputation.
        final = server.read(program, QUERY,
                            staleness=StalenessBound(max_lag=0))
        assert final.version == server.version
        assert final.lag == 0
        view = server.view(program)
        expected = seminaive_evaluate(program,
                                      server.source.db)
        assert (relation_fingerprint(view.idb)
                == relation_fingerprint(expected))


def test_writerless_updates_and_inline_refreshes_take_turns():
    """Without a writer thread ``update`` runs the pipeline on the
    caller's thread while a reader whose bound fails refreshes inline;
    both maintain the same view, so they must never run at once.  Every
    version served equals a from-scratch evaluation at that version."""
    program = parse_program(TC)
    server = _server(_random_db(seed=31))
    server.read(program, QUERY)  # publish the first snapshot
    stop = threading.Event()
    lock = threading.Lock()
    observed = {}          # version -> every answer set served at it
    unhandled = []

    def updater(index):
        rng = random.Random(index)
        while not stop.is_set():
            src, dst = rng.randrange(24), rng.randrange(24)
            sign = "+" if rng.random() < 0.6 else "-"
            try:
                server.update(Changeset.from_text(
                    f"{sign}edge(n{src}, n{dst})."), timeout_s=0.5)
            except ServingUnavailable:
                pass
            except Exception as error:  # noqa: BLE001 - the assertion
                with lock:
                    unhandled.append(f"updater: {error!r}")
                return

    def reader():
        while not stop.is_set():
            try:
                result = server.read(program, QUERY, deadline_s=2.0,
                                     staleness=StalenessBound(max_lag=0))
            except ServingUnavailable:
                continue
            except Exception as error:  # noqa: BLE001 - the assertion
                with lock:
                    unhandled.append(f"reader: {error!r}")
                return
            with lock:
                observed.setdefault(result.version, set()).add(
                    frozenset(result.rows))

    threads = [threading.Thread(target=updater, args=(i,), daemon=True)
               for i in range(3)]
    threads += [threading.Thread(target=reader, daemon=True)
                for _ in range(READERS)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        stop.wait(3.0)
        stop.set()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert unhandled == []
    assert len(observed) > 10
    wrong = [version for version, answers in sorted(observed.items())
             if answers != {frozenset(_expected_rows(server, program,
                                                     version))}]
    assert wrong == [], (f"{len(wrong)} of {len(observed)} served "
                         "versions differ from a from-scratch evaluation")


def test_readers_keep_last_good_snapshot_through_writer_outage():
    program = parse_program(TC)
    server = _server(_random_db(seed=11))

    plan = ChaosPlan()
    plan.fail_stage("serving:refresh")      # incremental always fails
    plan.fail_stage("serving:materialize")  # ... and rebuilds too

    with server:
        warm = server.read(program, QUERY)
        assert warm.version == 0
        with plan.active():
            server.update(Changeset.from_text("+edge(n0, n99)."),
                          timeout_s=0.5)
            # Wait for the writer to land the apply (refreshes keep
            # failing, but ingestion itself is not faulted): only then
            # is the view genuinely stale.
            for _ in range(1000):
                if server.version >= 1:
                    break
                time.sleep(0.005)
            assert server.version >= 1
            deadline_failures = 0
            for _ in range(20):
                # Availability over freshness: the default bound keeps
                # answering from the last-good (v0) snapshot while
                # every refresh attempt behind the scenes fails.
                result = server.read(program, QUERY, deadline_s=0.5)
                assert result.version == 0
                assert frozenset(result.rows) == frozenset(warm.rows)
                # ... while a current-version demand fails *typed*.
                try:
                    server.read(program, QUERY, deadline_s=0.05,
                                staleness=StalenessBound(max_lag=0))
                except ServingUnavailable as error:
                    assert error.reason in ("deadline", "no-snapshot")
                    deadline_failures += 1
            assert deadline_failures == 20
        # Faults lifted: the writer heals and freshness returns.
        assert server.flush(timeout_s=10.0)
        healed = server.read(program, QUERY,
                             staleness=StalenessBound(max_lag=0))
        assert healed.version == server.version >= 1
        assert ("n99",) in healed.rows


def test_waiting_readers_do_not_fill_the_write_queue():
    """Readers waiting on ``max_lag=0`` ask the writer for a refresh
    every time they wake; each request used to be an entry in the
    bounded write queue, so seven of them behind one stalled refresh
    filled it and the next write was shed as backpressure."""
    program = parse_program(TC)
    server = ThreadedServer(db=_random_db(seed=5), max_readers=8)
    plan = ChaosPlan()
    plan.fail_stage("serving:refresh", stall_s=3.0, repeats=0)
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            try:
                server.read(program, QUERY, deadline_s=2.5,
                            staleness=StalenessBound(max_lag=0))
            except ServingUnavailable:
                pass

    with server:
        server.read(program, QUERY)  # publish the first snapshot
        with plan.active():
            server.update(Changeset.from_text("+edge(n0, n77)."))
            for _ in range(1000):  # the writer applies, then stalls
                if server.version >= 1:
                    break
                time.sleep(0.005)
            readers = [threading.Thread(target=reader, daemon=True)
                       for _ in range(7)]
            for thread in readers:
                thread.start()
            time.sleep(2.2)  # still inside the stalled refresh
            try:
                server.update(Changeset.from_text("+edge(n1, n78)."))
                assert server.describe()["queue"] == 1
            finally:
                stop.set()
                for thread in readers:
                    thread.join(timeout=10.0)
        assert server.flush(timeout_s=10.0), server.describe()
        final = server.read(program, QUERY,
                            staleness=StalenessBound(max_lag=0))
        assert final.version == server.version == 2
        assert ("n77",) in final.rows


def test_flush_is_a_barrier_across_concurrent_submitters():
    program = parse_program(TC)
    server = _server(_random_db(seed=23))
    submitters, per_thread = 3, 15

    def submit_loop(index):
        for i in range(per_thread):
            server.update(Changeset.from_text(
                f"+edge(w{index}_{i}, sink)."), timeout_s=1.0)

    with server:
        server.read(program, QUERY)
        threads = [threading.Thread(target=submit_loop, args=(i,),
                                    daemon=True)
                   for i in range(submitters)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert server.flush(timeout_s=10.0), server.describe()
        assert server.drained()
        # Inserts commute, so the final EDB is exact regardless of the
        # interleaving; every accepted write must have landed.
        edges = server.source.db.facts("edge")
        for index in range(submitters):
            for i in range(per_thread):
                assert (f"w{index}_{i}", "sink") in edges
        view = server.view(program)
        if not view.valid:
            view.refresh()
        expected = seminaive_evaluate(program, server.source.db)
        assert (relation_fingerprint(view.idb)
                == relation_fingerprint(expected))
