"""The concurrent serving tier, tested deterministically.

Covers the single-threaded contracts of every new piece — MVCC
snapshots and staleness bounds, retry/backoff, the circuit breaker,
the server's coalescing write batches and their failure ladder, the refresh
sweep that outlives a failing view, and the atomic-materialization
regression — by driving ``process_once`` and injected chaos plans
directly, with no threads and no wall-clock sleeps.  The actual multi-threaded mixed
workload lives in ``test_serving_concurrency.py``.
"""

import random

import pytest

from repro.datalog import parse_program
from repro.datalog.rules import Rule
from repro.engine.seminaive import seminaive_evaluate
from repro.errors import (BudgetExceededError, EvaluationError,
                          ServingUnavailable)
from repro.facts import Database
from repro.facts.changelog import Changeset, VersionedDatabase
from repro.runtime import ChaosError
from repro.runtime.budget import Budget
from repro.runtime.chaos import ChaosPlan
from repro.runtime.retry import CircuitBreaker, HealthState, RetryPolicy
from repro.serving import (Snapshot, StalenessBound, ThreadedServer,
                           program_fingerprint, relation_fingerprint)
from repro.serving.threaded import MAX_QUEUE
from tests.helpers import state_at

TC = """
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
"""

NONREC = """
grand(X, Z) :- parent(X, Y), parent(Y, Z).
"""


def _edge_db(*edges):
    db = Database()
    db.ensure("edge", 2)
    for src, dst in edges:
        db.add_fact("edge", src, dst)
    return db


def _chain_db(n=5):
    return _edge_db(*[(f"n{i}", f"n{i + 1}") for i in range(n)])


def _no_sleep(_):
    pass


# -- snapshots and staleness bounds ------------------------------------------

def test_snapshot_is_immune_to_live_mutation():
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(3))
    view = server.view(program)
    view.refresh()
    snapshot = view.snapshot
    assert snapshot is not None and snapshot.version == 0
    before = snapshot.query("reach(n0, X)")

    server.source.apply(Changeset.from_text("+edge(n3, n9). -edge(n0, n1)."))
    view.refresh()
    # The pinned snapshot still answers as of version 0.
    assert snapshot.query("reach(n0, X)") == before
    assert view.snapshot is not snapshot
    assert view.snapshot.version == 1
    assert ("n9",) in view.snapshot.query("reach(n3, X)")


def test_snapshot_fingerprint_matches_state_at_version():
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(4))
    view = server.view(program)
    pinned = []
    for text in ("+edge(n4, n5).", "-edge(n1, n2).", "+edge(n0, n4)."):
        view.refresh()
        pinned.append(view.snapshot)
        server.source.apply(Changeset.from_text(text))
    view.refresh()
    pinned.append(view.snapshot)
    for snapshot in pinned:
        historical = state_at(server.source, snapshot.version)
        expected = seminaive_evaluate(program, historical)
        assert snapshot.fingerprint() == relation_fingerprint(expected)


def test_a_program_is_fingerprinted_once(monkeypatch):
    """Every read keys its view by the program's fingerprint: the rules
    are rendered once per program, and equal programs share a view."""
    program = parse_program(TC)
    rendered = []
    render = Rule.__str__

    def counting(rule):
        rendered.append(rule)
        return render(rule)

    monkeypatch.setattr(Rule, "__str__", counting)
    server = ThreadedServer(db=_chain_db(3))
    first = server.read(program, "reach(n0, X)")
    assert len(rendered) == len(program)
    for _ in range(3):
        assert server.read(program, "reach(n0, X)").rows == first.rows
    assert len(rendered) == len(program)
    twin = parse_program(TC)
    assert program_fingerprint(twin) == program_fingerprint(program)
    assert server.view(twin) is server.view(program)
    other = parse_program(NONREC)
    assert program_fingerprint(other) != program_fingerprint(program)


def test_staleness_bound_axes():
    program = parse_program(TC)
    snapshot = Snapshot(program, version=3, edb=Database(),
                        idb=Database())
    assert StalenessBound().allows(snapshot, source_version=1000)
    assert not StalenessBound().allows(None, source_version=0)
    assert StalenessBound(max_lag=2).allows(snapshot, 5)
    assert not StalenessBound(max_lag=1).allows(snapshot, 5)
    assert StalenessBound(max_lag=0).allows(snapshot, 3)
    with pytest.raises(ValueError):
        StalenessBound(max_lag=-1)
    # No wall-clock axis: a quiet server publishes nothing new, so an
    # age bound refused a snapshot that was still current.
    with pytest.raises(TypeError):
        StalenessBound(max_age_s=60.0)


def test_a_view_takes_no_counting_option():
    server = ThreadedServer(db=_chain_db(2))
    for option in ("use_counts", "counts"):
        with pytest.raises(TypeError):
            server.view(parse_program(TC), **{option: False})
    view = server.view(parse_program(TC))
    assert view.refresh() == "full"
    assert not hasattr(view, "counts")
    assert "counts" not in view.describe()


def test_one_server_with_snapshot_reads_only():
    # Removal pin: ThreadedServer is the only server, every view
    # publishes, and the live IDB answers no query.
    import repro.serving as serving

    for name in ("Server", "RefreshReport"):
        assert not hasattr(serving, name)
    with pytest.raises(ImportError):
        from repro.serving import Server  # noqa: F401
    server = ThreadedServer(db=_chain_db(2))
    for name in ("server", "serve", "apply", "check", "refresh_all"):
        assert not hasattr(server, name)
    with pytest.raises(TypeError):
        server.view(parse_program(TC), publish_snapshots=True)
    view = server.view(parse_program(TC))
    assert not hasattr(view, "query")
    assert view.refresh() == "full" and view.snapshot.version == 0


@pytest.mark.parametrize("keyword, value", [
    ("source", VersionedDatabase()), ("refresh_timeout_s", 1.0),
    ("default_deadline_s", 1.0), ("max_queue", 2),
    ("rebuild_after", 2), ("poll_s", 0.005)])
def test_server_takes_no_removed_keyword(keyword, value):
    # Removal pin: the writer's knobs no caller varies are module
    # constants of repro.serving.threaded, and there is no second way
    # to hand the server its database.
    with pytest.raises(TypeError):
        ThreadedServer(db=_chain_db(2), **{keyword: value})
    import repro.serving as serving

    for name in ("WritePipeline", "BackgroundWriter"):
        assert not hasattr(serving, name)
    assert not hasattr(ThreadedServer(db=_chain_db(2)), "pipeline")


def test_one_write_checks_its_changeset_twice(monkeypatch):
    """The drain screen and ``apply``'s own guard; the composed net is
    only re-checked when it has two or more parts."""
    calls = []
    real_check = VersionedDatabase.check

    def counted(self, changeset, idb_predicates=()):
        calls.append(changeset)
        return real_check(self, changeset, idb_predicates)

    monkeypatch.setattr(VersionedDatabase, "check", counted)
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(3))
    server.read(program, "reach(n0, X)")
    server.update(Changeset.from_text("+edge(n3, n4)."))
    assert len(calls) == 2 and server.version == 1
    calls.clear()
    server.submit(Changeset.from_text("+edge(n4, n5)."))
    server.submit(Changeset.from_text("+edge(n5, n6)."))
    assert server.process_once()
    assert len(calls) == 4 and server.version == 2  # 2 screens, net, apply


# -- retry policy ------------------------------------------------------------

def test_retry_backoff_schedule_is_exponential_and_capped():
    policy = RetryPolicy(max_attempts=5, base_delay_s=0.1,
                         multiplier=2.0, max_delay_s=0.3, jitter=0.0)
    assert [policy.delay_s(attempt) for attempt in range(1, 5)] \
        == [0.1, 0.2, 0.3, 0.3]


def test_retry_jitter_is_bounded_and_reproducible():
    make = lambda: RetryPolicy(max_attempts=4, base_delay_s=0.1,
                               jitter=0.5, rng=random.Random(42))
    first, second = ([policy.delay_s(attempt) for attempt in range(1, 4)]
                     for policy in (make(), make()))
    assert first == second  # seeded rng => identical schedule
    for raw, jittered in zip([0.1, 0.2, 0.4], first):
        assert raw * 0.5 <= jittered <= raw


def test_retry_call_recovers_then_reraises():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise ValueError("transient")
        return "ok"

    policy = RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0)
    failures = []
    assert policy.call(flaky, sleep=_no_sleep,
                       on_failure=lambda n, e: failures.append(n)) == "ok"
    assert len(calls) == 3 and failures == [1, 2]

    calls.clear()
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=2, jitter=0.0).call(
            lambda: (_ for _ in ()).throw(ValueError("always")),
            sleep=_no_sleep)


def test_retry_only_retries_matching_errors():
    def boom():
        raise KeyError("not transient")

    with pytest.raises(KeyError):
        RetryPolicy(max_attempts=5, jitter=0.0).call(
            boom, retry_on=(ValueError,), sleep=_no_sleep)


# -- circuit breaker ---------------------------------------------------------

def test_breaker_automaton_closed_open_halfopen():
    clock = [0.0]
    breaker = CircuitBreaker(failure_threshold=2, cooldown_s=10.0,
                             clock=lambda: clock[0])
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    assert breaker.state == "closed"
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    assert breaker.retry_after_s() == pytest.approx(10.0)

    clock[0] = 11.0  # cooldown elapsed: exactly one probe
    assert breaker.state == "half-open"
    assert breaker.allow()
    assert not breaker.allow()  # concurrent caller is shed

    breaker.record_failure()  # failed probe re-opens for a new cooldown
    assert breaker.state == "open"
    clock[0] = 22.0
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == "closed" and breaker.allow()
    assert breaker.times_opened == 2


# -- the write side: queue, batches, failure ladder --------------------------

def _writerless(db=None, **kwargs):
    """A writer-less server, for tests that drive ``process_once`` by
    hand; retries back off for zero seconds."""
    kwargs.setdefault("retry", RetryPolicy(max_attempts=2,
                                           base_delay_s=0.0, jitter=0.0))
    return ThreadedServer(db=db if db is not None else _chain_db(4),
                          **kwargs)


def test_pipeline_coalesces_queue_into_one_batch():
    program = parse_program(TC)
    server = _writerless()
    server.view(program)
    server.submit(Changeset.from_text("+edge(n4, n5)."))
    server.submit(Changeset.from_text("+edge(n5, n6)."))
    server.submit(Changeset.from_text("-edge(n4, n5)."))
    assert server.process_once()
    assert server.drained()
    assert server.batches == 1
    assert server.changesets_coalesced == 3
    assert server.applied_versions == 1  # one net apply, one version
    view = server.view(program)
    assert view.version == server.version == 1
    # The insert+delete pair cancelled; only n5->n6 landed.
    assert ("n6",) in view.snapshot.query("reach(n5, X)")
    assert not server.source.db.facts("edge") & {("n4", "n5")}


@pytest.mark.parametrize("first, second, edges, reached", [
    # An insert of a present row, then its delete: the row goes.
    ("+edge(a, b).", "-edge(a, b).", {("b", "c")}, set()),
    # A delete of an absent row, then its insert: the row comes.
    ("-edge(c, d).", "+edge(c, d).",
     {("a", "b"), ("b", "c"), ("c", "d")}, {("b",), ("c",), ("d",)}),
], ids=["insert-then-delete", "delete-then-insert"])
def test_a_batch_applies_as_its_parts_one_by_one(first, second, edges,
                                                 reached):
    program = parse_program(TC)
    fresh = StalenessBound(max_lag=0)
    batched, one_by_one = (_writerless(db=_edge_db(("a", "b"), ("b", "c")))
                           for _ in range(2))
    for server in (batched, one_by_one):
        server.read(program, "reach(a, Y)")
    batched.submit(Changeset.from_text(first))
    batched.submit(Changeset.from_text(second))
    assert batched.process_once()
    assert batched.changesets_coalesced == 2
    one_by_one.update(Changeset.from_text(first))
    one_by_one.update(Changeset.from_text(second))
    for server in (batched, one_by_one):
        assert server.source.db.facts("edge") == edges
        assert server.read(program, "reach(a, Y)",
                           staleness=fresh).rows == reached


def test_pipeline_failed_batch_is_carried_not_dropped():
    program = parse_program(TC)
    server = _writerless()
    view = server.view(program)
    view.refresh()
    server.submit(Changeset.from_text("+edge(n4, n5)."))

    plan = ChaosPlan()
    plan.fail_stage("serving:apply", repeats=1)  # both attempts fail
    with plan.active():
        assert server.process_once()
    assert not server.drained()  # the write is parked, not lost
    assert server.health == HealthState.DEGRADED
    assert isinstance(server.last_error, ChaosError)
    assert server.version == 0

    assert server.process_once()  # fault exhausted: carry lands
    assert server.drained()
    assert server.version == 1
    assert server.health == HealthState.HEALTHY
    assert ("n5",) in server.view(program).snapshot.query("reach(n0, X)")


MALFORMED = ["+edge(x, y, z).",     # wrong arity
             "+reach(q, r)."]       # an IDB predicate


def _assert_healthy_after_drop(server, program, version):
    """One changeset was dropped; everything valid landed and nothing
    climbed the failure ladder."""
    assert server.drained()
    assert server.version == version
    assert server.dropped_changesets == 1
    assert server.describe()["dropped_changesets"] == 1
    assert isinstance(server.last_error, EvaluationError)
    assert server.health == HealthState.HEALTHY
    assert server.breaker.state == "closed"
    assert server.full_rebuilds_forced == 0
    assert server.refresh_failures == 0
    view = server.view(program)
    assert view.version == version
    expected = seminaive_evaluate(program, server.source.db)
    assert view.fingerprint() == relation_fingerprint(expected)


@pytest.mark.parametrize("bad", MALFORMED)
def test_pipeline_drops_a_changeset_that_can_never_apply(bad):
    """It used to be parked in the carry and composed before every
    later batch, so no write ever landed again: version stuck at 0,
    full rebuilds forced, and the breaker open by the fourth batch."""
    program = parse_program(TC)
    server = _writerless(
        retry=RetryPolicy(base_delay_s=0.0, jitter=0.0))
    server.view(program).refresh()
    server.submit(Changeset.from_text(bad))
    assert server.process_once()
    assert server.drained() and server.version == 0
    for step in range(3):
        server.submit(Changeset.from_text(f"+edge(n{4 + step}, "
                                          f"n{5 + step})."))
        assert server.process_once()
        assert server.version == step + 1
    assert server.applied_versions == 3
    _assert_healthy_after_drop(server, program, version=3)
    assert ("n7",) in server.view(program).snapshot.query("reach(n0, X)")


@pytest.mark.parametrize("bad", MALFORMED)
def test_pipeline_coalesced_batch_keeps_the_valid_writes(bad):
    program = parse_program(TC)
    server = _writerless()
    server.view(program).refresh()
    server.submit(Changeset.from_text("+edge(n4, n5)."))
    server.submit(Changeset.from_text(bad))
    server.submit(Changeset.from_text("+edge(n5, n6)."))
    assert server.process_once()
    assert server.batches == 1 and server.changesets_coalesced == 2
    _assert_healthy_after_drop(server, program, version=1)
    assert ("n6",) in server.view(program).snapshot.query("reach(n0, X)")


def test_pipeline_drops_a_batch_that_only_fails_as_a_whole():
    """Each changeset applies alone; composed, they disagree on the
    arity of a predicate the database does not hold yet."""
    program = parse_program(TC)
    server = _writerless()
    server.view(program).refresh()
    server.submit(Changeset.from_text("+colour(n0, red)."))
    server.submit(Changeset.from_text("+colour(n1)."))
    assert server.process_once()
    assert "colour" not in server.source.db
    _assert_healthy_after_drop(server, program, version=0)
    server.submit(Changeset.from_text("+edge(n4, n5)."))
    assert server.process_once()
    assert server.version == 1 and server.drained()


@pytest.mark.parametrize("bad", MALFORMED)
def test_threaded_server_sync_update_survives_a_malformed_changeset(bad):
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(4))
    server.read(program, "reach(n0, X)")
    server.update(Changeset.from_text(bad))  # never raises for this
    server.update(Changeset.from_text("+edge(n4, n5)."))
    _assert_healthy_after_drop(server, program,
                               version=1)
    assert ("n5",) in server.read(program, "reach(n0, X)").rows


def test_pipeline_retry_applies_changeset_exactly_once():
    program = parse_program(TC)
    server = _writerless(
        retry=RetryPolicy(max_attempts=3, base_delay_s=0.0, jitter=0.0))
    server.view(program).refresh()
    server.submit(Changeset.from_text("+edge(n4, n5)."))
    plan = ChaosPlan()
    plan.fail_stage("serving:refresh", repeats=0)  # first attempt only
    with plan.active():
        assert server.process_once()
    # Apply landed on attempt 1; the retry must not re-apply it.
    assert server.version == 1
    assert server.applied_versions == 1
    assert server.drained()
    assert server.health == HealthState.HEALTHY
    assert server.refresh_failures == 1


def test_pipeline_rebuild_ladder_then_circuit_opens():
    program = parse_program(TC)
    server = _writerless(
        retry=RetryPolicy(max_attempts=1, jitter=0.0),
        breaker=CircuitBreaker(failure_threshold=3, cooldown_s=60.0))
    view = server.view(program)
    view.refresh()
    last_good = view.snapshot

    plan = ChaosPlan()
    plan.fail_stage("serving:refresh")       # incremental path fails
    plan.fail_stage("serving:materialize")   # ... and so do rebuilds
    with plan.active():
        server.submit(Changeset.from_text("+edge(n4, n5)."))
        assert server.process_once()
        assert server.health == HealthState.DEGRADED
        assert server.process_once()
        # Second consecutive failure: views invalidated for rebuild.
        assert server.full_rebuilds_forced == 1
        assert not view.valid
        assert server.process_once()
        assert server.breaker.state == "open"
        assert server.health == HealthState.UNAVAILABLE
        # Open circuit rejects both new writes and processing.
        with pytest.raises(ServingUnavailable) as exc:
            server.submit(Changeset.from_text("+edge(n5, n6)."))
        assert exc.value.reason == "circuit-open"
        assert exc.value.retry_after_s is not None
        assert not server.process_once()
    # Readers kept the last-good snapshot through the whole outage.
    assert view.snapshot is last_good


def test_pipeline_recovers_after_cooldown_probe():
    clock = [0.0]
    program = parse_program(TC)
    server = _writerless(
        retry=RetryPolicy(max_attempts=1, jitter=0.0),
        breaker=CircuitBreaker(failure_threshold=1, cooldown_s=5.0,
                               clock=lambda: clock[0]))
    server.view(program).refresh()
    plan = ChaosPlan()
    plan.fail_stage("serving:refresh", repeats=0)
    server.submit(Changeset.from_text("+edge(n4, n5)."))
    with plan.active():
        assert server.process_once()
    assert server.breaker.state == "open"
    clock[0] = 6.0  # cooldown over: the probe batch heals everything
    assert server.process_once()
    assert server.breaker.state == "closed"
    assert server.health == HealthState.HEALTHY
    assert server.drained()
    view = server.view(program)
    assert view.version == server.version == 1


def test_pipeline_backpressure_rejects_with_typed_error():
    server = _writerless()
    for index in range(MAX_QUEUE):
        server.submit(Changeset.from_text(f"+edge(a{index}, b)."))
    with pytest.raises(ServingUnavailable) as exc:
        server.submit(Changeset.from_text("+edge(c, d)."),
                      timeout_s=0.0)
    assert exc.value.reason == "backpressure"
    assert server.rejected == 1
    assert server.describe()["queue"] == MAX_QUEUE


# -- the refresh sweep: no abort on the first failure ------------------------

def test_refresh_all_continues_past_failing_view():
    """The batch's sweep refreshes every view before it re-raises
    the first failure."""
    server = _writerless(
        retry=RetryPolicy(max_attempts=1, jitter=0.0))
    first = server.view(parse_program(TC))
    second = server.view(parse_program(NONREC))
    server.submit(Changeset())
    assert server.process_once()  # both materialized at v0
    server.submit(Changeset.from_text("+edge(n4, n5). +parent(a, b)."))

    plan = ChaosPlan()
    plan.fail_stage("serving:refresh", repeats=0)
    with plan.active():
        assert server.process_once()
    # Registration order: the TC view hits the fault, NONREC succeeds.
    assert isinstance(server.last_error, ChaosError)
    assert server.health == HealthState.DEGRADED
    assert second.valid and second.version == 1
    assert second.last_mode == "incremental"
    assert not first.valid and first.version == 0

    # The failed view self-heals on the next (clean) sweep.
    assert server.process_once()
    assert server.health == HealthState.HEALTHY and first.valid
    assert first.version == second.version == 1


# -- atomic materialization (satellite: never half-built) --------------------

def test_materialize_fault_leaves_last_good_snapshot_intact():
    """A fault during the self-healing rebuild must leave the view
    cleanly invalidated — previous snapshot serving, no half-built
    state — at *both* failed refresh attempts, and the third attempt
    must fully recover."""
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(3))
    view = server.view(program)
    view.refresh()
    last_good = view.snapshot
    good_rows = last_good.query("reach(n0, X)")
    server.source.apply(Changeset.from_text("+edge(n3, n4)."))

    plan = ChaosPlan()
    plan.fail_stage("serving:refresh", repeats=0)
    plan.fail_stage("serving:materialize", repeats=0)
    with plan.active():
        # Attempt 1: the incremental path faults mid-maintenance.
        with pytest.raises(ChaosError):
            view.refresh()
        assert not view.valid
        assert view.version == 0
        assert view.snapshot is last_good
        assert last_good.query("reach(n0, X)") == good_rows
        # Attempt 2: the self-healing full rebuild faults too.
        with pytest.raises(ChaosError):
            view.refresh()
        assert not view.valid
        assert view.version == 0
        assert view.snapshot is last_good
        assert last_good.query("reach(n0, X)") == good_rows
        # Attempt 3: both faults are exhausted; full recovery.
        assert view.refresh() == "full"
    assert view.valid and view.version == 1
    assert view.snapshot is not last_good
    assert view.snapshot.version == 1
    expected = seminaive_evaluate(program, server.source.db)
    assert view.fingerprint() == relation_fingerprint(expected)
    assert ("n4",) in view.snapshot.query("reach(n0, X)")


def test_snapshot_swap_fault_keeps_previous_snapshot():
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(3))
    view = server.view(program)
    view.refresh()
    last_good = view.snapshot
    server.source.apply(Changeset.from_text("+edge(n3, n4)."))

    plan = ChaosPlan()
    plan.fail_stage("serving:snapshot-swap", repeats=0)
    with plan.active():
        with pytest.raises(ChaosError):
            view.refresh()
        assert view.snapshot is last_good
        # The IDB itself is current and valid; only publication failed.
        # The next refresh is a no-op ("fresh") that re-runs the swap.
        assert view.refresh() == "fresh"
    assert view.snapshot is not last_good
    assert view.snapshot.version == 1


# -- changeset algebra edge cases (satellite) --------------------------------

def test_compose_insert_delete_insert_across_three_changesets():
    insert = Changeset.from_text("+edge(a, b).")
    delete = Changeset.from_text("-edge(a, b).")
    again = Changeset.from_text("+edge(a, b).")

    net = insert.compose(delete).compose(again)
    assert net.inserts.get("edge") == {("a", "b")}
    assert not any(net.deletes.values())

    # Composition order of evaluation doesn't matter for the net.
    alt = insert.compose(delete.compose(again))
    assert alt.inserts.get("edge") == net.inserts.get("edge")

    # Against a real database, composed == sequential.
    composed = VersionedDatabase(Database())
    composed.apply(net)
    sequential = VersionedDatabase(Database())
    for step in (insert, delete, again):
        sequential.apply(step)
    assert (relation_fingerprint(composed.db)
            == relation_fingerprint(sequential.db))

    # Ending on the delete instead: the fact nets out entirely.
    gone = insert.compose(delete)
    assert not any(gone.inserts.values())


def test_compose_with_empty_changeset_is_identity():
    empty = Changeset()
    batch = Changeset.from_text("+edge(a, b). -edge(c, d).")
    for net in (batch.compose(empty), empty.compose(batch)):
        assert net.inserts.get("edge") == {("a", "b")}
        assert net.deletes.get("edge") == {("c", "d")}
    assert empty.compose(empty).is_empty


def test_normalized_drops_delete_of_simultaneous_insert():
    both = Changeset(inserts={"edge": {("a", "b"), ("c", "d")}},
                     deletes={"edge": {("a", "b")}, "other": set()})
    norm = both.normalized()
    assert norm.inserts["edge"] == {("a", "b"), ("c", "d")}
    assert "edge" not in norm.deletes  # net effect: the row is present
    assert "other" not in norm.deletes  # empty buckets dropped


# -- serving under budget exhaustion -----------------------------------------

def test_refresh_all_survives_budget_exhaustion_mid_refresh():
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(30))
    view = server.view(program)
    view.refresh()
    last_good = view.snapshot
    server.source.apply(Changeset.from_text("+edge(n30, n31)."))

    with pytest.raises(BudgetExceededError):
        server._sweep(Budget(max_derivations=1))
    assert not view.valid
    assert view.snapshot is last_good  # readers never see the wreck

    server._sweep()  # unbudgeted sweep: full rebuild
    assert view.valid and view.last_mode == "full"
    expected = seminaive_evaluate(program, server.source.db)
    assert view.fingerprint() == relation_fingerprint(expected)


def test_pipeline_budget_failures_climb_the_recovery_ladder():
    program = parse_program(TC)
    server = _writerless(
        db=_chain_db(30),
        retry=RetryPolicy(max_attempts=1, jitter=0.0))
    view = server.view(program)
    view.refresh()
    server.source.apply(Changeset.from_text("+edge(n30, n31)."))

    # The first two refresh sweeps run under an impossible budget —
    # a BudgetExceededError mid-refresh, twice in a row — which must
    # walk the ladder to a forced full rebuild, then heal cleanly.
    real_sweep = server._sweep
    budgeted = [True, True]

    def choked_sweep(budget=None):
        if budgeted:
            budgeted.pop()
            return real_sweep(Budget(max_derivations=1))
        return real_sweep(budget)

    server._sweep = choked_sweep
    server.submit(Changeset.from_text("+edge(n31, n32)."))
    assert server.process_once()
    assert server.health == HealthState.DEGRADED
    assert isinstance(server.last_error, BudgetExceededError)
    assert server.process_once()  # second budget failure in a row
    assert server.health == HealthState.REBUILDING
    assert not view.valid
    assert server.full_rebuilds_forced == 1
    assert server.process_once()  # clean sweep: full rebuild heals
    assert server.health == HealthState.HEALTHY
    assert server.drained()
    expected = seminaive_evaluate(program, server.source.db)
    assert view.fingerprint() == relation_fingerprint(expected)


# -- the threaded front-end, inline (writer-less) mode -----------------------

def test_threaded_server_inline_reads_and_updates():
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(3))
    result = server.read(program, "reach(n0, X)")
    assert ("n3",) in result.rows
    assert result.version == 0 and not result.stale

    server.update(Changeset.from_text("+edge(n3, n9)."))
    fresh = server.read(program, "reach(n0, X)",
                        staleness=StalenessBound(max_lag=0))
    assert ("n9",) in fresh.rows
    assert fresh.version == fresh.source_version == 1
    assert fresh.lag == 0


def test_synchronous_flush_waits_out_an_open_circuit():
    """With no writer thread, flush used to spin on ``process_once``
    while the breaker was open and a batch was carried: tens of
    thousands of calls in one cooldown."""
    program = parse_program(TC)
    server = ThreadedServer(
        db=_chain_db(3), retry=RetryPolicy(max_attempts=1, jitter=0.0),
        breaker=CircuitBreaker(failure_threshold=1, cooldown_s=0.3))
    server.read(program, "reach(n0, X)")
    plan = ChaosPlan()
    plan.fail_stage("serving:apply", repeats=0)  # the apply raises once
    with plan.active():
        server.update(Changeset.from_text("+edge(n3, n9)."))
    assert server.breaker.state == "open"
    assert not server.drained()

    calls = [0]
    real_process_once = server.process_once

    def counted(*args, **kwargs):
        calls[0] += 1
        return real_process_once(*args, **kwargs)

    server.process_once = counted
    assert server.flush(timeout_s=5.0)
    assert calls[0] <= 5
    assert server.version == 1 and server.health == HealthState.HEALTHY


def test_threaded_server_rejected_changeset_leaves_the_edb_untouched():
    """A changeset with a wrong-arity row used to land its deletes and
    earlier inserts before raising, unlogged: the live EDB then differed
    from every view and snapshot for good."""
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(3),
                            retry=RetryPolicy(max_attempts=1, jitter=0.0))
    before = server.read(program, "reach(n0, X)").rows
    server.update(Changeset.from_text(
        "-edge(n0, n1). +edge(n3, n9). +edge(x, y, z)."))
    assert isinstance(server.last_error, EvaluationError)
    source = server.source
    assert source.version == 0 and source.log == []
    assert source.db == _chain_db(3)
    view = server.view(program)
    view.refresh()
    expected = seminaive_evaluate(program, source.db)
    assert view.fingerprint() == relation_fingerprint(expected)
    assert view.snapshot.fingerprint() == relation_fingerprint(expected)
    assert server.read(program, "reach(n0, X)").rows == before


def test_threaded_server_stopped_rejects_reads_and_writes():
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(2))
    server.read(program, "reach(n0, X)")
    server.stop()
    with pytest.raises(ServingUnavailable) as exc:
        server.read(program, "reach(n0, X)")
    assert exc.value.reason == "stopped"
    with pytest.raises(ServingUnavailable) as exc:
        server.update(Changeset.from_text("+edge(a, b)."))
    assert exc.value.reason == "stopped"


def test_threaded_server_deadline_when_bound_unreachable():
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(3))
    server.read(program, "reach(n0, X)")  # publish v0
    # Make every refresh path fail; a max_lag=0 read then cannot be
    # satisfied and must come back as a typed deadline failure (the
    # last-good snapshot is still v0, the source at v1).
    server.update(Changeset.from_text("+edge(n3, n9)."))
    plan = ChaosPlan()
    plan.fail_stage("serving:refresh")
    plan.fail_stage("serving:materialize")
    with plan.active():
        stale = server.read(program, "reach(n0, X)")  # default bound
        assert stale.version == 1  # inline update already refreshed
        server.source.apply(
            Changeset.from_text("+edge(n9, n10)."))
        with pytest.raises(ServingUnavailable) as exc:
            server.read(program, "reach(n0, X)", deadline_s=0.05,
                        staleness=StalenessBound(max_lag=0))
    assert exc.value.reason == "deadline"


# -- the serving benchmark gate ----------------------------------------------

def test_serving_bench_report_and_gate():
    from repro.bench.serving_bench import (regression_failures,
                                           run_serving_benchmark)

    report = run_serving_benchmark(duration_s=0.3, readers=4, seed=7)
    assert regression_failures(report) == []
    modes = {mode["mode"] for mode in report["modes"]}
    assert modes == {"steady", "chaos"}
    for mode in report["modes"]:
        assert mode["reads"] > 0
        assert mode["fingerprints_agree"]
        assert mode["unexpected_errors"] == []
        assert mode["latency_p50_ms"] <= mode["latency_p99_ms"]
    chaos_mode = report["modes"][1]
    assert chaos_mode["faults_fired"] > 0
    assert set(report["summary"]) >= {
        "steady_qps", "steady_p99_ms", "chaos_qps", "chaos_p99_ms"}


def test_serving_bench_gate_rejects_bad_reports():
    from repro.bench.serving_bench import regression_failures

    failures = regression_failures({"modes": [
        {"mode": "steady", "reads": 0, "qps": 0,
         "unexpected_errors": ["reader: KeyError: boom"],
         "fingerprints_agree": False,
         "expected_errors": {"deadline": 3},
         "final_health": "healthy"},
    ]})
    joined = "\n".join(failures)
    assert "no reads" in joined
    assert "unexpected error" in joined
    assert "disagrees" in joined
    assert "without faults" in joined
