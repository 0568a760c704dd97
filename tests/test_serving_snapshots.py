"""Structurally shared snapshots: ``PatchedRelation`` and the publish path.

A published snapshot is the previous one patched with the refresh's
delta; the base relations and the indexes readers built on them are
shared until a patch outgrows its base.  Covered here: the view against
a plain ``Relation`` model (a hypothesis state machine, raw and
interned), what a publish shares and what it copies, compaction, the
swap fault with a superseded delta, coalesced and empty batches, and a
changeset that brings a new EDB predicate.
"""

import itertools
import random
import sys
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, rule)

from repro.datalog import parse_program
from repro.engine.seminaive import seminaive_evaluate
from repro.facts import (Changeset, Database, Relation, SymbolTable,
                         VersionedDatabase)
from repro.facts.relation import PatchedRelation, PatchLog
from repro.runtime import ChaosError
from repro.runtime.chaos import ChaosPlan
from repro.runtime.retry import RetryPolicy
from repro.serving import (MaterializedView, ThreadedServer,
                           relation_fingerprint, views)
from tests.helpers import state_at

TC = """
reach(X, Y) :- edge(X, Y).
reach(X, Z) :- reach(X, Y), edge(Y, Z).
"""


# -- (1) PatchedRelation against a plain Relation ----------------------------

VALUES = ["a", "b", "c", 1, 2]
#: Never part of any row, so never interned: probing for it must match
#: nothing and must not grow the symbol table.
STRANGER = "never-interned"
ROWS = st.tuples(st.sampled_from(VALUES), st.sampled_from(VALUES))
PATTERNS = [()] \
    + [((column, value),) for column in (0, 1)
       for value in VALUES + [STRANGER]] \
    + [((0, left), (1, right)) for left, right in itertools.product(
        VALUES + [STRANGER], repeat=2)]


def _sorted(rows):
    return sorted(rows, key=repr)


def _same_reads(view, model):
    assert len(view) == len(model)
    assert view.rows() == model.rows()
    assert _sorted(view) == _sorted(model)
    for row in itertools.product(VALUES + [STRANGER], repeat=2):
        assert (row in view) == (row in model)
    for pattern in PATTERNS:
        assert _sorted(view.lookup(pattern)) \
            == _sorted(model.lookup(pattern)), pattern


def _log_state(log):
    """Everything a later publish may only extend."""
    return (list(log.rows), dict(log.stamps), log.size, log.version,
            {columns: {key: list(bucket) for key, bucket in index.items()}
             for columns, index in log.indexes.items()})


class PatchedRelationMachine(RuleBasedStateMachine):
    """Every ``patched`` step is mirrored on a plain relation."""

    @initialize(rows=st.sets(ROWS, max_size=12), interned=st.booleans())
    def start(self, rows, interned):
        self.symbols = SymbolTable() if interned else None
        self.base = Relation("r", 2, rows, symbols=self.symbols)
        self.model = Relation("r", 2, rows, symbols=self.symbols)
        self.view = PatchedRelation(self.base)
        self.earlier = []
        #: Per base and per log seen: the base's rows, the log's state.
        self.bases = {}
        self.logs = {}
        self._track()

    def _track(self):
        self.bases.setdefault(id(self.view.base),
                              (self.view.base, self.view.base.rows()))
        self.logs.setdefault(id(self.view.log), (
            self.view.log, self.view.base, _log_state(self.view.log)))

    def _storage(self, rows):
        if self.symbols is None:
            return list(rows)
        return [self.symbols.intern_row(row) for row in rows]

    def _step(self, removed, added, view=None, rows=None):
        """Patch the newest view, or ``view`` holding value ``rows``."""
        self.earlier.append((self.view, self.model.rows()))
        if view is not None:
            self.view = view
            self.model = Relation("r", 2, rows, symbols=self.symbols)
        self.view = self.view.patched(self._storage(removed),
                                      self._storage(added))
        for row in removed:
            self.model.discard(row)
        self.model.add_all(added)
        self._track()

    @rule(removed=st.lists(ROWS, max_size=4), added=st.lists(ROWS, max_size=4))
    def patch(self, removed, added):
        """Random rows over a 25-row domain: present and absent alike."""
        self._step(removed, added)

    @rule(data=st.data())
    def readd_a_removed_base_row(self, data):
        gone = _sorted(self.view.base.rows() - self.model.rows())
        if gone:
            self._step([], [data.draw(st.sampled_from(gone))])

    @rule(data=st.data())
    def remove_an_added_row(self, data):
        extra = _sorted(self.model.rows() - self.view.base.rows())
        if extra:
            self._step([data.draw(st.sampled_from(extra))], [])

    @rule(data=st.data())
    def add_remove_and_readd_a_row(self, data):
        """Three versions: the row's stamps flip it three times."""
        absent = [row for row in itertools.product(VALUES, repeat=2)
                  if row not in self.model]
        if absent:
            row = data.draw(st.sampled_from(absent))
            self._step([], [row])
            self._step([row], [])
            self._step([], [row])
            assert row in self.view

    @rule(data=st.data())
    def remove_and_add_the_same_row(self, data):
        """Removals apply first: the row ends up present."""
        row = data.draw(ROWS)
        self._step([row], [row])

    @rule(data=st.data(), removed=st.lists(ROWS, max_size=3),
          added=st.lists(ROWS, max_size=3))
    def patch_a_view_that_is_not_the_newest(self, data, removed, added):
        """When anything changes it re-bases, under the old base's
        indexes; the machine goes on from the result."""
        if self.earlier:
            view, rows = data.draw(st.sampled_from(self.earlier))
            stale = view.at != view.log.version
            self._step(removed, added, view, rows)
            if stale and self.view is not view:
                assert self.view.base is not view.base
                assert not len(self.view.log) and not self.view.at
                assert set(self.view.base.indexes) >= set(view.base.indexes)

    @rule()
    def remove_a_row_with_a_value_never_seen(self):
        self._step([("a", "only-in-this-removal")], [])

    @invariant()
    def reads_equal_the_model(self):
        _same_reads(self.view, self.model)
        if self.symbols is not None:
            assert self.symbols.code(STRANGER) is None

    @invariant()
    def log_invariants_hold(self):
        """Logs only grow, by appends; stamps only increase; no base
        changes."""
        for base, rows in self.bases.values():
            assert base.rows() == rows
        for key, (log, base, before) in self.logs.items():
            rows, stamps, size, version, indexes = before
            in_base = base.raw_rows()
            assert log.rows[:len(rows)] == rows
            assert len(set(log.rows)) == len(log.rows)
            assert in_base.isdisjoint(log.rows)
            assert log.version >= version and log.size >= size
            assert log.size == sum(map(len, log.stamps.values()))
            for row, flips in log.stamps.items():
                old = stamps.get(row, ())
                assert flips[:len(old)] == old
                assert all(version < stamp for stamp in flips[len(old):])
                assert list(flips) == sorted(set(flips))
                assert flips[-1] <= log.version
                assert row in in_base or row in log.rows
            for columns, index in indexes.items():
                for bucket_key, bucket in index.items():
                    assert log.indexes[columns][bucket_key][:len(bucket)] \
                        == bucket
            self.logs[key] = (log, base, _log_state(log))

    @invariant()
    def earlier_views_answer_as_they_did(self):
        for view, rows in self.earlier:
            assert view.rows() == rows and len(view) == len(rows)
            for pattern in PATTERNS[:11]:
                assert set(view.lookup(pattern)) == {
                    row for row in rows
                    if all(row[c] == v for c, v in pattern)}


PatchedRelationMachine.TestCase.settings = settings(
    max_examples=40, stateful_step_count=12, deadline=None)
TestPatchedRelationMachine = PatchedRelationMachine.TestCase


@pytest.mark.parametrize("interned", [False, True])
def test_patched_relation_case_by_case(interned):
    symbols = SymbolTable() if interned else None
    rows = [("a", "b"), ("b", "c"), ("c", 1)]
    base = Relation("r", 2, rows, symbols=symbols)
    model = Relation("r", 2, rows, symbols=symbols)

    def storage(row):
        return symbols.intern_row(row) if symbols is not None else row

    view = PatchedRelation(base)
    assert view.patched([], []) is view
    steps = [
        ([("a", "b")], []),                 # remove a base row
        ([], [("a", "b")]),                 # ... and re-add it
        ([], [("x", "y")]),                 # add a new row
        ([("x", "y")], []),                 # ... and remove it again
        ([], [("b", "c")]),                 # add a present row
        ([("q", "q")], []),                 # remove an absent row
        ([("c", 1)], [("c", 1), ("d", 2)]),  # in both: ends up present
    ]
    for removed, added in steps:
        older, older_rows = view, view.rows()
        view = view.patched([storage(row) for row in removed],
                            [storage(row) for row in added])
        for row in removed:
            model.discard(row)
        model.add_all(added)
        _same_reads(view, model)
        assert older.rows() == older_rows
    assert view.rows() == set(rows) | {("d", 2)}
    # Five steps changed something: five versions, one stamp each; the
    # rows outside the base are ("x", "y"), removed again, and ("d", 2).
    assert view.base is base and view.at == len(view.log) == 5
    assert len(view.log.rows) == 2
    with pytest.raises(AttributeError):
        view.add(("no", "writes"))


# -- the publish path --------------------------------------------------------

def _chain_db(n, interned=False):
    db = Database(symbols=SymbolTable() if interned else None)
    db.ensure("edge", 2)
    for i in range(n):
        db.add_fact("edge", f"n{i}", f"n{i + 1}")
    return db


def _from_scratch(program, server, version):
    return seminaive_evaluate(program, state_at(server.source, version))


def _assert_consistent(program, server, snapshot):
    """The contract: a snapshot equals a from-scratch evaluation of the
    database at its version, EDB and IDB."""
    assert snapshot.edb == state_at(server.source, snapshot.version)
    assert relation_fingerprint(snapshot.idb) == relation_fingerprint(
        _from_scratch(program, server, snapshot.version))


def _views(snapshot):
    return [db.relation(name) for db in (snapshot.edb, snapshot.idb)
            for name in db]


def _shared_bases(one, other):
    """Per relation: do the two snapshots stand on the same base object?"""
    return [a.base is b.base for a, b in zip(_views(one), _views(other))]


@pytest.fixture
def publish_copies(monkeypatch):
    """Counts ``Relation.copy`` / ``Database.copy`` calls made while a
    view publishes."""
    counter = {"copies": 0, "publishing": False}

    def counted(real):
        def copy(self):
            counter["copies"] += counter["publishing"]
            return real(self)
        return copy

    real_publish = MaterializedView._publish

    def publish(self):
        counter["publishing"] = True
        try:
            real_publish(self)
        finally:
            counter["publishing"] = False

    monkeypatch.setattr(Relation, "copy", counted(Relation.copy))
    monkeypatch.setattr(Database, "copy", counted(Database.copy))
    monkeypatch.setattr(MaterializedView, "_publish", publish)
    return counter


@pytest.mark.parametrize("interned", [False, True])
def test_incremental_publish_shares_bases_and_copies_nothing(
        publish_copies, interned):
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(40, interned))
    view = server.view(program)
    assert view.refresh() == "full"
    first = view.snapshot
    assert publish_copies["copies"] == 2  # edge and reach, once each
    assert all(isinstance(rel, PatchedRelation) and not len(rel.log)
               for rel in _views(first))

    publish_copies["copies"] = 0
    pinned = [first]
    for text in ("+edge(n40, n41).", "-edge(n3, n4). +edge(n3, n5).",
                 "+edge(n41, n42)."):
        server.source.apply(Changeset.from_text(text))
        assert view.refresh() == "incremental"
        pinned.append(view.snapshot)
        assert _shared_bases(view.snapshot, first) == [True, True]
    assert publish_copies["copies"] == 0
    assert len(view.snapshot.idb.relation("reach").log) > 0
    for snapshot in pinned:
        _assert_consistent(program, server, snapshot)

    # A full rebuild has no delta to patch with: a full copy again.
    view.invalidate()
    server.source.apply(Changeset.from_text("+edge(n5, n6)."))
    assert view.refresh() == "full"
    assert publish_copies["copies"] == 2
    assert _shared_bases(view.snapshot, first) == [False, False]
    _assert_consistent(program, server, view.snapshot)


def test_compaction_rebases_on_the_writers_clock(monkeypatch,
                                                 publish_copies):
    """With the ratio forced so that `reach` (820 rows) tolerates a
    50-row patch, the second edge appended to the chain compacts it."""
    monkeypatch.setattr(views, "COMPACTION_RATIO", 16)
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(40, interned=True))
    view = server.view(program)
    view.refresh()
    pinned = [view.snapshot]
    answers = [view.snapshot.query("reach(n0, X)")]  # builds index (0,)
    old_base = view.snapshot.idb.relation("reach").base
    assert set(old_base.indexes) == {(0,)}

    builds = []
    real_build = Relation._build_index
    monkeypatch.setattr(
        Relation, "_build_index",
        lambda self, columns: builds.append(columns)
        or real_build(self, columns))

    publish_copies["copies"] = 0
    server.source.apply(Changeset.from_text("+edge(n40, n41)."))
    view.refresh()
    assert view.snapshot.idb.relation("reach").base is old_base
    assert publish_copies["copies"] == 0
    pinned.append(view.snapshot)
    answers.append(view.snapshot.query("reach(n0, X)"))

    builds.clear()
    server.source.apply(Changeset.from_text("+edge(n41, n42)."))
    view.refresh()
    compacted = view.snapshot.idb.relation("reach")
    assert compacted.base is not old_base
    assert len(compacted.log) == 0
    assert len(compacted.base) == len(compacted) == 43 * 42 // 2
    assert publish_copies["copies"] == 1  # reach only; edge still patched
    assert view.snapshot.edb.relation("edge").base \
        is pinned[0].edb.relation("edge").base
    # The re-base is visible in the view's own output.
    assert view.describe()["patch_logs"] == {
        "edge": {"rows": 2, "compactions": 0},
        "reach": {"rows": 0, "compactions": 1}}
    # The new base holds the old base's index column sets already ...
    assert set(compacted.base.indexes) == {(0,)}
    assert builds == [(0,)]
    # ... so no index is built on a reader's call.
    builds.clear()
    pinned.append(view.snapshot)
    answers.append(view.snapshot.query("reach(n0, X)"))
    assert builds == []
    assert len(answers[-1]) == 42

    # Snapshots from before the compaction answer from their own base,
    # and every pinned snapshot still equals its version from scratch.
    for _ in range(3):
        server.source.apply(Changeset.from_text(
            f"+edge(n{server.version + 40}, n{server.version + 41})."))
        view.refresh()
        pinned.append(view.snapshot)
    assert old_base.rows() == _from_scratch(program, server, 0).facts("reach")
    for snapshot, rows in zip(pinned, answers):
        assert snapshot.query("reach(n0, X)") == rows
    for snapshot in pinned:
        _assert_consistent(program, server, snapshot)


def _flip_flop(i):
    """Publish ``i`` of a stream that adds a new source of ``n38``,
    removes it and adds it again: one ``edge`` row and three ``reach``
    rows change each time, removed or added."""
    node = f"m{i - i % 3}"
    return f"-edge({node}, n38)." if i % 3 == 1 else f"+edge({node}, n38)."


def test_publishes_between_compactions_copy_nothing_and_grow_by_the_delta(
        monkeypatch, publish_copies):
    """The work pin: on the chain of the compaction test, 20 publishes
    that stay under the ratio copy no relation, and each appends
    exactly its delta to the patch logs."""
    monkeypatch.setattr(views, "COMPACTION_RATIO", 1)  # 20 <= 40 edges
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(40, interned=True))
    view = server.view(program)
    view.refresh()
    first = view.snapshot
    deltas = []
    real_patched = PatchedRelation.patched

    def patched(self, removed, added):
        deltas.append((self.name, len(removed) + len(added)))
        return real_patched(self, removed, added)

    monkeypatch.setattr(PatchedRelation, "patched", patched)
    publish_copies["copies"] = 0
    pinned = [first]
    for i in range(20):
        before = {rel.name: len(rel.log) for rel in _views(view.snapshot)}
        deltas.clear()
        server.source.apply(Changeset.from_text(_flip_flop(i)))
        assert view.refresh() == "incremental"
        grown = {rel.name: len(rel.log) - before[rel.name]
                 for rel in _views(view.snapshot)}
        assert grown == dict(deltas) == {"edge": 1, "reach": 3}
        pinned.append(view.snapshot)
    assert publish_copies["copies"] == 0
    assert _shared_bases(view.snapshot, first) == [True, True]
    assert view.describe()["patch_logs"] == {
        "edge": {"rows": 20, "compactions": 0},
        "reach": {"rows": 60, "compactions": 0}}
    # Added, removed and re-added across versions 1-3: three stamps.
    code = server.source.db.symbols.intern_row
    assert view.snapshot.edb.relation("edge").log.stamps[
        code(("m0", "n38"))] == (1, 2, 3)
    assert view.snapshot.idb.relation("reach").log.stamps[
        code(("m0", "n40"))] == (1, 2, 3)
    for snapshot in pinned:
        _assert_consistent(program, server, snapshot)


@pytest.mark.parametrize("failing_call", [0, 1])
def test_a_publish_torn_inside_the_log_extension(monkeypatch, failing_call):
    """A publish that raises half-way through appending to a log
    (``edge``'s, the first, or ``reach``'s, after ``edge``'s finished)
    leaves every pinned snapshot answering as it did; the re-attempt
    re-bases the logs it cannot extend and equals the closure from
    scratch."""
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(40, interned=True))
    view = server.view(program)
    view.refresh()
    pinned = [view.snapshot]
    for text in ("+edge(n40, n41).", "-edge(n3, n4). +edge(n3, n5)."):
        server.source.apply(Changeset.from_text(text))
        view.refresh()
        pinned.append(view.snapshot)
    reads = [(snapshot.query("reach(n2, X)"), snapshot.idb.facts("reach"),
              snapshot.edb.facts("edge")) for snapshot in pinned]

    calls = []
    real_index = PatchLog.index

    def index(self, fresh, base):
        calls.append(len(fresh))
        if len(calls) - 1 == failing_call:
            real_index(self, fresh[:len(fresh) // 2], base)
            raise RuntimeError("torn publish")
        real_index(self, fresh, base)

    monkeypatch.setattr(PatchLog, "index", index)
    server.source.apply(Changeset.from_text(
        "+edge(n41, n42). +edge(n0, n2)."))
    with pytest.raises(RuntimeError, match="torn publish"):
        view.refresh()
    assert calls[failing_call] > 1 and view.snapshot is pinned[-1]
    monkeypatch.setattr(PatchLog, "index", real_index)
    for snapshot, (answer, reach, edge) in zip(pinned, reads):
        assert snapshot.query("reach(n2, X)") == answer
        assert snapshot.idb.facts("reach") == reach
        assert snapshot.edb.facts("edge") == edge

    assert view.refresh() == "fresh"
    _assert_consistent(program, server, view.snapshot)
    # ``edge``'s log was extended, torn or not; ``reach``'s only when
    # it was the one torn.
    logs = view.describe()["patch_logs"]
    assert logs["edge"]["compactions"] == 1
    assert logs["reach"]["compactions"] == failing_call
    server.source.apply(Changeset.from_text("+edge(n42, n43)."))
    assert view.refresh() == "incremental"
    _assert_consistent(program, server, view.snapshot)
    for snapshot in pinned:
        _assert_consistent(program, server, snapshot)


@pytest.mark.parametrize("write_before_reattempt", [False, True])
def test_swap_fault_then_reattempt_patched_or_copied(
        publish_copies, write_before_reattempt):
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(80))
    view = server.view(program)
    view.refresh()
    last_good = view.snapshot
    server.source.apply(Changeset.from_text("+edge(n80, n81). -edge(n0, n1)."))
    plan = ChaosPlan()
    plan.fail_stage("serving:snapshot-swap", repeats=0)
    with plan.active():
        with pytest.raises(ChaosError):
            view.refresh()
    assert view.snapshot is last_good and view.version == 1

    publish_copies["copies"] = 0
    if write_before_reattempt:
        # The kept delta (v0 -> v1) is superseded by v1 -> v2 while the
        # snapshot still stands at v0: nothing to patch it with.
        server.source.apply(Changeset.from_text("+edge(n0, n1)."))
        assert view.refresh() == "incremental"
        assert publish_copies["copies"] == 2
        assert view.snapshot.idb.relation("reach").base \
            is not last_good.idb.relation("reach").base
    else:
        assert view.refresh() == "fresh"
        assert publish_copies["copies"] == 0
        assert view.snapshot.idb.relation("reach").base \
            is last_good.idb.relation("reach").base
    assert view.snapshot.version == server.version
    _assert_consistent(program, server, view.snapshot)
    _assert_consistent(program, server, last_good)
    # The next write patches whatever got published.
    base = view.snapshot.idb.relation("reach").base
    server.source.apply(Changeset.from_text("+edge(n81, n82)."))
    assert view.refresh() == "incremental"
    assert view.snapshot.idb.relation("reach").base is base
    _assert_consistent(program, server, view.snapshot)


def test_coalesced_batch_and_empty_delta_publish(publish_copies):
    program = parse_program(TC)
    server = ThreadedServer(db=_chain_db(40),
                            retry=RetryPolicy(max_attempts=1, jitter=0.0))
    view = server.view(program)
    view.refresh()
    first = view.snapshot

    publish_copies["copies"] = 0
    server.submit(Changeset.from_text("+edge(n40, n41). -edge(n2, n3)."))
    server.submit(Changeset.from_text("+edge(n2, n3). +edge(n41, n42)."))
    assert server.process_once()
    assert server.changesets_coalesced == 2 and server.version == 1
    second = view.snapshot
    assert second.version == 1 and publish_copies["copies"] == 0
    assert _shared_bases(second, first) == [True, True]
    _assert_consistent(program, server, second)

    # Effective delta empty: a new version, the very same relations.
    server.submit(Changeset.from_text("+edge(n0, n1). -edge(zz, zz)."))
    assert server.process_once()
    third = view.snapshot
    assert third is not second and third.version == server.version == 2
    assert view.last_mode == "fresh" and publish_copies["copies"] == 0
    for old, new in zip(_views(second), _views(third)):
        assert old is new
    _assert_consistent(program, server, third)


@pytest.mark.parametrize("interned", [False, True])
def test_changeset_brings_a_new_edb_predicate(interned):
    program = parse_program(TC + "reach(X, Y) :- link(X, Y).\n")
    server = ThreadedServer(db=_chain_db(40, interned))
    view = server.view(program)
    view.refresh()
    first = view.snapshot
    assert "link" not in first.edb

    server.source.apply(Changeset.from_text(
        "+link(n40, m0). +link(m0, n0). +other(x, y, z)."))
    assert view.refresh() == "incremental"
    second = view.snapshot
    assert second.edb.facts("link") == {("n40", "m0"), ("m0", "n0")}
    assert second.edb.facts("other") == {("x", "y", "z")}
    assert len(second.query("reach(m0, X)")) == 41  # n0 and its chain
    assert second.edb.relation("edge") is first.edb.relation("edge")
    assert second.idb.relation("reach").base \
        is first.idb.relation("reach").base
    assert "link" not in first.edb and first.edb.facts("link") == set()
    _assert_consistent(program, server, first)
    _assert_consistent(program, server, second)

    server.source.apply(Changeset.from_text("-link(m0, n0). +link(m0, m1)."))
    assert view.refresh() == "incremental"
    _assert_consistent(program, server, view.snapshot)


# -- readers build indexes on what the writer is patching --------------------

def test_readers_indexing_shared_bases_while_the_writer_publishes(
        monkeypatch):
    """Readers lazily add indexes to the shared bases, and read the
    patch logs the writer is appending to: bound lookups on the newest
    snapshot, and ``len``, ``rows()`` and full iteration of snapshots
    pinned several versions back — the reads that would raise "changed
    size during iteration" if a reader walked a container the writer
    resizes.  The writer meanwhile walks the bases' index tables to
    extend a log's indexes or re-base at compaction.  More reader
    threads than cores and a tiny switch interval, time-boxed; every
    read must equal the answer computed from scratch for the version
    it was served at, and nothing may raise."""
    # Logs extended over a few publishes, then re-based.
    monkeypatch.setattr(views, "COMPACTION_RATIO", 2)
    program = parse_program(TC)
    nodes = 30
    updates = [Changeset.from_text(
        f"+edge(n{nodes + i}, n{nodes + i + 1}). "
        + (f"-edge(n{i - 1}, n{i})." if i % 3 == 2 else ""))
        for i in range(40)]
    server = ThreadedServer(db=_chain_db(nodes))
    # From-scratch closure per version, before any thread starts.
    scratch = VersionedDatabase(_chain_db(nodes))
    expected = [seminaive_evaluate(program, scratch.db).facts("reach")]
    for changeset in updates:
        scratch.apply(changeset)
        expected.append(seminaive_evaluate(program, scratch.db)
                        .facts("reach"))

    view = server.view(program)
    view.refresh()
    failures, reads = [], [0]
    done = threading.Event()

    def reader(seed):
        rng = random.Random(seed)
        held = []  # the last few snapshots this reader pinned
        try:
            while not done.is_set():
                snapshot = view.snapshot
                held = [*held[-4:], snapshot]
                old = held[0]
                reach = old.idb.relation("reach")
                want = expected[old.version]
                if len(reach) != len(want) or reach.rows() != want \
                        or sorted(reach) != sorted(want):
                    failures.append((old.version, "whole relation"))
                rows = expected[snapshot.version]
                a, b = (f"n{rng.randrange(nodes + 40)}" for _ in "ab")
                for query, want in (
                        (f"reach({a}, X)", {(y,) for x, y in rows if x == a}),
                        (f"reach(X, {b})", {(x,) for x, y in rows if y == b}),
                        (f"reach({a}, {b})",
                         {()} if (a, b) in rows else set())):
                    got = snapshot.query(query)
                    if got != want:
                        failures.append((snapshot.version, query))
                reads[0] += 1
        except Exception as error:  # noqa: BLE001 - reported below
            failures.append(error)

    threads = [threading.Thread(target=reader, args=(seed,), daemon=True)
               for seed in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 20.0
        for changeset in updates:
            server.source.apply(changeset)
            view.refresh()
            time.sleep(0.001)
            assert time.monotonic() < deadline
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=10.0)
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert reads[0] > 0 and view.snapshot.version == len(updates)
    assert view.full_refreshes == 1
    assert 0 < view.compactions["reach"] < len(updates) // 2
    assert view.snapshot.idb.facts("reach") == expected[-1]
