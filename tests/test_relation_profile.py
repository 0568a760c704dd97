"""The relation's column profile: a memo that can never be stale.

``Relation.profile`` is stamped with the ``version`` it was built at and
rebuilt when that moved; ``analyze_dataflow`` seeds its EDB state from
it and ``distinct_count`` falls back to it.  Covered here: the memo
against a from-scratch profile under every mutation and lifecycle path
(a hypothesis state machine, raw and interned side by side), the
analysis on a live database against the same analysis on a memo-free
copy, how many times the profile is built, and readers beside a writer.
"""

import random
import sys
import threading
import time

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.analysis.dataflow import (_column_domain, analyze_dataflow,
                                     consts_domain)
from repro.datalog import parse_program
from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, Variable
from repro.facts import Database, Relation, SymbolTable, VersionedDatabase
from repro.facts import relation as relation_module
from repro.facts.changelog import random_changeset
from repro.facts.relation import PatchedRelation, build_profile
from repro.workloads import random_digraph, random_linear_program

TC = """
r0: reach(X, Y) :- edge(X, Y).
r1: reach(X, Y) :- edge(X, Z), reach(Z, Y).
"""

SG = """
r0: sg(X, X) :- person(X).
r1: sg(X, Y) :- par(X, Xp), sg(Xp, Yp), par(Y, Yp).
"""


def _bound(pred: str, value) -> Atom:
    return Atom(pred, (Constant(value), Variable("Y")))


def _check_profile(relation) -> None:
    """The memoised profile against the rows as they are now."""
    rows = list(relation)
    profile = relation.profile()
    assert profile == build_profile(rows, relation.arity)
    assert profile.rows == len(rows)
    for column, summary in enumerate(profile.columns):
        values = {row[column] for row in rows}
        assert summary.distinct == len(values)
        # What the analysis makes of the summary is what it used to
        # make of the values themselves.
        assert _column_domain(summary) == consts_domain(values)
        if isinstance(relation, Relation):
            assert relation.distinct_count(column) == len(values)


# -- (1) the memo against a from-scratch profile -----------------------------

#: Column 0 mixes strings and numbers, column 1 is numeric: with more
#: than eight values each, every shape of summary occurs.
MIXED = list(range(7)) + [2.5, "a", "b", "c"]
NUMERIC = list(range(11)) + [0.5]
ROWS = st.tuples(st.sampled_from(MIXED), st.sampled_from(NUMERIC))
BATCHES = st.lists(ROWS, max_size=6)


class ProfileMachine(RuleBasedStateMachine):
    """A raw and an interned relation take the same steps; the profile
    is read at random points and once more at the end."""

    def __init__(self):
        super().__init__()
        self.relations = []

    @initialize(rows=st.sets(ROWS, max_size=30))
    def start(self, rows):
        self.relations = [Relation("r", 2, rows),
                          Relation("r", 2, rows, symbols=SymbolTable())]

    def _stored(self, relation, rows):
        if relation.symbols is None:
            return list(rows)
        return [relation.symbols.intern_row(row) for row in rows]

    def _each(self, step, read):
        """Run ``step`` on both; a relation it returns replaces its
        source."""
        for position, relation in enumerate(self.relations):
            result = step(relation)
            if isinstance(result, Relation):
                self.relations[position] = result
        if read:
            self.teardown()

    def teardown(self):
        for relation in self.relations:
            _check_profile(relation)
        assert len({relation.rows() for relation in self.relations}) <= 1

    @rule(row=ROWS, read=st.booleans())
    def add(self, row, read):
        self._each(lambda r: r.add(row), read)

    @rule(rows=BATCHES, read=st.booleans())
    def add_all(self, rows, read):
        self._each(lambda r: r.add_all(rows), read)

    @rule(rows=BATCHES, read=st.booleans())
    def raw_merge_new(self, rows, read):
        self._each(lambda r: r.raw_merge_new(self._stored(r, rows)), read)

    @rule(rows=BATCHES, read=st.booleans())
    def raw_merge(self, rows, read):
        def step(relation):
            fresh = set(self._stored(relation, rows)) \
                - set(relation.raw_rows())
            relation.raw_merge(fresh)
        self._each(step, read)

    @rule(row=ROWS, read=st.booleans())
    def discard(self, row, read):
        self._each(lambda r: r.discard(row), read)

    @rule(data=st.data(), read=st.booleans())
    def discard_all(self, data, read):
        present = sorted(self.relations[0].rows(), key=repr)
        rows = data.draw(st.lists(st.sampled_from(present), max_size=6)) \
            if present else []
        self._each(lambda r: r.discard_all(rows), read)

    @rule(read=st.booleans())
    def clear(self, read):
        self._each(lambda r: r.clear(), read)

    @rule(column=st.sampled_from([0, 1]), kind=st.sampled_from(
        ["index_for", "code_index_for", "projection_index"]),
        read=st.booleans())
    def build_index(self, column, kind, read):
        def step(relation):
            if kind == "index_for":
                relation.index_for((column,))
            elif kind == "code_index_for":
                relation.code_index_for(column)
            else:
                relation.projection_index(column, 1 - column)
        self._each(step, read)

    @rule(read=st.booleans())
    def copy(self, read):
        """The copy replaces its source: no memo may travel with it."""
        self._each(lambda r: r.copy(), read)

    @rule(read=st.booleans())
    def interned(self, read):
        """Both become ``Database.interned()`` images of the raw one."""
        raw = self.relations[0]
        image = Database.of_relations([raw]).interned()
        self.relations = [raw, image.relation("r")]
        if read:
            self.teardown()


ProfileMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=20, deadline=None)
TestProfileMachine = ProfileMachine.TestCase


@pytest.mark.parametrize("interned", [False, True])
def test_a_view_builds_its_profile_per_call(interned):
    symbols = SymbolTable() if interned else None
    base = Relation("r", 2, [(n, n % 3) for n in range(12)],
                    symbols=symbols)
    view = PatchedRelation(base)
    _check_profile(view)

    def stored(row):
        return row if symbols is None else symbols.intern_row(row)

    view = view.patched([stored((0, 0)), stored((4, 1))],
                        [stored(("s", 7))])
    _check_profile(view)
    assert view.profile() is not view.profile()
    assert base.profile() is base.profile()


# -- (2) the analysis on a live database vs. on a memo-free copy --------------

def _differential_cases():
    rng = random.Random(22)
    edges = random_digraph(14, 40, rng)
    family = Database()
    for child in range(1, 16):
        family.add_fact("par", f"p{child}", f"p{(child - 1) // 2}")
    for person in range(16):
        family.add_fact("person", f"p{person}")
    cases = [("tc", parse_program(TC), edges, _bound("reach", "n3")),
             ("sg", parse_program(SG), family, _bound("sg", "p9"))]
    for draw in range(2):
        text, edb = random_linear_program(rng)
        cases.append((f"linear{draw}", parse_program(text), edb,
                      _bound("p", "n1")))
    return cases


@pytest.mark.parametrize("interned", [False, True])
@pytest.mark.parametrize("case", _differential_cases(),
                         ids=lambda case: case[0])
def test_analysis_matches_a_memo_free_copy_under_churn(case, interned):
    _, program, edb, query = case
    edb = edb.interned() if interned else edb.copy()
    source = VersionedDatabase(edb)
    rng = random.Random(7)
    for _ in range(12):
        for goal in (query, None):
            live = analyze_dataflow(program, edb=edb, query=goal)
            assert live == analyze_dataflow(program, edb=edb.copy(),
                                            query=goal)
        # The EDB seed is the old algorithm's: a domain per column of
        # values seen by iterating the relation.
        for pred in program.edb_predicates:
            relation = edb.relation(pred)
            rows = list(relation)
            assert live.bounds[pred] == len(rows)
            assert live.columns[pred] == tuple(
                consts_domain({row[column] for row in rows})
                for column in range(relation.arity))
        source.apply(random_changeset(edb, rng, insert_fraction=0.1,
                                      delete_fraction=0.1))


# -- (3) how often the profile is built ---------------------------------------

def test_bound_queries_build_the_profile_once_per_write(monkeypatch):
    edb = random_digraph(30, 90, random.Random(3)).interned()
    program = parse_program(TC)
    builds, scans = [], []
    build, iterate = build_profile, Relation.__iter__
    monkeypatch.setattr(
        relation_module, "build_profile",
        lambda rows, *rest: builds.append(len(rows)) or build(rows, *rest))
    monkeypatch.setattr(
        Relation, "__iter__",
        lambda self: scans.append(self.name) or iterate(self))
    for node in range(20):
        analyze_dataflow(program, edb=edb, query=_bound("reach", f"n{node}"))
    edges = len(edb.relation("edge"))
    assert builds == [edges]
    edb.add_fact("edge", "n0", "fresh")
    analyze_dataflow(program, edb=edb, query=_bound("reach", "n0"))
    assert builds == [edges, edges + 1]
    assert scans == []


# -- (4) readers beside a writer ------------------------------------------------

@pytest.mark.parametrize("interned", [False, True])
def test_concurrent_readers_see_the_profile_of_some_prefix(interned):
    # Every row brings a new value to column 0 and, every third row, to
    # column 1: a profile mixing two moments of the relation matches no
    # prefix.
    rows = [(n, f"s{n // 3}") for n in range(1500)]
    relation = Relation("r", 2,
                        symbols=SymbolTable() if interned else None)
    # A live index widens the window between a row landing and the
    # version moving.
    relation.code_index_for(0)
    seen = [[], []]
    errors = []
    done = threading.Event()

    def write():
        try:
            for start in range(0, len(rows), 5):
                relation.add(rows[start])
                relation.add_all(rows[start + 1:start + 5])
                time.sleep(0)  # let the readers in: ~100 profiles each
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)
        finally:
            done.set()

    def read(into):
        try:
            while not done.is_set():
                profile = relation.profile()
                if not into or into[-1] is not profile:
                    into.append(profile)
        except Exception as error:  # pragma: no cover - reported below
            errors.append(error)

    threads = [threading.Thread(target=write)] \
        + [threading.Thread(target=read, args=(into,)) for into in seen]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in reversed(threads):
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
        done.set()
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    # All rows differ, so a profile's row count names its prefix.
    for profile in seen[0] + seen[1] + [relation.profile()]:
        assert profile == build_profile(rows[:profile.rows], 2)
    assert len(seen[0]) > 5 and len(seen[1]) > 5
    assert relation.profile().rows == len(rows)
