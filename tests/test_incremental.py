"""Differential guarantees for incremental maintenance and serving.

The contract under test: a materialized IDB maintained through any
sequence of EDB changesets must fingerprint identically to a
from-scratch evaluation of the post-change database — across
executors, interning modes, recursive and non-recursive strata (DRed
deletes in both), and through every failure path (budget exhaustion,
chaos faults, unsupported changesets), where serving must self-heal
with a full rebuild rather than ever serving a half-maintained state.
"""

import random
import traceback
from collections import Counter
from contextlib import nullcontext

import pytest

from repro.cli import main
from repro.core.optimizer import SemanticOptimizer
from repro.datalog import atom, parse_program
from repro.engine.compile import KernelCache
from repro.engine.magic import magic_rewrite
from repro.engine.seminaive import seminaive_evaluate
from repro.errors import (BudgetExceededError, EvaluationError,
                          IncrementalUnsupported)
from repro.facts import Database
from repro.facts.relation import Relation
from repro.facts.symbols import SymbolTable
from repro.facts.changelog import Changeset, VersionedDatabase
from repro.incremental import maintain
from repro.runtime import ChaosError
from repro.runtime.budget import Budget
from repro.runtime.chaos import ChaosPlan
from repro.serving import (MaterializedView, StalenessBound,
                           ThreadedServer, relation_fingerprint)
from repro.shell import run as shell_run
from repro.workloads import example_4_3
from repro.workloads.genealogy import GenealogyParams, generate_genealogy
from repro.workloads.generators import random_digraph
from tests.helpers import random_changeset, tree_edges

TC = """
r0: reach(X, Y) :- edge(X, Y).
r1: reach(X, Z) :- reach(X, Y), edge(Y, Z).
"""

NONREC = """
r0: parent(X, Y) :- father(X, Y).
r1: parent(X, Y) :- mother(X, Y).
r2: grand(X, Z) :- parent(X, Y), parent(Y, Z).
"""

NEG = """
r0: lone(X) :- person(X), not linked(X).
r1: linked(X) :- edge(X, Y).
"""


def _small_tc():
    program = parse_program(TC)
    db = Database()
    rng = random.Random(5)
    for _ in range(70):
        db.add_fact("edge", f"n{rng.randrange(40)}",
                    f"n{rng.randrange(40)}")
    return program, db


# -- the differential sweep: three recursive workloads, random changesets -----

SAME_GENERATION = """
r0: sg(X, X) :- person(X).
r1: sg(X, Y) :- par(X, Xp), sg(Xp, Yp), par(Y, Yp).
"""


NONLINEAR_TC = """
r0: reach(X, Y) :- edge(X, Y).
r1: reach(X, Z) :- reach(X, Y), reach(Y, Z).
"""

#: Two recursive predicates in one stratum: paths of odd and even length.
MUTUAL = """
r0: od(X, Y) :- edge(X, Y).
r1: ev(X, Z) :- od(X, Y), edge(Y, Z).
r2: od(X, Z) :- ev(X, Y), edge(Y, Z).
"""

#: A closure, a copy rule one stratum up and a two-hop rule above that.
COPY_UP = TC + """
r2: cp(X, Y) :- reach(X, Y).
r3: two(X, Z) :- cp(X, Y), cp(Y, Z).
"""


def _pushed_genealogy(generations=5, width=10):
    """Example 4.3 with its residue pushed (the ``anc__d0`` /
    ``anc__d1`` / ``anc__deep`` strata), over an EDB satisfying its IC.
    """
    example = example_4_3()
    report = SemanticOptimizer(example.program, example.ics,
                               pred="anc").optimize()
    assert report.failures == []
    return report.optimized, generate_genealogy(
        GenealogyParams(generations=generations, width=width,
                        parents_per_person=2), random.Random(1))


def _maintenance_workloads():
    """(program, EDB) pairs: transitive closure, same-generation over a
    3x3 tree, the magic-rewritten bound query — a served magic view
    materializes the *rewritten* program, so that is what is maintained
    — and a non-recursive two-stratum program whose rows have several
    derivations each; then the round loop's other shapes: a nonlinear
    closure (two same-stratum occurrences in one body), mutual
    recursion, a copy rule and a two-hop rule stacked on a closure, and
    the residue-pushed Example 4.3 program.
    """
    tc = parse_program(TC)
    family = tree_edges(3, 3, pred="par")
    for person in sorted({v for row in family.facts("par") for v in row}):
        family.add_fact("person", person)
    parents = Database({"father": [(f"f{i}", f"c{i % 7}")
                                   for i in range(20)],
                        "mother": [(f"c{i % 7}", f"g{i % 5}")
                                   for i in range(20)]})
    return [
        pytest.param(parse_program(NONREC), parents, id="nonrecursive"),
        pytest.param(tc, random_digraph(80, 240, random.Random(7)),
                     id="transitive_closure"),
        pytest.param(parse_program(SAME_GENERATION), family,
                     id="same_generation"),
        pytest.param(magic_rewrite(tc, atom("reach", "n0", "Y")).program,
                     random_digraph(120, 360, random.Random(23)),
                     id="magic"),
        pytest.param(parse_program(NONLINEAR_TC),
                     random_digraph(40, 80, random.Random(11)),
                     id="nonlinear_closure"),
        pytest.param(parse_program(MUTUAL),
                     random_digraph(40, 90, random.Random(13)),
                     id="mutual_recursion"),
        pytest.param(parse_program(COPY_UP),
                     random_digraph(30, 45, random.Random(17)),
                     id="copy_up"),
        pytest.param(*_pushed_genealogy(), id="pushed_genealogy"),
    ]


@pytest.mark.parametrize("trial", range(2))
@pytest.mark.parametrize("program, edb", _maintenance_workloads())
def test_maintenance_matches_recomputation(program, edb, trial):
    rng = random.Random(100 + trial)
    changeset = random_changeset(edb, rng, insert_fraction=0.03,
                                 delete_fraction=0.03)
    versioned = VersionedDatabase(edb.copy())
    idb = seminaive_evaluate(program, versioned.db)
    versioned.apply(changeset, idb_predicates=program.idb_predicates)
    maintain(program, versioned.db, idb, versioned.changes_since(0))
    recomputed = seminaive_evaluate(program, versioned.db)
    assert relation_fingerprint(idb) == relation_fingerprint(recomputed)


@pytest.mark.parametrize("executor", ["compiled", "interpreted"])
@pytest.mark.parametrize("interning", ["off", "on"])
def test_update_stream_matches_from_scratch(executor, interning):
    program, db = _small_tc()
    if interning == "on":
        db = db.interned()
    source = VersionedDatabase(db)
    view = MaterializedView(program, source, executor=executor)
    assert view.refresh() == "full"
    rng = random.Random(9)
    for _ in range(4):
        changeset = random_changeset(source.db, rng,
                                     insert_fraction=0.05,
                                     delete_fraction=0.05)
        source.apply(changeset)
        assert view.refresh() == "incremental"
        scratch = seminaive_evaluate(program, source.db)
        assert view.fingerprint() == relation_fingerprint(scratch)


# -- plans and work of maintenance, pinned -----------------------------------

#: Recorded before insertion, overdeletion and phase-4 propagation became
#: calls of one round loop: what a 10-changeset stream compiles (kernel
#: orders keyed by pass, rule and delta occurrence; a rederivation
#: kernel by its guarded rule) and the counters it accumulates.
PINNED_TC = (8, {
    ("insert", "r0", 0): (0,),
    ("insert", "r1", 0): (0, 1),
    ("insert", "r1", 1): (1, 0),
    ("overdelete", "r0", 0): (0,),
    ("overdelete", "r1", 0): (0, 1),
    ("overdelete", "r1", 1): (1, 0),
    ("rederive", "reach(X, Y) :- __dred__reach(X, Y), edge(X, Y).",
     None): (0, 1),
    ("rederive", "reach(X, Z) :- __dred__reach(X, Z), reach(X, Y), "
     "edge(Y, Z).", None): (0, 2, 1),
}, (5815, 5861, 274, 57938, 4677, 1215, 773))

PINNED_GENEALOGY = (27, {
    **{(tag, label, 0): (0,)
       for tag in ("insert", "overdelete")
       for label in ("anc_from_d0", "anc_from_d1", "anc_from_deep",
                     "r0_d0")},
    **{(tag, label, index): order
       for tag in ("insert", "overdelete")
       for label, index, order in (
           ("r1_d0_step", 0, (0, 1)), ("r1_d0_step", 1, (1, 0)),
           ("r1_d1_step", 0, (0, 1)), ("r1_d1_step", 1, (1, 0)),
           ("r1_deep_step_c0_n", 0, (0, 1, 2)),
           ("r1_deep_step_c0_n", 1, (1, 2, 0)))},
    **{("rederive", f"anc(X, Xa, Y, Ya) :- __dred__anc(X, Xa, Y, Ya), "
                    f"{source}(X, Xa, Y, Ya).", None): (0, 1)
       for source in ("anc__d0", "anc__d1", "anc__deep")},
    ("rederive", "anc__d0(X, Xa, Y, Ya) :- __dred__anc__d0(X, Xa, Y, Ya), "
     "par(X, Xa, Y, Ya).", None): (0, 1),
    ("rederive", "anc__d1(X, Xa, Y, Ya) :- __dred__anc__d1(X, Xa, Y, Ya), "
     "anc__d0(X, Xa, Z, Za), par(Z, Za, Y, Ya).", None): (0, 1, 2),
    ("rederive", "anc__deep(X, Xa, Y, Ya) :- "
     "__dred__anc__deep(X, Xa, Y, Ya), anc__d1(X, Xa, Z, Za), "
     "par(Z, Za, Y, Ya).", None): (0, 2, 1),
    ("rederive", "anc__deep(X, Xa, Y, Ya) :- "
     "__dred__anc__deep(X, Xa, Y, Ya), anc__deep(X, Xa, Z, Za), "
     "par(Z, Za, Y, Ya), Ya > 50.", None): (0, 3, 2, 1),
}, (983, 217, 267, 5595, 651, 77, 558))


@pytest.mark.parametrize("workload, pinned", [
    pytest.param(lambda: (parse_program(TC),
                          random_digraph(60, 150, random.Random(3))),
                 PINNED_TC, id="transitive_closure"),
    pytest.param(_pushed_genealogy, PINNED_GENEALOGY,
                 id="pushed_genealogy"),
])
def test_maintenance_plans_and_work_are_pinned(workload, pinned):
    program, db = workload()
    source = VersionedDatabase(db)
    view = MaterializedView(program, source)
    view.refresh()
    rng = random.Random(31)
    for _ in range(10):
        source.apply(random_changeset(source.db, rng, insert_fraction=0.05,
                                      delete_fraction=0.05))
        assert view.refresh() == "incremental"
    orders = {(variant[0], rule.label or str(rule),
               variant[1] if len(variant) > 1 else None): tuple(kernel.order)
              for (rule, variant), kernel in view.kernels._kernels.items()}
    stats = view.stats
    assert (len(view.kernels), orders,
            (stats.derivations, stats.duplicate_derivations,
             stats.rules_fired, stats.rows_matched, stats.overdeleted,
             stats.rederived, stats.retracted)) == pinned


# -- algorithm-level invariants ----------------------------------------------

def test_dred_keeps_multiply_supported_rows():
    # A served view deletes through DRed in a non-recursive stratum too:
    # parent(a, b) loses its father-derivation, is overdeleted, and
    # comes back through its mother-derivation.
    source = VersionedDatabase(Database({"father": [("a", "b")],
                                         "mother": [("a", "b"),
                                                    ("c", "b")]}))
    view = MaterializedView(parse_program(NONREC), source)
    view.refresh()
    source.apply(Changeset().delete("father", ("a", "b")))
    assert view.refresh() == "incremental"
    assert ("a", "b") in view.facts("parent")
    assert (view.stats.overdeleted, view.stats.rederived) == (1, 1)
    source.apply(Changeset().delete("mother", ("a", "b")))
    assert view.refresh() == "incremental"
    assert ("a", "b") not in view.facts("parent")


def test_the_counting_algorithm_stays_removed():
    # Removal pin: one deletion algorithm, so nothing to build, pass or
    # keep between calls.
    import repro.incremental as incremental
    import repro.incremental.maintain as maintain_module

    for module in (incremental, maintain_module):
        for name in ("SupportCounts", "support_counts"):
            assert not hasattr(module, name)
    program, db = _small_tc()
    idb = seminaive_evaluate(program, db)
    with pytest.raises(TypeError):
        maintain(program, db, idb, Changeset(), counts=None)


def test_dred_rederives_alternative_paths():
    program = parse_program(TC)
    db = Database({"edge": [("a", "b"), ("b", "c"), ("a", "c")]})
    versioned = VersionedDatabase(db)
    idb = seminaive_evaluate(program, db)
    versioned.apply(Changeset().delete("edge", ("a", "c")))
    maintain(program, db, idb, versioned.changes_since(0))
    # reach(a, c) is overdeleted, then rederived via a -> b -> c.
    assert ("a", "c") in idb.facts("reach")
    versioned.apply(Changeset().delete("edge", ("b", "c")))
    maintain(program, db, idb, versioned.changes_since(1))
    assert ("a", "c") not in idb.facts("reach")


def test_negation_reachable_from_change_is_rejected():
    program = parse_program(NEG)
    db = Database({"person": [("a",), ("b",)], "edge": [("a", "b")]})
    versioned = VersionedDatabase(db)
    idb = seminaive_evaluate(program, db)
    # edge feeds linked, which occurs negated: not incremental.
    versioned.apply(Changeset().insert("edge", ("b", "a")))
    with pytest.raises(IncrementalUnsupported):
        maintain(program, db, idb, versioned.changes_since(0))


def test_person_changes_avoid_the_negation_and_maintain():
    program = parse_program(NEG)
    db = Database({"person": [("a",), ("b",)], "edge": [("a", "b")]})
    versioned = VersionedDatabase(db)
    idb = seminaive_evaluate(program, db)
    # person reaches no negated occurrence, so this stays incremental.
    versioned.apply(Changeset().insert("person", ("c",)))
    maintain(program, db, idb, versioned.changes_since(0))
    assert ("c",) in idb.facts("lone")


# -- serving lifecycle --------------------------------------------------------

def test_refresh_modes_lifecycle():
    program, db = _small_tc()
    source = VersionedDatabase(db)
    view = MaterializedView(program, source)
    assert view.refresh() == "full"
    assert view.refresh() == "fresh"
    source.apply(Changeset().insert("edge", ("x1", "x2")))
    assert view.refresh() == "incremental"
    assert view.refresh() == "fresh"
    view.invalidate()
    assert view.refresh() == "full"


def test_empty_changeset_refreshes_as_fresh():
    program, db = _small_tc()
    source = VersionedDatabase(db)
    view = MaterializedView(program, source)
    view.refresh()
    source.apply(Changeset())  # bumps the version, changes nothing
    assert view.refresh() == "fresh"
    assert view.version == source.version


def test_unsupported_changeset_falls_back_to_full():
    program = parse_program(NEG)
    db = Database({"person": [("a",), ("b",)], "edge": [("a", "b")]})
    source = VersionedDatabase(db)
    view = MaterializedView(program, source)
    view.refresh()
    source.apply(Changeset().insert("edge", ("b", "a")))
    assert view.refresh() == "full"
    assert view.facts("lone") == frozenset()


def test_apply_rejects_idb_changes():
    program, db = _small_tc()
    server = ThreadedServer(db=db)
    server.view(program)
    server.update(Changeset().insert("reach", ("a", "b")))
    assert server.dropped_changesets == 1
    assert isinstance(server.last_error, EvaluationError)
    assert "IDB" in str(server.last_error)
    assert server.version == 0


@pytest.mark.parametrize("planner", ["no-such-planner", "cbo"])
def test_maintain_rejects_an_unknown_planner(planner):
    # Validated before any work, with evaluate()'s error, and the
    # IDB is left as it was.
    program, db = _small_tc()
    idb = seminaive_evaluate(program, db)
    before = {pred: set(idb.facts(pred)) for pred in idb}
    with pytest.raises(EvaluationError,
                       match=f"unknown planner '{planner}'"):
        maintain(program, db, idb, Changeset().insert("edge", ("x", "y")),
                 planner=planner)
    assert {pred: set(idb.facts(pred)) for pred in idb} == before


@pytest.mark.parametrize("case", ["no-table", "another-table",
                                  "interpreted"])
def test_maintain_rejects_a_foreign_kernel_cache(case):
    # A cache compiled against another storage domain than the EDB's
    # probes edge(c, Y) with the wrong code for c and derives nothing;
    # one passed beside executor="interpreted" would run compiled
    # kernels anyway.  Both are refused before any work.
    program = parse_program("r0: from_c(Y) :- edge(c, Y).")
    db = Database({"edge": [("a", "b"), ("b", "c")]}).interned()
    versioned = VersionedDatabase(db)
    idb = seminaive_evaluate(program, db)
    versioned.apply(Changeset().insert("edge", ("c", "d")))
    kernels, executor = {
        "no-table": (KernelCache(), "compiled"),
        "another-table": (KernelCache(symbols=SymbolTable()), "compiled"),
        "interpreted": (KernelCache(symbols=db.symbols), "interpreted"),
    }[case]
    with pytest.raises(EvaluationError, match="kernels="):
        maintain(program, db, idb, versioned.changes_since(0),
                 executor=executor, kernels=kernels)
    assert len(kernels) == 0
    maintain(program, db, idb, versioned.changes_since(0),
             kernels=KernelCache(symbols=db.symbols))
    assert idb.facts("from_c") == frozenset({("d",)})


def test_serve_answers_track_updates():
    program, db = _small_tc()
    server = ThreadedServer(db=db, staleness=StalenessBound(max_lag=0))
    before = server.read(program, "reach(z1, X)").rows
    assert before == set()
    server.update(Changeset().insert("edge", ("z1", "z2")))
    server.update(Changeset().insert("edge", ("z2", "z3")))
    after = server.read(program, "reach(z1, X)").rows
    assert {("z2",), ("z3",)} <= after


# -- failure paths: serving must self-heal ------------------------------------

def test_budget_exhaustion_mid_refresh_self_heals():
    program, db = _small_tc()
    source = VersionedDatabase(db)
    view = MaterializedView(program, source)
    view.refresh()
    rng = random.Random(17)
    source.apply(random_changeset(source.db, rng,
                                  insert_fraction=0.3))
    with pytest.raises(BudgetExceededError):
        view.refresh(Budget(max_derivations=1))
    assert not view.valid
    assert view.refresh() == "full"
    scratch = seminaive_evaluate(program, source.db)
    assert view.fingerprint() == relation_fingerprint(scratch)


def _two_chains():
    """``a0 → … → a19`` and ``b0 → … → b19``, ten sources ``x_i → a0``
    and a detour ``a0 → c → a1``: joining the chains is one big insert
    firing, cutting ``a0 → a1`` one big rederivation."""
    db = Database()
    for name in "ab":
        for i in range(19):
            db.add_fact("edge", f"{name}{i}", f"{name}{i + 1}")
    for i in range(10):
        db.add_fact("edge", f"x{i}", "a0")
    db.add_fact("edge", "a0", "c")
    db.add_fact("edge", "c", "a1")
    return db


@pytest.mark.parametrize("executor", ["compiled", "interpreted"])
@pytest.mark.parametrize("interning", ["off", "on"])
def test_counter_limit_stops_maintenance_at_the_crossing_event(
        executor, interning):
    """A derivation limit is exact inside ``maintain`` as it is inside
    the fixpoint: the insert seed (limit 5), the propagation rounds
    (limit 50) and DRed's phase-4 propagation (5 events past the
    rederivation) stop at the event that crosses it, not at the end of
    the firing that did."""
    program = parse_program(TC)

    def run(changeset, budget=None):
        db = _two_chains()
        versioned = VersionedDatabase(
            db.interned() if interning == "on" else db)
        idb = seminaive_evaluate(program, versioned.db)
        versioned.apply(changeset, idb_predicates=program.idb_predicates)
        return maintain(program, versioned.db, idb,
                        versioned.changes_since(0), executor=executor,
                        budget=budget).stats

    join = Changeset().insert("edge", ("a19", "b0"))
    cut = Changeset().delete("edge", ("a0", "a1"))
    rederived = run(cut).rederived
    assert rederived > 0
    for changeset, limit in ((join, 5), (join, 50),
                             (cut, rederived + 5)):
        with pytest.raises(BudgetExceededError) as info:
            run(changeset, Budget(max_derivations=limit))
        error = info.value
        assert (error.resource, error.limit, error.spent) \
            == ("derivations", limit, limit)
        assert error.stats.derivations \
            + error.stats.duplicate_derivations == limit


def test_a_mixed_changeset_copies_no_relation_and_builds_no_edb_index(
        monkeypatch):
    """DRed reads its mid and before states off the live relations with
    the changed rows toggled in place: once the kernels are warm, a write
    that deletes and inserts copies nothing and indexes nothing of the
    EDB (copying ``edge`` twice and indexing the copies is what it
    replaced)."""
    program = parse_program(TC)
    versioned = VersionedDatabase(
        random_digraph(80, 240, random.Random(7)).interned())
    idb = seminaive_evaluate(program, versioned.db, planner="adaptive")
    kernels = KernelCache(symbols=versioned.db.symbols)
    rng = random.Random(3)

    def write():
        versioned.apply(random_changeset(versioned.db, rng,
                                         insert_fraction=0.01,
                                         delete_fraction=0.005))
        changes = versioned.log[-1].changeset
        assert changes.total_inserts() and changes.total_deletes()
        maintain(program, versioned.db, idb, changes, planner="adaptive",
                 kernels=kernels)

    write()  # compiles the kernels and builds the live EDB's indexes
    events = Counter()
    real_copy = Relation.copy
    real_index = Relation._build_index
    real_proj = Relation.projection_index

    def copy(self):
        events["copies"] += 1
        return real_copy(self)

    def build_index(self, columns):
        events["edb indexes"] += self.name == "edge"
        return real_index(self, columns)

    def projection_index(self, key, value):
        events["edb indexes"] += self.name == "edge" \
            and (key, value) not in self.proj_indexes
        return real_proj(self, key, value)

    for name, method in (("copy", copy),
                         ("_build_index", build_index),
                         ("projection_index", projection_index)):
        monkeypatch.setattr(Relation, name, method)
    for _ in range(3):
        write()
    assert (events["copies"], events["edb indexes"]) == (0, 0)
    assert relation_fingerprint(idb) == relation_fingerprint(
        seminaive_evaluate(program, versioned.db))


#: ``hop`` and ``reach`` are one stratum, so rederivation re-adds rows
#: of ``hop`` before it fires ``reach``'s rules: a counter limit can
#: trip inside rederivation.
HOP = """
r0: hop(X, Y) :- edge(X, Y).
r1: reach(X, Y) :- hop(X, Y).
r2: hop(X, Z) :- reach(X, Y), edge(Y, Z).
"""

#: The maintenance step a fault raised in: the innermost of these.  A
#: fault is raised by a firing, and the insertion pass and DRed's phase-4
#: propagation fire through one ``insert``.
_PHASES = {"overdelete": "overdeletion",
           "_rederive_batched": "rederivation", "insert": "insertion"}


def _phase_of(error):
    names = [frame.name
             for frame in traceback.extract_tb(error.__traceback__)]
    return next((_PHASES[name] for name in reversed(names)
                 if name in _PHASES), None)


def _indexes_matching_rows(db):
    """Asserts that every live index bucket of every relation equals a
    rebuild from the relation's rows (as multisets); returns how many
    indexes it checked."""
    def multisets(index):
        return {key: Counter(bucket) for key, bucket in index.items()}

    checked = 0
    for name in db:
        live = db.relation(name)
        rebuilt = Relation(name, live.arity, symbols=live.symbols)
        rebuilt.raw_merge(set(live.raw_rows()))
        for columns, index in live.indexes.items():
            assert multisets(index) == multisets(rebuilt.index_for(columns))
        for key, index in live.proj_indexes.items():
            assert multisets(index) \
                == multisets(rebuilt.projection_index(*key))
        checked += len(live.indexes) + len(live.proj_indexes)
    return checked


@pytest.mark.parametrize("executor", ["compiled", "interpreted"])
@pytest.mark.parametrize("interning", ["off", "on"])
@pytest.mark.parametrize("fault", ["chaos", "budget"])
@pytest.mark.parametrize("phase", ["overdeletion", "rederivation"])
def test_a_fault_inside_dred_leaves_the_edb_in_its_post_state(
        phase, fault, interning, executor):
    """The deletion pass toggles the changeset's rows in the live EDB:
    the inserts out for the whole pass, the deletes back in around
    overdeletion.  A chaos fault or a counter limit inside overdeletion
    or rederivation leaves every EDB relation at its post-state rows,
    every live index matching them, and the next refresh exact."""
    program = parse_program(HOP)
    # a0 → a1 → a2 → a3 with a detour a0 → c → a1: cutting a0 → a1
    # overdeletes a0's paths, and hop(a0, a1) is rederived through c.
    edges = [("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a0", "c"),
             ("c", "a1"), ("b0", "b1")]
    changes = Changeset.from_text(
        "-edge(a0, a1). +edge(a3, b0). +edge(b1, d).")
    for ordinal in range(1 if fault == "chaos" else 0, 60):
        db = Database({"edge": edges})
        source = VersionedDatabase(db.interned() if interning == "on"
                                   else db)
        view = MaterializedView(program, source, executor=executor)
        view.refresh()
        source.apply(changes)
        edb = source.db
        post = {name: set(edb.relation(name).raw_rows()) for name in edb}
        spent = view.stats.derivations + view.stats.duplicate_derivations
        plan = ChaosPlan().fail_derivation(ordinal) \
            if fault == "chaos" else None
        budget = Budget(max_derivations=spent + ordinal) \
            if fault == "budget" else None
        with plan.active() if plan else nullcontext():
            with pytest.raises((ChaosError, BudgetExceededError)) as info:
                view.refresh(budget)
        assert {name: set(edb.relation(name).raw_rows())
                for name in edb} == post
        assert _indexes_matching_rows(edb) > 0
        assert view.refresh() == "full"
        assert view.fingerprint() == relation_fingerprint(
            seminaive_evaluate(program, edb))
        if _phase_of(info.value) == phase:
            return
    pytest.fail(f"no fault landed in {phase}")


def test_chaos_fault_mid_refresh_self_heals():
    program, db = _small_tc()
    source = VersionedDatabase(db)
    view = MaterializedView(program, source)
    view.refresh()
    rng = random.Random(23)
    source.apply(random_changeset(source.db, rng,
                                  insert_fraction=0.3))
    plan = ChaosPlan().fail_derivation(3)
    with plan.active():
        with pytest.raises(ChaosError):
            view.refresh()
    assert not view.valid
    assert view.refresh() == "full"
    scratch = seminaive_evaluate(program, source.db)
    assert view.fingerprint() == relation_fingerprint(scratch)


# -- the CLI and shell surfaces ----------------------------------------------

@pytest.fixture
def serve_files(tmp_path):
    program = tmp_path / "tc.dl"
    program.write_text(TC)
    db = tmp_path / "db.dl"
    db.write_text("edge(a, b).\nedge(b, c).\n")
    changes = tmp_path / "changes.dl"
    changes.write_text("+edge(c, d).\n-edge(a, b).\n")
    return {"program": str(program), "db": str(db),
            "changes": str(changes), "dir": tmp_path}


class TestServeCommand:
    def test_serve_reports_modes_and_reanswers(self, serve_files, capsys):
        code = main(["serve", serve_files["program"], serve_files["db"],
                     "--query", "reach(X, Y)",
                     "--update", serve_files["changes"]])
        assert code == 0
        captured = capsys.readouterr()
        assert "a\tb" in captured.out            # pre-update answer
        assert "c\td" in captured.out            # post-update answer
        assert "full" in captured.err
        assert "incremental" in captured.err

    def test_serve_describe(self, serve_files, capsys):
        assert main(["serve", serve_files["program"], serve_files["db"],
                     "--query", "reach(a, X)", "--describe"]) == 0
        assert '"views"' in capsys.readouterr().err

    def test_serve_concurrent_prints_the_serial_last_block(
            self, serve_files, capsys):
        directory = serve_files["dir"]
        (directory / "db.dl").write_text(
            "edge(a, b).\nedge(b, c).\nedge(c, d).\n")
        more = directory / "more.dl"
        more.write_text("+edge(d, e).\n-edge(a, b).\n")
        argv = ["serve", serve_files["program"], serve_files["db"],
                "--query", "reach(X, Y)", "--update", serve_files["changes"],
                "--update", str(more)]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        last_block = serial[serial.rindex(f"-- {more}\n"):].split("\n", 1)[1]
        assert main(argv + ["--concurrent", "--readers", "2",
                            "--writers", "2"]) == 0
        concurrent = capsys.readouterr().out
        assert concurrent == last_block
        assert len(concurrent.splitlines()) == 6

    @pytest.mark.parametrize("mode", [[], ["--concurrent", "--readers", "1"]],
                             ids=["serial", "concurrent"])
    def test_serve_budget_bounds_the_materialization(self, serve_files,
                                                     capsys, mode):
        argv = ["serve", serve_files["program"], serve_files["db"],
                "--query", "reach(X, Y)", "--update", serve_files["changes"]]
        assert main(argv + mode + ["--max-derivations", "1"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "budget exceeded" in captured.err
        assert main(argv + mode + ["--max-facts", "100000"]) == 0

    def test_serve_reports_a_changeset_that_cannot_apply(self, serve_files,
                                                         capsys):
        bad = serve_files["dir"] / "bad.dl"
        bad.write_text("+reach(x, y).\n")
        assert main(["serve", serve_files["program"], serve_files["db"],
                     "--query", "reach(a, X)", "--update", str(bad)]) == 2
        captured = capsys.readouterr()
        assert "1 changeset(s) could not apply" in captured.err
        assert captured.out.count("b\n") == 2  # answered before and after

    def test_update_writes_post_database(self, serve_files, tmp_path,
                                         capsys):
        out = tmp_path / "post.dl"
        code = main(["update", serve_files["db"],
                     serve_files["changes"], "--out", str(out)])
        assert code == 0
        post = Database.from_text(out.read_text())
        assert ("c", "d") in post.facts("edge")
        assert ("a", "b") not in post.facts("edge")


def test_shell_update_maintains_answers():
    out = shell_run([
        "reach(X, Y) :- edge(X, Y).",
        "reach(X, Z) :- reach(X, Y), edge(Y, Z).",
        "edge(a, b).",
        "?- reach(a, X).",
        ".update +edge(b, c).",
        "?- reach(a, X).",
    ])
    text = "\n".join(out)
    assert "applied +1/-0 -> v1" in text
    assert "incremental" in text
    # The second query sees the maintained closure.
    assert text.count("  b") + text.count("  c") >= 3
