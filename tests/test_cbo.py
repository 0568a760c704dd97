"""The cost-based enumerating optimizer (``cbo_evaluate`` / ``cbo_answers``).

Covers the bounded rewrite space (residue pushing per IC, magic sets
per adornment weakening, left/right linearization, rule fusion), the
memo's group-level deduplication, the unified cost model over dataflow
size bounds, the adaptive planner it runs its choice with (hooked and
unhooked kernels count alike), the equivalence discipline — every
chosen rewrite answers the query exactly like the unrewritten program —
and that ``"cbo"`` is no join planner: every entry point taking
``planner=`` rejects it.
"""

import random
import threading

import pytest

import repro.analysis.dataflow as dataflow_module
import repro.constraints.checker as checker_module
import repro.engine.fire as fire_module
import repro.engine.optimizer as optimizer_module
from repro.analysis.dataflow import analyze_dataflow
from repro.constraints import ics_from_text
from repro.constraints.checker import violations
from repro.datalog import Program, parse_program
from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, Variable
from repro.engine import (ChosenPlan, cbo_answers, cbo_evaluate,
                          choose_plan, enumerate_candidates, evaluate,
                          evaluate_with_magic, explain, explain_kernels, explain_plan, magic_answers,
                          naive_evaluate, plan_rule, seminaive_evaluate)
from repro.engine.magic import adornment_of, magic_rewrite
from repro.engine.optimizer import (MAX_CANDIDATES, Memo, PlanCandidate,
                                    _adornment_choices, _linearizations,
                                    estimate_program_cost)
from repro.errors import EvaluationError, TransformError
from repro.facts import Changeset, Database, VersionedDatabase
from repro.incremental import maintain
from repro.runtime.chaos import ChaosPlan
from repro.serving import MaterializedView, ThreadedServer
from repro.workloads import load
from repro.workloads.generators import (random_digraph,
                                        random_linear_program,
                                        transitive_closure_program)

TC = parse_program(transitive_closure_program())

SG = parse_program("""
    r0: sg(X, X) :- person(X).
    r1: sg(X, Y) :- par(X, Xp), sg(Xp, Yp), par(Y, Yp).
""")

AUX = parse_program("""
    a0: link(X, Y) :- edge(X, Y).
    r0: tc2(X, Y) :- link(X, Y).
    r1: tc2(X, Z) :- tc2(X, Y), link(Y, Z).
""")


def chain_db(n=30):
    db = Database()
    db.ensure("edge", 2)
    for i in range(n):
        db.add_fact("edge", f"n{i}", f"n{i + 1}")
    return db


def digraph(nodes=120, edges=360, seed=7):
    return random_digraph(nodes, edges, random.Random(seed))


BOUND = Atom("reach", (Constant("n0"), Variable("Y")))
FREE = Atom("reach", (Variable("X"), Variable("Y")))


def labels(memo):
    return [group.candidate.label for group in memo]


class TestEnumeration:
    def test_identity_is_always_first(self):
        memo = enumerate_candidates(TC, query=BOUND)
        first = next(iter(memo))
        assert first.candidate.transforms == ()
        assert first.candidate.label == "identity"

    def test_no_query_no_ics_degenerates_to_identity(self):
        memo = enumerate_candidates(TC)
        assert labels(memo) == ["identity"]

    def test_bound_query_enumerates_magic_and_linearization(self):
        memo = enumerate_candidates(TC, query=BOUND)
        seen = labels(memo)
        assert "magic[bf]" in seen
        assert "linearize[reach:right]" in seen
        assert "linearize[reach:right] + magic[bf]" in seen

    def test_two_constants_enumerate_adornment_weakenings(self):
        query = Atom("reach", (Constant("n0"), Constant("n5")))
        assert _adornment_choices(query) == ["bb", "bf", "fb"]
        seen = labels(enumerate_candidates(TC, query=query))
        assert {"magic[bb]", "magic[bf]", "magic[fb]"} <= set(seen)

    def test_ics_enumerate_residue_pushing(self):
        example = load("example_4_3")
        memo = enumerate_candidates(example.program, ics=example.ics)
        assert any(label.startswith("residues[") for label in
                   labels(memo))

    def test_fusion_unfolds_edb_only_auxiliary(self):
        query = Atom("tc2", (Constant("n0"), Variable("Y")))
        memo = enumerate_candidates(AUX, query=query)
        fused = [g for g in memo if "fuse" in g.candidate.transforms]
        assert fused
        assert "link" not in fused[0].candidate.program.idb_predicates

    def test_memo_dedups_by_program_fingerprint(self):
        memo = Memo()
        a = memo.add(PlanCandidate(TC, ()))
        b = memo.add(PlanCandidate(TC, ("some-other-path",)))
        assert a is b
        assert len(memo) == 1
        assert memo.paths == 2
        assert a.derivations == [(), ("some-other-path",)]

    def test_candidate_cap_respected(self, monkeypatch):
        monkeypatch.setattr(optimizer_module, "MAX_CANDIDATES", 2)
        memo = enumerate_candidates(TC, query=BOUND)
        assert len(memo) <= 2
        assert len(memo) <= MAX_CANDIDATES

    @pytest.mark.parametrize("enumerate_or_choose", [
        lambda: enumerate_candidates(TC, query=BOUND, max_candidates=2),
        lambda: choose_plan(TC, Database(), query=BOUND, max_candidates=2),
    ], ids=["enumerate_candidates", "choose_plan"])
    def test_the_cap_is_not_a_setting(self, enumerate_or_choose):
        with pytest.raises(TypeError):
            enumerate_or_choose()


class TestAdornmentValidation:
    def test_explicit_adornment_must_match_arity(self):
        with pytest.raises(TransformError):
            magic_rewrite(TC, BOUND, adornment="b")

    def test_bound_mark_needs_a_query_constant(self):
        with pytest.raises(TransformError,
                           match="non-constant query argument"):
            magic_rewrite(TC, BOUND, adornment="bb")

    def test_all_free_adornment_is_rejected(self):
        with pytest.raises(TransformError):
            magic_rewrite(TC, BOUND, adornment="ff")

    def test_explicit_natural_adornment_matches_default(self):
        db = chain_db(10)
        explicit = magic_rewrite(TC, BOUND, adornment="bf")
        assert explicit.query_pred == magic_rewrite(TC, BOUND).query_pred
        rewritten = evaluate(explicit.program, db)
        assert rewritten.idb.facts(explicit.query_pred) \
            == magic_answers(TC, db, BOUND)


class TestLinearization:
    def test_left_linear_tc_swaps_to_right(self):
        variants = _linearizations(TC)
        assert [label for _, label in variants] \
            == ["linearize[reach:right]"]
        swapped, _ = variants[0]
        recursive = [r for r in swapped.rules_for("reach")
                     if "reach" in r.body_predicates()][0]
        assert recursive.body[0].pred == "edge"
        assert recursive.body[1].pred == "reach"

    def test_swap_preserves_the_closure(self):
        db = digraph()
        swapped, _ = _linearizations(TC)[0]
        assert evaluate(swapped, db).facts("reach") \
            == evaluate(TC, db).facts("reach")

    def test_non_tc_shapes_are_left_alone(self):
        assert _linearizations(SG) == []


class TestCostModel:
    def test_bound_query_prefers_magic_on_a_real_graph(self):
        db = digraph(300, 900)
        choice = choose_plan(TC, db, query=BOUND)
        assert any(t.startswith("magic[") for t in choice.transforms)
        by_label = {label: cost for _, label, cost in choice.table}
        assert choice.cost < by_label["identity"]

    def test_free_query_prefers_identity(self):
        choice = choose_plan(TC, digraph(), query=None)
        assert choice.transforms == ()

    def test_choice_is_deterministic(self):
        db = digraph()
        first = choose_plan(TC, db, query=BOUND)
        second = choose_plan(TC, db, query=BOUND)
        assert first.fingerprint == second.fingerprint
        assert first.label == second.label
        assert first.cost == second.cost

    def test_enumeration_stays_under_budget(self):
        choice = choose_plan(TC, digraph(300, 900), query=BOUND)
        assert choice.enumeration_seconds < 0.050

    def test_estimate_skips_fact_rules(self):
        program = parse_program("f0: p(a).\nr0: q(X) :- p(X).")
        candidate = PlanCandidate(program, ())
        cost, detail = estimate_program_cost(candidate, Database())
        assert cost > 0.0
        assert "r0" in detail

    def test_describe_marks_the_winner(self):
        choice = choose_plan(TC, digraph(), query=BOUND)
        text = choice.describe()
        assert "chosen:" in text
        assert f"* {choice.label}: " in text or \
            f"* {choice.label}:" in text


class TestCboEvaluation:
    def test_cbo_answers_match_magic_and_plain(self):
        db = digraph(150, 450)
        via_cbo = cbo_answers(TC, db, BOUND)
        assert via_cbo == magic_answers(TC, db, BOUND)
        plain = evaluate(TC, db).facts("reach")
        assert via_cbo == frozenset(row for row in plain
                                    if row[0] == "n0")

    def test_result_carries_the_chosen_plan(self):
        result = cbo_evaluate(TC, digraph(), query=BOUND)
        assert isinstance(result.choice, ChosenPlan)
        assert result.method == "seminaive+cbo"
        if any(t.startswith("magic[") for t in result.choice.transforms):
            assert result.magic is not None

    def test_cbo_with_ics_enumerates_residues(self):
        example = load("example_4_3")
        choice = choose_plan(example.program, Database(),
                             ics=example.ics)
        assert isinstance(choice, ChosenPlan)
        seen = [label for _, label, _ in choice.table]
        assert any(label.startswith("residues[") for label in seen)

    def test_explain_answer_follows_the_rewritten_program(self):
        db = chain_db(8)
        result = cbo_evaluate(TC, db, query=BOUND)
        goal = Atom(result.magic.query_pred,
                    (Constant("n0"), Constant("n3")))
        derivation = explain(result.program, result.edb, goal,
                             idb=result.idb)
        assert derivation is not None
        assert derivation.depth() >= 2


def test_hooked_counters_equal_unhooked_counters():
    # An always-true hook runs every firing on the kernels' hooked
    # text: same plans, same counters.
    db = chain_db(40)
    generated = evaluate(TC, db, planner="adaptive", interning="on")
    hooked = evaluate(TC, db, planner="adaptive", interning="on",
                      hook=lambda rule, binding, round_index: True)
    assert generated.facts("reach") == hooked.facts("reach")
    assert generated.stats.as_dict() == hooked.stats.as_dict()


#: Every entry point taking ``planner=``, called with ``planner="cbo"``:
#: rewrites are chosen by ``cbo_evaluate`` / ``cbo_answers`` only.
PLANNER_ENTRY_POINTS = {
    "evaluate": lambda db: evaluate(TC, db, planner="cbo"),
    "evaluate-naive": lambda db: evaluate(TC, db, method="naive",
                                          planner="cbo"),
    "seminaive_evaluate": lambda db: seminaive_evaluate(TC, db,
                                                        planner="cbo"),
    "naive_evaluate": lambda db: naive_evaluate(TC, db, planner="cbo"),
    "evaluate_with_magic": lambda db: evaluate_with_magic(
        TC, db, BOUND, planner="cbo"),
    "maintain": lambda db: maintain(TC, db, evaluate(TC, db).idb,
                                    Changeset(), planner="cbo"),
    "plan_rule": lambda db: plan_rule(TC.rules[1], TC, db,
                                      planner="cbo"),
    "explain_plan": lambda db: explain_plan(TC, db, planner="cbo"),
    "explain_kernels": lambda db: explain_kernels(TC, db, planner="cbo"),
    "MaterializedView": lambda db: MaterializedView(
        TC, VersionedDatabase(db), planner="cbo"),
    "ThreadedServer.view": lambda db: ThreadedServer(db=db).view(
        TC, planner="cbo"),
}


@pytest.mark.parametrize("entry", sorted(PLANNER_ENTRY_POINTS))
def test_cbo_is_not_a_planner(entry):
    with pytest.raises(EvaluationError, match="unknown planner 'cbo'"):
        PLANNER_ENTRY_POINTS[entry](chain_db(5))


# ---------------------------------------------------------------------------
# prepared bound queries: once per binding pattern and EDB version
# ---------------------------------------------------------------------------

def _bound(node):
    return Atom("reach", (Constant(node), Variable("Y")))


def _reachable(db, query, program=TC):
    """The plain evaluation's answers to ``query``: the oracle."""
    constants = {column: arg.value for column, arg in enumerate(query.args)
                 if isinstance(arg, Constant)}
    return frozenset(
        row for row in evaluate(Program(program.rules), db).facts(query.pred)
        if all(row[column] == value for column, value in constants.items()))


#: A closure with a column filter against a constant: under interning
#: its kernels read the shared cache's memoised filters.
BELOW = parse_program("""
    r0: reach(X, Y) :- edge(X, Y), Y < 100.
    r1: reach(X, Y) :- reach(X, Z), edge(Z, Y), Y < 100.
""")


def _int_digraph(nodes=150, edges=450, seed=7):
    rng = random.Random(seed)
    db = Database()
    added = 0
    while added < edges:
        added += db.add_fact("edge", *sorted(rng.sample(range(nodes), 2)))
    return db


@pytest.fixture
def counted(monkeypatch):
    """Counts plan enumerations (one ``Memo`` each), dataflow analyses
    (one ``_size_bounds`` pass after each fixpoint) and kernel
    compiles."""
    counts = {"enumerations": 0, "analyses": 0, "kernels": 0}

    def wrap(module, name, key):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    wrap(optimizer_module, "Memo", "enumerations")
    wrap(dataflow_module, "_size_bounds", "analyses")
    wrap(fire_module, "compile_firing", "kernels")
    return counts


class TestPreparedQueries:
    def test_a_bf_stream_analyzes_plans_and_compiles_once(self, counted):
        """The benchmark's path per query — analyze, plan with that
        analysis, answer under that plan — over one program and EDB: one
        enumeration, one fixpoint, and after the first query one kernel
        per query, the magic seed's."""
        program = Program(TC.rules)
        db = digraph(150, 450)
        edb = db.interned()
        compiled, choices = [], []
        for number in range(20):
            query = _bound(f"n{number}")
            flow = analyze_dataflow(program, edb=edb, query=query)
            choice = choose_plan(program, edb, query=query, dataflow=flow)
            before = counted["kernels"]
            answers = cbo_answers(program, edb, query, choice=choice,
                                  interning="on")
            compiled.append(counted["kernels"] - before)
            assert answers == _reachable(db, query)
            choices.append(choice)
        assert counted["enumerations"] == 1
        assert counted["analyses"] == 1
        assert compiled[0] > 1
        assert all(count <= 1 for count in compiled[1:])
        assert all(choice.magic is not None for choice in choices)
        assert [choice.reused for choice in choices] \
            == [False] + [True] * 19

    def test_describe_says_the_plan_was_reused(self):
        program, db = Program(TC.rules), digraph()
        first = choose_plan(program, db, query=_bound("n1"))
        second = choose_plan(program, db, query=_bound("n2"))
        assert "enumerated in" in first.describe()
        assert "reused, not re-enumerated" in second.describe()
        assert second.describe().count("*") == 1
        assert (second.fingerprint, second.table) \
            == (first.fingerprint, first.table)

    def test_a_write_to_a_read_relation_forces_one_replan(self, counted):
        program, db = Program(TC.rules), digraph()
        for node in ("n1", "n2"):
            choose_plan(program, db, query=_bound(node))
        assert counted["enumerations"] == 1
        assert db.add_fact("edge", "n1", "n119")
        assert not choose_plan(program, db, query=_bound("n1")).reused
        assert choose_plan(program, db, query=_bound("n2")).reused
        assert counted["enumerations"] == 2
        assert cbo_answers(program, db, _bound("n1")) \
            == _reachable(db, _bound("n1"))
        db.relation("edge").discard(("n1", "n119"))
        assert not choose_plan(program, db, query=_bound("n1")).reused
        assert counted["enumerations"] == 3
        assert cbo_answers(program, db, _bound("n1")) \
            == _reachable(db, _bound("n1"))
        # Replaced, not grown: one entry for the one pattern.
        assert len(program._prepared) == 1

    def test_equal_valued_ics_with_other_labels_never_share(self):
        text = ("{}: Ya <= 50, par(Z, Za, Y, Ya), par(Z2, Z2a, Z, Za), "
                "par(Z3, Z3a, Z2, Z2a) -> .")
        (first,) = ics_from_text(text.format("ic1"))
        (twin,) = ics_from_text(text.format("twin"))
        program = Program(load("example_4_3").program.rules)
        one = choose_plan(program, Database(), ics=[first])
        other = choose_plan(program, Database(), ics=[twin])
        assert not other.reused
        assert "residues[ic1]" in [label for _, label, _ in one.table]
        assert "residues[twin]" in [label for _, label, _ in other.table]
        assert choose_plan(program, Database(), ics=[twin]).reused

    def test_a_foreign_dataflow_never_hits(self, counted):
        program, db = Program(TC.rules), digraph()
        own = analyze_dataflow(program, edb=db, query=BOUND)
        assert not choose_plan(program, db, query=BOUND,
                               dataflow=own).reused
        foreign = analyze_dataflow(Program(TC.rules), edb=db, query=BOUND)
        assert foreign is not own
        for _ in range(2):
            choice = choose_plan(program, db, query=BOUND,
                                 dataflow=foreign)
            assert not choice.reused
        assert counted["enumerations"] == 3
        assert choose_plan(program, db, query=BOUND, dataflow=own).reused
        assert choose_plan(program, db, query=BOUND).reused
        assert counted["enumerations"] == 3

    def test_interning_over_a_raw_edb_never_shares_a_foreign_cache(self):
        """Each run re-encodes the raw EDB over a new table, so each run
        gets a new entry; analyzing and planning over the raw EDB in
        between replaces it again."""
        program, db = Program(TC.rules), digraph()
        for node in ("n0", "n1", "n0", "n2"):
            query = _bound(node)
            assert cbo_answers(program, db, query, interning="on") \
                == _reachable(db, query)
            choice = choose_plan(
                program, db, query=query,
                dataflow=analyze_dataflow(program, edb=db, query=query))
            assert cbo_answers(program, db, query, choice=choice,
                               interning="on") == _reachable(db, query)

    @pytest.mark.parametrize("shape", ("tc", "filtered"))
    def test_two_threads_streaming_one_program_get_oracle_answers(
            self, shape):
        if shape == "tc":
            source, db, name = TC, digraph(150, 450), "n{}".format
        else:
            source, db, name = BELOW, _int_digraph(), int
        program = Program(source.rules)
        edb = db.interned()
        barrier = threading.Barrier(2)
        results, errors = [], []

        def stream(nodes):
            barrier.wait()
            try:
                for constant in nodes:
                    query = Atom("reach", (Constant(constant),
                                           Variable("Y")))
                    results.append((query, cbo_answers(
                        program, edb, query, interning="on")))
            except Exception as error:  # pragma: no cover - reported
                errors.append(error)

        threads = [threading.Thread(target=stream, args=(
            [name(number) for number in range(start, 150, 2)],))
            for start in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(results) == 150
        for query, answers in results:
            assert answers == _reachable(db, query, source)

    def test_a_choice_chaos_degraded_is_not_kept(self):
        """Residue generation failing under a chaos plan leaves only the
        identity candidate; the next fault-free call must enumerate
        afresh rather than reuse that degraded choice."""
        example = load("example_4_3")
        program = Program(example.program.rules)
        plan = ChaosPlan()
        plan.fail_stage("residues")
        plan.fail_stage("residues:ic1")
        with plan.active():
            degraded = choose_plan(program, Database(), ics=example.ics)
        assert [label for _, label, _ in degraded.table] == ["identity"]
        after = choose_plan(program, Database(), ics=example.ics)
        assert not after.reused
        assert "residues[ic1]" in [label for _, label, _ in after.table]

    def test_a_kernel_cache_keeps_no_fact_kernel(self):
        program, edb = Program(TC.rules), digraph().interned()
        for node in ("n0", "n1", "n2"):
            cbo_answers(program, edb, _bound(node))
        (entry,) = program._prepared.values()
        kept = {rule for rule, _variant in entry.kernels._kernels}
        assert kept and all(rule.body for rule in kept)


def _random_query(rng, program, nodes):
    pred = rng.choice(sorted(program.idb_predicates))
    arity = program.predicate_arities()[pred]
    return Atom(pred, tuple(
        Constant(rng.choice(nodes)) if rng.random() < 0.5
        else Variable(f"V{column}") for column in range(arity)))


@pytest.mark.parametrize("seed", range(12))
def test_warm_choices_and_answers_equal_cold_ones(seed):
    """Random bound queries against one program: each warm choice equals
    a cold ``choose_plan`` on a fresh ``Program`` in label, cost, table
    and program text, and answers like the plain evaluation."""
    rng = random.Random(seed)
    text, db = random_linear_program(rng)
    warm = parse_program(text)
    edb = db.interned() if seed % 2 else db
    nodes = sorted({value for pred in db for row in db.facts(pred)
                    for value in row})
    seen = set()
    for _ in range(8):
        query = _random_query(rng, warm, nodes)
        pattern = (query.pred, adornment_of(query))
        hot = choose_plan(warm, edb, query=query)
        cold = choose_plan(Program(warm.rules), edb, query=query)
        assert hot.reused == (pattern in seen)
        seen.add(pattern)
        assert (hot.label, hot.cost, hot.fingerprint, hot.table,
                str(hot.program)) == (cold.label, cold.cost,
                                      cold.fingerprint, cold.table,
                                      str(cold.program))
        expected = _reachable(db, query, warm)
        assert cbo_answers(warm, edb, query, choice=hot) == expected
        assert cbo_answers(warm, edb, query) == expected


# ---------------------------------------------------------------------------
# residues are pushed only where the EDB satisfies their IC
# ---------------------------------------------------------------------------

ANC = Atom("anc", tuple(Variable(name) for name in ("X", "Xa", "Y", "Ya")))


def _par_chain(ages):
    """One ``par`` chain, oldest first: person ``pI`` aged ``ages[I]``."""
    db = Database()
    people = [(f"p{index}", age) for index, age in enumerate(ages)]
    for (parent, parent_age), (child, child_age) in zip(people, people[1:]):
        db.add_fact("par", parent, parent_age, child, child_age)
    return db


class TestViolatedIcs:
    def test_a_violated_ic_gets_no_residue_candidate(self):
        example = load("example_4_3")
        (ic1,) = example.ics
        db = _par_chain((5, 20, 30, 45, 48))
        assert len(list(violations(ic1, db))) == 2
        # What the dropped candidate would have done on this EDB.
        (pushed,) = [group.candidate for group
                     in enumerate_candidates(example.program, ics=[ic1])
                     if group.candidate.label == "residues[ic1]"]
        full = evaluate(example.program, db).facts("anc")
        assert len(full) == 10
        assert len(evaluate(pushed.program, db).facts("anc")) == 9

        choice = choose_plan(example.program, db, ics=example.ics)
        assert [label for _, label, _ in choice.table] == ["identity"]
        assert choice.dropped == ("ic1",)
        assert "residues of ic1 dropped: the EDB violates it" \
            in choice.describe()
        for interning in ("off", "on"):
            assert cbo_answers(example.program, db, ANC, ics=example.ics,
                               interning=interning) == full
            result = cbo_evaluate(example.program, db, query=ANC,
                                  ics=example.ics, interning=interning)
            assert result.choice.dropped == ("ic1",)

    def test_a_satisfied_ic_keeps_its_residue_candidates(self):
        example = load("example_4_3")
        db = _par_chain((80, 60, 55))
        choice = choose_plan(example.program, db, ics=example.ics)
        assert choice.dropped == ()
        assert "residues[ic1]" in [label for _, label, _ in choice.table]

    def test_the_check_runs_once_per_edb_version(self, monkeypatch):
        calls = []
        original = checker_module.violations

        def counting(ic, edb, limit=None):
            calls.append(ic.label)
            return original(ic, edb, limit=limit)

        monkeypatch.setattr(checker_module, "violations", counting)
        example = load("example_4_3")
        program = Program(example.program.rules)
        db = _par_chain((5, 20, 30, 45, 48))
        for _ in range(5):
            cbo_answers(program, db, ANC, ics=example.ics)
        assert calls == ["ic1"]
        db.add_fact("par", "p4", 48, "p5", 12)
        choice = choose_plan(program, db, ics=example.ics)
        assert calls == ["ic1", "ic1"]
        assert choice.dropped == ("ic1",)
