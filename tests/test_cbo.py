"""The cost-based enumerating optimizer (``cbo_evaluate`` / ``cbo_answers``).

Covers the bounded rewrite space (residue pushing per IC, magic sets
per adornment weakening, left/right linearization), the
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
import repro.engine.codegen as codegen_module
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
from repro.engine.engine import select_answers
from repro.engine.magic import adornment_of, magic_rewrite
from repro.engine.prepared import prepared
from repro.engine.optimizer import (MAX_CANDIDATES, Memo, PlanCandidate,
                                    _adornment_choices, _linearizations,
                                    estimate_program_cost)
from repro.errors import EvaluationError, TransformError
from repro.facts import Changeset, Database, VersionedDatabase
from repro.incremental import maintain
from repro.runtime.chaos import ChaosPlan
from repro.serving import MaterializedView, ThreadedServer
from repro.workloads import load
from repro.workloads.genealogy import GenealogyParams, generate_genealogy
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

#: An auxiliary read twice in one body, and one read under ``not``:
#: rule fusion unfolded only the first positive ``aux`` atom of a body,
#: then dropped ``aux``'s rule, so both lost or gained answers.
TWICE = parse_program("""
    q(X, Z) :- aux(X, Y), aux(Y, Z).
    aux(X, Y) :- e(X, Y), f(Y).
""")

NEGATED = parse_program("""
    q(X, Y) :- e(X, Y), not aux(Y).
    aux(Y) :- f(Y, Z).
""")

Q_FREE = Atom("q", (Variable("X"), Variable("Z")))
Q_BOUND = Atom("q", (Constant(4), Variable("Z")))


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

    @pytest.mark.parametrize("program, query", [
        (AUX, Atom("tc2", (Constant("n0"), Variable("Y")))),
        (TWICE, Q_FREE), (TWICE, Q_BOUND),
        (NEGATED, Q_FREE), (NEGATED, Q_BOUND),
    ], ids=["aux", "twice-free", "twice-bound", "negated-free",
            "negated-bound"])
    def test_no_candidate_fuses_rules(self, program, query):
        """Rule fusion is not in the rewrite space: it had no verifier
        and dropped an auxiliary's rule while a consumer still read it."""
        memo = enumerate_candidates(program, query=query)
        assert len(memo) >= 1
        for group in memo:
            assert "fuse" not in group.candidate.transforms

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

    def test_enumeration_analyzes_each_group_at_most_once(self,
                                                           monkeypatch):
        """The enumeration's work, counted rather than timed: at most
        one dataflow analysis per candidate group (the program's own
        for the identity, one per rewrite), and none at all for the
        pattern's next query, which reuses the choice."""
        analyzed = []
        analyze = dataflow_module.analyze_dataflow

        def counting(program, *args, **kwargs):
            analyzed.append(program)
            return analyze(program, *args, **kwargs)

        monkeypatch.setattr(dataflow_module, "analyze_dataflow", counting)
        program, db = Program(TC.rules), digraph(300, 900)
        first = choose_plan(program, db, query=BOUND)
        assert not first.reused and first.groups > 1
        assert 0 < len(analyzed) <= first.groups
        analyzed.clear()
        second = choose_plan(program, db, query=_bound("n1"))
        assert second.reused and analyzed == []

    def test_estimate_skips_fact_rules(self):
        program = parse_program("f0: p(a).\nr0: q(X) :- p(X).")
        candidate = PlanCandidate(program, ())
        cost, detail = estimate_program_cost(candidate, Database())
        assert cost > 0.0
        assert "r0" in detail

    def test_an_existential_atom_is_priced_as_one_probe(self):
        # q holds 10 rows and r six per q value: read for its Y, the
        # probe walks 6 rows per q row; asked only whether a Y exists,
        # it is one probe that cannot widen the frontier.
        db = Database({"q": [(x,) for x in range(10)],
                       "r": [(x, y) for x in range(10) for y in range(6)],
                       "s": [(x, y, y % 2) for x in range(10)
                             for y in range(6)]})

        def cost(text):
            return estimate_program_cost(
                PlanCandidate(parse_program(text), ()), db)[0]

        assert cost("p(X, Y) :- q(X), r(X, Y).") == 11 + 10 * (1 + 6)
        assert cost("p(X) :- q(X), r(X, Y).") == 11 + 10
        # A repeated new variable is an in-atom check: rows are walked.
        assert cost("p(X) :- q(X), s(X, Y, Y).") == 11 + 10 * (1 + 6)

    def test_example_3_2_prices_the_elimination_below_the_source(self):
        """E1's push matches 12.9x fewer rows than the source program on
        this EDB; the estimator must rank it first too."""
        from repro.workloads import (UniversityParams, example_3_2,
                                     generate_university)

        example = example_3_2()
        ic1 = [ic for ic in example.ics if ic.label == "ic1"]
        db = generate_university(UniversityParams(professors=300),
                                 random.Random(7))
        choice = choose_plan(Program(example.program.rules), db, ics=ic1)
        assert choice.label == "residues[ic1]", choice.describe()
        pushed = evaluate(choice.program, db).stats.rows_matched
        assert pushed * 10 < evaluate(example.program, db).stats.rows_matched

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


RIGHT_TC = parse_program("""
    r0: reach(X, Y) :- edge(X, Y).
    r1: reach(X, Y) :- edge(X, Z), reach(Z, Y).
""")


@pytest.mark.parametrize("seed", (1, 2, 3))
@pytest.mark.parametrize("shape", ("left", "right"))
@pytest.mark.parametrize("pattern", ("bf", "fb"))
def test_the_chosen_candidate_is_within_regret_of_the_best(
        seed, shape, pattern):
    """Every memo candidate runs under ``cbo_evaluate(choice=...)``: the
    chosen one matches at most 1.2x the rows of the cheapest, and all
    of them answer alike.  Each candidate is priced with its own
    program's analysis, so a magic candidate's adorned predicates carry
    their own bounds."""
    rng = random.Random(seed)
    db = random_digraph(300, 1200, rng)
    column = 0 if pattern == "bf" else 1
    node = Constant(rng.choice(sorted({row[column]
                                       for row in db.facts("edge")})))
    query = Atom("reach", (node, Variable("Y")) if pattern == "bf"
                 else (Variable("Y"), node))
    program = Program((TC if shape == "left" else RIGHT_TC).rules)
    chosen = choose_plan(program, db, query=query)
    rows, answers = {}, set()
    for group in enumerate_candidates(program, query):
        candidate = group.candidate
        plan = ChosenPlan(program=candidate.program,
                          transforms=candidate.transforms, cost=0.0,
                          fingerprint=group.fingerprint,
                          magic=candidate.magic)
        result = cbo_evaluate(program, db, query=query, choice=plan)
        rows[candidate.label] = result.stats.rows_matched
        answers.add(cbo_answers(program, db, query, choice=plan))
    assert len(answers) == 1
    assert rows[chosen.label] <= 1.2 * min(rows.values()), rows
    if (shape, pattern) == ("left", "bf"):
        assert chosen.label == "magic[bf]"
    if pattern == "fb":
        # One backward search from the bound node: the right-linear
        # rule (as written, or linearized to it) passes that node into
        # ``reach`` first, so ``reach__fb`` is the only adorned
        # predicate and no magic rule widens the seed.
        assert chosen.label == ("magic[fb]" if shape == "right" else
                                "linearize[reach:right] + magic[fb]")
        assert {rule.head.pred for rule in chosen.program} \
            == {"reach__fb", "m_reach__fb"}
        assert [rule for rule in chosen.program
                if rule.head.pred == "m_reach__fb"] == [chosen.magic.seed]


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
        enumeration, every analysis (the program's and each candidate's)
        and every kernel during the first query, and none after it (the
        magic seed, a fact, is inserted without a kernel)."""
        program = Program(TC.rules)
        db = digraph(150, 450)
        edb = db.interned()
        compiled, analyzed, choices = [], [], []
        for number in range(20):
            query = _bound(f"n{number}")
            before = counted["analyses"]
            flow = analyze_dataflow(program, edb=edb, query=query)
            choice = choose_plan(program, edb, query=query, dataflow=flow)
            analyzed.append(counted["analyses"] - before)
            before = counted["kernels"]
            answers = cbo_answers(program, edb, query, choice=choice,
                                  interning="on")
            compiled.append(counted["kernels"] - before)
            assert answers == _reachable(db, query)
            choices.append(choice)
        assert counted["enumerations"] == 1
        assert analyzed[0] >= 1
        assert analyzed[1:] == [0] * 19
        assert compiled[0] > 1
        assert compiled[1:] == [0] * 19
        assert all(choice.magic is not None for choice in choices)
        assert [choice.reused for choice in choices] \
            == [False] + [True] * 19

    def test_a_bf_stream_generates_no_code_and_builds_no_strata(
            self, monkeypatch):
        """Fifty bf queries of one pattern along the benchmark's path:
        after the first, no query adds generated kernel text (its seed
        is inserted as a row) or builds a dependency graph (the strata
        carry over the seed swap, so stratification never reruns), and
        every query answers like ``magic_answers``."""
        graphs = []
        build = Program.dependency_graph

        def counting(program):
            graphs.append(program)
            return build(program)

        monkeypatch.setattr(Program, "dependency_graph", counting)
        program = Program(TC.rules)
        db = digraph(150, 450)
        edb = db.interned()
        texts, built = [], []
        for number in range(50):
            query = _bound(f"n{number}")
            texts_before, built_before = len(codegen_module._CACHE), \
                len(graphs)
            flow = analyze_dataflow(program, edb=edb, query=query)
            choice = choose_plan(program, edb, query=query, dataflow=flow)
            answers = cbo_answers(program, edb, query, choice=choice,
                                  interning="on")
            texts.append(len(codegen_module._CACHE) - texts_before)
            built.append(len(graphs) - built_before)
            assert choice.magic is not None
            assert answers == magic_answers(program, db, query)
        assert texts[1:] == [0] * 49
        assert built[1:] == [0] * 49

    def test_describe_says_the_plan_was_reused(self):
        program, db = Program(TC.rules), digraph()
        first = choose_plan(program, db, query=_bound("n1"))
        second = choose_plan(program, db, query=_bound("n2"))
        assert "enumerated in" in first.describe()
        assert "reused, not re-enumerated" in second.describe()
        assert second.describe().count("*") == 1
        assert (second.fingerprint, second.table) \
            == (first.fingerprint, first.table)

    def test_a_query_outside_the_profiled_domain_is_priced_like_its_pattern(
            self):
        """On an acyclic int digraph no edge leaves the last node, so
        ``reach(149, Y)`` has no answers.  Its magic seed is still priced
        as one row of unknown value in ``reach``'s first column, like
        every query of the pattern: the choice is kept, the next query
        reuses it, and both equal a cold enumeration."""
        db = Database()
        for source, target in digraph(150, 450).relation("edge"):
            db.add_fact("edge", int(source[1:]), int(target[1:]))
        program = Program(TC.rules)
        outside = choose_plan(program, db, query=_bound(149))
        second = choose_plan(program, db, query=_bound(0))
        cold = choose_plan(Program(TC.rules), db, query=_bound(149))
        assert not outside.reused and second.reused
        assert (outside.label, outside.cost, outside.table) \
            == (second.label, second.cost, second.table) \
            == (cold.label, cold.cost, cold.table)
        assert cbo_answers(program, db, _bound(149)) == frozenset()
        assert cbo_answers(program, db, _bound(0)) \
            == _reachable(db, _bound(0))

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
    and program text, and answers like the plain evaluation.  A choice
    is reused exactly when its pattern has a kept one (a degenerate
    choice, whose seed makes rules dead, is not kept)."""
    rng = random.Random(seed)
    text, db = random_linear_program(rng)
    warm = parse_program(text)
    edb = db.interned() if seed % 2 else db
    nodes = sorted({value for pred in db for row in db.facts(pred)
                    for value in row})
    kept = set()
    for _ in range(8):
        query = _random_query(rng, warm, nodes)
        pattern = (query.pred, adornment_of(query))
        hot = choose_plan(warm, edb, query=query)
        cold = choose_plan(Program(warm.rules), edb, query=query)
        assert hot.reused == (pattern in kept)
        if prepared(warm, edb, query).plan is not None:
            kept.add(pattern)
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


# ---------------------------------------------------------------------------
# every enumerated candidate answers like the interpreter
# ---------------------------------------------------------------------------

def _aux_db(f_arity, seed=1, nodes=40, edges=160):
    """Integer ``e`` edges and an ``f`` over about half the nodes, for
    :data:`TWICE` (unary ``f``) and :data:`NEGATED` (binary ``f``)."""
    rng = random.Random(seed)
    db = Database()
    db.ensure("e", 2)
    db.ensure("f", f_arity)
    for _ in range(edges):
        db.add_fact("e", rng.randrange(nodes), rng.randrange(nodes))
    for node in range(nodes):
        if rng.random() < 0.5:
            db.add_fact("f", *((node,) if f_arity == 1
                               else (node, rng.randrange(nodes))))
    return db


def _sg_db(seed=3, people=60):
    """A random forest over ``people``: each has at most one parent."""
    rng = random.Random(seed)
    db = Database()
    for child in range(people):
        db.add_fact("person", f"p{child}")
        if child and rng.random() < 0.8:
            db.add_fact("par", f"p{child}", f"p{rng.randrange(child)}")
    return db


def _oracle(program, db, query):
    result = evaluate(program, db, executor="interpreted")
    return select_answers(result.idb, query)


class TestFusionCounterexamples:
    """The two programs rule fusion answered wrongly: the chosen plan
    answers like the source program."""

    @pytest.mark.parametrize("query", [Q_FREE, Q_BOUND],
                             ids=["free", "bound"])
    @pytest.mark.parametrize("program, f_arity", [(TWICE, 1),
                                                  (NEGATED, 2)],
                             ids=["twice", "negated"])
    def test_cbo_answers_equal_the_source_answers(self, program, f_arity,
                                                  query):
        db = _aux_db(f_arity)
        expected = _oracle(program, db, query)
        assert expected
        assert cbo_answers(program, db, query) == expected


def _oracle_cases():
    genealogy = load("example_4_3")
    genealogy_db = generate_genealogy(GenealogyParams(generations=6,
                                                      width=6),
                                      random.Random(17))
    youngest = sorted(row[0] for row in genealogy_db.facts("par")
                      if row[0].startswith("g5_"))[0]
    anc_bound = Atom("anc", (Constant(youngest), Variable("Xa"),
                             Variable("Y"), Variable("Ya")))
    sg_bound = Atom("sg", (Constant("p7"), Variable("Y")))
    sg_free = Atom("sg", (Variable("X"), Variable("Y")))
    tc2_bound = Atom("tc2", (Constant("n0"), Variable("Y")))
    return [
        ("tc-bound", TC, digraph(), BOUND, ()),
        ("tc-free", TC, digraph(), FREE, ()),
        ("sg-bound", SG, _sg_db(), sg_bound, ()),
        ("sg-free", SG, _sg_db(), sg_free, ()),
        ("aux-bound", AUX, digraph(), tc2_bound, ()),
        ("twice-free", TWICE, _aux_db(1), Q_FREE, ()),
        ("twice-bound", TWICE, _aux_db(1), Q_BOUND, ()),
        ("negated-free", NEGATED, _aux_db(2), Q_FREE, ()),
        ("negated-bound", NEGATED, _aux_db(2), Q_BOUND, ()),
        ("genealogy-free", genealogy.program, genealogy_db, ANC,
         genealogy.ics),
        ("genealogy-bound", genealogy.program, genealogy_db, anc_bound,
         genealogy.ics),
    ]


@pytest.mark.parametrize("case", _oracle_cases(), ids=lambda c: c[0])
def test_every_candidate_answers_like_the_interpreter(case):
    """Each memo group of the rewrite space — not only the chosen one —
    run as the plan, answers the query exactly like the interpreted
    evaluation of the source program."""
    _, program, db, query, ics = case
    expected = _oracle(program, db, query)
    assert expected
    labels_seen = []
    for group in enumerate_candidates(program, query, ics=ics):
        candidate = group.candidate
        plan = ChosenPlan(program=candidate.program,
                          transforms=candidate.transforms, cost=0.0,
                          fingerprint=group.fingerprint,
                          magic=candidate.magic)
        labels_seen.append(candidate.label)
        assert cbo_answers(program, db, query, ics=ics, choice=plan) \
            == expected, candidate.label
    assert labels_seen[0] == "identity"
