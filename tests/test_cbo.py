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

import pytest

from repro.datalog import parse_program
from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, Variable
from repro.engine import (ChosenPlan, cbo_answers, cbo_evaluate,
                          choose_plan, enumerate_candidates, evaluate,
                          evaluate_with_magic, explain_answer,
                          explain_kernels, explain_plan, magic_answers,
                          naive_evaluate, plan_rule, seminaive_evaluate)
from repro.engine.magic import magic_rewrite
from repro.engine.optimizer import (MAX_CANDIDATES, Memo, PlanCandidate,
                                    _adornment_choices, _linearizations,
                                    estimate_program_cost)
from repro.errors import EvaluationError, TransformError
from repro.facts import Changeset, Database, VersionedDatabase
from repro.incremental import maintain
from repro.serving import MaterializedView, ThreadedServer
from repro.workloads import load
from repro.workloads.generators import (random_digraph,
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

    def test_candidate_cap_respected(self):
        memo = enumerate_candidates(TC, query=BOUND, max_candidates=2)
        assert len(memo) <= 2
        assert len(memo) <= MAX_CANDIDATES


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
        goal = Atom("reach", (Constant("n0"), Constant("n3")))
        derivation = explain_answer(result, goal)
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
