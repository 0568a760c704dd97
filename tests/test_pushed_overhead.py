"""What an unhelpful push may cost: engine invariants behind the claim.

The paper's claim (ii) — pushing residues inside the recursion "does not
incur any run time overhead" — depends on the engine not charging the
isolated program (Algorithm 4.1's ``p__d0 .. p__deep`` chain plus the
copy rules that close it) for structure it does not use:

- no relation a linear recursion is still filling carries a hash index
  that only the initialization round probed (the frontier rule covers
  round 0);
- a stratum with no same-stratum body atom keeps no delta and runs no
  closing round;
- a pure copy rule ``p(X̄) :- q(X̄)`` runs as a set union — with every
  counter, budget payload, chaos ordinal and hook veto as on the row
  path;
- ``EvalProfile`` sees the insert as well as the rule body;
- ``explain`` plans a rule the way the fixpoint does.
"""

import random
import time

import pytest

from repro.core.optimizer import SemanticOptimizer
from repro.datalog import parse_program
from repro.datalog.atoms import Atom
from repro.engine import EvalProfile, EvalStats, evaluate
from repro.engine.compile import KernelCache
from repro.engine.plan import explain_kernels, plan_rule
from repro.engine.seminaive import seminaive_evaluate
from repro.engine.stratify import is_recursive_stratum, stratify
from repro.errors import BudgetExceededError
from repro.facts import Database
from repro.facts.relation import Relation
from repro.runtime import ChaosError
from repro.runtime.budget import Budget
from repro.runtime.chaos import ChaosPlan
from repro.workloads import example_3_2, example_4_3
from repro.workloads.genealogy import GenealogyParams, generate_genealogy
from repro.workloads.university import UniversityParams, generate_university


def pushed_genealogy(generations=6, width=20):
    """Example 4.3 optimized, over an EDB that satisfies its IC."""
    example = example_4_3()
    report = SemanticOptimizer(example.program, example.ics,
                               pred="anc").optimize()
    assert report.failures == []
    program = report.optimized
    db = generate_genealogy(
        GenealogyParams(generations=generations, width=width,
                        parents_per_person=2), random.Random(1))
    return program, db


def pushed_university():
    """Example 3.2 optimized with ``ic1`` (the E1 configuration)."""
    example = example_3_2()
    report = SemanticOptimizer(example.program, [example.ic("ic1")],
                               pred="eval").optimize()
    assert report.failures == []
    program = report.optimized
    db = generate_university(
        UniversityParams(professors=40, students=8, theses=8, fields=12,
                         fields_per_thesis=6, works_with_density=0.04,
                         expert_seed_fraction=0.7, supervisions=10,
                         payments=0), random.Random(1))
    return program, db


def linear_recursive_predicates(program):
    """Predicates of strata whose every rule reads at most one
    same-stratum atom, and some rule one."""
    found = set()
    for stratum in stratify(program):
        rules = [rule for rule in program if rule.head.pred in stratum]
        if is_recursive_stratum(stratum, rules) and all(
                sum(isinstance(lit, Atom) and lit.pred in stratum
                    for lit in rule.body) <= 1 for rule in rules):
            found |= stratum
    return found


# ---------------------------------------------------------------------------
# (1) the frontier rule covers the initialization round
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("planner", ("adaptive", "greedy"))
@pytest.mark.parametrize("interning", ("off", "on"))
@pytest.mark.parametrize("fixture", (pushed_genealogy, pushed_university))
def test_no_index_is_left_on_a_linear_recursive_stratum(fixture, interning,
                                                        planner):
    program, db = fixture()
    result = evaluate(program, db, planner=planner, interning=interning)
    recursive = linear_recursive_predicates(program)
    assert recursive  # anc__deep / eval__deep
    for pred in recursive:
        relation = result.idb.relation(pred)
        assert len(relation)
        assert (relation.indexes, relation.code_indexes,
                relation.proj_indexes) == ({}, {}, {}), pred


def test_explain_orders_the_init_round_as_the_engine_does(monkeypatch):
    """``r1_deep_step_c0_n`` fires in round 0 after ``r1_d1_step`` has
    filled ``anc__deep``: the engine scans that frontier and probes
    ``par``, and ``plan_rule`` / ``explain_kernels`` given the same
    ``idb`` say so."""
    program, db = pushed_genealogy()
    rule = program.rule("r1_deep_step_c0_n")
    compiled = {}
    original = KernelCache.put

    def recording(self, rule, variant, kernel):
        compiled[rule.label, variant] = kernel
        return original(self, rule, variant, kernel)

    monkeypatch.setattr(KernelCache, "put", recording)
    seminaive_evaluate(program, db, planner="adaptive")
    engine_kernel = compiled[(rule.label, None)]
    # What the engine saw at that firing: the strata below, plus
    # anc__deep as r1_d1_step left it.
    before = parse_program("\n".join(
        f"{r.label}: {r}" for r in program
        if r.label in ("r0_d0", "r1_d0_step", "r1_d1_step")))
    idb = seminaive_evaluate(before, db)
    assert 0 < len(idb.relation("anc__deep"))

    plan = plan_rule(rule, program, db, idb, planner="adaptive")
    assert [rule.body.index(step.literal) for step in plan.steps] \
        == engine_kernel.order
    atoms = [step for step in plan.steps if step.kind in ("scan", "probe")]
    assert [(step.literal.pred, step.kind, step.bound_columns)
            for step in atoms] == [("anc__deep", "scan", ()),
                                   ("par", "probe", (0, 1))]
    assert atoms[0].relation_size == len(idb.relation("anc__deep"))
    text = explain_kernels(program, db, idb, planner="adaptive")
    section = text[text.index("r1_deep_step_c0_n:"):]
    section = section[:section.index("generated function")]
    assert section.index("scan") < section.index("probe[0,1]")
    assert "anc__deep(" in section.splitlines()[1]


# ---------------------------------------------------------------------------
# (2) non-recursive strata: no delta, no closing round
# ---------------------------------------------------------------------------

LAYERED = """
a0: a(X, Y) :- e(X, Y).
b0: b(X, Y) :- a(X, Y), e(Y, X).
t0: t(X, Y) :- a(X, Y).
t1: t(X, Z) :- t(X, Y), e(Y, Z).
c0: c(X, Y) :- t(X, Y).
n0: none(X) :- e(X, X).
"""


def layered_db():
    db = Database()
    for left, right in (("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")):
        db.add_fact("e", left, right)
    return db


@pytest.mark.parametrize("executor", ("compiled", "interpreted"))
def test_a_non_recursive_stratum_adds_one_iteration(executor):
    program = parse_program(LAYERED)
    result = evaluate(program, layered_db(), executor=executor)
    assert result.count("b") and result.count("c")
    assert not result.count("none")
    recursive_only = evaluate(parse_program(
        "t0: t(X, Y) :- e(X, Y).\n"
        "t1: t(X, Z) :- t(X, Y), e(Y, Z).\n"), layered_db(),
        executor=executor)
    assert result.facts("t") == recursive_only.facts("t")
    # a, b, c and the empty `none`: one round each, fact or no fact.
    assert result.stats.iterations == recursive_only.stats.iterations + 4


@pytest.mark.parametrize("executor", ("compiled", "interpreted"))
def test_pushed_iterations_are_the_recursion_plus_one_per_stratum(executor):
    program, db = pushed_genealogy()
    strata = stratify(program)
    assert [sorted(s) for s in strata] == [
        ["anc__d0"], ["anc__d1"], ["anc__deep"], ["anc"]]
    profile = EvalProfile()
    stats = EvalStats()
    seminaive_evaluate(program, db, stats, executor=executor,
                       profile=profile)
    rounds = [entry["round"] for entry in profile.rounds]
    # Three one-round strata around the recursion's rounds 0..k (the
    # last of which found nothing new).
    assert rounds[:2] == [0, 0] and rounds[-1] == 0
    assert rounds[2:-1] == list(range(len(rounds) - 3))
    assert stats.iterations == len(rounds)
    assert all(profile.rounds[position]["deltas"][pred]
               for position, pred in ((0, "anc__d0"), (1, "anc__d1"),
                                      (-1, "anc")))


# ---------------------------------------------------------------------------
# (2) a copy rule is a set union, observably the row path
# ---------------------------------------------------------------------------

def always(rule, binding, round_index):
    return True


@pytest.mark.parametrize("planner", ("adaptive", "greedy", "source"))
@pytest.mark.parametrize("interning", ("off", "on"))
def test_union_and_row_path_count_alike(planner, interning):
    """An always-true hook forces the row path through the same plans."""
    program, db = pushed_genealogy()
    union = evaluate(program, db, planner=planner, interning=interning)
    rows = evaluate(program, db, planner=planner, interning=interning,
                    hook=always)
    oracle = evaluate(program, db, planner=planner, interning=interning,
                      executor="interpreted")
    assert union.facts("anc") == rows.facts("anc") == oracle.facts("anc")
    assert union.stats.as_dict() == rows.stats.as_dict()
    assert union.stats.rule_rows == rows.stats.rule_rows
    for name in ("derivations", "duplicate_derivations", "iterations",
                 "rules_fired"):
        assert getattr(union.stats, name) == getattr(oracle.stats, name)
    # A budget without a counter limit leaves the union path in place.
    timed = evaluate(program, db, planner=planner, interning=interning,
                     budget=Budget(timeout_s=600.0))
    assert timed.stats.as_dict() == union.stats.as_dict()


def test_a_copy_rule_inside_a_recursion_and_onto_itself():
    program = parse_program("""
        p0: p(X, Y) :- e(X, Y).
        p1: p(X, Z) :- p(X, Y), e(Y, Z).
        q0: q(X, Y) :- p(X, Y).
        p2: p(X, Y) :- q(X, Y).
        q1: q(X, Y) :- q(X, Y).
    """)
    results = {executor: evaluate(program, layered_db(), executor=executor,
                                  planner="source")
               for executor in ("compiled", "interpreted")}
    compiled, oracle = results["compiled"], results["interpreted"]
    assert compiled.facts("q") == compiled.facts("p") == oracle.facts("p")
    assert compiled.stats.as_dict() == oracle.stats.as_dict()
    assert compiled.stats.rule_rows == oracle.stats.rule_rows


def test_merging_a_row_set_copies_it_in():
    source = Relation("q", 2, [("a", "b"), ("b", "c")])
    target = Relation("p", 2, [("a", "b")])
    fresh = target.raw_merge_new(source.raw_rows())
    assert fresh == {("b", "c")} and len(target) == 2
    target.add(("c", "d"))
    fresh.add(("x", "y"))
    assert source.rows() == {("a", "b"), ("b", "c")}
    assert target.rows() == {("a", "b"), ("b", "c"), ("c", "d")}
    assert target.raw_merge_new(target.raw_rows()) == set()


def copy_stratum_events(program, db):
    """(events before the copy stratum, rows of each copied source,
    rules fired by a whole run)."""
    result = evaluate(program, db)
    sources = {pred: result.count(pred)
               for pred in ("anc__d0", "anc__d1", "anc__deep")}
    events = result.stats.derivations + result.stats.duplicate_derivations
    return (events - sum(sources.values()), sources,
            result.stats.rules_fired)


@pytest.mark.parametrize("interning", ("off", "on"))
def test_budget_running_out_inside_the_copy_stratum(interning):
    program, db = pushed_genealogy()
    before, sources, fired = copy_stratum_events(program, db)
    limit = before + sources["anc__d0"] + 5  # inside anc_from_d1
    payloads = {}
    for executor in ("compiled", "interpreted"):
        with pytest.raises(BudgetExceededError) as info:
            evaluate(program, db, executor=executor, interning=interning,
                     planner="adaptive",
                     budget=Budget(max_derivations=limit))
        error = info.value
        stats = error.stats
        assert (error.resource, error.limit, error.spent,
                error.last_round) == ("derivations", limit, limit, 0)
        assert stats.derivations + stats.duplicate_derivations == limit
        assert stats.rules_fired == fired - 1
        assert stats.rule_rows["anc_from_d0"] == sources["anc__d0"]
        assert stats.rule_rows["anc_from_d1"] == sources["anc__d1"]
        assert "anc_from_deep" not in stats.rule_rows
        payloads[executor] = (stats.derivations,
                              stats.duplicate_derivations,
                              stats.iterations)
    assert payloads["compiled"] == payloads["interpreted"]


def test_chaos_ordinal_inside_the_copy_stratum():
    program, db = pushed_genealogy()
    before, sources, fired = copy_stratum_events(program, db)
    ordinal = before + sources["anc__d0"] + sources["anc__d1"] + 7
    for executor in ("compiled", "interpreted"):
        plan = ChaosPlan().fail_derivation(ordinal)
        stats = EvalStats()
        with plan.active():
            with pytest.raises(ChaosError):
                seminaive_evaluate(program, db, stats, executor=executor,
                                   planner="adaptive")
        assert plan.triggered == [("derivation", ordinal)]
        # The fault fires before its row lands, inside anc_from_deep.
        assert stats.derivations + stats.duplicate_derivations \
            == ordinal - 1
        assert stats.rules_fired == fired
        assert stats.rule_rows["anc_from_deep"] == sources["anc__deep"]


@pytest.mark.parametrize("executor", ("compiled", "interpreted"))
def test_a_hook_vetoing_a_copy_rule_is_honoured(executor):
    program, db = pushed_genealogy()
    seen = []

    def veto(rule, binding, round_index):
        if rule.label == "anc_from_deep":
            seen.append(round_index)
            return False
        return True

    result = evaluate(program, db, executor=executor, hook=veto)
    assert result.count("anc__deep") == len(seen) and set(seen) == {0}
    assert result.facts("anc") == \
        result.facts("anc__d0") | result.facts("anc__d1")
    assert not result.facts("anc") & result.facts("anc__deep")


# ---------------------------------------------------------------------------
# the profile sees the insert
# ---------------------------------------------------------------------------

def test_profile_kernel_totals_add_up_to_the_fixpoint():
    program, db = pushed_genealogy(generations=8, width=60)
    edb = db.interned()
    shares = []
    for _attempt in range(3):
        profile = EvalProfile()
        start = time.perf_counter()
        seminaive_evaluate(program, edb, planner="adaptive",
                           profile=profile)
        wall = time.perf_counter() - start
        kernels = profile.as_dict()["kernels"]
        shares.append(sum(entry["seconds"] + entry["merge_seconds"]
                          for entry in kernels.values()) / wall)
    # The copy-union firing is recorded under the rule's own key, and
    # what it costs is the merge.
    copied = kernels["anc_from_deep"]
    assert copied["calls"] == 1 and copied["rows"] > 0
    assert copied["merge_seconds"] > copied["seconds"] >= 0.0
    assert set(copied) == {"calls", "seconds", "merge_seconds", "rows"}
    assert max(shares) >= 0.8, shares
