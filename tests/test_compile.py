"""Compiled kernels: differential equivalence against the interpreter.

The compiled executor is an optimization, not a semantics change; these
tests pin that down the way the engine bench does — every workload, every
method, both executors — plus the planner tie-breaks the kernels bake in,
hook/chaos behaviour under compilation, and the relation-index contract
the kernels rely on.
"""

from __future__ import annotations

import importlib
import random

import pytest

from repro.cli import main
from repro.datalog import parse_program
from repro.datalog.atoms import Atom
from repro.datalog.terms import Variable
from repro.engine import (EXECUTORS, CompiledKernel, EvalStats,
                          KernelCache, compile_rule, evaluate,
                          evaluate_with_magic, explain_kernels,
                          seminaive_evaluate)
from repro.engine.bindings import plan_body
from repro.engine.compile import validate_executor
from repro.engine.fire import Firer
from repro.errors import BudgetExceededError, EvaluationError
from repro.facts import Database
from repro.facts.changelog import Changeset
from repro.facts.relation import Relation
from repro.incremental import maintain
from repro.runtime import Budget
from repro.runtime.chaos import ChaosError, ChaosPlan
from repro.workloads import (GenealogyParams, OrganizationParams,
                             UniversityParams, example_2_1,
                             example_3_2, example_4_1, example_4_3,
                             example_5_1, generate_genealogy,
                             generate_organization, generate_university,
                             random_digraph,
                             transitive_closure_program, tree_edges)

# ---------------------------------------------------------------------------
# Workload corpus: (name, program, edb, magic_query or None)
# ---------------------------------------------------------------------------


def _tc_workload():
    program = parse_program(transitive_closure_program())
    edb = random_digraph(60, 180, random.Random(11))
    return program, edb, Atom("reach", (Variable("X"), Variable("Y")))


def _same_generation_workload():
    program = parse_program("""
        r0: sg(X, X) :- person(X).
        r1: sg(X, Y) :- par(X, Xp), sg(Xp, Yp), par(Y, Yp).
    """)
    edb = tree_edges(4, 2, pred="par")
    for person in sorted({v for row in edb.facts("par") for v in row}):
        edb.add_fact("person", person)
    return program, edb, Atom("sg", (Variable("X"), Variable("Y")))


def _negation_workload():
    program = parse_program("""
        r0: reach(X, Y) :- edge(X, Y).
        r1: reach(X, Y) :- reach(X, Z), edge(Z, Y).
        r2: unreached(X, Y) :- node(X), node(Y), not reach(X, Y).
    """)
    edb = random_digraph(25, 60, random.Random(3))
    for node in sorted({v for row in edb.facts("edge") for v in row}):
        edb.add_fact("node", node)
    return program, edb, None  # magic rewrite targets positive programs


def _arithmetic_workload():
    program = parse_program("""
        r0: dist(X, Y, 1) :- edge(X, Y).
        r1: dist(X, Y, D1) :- dist(X, Z, D), edge(Z, Y), D < 6,
                              D1 = D + 1.
    """)
    edb = random_digraph(30, 80, random.Random(5))
    return program, edb, None  # arithmetic heads: keep bottom-up only


def _university_workload():
    example = example_3_2()
    edb = generate_university(UniversityParams(), random.Random(17))
    return example.program, edb, None


def _genealogy_workload():
    example = example_4_3()
    edb = generate_genealogy(GenealogyParams(), random.Random(19))
    query = Atom("anc", tuple(Variable(n) for n in ("X", "Xa", "Y", "Ya")))
    return example.program, edb, query


def _organization_workload():
    example = example_4_1()
    edb = generate_organization(OrganizationParams(), random.Random(29))
    return example.program, edb, None


def _chain_abstract_workload():
    example = example_2_1()
    edb = Database.from_text("""
        e(x1, x2, x3, x4, x5, x6).
        a(x1, x2, x4). b(y2, x3). c(y3, y4, x5). d(y5, x6).
        e(x1, y2, y3, y4, y5, y6).
    """)
    return example.program, edb, None


def _iqa_workload():
    example = example_5_1()
    edb = Database.from_text("""
        transcript(ann, cs, 33, 3.9). transcript(bob, cs, 20, 3.9).
        transcript(cid, ee, 35, 3.1).
        publication(bob, p1). appears(p1, j1). reputed(j1).
        graduated(dee, mit). topten(mit).
    """)
    return example.program, edb, None


WORKLOADS = {
    "transitive_closure": _tc_workload,
    "same_generation": _same_generation_workload,
    "negation": _negation_workload,
    "arithmetic": _arithmetic_workload,
    "university_3_2": _university_workload,
    "genealogy_4_3": _genealogy_workload,
    "organization_4_1": _organization_workload,
    "chain_2_1": _chain_abstract_workload,
    "iqa_5_1": _iqa_workload,
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("method", ["seminaive", "naive"])
def test_compiled_matches_interpreted(name, method):
    """Identical databases and derivation counts, every workload."""
    program, edb, _query = WORKLOADS[name]()
    results = {executor: evaluate(program, edb, method=method,
                                  executor=executor)
               for executor in EXECUTORS}
    compiled, interpreted = (results["compiled"],
                             results["interpreted"])
    assert compiled.idb == interpreted.idb
    assert compiled.stats.derivations == interpreted.stats.derivations
    assert compiled.stats.duplicate_derivations == \
        interpreted.stats.duplicate_derivations


@pytest.mark.parametrize(
    "name", [n for n in sorted(WORKLOADS) if WORKLOADS[n]()[2]])
def test_compiled_matches_interpreted_under_magic(name):
    program, edb, query = WORKLOADS[name]()
    results = {executor: evaluate_with_magic(program, edb, query,
                                             executor=executor)
               for executor in EXECUTORS}
    assert results["compiled"].idb == results["interpreted"].idb
    assert results["compiled"].stats.derivations == \
        results["interpreted"].stats.derivations


def test_methods_agree_on_compiled_executor():
    program, edb, _query = _tc_workload()
    seminaive = evaluate(program, edb, method="seminaive")
    naive = evaluate(program, edb, method="naive")
    assert seminaive.idb == naive.idb


# ---------------------------------------------------------------------------
# Planner tie-breaking (the orders kernels bake in)
# ---------------------------------------------------------------------------


def _sizes_from(table):
    return lambda atom, index: table[atom.pred]


def test_plan_body_prefers_more_bound_variables():
    rule = parse_program("""
        h(X, Y) :- anchor(X), wide(X, Y), loose(Z).
    """).rules[0]
    order = plan_body(rule, _sizes_from(
        {"anchor": 10, "wide": 1000, "loose": 50}))
    # After anchor binds X, wide has a bound column; boundness beats
    # loose's smaller size.
    assert order == [0, 1, 2]


def test_plan_body_breaks_bound_ties_by_relation_size():
    rule = parse_program("""
        h(X) :- big(X), small(X).
    """).rules[0]
    order = plan_body(rule, _sizes_from({"big": 500, "small": 3}))
    assert order[0] == 1  # equal boundness (none): smaller scans first


def test_plan_body_breaks_size_ties_by_source_order():
    rule = parse_program("""
        h(X, Y) :- first(X), second(Y).
    """).rules[0]
    order = plan_body(rule, _sizes_from({"first": 7, "second": 7}))
    assert order == [0, 1]


def test_plan_body_keep_atom_order_pins_atoms_not_builtins():
    rule = parse_program("""
        h(X) :- big(X, Y), small(Y), Y > 1.
    """).rules[0]
    order = plan_body(rule, _sizes_from({"big": 100, "small": 1}),
                      keep_atom_order=True)
    atoms_only = [i for i in order if i != 2]
    assert atoms_only == [0, 1]       # source order despite sizes
    assert order.index(2) > order.index(0)  # comparison waits for Y


def test_kernel_cache_reuses_kernels_per_variant():
    program, edb, _query = _tc_workload()
    rule = program.rules[1]
    cache = KernelCache()
    firer = Firer("greedy", "compiled", None, EvalStats(), kernels=cache)

    def fetch(atom, index):
        return edb.relation_or_empty(atom.pred, atom.arity)

    firer.run(rule, fetch, 0)
    first = cache.get(rule, 0)
    assert first is not None
    firer.run(rule, fetch, 0)
    assert cache.get(rule, 0) is first
    firer.run(rule, fetch, None)
    assert cache.get(rule, None) is not first
    assert len(cache) == 2


def test_seminaive_evaluate_reuses_a_callers_kernels():
    """``seminaive_evaluate(kernels=)`` has ``maintain(kernels=)``'s
    contract: a second run compiles nothing, and a cache of another
    symbol table, or beside the interpreter, is refused."""
    from repro.facts.symbols import SymbolTable

    program, raw, _query = _tc_workload()
    edb = raw.interned()
    cache = KernelCache(symbols=edb.symbols)
    first = seminaive_evaluate(program, edb, kernels=cache)
    kept = len(cache)
    assert kept > 0
    second = seminaive_evaluate(program, edb, kernels=cache)
    assert len(cache) == kept
    assert second.facts("reach") == first.facts("reach") \
        == seminaive_evaluate(program, raw).facts("reach")
    for foreign, executor in ((KernelCache(), "compiled"),
                              (KernelCache(symbols=SymbolTable()),
                               "compiled"),
                              (cache, "interpreted")):
        with pytest.raises(EvaluationError, match="kernels="):
            seminaive_evaluate(program, edb, kernels=foreign,
                               executor=executor)


def test_compile_rejects_unsafe_head():
    rule = parse_program("h(X, Y) :- a(X).",
                         edb_hint=("a",)).rules[0]
    with pytest.raises(EvaluationError, match="range restricted"):
        compile_rule(rule, lambda atom, index: 0)


def test_validate_executor_rejects_unknown():
    with pytest.raises(EvaluationError, match="executor"):
        validate_executor("gpu")
    program, edb, _query = _tc_workload()
    with pytest.raises(EvaluationError, match="executor"):
        evaluate(program, edb, executor="gpu")


@pytest.mark.parametrize("executor", ["parallel", "vectorized"])
def test_removed_executors_stay_removed(tmp_path, executor):
    # Removal pin (PR 13 parallel, PR 14 vectorized): no alias, no
    # accepted-and-ignored keyword.
    program, edb, _query = _tc_workload()
    with pytest.raises(EvaluationError) as info:
        evaluate(program, edb, executor=executor)
    assert "('compiled', 'interpreted')" in str(info.value)
    source = tmp_path / "tc.dl"
    source.write_text("reach(X, Y) :- edge(X, Y).\n")
    facts = tmp_path / "db.dl"
    facts.write_text("edge(1, 2).\n")
    for command in ("evaluate", "serve"):
        with pytest.raises(SystemExit) as exit_info:
            main([command, str(source), str(facts),
                  "--executor", executor])
        assert exit_info.value.code == 2


def test_removed_keywords_and_names_stay_removed(tmp_path):
    program, edb, _query = _tc_workload()
    with pytest.raises(TypeError):
        evaluate(program, edb, shards=4)                      # PR 13
    rule = next(iter(program))
    with pytest.raises(TypeError):
        CompiledKernel(rule, lambda atom, index: 0, fuse=False)
    with pytest.raises(TypeError):
        KernelCache(fuse=False)
    with pytest.raises(TypeError):
        KernelCache(on_replan=lambda rule: None)
    with pytest.raises(TypeError):
        Database(backend_factory=lambda name, arity: None)
    with pytest.raises(TypeError):
        edb.interned(backend_factory=lambda name, arity: None)
    with pytest.raises(ImportError):
        from repro.facts import ColumnarBackend  # noqa: F401
    with pytest.raises(ImportError):
        from repro.engine import VectorRunner  # noqa: F401
    source = tmp_path / "tc.dl"
    source.write_text("reach(X, Y) :- edge(X, Y).\n")
    for argv in (["explain", str(source), "--kernels",
                  "--executor", "compiled"],
                 ["bench-engine", "--min-vectorized-speedup", "1.0"],
                 ["bench-engine", "--min-interned-speedup", "1.3"],
                 ["bench-engine", "--executor", "vectorized"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2


def test_the_legacy_bench_harnesses_stay_removed():
    # Removal pin (PR 21): benchmarks/e2e is the one perf record.  No
    # alias, no stub command, no re-export; bench-serving is the one
    # harness left (concurrent readers beside a writer under chaos).
    from repro.engine.magic import MagicProgram

    for command in ("bench-engine", "bench-optimizer",
                    "bench-incremental"):
        with pytest.raises(SystemExit) as exit_info:
            main([command])
        assert exit_info.value.code == 2
    for module in ("engine_bench", "optimizer_bench",
                   "incremental_bench"):
        with pytest.raises(ImportError):
            importlib.import_module(f"repro.bench.{module}")
    with pytest.raises(ImportError):
        from repro.bench import emit_engine_baseline  # noqa: F401
    assert not hasattr(MagicProgram, "answers")
    with pytest.raises(SystemExit) as exit_info:
        main(["bench-serving", "--help"])
    assert exit_info.value.code == 0


def test_the_row_chain_and_its_fork_stay_removed():
    # Removal pin (PR 15): one back end per rule body.  No refusal
    # exception, no chain builder, no "why not generated" attribute, no
    # hook on the maintenance/serving entry points, no second
    # statistics source, no PERF001.
    import repro.engine.compile as compile_module
    from repro.analysis.passes import CODES
    from repro.facts import Relation, VersionedDatabase
    from repro.serving import MaterializedView, ThreadedServer

    with pytest.raises(ImportError):
        from repro.engine.codegen import Unlowerable  # noqa: F401
    with pytest.raises(ImportError):
        from repro.engine import RelationStats  # noqa: F401
    with pytest.raises(ImportError):
        import repro.engine.stats  # noqa: F401
    for name in ("_chain", "_Ctx", "_value_getter", "_coded_getter",
                 "_make_atom_step", "_emit_solution"):
        with pytest.raises(AttributeError):
            getattr(compile_module, name)
    program, edb, _query = _tc_workload()
    kernel = compile_rule(next(iter(program)), lambda atom, index: 0)
    for name in ("row_reason", "_entry", "_head_fn", "_build_chain"):
        with pytest.raises(AttributeError):
            getattr(kernel, name)
    assert kernel.generated is not None

    def hook(rule, binding, round_index):
        return True

    idb = evaluate(program, edb).idb
    with pytest.raises(TypeError):
        maintain(program, edb, idb, Changeset(), hook=hook)
    with pytest.raises(TypeError):
        MaterializedView(program, VersionedDatabase(edb), hook=hook)
    with pytest.raises(TypeError):
        ThreadedServer(db=edb).view(program, hook=hook)
    relation = Relation("r", 1)
    for name in ("enable_stats", "stats", "_stats"):
        with pytest.raises(AttributeError):
            getattr(relation, name)
    assert "PERF001" not in CODES


@pytest.mark.parametrize("facts, stored", [("edge(1). edge(2).", 1),
                                           ("edge(1, 2, 9).", 3)])
@pytest.mark.parametrize("interning", ["off", "on"])
@pytest.mark.parametrize("executor", EXECUTORS)
def test_edb_arity_mismatch_is_rejected(executor, interning, facts,
                                        stored):
    program = parse_program("""
        r0: reach(X, Y) :- edge(X, Y).
        r1: reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """)
    message = f"relation 'edge' has arity {stored}, program uses edge/2"
    for method in ("seminaive", "naive"):
        with pytest.raises(EvaluationError) as info:
            evaluate(program, Database.from_text(facts), method=method,
                     executor=executor, interning=interning)
        assert str(info.value) == message
    edb = Database.from_text(facts)
    if interning == "on":
        edb = edb.interned()
    with pytest.raises(EvaluationError) as info:
        maintain(program, edb, Database(symbols=edb.symbols), Changeset(),
                 executor=executor)
    assert str(info.value) == message


@pytest.mark.parametrize("facts, stored", [("edge(a).", 1),
                                           ("edge(a, b, c).", 3)])
@pytest.mark.parametrize("interning", ["off", "on"])
def test_edb_arity_mismatch_is_rejected_before_planning(interning, facts,
                                                        stored):
    """Plan choice and the dataflow analysis run before any fixpoint:
    they refuse the relation themselves instead of indexing past its
    rows (``IndexError``) or costing a plan on the wrong columns."""
    from repro.analysis.dataflow import analyze_dataflow
    from repro.datalog.terms import Constant
    from repro.engine import cbo_answers, cbo_evaluate, choose_plan

    program = parse_program("""
        r0: reach(X, Y) :- edge(X, Y).
        r1: reach(X, Y) :- edge(X, Z), reach(Z, Y).
    """)
    query = Atom("reach", (Constant("a"), Variable("Y")))
    edb = Database.from_text(facts)
    if interning == "on":
        edb = edb.interned()
    for entry in (lambda: choose_plan(program, edb, query=query),
                  lambda: cbo_answers(program, edb, query),
                  lambda: cbo_evaluate(program, edb, query=query),
                  lambda: analyze_dataflow(program, edb=edb),
                  lambda: analyze_dataflow(program, edb=edb, query=query)):
        with pytest.raises(EvaluationError) as info:
            entry()
        assert str(info.value) \
            == f"relation 'edge' has arity {stored}, program uses edge/2"


def test_explain_kernels_renders_steps(tc_program, chain_db):
    text = explain_kernels(tc_program, chain_db)
    assert "probe" in text or "scan" in text
    assert "slots" in text


# ---------------------------------------------------------------------------
# Hooks and chaos: same observable behaviour under both executors
# ---------------------------------------------------------------------------


def test_hook_veto_suppresses_same_rows_in_both_executors(tc_program):
    edb = random_digraph(40, 120, random.Random(13))

    def run(executor):
        vetoed = []

        def hook(rule, binding, round_index):
            if rule.label == "r1" and \
                    str(binding[Variable("Y")]) >= "n30":
                vetoed.append((binding[Variable("X")],
                               binding[Variable("Y")]))
                return False
            return True

        result = evaluate(tc_program, edb, hook=hook, executor=executor)
        return result, sorted(set(vetoed))

    compiled, compiled_vetoed = run("compiled")
    interpreted, interpreted_vetoed = run("interpreted")
    assert compiled.idb == interpreted.idb
    assert compiled_vetoed == interpreted_vetoed
    assert compiled_vetoed  # the veto actually fired
    assert compiled.stats.derivations == interpreted.stats.derivations


def test_hook_round_index_matches_interpreter(tc_program, chain_db):
    def rounds_seen(executor):
        seen = []

        def hook(rule, binding, round_index):
            seen.append((rule.label, round_index))
            return True

        evaluate(tc_program, chain_db, hook=hook, executor=executor)
        return sorted(seen)

    assert rounds_seen("compiled") == rounds_seen("interpreted")


@pytest.mark.parametrize("method", ["seminaive", "naive"])
def test_chaos_fires_at_same_ordinal_in_both_executors(method):
    program, edb, _query = _tc_workload()
    logs = {}
    for executor in EXECUTORS:
        plan = ChaosPlan().fail_derivation(40)
        with plan.active():
            with pytest.raises(ChaosError):
                evaluate(program, edb, method=method, executor=executor)
        logs[executor] = list(plan.triggered)
    assert logs["compiled"] == logs["interpreted"] == \
        [("derivation", 40)]


def test_budget_exhaustion_payload_exact_under_compiled():
    program, edb, _query = _tc_workload()
    with pytest.raises(BudgetExceededError) as info:
        evaluate(program, edb, budget=Budget(max_facts=50))
    assert info.value.stats.derivations == 50


def test_rule_rows_buckets_same_head_rules_separately():
    # Unlabeled same-head rules must land in distinct buckets (keyed by
    # the auto-assigned label, or ``pred#index`` when labels are absent)
    # instead of collapsing into one per-predicate counter.
    program = parse_program("""
        p(X) :- a(X).
        p(X) :- b(X).
    """)
    edb = Database.from_text("a(1). a(2). b(3).")
    for executor in EXECUTORS:
        stats = evaluate(program, edb, executor=executor).stats
        assert stats.rule_rows.get("r0") == 2
        assert stats.rule_rows.get("r1") == 1


# ---------------------------------------------------------------------------
# Relation index contract (what the kernels probe)
# ---------------------------------------------------------------------------


def test_index_for_is_cached_and_live():
    relation = Relation("edge", 2)
    relation.add(("a", "b"))
    index = relation.index_for((0,))
    assert index is relation.index_for((0,))
    relation.add(("a", "c"))
    assert len(index[("a",)]) == 2  # live: new rows land in the bucket


def test_add_all_updates_existing_indexes():
    relation = Relation("edge", 2)
    relation.add(("a", "b"))
    index = relation.index_for((1,))
    added = relation.add_all([("a", "b"), ("c", "b"), ("d", "e")])
    assert added == 2
    assert {row for row in index[("b",)]} == {("a", "b"), ("c", "b")}
    assert relation.lookup(((1, "e"),))


def test_lookup_empty_pattern_returns_row_container():
    relation = Relation("edge", 2)
    relation.add_all([("a", "b"), ("c", "d")])
    rows = relation.lookup(())
    assert len(rows) == 2
    assert set(rows) == {("a", "b"), ("c", "d")}
