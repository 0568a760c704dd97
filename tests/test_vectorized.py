"""The vectorized executor: batch kernels, predicate cache, profiling.

The vectorized executor is an optimization, not a semantics change —
so the spine of this file is differential: identical facts *and*
identical :class:`EvalStats` counters against the compiled executor
across feature-covering programs (joins, comparisons, equality against
constants, negation, membership, binds, arithmetic fallback).  On top
of that it pins the unit contracts of the new pieces: the column-level
predicate cache's version-bump invalidation, batch codegen fallback
triggers, columnar replica shipping through the fork pool, and the
``--profile`` instrumentation.
"""

import random

import pytest

from repro.datalog import parse_program
from repro.engine import (EvalProfile, EvalStats, evaluate,
                          evaluate_with_magic, explain_kernels)
from repro.engine.compile import KernelCache
from repro.engine.vectorize import (PredicateCache, VectorRunner,
                                    compile_batch)
from repro.errors import EvaluationError
from repro.facts import Database
from repro.facts.relation import Relation
from repro.facts.symbols import SymbolTable
from repro.workloads import random_digraph, transitive_closure_program

# ---------------------------------------------------------------------------
# Feature-covering corpus
# ---------------------------------------------------------------------------


def _tc():
    program = parse_program(transitive_closure_program())
    return program, random_digraph(40, 110, random.Random(3))


def _comparisons():
    program = parse_program("""
        r0: big(X, Y) :- edge(X, Y), Y > 2.
        r1: far(X, Z) :- big(X, Y), edge(Y, Z), X != Z, Z >= 1.
        r2: far(X, Z) :- far(X, Y), big(Y, Z), X < Z.
    """)
    edb = Database()
    rng = random.Random(5)
    for _ in range(120):
        edb.add_fact("edge", rng.randrange(9), rng.randrange(9))
    return program, edb


def _eq_const_and_member():
    program = parse_program("""
        r0: hop(X, Y) :- edge(X, Y), X = 1.
        r1: hop(X, Z) :- hop(X, Y), edge(Y, Z), edge(X, 1).
        r2: tag(X) :- hop(X, Y), Y = 99.
    """)
    edb = Database()
    rng = random.Random(7)
    for _ in range(90):
        edb.add_fact("edge", rng.randrange(7), rng.randrange(7))
    return program, edb


def _negation_and_bind():
    program = parse_program("""
        r0: lonely(X, K) :- node(X), K = 0, not edge(X, X).
        r1: seen(X, Y) :- edge(X, Y), not lonely(Y, 0).
        r2: seen(X, Z) :- seen(X, Y), seen(Y, Z).
    """)
    edb = Database()
    rng = random.Random(9)
    for n in range(8):
        edb.add_fact("node", n)
    for _ in range(40):
        edb.add_fact("edge", rng.randrange(8), rng.randrange(8))
    return program, edb


def _arithmetic_fallback():
    # ArithExpr bodies cannot be batch-lowered: every rule must fall
    # back to the compiled kernel and still agree.
    program = parse_program("""
        r0: nxt(X, Y) :- num(X), Y = X + 1, num(Y).
        r1: chain(X, Y) :- nxt(X, Y).
        r2: chain(X, Z) :- chain(X, Y), nxt(Y, Z).
    """)
    edb = Database()
    for n in range(20):
        edb.add_fact("num", n)
    return program, edb


CORPUS = [
    ("tc", _tc),
    ("comparisons", _comparisons),
    ("eq_const_member", _eq_const_and_member),
    ("negation_bind", _negation_and_bind),
    ("arith_fallback", _arithmetic_fallback),
]


def _snapshot(result):
    facts = {pred: frozenset(result.facts(pred))
             for pred in result.program.idb_predicates}
    return facts, result.stats.as_dict()


@pytest.mark.parametrize("name,build", CORPUS,
                         ids=[name for name, _ in CORPUS])
@pytest.mark.parametrize("planner", ["greedy", "adaptive", "source"])
def test_facts_and_stats_match_compiled(name, build, planner):
    program, edb = build()
    reference = _snapshot(evaluate(program, edb, planner=planner,
                                   interning="on", executor="compiled"))
    batched = _snapshot(evaluate(program, edb, planner=planner,
                                 interning="on", executor="vectorized"))
    assert batched == reference


def test_vectorized_without_interning_matches_too():
    program, edb = _comparisons()
    reference = _snapshot(evaluate(program, edb, executor="compiled"))
    assert _snapshot(evaluate(program, edb,
                              executor="vectorized")) == reference


def test_vectorized_naive_method_matches(self=None):
    program, edb = _tc()
    reference = _snapshot(evaluate(program, edb, method="naive",
                                   interning="on", executor="compiled"))
    assert _snapshot(evaluate(program, edb, method="naive",
                              interning="on",
                              executor="vectorized")) == reference


def test_vectorized_magic_matches():
    program = parse_program(transitive_closure_program())
    edb = random_digraph(30, 80, random.Random(13))
    from repro.datalog.atoms import Atom
    from repro.datalog.terms import Constant, Variable
    query = Atom("reach", (Constant(0), Variable("Y")))
    reference = evaluate_with_magic(program, edb, query,
                                    interning="on", executor="compiled")
    batched = evaluate_with_magic(program, edb, query, interning="on",
                                  executor="vectorized")
    assert {p: frozenset(batched.facts(p)) for p in batched.idb} \
        == {p: frozenset(reference.facts(p)) for p in reference.idb}
    assert batched.stats.as_dict() == reference.stats.as_dict()


def test_mixed_type_ordering_raises_identically():
    program = parse_program("""
        r0: low(X, Y) :- pair(X, Y), Y < 5.
    """)
    edb = Database()
    edb.add_fact("pair", 1, 3)
    edb.add_fact("pair", 2, "oops")
    for executor in ("compiled", "vectorized"):
        with pytest.raises(EvaluationError):
            evaluate(program, edb, interning="on", executor=executor)


# ---------------------------------------------------------------------------
# Predicate cache
# ---------------------------------------------------------------------------


class TestPredicateCache:
    def _relation(self, symbols, rows):
        relation = Relation("r", 2, symbols=symbols)
        for row in rows:
            relation.add(row)
        return relation

    def test_passing_codes_and_memoization(self):
        symbols = SymbolTable()
        cache = PredicateCache(symbols)
        relation = self._relation(symbols, [(1, 10), (2, 40), (3, 7)])
        passing = cache.passing(relation, 1, ">", 9, True)
        decoded = {symbols.value(code) for code in passing}
        assert decoded == {10, 40}
        assert cache.passing(relation, 1, ">", 9, True) is passing
        assert cache.builds == 1

    def test_version_bump_invalidates(self):
        symbols = SymbolTable()
        cache = PredicateCache(symbols)
        relation = self._relation(symbols, [(1, 10), (2, 4)])
        first = cache.passing(relation, 1, ">", 9, True)
        relation.add((3, 77))  # content change bumps backend.version
        second = cache.passing(relation, 1, ">", 9, True)
        assert second is not first
        assert cache.builds == 2
        assert {symbols.value(c) for c in second} == {10, 77}

    def test_entries_keyed_per_backend_uid(self):
        symbols = SymbolTable()
        cache = PredicateCache(symbols)
        rel_a = self._relation(symbols, [(1, 10)])
        rel_b = self._relation(symbols, [(1, 3)])
        in_a = cache.passing(rel_a, 1, ">", 9, True)
        in_b = cache.passing(rel_b, 1, ">", 9, True)
        assert len(in_a) == 1 and len(in_b) == 0

    def test_unorderable_codes_reraise_on_membership(self):
        symbols = SymbolTable()
        cache = PredicateCache(symbols)
        relation = self._relation(symbols, [(1, 10), (2, "text")])
        container = cache.passing(relation, 1, "<", 99, True)
        ten = symbols.code(10)
        text = symbols.code("text")
        assert ten in container
        with pytest.raises(EvaluationError):
            text in container


# ---------------------------------------------------------------------------
# Batch codegen + runner
# ---------------------------------------------------------------------------


def _first_kernel(program_text, edb, planner="greedy"):
    program = parse_program(program_text)
    interned = edb.interned()
    cache = KernelCache(symbols=interned.symbols, fuse=False)
    rule = next(iter(program))
    return interned, cache.kernel(rule, None, lambda atom, index: 0)


def test_arithmetic_body_declines_batch_lowering():
    edb = Database()
    edb.add_fact("num", 1)
    _interned, kernel = _first_kernel(
        "r0: nxt(X, Y) :- num(X), Y = X + 1.", edb)
    assert kernel.batch_plan is None
    assert compile_batch(kernel) is None


def test_batch_kernel_source_is_kept_for_introspection():
    edb = Database()
    edb.add_fact("edge", 1, 2)
    _interned, kernel = _first_kernel(
        "r0: reach(X, Y) :- edge(X, Y).", edb)
    batch = compile_batch(kernel)
    assert batch is not None
    assert "def _batch(" in batch.source
    assert kernel.fused is False and kernel.deep_fused is False


def test_runner_falls_back_when_hook_installed():
    program, edb = _tc()
    interned = edb.interned()
    runner = VectorRunner(symbols=interned.symbols)
    cache = KernelCache(symbols=interned.symbols, fuse=False)
    rule = next(r for r in program if len(r.body) == 1)
    kernel = cache.kernel(rule, None, lambda atom, index: 0)

    def fetch(atom, index):
        return interned.relation_or_empty(atom.pred, atom.arity)

    vetoed = []

    def hook(pred, row, round_index):
        vetoed.append(pred)
        return True

    with_hook = runner.run(kernel, fetch, EvalStats(), hook=hook)
    without = runner.run(kernel, fetch, EvalStats())
    assert sorted(with_hook) == sorted(without)
    assert vetoed  # the fallback path consulted the hook per row


def test_explain_kernels_vectorized_section():
    program = parse_program("""
        r0: reach(X, Y) :- edge(X, Y), Y != 3.
        r1: nxt(X, Y) :- num(X), Y = X + 1.
    """)
    edb = Database()
    edb.add_fact("edge", 1, 2)
    edb.add_fact("num", 4)
    text = explain_kernels(program, edb.interned(),
                           executor="vectorized")
    assert "vectorized execution" in text
    assert "batch chain" in text and "check[!=]" in text
    assert "falls back to the compiled kernel" in text
    plain = explain_kernels(program, edb, executor="vectorized")
    assert "EDB not interned" in plain


# ---------------------------------------------------------------------------
# Profiling
# ---------------------------------------------------------------------------


def test_profile_records_kernels_and_rounds():
    program, edb = _tc()
    profile = EvalProfile()
    result = evaluate(program, edb, interning="on",
                      executor="vectorized", profile=profile)
    report = profile.as_dict()
    assert report["kernels"] and report["rounds"]
    total_rows = sum(entry["rows"] for entry in
                     report["kernels"].values())
    assert total_rows >= result.stats.derivations
    for entry in report["kernels"].values():
        assert entry["calls"] >= 1 and entry["seconds"] >= 0.0
    first = report["rounds"][0]
    assert first["round"] == 0 and "reach" in first["deltas"]
