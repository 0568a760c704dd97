"""Generated kernels: every rule body runs as one generated function.

``executor="compiled"`` runs each rule body as one generated
whole-frontier function (:mod:`repro.engine.codegen`) — arithmetic,
empty and bind-only bodies included — and, when a derivation hook is
installed, as a second text of the same step program with one closing
hook filter.  Neither is a semantics change — so the spine of this file
is differential: identical facts *and* identical :class:`EvalStats`
counters between the unhooked text, the hooked text (under an
always-true hook) and, under the ``source`` planner where the join
orders coincide, the reference interpreter, across feature-covering
programs (joins, comparisons, equality against constants, negation,
membership, binds, arithmetic).  On top of that it pins the unit
contracts of the pieces: generated source shape, the column-level
predicate cache's stamp invalidation and boundedness, the text cache's
cap, slice boundaries, and the ``--profile`` instrumentation.
"""

import random

import pytest

from repro.datalog import parse_program
from repro.engine import (EvalProfile, EvalStats, evaluate,
                          evaluate_with_magic, explain_kernels)
from repro.engine import codegen
from repro.engine.codegen import PredicateCache
from repro.engine.compile import KernelCache, compile_rule
from repro.engine.fire import Firer
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


def _arithmetic():
    # r0 binds through arithmetic and then probes with the result.
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
    ("arithmetic", _arithmetic),
]


def _snapshot(result):
    facts = {pred: frozenset(result.facts(pred))
             for pred in result.program.idb_predicates}
    return facts, result.stats.as_dict()


def _always(rule, binding, round_index):
    return True


@pytest.mark.parametrize("name,build", CORPUS,
                         ids=[name for name, _ in CORPUS])
@pytest.mark.parametrize("planner", ["greedy", "adaptive", "source"])
@pytest.mark.parametrize("interning", ["off", "on"])
def test_hooked_text_matches_unhooked_text(name, build, planner,
                                           interning):
    program, edb = build()
    generated = _snapshot(evaluate(program, edb, planner=planner,
                                   interning=interning))
    hooked = _snapshot(evaluate(program, edb, planner=planner,
                                interning=interning, hook=_always))
    assert generated == hooked


@pytest.mark.parametrize("name,build", CORPUS,
                         ids=[name for name, _ in CORPUS])
@pytest.mark.parametrize("interning", ["off", "on"])
def test_generated_function_matches_interpreter(name, build, interning):
    # planner="source" fixes the join order, so the interpreter's
    # counters are comparable one for one.
    program, edb = build()
    generated = _snapshot(evaluate(program, edb, planner="source",
                                   interning=interning))
    reference = _snapshot(evaluate(program, edb, planner="source",
                                   interning=interning,
                                   executor="interpreted"))
    assert generated == reference


def test_naive_method_matches():
    program, edb = _tc()
    reference = _snapshot(evaluate(program, edb, method="naive",
                                   planner="source",
                                   executor="interpreted"))
    for interning in ("off", "on"):
        assert _snapshot(evaluate(program, edb, method="naive",
                                  planner="source",
                                  interning=interning)) == reference


def test_magic_matches():
    program = parse_program(transitive_closure_program())
    edb = random_digraph(30, 80, random.Random(13))
    from repro.datalog.atoms import Atom
    from repro.datalog.terms import Constant, Variable
    query = Atom("reach", (Constant(0), Variable("Y")))
    reference = evaluate_with_magic(program, edb, query, planner="source",
                                    executor="interpreted")
    generated = evaluate_with_magic(program, edb, query, planner="source",
                                    interning="on")
    assert {p: frozenset(generated.facts(p)) for p in generated.idb} \
        == {p: frozenset(reference.facts(p)) for p in reference.idb}
    assert generated.stats.as_dict() == reference.stats.as_dict()


def test_mixed_type_ordering_raises_identically():
    program = parse_program("""
        r0: low(X, Y) :- pair(X, Y), Y < 5.
    """)
    edb = Database()
    edb.add_fact("pair", 1, 3)
    edb.add_fact("pair", 2, "oops")
    for kwargs in ({}, {"hook": _always}, {"executor": "interpreted"}):
        for interning in ("off", "on"):
            with pytest.raises(EvaluationError):
                evaluate(program, edb, interning=interning, **kwargs)


# ---------------------------------------------------------------------------
# Predicate cache
# ---------------------------------------------------------------------------


class TestPredicateCache:
    def _relation(self, symbols, rows, name="r"):
        relation = Relation(name, 2, symbols=symbols)
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
        # The mutated backend's filter is replaced, not kept beside.
        assert [len(slots) for slots in cache.entries.values()] == [1]

    def test_two_relations_of_a_name_share_the_entry(self):
        # A predicate's delta and its full relation go through the same
        # filter: both stay cached (neither firing evicts the other's),
        # a third backend of the name replaces the least recently used.
        symbols = SymbolTable()
        cache = PredicateCache(symbols)
        full = self._relation(symbols, [(1, 10)])
        delta = self._relation(symbols, [(1, 3)])
        in_full = cache.passing(full, 1, ">", 9, True)
        in_delta = cache.passing(delta, 1, ">", 9, True)
        assert len(in_full) == 1 and len(in_delta) == 0
        assert cache.passing(full, 1, ">", 9, True) is in_full
        assert cache.builds == 2
        next_delta = self._relation(symbols, [(1, 12)])
        cache.passing(next_delta, 1, ">", 9, True)  # evicts `delta`
        assert cache.passing(full, 1, ">", 9, True) is in_full
        assert cache.builds == 3
        assert [len(slots) for slots in cache.entries.values()] == [2]
        other = self._relation(symbols, [(1, 10)], name="s")
        cache.passing(other, 1, ">", 9, True)
        assert len(cache.entries) == 2

    def test_constants_are_keyed_with_their_type(self):
        # 1 and 1.0 are equal with equal hashes, but the error a filter
        # re-raises for an unorderable value names the constant.
        cache = PredicateCache()
        relation = Relation("r", 1)
        relation.add(("text",))
        for const in (1, 1.0):
            with pytest.raises(EvaluationError,
                               match=f"and {const!r} with"):
                "text" in cache.passing(relation, 0, "<", const, True)
        assert len(cache.entries) == 2

    def test_building_does_not_index_the_relation(self):
        symbols = SymbolTable()
        cache = PredicateCache(symbols)
        relation = self._relation(symbols, [(1, 10), (2, 4)])
        cache.passing(relation, 1, ">", 9, True)
        assert relation.indexes == {}

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

    def test_one_entry_per_predicate_however_many_rounds(self):
        # Every semi-naive round's delta is a fresh relation (a fresh
        # backend uid).  A cache keyed by uid grew by one entry per
        # round — harmless while it died with the evaluation, a leak in
        # the KernelCache a materialized view keeps across refreshes.
        program = parse_program(
            "r1: reach(X, Z) :- edge(X, Y), reach(Y, Z), Z > 3.")
        (rule,) = program
        edb = Database()
        for n in range(60):
            edb.add_fact("edge", n, n + 1)
        edb = edb.interned()
        kernels = KernelCache(symbols=edb.symbols)
        firer = Firer("source", "compiled", edb.symbols, EvalStats(),
                      kernels=kernels)
        rounds = 50
        for number in range(rounds):
            delta = Relation("reach", 2, symbols=edb.symbols)
            delta.add((number + 1, number + 2))

            def fetch(atom, index, _delta=delta):
                return _delta if atom.pred == "reach" \
                    else edb.relation("edge")

            firer.run(rule, fetch, variant=1)
        assert len(kernels) == 1
        cached = {(kernel.sources[spec[1]][1].pred,) + spec[2:]
                  for kernel in kernels._kernels.values()
                  for spec in kernel.generated.form(False).resolvers
                  if spec[0] == "pcache"}
        assert cached == {("reach", 1, ">", 3, True)}
        assert set(kernels.predicates.entries) == cached
        assert kernels.predicates.builds == rounds

    def test_unchanged_full_relation_is_filtered_once(self):
        # Both variants of a non-linear rule read `path` through the
        # filter on Y: variant 0 from the round's delta, variant 1 from
        # the full relation.  The full relation's filter is built once
        # and survives every delta firing in between.
        program = parse_program(
            "r: path(X, Z) :- path(X, Y), path(Y, Z), Y > 3.")
        (rule,) = program
        full = Relation("path", 2)
        for n in range(20):
            full.add((n, n + 1))
        kernels = KernelCache()
        firer = Firer("source", "compiled", None, EvalStats(),
                      kernels=kernels)
        rounds = 10
        for number in range(rounds):
            delta = Relation("path", 2)
            delta.add((number, number + 1))
            for variant in (0, 1):
                def fetch(atom, index, _variant=variant, _delta=delta):
                    return _delta if index == _variant else full

                firer.run(rule, fetch, variant=variant)
        assert list(kernels.predicates.entries) == [
            ("path", 1, ">", 3, True)]
        assert kernels.predicates.builds == rounds + 1


# ---------------------------------------------------------------------------
# Generated source
# ---------------------------------------------------------------------------


def _kernel(program_text, edb, planner="greedy"):
    program = parse_program(program_text)
    interned = edb.interned()
    rule = next(iter(program))
    return interned, compile_rule(rule, lambda atom, index: 0,
                                  symbols=interned.symbols)


def _edges(*pairs):
    edb = Database()
    for pair in pairs:
        edb.add_fact("edge", *pair)
    return edb


def test_arithmetic_bind_is_one_clause_of_the_next_level():
    edb = Database()
    edb.add_fact("num", 1)
    interned, kernel = _kernel("r0: nxt(X, Y) :- num(X), Y = X + 1.", edb)
    source = kernel.generated.source
    # Computed once per row in the value domain, re-interned, and kept
    # in a register of its own; no separate level is materialized.
    assert "for b1 in (I(A('+', V[r0[0]], 1)),)" in source
    assert "lvl" not in source
    assert "def _kernel(" in kernel.describe()
    symbols = interned.symbols
    stats = EvalStats()
    rows = kernel.execute(lambda atom, index: interned.relation("num"),
                          stats)
    assert rows == [(symbols.code(1), symbols.code(2))]
    assert (stats.atom_lookups, stats.rows_matched,
            stats.comparisons_checked) == (1, 1, 1)


def test_empty_body_is_a_frontier_of_one():
    _interned, kernel = _kernel("r0: fact(1).", Database())
    assert "out = [(" in kernel.generated.source
    assert kernel.generated.form(False).resolvers == ()
    stats = EvalStats()
    assert kernel.execute(lambda atom, index: None, stats) \
        == [(kernel.symbols.code(1),)]
    assert stats.as_dict() == EvalStats().as_dict()


def test_bind_only_body_counts_its_binds():
    _interned, kernel = _kernel("r0: three(N, K) :- N = 1 + 2, K = N.",
                                Database())
    stats = EvalStats()
    (row,) = kernel.execute(lambda atom, index: None, stats)
    assert tuple(map(kernel.symbols.value, row)) == (3, 3)
    assert stats.comparisons_checked == 2 and stats.rows_matched == 0


def test_identity_head_is_one_list_copy():
    _interned, kernel = _kernel("r0: reach(X, Y) :- edge(X, Y).",
                                _edges((1, 2)))
    assert "out = list(a0)" in kernel.generated.source
    assert "def _kernel(" in kernel.describe()


def test_single_column_tail_probes_the_projection_index():
    interned, kernel = _kernel(
        "r1: reach(X, Y) :- reach(X, Z), edge(Z, Y).", _edges((1, 2)))
    source = kernel.generated.source
    assert [spec[0] for spec in kernel.generated.form(False).resolvers] \
        == ["rows", "proj"]
    assert "for v1 in g1(r0[1], E)" in source
    # Two levels, no intermediate list: nothing to slice or free.
    assert "islice" not in source and "del " not in source


def test_intermediate_levels_are_sliced_and_freed():
    _interned, kernel = _kernel(
        "r0: t(X, W) :- edge(X, Y), edge(Y, Z), edge(Z, W).",
        _edges((1, 2)))
    source = kernel.generated.source
    assert f"s0 = list(islice(rest, {codegen.SLICE_ROWS}))" in source
    assert "n1 += len(lvl1)" in source and "out += [" in source
    assert source.index("out += [") < source.index("del lvl1")


def test_hook_gets_a_second_text_with_one_closing_filter():
    program, edb = _tc()
    interned = edb.interned()
    rule = next(r for r in program if len(r.body) == 1)
    kernel = compile_rule(rule, lambda atom, index: 0,
                          symbols=interned.symbols)
    assert kernel.generated is not None

    def fetch(atom, index):
        return interned.relation_or_empty(atom.pred, atom.arity)

    consulted = []

    def hook(rule, binding, round_index):
        consulted.append(binding)
        return True

    with_hook = kernel.execute(fetch, EvalStats(), hook=hook,
                               round_index=4)
    without = kernel.execute(fetch, EvalStats())
    assert sorted(with_hook) == sorted(without)
    assert len(consulted) == len(without)  # consulted once per row
    # The hook sees values, not codes, under the rule's own variables.
    assert {tuple(binding[v] for v in rule.head.variables())
            for binding in consulted} \
        == set(interned.relation("edge"))
    _fn, resolvers, source = kernel.generated.form(True)
    assert [spec[0] for spec in resolvers] == ["rows", "hook", "round"]
    assert "if a1(R, {k0: V[r0[0]], k1: V[r0[1]]}, a2)]" in source
    # ...while the text that runs without one is untouched by it.
    assert "out = list(a0)" in kernel.generated.source


def test_vetoed_rows_compute_no_head_term():
    # The hook runs before the head is built: a vetoed row's head
    # arithmetic (here a division by zero) is never evaluated, exactly
    # as the interpreter instantiates the head only after the hook.
    program = parse_program("r0: inv(X, 1 / X) :- num(X).")
    edb = Database()
    for n in (0, 1, 2):
        edb.add_fact("num", n)

    def nonzero(rule, binding, round_index):
        return all(value != 0 for value in binding.values())

    for interning in ("off", "on"):
        for executor in ("compiled", "interpreted"):
            result = evaluate(program, edb, interning=interning,
                              executor=executor, hook=nonzero)
            assert result.facts("inv") == {(1, 1.0), (2, 0.5)}
            with pytest.raises(EvaluationError, match="division by zero"):
                evaluate(program, edb, interning=interning,
                         executor=executor)


def test_explain_kernels_prints_the_generated_source_per_rule():
    program = parse_program("""
        r0: reach(X, Y) :- edge(X, Y), Y != 3.
        r1: nxt(X, Y) :- num(X), Y = X + 1.
    """)
    edb = Database()
    edb.add_fact("edge", 1, 2)
    edb.add_fact("num", 4)
    for db in (edb, edb.interned()):
        text = explain_kernels(program, db)
        assert text.count("generated function:") == 2
        assert text.count("def _kernel(") == 2 and " != " in text
        assert "A('+', " in text and "row chain" not in text


# ---------------------------------------------------------------------------
# Slices
# ---------------------------------------------------------------------------


def test_slice_boundary_rows_and_counters_match_the_interpreter():
    # An outermost frontier of three full slices plus one row, behind a
    # body that exercises all four kernel counters.
    width = 3 * codegen.SLICE_ROWS + 1
    program = parse_program("""
        r0: t(X, W) :- a(X, Y), b(Y, Z), Z > 1, not c(Z, X), b(Z, W).
    """)
    edb = Database()
    for n in range(width):
        edb.add_fact("a", n, n % 7)
    for n in range(7):
        edb.add_fact("b", n, (n * 3 + 1) % 7)
        edb.add_fact("b", n, (n + 2) % 7)
    for n in range(0, width, 5):
        edb.add_fact("c", n % 7, n)
    reference = evaluate(program, edb, planner="source",
                         executor="interpreted")
    for interning in ("off", "on"):
        result = evaluate(program, edb, planner="source",
                          interning=interning)
        assert result.facts("t") == reference.facts("t")
        assert result.stats.as_dict() == reference.stats.as_dict()
    stats = reference.stats
    assert stats.atom_lookups and stats.rows_matched \
        and stats.comparisons_checked and stats.negation_checks
    (rule,) = program
    kernel = compile_rule(rule, lambda atom, index: 0,
                          keep_atom_order=True)
    assert "islice" in kernel.generated.source


# ---------------------------------------------------------------------------
# Text cache
# ---------------------------------------------------------------------------


def test_equal_constants_of_different_types_never_share_text():
    # 3 == 3.0 with equal hashes, and raw-mode generated text embeds
    # the literal: same-shape rules must not share it, whether they sit
    # in one program or arrive one after the other in the process.
    def run(text, executor):
        edb = Database()
        edb.add_fact("e", "a")
        edb.add_fact("f", "a")
        result = evaluate(parse_program(text), edb, executor=executor)
        return {pred: sorted(map(repr, result.facts(pred)))
                for pred in ("a", "b")}

    both = "r0: a(X, 3) :- e(X).  r1: b(X, 3.0) :- f(X)."
    assert run(both, "compiled") == run(both, "interpreted") == {
        "a": ["('a', 3)"], "b": ["('a', 3.0)"]}
    for literal in ("1", "1.0", "1", "-0.0", "0.0"):
        text = f"r0: a(X, {literal}) :- e(X)."
        assert run(text, "compiled") == run(text, "interpreted") == {
            "a": [f"('a', {literal})"], "b": []}


def test_text_cache_is_capped_and_regenerates_identical_source(
        monkeypatch):
    monkeypatch.setattr(codegen, "MAX_CACHED_KERNELS", 4)
    monkeypatch.setattr(codegen, "_CACHE", {})

    def compiled(constant):
        (rule,) = parse_program(
            f"r0: q(X) :- edge(X, Y), Y = {constant}.")
        return compile_rule(rule, lambda atom, index: 0)

    first = compiled(0).generated.source
    (first_key,) = codegen._CACHE
    for constant in range(1, 12):
        compiled(constant)
        assert len(codegen._CACHE) <= 4
    assert first_key not in codegen._CACHE  # cleared at the cap
    assert compiled(0).generated.source == first
    assert first_key in codegen._CACHE


# ---------------------------------------------------------------------------
# Profiling
# ---------------------------------------------------------------------------


def test_profile_records_kernels_and_rounds():
    program, edb = _tc()
    profile = EvalProfile()
    result = evaluate(program, edb, interning="on", profile=profile)
    report = profile.as_dict()
    assert report["kernels"] and report["rounds"]
    total_rows = sum(entry["rows"] for entry in
                     report["kernels"].values())
    assert total_rows >= result.stats.derivations
    for entry in report["kernels"].values():
        assert entry["calls"] >= 1 and entry["seconds"] >= 0.0
    first = report["rounds"][0]
    assert first["round"] == 0 and "reach" in first["deltas"]
