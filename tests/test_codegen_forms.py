"""The generated forms the per-row closure chain used to serve.

Until PR 15 arithmetic terms, empty and bind-only bodies, derivation
hooks and constants without a literal ran on a separate per-row back
end.  They are generated code now, so each is pinned here against the
reference interpreter: rows always, and the whole :class:`EvalStats`
under ``planner="source"``, where the two run the same join order.
"""

import math
import random
from pathlib import Path

import pytest

from repro.baselines import ResidueGuidedEngine
from repro.datalog import parse_program
from repro.datalog.parser import parse_atom
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import ArithExpr, Constant, Variable
from repro.engine import EvalStats, evaluate, seminaive_evaluate
from repro.engine.compile import KernelCache, compile_rule
from repro.errors import EvaluationError
from repro.facts import Database
from repro.workloads import (ALL_EXAMPLES, GenealogyParams,
                             UniversityParams, example_3_2, example_4_3,
                             generate_genealogy, generate_university,
                             random_digraph, random_linear_program)


DATA = Path(__file__).parent / "data"


def _snapshot(result):
    # repr keeps 3, 3.0 and True (and nan) apart; == would not.
    facts = {pred: sorted(map(repr, result.facts(pred)))
             for pred in result.program.idb_predicates}
    return facts, result.stats.as_dict()


def _always(rule, binding, round_index):
    return True


def _matches_interpreter(program, edb, hooks=(None, _always)):
    """Rows under every planner, all counters under ``source`` — with
    each of ``hooks`` installed on both sides.  Returns the
    interpreter's raw-storage snapshot under the last hook."""
    for interning in ("on", "off"):
        for hook in hooks:
            reference = _snapshot(evaluate(
                program, edb, planner="source", interning=interning,
                executor="interpreted", hook=hook))
            assert _snapshot(evaluate(
                program, edb, planner="source", interning=interning,
                hook=hook)) == reference
            for planner in ("greedy", "adaptive"):
                facts, _stats = _snapshot(evaluate(
                    program, edb, planner=planner, interning=interning,
                    hook=hook))
                assert facts == reference[0], (planner, interning)
    return reference


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

BOUNDED_DISTANCE = """
    r0: dist(X, Y, 1) :- edge(X, Y).
    r1: dist(X, Z, N) :- dist(X, Y, M), edge(Y, Z), N = M + 1, N <= 3.
    r2: far(X, M * 10) :- dist(X, Y, M), M + 1 > 2.
"""


def test_bounded_distance_recursion_matches_the_interpreter():
    # Arithmetic in a bind (r1), in a check (r2) and in the head (r2),
    # inside and on top of a recursive stratum.
    program = parse_program(BOUNDED_DISTANCE)
    edb = random_digraph(25, 60, random.Random(2))
    facts, stats = _matches_interpreter(program, edb)
    assert facts["far"] and stats["comparisons_checked"]
    assert max(eval(row)[2] for row in facts["dist"]) == 3


@pytest.mark.parametrize("text,expected", [
    # A recursive counter that must stop at a value arithmetic interns
    # while the kernel runs.
    ("r0: r(N) :- start(N). "
     "r1: r(N) :- r(M), M != 7, N = M + 1, N < 12.", range(1, 8)),
    ("r0: r(N) :- start(M), N = M + 6, N != 7.", ()),
    ("r0: r(N) :- start(M), N = M + 6, N = 7.", (7,)),
    ("r0: r(N) :- start(M), N = M + 6, 7 = N.", (7,)),
])
def test_equality_with_a_constant_absent_from_the_database(text, expected):
    # No stored value equals 7 when the kernels are compiled, so the
    # comparison must not be decided then.
    program = parse_program(text)
    edb = Database()
    edb.add_fact("start", 1)
    facts, _stats = _matches_interpreter(program, edb)
    assert facts["r"] == sorted(repr((n,)) for n in expected)


@pytest.mark.parametrize("text,fact,message", [
    ("r0: bad(X, Y) :- num(X), Y = X / 0.", ("num", 4),
     "division by zero"),
    ("r0: bad(X, X + 1) :- num(X).", ("num", "a"),
     "arithmetic on non-numeric values: 'a' + 1"),
    ("r0: bad(X) :- num(X), X * 2 > 3.", ("num", "a"),
     "arithmetic on non-numeric values: 'a' * 2"),
])
def test_arithmetic_errors_are_the_interpreters(text, fact, message):
    program = parse_program(text)
    edb = Database()
    edb.add_fact(*fact)
    for interning in ("off", "on"):
        for knobs in ({"executor": "interpreted"}, {}, {"hook": _always}):
            with pytest.raises(EvaluationError) as info:
                evaluate(program, edb, interning=interning, **knobs)
            assert str(info.value) == message


# ---------------------------------------------------------------------------
# Constants: no literal form, and equal values of different types
# ---------------------------------------------------------------------------

X, Y = Variable("X"), Variable("Y")


def _rule(label, head, *body):
    return Rule(head, tuple(body), label=label)


def _numbers():
    edb = Database()
    for n in (1, 2, 3, 4.5):
        edb.add_fact("e", n)
    return edb


def test_non_finite_constants_are_passed_not_embedded():
    inf, nan = Constant(math.inf), Constant(math.nan)
    e = Atom("e", (X,))
    program = Program([
        _rule("r0", Atom("below", (X, inf)), e, Comparison("<", X, inf)),
        _rule("r1", Atom("up", (X, Y)), e,
              Comparison("=", Y, ArithExpr("+", X, inf))),
        _rule("r2", Atom("never", (X,)), e,
              Comparison("<", ArithExpr("+", X, Constant(1)), nan)),
        _rule("r3", Atom("always", (X, nan)), e, Comparison("!=", X, nan)),
        _rule("r4", Atom("none", (X,)), e, Comparison("=", X, nan)),
        _rule("r5", Atom("top", (X,)), Atom("up", (Y, X)),
              Comparison("=", X, inf)),
    ])
    facts, _stats = _matches_interpreter(program, _numbers())
    assert len(facts["below"]) == len(facts["up"]) == 4
    assert facts["never"] == facts["none"] == []
    assert len(facts["always"]) == 4 and facts["top"] == ["(inf,)"]
    (rule,) = [r for r in program if r.label == "r1"]
    kernel = compile_rule(rule, lambda atom, index: 0)
    assert ("const", math.inf) in kernel.generated.form(False).resolvers
    assert "inf" not in kernel.generated.source


def test_equal_constants_of_different_types_stay_apart():
    # 3 == 3.0 == True-ish keys: arithmetic, checks and heads must each
    # use the constant as written (1 + 3 is 4, 1 + 3.0 is 4.0).
    e = Atom("e", (X,))
    rules = []
    for tag, const in (("i", Constant(3)), ("f", Constant(3.0)),
                       ("b", Constant(True))):
        rules += [
            _rule(f"h_{tag}", Atom(f"head_{tag}", (X, const)), e),
            _rule(f"a_{tag}", Atom(f"sum_{tag}",
                                   (X, ArithExpr("+", X, const))), e),
            _rule(f"c_{tag}", Atom(f"le_{tag}", (X, Y)), e,
                  Comparison("<=", X, const),
                  Comparison("=", Y, ArithExpr("*", const, Constant(2)))),
        ]
    program = Program(rules)
    edb = Database()
    for n in (10, 20, 0.5):
        edb.add_fact("e", n)
    facts, _stats = _matches_interpreter(program, edb)
    assert facts["head_i"] != facts["head_f"] != facts["head_b"]
    assert "(10, 13)" in facts["sum_i"] and "(10, 13.0)" in facts["sum_f"]
    assert "(10, 11)" in facts["sum_b"]
    assert facts["le_i"] == ["(0.5, 6)"] and facts["le_f"] == ["(0.5, 6.0)"]
    assert facts["le_b"] == ["(0.5, 2)"]


# ---------------------------------------------------------------------------
# Empty and bind-only bodies
# ---------------------------------------------------------------------------


def test_fact_and_bind_only_rules_inside_a_recursive_stratum():
    program = parse_program("""
        r0: reach(0, 1).
        r1: reach(X, Y) :- X = 1, Y = X + 1.
        r2: reach(X, Z) :- reach(X, Y), edge(Y, Z).
        r3: reach(X, X) :- reach(X, Y), 1 = 1.
    """)
    edb = Database()
    for n in range(1, 9):
        edb.add_fact("edge", n, n + 1)
    facts, stats = _matches_interpreter(program, edb)
    assert "(0, 9)" in facts["reach"] and "(1, 9)" in facts["reach"]
    assert stats["comparisons_checked"] >= 2


# ---------------------------------------------------------------------------
# Hooks
# ---------------------------------------------------------------------------


def _veto(rule, binding, round_index):
    # A function of the binding alone, so enumeration order is moot.
    return sum(sum(map(ord, str(value)))
               for value in binding.values()) % 4 != 0


def test_hooked_wide_body_matches_the_interpreter():
    width = 4097
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
    facts, stats = _matches_interpreter(program, edb,
                                        hooks=(_always, _veto))
    unhooked = evaluate(program, edb, planner="source")
    assert len(facts["t"]) < len(unhooked.facts("t"))
    assert stats["rows_matched"] == unhooked.stats.rows_matched
    (rule,) = program
    kernel = compile_rule(rule, lambda atom, index: 0,
                          keep_atom_order=True)
    kernel.execute(lambda atom, index: edb.relation(atom.pred),
                   EvalStats(), hook=_always)
    # One comprehension; the hook is its last clause, after the last
    # atom's rows are counted.
    source = kernel.generated.form(True).source
    (line,) = [line for line in source.splitlines() if " = [" in line]
    assert "if (n4 := n4 + len(b2)) >= 0 for r2 in b2 if a5(R, {" in line
    assert line.endswith(", a6)]") and "islice" not in source


# ---------------------------------------------------------------------------
# A long body
# ---------------------------------------------------------------------------

#: Twelve chained atoms, a comparison after the sixth, a negation over
#: two far-apart slots and an arithmetic bind read by the head.
CHAIN_12 = """
    r0: walk(X0, N) :- e(X0, X1), e(X1, X2), e(X2, X3), e(X3, X4),
        e(X4, X5), e(X5, X6), X6 > 8, e(X6, X7), e(X7, X8),
        not blocked(X2, X8), e(X8, X9), e(X9, X10), e(X10, X11),
        e(X11, X12), N = X12 - X0.
"""


def test_a_twelve_atom_chain_matches_the_interpreter():
    program = parse_program(CHAIN_12)
    edb = Database()
    for n in range(30):
        edb.add_fact("e", n, n + 1)
        if n % 3 == 0:
            edb.add_fact("e", n, n + 2)
    for n in range(0, 30, 4):
        edb.add_fact("blocked", n, n + 6)
    facts, stats = _matches_interpreter(program, edb,
                                        hooks=(None, _always, _veto))
    assert facts["walk"]
    assert stats["comparisons_checked"] and stats["negation_checks"]
    (rule,) = program
    kernel = compile_rule(rule, lambda atom, index: 0,
                          keep_atom_order=True)
    source = kernel.generated.source
    assert source.count(" = [") == 1 and source.count(" for r") == 11
    assert "lvl" not in source and "del " not in source


# ---------------------------------------------------------------------------
# Existential steps
# ---------------------------------------------------------------------------


def _pushed_example_3_2():
    """Example 3.2 with ``ic1`` pushed, and an EDB whose theses have
    three fields each (so every ``field(T, F)`` bucket holds three)."""
    from repro import SemanticOptimizer

    example = example_3_2()
    ic1 = [ic for ic in example.ics if ic.label == "ic1"]
    pushed = SemanticOptimizer(example.program, ic1).optimize().optimized
    edb = generate_university(
        UniversityParams(professors=40, theses=8, fields=6,
                         fields_per_thesis=3, payments=0),
        random.Random(7))
    return pushed, edb


def test_example_3_2_pushed_step_probes_field_without_walking_it():
    """``r1_deep_step`` reads ``field(T, F)`` only to know that thesis
    ``T`` has a field: the unhooked text probes it once per binding, the
    walking text (what a hook, a chaos plan or a counter limit runs)
    visits each ``F``, and both count as the interpreter does."""
    pushed, edb = _pushed_example_3_2()
    rule = next(r for r in pushed if r.label == "r1_deep_step")
    assert str(rule.body[-1]) == "field(T, F)"
    kernel = compile_rule(rule, lambda atom, index: 0,
                          keep_atom_order=True)
    (field_arg,) = [
        j for j, spec in enumerate(kernel.generated.form(False).resolvers)
        if spec[0] == "probe1"
        and kernel.sources[spec[1]][1].pred == "field"]
    source = kernel.generated.source
    assert f"len(g{field_arg}(" in source
    assert f" in g{field_arg}(" not in source \
        and f" in (g{field_arg}(" not in source
    walking = kernel.generated.form(False, fold=False).source
    assert f" in g{field_arg}(" in walking
    _matches_interpreter(pushed, edb, hooks=(None, _always, _veto))


def test_a_hook_is_still_shown_each_field():
    pushed, edb = _pushed_example_3_2()

    def solutions(executor):
        seen = []

        def hook(rule, binding, round_index):
            if rule.label == "r1_deep_step":
                seen.append(tuple(sorted((str(var), value)
                                         for var, value in binding.items())))
            return True

        evaluate(pushed, edb, planner="source", executor=executor,
                 hook=hook)
        return sorted(seen)

    compiled = solutions("compiled")
    assert compiled == solutions("interpreted")
    fields_per_head: dict[tuple, set] = {}
    for binding in compiled:
        values = dict(binding)
        fields_per_head.setdefault(
            (values["P"], values["S"], values["T"]), set()).add(values["F"])
    assert {len(fields) for fields in fields_per_head.values()} == {3}


# ---------------------------------------------------------------------------
# Member groups: an atom whose one new slot only membership tests read
# ---------------------------------------------------------------------------


def _plain_example_3_2():
    """Example 3.2 as written, on an EDB whose theses have three fields
    each and whose professors know several."""
    example = example_3_2()
    edb = generate_university(
        UniversityParams(professors=40, theses=8, fields=6,
                         fields_per_thesis=3, expert_seed_fraction=0.7,
                         payments=0),
        random.Random(7))
    return example.program, edb


def _specs(kernel, pred):
    """The resolver tags of ``kernel``'s folding text that read
    ``pred``."""
    return sorted(spec[0] for spec in kernel.generated.form(False).resolvers
                  if spec[0] not in ("const", "hook", "round")
                  and kernel.sources[spec[1]][1].pred == pred)


def test_plain_example_3_2_intersects_field_with_expert():
    """The recursive rule's delta kernel, as the adaptive planner orders
    it (``eval`` delta, ``field(T, F)``, ``works_with``, then the member
    test ``expert(P, F)``): ``F`` is read by that test alone, so the
    text takes ``field``'s set of ``F`` once per thesis and intersects
    it with ``expert``'s set for ``P`` — no loop over ``field``, no
    membership test per ``F`` — while the walking text does both."""
    program, edb = _plain_example_3_2()
    cache = KernelCache(symbols=None)
    seminaive_evaluate(program, edb, EvalStats(), planner="adaptive",
                       kernels=cache)
    rule = next(r for r in program if r.label == "r1")
    kernel = cache.get(rule, 1)
    assert [kernel.rule.body[i].pred for i in kernel.order] \
        == ["eval", "field", "works_with", "expert"]
    assert _specs(kernel, "field") == ["sets"]
    assert _specs(kernel, "expert") == ["sets"]
    source = kernel.generated.source
    assert source.count(".intersection(") == 1
    assert " in a" not in source  # no per-row membership test
    walking = kernel.generated.form(False, fold=False)
    assert {spec[0] for spec in walking.resolvers} \
        == {"rows", "probe1"}
    assert " in a" in walking.source
    # ``works_with`` runs between the pair, its count weighted by the
    # size of each thesis's set of fields; the hooked text walks them.
    assert evaluate(program, edb, planner="adaptive").stats \
        == evaluate(program, edb, planner="adaptive", hook=_always).stats


def test_plain_example_3_2_counts_as_the_interpreter_does():
    """Under the source planner the pair is ``expert(P, F)`` probed on
    ``P`` and the member test ``field(T, F)``: every counter equals the
    interpreter's, with no hook, an always-true one and a veto."""
    program, edb = _plain_example_3_2()
    rule = next(r for r in program if r.label == "r1")
    kernel = compile_rule(rule, lambda atom, index: 0,
                          keep_atom_order=True)
    assert _specs(kernel, "expert") == ["sets"]
    assert _specs(kernel, "field") == ["sets"]
    facts, stats = _matches_interpreter(program, edb,
                                        hooks=(None, _always, _veto))
    assert facts["eval"] and stats["duplicate_derivations"]


#: Rules whose new slot ``W`` some member test reads, each with the
#: resolver tags its kernel's (source-order) text reads ``f``/``f3``
#: through: ``sets`` when the atom folds into its tests, a probe when it
#: must walk.  ``W`` read by two tests, one of them unary and one keyed
#: by two columns, with an atom walked before them, still folds; ``W``
#: also read by a comparison, an atom
#: with a third, unbound column (its values per bucket are a multiset)
#: and a test under ``not`` walk.
GROUP_CASES = {
    "two tests": ("r: p(X, Z) :- p(X, Y), f(Y, W), e(Y, Z), u(W), "
                  "t(X, W, Z).", ["sets"]),
    "comparison": ("r: p(X, Z) :- p(X, Y), e(Y, Z), f(Y, W), g(Z, W), "
                   "W != n3.", ["probe1"]),
    "third column": ("r: p(X, Z) :- p(X, Y), e(Y, Z), f3(Y, W, V), "
                     "g(Z, W).", ["probe1"]),
    "negated test": ("r: p(X, Z) :- p(X, Y), e(Y, Z), f(Y, W), "
                     "not g(Z, W).", ["probe1"]),
}


def _group_edb():
    rng = random.Random(11)
    edb = Database()
    nodes = [f"n{i}" for i in range(9)]
    for pred, count in (("e", 20), ("f", 24), ("g", 30)):
        for _ in range(count):
            edb.add_fact(pred, rng.choice(nodes), rng.choice(nodes))
    for _ in range(40):
        edb.add_fact("f3", rng.choice(nodes), rng.choice(nodes),
                     rng.choice(nodes[:2]))
    for _ in range(300):
        edb.add_fact("t", *(rng.choice(nodes) for _ in range(3)))
    for node in nodes[::2]:
        edb.add_fact("u", node)
    return edb


@pytest.mark.parametrize("case", sorted(GROUP_CASES))
def test_member_groups_fold_only_where_the_slot_is_tested(case):
    text, tags = GROUP_CASES[case]
    program = parse_program("b: p(X, Y) :- e(X, Y).\n" + text)
    rule = next(r for r in program if r.label == "r")
    kernel = compile_rule(rule, lambda atom, index: 0,
                          keep_atom_order=True)
    pred = "f3" if "f3" in text else "f"
    assert _specs(kernel, pred) == tags
    edb = _group_edb()
    facts, _stats = _matches_interpreter(program, edb,
                                         hooks=(None, _always, _veto))
    assert len(facts["p"]) > len(edb.facts("e"))  # ``r`` derives rows


def test_an_empty_leading_scan_resolves_no_index():
    """Under the adaptive planner Example 3.2's ``r2`` scans the empty
    ``pays`` first and would probe ``eval`` on ``(S, T)``: its firing
    returns the text's zero-row result without building that index,
    with the counters the hooked text (which walks) counts too."""
    program, edb = _plain_example_3_2()
    assert not edb.relation_or_empty("pays", 4)
    rule = next(r for r in program if r.label == "r2")
    for interning in ("on", "off"):
        runs = [evaluate(program, edb, planner="adaptive",
                         interning=interning, hook=hook)
                for hook in (None, _always)]
        assert runs[0].stats == runs[1].stats
        for run in runs:
            assert run.idb.relation("eval").indexes == {}
            assert not run.facts("eval_support")
    cache = KernelCache(symbols=None)
    seminaive_evaluate(program, edb, EvalStats(), planner="adaptive",
                       kernels=cache)
    kernel = cache.get(rule, None)
    first = kernel.generated.form(False).resolvers[0]
    assert first[0] == "rows"
    assert kernel.sources[first[1]][1].pred == "pays"
    assert [spec[0] for spec in kernel.generated.form(False).resolvers] \
        == ["rows", "probeN"]


def test_an_empty_leading_scan_counts_as_the_interpreter_does():
    """``r2`` written with ``pays`` first scans it first under the
    source planner too: every counter and row equals the interpreter's,
    with no hook, an always-true one and a veto, whether ``pays`` is
    empty or not."""
    program = parse_program("""
        r0: eval(P, S, T) :- super(P, S, T).
        r1: eval(P, S, T) :- works_with(P, P0), eval(P0, S, T),
                             expert(P, F), field(T, F).
        r2: eval_support(P, S, T, M) :- pays(M, G, S, T), eval(P, S, T).
    """)
    _program, edb = _plain_example_3_2()
    facts, stats = _matches_interpreter(program, edb,
                                        hooks=(None, _always, _veto))
    assert facts["eval"] and not facts["eval_support"]
    edb.add_fact("pays", 5000, "g0", *sorted(edb.facts("super"))[0][1:])
    facts, _stats = _matches_interpreter(program, edb,
                                         hooks=(None, _always, _veto))
    assert facts["eval_support"]


def _tc_kernel_texts():
    """Every kernel text the transitive closure generates where the
    benchmark runs it: a whole closure (DAG and cyclic), bound queries
    of both patterns, and a served view's maintenance passes."""
    from repro.engine import codegen
    from repro.engine.optimizer import cbo_answers
    from repro.facts.changelog import Changeset
    from repro.serving import StalenessBound, ThreadedServer

    tc = parse_program("r0: reach(X, Y) :- edge(X, Y).\n"
                       "r1: reach(X, Y) :- reach(X, Z), edge(Z, Y).\n")
    saved = dict(codegen._CACHE)
    codegen._CACHE.clear()
    try:
        for acyclic in (True, False):
            graph = random_digraph(60, 180, random.Random(3),
                                   acyclic=acyclic)
            evaluate(tc, graph, planner="adaptive", interning="on")
        edb = random_digraph(60, 180, random.Random(3)).interned()
        for query in ("reach(n0, Y)", "reach(Y, n59)"):
            cbo_answers(tc, edb, parse_atom(query), interning="on")
        server = ThreadedServer(db=random_digraph(
            60, 180, random.Random(3)).interned(),
            staleness=StalenessBound(max_lag=0))
        server.read(tc, "reach(n0, Y)", planner="adaptive",
                    executor="compiled")
        edges = sorted(server.source.db.facts("edge"))
        # Two deletions the planner orders differently: the first's
        # rederivation probes ``edge`` on ``Y`` and tests ``reach(X, Z)``.
        for gone in (edges[0], edges[len(edges) // 2]):
            changes = Changeset()
            changes.insert("edge", ("n0", "n59"))
            changes.delete("edge", gone)
            server.update(changes)
            server.read(tc, "reach(n0, Y)", planner="adaptive",
                        executor="compiled")
        return sorted(text for text, *_rest in codegen._CACHE.values())
    finally:
        codegen._CACHE.clear()
        codegen._CACHE.update(saved)


def test_transitive_closure_texts_are_unchanged():
    """No TC kernel has a member group — the DRed rederivation's
    ``edge(Z, Y)`` / ``reach(X, Z)`` pair reads the relation it derives
    — so every text the closure, bound-query and served-view runs
    generate is the recorded one.  The fb query's are those of the
    backward search ``reach__fb(X, Y) :- m_reach__fb(Y),
    reach__fb(Z, Y), edge(X, Z)``; re-record the file only on
    purpose."""
    recorded = (DATA / "tc_kernel_texts.txt").read_text()
    assert _tc_kernel_texts() == recorded.split("\n=====\n")[:-1]


WORKLOADS = {
    "university": lambda: (
        example_3_2(), "eval",
        generate_university(UniversityParams(professors=20),
                            random.Random(3))),
    "genealogy": lambda: (
        example_4_3(), "anc",
        generate_genealogy(GenealogyParams(generations=7, width=8),
                           random.Random(5))),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_residue_guided_engine_matches_the_interpreter(name):
    example, pred, edb = WORKLOADS[name]()
    engine = ResidueGuidedEngine(example.program, example.ics, pred=pred)

    def run(executor, db, wrap=lambda hook: hook):
        stats = EvalStats()
        idb = seminaive_evaluate(example.program, db, stats,
                                 hook=wrap(engine.hook(stats)),
                                 planner="source", executor=executor)
        return ({p: idb.relation(p).rows() for p in idb}, stats.as_dict())

    reference = run("interpreted", edb)
    assert run("compiled", edb) == reference
    assert run("compiled", edb.interned()) == reference
    guided = engine.evaluate(edb)
    assert guided.stats.residue_checks \
        == reference[1]["residue_checks"]
    assert guided.facts(pred) == evaluate(example.program, edb).facts(pred)
    if name == "genealogy":
        assert reference[1]["residue_checks"] > 0

    def also_veto(hook):
        return lambda rule, binding, round_index: \
            hook(rule, binding, round_index) \
            and _veto(rule, binding, round_index)

    vetoed = run("interpreted", edb, also_veto)
    assert vetoed[0] != reference[0]
    assert run("compiled", edb, also_veto) == vetoed
    assert run("compiled", edb.interned(), also_veto) == vetoed


# ---------------------------------------------------------------------------
# Every rule has a generated function
# ---------------------------------------------------------------------------


def test_every_workload_and_fuzz_rule_has_a_generated_function():
    programs = [example().program for example in ALL_EXAMPLES]
    programs += [parse_program(random_linear_program(random.Random(s))[0])
                 for s in range(12)]
    programs.append(parse_program(BOUNDED_DISTANCE))
    for program in programs:
        for rule in program:
            for symbols in (None, Database().interned().symbols):
                kernel = compile_rule(rule, lambda atom, index: 0,
                                      symbols=symbols)
                assert kernel.generated.source.startswith("def _kernel(")
