"""The generated forms the per-row closure chain used to serve.

Until PR 15 arithmetic terms, empty and bind-only bodies, derivation
hooks and constants without a literal ran on a separate per-row back
end.  They are generated code now, so each is pinned here against the
reference interpreter: rows always, and the whole :class:`EvalStats`
under ``planner="source"``, where the two run the same join order.
"""

import math
import random

import pytest

from repro.baselines import ResidueGuidedEngine
from repro.datalog import parse_program
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.program import Program
from repro.datalog.rules import Rule
from repro.datalog.terms import ArithExpr, Constant, Variable
from repro.engine import EvalStats, evaluate, seminaive_evaluate
from repro.engine import codegen
from repro.engine.compile import compile_rule
from repro.errors import EvaluationError
from repro.facts import Database
from repro.workloads import (ALL_EXAMPLES, GenealogyParams,
                             UniversityParams, example_3_2, example_4_3,
                             generate_genealogy, generate_university,
                             random_digraph, random_linear_program)


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


def test_hooked_body_across_the_slice_boundary():
    width = 2 * codegen.SLICE_ROWS + 1
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
    assert "islice" in kernel.generated.form(True).source


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
