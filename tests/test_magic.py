"""The magic-sets rewrite and its sideways information passing.

``engine/magic.py`` orders each body by the max-bound SIPS: the next atom
is the one with the most bound argument positions (source order on a
tie), and each comparison goes right after the step that binds its last
variable.  These tests pin the rewritten texts of the classic shapes,
check that every rewritten rule is safe and every comparison is placed
as early as that rule allows, that a re-seeded rewrite equals a fresh
one, and that the answers equal the interpreter's.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.datalog import parse_program
from repro.datalog.analysis import is_safe
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.parser import parse_atom
from repro.datalog.terms import Constant, Variable
from repro.engine import evaluate, magic_answers
from repro.engine.builtins import can_bind, can_check
from repro.engine.engine import select_answers
from repro.engine.magic import magic_rewrite, reseed
from repro.workloads.generators import random_digraph, random_linear_program

PROGRAMS = {
    "left": """
        r0: reach(X, Y) :- edge(X, Y).
        r1: reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """,
    "right": """
        r0: reach(X, Y) :- edge(X, Y).
        r1: reach(X, Y) :- edge(X, Z), reach(Z, Y).
    """,
    "sg": """
        r0: sg(X, Y) :- flat(X, Y).
        r1: sg(X, Y) :- up(X, X1), sg(X1, Y1), down(Y1, Y).
    """,
}

#: The rewrite of each shape's query ``p(a, Y)`` / ``p(Y, a)`` /
#: ``p(a, b)``.  A bf query keeps the source order; an fb query of the
#: right-linear closure passes ``Y`` into ``reach`` first, one backward
#: search whose magic set is the seed alone.
TEXTS = {
    ("left", "bf"): """
r0: reach__bf(X, Y) :- m_reach__bf(X), edge(X, Y).
r1: reach__bf(X, Y) :- m_reach__bf(X), reach__bf(X, Z), edge(Z, Y).
magic_seed: m_reach__bf(a).
""",
    ("left", "fb"): """
r0: reach__fb(X, Y) :- m_reach__fb(Y), edge(X, Y).
r1: m_reach__fb(Z) :- m_reach__fb(Y), edge(Z, Y).
r2: reach__fb(X, Y) :- m_reach__fb(Y), edge(Z, Y), reach__fb(X, Z).
magic_seed: m_reach__fb(a).
""",
    ("left", "bb"): """
r0: reach__bb(X, Y) :- m_reach__bb(X, Y), edge(X, Y).
r1: m_reach__bf(X) :- m_reach__bb(X, Y).
r2: reach__bb(X, Y) :- m_reach__bb(X, Y), reach__bf(X, Z), edge(Z, Y).
r3: reach__bf(X, Y) :- m_reach__bf(X), edge(X, Y).
r4: reach__bf(X, Y) :- m_reach__bf(X), reach__bf(X, Z), edge(Z, Y).
magic_seed: m_reach__bb(a, b).
""",
    ("right", "bf"): """
r0: reach__bf(X, Y) :- m_reach__bf(X), edge(X, Y).
r1: m_reach__bf(Z) :- m_reach__bf(X), edge(X, Z).
r2: reach__bf(X, Y) :- m_reach__bf(X), edge(X, Z), reach__bf(Z, Y).
magic_seed: m_reach__bf(a).
""",
    ("right", "fb"): """
r0: reach__fb(X, Y) :- m_reach__fb(Y), edge(X, Y).
r1: reach__fb(X, Y) :- m_reach__fb(Y), reach__fb(Z, Y), edge(X, Z).
magic_seed: m_reach__fb(a).
""",
    ("right", "bb"): """
r0: reach__bb(X, Y) :- m_reach__bb(X, Y), edge(X, Y).
r1: m_reach__bb(Z, Y) :- m_reach__bb(X, Y), edge(X, Z).
r2: reach__bb(X, Y) :- m_reach__bb(X, Y), edge(X, Z), reach__bb(Z, Y).
magic_seed: m_reach__bb(a, b).
""",
    ("sg", "bf"): """
r0: sg__bf(X, Y) :- m_sg__bf(X), flat(X, Y).
r1: m_sg__bf(X1) :- m_sg__bf(X), up(X, X1).
r2: sg__bf(X, Y) :- m_sg__bf(X), up(X, X1), sg__bf(X1, Y1), down(Y1, Y).
magic_seed: m_sg__bf(a).
""",
    ("sg", "fb"): """
r0: sg__fb(X, Y) :- m_sg__fb(Y), flat(X, Y).
r1: m_sg__fb(Y1) :- m_sg__fb(Y), down(Y1, Y).
r2: sg__fb(X, Y) :- m_sg__fb(Y), down(Y1, Y), sg__fb(X1, Y1), up(X, X1).
magic_seed: m_sg__fb(a).
""",
    ("sg", "bb"): """
r0: sg__bb(X, Y) :- m_sg__bb(X, Y), flat(X, Y).
r1: m_sg__bf(X1) :- m_sg__bb(X, Y), up(X, X1).
r2: sg__bb(X, Y) :- m_sg__bb(X, Y), up(X, X1), sg__bf(X1, Y1), down(Y1, Y).
r3: sg__bf(X, Y) :- m_sg__bf(X), flat(X, Y).
r4: m_sg__bf(X1) :- m_sg__bf(X), up(X, X1).
r5: sg__bf(X, Y) :- m_sg__bf(X), up(X, X1), sg__bf(X1, Y1), down(Y1, Y).
magic_seed: m_sg__bb(a, b).
""",
}

#: Comparisons written anywhere in a body, binding ``=`` among them.
COMPARING = """
    r0: dist(X, Y, 1) :- edge(X, Y).
    r1: dist(X, Z, N) :- N <= 3, dist(X, Y, M), edge(Y, Z), N = M + 1.
    r2: far(X, Y) :- X != Y, dist(X, Y, M), M > 1.
    r3: near(X, W) :- W = V, V = Y, dist(X, Y, 2), X < W.
"""


def _query(pred, adornment, constants=("a", "b", "c")):
    values = iter(constants)
    return Atom(pred, tuple(
        Constant(next(values)) if mark == "b" else Variable(f"V{column}")
        for column, mark in enumerate(adornment)))


def _adornments(arity):
    """Every binding pattern that binds something."""
    return ["".join(marks) for marks in itertools.product("bf", repeat=arity)
            if "b" in marks]


@pytest.mark.parametrize("shape, adornment", sorted(TEXTS))
def test_the_rewritten_text_is_pinned(shape, adornment):
    program = parse_program(PROGRAMS[shape])
    query = _query(program[0].head.pred, adornment)
    rewritten = magic_rewrite(program, query)
    assert str(rewritten.program) == TEXTS[shape, adornment].strip()
    assert rewritten.query_pred == f"{query.pred}__{adornment}"


def _ready(comparison, bound):
    return can_check(comparison, bound) or can_bind(comparison, bound)


def _rewrites():
    """(program text, query) of every shape and pattern checked below."""
    for text in (*PROGRAMS.values(), COMPARING):
        program = parse_program(text)
        for pred, arity in sorted(program.predicate_arities().items()):
            if pred in program.idb_predicates:
                for adornment in _adornments(arity):
                    yield program, _query(pred, adornment, ("a", 2, "c"))


def test_every_rule_is_safe_and_each_comparison_follows_its_binder():
    """Each rewritten rule is safe, and each comparison sits right after
    the step (an atom, or a binding ``=``) that binds its last variable:
    it can run where it stands and could not before the last atom."""
    checked = 0
    for program, query in _rewrites():
        for rule in magic_rewrite(program, query).program:
            assert is_safe(rule), rule
            if rule.is_fact:
                continue
            bound = set(rule.body[0].variable_set())  # the magic head
            before_atom = None
            for literal in rule.body[1:]:
                if isinstance(literal, Comparison):
                    assert _ready(literal, bound), rule
                    assert before_atom is None \
                        or not _ready(literal, before_atom), rule
                    checked += 1
                else:
                    before_atom = set(bound)
                bound |= literal.variable_set()
    assert checked > 20


def test_a_comparison_and_a_binding_equality_move_behind_their_binders():
    program = parse_program(COMPARING)
    rewritten = magic_rewrite(program, parse_atom("near(a, W)"))
    (near,) = [rule for rule in rewritten.program
               if rule.head.pred == "near__bf"]
    assert str(near) == ("near__bf(X, W) :- m_near__bf(X), "
                         "dist__bfb(X, Y, 2), V = Y, W = V, X < W.")


@pytest.mark.parametrize("shape", sorted(PROGRAMS) + ["comparing"])
def test_a_reseeded_rewrite_equals_a_fresh_one(shape):
    program = parse_program(COMPARING if shape == "comparing"
                            else PROGRAMS[shape])
    for pred, arity in sorted(program.predicate_arities().items()):
        if pred not in program.idb_predicates:
            continue
        for adornment in _adornments(arity):
            first = magic_rewrite(program, _query(pred, adornment))
            other = _query(pred, adornment, ("z", 7, "y"))
            again = reseed(first, other)
            fresh = magic_rewrite(program, other)
            assert again == fresh
            assert str(again.program) == str(fresh.program)


def _negation_free_draws(count):
    seed = 0
    while count:
        seed += 1
        text, db = random_linear_program(random.Random(seed))
        if " not " not in text:
            count -= 1
            yield seed, text, db


@pytest.mark.parametrize("seed, text, db", list(_negation_free_draws(12)))
def test_answers_equal_the_interpreters_under_every_adornment(
        seed, text, db):
    program = parse_program(text)
    rng = random.Random(seed)
    reference = evaluate(program, db, executor="interpreted").idb
    nodes = sorted({value for pred in db for row in db.facts(pred)
                    for value in row})
    for pred, arity in sorted(program.predicate_arities().items()):
        if pred not in program.idb_predicates:
            continue
        for adornment in _adornments(arity):
            for _ in range(3):
                query = _query(pred, adornment, [rng.choice(nodes)
                                                 for _ in range(arity)])
                assert magic_answers(program, db, query) \
                    == select_answers(reference, query), (text, query)


def test_a_right_linear_fb_query_is_one_backward_search():
    """``reach(Y, n79)`` over the right-linear closure derives the
    nodes that reach ``n79`` and nothing else: the magic relation holds
    the seed only and every adorned row ends at ``n79``."""
    program = parse_program(PROGRAMS["right"])
    db = random_digraph(80, 240, random.Random(5))
    query = parse_atom("reach(Y, n79)")
    rewritten = magic_rewrite(program, query)
    idb = evaluate(rewritten.program, db).idb
    assert idb.facts("m_reach__fb") == frozenset({("n79",)})
    rows = idb.facts("reach__fb")
    assert len(rows) > 10 and {row[1] for row in rows} == {"n79"}
    assert rows == select_answers(evaluate(program, db).idb, query)
