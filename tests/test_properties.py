"""Property-based tests (hypothesis) for the core invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.baselines import ResidueGuidedEngine
from repro.core import SemanticOptimizer, isolate
from repro.datalog import parse_program, parse_rule
from repro.datalog.atoms import Atom, Comparison, atom, comparison
from repro.datalog.rules import is_connected
from repro.datalog.terms import Constant, Variable
from repro.datalog.unify import Substitution, match, unify
from repro.engine import builtins, evaluate, magic_answers, query_answers
from repro.facts import Database, Relation
from repro.workloads import example_4_3

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

nodes = st.integers(min_value=0, max_value=6).map(lambda i: f"n{i}")
edges = st.lists(st.tuples(nodes, nodes), min_size=0, max_size=18)

var_names = st.sampled_from(["X", "Y", "Z", "W"])
terms = st.one_of(
    var_names.map(Variable),
    st.integers(min_value=-5, max_value=5).map(Constant),
    st.sampled_from(["a", "b", "c"]).map(Constant))
atoms_st = st.builds(
    lambda pred, args: Atom(pred, tuple(args)),
    st.sampled_from(["p", "q", "r"]),
    st.lists(terms, min_size=0, max_size=3))
comparison_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])
int_pairs = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


def _edge_db(pairs) -> Database:
    db = Database()
    db.ensure("edge", 2)
    for a, b in pairs:
        db.add_fact("edge", a, b)
    return db


# ---------------------------------------------------------------------------
# Engine invariants
# ---------------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(edges)
def test_naive_equals_seminaive(pairs):
    program = parse_program("""
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """)
    db = _edge_db(pairs)
    assert evaluate(program, db, method="naive").facts("reach") == \
        evaluate(program, db, method="seminaive").facts("reach")


@settings(max_examples=40, deadline=None)
@given(edges)
def test_planners_agree(pairs):
    program = parse_program("""
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """)
    db = _edge_db(pairs)
    assert evaluate(program, db, planner="greedy").facts("reach") == \
        evaluate(program, db, planner="source").facts("reach")


@settings(max_examples=30, deadline=None)
@given(edges, nodes)
def test_magic_sets_match_plain(pairs, start):
    program = parse_program("""
        reach(X, Y) :- edge(X, Y).
        reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """)
    db = _edge_db(pairs)
    query = atom("reach", start, "Y")
    assert magic_answers(program, db, query) == \
        query_answers(program, db, query)


# ---------------------------------------------------------------------------
# Datalog-substrate invariants
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(comparison_ops, int_pairs)
def test_comparison_complement_is_negation(op, values):
    left, right = values
    c = comparison("X", op, "Y")
    binding = {Variable("X"): left, Variable("Y"): right}
    assert builtins.holds(c, binding) != \
        builtins.holds(c.complement(), binding)


@settings(max_examples=60, deadline=None)
@given(comparison_ops, int_pairs)
def test_comparison_converse_is_equivalent(op, values):
    left, right = values
    c = comparison("X", op, "Y")
    binding = {Variable("X"): left, Variable("Y"): right}
    assert builtins.holds(c, binding) == \
        builtins.holds(c.converse(), binding)


@settings(max_examples=60, deadline=None)
@given(atoms_st, atoms_st)
def test_unify_produces_unifier(a, b):
    unifier = unify(a, b)
    if unifier is not None:
        assert unifier.apply(a) == unifier.apply(b)


@settings(max_examples=60, deadline=None)
@given(atoms_st, atoms_st)
def test_match_maps_pattern_onto_target(a, b):
    theta = match(a, b)
    if theta is not None:
        assert theta.apply(a) == b


@settings(max_examples=60, deadline=None)
@given(st.lists(atoms_st, min_size=0, max_size=5), st.randoms())
def test_connectivity_is_order_invariant(literals, rnd):
    shuffled = list(literals)
    rnd.shuffle(shuffled)
    assert is_connected(tuple(literals)) == is_connected(tuple(shuffled))


@settings(max_examples=60, deadline=None)
@given(atoms_st)
def test_rule_text_roundtrip(head_atom):
    if not head_atom.variable_set():
        rule = parse_rule(f"{head_atom}.")
        assert rule.head == head_atom
    else:
        body = ", ".join(
            f"b{i}({v})" for i, v in enumerate(
                sorted(head_atom.variable_set(), key=lambda v: v.name)))
        rule = parse_rule(f"{head_atom} :- {body}.")
        assert rule.head == head_atom


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=0, max_size=25),
       st.integers(0, 4))
def test_relation_lookup_equals_scan(rows, key):
    relation = Relation("r", 2, rows)
    expected = {row for row in relation if row[0] == key}
    assert set(relation.lookup(((0, key),))) == expected


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(var_names.map(Variable), terms, max_size=3),
       st.dictionaries(var_names.map(Variable), terms, max_size=3),
       atoms_st)
def test_substitution_compose_is_sequential_application(first, second,
                                                        target):
    s1, s2 = Substitution(first), Substitution(second)
    composed = s1.compose(s2)
    assert composed.apply(target) == s2.apply(s1.apply(target))


# ---------------------------------------------------------------------------
# Theorem 4.1 and the optimizer, on random data
# ---------------------------------------------------------------------------

_par_rows = st.lists(
    st.tuples(st.integers(0, 7), st.integers(1, 95),
              st.integers(0, 7), st.integers(1, 95)),
    min_size=0, max_size=20)


def _genealogy_db(rows) -> Database:
    db = Database()
    db.ensure("par", 4)
    ages: dict[str, int] = {}
    for child, child_age, parent, parent_age in rows:
        if child == parent:
            continue
        # Make ages functional per person so the data is sensible.
        c_age = ages.setdefault(f"g{child}", child_age)
        p_age = ages.setdefault(f"g{parent}", parent_age)
        db.add_fact("par", f"g{child}", c_age, f"g{parent}", p_age)
    return db


@settings(max_examples=25, deadline=None)
@given(_par_rows, st.sampled_from([("r1", "r1"), ("r1", "r1", "r1"),
                                   ("r1", "r0"), ("r1", "r1", "r0")]))
def test_theorem_4_1_isolation_equivalence(rows, sequence):
    example = example_4_3()
    isolation = isolate(example.program, "anc", sequence)
    db = _genealogy_db(rows)
    assert evaluate(example.program, db).facts("anc") == \
        evaluate(isolation.program, db).facts("anc")


@settings(max_examples=20, deadline=None)
@given(_par_rows)
def test_optimizer_preserves_answers_on_consistent_data(rows):
    from repro.core.equivalence import make_consistent

    example = example_4_3()
    ic = example.ic("ic1")
    db = _genealogy_db(rows)
    make_consistent(db, [ic])
    report = SemanticOptimizer(example.program, [ic]).optimize()
    assert report.failures == []
    optimized = report.optimized
    assert evaluate(example.program, db).facts("anc") == \
        evaluate(optimized, db).facts("anc")


@settings(max_examples=20, deadline=None)
@given(_par_rows)
def test_guided_engine_preserves_answers_on_consistent_data(rows):
    from repro.core.equivalence import make_consistent

    example = example_4_3()
    ic = example.ic("ic1")
    db = _genealogy_db(rows)
    make_consistent(db, [ic])
    engine = ResidueGuidedEngine(example.program, [ic], pred="anc")
    assert evaluate(example.program, db).facts("anc") == \
        engine.evaluate(db).facts("anc")


# ---------------------------------------------------------------------------
# Minimization and the chase guard, on random data
# ---------------------------------------------------------------------------

_vip_rows = st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                     min_size=0, max_size=14)


@settings(max_examples=20, deadline=None)
@given(_vip_rows, st.lists(st.integers(0, 5), max_size=6))
def test_minimize_preserves_answers_under_ics(boss_rows, vips):
    from repro.constraints import ic_from_text
    from repro.core import minimize_program
    from repro.core.equivalence import make_consistent

    program = parse_program(
        "q(E, B) :- boss(E, B), experienced(B), vip(B).")
    ic = ic_from_text("vip(B) -> experienced(B).")
    report = minimize_program(program, [ic])
    assert report.changed  # experienced is implied by vip

    db = Database()
    db.ensure("boss", 2)
    db.ensure("experienced", 1)
    db.ensure("vip", 1)
    for a, b in boss_rows:
        db.add_fact("boss", f"e{a}", f"e{b}")
    for v in vips:
        db.add_fact("vip", f"e{v}")
    make_consistent(db, [ic])
    assert evaluate(program, db).facts("q") == \
        evaluate(report.minimized, db).facts("q")


@settings(max_examples=15, deadline=None)
@given(_par_rows)
def test_chase_guard_elimination_is_actually_sound(rows):
    """Whatever the guard admits must preserve answers on consistent
    databases — checked for the Example 3.2 elimination."""
    from repro.core.equivalence import make_consistent
    from repro.workloads import example_3_2

    example = example_3_2()
    ic = example.ic("ic1")
    report = SemanticOptimizer(example.program, [ic], pred="eval").optimize()
    assert report.failures == []
    optimized = report.optimized

    # Reinterpret the generated tuples as university facts.
    db = Database()
    for pred in ("super", "works_with", "expert", "field"):
        db.ensure(pred, 3 if pred == "super" else 2)
    for child, child_age, parent, parent_age in rows:
        db.add_fact("works_with", f"p{child}", f"p{parent}")
        db.add_fact("expert", f"p{child}", f"f{child_age % 4}")
        db.add_fact("field", f"t{parent}", f"f{parent_age % 4}")
        db.add_fact("super", f"p{child}", f"s{child_age % 3}",
                    f"t{parent}")
    make_consistent(db, [ic])
    assert evaluate(example.program, db).facts("eval") == \
        evaluate(optimized, db).facts("eval")
