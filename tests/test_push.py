"""Tests for the push transformations (Section 4) on the automaton form."""

import pytest

from repro.core import (PushOutcome, apply_elimination, apply_introduction,
                        apply_pruning, check_equivalent, generate_residues,
                        isolate, remove_dead_rules, rule_level_residues,
                        validate_edit)
from repro.core.equivalence import (make_consistent, random_database)
from repro.constraints import ic_from_text
from repro.datalog import parse_program


def _find(items, sequence=None, strict=None):
    for item in items:
        if sequence is not None and item.sequence != sequence:
            continue
        if strict is not None and item.strictly_useful != strict:
            continue
        return item
    raise AssertionError(f"no residue for {sequence}")


_INSTALL = {"eliminate": apply_elimination,
            "introduce": apply_introduction, "prune": apply_pruning}


def _push(isolation, item, action, ics):
    """Prove ``item``'s edit, then install it in ``isolation``."""
    verdict = validate_edit(item, action, ics)
    if isinstance(verdict, PushOutcome):
        return verdict
    return _INSTALL[action](isolation, verdict)


class TestElimination:
    def test_example_3_2_unconditional(self, ex32, rng):
        items = generate_residues(ex32.program, "eval", ex32.ic("ic1"))
        item = _find(items, sequence=("r1", "r1"))
        isolation = isolate(ex32.program, "eval", item.sequence)
        outcome = _push(isolation, item, "eliminate", [ex32.ic("ic1")])
        assert outcome.applied, outcome.reason
        # The edited alpha-rule lost its expert atom.
        edited = [r for r in outcome.program
                  if r.label == "eval__alpha1_e"]
        assert edited and "expert" not in edited[0].body_predicates()
        dbs = []
        for _ in range(5):
            db = random_database(
                {"super": 3, "works_with": 2, "expert": 2, "field": 2},
                6, 10, rng)
            make_consistent(db, [ex32.ic("ic1")])
            dbs.append(db)
        assert check_equivalent(ex32.program, outcome.program, "eval",
                                dbs) is None

    def test_example_4_1_threaded_conditional(self, ex41, rng):
        items = generate_residues(ex41.program, "triple", ex41.ic("ic1"))
        item = _find(items, sequence=("r2", "r2", "r2", "r2"))
        isolation = isolate(ex41.program, "triple", item.sequence)
        outcome = _push(isolation, item, "eliminate", [ex41.ic("ic1")])
        assert outcome.applied, outcome.reason
        # The threading duplicated chain predicates with the _e suffix.
        preds = outcome.program.idb_predicates
        assert {"triple__p1_e", "triple__p2_e", "triple__p3_e"} <= preds
        dbs = []
        for _ in range(5):
            db = random_database(
                {"same_level": 3, "boss": 3, "experienced": 1}, 5, 12,
                rng)
            rows = [(a, b, rng.choice(["executive", "staff"]))
                    for a, b, _ in db.facts("boss")]
            rel = db.relation("boss")
            rel.clear()
            rel.add_all(rows)
            make_consistent(db, [ex41.ic("ic1")])
            dbs.append(db)
        assert check_equivalent(ex41.program, outcome.program, "triple",
                                dbs) is None

    def test_guard_rejects_loose_rule_level_residue(self, ex41):
        items = generate_residues(ex41.program, "triple", ex41.ic("ic1"))
        loose = _find(items, sequence=("r2",))
        isolation = isolate(ex41.program, "triple", ("r2",))
        outcome = _push(isolation, loose, "eliminate", [ex41.ic("ic1")])
        assert not outcome.applied
        assert "chase guard" in outcome.reason

    def test_null_residue_rejected(self, ex43):
        items = generate_residues(ex43.program, "anc", ex43.ic("ic1"))
        item = _find(items, sequence=("r1", "r1", "r1"))
        isolation = isolate(ex43.program, "anc", item.sequence)
        outcome = _push(isolation, item, "eliminate", [ex43.ic("ic1")])
        assert not outcome.applied


class TestIntroduction:
    def test_example_4_2(self, ex32, rng):
        items = rule_level_residues(ex32.program, ex32.ic("ic2"),
                                    useful_only=False)
        item = _find(items, sequence=("r2",))
        isolation = isolate(ex32.program, "eval_support", ("r2",))
        outcome = _push(isolation, item, "introduce", [ex32.ic("ic2")])
        assert outcome.applied, outcome.reason
        labels = {r.label for r in outcome.program}
        assert "r2_i" in labels and "r2_n" in labels
        introduced = outcome.program.rule("r2_i")
        assert "doctoral" in introduced.body_predicates()
        # The reducer is prepended (the paper's post-push reordering).
        assert introduced.body[0].pred == "doctoral"
        dbs = []
        for _ in range(5):
            db = random_database(
                {"super": 3, "works_with": 2, "expert": 2, "field": 2,
                 "pays": 4, "doctoral": 1}, 5, 10, rng,
                numeric_columns={"pays": [0]}, max_value=20000)
            make_consistent(db, [ex32.ic("ic2")])
            dbs.append(db)
        assert check_equivalent(ex32.program, outcome.program,
                                "eval_support", dbs) is None

    def test_null_residue_rejected(self, ex43):
        items = generate_residues(ex43.program, "anc", ex43.ic("ic1"))
        item = _find(items, sequence=("r1", "r1", "r1"))
        isolation = isolate(ex43.program, "anc", item.sequence)
        outcome = _push(isolation, item, "introduce", [ex43.ic("ic1")])
        assert not outcome.applied


class TestPruning:
    def test_example_4_3_conditional(self, ex43, rng):
        items = generate_residues(ex43.program, "anc", ex43.ic("ic1"))
        item = _find(items, sequence=("r1", "r1", "r1"))
        isolation = isolate(ex43.program, "anc", item.sequence)
        outcome = _push(isolation, item, "prune", [ex43.ic("ic1")])
        assert outcome.applied, outcome.reason
        guard = outcome.program.rule("anc__alpha1_n")
        assert any(str(lit) == "Ya > 50" for lit in guard.body)
        dbs = []
        for _ in range(5):
            db = random_database({"par": 4}, 6, 14, rng,
                                 numeric_columns={"par": [1, 3]})
            make_consistent(db, [ex43.ic("ic1")])
            dbs.append(db)
        assert check_equivalent(ex43.program, outcome.program, "anc",
                                dbs) is None

    def test_unconditional_prunes_rule_away(self, rng):
        program = parse_program("""
            r0: reach(X, Y) :- edge(X, Y).
            r1: reach(X, Y) :- reach(X, Z), edge(Z, Y).
        """)
        # No paths of length three exist at all.
        ic = ic_from_text(
            "edge(A, B), edge(B, C), edge(C, D) -> .")
        items = generate_residues(program, "reach", ic)
        item = _find(items, sequence=("r1", "r1", "r0"))
        isolation = isolate(program, "reach", item.sequence)
        outcome = _push(isolation, item, "prune", [ic])
        assert outcome.applied, outcome.reason
        # The pattern-completing rule (and its dead callers) are gone.
        assert len(outcome.program) < len(isolation.program)
        dbs = []
        for _ in range(5):
            db = random_database({"edge": 2}, 8, 10, rng)
            make_consistent(db, [ic])
            dbs.append(db)
        assert check_equivalent(program, outcome.program, "reach",
                                dbs) is None

    def test_fact_residue_rejected(self, ex32):
        items = generate_residues(ex32.program, "eval", ex32.ic("ic1"))
        item = _find(items, sequence=("r1", "r1"))
        isolation = isolate(ex32.program, "eval", item.sequence)
        outcome = _push(isolation, item, "prune", [ex32.ic("ic1")])
        assert not outcome.applied


class TestValidator:
    def test_edit_proved_on_another_clause_is_refused(self, ex43):
        items = generate_residues(ex43.program, "anc", ex43.ic("ic1"))
        item = _find(items, sequence=("r1", "r1", "r1"))
        edit = validate_edit(item, "prune", [ex43.ic("ic1")])
        assert not isinstance(edit, PushOutcome)
        other = isolate(ex43.program, "anc", ("r1", "r1", "r0"))
        outcome = apply_pruning(other, edit)
        assert not outcome.applied
        assert outcome.reason == "earlier edit superseded the target rule"

    @pytest.mark.parametrize("action", sorted(_INSTALL))
    def test_back_ends_take_no_guard(self, ex43, action):
        """The validator alone proves an edit: the back ends take only
        the isolation and the proved edit."""
        items = generate_residues(ex43.program, "anc", ex43.ic("ic1"))
        item = _find(items, sequence=("r1", "r1", "r1"))
        isolation = isolate(ex43.program, "anc", item.sequence)
        edit = validate_edit(item, "prune", [ex43.ic("ic1")])
        assert not isinstance(edit, PushOutcome)
        with pytest.raises(TypeError, match="unexpected keyword"):
            _INSTALL[action](isolation, edit, guard="none")
        with pytest.raises(TypeError):
            _INSTALL[action](isolation, item, [ex43.ic("ic1")])


class TestRemoveDeadRules:
    def test_removes_callers_of_empty_idb(self):
        program = parse_program("""
            r0: p(X) :- e(X).
            r1: p(X) :- aux(X).
            r2: aux2(X) :- aux(X), e(X).
        """, edb_hint=("e",))
        cleaned = remove_dead_rules(program, edb=frozenset({"e"}))
        assert {r.label for r in cleaned} == {"r0"}

    def test_keeps_complete_programs(self, ex43):
        assert remove_dead_rules(ex43.program) == ex43.program
