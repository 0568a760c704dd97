"""Tests for the depth-class (periodic) compilation."""

import pytest

from repro.core import (Edit, check_equivalent, generate_residues,
                        validate_edit)
from repro.core.equivalence import make_consistent, random_database
from repro.core.periodic import (periodic_applicable, periodic_shape,
                                 push_periodic_group)
from repro.datalog import parse_program
from repro.engine import evaluate


def _find(items, sequence):
    for item in items:
        if item.sequence == sequence:
            return item
    raise AssertionError(f"no residue for {sequence}")


def _push_group(program, pred, items, actions, ics):
    """Prove each residue's edit, then compile them as one depth-class
    group."""
    edits = [validate_edit(item, action, ics)
             for item, action in zip(items, actions)]
    assert all(isinstance(edit, Edit) for edit in edits), edits
    return push_periodic_group(program, pred, edits)


def _push_one(program, pred, item, action, ics):
    """One residue through the depth-class compilation."""
    return _push_group(program, pred, [item], [action], ics)


class TestApplicability:
    def test_uniform_recursive_sequence(self, ex32):
        assert periodic_shape(ex32.program, "eval", ("r1", "r1")) == "r1"

    def test_exit_terminated_not_periodic(self, ex43):
        assert periodic_shape(ex43.program, "anc", ("r1", "r0")) is None

    def test_mixed_rules_not_periodic(self, ex43):
        assert periodic_shape(ex43.program, "anc", ("r1", "r0")) is None

    def test_length_one_not_periodic(self, ex43):
        assert periodic_shape(ex43.program, "anc", ("r1",)) is None

    def test_elimination_residue_applicable(self, ex32):
        items = generate_residues(ex32.program, "eval", ex32.ic("ic1"))
        item = _find(items, ("r1", "r1"))
        assert periodic_applicable(ex32.program, "eval", item)

    def test_pruning_residue_applicable(self, ex43):
        items = generate_residues(ex43.program, "anc", ex43.ic("ic1"))
        item = _find(items, ("r1", "r1", "r1"))
        assert periodic_applicable(ex43.program, "anc", item)

    def test_deep_condition_not_applicable(self, ex41):
        """Example 4.1's condition sits at level 3, outside the level-0
        instance: the depth-class form cannot thread it."""
        items = generate_residues(ex41.program, "triple", ex41.ic("ic1"))
        item = _find(items, ("r2", "r2", "r2", "r2"))
        assert not periodic_applicable(ex41.program, "triple", item)


class TestPeriodicElimination:
    def test_structure(self, ex32):
        items = generate_residues(ex32.program, "eval", ex32.ic("ic1"))
        item = _find(items, ("r1", "r1"))
        outcome = _push_one(ex32.program, "eval", item, "eliminate",
                            [ex32.ic("ic1")])
        assert outcome.applied, outcome.reason
        program = outcome.program
        assert {"eval__d0", "eval__deep"} <= program.idb_predicates
        deep_edited = program.rule("r1_deep_step")
        assert "expert" not in deep_edited.body_predicates()
        # The warm-up step into deep keeps the expert join.
        warmup = program.rule("r1_d0_step")
        assert "expert" in warmup.body_predicates()

    def test_equivalence(self, ex32, rng):
        items = generate_residues(ex32.program, "eval", ex32.ic("ic1"))
        item = _find(items, ("r1", "r1"))
        outcome = _push_one(ex32.program, "eval", item, "eliminate",
                            [ex32.ic("ic1")])
        dbs = []
        for _ in range(6):
            db = random_database(
                {"super": 3, "works_with": 2, "expert": 2, "field": 2},
                6, 12, rng)
            make_consistent(db, [ex32.ic("ic1")])
            dbs.append(db)
        assert check_equivalent(ex32.program, outcome.program, "eval",
                                dbs) is None

    def test_second_recursive_rule_blocks(self):
        program = parse_program("""
            r0: path(X, Y) :- edge(X, Y).
            r1: path(X, Y) :- path(X, Z), edge(Z, Y), active(Z).
            r2: path(X, Y) :- path(X, Z), jump(Z, Y).
        """)
        from repro.constraints import ic_from_text
        ic = ic_from_text("edge(A, B), edge(B, C) -> active(B).")
        items = generate_residues(program, "path", ic)
        item = _find(items, ("r1", "r1"))
        outcome = _push_one(program, "path", item, "eliminate", [ic])
        assert not outcome.applied
        assert outcome.reason == \
            "periodic compilation needs a single recursive rule"


class TestPeriodicPruning:
    def test_structure_and_equivalence(self, ex43, rng):
        items = generate_residues(ex43.program, "anc", ex43.ic("ic1"))
        item = _find(items, ("r1", "r1", "r1"))
        outcome = _push_one(ex43.program, "anc", item, "prune",
                            [ex43.ic("ic1")])
        assert outcome.applied, outcome.reason
        program = outcome.program
        assert {"anc__d0", "anc__d1", "anc__deep"} <= \
            program.idb_predicates
        guarded = program.rule("r1_deep_step_c0_n")
        assert any(str(lit) == "Ya > 50" for lit in guarded.body)
        dbs = []
        for _ in range(6):
            db = random_database({"par": 4}, 6, 14, rng,
                                 numeric_columns={"par": [1, 3]})
            make_consistent(db, [ex43.ic("ic1")])
            dbs.append(db)
        assert check_equivalent(ex43.program, outcome.program, "anc",
                                dbs) is None


class TestPeriodicGroups:
    """Several ICs over one recursive rule compose into one compilation."""

    PROGRAM = """
        r0: reach(X, Y, Wy) :- edge(X, Y, Wy).
        r1: reach(X, Y, Wy) :- reach(X, Z, Wz), edge(Z, Y, Wy), active(Z).
    """
    ICS = """
        ice: edge(A, B, W1), edge(B, C, W2) -> active(B).
        icp: Wy <= 10, edge(Z, Y, Wy), edge(Z2, Z, Wz),
             edge(Z3, Z2, W3) -> .
    """

    def _setup(self):
        from repro.constraints import ics_from_text
        program = parse_program(self.PROGRAM)
        ics = ics_from_text(self.ICS)
        items = []
        for ic in ics:
            items.extend(generate_residues(program, "reach", ic))
        elim = [i for i in items if i.residue.head is not None
                and i.sequence == ("r1", "r1")][0]
        prune = [i for i in items if i.residue.is_null
                 and i.sequence == ("r1", "r1", "r1")][0]
        return program, ics, elim, prune

    def test_group_compiles_both_edits(self):
        program, ics, elim, prune = self._setup()
        outcome = _push_group(
            program, "reach", [elim, prune], ["eliminate", "prune"],
            list(ics))
        assert outcome.applied, outcome.reason
        rules = {r.label: r for r in outcome.program}
        # Depth-1 extensions drop active; depth >= 2 also guard Wy > 10.
        assert "active" not in \
            rules["r1_d1_step"].body_predicates()
        deep = rules["r1_deep_step_c0_n"]
        assert "active" not in deep.body_predicates()
        assert any(str(lit) == "Wy > 10" for lit in deep.body)
        # Depth-0 extensions are untouched.
        assert "active" in rules["r1_d0_step"].body_predicates()

    def test_group_equivalence(self, rng):
        program, ics, elim, prune = self._setup()
        outcome = _push_group(
            program, "reach", [elim, prune], ["eliminate", "prune"],
            list(ics))
        dbs = []
        for _ in range(6):
            db = random_database({"edge": 3, "active": 1}, 6, 14, rng,
                                 numeric_columns={"edge": [2]},
                                 max_value=40)
            make_consistent(db, list(ics))
            dbs.append(db)
        assert check_equivalent(program, outcome.program, "reach",
                                dbs) is None

    def test_optimizer_reports_each_residue_of_the_group(self):
        from repro.core import SemanticOptimizer

        program, ics, elim, prune = self._setup()
        report = SemanticOptimizer(program, ics, pred="reach").optimize()
        steps = {(s.sequence, s.residue): s.outcome for s in report.steps}
        assert steps[elim.sequence, str(elim.residue)].applied
        assert steps[prune.sequence, str(prune.residue)].applied

    def test_optimizer_pushes_both_ics_in_one_pass(self, rng):
        from repro.core import SemanticOptimizer
        from repro.constraints import ics_from_text

        program = parse_program(self.PROGRAM)
        ics = ics_from_text(self.ICS)
        report = SemanticOptimizer(program, ics, pred="reach").optimize()
        assert report.failures == []
        applied = report.applied_steps
        assert len(applied) == 2
        assert {s.ic_label for s in applied} == {"ice", "icp"}
        dbs = []
        for _ in range(5):
            db = random_database({"edge": 3, "active": 1}, 6, 14, rng,
                                 numeric_columns={"edge": [2]},
                                 max_value=40)
            make_consistent(db, list(ics))
            dbs.append(db)
        assert check_equivalent(program, report.optimized, "reach",
                                dbs) is None
