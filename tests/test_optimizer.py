"""End-to-end tests for the SemanticOptimizer facade."""

import pytest

from repro.core import SemanticOptimizer, check_equivalent
from repro.core.equivalence import make_consistent, random_database
from repro.datalog import parse_program
from repro.engine import evaluate
from repro.errors import ProgramError
from repro.workloads import GenealogyParams, generate_genealogy


def _consistent_dbs(schema, ics, rng, count=5, numeric=None):
    dbs = []
    for _ in range(count):
        db = random_database(schema, 6, 12, rng, numeric_columns=numeric,
                             max_value=20000)
        make_consistent(db, ics)
        dbs.append(db)
    return dbs


class TestEndToEnd:
    def test_example_3_2_elimination(self, ex32, rng):
        report = SemanticOptimizer(ex32.program, [ex32.ic("ic1")],
                                   pred="eval").optimize()
        assert report.failures == []
        assert report.changed
        applied = report.applied_steps
        assert len(applied) == 1
        assert applied[0].outcome.action == "eliminate"
        assert applied[0].sequence == ("r1", "r1")
        dbs = _consistent_dbs(
            {"super": 3, "works_with": 2, "expert": 2, "field": 2},
            [ex32.ic("ic1")], rng)
        assert check_equivalent(ex32.program, report.optimized, "eval",
                                dbs) is None

    def test_example_4_1_threaded(self, ex41, rng):
        report = SemanticOptimizer(ex41.program, [ex41.ic("ic1")],
                                   pred="triple").optimize()
        assert report.failures == []
        applied = report.applied_steps
        assert [s.sequence for s in applied] == \
            [("r2", "r2", "r2", "r2")]
        dbs = _consistent_dbs(
            {"same_level": 3, "boss": 3, "experienced": 1},
            [ex41.ic("ic1")], rng)
        assert check_equivalent(ex41.program, report.optimized,
                                "triple", dbs) is None

    def test_example_4_3_pruning(self, ex43, rng):
        report = SemanticOptimizer(ex43.program,
                                   [ex43.ic("ic1")]).optimize()
        assert report.failures == []
        applied = report.applied_steps
        assert applied and applied[0].outcome.action == "prune"
        # The all-recursive sequence is preferred over r1 r1 r0.
        assert applied[0].sequence == ("r1", "r1", "r1")
        dbs = _consistent_dbs({"par": 4}, [ex43.ic("ic1")], rng,
                              numeric={"par": [1, 3]})
        # Random rows over ages in [1, 20000] almost never chain, so
        # those databases only copy ``par``; genealogies recurse.
        for _ in range(3):
            db = generate_genealogy(GenealogyParams(
                generations=6, width=8, parents_per_person=2), rng)
            dbs.append(make_consistent(db, [ex43.ic("ic1")]))
        runs = [evaluate(ex43.program, db) for db in dbs]
        assert any(len(run.facts("anc")) > len(db.relation("par"))
                   and run.stats.iterations >= 4
                   for run, db in zip(runs, dbs))
        assert check_equivalent(ex43.program, report.optimized, "anc",
                                dbs) is None

    def test_both_university_ics_together(self, ex32, rng):
        report = SemanticOptimizer(
            ex32.program, ex32.ics, pred="eval",
            small_relations={"doctoral"}).optimize()
        assert report.failures == []
        actions = {s.outcome.action for s in report.applied_steps}
        assert actions == {"eliminate", "introduce"}
        dbs = _consistent_dbs(
            {"super": 3, "works_with": 2, "expert": 2, "field": 2,
             "pays": 4, "doctoral": 1}, list(ex32.ics), rng,
            numeric={"pays": [0]})
        for pred in ("eval", "eval_support"):
            assert check_equivalent(ex32.program, report.optimized, pred,
                                    dbs) is None


class TestPolicies:
    def test_introduction_needs_small_relation_declaration(self, ex32):
        report = SemanticOptimizer(ex32.program, [ex32.ic("ic2")],
                                   pred="eval").optimize()
        assert report.failures == []
        assert not report.changed
        assert any("small" in s.outcome.reason for s in report.steps)

    def test_automaton_compilation_mode(self, ex32, rng):
        report = SemanticOptimizer(ex32.program, [ex32.ic("ic1")],
                                   pred="eval",
                                   compilation="automaton").optimize()
        assert report.failures == []
        assert report.changed
        dbs = _consistent_dbs(
            {"super": 3, "works_with": 2, "expert": 2, "field": 2},
            [ex32.ic("ic1")], rng)
        assert check_equivalent(ex32.program, report.optimized, "eval",
                                dbs) is None

    def test_automaton_keeps_chain(self, ex32):
        """Algorithm 4.1's isolation chain is the output: no stage
        inlines its auxiliary predicates away."""
        report = SemanticOptimizer(ex32.program, [ex32.ic("ic1")],
                                   pred="eval",
                                   compilation="automaton").optimize()
        assert report.failures == []
        assert "eval__p1" in report.optimized.idb_predicates

    def test_unknown_compilation_rejected(self, ex32):
        with pytest.raises(ValueError):
            SemanticOptimizer(ex32.program, [ex32.ic("ic1")],
                              compilation="magic")

    @pytest.mark.parametrize("knob", [{"executor": "compiled"},
                                      {"planner": "greedy"}],
                             ids=["executor", "planner"])
    def test_engine_knobs_are_not_parameters(self, ex32, knob):
        # Sample verification evaluates with the engine's defaults.
        with pytest.raises(TypeError):
            SemanticOptimizer(ex32.program, [ex32.ic("ic1")], **knob)

    def test_deleted_keywords_raise(self, ex43):
        with pytest.raises(TypeError):
            SemanticOptimizer(ex43.program, list(ex43.ics), max_hops=4)
        optimizer = SemanticOptimizer(ex43.program, list(ex43.ics))
        with pytest.raises(TypeError):
            optimizer.optimize(stage_timeout_s=1.0)

    def test_pred_inference(self, ex43):
        optimizer = SemanticOptimizer(ex43.program, [ex43.ic("ic1")])
        assert optimizer.pred == "anc"

    def test_pred_inference_ambiguous(self):
        program = parse_program("""
            a(X, Y) :- e(X, Y).
            a(X, Y) :- a(X, Z), e(Z, Y).
            b(X, Y) :- f(X, Y).
            b(X, Y) :- b(X, Z), f(Z, Y).
        """)
        with pytest.raises(ProgramError):
            SemanticOptimizer(program, [])

    def test_no_ics_no_change(self, ex43):
        report = SemanticOptimizer(ex43.program, []).optimize()
        assert report.failures == []
        assert not report.changed
        assert report.optimized == ex43.program

    def test_report_summary_format(self, ex43):
        report = SemanticOptimizer(ex43.program,
                                   [ex43.ic("ic1")]).optimize()
        assert report.failures == []
        summary = report.summary()
        assert "pushes applied" in summary
        assert "[prune]" in summary


def _removed_knob_calls():
    """Each removed setting of Algorithms 3.1/4.1, passed by keyword.

    The hop and round bounds are module constants now:
    ``sdgraph.MAX_HOPS`` and ``containment.CHASE_ROUNDS``; the sequence
    and SD-graph filters and the group compiler's guard have no
    replacement (every caller used the default).  The chase guard is
    the only validation and the isolation chain the only output form,
    so the optimizer, the validator and ``optimize_all_predicates``
    take no ``guard=`` and the optimizer no ``collapse=``."""
    from repro.core import (SemanticOptimizer, build_sd_graph, chase,
                            contained_under, detect_sequences,
                            enumerate_sequences, freeze,
                            generate_residues, optimize_all_predicates,
                            unfold, validate_edit)
    from repro.core.periodic import push_periodic_group
    from repro.workloads import example_4_3

    ex43 = example_4_3()
    program, ic = ex43.program, ex43.ic("ic1")
    clause = unfold(program, "anc", ("r1", "r1"))
    instance, supply = freeze(clause.literals())
    node = next(iter(build_sd_graph(program, "anc").ap.subgoals))
    residue = next(item for item in generate_residues(program, "anc", ic)
                   if item.residue.is_null)
    return {
        "build_sd_graph.max_hops":
            lambda: build_sd_graph(program, "anc", max_hops=4),
        "detect_sequences.max_hops":
            lambda: detect_sequences(program, "anc", ic, max_hops=4),
        "generate_residues.max_hops":
            lambda: generate_residues(program, "anc", ic, max_hops=4),
        "chase.max_rounds":
            lambda: chase(instance, [ic], supply, max_rounds=1),
        "contained_under.max_rounds":
            lambda: contained_under(clause.head, clause.literals(),
                                    clause.literals(), [ic],
                                    max_rounds=1),
        "SequenceClause.literals.include_tail":
            lambda: clause.literals(include_tail=False),
        "enumerate_sequences.include_exit":
            lambda: list(enumerate_sequences(program, "anc", 2,
                                             include_exit=False)),
        "SDGraph.edges_from.include_undirected":
            lambda: list(build_sd_graph(program, "anc").edges_from(
                node, include_undirected=False)),
        "push_periodic_group.guard":
            lambda: push_periodic_group(program, "anc", [], guard="none"),
        "SemanticOptimizer.collapse":
            lambda: SemanticOptimizer(program, [ic], collapse=False),
        "SemanticOptimizer.guard":
            lambda: SemanticOptimizer(program, [ic], guard="none"),
        "optimize_all_predicates.guard":
            lambda: optimize_all_predicates(program, [ic], guard="chase"),
        "validate_edit.guard":
            lambda: validate_edit(residue, "prune", [ic], guard="none"),
    }


@pytest.mark.parametrize("knob", sorted(_removed_knob_calls()))
def test_removed_knobs_raise(knob):
    with pytest.raises(TypeError, match="unexpected keyword"):
        _removed_knob_calls()[knob]()


class TestResidueListing:
    def test_all_residues_mixes_levels(self, ex32):
        optimizer = SemanticOptimizer(ex32.program, list(ex32.ics),
                                      pred="eval",
                                      small_relations={"doctoral"})
        sequences = {item.sequence for ic in ex32.ics
                     for item in optimizer.residues(ic)}
        assert ("r1", "r1") in sequences
        assert ("r2",) in sequences

    def test_non_chain_ic_skipped_for_sequences(self, ex43):
        from repro.constraints import ic_from_text
        triangle = ic_from_text(
            "par(A, Aa, B, Ba), par(B, Ba, C, Ca), par(C, Ca, A, Aa) -> .")
        optimizer = SemanticOptimizer(ex43.program, [triangle],
                                      pred="anc")
        assert all(len(item.sequence) == 1
                   for item in optimizer.residues(triangle))


class TestOptimizeAllPredicates:
    def test_two_independent_recursions(self, rng):
        from repro.core import optimize_all_predicates
        from repro.constraints import ics_from_text
        from repro.core.equivalence import (make_consistent,
                                            random_database)
        from repro.engine import evaluate

        program = parse_program("""
            a0: anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
            a1: anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za),
                                     par(Z, Za, Y, Ya).
            m0: mgr(E, B) :- boss(E, B).
            m1: mgr(E, B) :- mgr(E, M), boss(M, B).
        """)
        ics = ics_from_text("""
            ic1: Ya <= 50, par(Z, Za, Y, Ya), par(Z2, Z2a, Z, Za),
                 par(Z3, Z3a, Z2, Z2a) -> .
            ic2: boss(A, B), boss(B, C), boss(C, D) -> .
        """)
        report = optimize_all_predicates(program, ics)
        assert report.failures == []
        optimized_preds = {step.sequence[0][0] for step in
                           report.applied_steps}
        assert report.changed
        # Both predicates received pushes.
        applied_heads = set()
        for step in report.applied_steps:
            applied_heads.add(step.sequence[0][0])
        assert {"a", "m"} <= {label[0] for step in report.applied_steps
                              for label in step.sequence}
        dbs = []
        for _ in range(4):
            db = random_database({"par": 4, "boss": 2}, 6, 12, rng,
                                 numeric_columns={"par": [1, 3]})
            make_consistent(db, list(ics))
            dbs.append(db)
        from repro.core import check_equivalent
        for pred in ("anc", "mgr"):
            assert check_equivalent(program, report.optimized, pred,
                                    dbs) is None

    def test_nonlinear_predicate_skipped(self):
        from repro.core import optimize_all_predicates

        program = parse_program("""
            t(X, Y) :- e(X, Y).
            t(X, Y) :- t(X, Z), t(Z, Y).
        """)
        report = optimize_all_predicates(program, [])
        assert not report.changed
        assert any("not linear" in step.outcome.reason
                   for step in report.steps)

    def test_non_recursive_program_rule_level(self):
        from repro.core import optimize_all_predicates
        from repro.constraints import ics_from_text

        program = parse_program(
            "s(P, S, T, M) :- sup(P, S, T), pays(M, G, S, T).")
        ics = ics_from_text("icu: pays(M, G, S, T) -> doctoral(S).")
        report = optimize_all_predicates(program, ics,
                                         small_relations={"doctoral"})
        assert report.failures == []
        assert report.changed


class TestNonRecursiveOptimizer:
    def test_pred_none_rule_level_only(self):
        from repro.constraints import ics_from_text

        program = parse_program(
            "s(P, S, T, M) :- sup(P, S, T), pays(M, G, S, T).")
        ics = ics_from_text("icu: pays(M, G, S, T) -> doctoral(S).")
        optimizer = SemanticOptimizer(program, ics,
                                      small_relations={"doctoral"})
        assert optimizer.pred is None
        assert all(len(item.sequence) == 1
                   for item in optimizer.residues(ics[0]))
        report = optimizer.optimize()
        assert report.failures == []
        assert report.changed


class TestPeriodicFallThrough:
    def test_two_recursive_rules_fall_back_to_automaton(self, rng):
        """Periodic compilation needs a single recursive rule; with two,
        phase 1 must leave the residue to the automaton path."""
        from repro.constraints import ics_from_text
        from repro.core.equivalence import make_consistent, random_database

        program = parse_program("""
            r0: reach(X, Y) :- edge(X, Y).
            r1: reach(X, Y) :- reach(X, Z), edge(Z, Y), active(Z).
            r2: reach(X, Y) :- reach(X, Z), jump(Z, Y).
        """)
        ics = ics_from_text(
            "ice: edge(A, B), edge(B, C) -> active(B).")
        report = SemanticOptimizer(program, ics, pred="reach").optimize()
        assert report.failures == []
        applied = report.applied_steps
        assert applied, report.summary()
        # The automaton path handled it (isolation predicates exist).
        assert any("__" in pred
                   for pred in report.optimized.idb_predicates) or applied
        dbs = []
        for _ in range(4):
            db = random_database({"edge": 2, "jump": 2, "active": 1},
                                 6, 12, rng)
            make_consistent(db, list(ics))
            dbs.append(db)
        assert check_equivalent(program, report.optimized, "reach",
                                dbs) is None
