"""Tests for the dataflow analysis (``repro.analysis.dataflow``): the
domain lattice, what it infers, its verdicts held against plain
evaluation (the engine does not consume the analysis; lint and
``choose_plan`` do), and the CLI surfaces that print it."""

import pytest

from repro.analysis.dataflow import (ANY_NUMBER, BOTTOM, INF, MAX_CONSTS,
                                     TOP, Domain, analyze_dataflow,
                                     consts_domain, interval_domain, join,
                                     kinds_domain, meet)
from repro.datalog import parse_program
from repro.datalog.parser import parse_query
from repro.engine import evaluate
from repro.facts import Database
from tests.conftest import dataflow_verdict_violations

TC = """
b0: p(X, Y) :- e(X, Y).
r0: p(X, Z) :- p(X, Y), e(Y, Z).
"""


def tc_db():
    db = Database()
    for pair in ((1, 2), (2, 3), (3, 4)):
        db.add_fact("e", *pair)
    return db


# ---------------------------------------------------------------------------
# the domain lattice
# ---------------------------------------------------------------------------

class TestLattice:
    def test_consts_canonical_and_bounded(self):
        assert consts_domain(()) is BOTTOM or consts_domain(()).is_bottom
        small = consts_domain(range(MAX_CONSTS))
        assert small.form == "consts"
        wide = consts_domain(range(MAX_CONSTS + 1))
        assert wide.form == "interval"
        assert wide.lo == 0 and wide.hi == MAX_CONSTS and wide.integral

    def test_mixed_kind_overflow_goes_to_kinds(self):
        values = list(range(MAX_CONSTS)) + ["a", "b"]
        wide = consts_domain(values)
        assert wide == TOP

    def test_kinds_number_canonicalizes_to_interval(self):
        assert kinds_domain({"number"}) == ANY_NUMBER

    def test_join_is_upper_bound(self):
        a = consts_domain({1, 2})
        b = consts_domain({"x"})
        joined = join(a, b)
        for value in (1, 2, "x"):
            assert value in joined.consts
        assert join(a, BOTTOM) == a
        assert join(BOTTOM, b) == b

    def test_join_numeric_hulls(self):
        a = interval_domain(0, 5, integral=True)
        b = consts_domain({9})
        joined = join(a, b)
        assert joined.form == "interval"
        assert (joined.lo, joined.hi, joined.integral) == (0, 9, True)

    def test_meet_is_lower_bound(self):
        a = consts_domain({1, 2, 3})
        b = interval_domain(2, 9)
        met = meet(a, b)
        assert met.consts == frozenset({2, 3})
        assert meet(a, consts_domain({"x"})).is_bottom
        assert meet(TOP, a) == a

    def test_meet_interval_interval(self):
        met = meet(interval_domain(0, 5), interval_domain(3, 9,
                                                          integral=True))
        assert (met.lo, met.hi, met.integral) == (3, 5, True)
        assert meet(interval_domain(0, 1), interval_domain(2, 3)).is_bottom

    def test_integral_interval_size_is_exact(self):
        assert interval_domain(3, 7, integral=True).size() == 5.0
        assert interval_domain(3, 7).size() == INF
        assert BOTTOM.size() == 0.0
        assert consts_domain({1, "a"}).size() == 2.0

    def test_render_forms(self):
        assert BOTTOM.render() == "empty"
        assert TOP.render() == "any"
        assert "int" in interval_domain(0, 4, integral=True).render()

    def test_lattice_order_sanity(self):
        # join(a, b) must contain everything meet(a, b) contains.
        samples = [BOTTOM, TOP, ANY_NUMBER, consts_domain({1, 2}),
                   consts_domain({"a"}), interval_domain(0, 10, True),
                   kinds_domain({"string"})]
        for a in samples:
            for b in samples:
                up = join(a, b)
                down = meet(a, b)
                assert down.size() <= up.size() or up.size() == INF
                assert join(a, a) == a
                assert meet(a, a) == a


# ---------------------------------------------------------------------------
# the whole-program analysis
# ---------------------------------------------------------------------------

class TestAnalyzeDataflow:
    def test_tc_domains_and_bounds(self):
        flow = analyze_dataflow(parse_program(TC), edb=tc_db())
        assert flow.columns["p"][0].consts == frozenset({1, 2, 3})
        assert flow.columns["p"][1].consts == frozenset({2, 3, 4})
        assert flow.size_bound("e") == 3.0
        assert flow.size_bound("p") == 9.0  # 3 distinct x 3 distinct
        assert flow.converged

    def test_probe_estimate_divides_by_distincts(self):
        flow = analyze_dataflow(parse_program(TC), edb=tc_db())
        assert flow.probe_estimate("p", ()) == 9.0
        assert flow.probe_estimate("p", (0,)) == 3.0
        assert flow.probe_estimate("p", (0, 1)) == 1.0

    def test_lint_mode_defaults_to_top(self):
        flow = analyze_dataflow(parse_program(TC))
        assert flow.columns["e"][0] == TOP
        assert flow.size_bound("p") == INF

    def test_unsat_comparison_kills_rule_and_predicate(self):
        program = parse_program(
            "d0: dead(X) :- e(X, Y), X = 1, X > 5.\n"
            "c0: chained(X) :- dead(X).\n")
        flow = analyze_dataflow(program, edb=tc_db())
        assert {"dead", "chained"} <= flow.empty
        assert len(flow.dead_rules) == 2
        assert len(flow.unsat) == 1
        assert flow.unsat[0].rule.label == "d0"

    def test_provably_true_check_recorded(self):
        program = parse_program("t0: t(X) :- e(X, Y), X < 100.\n")
        flow = analyze_dataflow(program, edb=tc_db())
        (rule,) = program
        assert flow.true_checks.get(rule) == frozenset({1})
        assert "t" not in flow.empty

    def test_self_refinement_never_proves_a_check_true(self):
        # X = 1 narrows X's domain to {1}; using that refinement to
        # prove the comparison itself would be circular and unsound.
        program = parse_program("s0: s(X) :- e(X, Y), X = 1.\n")
        flow = analyze_dataflow(program, edb=tc_db())
        (rule,) = program
        assert 1 not in flow.true_checks.get(rule, frozenset())

    def test_adornments_seeded_from_query(self):
        program = parse_program(TC)
        query = next(lit for lit in parse_query("p(1, Y)").literals)
        flow = analyze_dataflow(program, edb=tc_db(), query=query)
        assert "bf" in flow.adornments["p"]
        assert flow.adorned_bounds[("p", "bf")] == 3.0

    def test_free_query_adorns_all_free(self):
        flow = analyze_dataflow(parse_program(TC), edb=tc_db())
        assert flow.adornments["p"] == ("ff",)

    def test_nonlinear_recursion_unbounded_without_edb(self):
        program = parse_program(
            "s0: sg(X, Y) :- flat(X, Y).\n"
            "s1: sg(X, Y) :- up(X, A), sg(A, B), sg(B, C), down(C, Y).\n")
        flow = analyze_dataflow(program)
        assert flow.size_bound("sg") == INF

    def test_arithmetic_head_stays_sound(self):
        # Z = X + 1 meets back into e's column domain, so the fixpoint
        # converges to the exact value set without widening to inf.
        program = parse_program(
            "g0: grow(X) :- e2(X, Y).\n"
            "g1: grow(Z) :- grow(X), e2(X, Y), Z = X + 1.\n")
        db = Database()
        for pair in ((0, 1), (1, 2), (2, 3), (3, 0)):
            db.add_fact("e2", *pair)
        flow = analyze_dataflow(program, edb=db)
        hull = flow.columns["grow"][0].numeric_hull()
        assert hull[0] == 0 and hull[1] == 4 and hull[2]
        result = evaluate(program, db)
        values = {row[0] for row in result.facts("grow")}
        assert values == {0, 1, 2, 3, 4}
        for value in values:
            assert flow.columns["grow"][0].lo <= value \
                <= flow.columns["grow"][0].hi \
                if flow.columns["grow"][0].form == "interval" else True

    def test_render_mentions_every_predicate(self):
        flow = analyze_dataflow(parse_program(TC), edb=tc_db())
        text = flow.render()
        assert "p/2" in text and "e/2" in text and "size bound" in text


# ---------------------------------------------------------------------------
# verdicts against plain evaluation
# ---------------------------------------------------------------------------

DEADLY = """
b0: p(X, Y) :- e(X, Y).
r0: p(X, Z) :- p(X, Y), e(Y, Z).
d0: junk(X) :- e(X, Y), X = 1, X > 5.
t0: low(X) :- e(X, Y), X < 100.
"""

COMBOS = [
    {"executor": "compiled"},
    {"executor": "interpreted"},
    {"executor": "compiled", "planner": "adaptive"},
    {"executor": "compiled", "method": "naive"},
    {"executor": "compiled", "interning": "on"},
    {"executor": "compiled", "interning": "on", "planner": "adaptive"},
]


class TestEvaluateWithDataflow:
    """One program with a dead rule (``d0``) and an always-true
    comparison (``t0``'s ``X < 100``), by construction."""

    @pytest.mark.parametrize("combo", COMBOS,
                             ids=[str(sorted(c.items())) for c in COMBOS])
    def test_inferred_empty_predicate_evaluates_empty(self, combo):
        program = parse_program(DEADLY)
        flow = analyze_dataflow(program, edb=tc_db())
        assert flow.empty & program.idb_predicates == {"junk"}
        result = evaluate(program, tc_db(), **combo)
        assert result.count("junk") == 0
        assert result.facts("low") == {(1,), (2,), (3,)}

    @pytest.mark.parametrize("executor", ["compiled", "interpreted"])
    @pytest.mark.parametrize("interning", ["off", "on"])
    def test_dead_rule_has_no_solution_and_true_check_rejects_none(
            self, executor, interning):
        program = parse_program(DEADLY)
        flow = analyze_dataflow(program, edb=tc_db())
        assert flow.is_dead(program.rule("d0"))
        assert flow.true_checks[program.rule("t0")] == frozenset({1})
        assert dataflow_verdict_violations(
            program, tc_db(), flow, executor=executor,
            interning=interning) == []


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------

class TestDataflowCLI:
    @pytest.fixture
    def files(self, tmp_path):
        program = tmp_path / "p.dl"
        program.write_text(TC)
        db = tmp_path / "db.dl"
        db.write_text("e(1, 2).\ne(2, 3).\ne(3, 4).\n")
        return {"program": str(program), "db": str(db)}

    def test_explain_dataflow_prints_analysis(self, files, capsys):
        from repro.cli import main

        assert main(["explain", files["program"], files["db"],
                     "--dataflow", "--planner", "adaptive",
                     "--query", "p(1, Y)"]) == 0
        out = capsys.readouterr().out
        assert "dataflow:" in out
        assert "size bound" in out
        assert "adornments: bf" in out
        assert "distinct <=" in out

    def test_lint_sarif_single_file(self, tmp_path, capsys):
        import json

        from repro.cli import main

        bad = tmp_path / "bad.dl"
        bad.write_text("p(X) :- e(X), X = 1, X > 5.\n")
        assert main(["lint", str(bad), "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
        assert {"SAT001", "DEAD003", "TYPE002", "BOUND001"} <= rule_ids
        results = {r["ruleId"] for r in run["results"]}
        assert "SAT001" in results and "DEAD003" in results
        for result in run["results"]:
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == str(bad)

    def test_lint_sarif_bundled(self, capsys):
        import json

        from repro.cli import main

        assert main(["lint", "--bundled", "--format", "sarif"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["tool"]["driver"]["name"]

    def test_unknown_pass_exit_code_and_suggestion(self, files, capsys):
        from repro.cli import main

        assert main(["lint", files["program"],
                     "--passes", "datflow"]) == 2
        err = capsys.readouterr().err
        assert "unknown analysis pass" in err
        assert "did you mean 'dataflow'" in err

    def test_empty_passes_rejected(self, files, capsys):
        from repro.cli import main

        assert main(["lint", files["program"], "--passes"]) == 2
        assert "at least one pass name" in capsys.readouterr().err

    def test_dataflow_pass_selection(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.dl"
        bad.write_text("p(X) :- e(X), X = 1, X > 5.\n")
        assert main(["lint", str(bad), "--passes", "dataflow"]) == 0
        out = capsys.readouterr().out
        assert "SAT001" in out and "DEAD003" in out
