"""Tests for the static-analysis subsystem (``repro.analysis``)."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (CODES, PRECONDITION_PASSES, REGISTRY,
                            AnalysisReport, Diagnostic, analyze_program,
                            bundled_reports, lint_source)
from repro.datalog import Span, parse_program
from repro.workloads import (ALL_EXAMPLES, random_linear_program,
                             transitive_closure_program)

# ---------------------------------------------------------------------------
# One fixture per diagnostic code: lint input guaranteed to trigger it.
# The coverage test below fails when a code has no fixture, so every
# future code needs an entry here (and a row in docs/linting.md).
# ---------------------------------------------------------------------------

FIXTURES: dict[str, dict] = {
    "RR001": {"text": "p(X, Y) :- q(X)."},
    "SAFE001": {"text": "p(X) :- q(X), X > Y."},
    "SAFE002": {"text": "p(X) :- q(X), r(X + 1)."},
    "CONN001": {"text": "p(X, Y) :- q(X), r(Y)."},
    "LIN001": {"text": "p(X) :- e(X). p(X) :- q(X). q(X) :- p(X)."},
    "LIN002": {"text": "p(X, Y) :- e(X, Y). "
                       "p(X, Y) :- p(X, Z), p(Z, Y)."},
    "STRAT001": {"text": "p(X) :- e(X), not q(X). q(X) :- p(X)."},
    "ARITY001": {"text": "p(X) :- q(X), q(X, X)."},
    "TYPE001": {"text": "p(X) :- q(X, 1). p(X) :- q(X, abc)."},
    "DEAD001": {"text": "p(X) :- e(X). stray(X) :- f(X).",
                "query_text": "p(X)"},
    "DEAD002": {"text": "p(X) :- e(X). stray(X) :- f(X).",
                "query_text": "p(X)"},
    "VAR001": {"text": "p(X) :- q(X, Y)."},
    "IC001": {"text": "p(X) :- e(X).", "ic_text": "p(X) -> e(X)."},
    "IC002": {"text": "p(X) :- e(X).", "ic_text": "a(X), b(Y) -> ."},
    "IC003": {"text": "p(X) :- e(X).",
              "ic_text": "a(X, Y), b(Y, Z), c(X, Z) -> ."},
    "IC004": {"text": transitive_closure_program(),
              "ic_text": "other(X, Y) -> ."},
    "PERF002": {"text": "p(X, Y) :- q(X, A), r(Y, B), A > 0, B > 0."},
    "PERF003": {"text": "p(X, Y) :- a(X), b(Y), c(X, Y)."},
    "PERF004": {"text": "r0: alive(X) :- seed(X). "
                        "r1: alive(X) :- alive(Y), node(X)."},
    # TYPE002 needs the *inferred* domains to conflict (the constants
    # sit in comparisons, where TYPE001 never looks).
    "TYPE002": {"text": "p(X) :- e(X), X = 1. p(X) :- f(X), X = abc."},
    "DEAD003": {"text": "p(X) :- e(X), X = 1, X > 5. q(X) :- p(X)."},
    "SAT001": {"text": "p(X) :- e(X), X = 1, X > 5."},
    "BOUND001": {"text": "sg(X, Y) :- flat(X, Y). "
                         "sg(X, Y) :- up(X, A), sg(A, B), sg(B, C), "
                         "down(C, Y)."},
    "PARSE001": {"text": "p(X :-"},
}


class TestDiagnostics:
    def test_json_round_trip_with_span(self):
        d = Diagnostic(code="RR001", severity="error", message="m",
                       span=Span(3, 5, 3, 12), rule_label="r1",
                       subject="p", pass_name="range-restriction")
        again = Diagnostic.from_dict(json.loads(json.dumps(d.to_dict())))
        assert again == d

    def test_json_round_trip_without_span(self):
        d = Diagnostic(code="LIN001", severity="error", message="m")
        assert Diagnostic.from_dict(d.to_dict()) == d

    def test_report_round_trip(self):
        report = lint_source(FIXTURES["STRAT001"]["text"])
        again = AnalysisReport.from_dict(
            json.loads(json.dumps(report.to_dict())))
        assert again.diagnostics == report.diagnostics
        assert again.counts() == report.counts()

    def test_unknown_severity_rejected(self):
        with pytest.raises(ValueError):
            Diagnostic(code="X", severity="fatal", message="m")

    def test_report_orders_errors_first(self):
        report = lint_source("p(X, Y) :- q(X).\n"
                             "s(X) :- q(X, Y).")
        severities = [d.severity for d in report]
        assert severities == sorted(
            severities, key=["error", "warning", "info"].index)

    def test_render_includes_excerpt_and_summary(self):
        text = lint_source("p(X, Y) :- q(X).").render()
        assert "RR001" in text and "^" in text and "error" in text.lower()


class TestRegistry:
    def test_at_least_ten_passes(self):
        assert len(REGISTRY) >= 10

    def test_every_code_owned_by_exactly_one_pass(self):
        owners: dict[str, str] = {}
        for name, analysis_pass in REGISTRY.items():
            for code in analysis_pass.codes:
                assert code not in owners, f"{code} owned twice"
                owners[code] = name
        # PARSE001 is emitted by the linter front end, not a pass.
        assert set(owners) == set(CODES) - {"PARSE001"}

    def test_every_code_has_a_fixture(self):
        assert set(FIXTURES) == set(CODES)

    def test_unknown_pass_rejected(self):
        with pytest.raises(ValueError):
            lint_source("p(X) :- q(X).", names=["no-such-pass"])

    def test_docs_catalogue_lists_every_code(self):
        # docs/linting.md is the user-facing catalogue; a new code
        # without a table row drifts silently without this check.
        import pathlib

        docs = pathlib.Path(__file__).resolve().parent.parent \
            / "docs" / "linting.md"
        text = docs.read_text()
        missing = [code for code in CODES if f"`{code}`" not in text]
        assert not missing, \
            f"codes missing from docs/linting.md: {missing}"

    def test_pass_selection(self):
        report = lint_source(FIXTURES["RR001"]["text"],
                             names=["range-restriction"])
        assert report.codes() == {"RR001"}


class TestEveryCodeFires:
    @pytest.mark.parametrize("code", sorted(FIXTURES))
    def test_fixture_triggers_code(self, code):
        report = lint_source(FIXTURES[code]["text"],
                             ic_text=FIXTURES[code].get("ic_text"),
                             query_text=FIXTURES[code].get("query_text"))
        assert code in report.codes(), report.render()

    @pytest.mark.parametrize("code", sorted(FIXTURES))
    def test_severity_matches_table(self, code):
        report = lint_source(FIXTURES[code]["text"],
                             ic_text=FIXTURES[code].get("ic_text"),
                             query_text=FIXTURES[code].get("query_text"))
        finding = next(d for d in report if d.code == code)
        assert finding.severity == CODES[code][0]


class TestSpansOnFindings:
    def test_findings_carry_line_and_column(self):
        report = lint_source("e(a).\np(X, Y) :- q(X).")
        finding = next(d for d in report if d.code == "RR001")
        assert finding.span is not None
        assert (finding.span.line, finding.span.column) == (2, 1)

    def test_multi_violation_program_reports_all_at_once(self):
        # Three independent assumption violations -> one report.
        report = lint_source("""
            p(X, Y) :- q(X).
            a(X) :- e(X). a(X) :- b(X). b(X) :- a(X).
            s(X) :- t(X), X > Z.
        """)
        assert {"RR001", "LIN001", "SAFE001"} <= report.codes()
        lines = {d.span.line for d in report.errors if d.span is not None}
        assert len(lines) >= 3


class TestQueryDependentPasses:
    def test_reachability_skipped_without_query(self):
        report = lint_source("p(X) :- e(X). stray(X) :- f(X).")
        assert "DEAD001" not in report.codes()

    def test_query_in_source_text_is_used(self):
        report = lint_source(
            "p(X) :- e(X). stray(X) :- f(X). ?- p(X).")
        assert {"DEAD001", "DEAD002"} <= report.codes()
        subjects = {d.subject for d in report if d.code == "DEAD002"}
        assert subjects == {"stray"}

    def test_useful_residue_suppresses_ic004(self):
        # Example 4.3's IC produces real residues: no IC004.
        from repro.workloads import example_4_3

        example = example_4_3()
        report = analyze_program(example.program, ics=example.ics)
        assert "IC004" not in report.codes()
        assert report.ok


class TestPreconditionParity:
    """A program passes the load-time gate iff lint finds no
    precondition errors — same passes, same verdict."""

    def test_valid_program_has_no_precondition_errors(self, tc_program):
        report = analyze_program(tc_program, names=PRECONDITION_PASSES)
        assert report.ok

    def test_invalid_program_rejected_with_same_code(self):
        program = parse_program("p(X, Y) :- q(X).")
        report = analyze_program(program, names=PRECONDITION_PASSES)
        assert not report.ok
        assert {d.code for d in report.errors} == {"RR001"}


class TestBundledTargets:
    def test_all_bundled_programs_error_free(self):
        seen = []
        for target, report in bundled_reports():
            seen.append(target.name)
            assert report.ok, f"{target.name}: {report.render()}"
        assert len(seen) >= len(ALL_EXAMPLES) + 2

    def test_examples_scripts_included(self, tmp_path):
        script = tmp_path / "demo.py"
        script.write_text('PROGRAM = "p(X) :- e(X)."\n'
                          'CONSTRAINTS = "e(X) -> q(X)."\n')
        names = [t.name for t, _ in bundled_reports(examples_dir=tmp_path)]
        assert "examples/demo.py" in names


class TestGeneratorPrograms:
    """Property: every program the workload generators emit is lint
    clean — not merely error-free, zero findings of any severity."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_random_linear_programs_lint_clean(self, seed):
        source, _db = random_linear_program(random.Random(seed))
        report = lint_source(source)
        assert report.clean, f"seed {seed}:\n{report.render()}"

    def test_transitive_closure_lint_clean(self):
        assert lint_source(transitive_closure_program()).clean
