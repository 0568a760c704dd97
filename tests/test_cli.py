"""Tests for the command-line interface."""

import pytest

from repro.cli import main

PROGRAM = """
r0: anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
r1: anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
"""

ICS = """
ic1: Ya <= 50, par(Z, Za, Y, Ya), par(Z2, Z2a, Z, Za),
     par(Z3, Z3a, Z2, Z2a) -> .
"""

DB = """
par(bob, 30, ann, 72).
par(cal, 7, bob, 30).
"""


@pytest.fixture
def files(tmp_path):
    program = tmp_path / "program.dl"
    program.write_text(PROGRAM)
    ics = tmp_path / "ics.dl"
    ics.write_text(ICS)
    db = tmp_path / "db.dl"
    db.write_text(DB)
    return {"program": str(program), "ics": str(ics), "db": str(db)}


class TestEvaluate:
    def test_dumps_idb(self, files, capsys):
        assert main(["evaluate", files["program"], files["db"]]) == 0
        out = capsys.readouterr().out
        assert "anc(cal, 7, ann, 72)." in out

    def test_query(self, files, capsys):
        code = main(["evaluate", files["program"], files["db"],
                     "--query", "anc(cal, Xa, Y, Ya)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ann" in out and "bob" in out

    def test_stats_on_stderr(self, files, capsys):
        main(["evaluate", files["program"], files["db"], "--stats"])
        err = capsys.readouterr().err
        assert "# derivations:" in err

    def test_source_planner(self, files, capsys):
        assert main(["evaluate", files["program"], files["db"],
                     "--planner", "source"]) == 0

    def test_missing_file(self, capsys):
        assert main(["evaluate", "/no/such/file", "/none"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_cbo_query_refuses_the_method_it_would_drop(self, capsys):
        # Refused before either file is opened: the chosen plan runs
        # semi-naively, so ``--method naive`` would be ignored.
        assert main(["evaluate", "/no/such/file", "/none",
                     "--planner", "cbo", "--query", "anc(cal, Xa, Y, Ya)",
                     "--method", "naive"]) == 2
        err = capsys.readouterr().err
        assert "--method naive" in err and "/no/such/file" not in err

    def test_cbo_without_a_query_is_refused(self, capsys):
        # cbo chooses a rewrite for a query; refused before either
        # file is opened.
        assert main(["evaluate", "/no/such/file", "/none",
                     "--planner", "cbo"]) == 2
        err = capsys.readouterr().err
        assert "--query" in err and "/no/such/file" not in err

    def test_interning_on_same_output(self, files, capsys):
        main(["evaluate", files["program"], files["db"]])
        plain = capsys.readouterr().out
        assert main(["evaluate", files["program"], files["db"],
                     "--interning", "on",
                     "--planner", "adaptive"]) == 0
        assert capsys.readouterr().out == plain


class TestExplainCommand:
    def test_plan_rendering(self, files, capsys):
        assert main(["explain", files["program"], files["db"]]) == 0
        out = capsys.readouterr().out
        assert "r1" in out and ("scan" in out or "probe" in out)

    def test_stats_flag_adds_statistics_section(self, files, capsys):
        assert main(["explain", files["program"], files["db"],
                     "--planner", "adaptive", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "statistics" in out.lower()
        assert "par/4" in out

    def test_kernels_interned(self, files, capsys):
        assert main(["explain", files["program"], files["db"],
                     "--kernels", "--interning", "on"]) == 0
        assert "interned" in capsys.readouterr().out

    def test_cbo_is_not_a_planner_choice(self, files, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["explain", files["program"], files["db"],
                  "--planner", "cbo"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'cbo'" in capsys.readouterr().err


class TestOptimize:
    def test_pushes_pruning(self, files, capsys):
        code = main(["optimize", files["program"], "--ics", files["ics"]])
        assert code == 0
        out = capsys.readouterr().out
        assert "[prune]" in out and "applied" in out
        assert "Ya > 50" in out

    def test_unchanged_exit_code(self, files, tmp_path, capsys):
        empty = tmp_path / "none.dl"
        empty.write_text("unrelated(X) -> other(X).")
        code = main(["optimize", files["program"], "--ics", str(empty)])
        assert code == 1
        code = main(["optimize", files["program"], "--ics", str(empty),
                     "--allow-unchanged"])
        assert code == 0

    def test_rule_level_baseline(self, files, capsys):
        code = main(["optimize", files["program"], "--ics", files["ics"],
                     "--rule-level", "--allow-unchanged"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0/" in out.splitlines()[0]

    def test_automaton_mode(self, files, capsys):
        code = main(["optimize", files["program"], "--ics", files["ics"],
                     "--compilation", "automaton"])
        assert code == 0

    def test_guard_is_not_an_option(self, files, capsys):
        """The chase guard proves every edit; there is no switch to
        ship an unproved one."""
        with pytest.raises(SystemExit) as exit_info:
            main(["optimize", files["program"], "--ics", files["ics"],
                  "--guard", "none"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --guard" \
            in capsys.readouterr().err

    def test_invalid_program_rejected(self, tmp_path, files, capsys):
        bad = tmp_path / "bad.dl"
        bad.write_text("p(X, Z) :- e(X).")
        assert main(["optimize", str(bad), "--ics", files["ics"]]) == 2


class TestResidues:
    def test_lists_residues(self, files, capsys):
        assert main(["residues", files["program"],
                     "--ics", files["ics"]]) == 0
        out = capsys.readouterr().out
        assert "(r1 r1 r1; Ya <= 50 ->)" in out

    def test_no_residues_message(self, files, tmp_path, capsys):
        empty = tmp_path / "none.dl"
        empty.write_text("unrelated(A, B) -> other(A).")
        main(["residues", files["program"], "--ics", str(empty)])
        assert "(no residues)" in capsys.readouterr().out

    def test_lists_what_optimize_pushes_for_non_chain_ic(self, tmp_path,
                                                         capsys):
        program = tmp_path / "p.dl"
        program.write_text("r0: p(X, Y) :- e(X, Y).\n"
                           "r1: p(X, Y) :- e(X, Z), p(Z, Y).\n")
        ics = tmp_path / "ics.dl"
        ics.write_text("ic1: e(X, Y), e(Y, Z), e(Y, W), W > 5 -> .\n")
        assert main(["optimize", str(program), "--ics", str(ics)]) == 0
        assert "[prune] ic=ic1 seq=r1 r1 residue='Z_3 > 5 ->' -> applied" \
            in capsys.readouterr().out
        assert main(["residues", str(program), "--ics", str(ics)]) == 0
        out = capsys.readouterr().out
        assert "(r1 r1; Z_3 > 5 ->)" in out
        assert "(no residues)" not in out


class TestDescribeAndExamples:
    def test_describe(self, tmp_path, capsys):
        program = tmp_path / "honors.dl"
        program.write_text("""
            r0: honors(S) :- graduated(S, C), topten(C).
        """)
        code = main(["describe", str(program),
                     "describe honors(S) where graduated(S, C), "
                     "topten(C)"])
        assert code == 0
        assert "every object satisfying the context" in \
            capsys.readouterr().out

    def test_examples_listing(self, capsys):
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        assert "example_4_3" in out and "example_5_1" in out

    def test_examples_show_one(self, capsys):
        assert main(["examples", "example_4_3"]) == 0
        out = capsys.readouterr().out
        assert "anc(X, Xa, Y, Ya)" in out and "ic1" in out


class TestBudgetFlags:
    def test_max_facts_exit_code(self, files, capsys):
        code = main(["evaluate", files["program"], files["db"],
                     "--max-facts", "1"])
        assert code == 4
        err = capsys.readouterr().err
        assert "budget exceeded" in err
        assert "Traceback" not in err

    def test_max_derivations_exit_code(self, files, capsys):
        assert main(["evaluate", files["program"], files["db"],
                     "--max-derivations", "1"]) == 4

    def test_timeout_exit_code(self, files, capsys):
        assert main(["evaluate", files["program"], files["db"],
                     "--timeout-s", "0"]) == 4
        assert "deadline" in capsys.readouterr().err

    def test_generous_budget_same_output(self, files, capsys):
        assert main(["evaluate", files["program"], files["db"]]) == 0
        plain = capsys.readouterr().out
        assert main(["evaluate", files["program"], files["db"],
                     "--timeout-s", "60", "--max-facts", "100000"]) == 0
        assert capsys.readouterr().out == plain

    def test_parse_error_exit_code(self, tmp_path, files, capsys):
        bad = tmp_path / "broken.dl"
        bad.write_text("p(X :-")
        assert main(["evaluate", str(bad), files["db"]]) == 3
        err = capsys.readouterr().err
        assert "parse error" in err and "Traceback" not in err
        # the caret excerpt points at the offending token
        assert "^" in err and "p(X :-" in err

    def test_safe_optimize(self, files, capsys):
        code = main(["optimize", files["program"], "--ics", files["ics"],
                     "--verify", "sample"])
        assert code == 0
        out = capsys.readouterr().out
        assert "verification: passed" in out and "[prune]" in out


class TestExperiments:
    def test_unknown_id_rejected(self, capsys):
        assert main(["experiments", "E99"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_runs_fast_experiment(self, capsys):
        assert main(["experiments", "e7"]) == 0
        out = capsys.readouterr().out
        assert "sequence-level vs rule-level" in out


class TestExperimentCSV:
    def test_csv_dir(self, tmp_path, capsys):
        assert main(["experiments", "e7", "--csv-dir",
                     str(tmp_path / "out")]) == 0
        written = (tmp_path / "out" / "E7.csv").read_text()
        assert "sequence-level" in written


MULTI_VIOLATION = """
p(X, Y) :- q(X).
a(X) :- e(X). a(X) :- b(X). b(X) :- a(X).
s(X) :- t(X), X > Z.
u(X) :- v(X), not w(X). w(X) :- u(X).
"""


class TestLint:
    def test_multi_violation_program_all_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.dl"
        bad.write_text(MULTI_VIOLATION)
        assert main(["lint", str(bad)]) == 5
        out = capsys.readouterr().out
        # one run reports every violated assumption, with locations
        for code in ("RR001", "LIN001", "SAFE001", "STRAT001"):
            assert code in out, out
        assert "error" in out and ":" in out

    def test_warnings_only_exit_zero(self, tmp_path, capsys):
        warn = tmp_path / "warn.dl"
        warn.write_text("p(X) :- q(X, Y).")  # singleton Y
        assert main(["lint", str(warn)]) == 0
        out = capsys.readouterr().out
        assert "VAR001" in out

    def test_clean_program_exit_zero(self, files, capsys):
        assert main(["lint", files["program"]]) == 0

    def test_json_round_trips(self, tmp_path, capsys):
        import json

        from repro.analysis import AnalysisReport

        bad = tmp_path / "bad.dl"
        bad.write_text(MULTI_VIOLATION)
        assert main(["lint", str(bad), "--format", "json"]) == 5
        payload = json.loads(capsys.readouterr().out)
        report = AnalysisReport.from_dict(payload)
        assert report.has_errors
        assert payload["ok"] is False
        spans = [d["span"] for d in payload["diagnostics"] if d["span"]]
        assert spans and all("line" in s and "column" in s for s in spans)

    def test_out_writes_file(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.dl"
        bad.write_text(MULTI_VIOLATION)
        out_file = tmp_path / "report.json"
        assert main(["lint", str(bad), "--format", "json",
                     "--out", str(out_file)]) == 5
        assert json.loads(out_file.read_text())["ok"] is False

    def test_ics_and_query_flags(self, files, capsys):
        assert main(["lint", files["program"],
                     "--ics", files["ics"],
                     "--query", "anc(X, Xa, Y, Ya)"]) == 0

    def test_parse_error_is_lint_error(self, tmp_path, capsys):
        bad = tmp_path / "broken.dl"
        bad.write_text("p(X :-")
        assert main(["lint", str(bad)]) == 5
        assert "PARSE001" in capsys.readouterr().out

    def test_pass_selection(self, tmp_path, capsys):
        bad = tmp_path / "bad.dl"
        bad.write_text(MULTI_VIOLATION)
        assert main(["lint", str(bad),
                     "--passes", "singleton-variables"]) == 0
        out = capsys.readouterr().out
        assert "VAR001" in out and "RR001" not in out

    def test_bundled_targets_clean(self, capsys):
        assert main(["lint", "--bundled"]) == 0
        assert "no bundled program has lint errors" in capsys.readouterr().out
