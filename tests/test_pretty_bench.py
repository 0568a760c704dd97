"""Tests for pretty printing and the benchmark harness utilities."""

import pytest

from repro.bench.harness import (Measurement, Table, check_same_answers,
                                 measure)
from repro.datalog import (format_program, format_rule, format_table,
                           parse_program, side_by_side)
from repro.datalog.pretty import format_substitution
from repro.datalog.terms import Constant, Variable
from repro.datalog.unify import Substitution
from repro.engine import evaluate
from repro.facts import Database


class TestPretty:
    def test_format_rule_with_label(self, tc_program):
        assert format_rule(tc_program.rule("r0")).startswith("r0: ")
        assert not format_rule(tc_program.rule("r0"),
                               show_label=False).startswith("r0")

    def test_format_program_roundtrips(self, tc_program):
        text = format_program(tc_program)
        assert parse_program(text) == tc_program

    def test_group_by_head(self):
        program = parse_program("""
            a(X) :- e(X).
            b(X) :- e(X).
            a(X) :- f(X).
        """)
        grouped = format_program(program, group_by_head=True)
        blocks = grouped.split("\n\n")
        assert len(blocks) == 2
        assert blocks[0].count("a(X)") == 2

    def test_format_substitution_sorted(self):
        subst = Substitution({Variable("Z"): Constant(1),
                              Variable("A"): Constant(2)})
        assert format_substitution(subst) == "{A/2, Z/1}"

    def test_side_by_side_alignment(self):
        view = side_by_side("left\nlines", "right")
        assert "|" in view
        assert all(line.index("|") == view.splitlines()[0].index("|")
                   for line in view.splitlines() if "|" in line)

    def test_format_table_widths(self):
        table = format_table(["col", "x"], [["value", 1], ["v", 22]])
        lines = table.splitlines()
        assert lines[0].startswith("col")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4


class TestHarness:
    def test_measure_collects_counters(self, tc_program, chain_db):
        m = measure("plain", lambda: evaluate(tc_program, chain_db),
                    "reach", repeats=2)
        assert len(m.seconds) == 2
        assert m.answers == 6
        assert m.counters["derivations"] == 6
        assert m.rows_for_rules("r1") > 0

    def test_speedup(self):
        fast = Measurement("fast", seconds=[0.1])
        slow = Measurement("slow", seconds=[0.4])
        assert fast.speedup_over(slow) == pytest.approx(4.0)

    def test_table_render(self):
        table = Table("demo", ["a", "b"])
        table.add_row(1, 2)
        table.note("a note")
        text = table.render()
        assert "demo" in text and "note: a note" in text

    def test_check_same_answers(self):
        a = Measurement("a", answers=5)
        b = Measurement("b", answers=5)
        c = Measurement("c", answers=6)
        assert check_same_answers([a, b])
        assert not check_same_answers([a, c])

    def test_measure_records_budget_exceeded(self, tc_program, chain_db):
        m = measure("slow", lambda: evaluate(tc_program, chain_db),
                    "reach", repeats=2, timeout_s=0.0)
        assert m.budget_exceeded
        assert len(m.seconds) == 1  # stops after the first timed-out run
        assert m.answers == 0
        assert "derivations" in m.counters  # partial counters survive

    def test_measure_timeout_disabled_with_none(self, tc_program,
                                                chain_db):
        m = measure("ok", lambda: evaluate(tc_program, chain_db),
                    "reach", repeats=1, timeout_s=None)
        assert not m.budget_exceeded and m.answers == 6


class TestFastExperiments:
    """Smoke tests for the cheap experiments (E7/E8 are sub-second)."""

    def test_e7(self):
        from repro.bench import experiment_e7
        table = experiment_e7()
        assert len(table.rows) == 4
        by_name = {row[0]: row for row in table.rows}
        # Every example has sequence-level residues the rule-level
        # reading misses.
        for name in ("example_2_1", "example_3_2", "example_4_3"):
            assert by_name[name][2] > 0
            assert by_name[name][2] > by_name[name][3] or \
                by_name[name][3] == 0

    def test_e8(self):
        from repro.bench import experiment_e8
        table = experiment_e8(repeats=1)
        trees = {row[0] for row in table.rows}
        assert trees == {"r0", "r1 r2", "r3"}
        subsumed = {row[0]: row[1] for row in table.rows}
        assert subsumed["r3"] == "yes"


class TestTableCSV:
    def test_to_csv(self, tmp_path):
        table = Table("demo", ["a", "b"])
        table.add_row(1, "x,y")
        table.note("hello")
        path = tmp_path / "t.csv"
        table.to_csv(path)
        text = path.read_text()
        assert text.startswith("# demo\n# hello\n")
        assert 'a,b' in text and '"x,y"' in text
