"""Tests for pretty printing, the benchmark harness and the
reproduction experiments E1..E10."""

import csv
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest

from repro.bench import experiments
from repro.bench.harness import (Measurement, Table, check_same_answers,
                                 measure)
from repro.core import generate_residues, rule_level_residues
from repro.datalog import (Program, format_program, format_rule,
                           format_table, parse_atom, parse_program)
from repro.engine import evaluate, evaluate_with_magic
from repro.facts import Database
from repro.workloads import example_2_1


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
        assert m.answers == evaluate(tc_program, chain_db).facts("reach")
        assert len(m.answers) == 6
        assert m.counters["derivations"] == 6
        assert m.rows_for_rules("r1") > 0

    def test_measure_reads_a_magic_query_from_the_adorned_predicate(
            self, tc_program, chain_db):
        query = parse_atom("reach(b, Y)")
        m = measure("magic",
                    lambda: evaluate_with_magic(tc_program, chain_db,
                                                query),
                    query, repeats=1)
        assert m.answers == {("b", "c"), ("b", "d")}

    def test_table_render(self):
        table = Table("demo", ["a", "b"])
        table.add_row(1, 2)
        table.note("a note")
        text = table.render()
        assert "demo" in text and "note: a note" in text

    def test_check_same_answers(self):
        a = Measurement("a", answers=frozenset({(1,), (2,)}))
        b = Measurement("b", answers=frozenset({(2,), (1,)}))
        c = Measurement("c", answers=frozenset({(1,)}))
        assert check_same_answers([a, b])
        assert not check_same_answers([a, c])

    def test_answer_sets_of_one_size_do_not_agree(self, tc_program):
        """Two runs with as many answers each, but different ones."""
        one = Database.from_text("edge(a, b).")
        other = Database.from_text("edge(x, y).")
        runs = [measure(name, lambda db=db: evaluate(tc_program, db),
                        "reach", repeats=1)
                for name, db in (("one", one), ("other", other))]
        assert not check_same_answers(runs)
        assert [len(run.answers) for run in runs] == [1, 1]

    def test_measure_records_budget_exceeded(self, tc_program, chain_db):
        m = measure("slow", lambda: evaluate(tc_program, chain_db),
                    "reach", repeats=2, timeout_s=0.0)
        assert m.budget_exceeded
        assert len(m.seconds) == 1  # stops after the first timed-out run
        assert m.answers == frozenset()
        assert "derivations" in m.counters  # partial counters survive

    def test_measure_timeout_disabled_with_none(self, tc_program,
                                                chain_db):
        m = measure("ok", lambda: evaluate(tc_program, chain_db),
                    "reach", repeats=1, timeout_s=None)
        assert not m.budget_exceeded and len(m.answers) == 6


#: Columns whose every cell must read "yes": the runs they compare agree.
AGREEMENT = ("answers equal", "same sequences")

@lru_cache(maxsize=None)
def _run(name):
    """Experiment ``name`` at its default sizes: its table and the
    measurements each of its agreement cells compared."""
    compared = []

    def recording(measurements):
        measurements = list(measurements)
        compared.append(measurements)
        return check_same_answers(measurements)

    with mock.patch.object(experiments, "check_same_answers", recording):
        table = experiments.ALL_EXPERIMENTS[name]()
    return table, compared


def _column(table, header):
    index = table.headers.index(header)
    return [row[index] for row in table.rows]


def _percent(cell):
    return float(cell.rstrip("%"))


class TestFastExperiments:
    """Every experiment at its default sizes (about 1.5 s in all): its
    agreement columns read "yes", each answer set it compared is not
    empty, and its counter columns have the shape of the paper's claim.
    No assertion reads a timing."""

    @pytest.mark.parametrize("name", list(experiments.ALL_EXPERIMENTS))
    def test_runs_and_agrees(self, name):
        table, compared = _run(name)
        assert table.rows
        for header in AGREEMENT:
            if header in table.headers:
                assert set(_column(table, header)) == {"yes"}
        for measurements in compared:
            assert not any(m.budget_exceeded for m in measurements)
            assert all(m.answers for m in measurements)

    def test_e1_and_e2_compare_every_run(self):
        assert [len(group) for group in _run("E1")[1]] == [4, 4, 4]
        assert [len(group) for group in _run("E2")[1]] == [4, 4, 4]

    def test_e3_only_the_guided_baseline_checks_residues(self):
        table, compared = _run("E3")
        assert len(compared) == len(table.rows) == 3
        for plain, pushed, guided in compared:
            assert (plain.label, pushed.label, guided.label) \
                == ("plain", "pushed", "guided")
            assert plain.counters["residue_checks"] == 0
            assert pushed.counters["residue_checks"] == 0
            assert guided.counters["residue_checks"] > 0
        # A "<time>ms <count>" cell.
        assert all(int(cell.split()[-1]) > 0
                   for cell in _column(table, "guided t/checks"))

    def test_e4_both_methods_find_residues(self):
        table, _ = _run("E4")
        for cell in _column(table, "residues (graph/exh)"):
            graph, exhaustive = map(int, cell.split("/"))
            assert graph == exhaustive > 0

    def test_e5_only_null_ics_cost_guided_checks(self):
        table, _ = _run("E5")
        checks = {row[0]: [] for row in table.rows}
        for row in table.rows:
            checks[row[0]].append(row[-1])
        assert checks["elimination (3.2)"] == [0, 0, 0]
        assert all(count > 0 for count in checks["pruning (4.3)"])

    def test_e6_pushes_under_both_binding_patterns(self):
        table, compared = _run("E6")
        assert _column(table, "answers equal") == ["yes", "yes"]
        assert all(_percent(cell) > 0
                   for cell in _column(table, "row savings"))
        (free_plain, _), (bound_plain, _) = compared
        assert bound_plain.answers < free_plain.answers
        assert {row[0] for row in bound_plain.answers} == {"p0"}

    def test_e7(self):
        table, _ = _run("E7")
        assert len(table.rows) == 4
        by_name = {row[0]: row for row in table.rows}
        # Every example has sequence-level residues the rule-level
        # reading misses.
        for name in ("example_2_1", "example_3_2", "example_4_3"):
            assert by_name[name][2] > 0
            assert by_name[name][2] > by_name[name][3] or \
                by_name[name][3] == 0
        example = example_2_1()
        ic = example.ic("ic")
        sequences = {item.sequence for item in
                     generate_residues(Program(example.program.rules),
                                       "p", ic)}
        assert ("r0", "r0", "r0") in sequences
        assert all(len(item.sequence) == 1
                   for item in rule_level_residues(example.program, ic))

    def test_e8(self):
        table, _ = _run("E8")
        trees = {row[0] for row in table.rows}
        assert trees == {"r0", "r1 r2", "r3"}
        subsumed = {row[0]: row[1] for row in table.rows}
        assert subsumed["r3"] == "yes"
        assert "context suffices: True" in " ".join(table.notes)

    def test_e9_pruning_saves_rows_and_keeps_answers(self):
        table, _ = _run("E9")
        assert _column(table, "answers equal") == ["yes"] * 4
        for row in table.rows:
            plain, pruned = row[2], row[3]
            assert plain > 0 and pruned < plain

    def test_e10_the_default_beats_plain_and_minimization_does_not(self):
        table, _ = _run("E10")
        by_name = {row[0]: row for row in table.rows}
        ratio = {name: _percent(row[3]) for name, row in by_name.items()}
        assert ratio["plain (no optimization)"] == 100.0
        assert ratio["periodic + chase guard (default)"] < 100.0
        # The redundancy is cross-instance: minimization finds none.
        assert ratio["minimization only"] == 100.0
        assert ratio["rule-level baseline"] == 100.0


#: The committed record of ``repro experiments --csv-dir results``.
RESULTS = Path(__file__).resolve().parent.parent / "results"


def _csv_rows(text):
    return list(csv.reader(line for line in text.splitlines()
                           if not line.startswith("#")))


def _counter_part(header, cell):
    """``cell`` without its timing: None for a timing column, the count
    of a "<time> <count>" cell ("t/rows", "t/lookups", "t/checks"), else
    the cell itself."""
    if header.endswith(" ms") or "total" in header:
        return None
    if "t/" in header:
        return cell.split()[-1]
    return cell


class TestRecordedCounters:
    """The paper's counter record: re-running each experiment at its
    default sizes reproduces every non-timing cell of ``results/E*.csv``
    — the rows, lookups and residue checks each engine configuration
    spends, so a kernel that miscounts shows here."""

    @pytest.mark.parametrize("name", list(experiments.ALL_EXPERIMENTS))
    def test_counter_cells_equal_the_record(self, name, tmp_path):
        table, _ = _run(name)
        path = tmp_path / f"{name}.csv"
        table.to_csv(path)
        fresh = _csv_rows(path.read_text(encoding="utf-8"))
        recorded = _csv_rows(
            (RESULTS / f"{name}.csv").read_text(encoding="utf-8"))
        headers = recorded[0]
        assert fresh[0] == headers and len(fresh) == len(recorded)
        counted = 0
        for fresh_row, recorded_row in zip(fresh[1:], recorded[1:]):
            for header, new, old in zip(headers, fresh_row, recorded_row):
                part = _counter_part(header, old)
                if part is not None:
                    assert _counter_part(header, new) == part, \
                        (name, header, recorded_row[0])
                    counted += 1
        assert counted


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
