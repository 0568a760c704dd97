"""Tests for CSV import/export."""

import pytest

from repro.errors import EvaluationError
from repro.facts import Database
from repro.facts.io import (load_csv, load_directory, save_csv,
                            save_directory)


class TestLoadCSV:
    def test_type_inference(self, tmp_path):
        path = tmp_path / "par.csv"
        path.write_text("bob,30,ann,72.5\ncal,7,bob,30\n")
        db = Database()
        added = load_csv(db, "par", path)
        assert added == 2
        assert ("bob", 30, "ann", 72.5) in db.facts("par")

    def test_explicit_types(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("001,1\n")
        db = Database()
        load_csv(db, "p", path, types="str,int")
        assert db.facts("p") == {("001", 1)}

    def test_bad_type_signature(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b\n")
        with pytest.raises(EvaluationError):
            load_csv(Database(), "p", path, types="str,datetime")

    def test_unparsable_cell(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("x\n")
        with pytest.raises(EvaluationError):
            load_csv(Database(), "p", path, types="int")

    def test_column_count_mismatch(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,b,c\n")
        with pytest.raises(EvaluationError):
            load_csv(Database(), "p", path, types="str,str")

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("name,age\nbob,30\n")
        db = Database()
        assert load_csv(db, "p", path, header=True) == 1

    def test_duplicates_not_recounted(self, tmp_path):
        path = tmp_path / "p.csv"
        path.write_text("a,1\na,1\n")
        db = Database()
        assert load_csv(db, "p", path) == 1


class TestRoundTrip:
    def test_save_and_reload(self, tmp_path, chain_db):
        path = tmp_path / "edge.csv"
        written = save_csv(chain_db, "edge", path)
        assert written == 3
        db = Database()
        load_csv(db, "edge", path)
        assert db.facts("edge") == chain_db.facts("edge")

    def test_directory_round_trip(self, tmp_path):
        db = Database({"edge": [("a", "b")], "age": [("a", 30)]})
        total = save_directory(db, tmp_path / "out")
        assert total == 2
        again = load_directory(tmp_path / "out")
        assert again == db

    def test_directory_with_types(self, tmp_path):
        (tmp_path / "id.csv").write_text("007\n")
        db = load_directory(tmp_path, types={"id": "str"})
        assert db.facts("id") == {("007",)}

    def test_interning_is_not_a_load_option(self, tmp_path):
        with pytest.raises(TypeError):
            load_directory(tmp_path, interning=True)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(EvaluationError):
            load_directory(tmp_path / "nope")

    def test_evaluation_over_loaded_data(self, tmp_path, tc_program):
        (tmp_path / "edge.csv").write_text("a,b\nb,c\n")
        db = load_directory(tmp_path)
        from repro.engine import evaluate
        assert evaluate(tc_program, db).count("reach") == 3
