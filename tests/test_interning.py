"""Interned columnar storage: symbol tables, raw rows, live indexes.

The storage contract this file pins down: a relation's *value-domain*
API (``add``, ``rows``, ``lookup``) behaves identically whether or not
the relation is interned, the *storage-domain* API (``raw_*``) exposes
dense int codes, and every pre-built hash index stays consistent under
every insert path — the invariant the compiled kernels' pre-resolved
probes depend on.
"""

import warnings

import pytest

from repro.facts import Database, Relation
from repro.facts.symbols import SymbolTable, validate_interning
from repro.errors import EvaluationError


class TestSymbolTable:
    def test_intern_is_idempotent_and_dense(self):
        table = SymbolTable()
        codes = [table.intern(v) for v in ("a", "b", "a", 7, "b")]
        assert codes == [0, 1, 0, 2, 1]
        assert len(table) == 3

    def test_round_trip(self):
        table = SymbolTable()
        row = ("x", 3, "y")
        assert tuple(map(table.value, table.intern_row(row))) == row

    def test_code_of_unknown_value_is_none(self):
        table = SymbolTable()
        table.intern("known")
        assert table.code("unknown") is None
        assert table.code("known") == 0

    def test_distinct_values_get_distinct_codes(self):
        # 1 and "1" and True must not collapse: codes key on the value,
        # and bool is a subtype of int so True == 1 — the table must
        # still keep 1 retrievable as 1.
        table = SymbolTable()
        a, b = table.intern(1), table.intern("1")
        assert a != b
        assert table.value(a) == 1 and table.value(b) == "1"

    def test_validate_interning(self):
        validate_interning("on")
        validate_interning("off")
        with pytest.raises(EvaluationError, match="unknown interning"):
            validate_interning("maybe")


class TestInternedRelation:
    def test_value_api_is_storage_agnostic(self):
        plain = Relation("r", 2, [("a", 1), ("b", 2)])
        interned = Relation("r", 2, [("a", 1), ("b", 2)],
                            symbols=SymbolTable())
        assert plain.rows() == interned.rows()
        assert set(plain) == set(interned)
        assert ("a", 1) in interned
        assert ("z", 9) not in interned

    def test_raw_rows_are_codes(self):
        symbols = SymbolTable()
        rel = Relation("r", 2, [("a", "b")], symbols=symbols)
        (raw,) = rel.raw_rows()
        assert raw == (symbols.code("a"), symbols.code("b"))

    def test_database_interned_preserves_facts(self):
        db = Database({"edge": [("a", "b"), ("b", "c")]})
        coded = db.interned()
        assert coded.symbols is not None
        assert coded.relation("edge").rows() == db.relation("edge").rows()
        # Already-interned databases come back as-is.
        assert coded.interned() is coded

    def test_lookup_decodes(self):
        rel = Relation("r", 2, [("a", 1), ("a", 2), ("b", 1)],
                       symbols=SymbolTable())
        assert set(rel.lookup(((0, "a"),))) == {("a", 1), ("a", 2)}
        assert set(rel.lookup(((0, "nope"),))) == set()


@pytest.fixture(params=["plain", "interned"])
def rel(request):
    symbols = SymbolTable() if request.param == "interned" else None
    return Relation("r", 3, symbols=symbols)


def _assert_indexes_consistent(relation):
    """Every live index must exactly partition the current rows."""
    for columns in list(relation.indexes):
        index = relation.index_for(columns)
        indexed = [row for bucket in index.values() for row in bucket]
        assert sorted(indexed) == sorted(relation.raw_rows())
        for key, bucket in index.items():
            for row in bucket:
                values = tuple(row[c] for c in columns)
                # One column: the bare value; several: the tuple.
                assert (values[0] if len(columns) == 1 else values) == key


class TestLiveIndexMaintenance:
    """Satellite: add/add_all against multiple pre-built indexes."""

    def test_add_updates_every_prebuilt_index(self, rel):
        rel.add(("a", 1, "x"))
        # Build three indexes over different column sets up front.
        for columns in ((0,), (2,), (0, 1)):
            rel.index_for(columns)
        rel.add(("a", 2, "y"))
        rel.add(("b", 1, "x"))
        _assert_indexes_consistent(rel)

    def test_add_all_updates_every_prebuilt_index(self, rel):
        rel.index_for((1,))
        rel.index_for((1, 2))
        rel.add_all([("a", 1, "x"), ("a", 1, "x"), ("b", 2, "y")])
        assert len(rel) == 2
        _assert_indexes_consistent(rel)

    def test_raw_merge_new_updates_indexes_and_screens_duplicates(
            self, rel):
        rel.add(("a", 1, "x"))
        rel.index_for((0,))
        raw_existing = next(iter(rel.raw_rows()))
        fresh = rel.raw_merge_new(
            [raw_existing, raw_existing[:2] + raw_existing[2:]])
        assert fresh == set()  # duplicate of the existing row, twice
        rel.add(("b", 2, "y"))
        raw_new = [row for row in rel.raw_rows() if row != raw_existing]
        other = Relation("s", 3, symbols=rel.symbols)
        other.index_for((2,))
        assert sorted(other.raw_merge_new(raw_new + raw_new)) \
            == sorted(raw_new)
        _assert_indexes_consistent(other)

    def test_raw_merge_trusts_disjointness(self, rel):
        rel.add_all([("a", 1, "x"), ("b", 2, "y")])
        rel.index_for((0, 1, 2))
        sink = Relation("sink", 3, symbols=rel.symbols)
        sink.index_for((1,))
        sink.raw_merge(list(rel.raw_rows()))
        assert len(sink) == 2
        _assert_indexes_consistent(sink)

    def test_clear_then_reuse_rebuilds_indexes(self, rel):
        rel.add_all([("a", 1, "x"), ("b", 2, "y")])
        rel.index_for((0,))
        rel.clear()
        assert len(rel) == 0
        assert rel.index_for((0,)) == {}
        rel.add(("c", 3, "z"))
        _assert_indexes_consistent(rel)
        assert len(rel.index_for((0,))) == 1

    def test_index_buckets_are_read_only_views(self, rel):
        """Mutating a returned bucket must not corrupt the relation."""
        rel.add_all([("a", 1, "x"), ("a", 2, "y")])
        index = rel.index_for((0,))
        (key,) = index
        assert len(index[key]) == 2
        # The contract is read-only access; the store must not depend
        # on callers keeping their hands off the backing set.
        assert len(rel.raw_rows()) == 2
        rel.add(("b", 1, "x"))
        assert len(rel.index_for((0,))) == 2


class TestStatistics:
    def test_distinct_count_scan_and_cache(self):
        rel = Relation("r", 2, [("a", 1), ("a", 2), ("b", 2)])
        assert rel.distinct_count(0) == 2
        assert rel.distinct_count(1) == 2
        rel.add(("c", 3))
        # Cache keyed by cardinality: must see the new value.
        assert rel.distinct_count(0) == 3

    def test_distinct_count_reads_live_index_for_free(self):
        rel = Relation("r", 2, [("a", 1), ("a", 2), ("b", 2)])
        index = rel.index_for((0,))
        assert rel.distinct_count(0) == len(index) == 2

    def test_probe_estimate_independence_model(self):
        rel = Relation("r", 2,
                       [(x, y) for x in "ab" for y in range(5)])
        assert rel.probe_estimate(()) == 10.0
        assert rel.probe_estimate((0,)) == pytest.approx(5.0)
        assert rel.probe_estimate((0, 1)) == pytest.approx(1.0)

    def test_probe_estimate_on_empty_relation(self):
        rel = Relation("r", 2)
        assert rel.probe_estimate((0,)) == 0.0
