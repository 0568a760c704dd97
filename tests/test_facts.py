"""Unit tests for repro.facts: relations and databases."""

import pytest

from repro.datalog.atoms import atom
from repro.errors import EvaluationError
from repro.facts import (Changeset, Database, Relation, SymbolTable,
                         VersionedDatabase)


class TestRelation:
    def test_add_dedupes(self):
        rel = Relation("r", 2)
        assert rel.add(("a", "b"))
        assert not rel.add(("a", "b"))
        assert len(rel) == 1

    def test_arity_enforced(self):
        rel = Relation("r", 2)
        with pytest.raises(ValueError):
            rel.add(("a",))

    def test_negative_arity_rejected(self):
        with pytest.raises(ValueError):
            Relation("r", -1)

    def test_zero_arity(self):
        rel = Relation("flag", 0)
        assert rel.add(())
        assert () in rel

    def test_lookup_full_scan(self):
        rel = Relation("r", 2, [("a", 1), ("b", 2)])
        assert set(rel.lookup(())) == {("a", 1), ("b", 2)}

    def test_lookup_by_column(self):
        rel = Relation("r", 2, [("a", 1), ("a", 2), ("b", 1)])
        assert set(rel.lookup(((0, "a"),))) == {("a", 1), ("a", 2)}
        assert set(rel.lookup(((1, 1),))) == {("a", 1), ("b", 1)}

    def test_lookup_multi_column(self):
        rel = Relation("r", 3, [("a", 1, "x"), ("a", 2, "x")])
        assert set(rel.lookup(((0, "a"), (2, "x")))) == \
            {("a", 1, "x"), ("a", 2, "x")}
        assert set(rel.lookup(((0, "a"), (1, 2)))) == {("a", 2, "x")}

    def test_index_sees_later_inserts(self):
        rel = Relation("r", 2, [("a", 1)])
        list(rel.lookup(((0, "a"),)))  # build the index
        rel.add(("a", 2))
        assert set(rel.lookup(((0, "a"),))) == {("a", 1), ("a", 2)}

    def test_lookup_matches_filter_scan(self):
        rows = [(i % 3, i % 5) for i in range(30)]
        rel = Relation("r", 2, rows)
        for value in range(3):
            expected = {row for row in rel if row[0] == value}
            assert set(rel.lookup(((0, value),))) == expected

    def test_copy_is_independent(self):
        rel = Relation("r", 1, [("a",)])
        cloned = rel.copy()
        cloned.add(("b",))
        assert len(rel) == 1 and len(cloned) == 2

    def test_copy_rebuilds_indexes_lazily(self):
        rel = Relation("r", 2, [("a", 1), ("a", 2), ("b", 1)])
        rel.index_for((0,))
        cloned = rel.copy()
        # Indexes are not carried: the copy pays only the row-set copy
        # and rebuilds an index on its first probe.
        assert (0,) not in cloned.indexes
        # Nothing is aliased: mutations on either side leave the
        # other's index answers intact.
        cloned.add(("a", 3))
        cloned.discard(("b", 1))
        assert set(rel.lookup(((0, "a"),))) == {("a", 1), ("a", 2)}
        assert set(rel.lookup(((0, "b"),))) == {("b", 1)}
        assert set(cloned.lookup(((0, "a"),))) == \
            {("a", 1), ("a", 2), ("a", 3)}
        assert set(cloned.lookup(((0, "b"),))) == set()


class TestRawMerge:
    def test_merge_new_empty_batch(self):
        rel = Relation("r", 2, [("a", 1)])
        rel.index_for((0,))
        assert rel.raw_merge_new([]) == set()
        assert len(rel) == 1
        assert set(rel.lookup(((0, "a"),))) == {("a", 1)}

    def test_merge_new_fully_overlapping_batch(self):
        rows = [("a", 1), ("b", 2)]
        rel = Relation("r", 2, rows)
        rel.index_for((1,))
        assert rel.raw_merge_new(list(rows)) == set()
        assert len(rel) == 2
        # No duplicate index entries either.
        assert list(rel.lookup(((1, 1),))) == [("a", 1)]

    def test_merge_new_screens_duplicates_within_batch(self):
        rel = Relation("r", 1, [("a",)])
        fresh = rel.raw_merge_new([("a",), ("b",), ("b",), ("c",)])
        assert sorted(fresh) == [("b",), ("c",)]
        assert len(rel) == 3

    def test_merge_new_extends_live_indexes(self):
        rel = Relation("r", 2, [("a", 1)])
        rel.index_for((0,))
        rel.raw_merge_new([("a", 2), ("b", 1)])
        assert set(rel.lookup(((0, "a"),))) == {("a", 1), ("a", 2)}
        assert set(rel.lookup(((0, "b"),))) == {("b", 1)}

    def test_raw_merge_extends_live_indexes(self):
        rel = Relation("r", 2, [("a", 1)])
        rel.index_for((0,))
        rel.raw_merge([("a", 2)])  # caller-guaranteed disjoint
        assert len(rel) == 2
        assert set(rel.lookup(((0, "a"),))) == {("a", 1), ("a", 2)}

    def test_raw_merge_empty_batch(self):
        rel = Relation("r", 2, [("a", 1)])
        rel.raw_merge([])
        assert len(rel) == 1

    def test_merge_new_interned_storage_domain(self):
        symbols = SymbolTable()
        rel = Relation("r", 1, symbols=symbols)
        rel.add(("x",))
        coded_y = symbols.intern_row(("y",))
        assert rel.raw_merge_new([coded_y]) == {coded_y}
        assert rel.rows() == {("x",), ("y",)}


# ---------------------------------------------------------------------------
# Storage contract (was tests/test_backends.py, a conformance suite over
# the one-implementation StorageBackend protocol; same behaviours, checked
# through the Relation, which is the store since PR 19)
# ---------------------------------------------------------------------------

ROWS = [(1, 2), (2, 3), (2, 4), (5, 2)]


class TestStorageRows:
    def test_backend_parameter_is_gone(self):
        with pytest.raises(ImportError):
            import repro.facts.backend  # noqa: F401
        with pytest.raises(ImportError):
            from repro.facts import DictBackend  # noqa: F401
        with pytest.raises(ImportError):
            from repro.facts import StorageBackend  # noqa: F401
        with pytest.raises(TypeError):
            Relation("r", 2, backend=object())
        assert not hasattr(Relation("r", 2), "backend")

    def test_raw_add_contains_len_iter(self):
        rel = Relation("r", 2)
        assert rel.raw_add((1, 2))
        assert not rel.raw_add((1, 2))
        assert rel.raw_add((2, 3))
        assert (1, 2) in rel and (9, 9) not in rel
        assert len(rel) == 2
        assert sorted(rel) == [(1, 2), (2, 3)]

    def test_raw_add_all_counts_only_fresh_rows(self):
        rel = Relation("r", 2, [(1, 2)])
        assert rel.raw_add_all([(1, 2), (2, 3), (2, 3), (5, 2)]) == 2
        assert len(rel) == 3
        # The list of new rows `DictBackend.add_new` returned is gone
        # with it: nothing read it but this count, and no delta relies
        # on its order (deltas are filled by `raw_merge` of a set).
        assert rel.raw_add_all([(7, 7), (1, 2), (8, 8)]) == 2
        assert sorted(rel.raw_rows())[-2:] == [(7, 7), (8, 8)]

    def test_merge_new_returns_the_fresh_rows(self):
        rel = Relation("r", 2, [(1, 2), (2, 3)])
        assert sorted(rel.raw_merge_new(ROWS)) == [(2, 4), (5, 2)]
        assert sorted(rel) == sorted(ROWS)
        assert rel.raw_merge_new(ROWS) == set()

    def test_raw_discard(self):
        rel = Relation("r", 2, ROWS)
        assert rel.raw_discard((2, 3))
        assert not rel.raw_discard((2, 3))
        assert (2, 3) not in rel
        assert len(rel) == len(ROWS) - 1
        assert rel.raw_discard_all([(1, 2), (1, 2), (9, 9)]) == [(1, 2)]

    def test_clear_drops_rows_and_indexes(self):
        rel = Relation("r", 2, ROWS)
        rel.index_for((0,))
        rel.clear()
        assert len(rel) == 0
        assert rel.index_for((0,)) == {}


class TestStorageIndexFamilies:
    def test_index_for_groups_rows(self):
        rel = Relation("r", 2, ROWS)
        assert sorted(rel.index_for((0,))[2]) == [(2, 3), (2, 4)]
        assert rel.index_for((0, 1))[(5, 2)] == [(5, 2)]

    def test_code_index_keys_are_bare_values(self):
        rel = Relation("r", 2, ROWS)
        index = rel.index_for((0,))
        assert sorted(index[2]) == [(2, 3), (2, 4)]
        assert (2,) not in index

    def test_projection_index_is_a_multiset(self):
        rel = Relation("r", 2, [(1, 7), (2, 7), (2, 7)])
        # Rows dedup, but two distinct rows projecting the same value
        # must keep both entries — the kernels' row counts depend on it.
        rel.raw_add((3, 7))
        assert sorted(rel.projection_index(1, 1)[7]) == [7, 7, 7]
        assert rel.projection_index(0, 1)[2] == [7]

    @pytest.mark.parametrize("mutate", ["raw_add", "raw_add_all",
                                        "raw_merge_new", "raw_merge"])
    def test_live_indexes_track_inserts(self, mutate):
        rel = Relation("r", 2, ROWS)
        bare = rel.index_for((0,))
        pair = rel.index_for((0, 1))
        proj = rel.projection_index(0, 1)
        row = (2, 9)
        getattr(rel, mutate)(row if mutate == "raw_add" else [row])
        assert row in pair[(2, 9)]
        assert row in bare[2]
        assert 9 in proj[2]

    def test_live_indexes_track_removals(self):
        rel = Relation("r", 2, ROWS)
        pair = rel.index_for((0, 1))
        bare = rel.index_for((0,))
        proj = rel.projection_index(0, 1)
        rel.raw_discard((2, 3))
        assert (2, 3) not in pair and pair[(2, 4)] == [(2, 4)]
        assert bare[2] == [(2, 4)]
        assert proj[2] == [4]
        rel.raw_discard((2, 4))
        assert (2, 4) not in pair and 2 not in bare and 2 not in proj


class TestStorageIdentity:
    def test_copy_shares_no_index_with_its_source(self):
        rel = Relation("r", 2, ROWS)
        source_index = rel.index_for((0,))
        clone = rel.copy()
        clone.raw_add((2, 9))
        rel.raw_discard((1, 2))
        assert (2, 9) not in rel and (1, 2) in clone
        clone_index = clone.index_for((0,))
        assert clone_index is not source_index
        assert sorted(clone_index[2]) == [(2, 3), (2, 4), (2, 9)]
        assert sorted(source_index[2]) == [(2, 3), (2, 4)]

    def test_copy_gets_fresh_cache_identity(self):
        rel = Relation("r", 2, ROWS)
        rel.raw_add((7, 7))
        clone = rel.copy()
        assert clone.uid != rel.uid
        assert clone.version == 0
        assert clone.name == "r" and clone.arity == 2

    def test_version_bumps_on_content_change_only(self):
        rel = Relation("r", 2)
        v0 = rel.version
        rel.index_for((0,))             # pure index build: no change
        rel.index_for((0, 1))
        assert rel.version == v0
        rel.raw_add((1, 2))
        v1 = rel.version
        assert v1 > v0
        rel.raw_add((1, 2))             # duplicate: content unchanged
        assert rel.version == v1
        rel.raw_merge_new([(1, 2)])     # all-duplicate bulk: unchanged
        assert rel.version == v1
        rel.raw_discard((1, 2))
        assert rel.version > v1


class TestDatabase:
    def test_add_and_facts(self):
        db = Database()
        assert db.add_fact("p", "a", 1)
        assert not db.add_fact("p", "a", 1)
        assert db.facts("p") == {("a", 1)}

    def test_unknown_relation(self):
        db = Database()
        assert db.facts("missing") == frozenset()
        with pytest.raises(EvaluationError):
            db.relation("missing")

    def test_arity_conflict(self):
        db = Database()
        db.add_fact("p", "a")
        with pytest.raises(EvaluationError):
            db.ensure("p", 2)

    def test_add_atom_requires_ground(self):
        db = Database()
        db.add_atom(atom("p", "a", 3))
        assert db.facts("p") == {("a", 3)}
        with pytest.raises(EvaluationError):
            db.add_atom(atom("p", "X"))

    def test_from_text_rejects_rules(self):
        with pytest.raises(EvaluationError):
            Database.from_text("p(X) :- q(X).")

    def test_text_roundtrip(self):
        db = Database.from_text("""
            par(ann, 90, bob, 60).
            par(bob, 60, carl, 30).
            likes(ann, 'New York').
        """)
        again = Database.from_text(db.to_text())
        assert again == db

    def test_merge_and_copy(self):
        left = Database({"p": [("a",)]})
        right = Database({"p": [("b",)], "q": [("c", 1)]})
        snapshot = left.copy()
        added = left.merge(right)
        assert added == 2
        assert left.facts("p") == {("a",), ("b",)}
        assert snapshot.facts("p") == {("a",)}

    def test_total_facts(self, chain_db):
        assert chain_db.total_facts() == 3

    def test_equality_covers_all_predicates(self):
        a = Database({"p": [("x",)]})
        b = Database({"p": [("x",)], "q": [("y",)]})
        assert a != b
        b2 = Database({"p": [("x",)]})
        assert a == b2

    def test_constructor_from_mapping(self):
        db = Database({"edge": [("a", "b"), ("b", "c")]})
        assert len(db.relation("edge")) == 2


class TestInternedDatabase:
    def test_merge_with_shared_symbol_table(self):
        symbols = SymbolTable()
        left = Database({"p": [("a",)], "q": [("c", 1)]}).interned(symbols)
        right = Database({"p": [("a",), ("b",)]}).interned(symbols)
        added = left.merge(right)
        assert added == 1
        assert left.facts("p") == {("a",), ("b",)}
        assert left.facts("q") == {("c", 1)}
        assert left.symbols is symbols and right.symbols is symbols

    def test_merge_raw_into_interned(self):
        interned = Database({"p": [("a",)]}).interned()
        raw = Database({"p": [("b",)]})
        assert interned.merge(raw) == 1
        assert interned.facts("p") == {("a",), ("b",)}
        # Merging never switches the storage mode of the target.
        assert interned.symbols is not None and raw.symbols is None

    def test_copy_shares_symbol_table_but_not_rows(self):
        symbols = SymbolTable()
        db = Database({"p": [("a",)]}).interned(symbols)
        cloned = db.copy()
        assert cloned.symbols is symbols
        cloned.add_fact("p", "b")
        assert db.facts("p") == {("a",)}
        assert cloned.facts("p") == {("a",), ("b",)}
        # The new constant landed in the shared table, so both sides
        # decode it identically.
        assert symbols.code("b") is not None

    def test_interned_is_idempotent(self):
        db = Database({"p": [("a",)]}).interned()
        assert db.interned() is db


# ---------------------------------------------------------------------------
# The change log: atomic apply, and the log position invariant
# ---------------------------------------------------------------------------

class TestVersionedDatabase:
    @staticmethod
    def _source(interned):
        db = Database(symbols=SymbolTable() if interned else None)
        db.add_fact("edge", "a", "b")
        db.add_fact("edge", "b", "c")
        return VersionedDatabase(db)

    @pytest.mark.parametrize("interned", [False, True])
    @pytest.mark.parametrize("text", [
        # A later row of the wrong arity, after a delete and an insert
        # that would both have landed.
        "-edge(a, b). +edge(c, d). +edge(x, y, z).",
        # The wrong arity first, against the stored relation.
        "-edge(a, b). +edge(x, y, z).",
        # Mixed arities within the changeset, on a brand-new relation.
        "-edge(a, b). +fresh(p). +fresh(q, r).",
        # A delete of the wrong arity is a malformed changeset too.
        "+edge(c, d). -edge(a).",
    ])
    def test_apply_is_atomic_on_an_arity_mismatch(self, interned, text):
        source = self._source(interned)
        with pytest.raises(EvaluationError) as exc:
            source.apply(Changeset.from_text(text))
        message = str(exc.value)
        pred = "fresh" if "fresh" in text else "edge"
        assert pred in message and "arity" in message
        assert source.db.facts("edge") == {("a", "b"), ("b", "c")}
        assert source.db.predicates() == {"edge"}
        assert source.version == 0 and source.log == []

    def test_mismatch_message_names_both_arities(self):
        source = self._source(False)
        with pytest.raises(EvaluationError,
                           match=r"edge.*arity 3.*arity 2"):
            source.apply(Changeset.from_text("+edge(x, y, z)."))

    def test_a_valid_changeset_still_applies_and_logs_its_effect(self):
        source = self._source(True)
        assert source.apply(Changeset.from_text(
            "-edge(a, b). -edge(q, q). +edge(c, d). +edge(b, c). "
            "+fresh(p).")) == 1
        assert source.db.facts("edge") == {("b", "c"), ("c", "d")}
        effective = source.log[0].changeset
        assert effective.deletes == {"edge": {("a", "b")}}
        assert effective.inserts == {"edge": {("c", "d")},
                                     "fresh": {("p",)}}

    def test_log_entry_v_sits_at_index_v_minus_one(self):
        """The invariant ``changes_since`` slices on, and its equality
        with a scan of the whole log."""
        source = self._source(False)
        for text in ("+edge(c, d).", "-edge(a, b).", "+edge(a, b).",
                     "+edge(q, q). -edge(q, q).", "-edge(c, d). +edge(d, e)."):
            source.apply(Changeset.from_text(text))
        assert [entry.version for entry in source.log] \
            == [index + 1 for index in range(len(source.log))]
        for version in range(source.version + 1):
            scanned = Changeset()
            for entry in source.log:
                if entry.version > version:
                    scanned = scanned.compose(entry.changeset)
            assert source.changes_since(version) == scanned
        assert source.changes_since(source.version).is_empty
        with pytest.raises(EvaluationError):
            source.changes_since(source.version + 1)
