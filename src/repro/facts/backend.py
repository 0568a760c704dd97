"""Tuple storage for :class:`~repro.facts.relation.Relation`.

A :class:`Relation` owns the *semantics* of a stored predicate — arity
checks, value/code translation against a shared symbol table — while
the physical row container and its hash indexes live in its
:class:`DictBackend`: a ``set`` of tuples plus on-demand ``dict``
indexes.

- ``rows`` is the storage-domain row **set** (read-only to callers; the
  kernels' scans and negation membership tests probe it directly);
- ``indexes`` maps a sorted column tuple to the live hash index over
  those columns (read-only to callers; kernel probes resolve buckets
  from it directly);
- every **mutation** goes through the backend's methods, which keep
  every live index current.

Every backend carries a ``(uid, version)`` identity: ``uid`` is
unique per backend instance and ``version`` bumps on every mutation that
changed content.  The generated kernels' column-level predicate cache
(:mod:`repro.engine.codegen`) stamps memoized check results with this
pair, so the *invalidation rule* is simply "any content change bumps the
version and the stale entry is replaced".

Three index families are maintained:

- ``indexes`` — tuple-keyed multi-column indexes (``index_for``);
- ``code_indexes`` — single-column indexes keyed by the **bare** stored
  value (``code_index_for``), saving a 1-tuple allocation + hash per
  probe on the single-column joins that dominate recursive workloads;
- ``proj_indexes`` — projection indexes mapping a bare key-column value
  to the list of *another column's* entries for matching rows
  (``projection_index``), so a final join level can emit projected
  values without touching row tuples at all.
"""

from __future__ import annotations

import itertools
from typing import Any, Collection, Iterable, Iterator

Row = tuple[Any, ...]

#: A hash index: bound-column key tuple -> list of rows with those values.
Index = dict[tuple[Any, ...], list[Row]]

#: Monotone source of backend identities (see ``DictBackend.uid``).
_uids = itertools.count(1)


class DictBackend:
    """A row set plus on-demand hash indexes."""

    __slots__ = ("rows", "indexes", "code_indexes", "proj_indexes",
                 "uid", "version")

    def __init__(self, rows: Iterable[Row] | None = None) -> None:
        self.rows: set[Row] = set(rows) if rows is not None else set()
        self.indexes: dict[tuple[int, ...], Index] = {}
        self.code_indexes: dict[int, dict[Any, list[Row]]] = {}
        self.proj_indexes: dict[tuple[int, int], dict[Any, list[Any]]] = {}
        self.uid = next(_uids)
        self.version = 0

    # -- container ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: Row) -> bool:
        return row in self.rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    # -- mutation -----------------------------------------------------------
    def insert(self, row: Row) -> bool:
        """Insert one row; True when it was new."""
        if row in self.rows:
            return False
        self.rows.add(row)
        for columns, index in self.indexes.items():
            key = tuple(row[c] for c in columns)
            index.setdefault(key, []).append(row)
        for column, cindex in self.code_indexes.items():
            cindex.setdefault(row[column], []).append(row)
        for (kcol, vcol), pindex in self.proj_indexes.items():
            pindex.setdefault(row[kcol], []).append(row[vcol])
        self.version += 1
        return True

    def add_new(self, rows: Iterable[Row]) -> list[Row]:
        """Insert rows one by one (order-preserving); returns the new ones."""
        store = self.rows
        new_rows: list[Row] = []
        for row in rows:
            if row not in store:
                store.add(row)
                new_rows.append(row)
        self.extend_indexes(new_rows)
        return new_rows

    def merge_new(self, rows: Collection[Row]) -> set[Row]:
        """Bulk insert via one C-level set difference; returns new rows.

        The result stays a set: merging it here — and into a delta
        relation by :meth:`merge` — is a set-to-set update, which reuses
        the stored hashes instead of re-hashing every new row twice.
        It is built by ``difference``, not ``difference_update``: the
        latter would hand back the table sized for the whole derived
        batch, and with the caller holding that while the delta is
        filled, peak memory on ``genealogy-prune`` rose 7 %.
        """
        fresh = set(rows).difference(self.rows)
        if fresh:
            self.rows |= fresh
            self.extend_indexes(fresh)
        return fresh

    def merge(self, rows: Collection[Row]) -> None:
        """Bulk insert of rows known to be absent (no duplicate screen).

        ``rows`` is copied in, never adopted as the row set.
        """
        self.rows.update(rows)
        self.extend_indexes(rows)

    def remove(self, row: Row) -> bool:
        """Remove one row; True when it was present."""
        if row not in self.rows:
            return False
        self.rows.remove(row)
        for columns, index in self.indexes.items():
            key = tuple(row[c] for c in columns)
            bucket = index.get(key)
            if bucket is not None:
                bucket.remove(row)
                if not bucket:
                    del index[key]
        for column, cindex in self.code_indexes.items():
            bucket = cindex.get(row[column])
            if bucket is not None:
                bucket.remove(row)
                if not bucket:
                    del cindex[row[column]]
        for (kcol, vcol), pindex in self.proj_indexes.items():
            bucket = pindex.get(row[kcol])
            if bucket is not None:
                bucket.remove(row[vcol])
                if not bucket:
                    del pindex[row[kcol]]
        self.version += 1
        return True

    def clear(self) -> None:
        self.rows.clear()
        self.indexes.clear()
        self.code_indexes.clear()
        self.proj_indexes.clear()
        self.version += 1

    # -- indexes ------------------------------------------------------------
    def extend_indexes(self, new_rows: Collection[Row]) -> None:
        """Append already-stored ``new_rows`` to every live index.

        Single-column indexes — the overwhelmingly common case in the
        engines' joins — take a fast path that builds the one-element
        key directly instead of a generator expression per row.
        """
        if not new_rows:
            return
        for columns, index in self.indexes.items():
            if len(columns) == 1:
                column = columns[0]
                get = index.get
                for row in new_rows:
                    key = (row[column],)
                    bucket = get(key)
                    if bucket is None:
                        index[key] = [row]
                    else:
                        bucket.append(row)
            else:
                for row in new_rows:
                    index.setdefault(
                        tuple(row[c] for c in columns), []).append(row)
        for column, cindex in self.code_indexes.items():
            get = cindex.get
            for row in new_rows:
                code = row[column]
                bucket = get(code)
                if bucket is None:
                    cindex[code] = [row]
                else:
                    bucket.append(row)
        for (kcol, vcol), pindex in self.proj_indexes.items():
            get = pindex.get
            for row in new_rows:
                code = row[kcol]
                bucket = get(code)
                if bucket is None:
                    pindex[code] = [row[vcol]]
                else:
                    bucket.append(row[vcol])
        self.version += 1

    def index_for(self, columns: tuple[int, ...]) -> Index:
        """The live hash index over ``columns`` (built on first use)."""
        index = self.indexes.get(columns)
        if index is None:
            index = self._build_index(columns)
        return index

    def _build_index(self, columns: tuple[int, ...]) -> Index:
        index: Index = {}
        if len(columns) == 1:
            column = columns[0]
            get = index.get
            for row in self.rows:
                key = (row[column],)
                bucket = get(key)
                if bucket is None:
                    index[key] = [row]
                else:
                    bucket.append(row)
        else:
            for row in self.rows:
                index.setdefault(
                    tuple(row[c] for c in columns), []).append(row)
        self.indexes[columns] = index
        return index

    def code_index_for(self, column: int) -> dict[Any, list[Row]]:
        """A single-column index keyed by the **bare** stored value.

        Unlike ``index_for((column,))`` the keys are the column values
        themselves, not 1-tuples — the generated kernels probe it with
        ``index.get(code)`` and never allocate a key tuple per row.
        """
        index = self.code_indexes.get(column)
        if index is None:
            index = {}
            get = index.get
            for row in self.rows:
                code = row[column]
                bucket = get(code)
                if bucket is None:
                    index[code] = [row]
                else:
                    bucket.append(row)
            self.code_indexes[column] = index
        return index

    def projection_index(self, key_column: int,
                         value_column: int) -> dict[Any, list[Any]]:
        """Bare key-column value -> list of ``value_column`` entries.

        One entry per matching row (a multiset, so duplicate projected
        values are preserved and the generated kernels' row counts stay
        exact).  Lets a final join level emit projected head values
        without indexing into row tuples at all.
        """
        key = (key_column, value_column)
        proj = self.proj_indexes.get(key)
        if proj is None:
            proj = {}
            get = proj.get
            for row in self.rows:
                code = row[key_column]
                bucket = get(code)
                if bucket is None:
                    proj[code] = [row[value_column]]
                else:
                    bucket.append(row[value_column])
            self.proj_indexes[key] = proj
        return proj

    def build_indexes_like(self, other: "DictBackend") -> None:
        """Build every index column set ``other`` holds and this lacks.

        A relation that replaces ``other`` for the same readers (a
        compacted snapshot base) warms here, on the writer's clock, the
        indexes those readers probe — so none of them pays a cold build.
        The key lists are taken atomically: a reader may be adding an
        index to ``other`` while this runs.
        """
        for columns in list(other.indexes):
            self.index_for(columns)
        for column in list(other.code_indexes):
            self.code_index_for(column)
        for key_column, value_column in list(other.proj_indexes):
            self.projection_index(key_column, value_column)

    # -- lifecycle ----------------------------------------------------------
    def copy(self) -> "DictBackend":
        """An independent backend with the same rows.

        Indexes are **not** carried: they rebuild lazily on first probe
        (:meth:`index_for`), so snapshot-style copies — serving's
        published snapshots, incremental maintenance's before/mid state
        reconstruction — pay O(rows) for the set copy and nothing for
        indexes the copy never probes.  The copy gets a fresh
        ``(uid, version)`` identity so cached predicate checks against
        the source never leak to it.
        """
        out = DictBackend.__new__(DictBackend)
        out.rows = set(self.rows)
        out.indexes = {}
        out.code_indexes = {}
        out.proj_indexes = {}
        out.uid = next(_uids)
        out.version = 0
        return out

    def warm_copy(self) -> "DictBackend":
        """:meth:`copy` plus a duplicate of every live index.

        Costs one list copy per bucket on top of the set copy, which is
        why :meth:`copy` does not do it.  For a *small* backend whose
        readers probe the same indexes again at once — the patch of a
        published snapshot (:class:`~repro.facts.relation.
        PatchedRelation`) — it is cheaper than the rebuild.  The item
        lists are taken atomically: a reader may be adding an index to
        this backend while the writer copies it.
        """
        def duplicate(family: dict[Any, dict[Any, list[Any]]]
                      ) -> dict[Any, dict[Any, list[Any]]]:
            return {columns: {key: bucket[:]
                              for key, bucket in index.items()}
                    for columns, index in list(family.items())}

        out = self.copy()
        out.indexes = duplicate(self.indexes)
        out.code_indexes = duplicate(self.code_indexes)
        out.proj_indexes = duplicate(self.proj_indexes)
        return out
