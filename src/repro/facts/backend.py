"""Pluggable tuple-storage backends for :class:`~repro.facts.relation.Relation`.

A :class:`Relation` owns the *semantics* of a stored predicate — arity
checks, value/code translation against a shared symbol table, statistics
— while the physical row container and its hash indexes live behind a
*storage backend*.  The contract is deliberately small and concrete:

- ``rows`` is the storage-domain row **set** (read-only to callers; the
  kernels' scans and negation membership tests probe it directly);
- ``indexes`` maps a sorted column tuple to the live hash index over
  those columns (read-only to callers; kernel probes resolve buckets
  from it directly);
- every **mutation** goes through the backend's methods, so a backend
  that maintains extra structure (columnar arrays, a write-ahead log)
  observes every insert and delete.

Every backend also carries a ``(uid, version)`` identity: ``uid`` is
unique per backend instance and ``version`` bumps on every mutation that
changed content.  The vectorized executor's column-level predicate cache
(:mod:`repro.engine.vectorize`) keys memoized check results on this pair,
so the *invalidation rule* is simply "any content change bumps the
version and orphans the cached entry".

Three index families are maintained:

- ``indexes`` — tuple-keyed multi-column indexes (``index_for``);
- ``code_indexes`` — single-column indexes keyed by the **bare** stored
  value (``code_index_for``), saving a 1-tuple allocation + hash per
  probe on the single-column joins that dominate recursive workloads;
- ``proj_indexes`` — projection indexes mapping a bare key-column value
  to the list of *another column's* entries for matching rows
  (``projection_index``), so a final join level can emit projected
  values without touching row tuples at all.

:class:`DictBackend` is the default: a ``set`` of tuples plus on-demand
``dict`` indexes — semantically exactly the storage the engine always
had.  :class:`ColumnarBackend` mirrors interned rows into per-column
``array('q')`` stores with O(1) copy-on-write snapshots — the substrate
the vectorized executor uses.
"""

from __future__ import annotations

import itertools
from array import array
from typing import (Any, Collection, Iterable, Iterator, Protocol,
                    runtime_checkable)

Row = tuple[Any, ...]

#: A hash index: bound-column key tuple -> list of rows with those values.
Index = dict[tuple[Any, ...], list[Row]]

#: Monotone source of backend identities (see ``StorageBackend.uid``).
_uids = itertools.count(1)


@runtime_checkable
class StorageBackend(Protocol):
    """The storage contract a :class:`Relation` delegates to.

    ``rows`` and ``indexes`` are exposed as plain containers because the
    compiled kernels' hot paths read them without per-probe indirection;
    they must be treated as read-only outside the backend.
    """

    rows: set[Row]
    indexes: dict[tuple[int, ...], Index]
    code_indexes: dict[int, dict[Any, list[Row]]]
    proj_indexes: dict[tuple[int, int], dict[Any, list[Any]]]
    uid: int
    version: int

    def __len__(self) -> int: ...
    def __contains__(self, row: Row) -> bool: ...
    def __iter__(self) -> Iterator[Row]: ...
    def insert(self, row: Row) -> bool: ...
    def add_new(self, rows: Iterable[Row]) -> list[Row]: ...
    def merge_new(self, rows: Collection[Row]) -> list[Row]: ...
    def merge(self, rows: list[Row]) -> None: ...
    def remove(self, row: Row) -> bool: ...
    def clear(self) -> None: ...
    def index_for(self, columns: tuple[int, ...]) -> Index: ...
    def code_index_for(self, column: int) -> dict[Any, list[Row]]: ...
    def projection_index(self, key_column: int,
                         value_column: int) -> dict[Any, list[Any]]: ...
    def copy(self) -> "StorageBackend": ...


class DictBackend:
    """The default backend: a row set plus on-demand hash indexes."""

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

    def merge_new(self, rows: Collection[Row]) -> list[Row]:
        """Bulk insert via one C-level set difference; returns new rows."""
        fresh = set(rows)
        fresh.difference_update(self.rows)
        if not fresh:
            return []
        new_rows = list(fresh)
        self.rows.update(new_rows)
        self.extend_indexes(new_rows)
        return new_rows

    def merge(self, rows: list[Row]) -> None:
        """Bulk insert of rows known to be absent (no duplicate screen)."""
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
    def extend_indexes(self, new_rows: list[Row]) -> None:
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
        themselves, not 1-tuples — the vectorized kernels probe it with
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
        values are preserved and the vectorized kernels' row counts stay
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


class ColumnarBackend(DictBackend):
    """Interned rows mirrored into append-only per-column ``array('q')``.

    The row **set** stays the membership/dedup structure (the engines'
    set-difference bulk inserts and negation probes are untouched), but
    every stored column is also kept as a dense signed-64 array of
    interned codes:

    - ``Relation.column_view`` snapshots are a C-level array copy;
    - :meth:`id_index_for` maps a key-column code to the ``array('q')``
      of row ids carrying it (row-id runs), from which
      :meth:`projection_index` gathers projected columns directly.

    ``copy()`` is O(1) copy-on-write: parent and child share the row set
    and column arrays until either side next mutates, at which point the
    writer privatizes its containers.  Rows must be tuples of ints
    (interned codes) — the backend is only ever constructed for interned
    databases.

    Removals mark the columns *dirty* (append-only arrays cannot cheaply
    delete); the next columnar read rebuilds them from the row set.

    Column arrays are **lazy**: nothing is materialized until the first
    columnar read (``columns()`` / ``id_index_for``).  Relations that
    are only ever probed through the dict indexes — delta frontiers,
    IDB accumulators — therefore pay exactly what :class:`DictBackend`
    pays on the hot insert path; the arrays exist only where a reader
    (projection index, column view) actually asked for them, and from then on are maintained
    incrementally by the append path.
    """

    __slots__ = ("arity", "_columns", "_id_indexes", "_shared", "_dirty")

    def __init__(self, arity: int, rows: Iterable[Row] | None = None) -> None:
        super().__init__()
        self.arity = arity
        self._columns: list[array[int]] | None = None
        self._id_indexes: dict[int, dict[int, array[int]]] = {}
        self._shared = False
        self._dirty = False
        if rows is not None:
            self.merge_new(list(rows))

    # -- copy-on-write ------------------------------------------------------
    def _privatize(self) -> None:
        """Detach from any snapshot sharing this backend's containers."""
        self.rows = set(self.rows)
        if self._columns is not None:
            self._columns = [array("q", col) for col in self._columns]
        self._id_indexes = {}
        self._shared = False

    def _append_rows(self, new_rows: Collection[Row]) -> None:
        cols = self._columns
        if cols is None or self._dirty or not new_rows:
            return
        if not cols:
            return
        base = len(cols[0])
        for i, col in enumerate(cols):
            col.extend([row[i] for row in new_rows])
        for column, index in self._id_indexes.items():
            get = index.get
            rid = base
            for row in new_rows:
                code = row[column]
                ids = get(code)
                if ids is None:
                    index[code] = array("q", (rid,))
                else:
                    ids.append(rid)
                rid += 1

    # -- mutation (column-maintaining overrides) ----------------------------
    def insert(self, row: Row) -> bool:
        if self._shared and row not in self.rows:
            self._privatize()
        if not super().insert(row):
            return False
        self._append_rows((row,))
        return True

    def add_new(self, rows: Iterable[Row]) -> list[Row]:
        if self._shared:
            self._privatize()
        new_rows = super().add_new(rows)
        self._append_rows(new_rows)
        return new_rows

    def merge_new(self, rows: Collection[Row]) -> list[Row]:
        if self._shared:
            self._privatize()
        new_rows = super().merge_new(rows)
        self._append_rows(new_rows)
        return new_rows

    def merge(self, rows: list[Row]) -> None:
        if self._shared:
            self._privatize()
        super().merge(rows)
        self._append_rows(rows)

    def remove(self, row: Row) -> bool:
        if self._shared and row in self.rows:
            self._privatize()
        if not super().remove(row):
            return False
        self._dirty = True
        self._id_indexes.clear()
        return True

    def clear(self) -> None:
        # Never clear shared containers in place — replace them.
        self.rows = set()
        self.indexes = {}
        self.code_indexes = {}
        self.proj_indexes = {}
        self._columns = None
        self._id_indexes = {}
        self._shared = False
        self._dirty = False
        self.version += 1

    # -- columnar access ----------------------------------------------------
    def columns(self) -> list[array[int]]:
        """The live per-column arrays (built lazily, rebuilt when dirty)."""
        if self._columns is None or self._dirty:
            snapshot = list(self.rows)
            self._columns = [
                array("q", [row[i] for row in snapshot])
                for i in range(self.arity)]
            self._dirty = False
        return self._columns

    def id_index_for(self, column: int) -> dict[int, array[int]]:
        """Key-column code -> ``array('q')`` of row ids carrying it."""
        index = self._id_indexes.get(column)
        if index is None:
            index = {}
            get = index.get
            for rid, code in enumerate(self.columns()[column]):
                ids = get(code)
                if ids is None:
                    index[code] = array("q", (rid,))
                else:
                    ids.append(rid)
            self._id_indexes[column] = index
        return index

    def projection_index(self, key_column: int,
                         value_column: int) -> dict[Any, list[Any]]:
        key = (key_column, value_column)
        proj = self.proj_indexes.get(key)
        if proj is None:
            # Gather from the dense value column through the row-id runs
            # — no row-tuple indexing on the build either.
            vals = self.columns()[value_column]
            proj = {
                code: [vals[i] for i in ids]
                for code, ids in self.id_index_for(key_column).items()}
            self.proj_indexes[key] = proj
        return proj

    # -- lifecycle ----------------------------------------------------------
    def copy(self) -> "ColumnarBackend":
        """An O(1) snapshot sharing rows and columns copy-on-write."""
        out = ColumnarBackend.__new__(ColumnarBackend)
        out.rows = self.rows
        out.indexes = {}
        out.code_indexes = {}
        out.proj_indexes = {}
        out.uid = next(_uids)
        out.version = 0
        out.arity = self.arity
        out._columns = self._columns
        out._id_indexes = {}
        out._shared = True
        out._dirty = self._dirty
        self._shared = True
        return out
