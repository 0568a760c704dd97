"""An indexed in-memory relation.

Relations store ground tuples.  Lookups during joins supply a
*bound-column pattern*: a sorted tuple of (column, value) pairs.  The
relation lazily builds and caches a hash index per set of bound columns,
which turns the engine's literal-at-a-time joins into hash joins.

Storage comes in two modes:

- **raw** (the default): rows are tuples of Python values (the ``value``
  field of :class:`repro.datalog.terms.Constant`), exactly as stored by
  the original engine.
- **interned**: the relation is bound to a shared
  :class:`~repro.facts.symbols.SymbolTable` and rows are tuples of dense
  ``int`` codes.  The value-level API below (``add``, ``lookup``,
  iteration, ...) is unchanged — values are encoded/decoded at the call
  boundary — while the *raw* API (:meth:`raw_rows`, :meth:`raw_add`,
  :meth:`index_for`) exposes the coded storage that the compiled
  kernels join over directly.

In both modes :meth:`index_for` returns the live index over the
*storage domain* (values in raw mode, codes in interned mode); callers
that obtained their probe keys from the same storage domain — the
kernels — never pay an encode/decode per probe.

The relation is also the physical store: a ``set`` of storage-domain
rows (:meth:`raw_rows`; the kernels' scans and negation membership
tests probe it directly) plus two families of on-demand ``dict``
indexes, all read-only to callers — every **mutation** goes through
the methods below, which keep every live index current:

- ``indexes`` — one hash index per bound column set (``index_for``).
  A single-column index is keyed by the **bare** stored value, which
  saves a 1-tuple allocation and hash per probe on the single-column
  joins that dominate recursive workloads; a multi-column index by the
  tuple of values.  The interpreter, ``lookup``, snapshot reads and the
  generated kernels all probe the same index;
- ``proj_indexes`` — projection indexes mapping a bare key-column value
  to the list of *another column's* entries for matching rows
  (``projection_index``), so a final join level can emit projected
  values without touching row tuples at all.

Every relation carries a ``(uid, version)`` identity: ``uid`` is unique
per relation object and ``version`` bumps on every mutation that
changed content.  The generated kernels' column-level predicate cache
(:mod:`repro.engine.codegen`) stamps memoized check results with this
pair, so the *invalidation rule* is simply "any content change bumps the
version and the stale entry is replaced".  The relation's own column
profile (:meth:`Relation.profile`: row count, per-column distinct count
and value summary) is the second consumer of that identity: stamped
with the version it was built at, rebuilt when the stamp no longer
matches.

The adaptive join planner's statistics
(:meth:`Relation.distinct_count`, :meth:`Relation.probe_estimate`) are
read off the live indexes, or off the profile for a column without
one, so no insert pays for them.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from itertools import chain
from operator import itemgetter
from typing import (Callable, Collection, Iterable,
                    Iterator, NamedTuple, Optional, Sequence)

from ..datalog.terms import ConstValue
from .symbols import SymbolTable

Row = tuple[ConstValue, ...]

#: A hash index over a bound column set -> list of rows with those
#: values: keyed by the bare value for one column, by the tuple of
#: values for several (see :func:`_key_of`).
Index = dict[object, list[Row]]

#: A value-level bound-column pattern: sorted ``(column, value)`` pairs.
Bound = tuple[tuple[int, ConstValue], ...]

__all__ = ["Relation", "PatchedRelation", "PatchLog", "Row", "Index",
           "ColumnProfile", "RelationProfile", "build_profile"]

#: Monotone source of relation identities (see ``Relation.uid``).
_uids = itertools.count(1)

_Decoder = Callable[[Iterable[Row], list[ConstValue]], Iterator[Row]]
_DECODERS: dict[int, _Decoder] = {}


def _decoder(arity: int) -> _Decoder:
    """``decode(coded_rows, values)`` -> iterator of value rows.

    The one decode routine of the value-level API, generated once per
    arity: unpacking the row in the ``for`` target and building the
    tuple from subscripts costs no nested generator per row (which
    ``tuple(values[c] for c in row)`` does).  It stays a generator —
    callers feed it to ``frozenset``/``list`` — because materializing a
    decoded list first showed up as peak memory on large closures.
    """
    decode = _DECODERS.get(arity)
    if decode is None:
        if arity:
            codes = "".join(f"c{i}, " for i in range(arity))
            cells = "".join(f"v[c{i}], " for i in range(arity))
            source = f"lambda rows, v: (({cells}) for ({codes}) in rows)"
        else:
            source = "lambda rows, v: (() for _ in rows)"
        decode = _DECODERS[arity] = eval(source)
    return decode


#: A column's profile keeps its distinct values up to this many.
PROFILE_VALUES = 8


class ColumnProfile(NamedTuple):
    """The distinct *values* of one column: how many; the values
    themselves when at most ``PROFILE_VALUES``; whether any is a string;
    the smallest and largest number as stored (``inf``/``-inf`` without
    one) and whether every number is integer-valued."""

    distinct: int
    values: Optional[frozenset[ConstValue]]
    strings: bool
    lo: float
    hi: float
    integral: bool


class RelationProfile(NamedTuple):
    """Row count and per-column summary of a relation's contents."""

    rows: int
    columns: tuple[ColumnProfile, ...]


def build_profile(rows: Sequence[Row], arity: int,
                  decode: Sequence[ConstValue] | None = None
                  ) -> RelationProfile:
    """The profile of storage-domain ``rows``, from scratch; ``decode``
    is the symbol table's value list when they are coded (only the
    *distinct* codes of a column are decoded)."""
    columns = []
    for column in range(arity):
        stored = set(map(itemgetter(column), rows))
        values: Collection[ConstValue] = (
            stored if decode is None else [decode[code] for code in stored])
        numbers = [value for value in values if not isinstance(value, str)]
        columns.append(ColumnProfile(
            len(values),
            frozenset(values) if len(values) <= PROFILE_VALUES else None,
            len(numbers) < len(values),
            min(numbers, default=float("inf")),
            max(numbers, default=float("-inf")),
            all(isinstance(number, int) or number.is_integer()
                for number in numbers)))
    return RelationProfile(len(rows), tuple(columns))


def _key_of(row: Row, columns: tuple[int, ...]) -> object:
    """``row``'s key in the index over ``columns``: the bare value for
    one column, the tuple of values for several."""
    if len(columns) == 1:
        return row[columns[0]]
    return tuple(row[c] for c in columns)


def _index_rows(index: Index, columns: tuple[int, ...],
                rows: Iterable[Row]) -> None:
    """Append each of ``rows`` to its bucket of the index over ``columns``
    (``itemgetter`` builds exactly :func:`_key_of`'s key shape)."""
    key_of = itemgetter(*columns)
    get = index.get
    for row in rows:
        key = key_of(row)
        bucket = get(key)
        if bucket is None:
            index[key] = [row]
        else:
            bucket.append(row)


class Relation:
    """A set of fixed-arity ground tuples with on-demand hash indexes."""

    __slots__ = ("name", "arity", "symbols", "_rows", "indexes",
                 "proj_indexes", "uid", "version", "_profile")

    def __init__(self, name: str, arity: int,
                 rows: Iterable[Row] | None = None,
                 symbols: SymbolTable | None = None) -> None:
        if arity < 0:
            raise ValueError("arity must be non-negative")
        self.name = name
        self.arity = arity
        #: The shared intern table, or None in raw mode.
        self.symbols = symbols
        self._rows: set[Row] = set()
        self.indexes: dict[tuple[int, ...], Index] = {}
        self.proj_indexes: dict[tuple[int, int],
                                dict[ConstValue, list[ConstValue]]] = {}
        self.uid = next(_uids)
        #: Bumps on every content change (see the module docstring).
        self.version = 0
        #: ``(version built at, profile)``; see :meth:`profile`.
        self._profile: Optional[tuple[int, RelationProfile]] = None
        if rows:
            self.add_all(rows)

    @property
    def interned(self) -> bool:
        return self.symbols is not None

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        if self.symbols is None:
            return iter(self._rows)
        return _decoder(self.arity)(self._rows, self.symbols.values)

    def __contains__(self, row: Row) -> bool:
        stored = self._stored(row)
        return stored is not None and stored in self._rows

    def _stored(self, row: Iterable[ConstValue]) -> Optional[Row]:
        """``row`` in the storage domain; None when a value of it was
        never interned (so no relation over this table can hold it)."""
        materialized = tuple(row)
        if self.symbols is None:
            return materialized
        return self.symbols.code_row(materialized)

    def __repr__(self) -> str:
        mode = ", interned" if self.symbols is not None else ""
        return f"Relation({self.name!r}/{self.arity}, {len(self)} rows{mode})"

    # -- mutation ------------------------------------------------------------
    def add(self, row: Iterable[ConstValue]) -> bool:
        """Insert one tuple of *values*; returns True when it was new."""
        materialized = tuple(row)
        if len(materialized) != self.arity:
            raise ValueError(
                f"{self.name}: expected arity {self.arity}, "
                f"got {len(materialized)}")
        if self.symbols is not None:
            materialized = self.symbols.intern_row(materialized)
        return self.raw_add(materialized)

    def raw_add(self, row: Row) -> bool:
        """Insert one storage-domain tuple (codes when interned).

        The fast path for the compiled kernels, which derive rows in the
        storage domain already: no re-encoding, no arity re-check (the
        kernel's head constructor fixes the arity).  In raw mode this is
        :meth:`add` minus the validation.
        """
        if row in self._rows:
            return False
        self._rows.add(row)
        for columns, index in self.indexes.items():
            index.setdefault(_key_of(row, columns), []).append(row)
        for (kcol, vcol), pindex in self.proj_indexes.items():
            pindex.setdefault(row[kcol], []).append(row[vcol])
        self.version += 1
        return True

    def add_all(self, rows: Iterable[Iterable[ConstValue]]) -> int:
        """Insert many value tuples; returns the number of new ones.

        Bulk path: rows land in the backing set first and every live
        index is extended once at the end, instead of per row as
        :meth:`add` does.
        """
        arity = self.arity
        symbols = self.symbols

        def materialize() -> Iterator[Row]:
            for row in rows:
                materialized = tuple(row)
                if len(materialized) != arity:
                    raise ValueError(
                        f"{self.name}: expected arity {arity}, "
                        f"got {len(materialized)}")
                if symbols is not None:
                    materialized = symbols.intern_row(materialized)
                yield materialized

        return self.raw_add_all(materialize())

    def raw_add_all(self, rows: Iterable[Row]) -> int:
        """Bulk :meth:`raw_add`: storage-domain rows inserted one by one,
        then one index sweep; returns the number of new ones."""
        store = self._rows
        new_rows: list[Row] = []
        for row in rows:
            if row not in store:
                store.add(row)
                new_rows.append(row)
        self._extend_indexes(new_rows)
        return len(new_rows)

    def raw_merge_new(self, rows: Collection[Row]) -> set[Row]:
        """Bulk raw insert of the rows not yet stored; returns them.

        The duplicate screen runs at C level (``filterfalse`` over the
        row set's ``__contains__``) instead of as a Python loop, so the
        engines' insert loops pay Python call overhead per *batch*
        rather than per derived row.  Rows that collide with existing
        ones (or repeat within ``rows``) are silently dropped, exactly
        as a sequence of :meth:`raw_add` calls would drop them.

        Only the new rows are collected: the batch is never copied into
        a set of its own.  That table, sized for every distinct row a
        firing derives, would be the largest short-lived allocation of
        a recursive round, and it grows the C heap into free space that
        later frees may or may not hand back, depending on the heap's
        layout: with it, ``closure-xl``'s peak RSS read 218 or 242 MiB
        from one run to the next (2 vCPU, CPython 3.11, glibc 2.36).

        The result stays a set: merging it here — and into a delta
        relation by :meth:`raw_merge` — is a set-to-set update, which
        reuses the stored hashes instead of re-hashing every new row
        twice.  ``rows`` that already *is* a set — another relation's
        :meth:`raw_rows`, which is how the engine runs a copy rule
        ``p(X̄) :- q(X̄)`` — is differenced as it stands, its stored
        hashes reused: a set union, not a re-insert.
        """
        if isinstance(rows, set):
            fresh = rows.difference(self._rows)
        else:
            fresh = set(itertools.filterfalse(self._rows.__contains__, rows))
        if fresh:
            self._rows |= fresh
            self._extend_indexes(fresh)
        return fresh

    def raw_merge(self, rows: Collection[Row]) -> None:
        """Bulk raw insert of rows known to be absent from the relation.

        Caller guarantees ``rows`` is duplicate-free and disjoint from
        the current contents (e.g. the return value of another
        relation's :meth:`raw_merge_new`); skipping the membership
        screen makes this the cheapest insert path.  ``rows`` is copied
        in, never adopted as the row set.
        """
        self._rows.update(rows)
        self._extend_indexes(rows)

    # -- deletion ------------------------------------------------------------
    def discard(self, row: Iterable[ConstValue]) -> bool:
        """Remove one tuple of *values*; returns True when it was present.

        Every live index drops the row (empty buckets are deleted, so
        single-column index key counts stay exact distinct counts for
        :meth:`distinct_count`).
        """
        stored = self._stored(row)
        return stored is not None and self.raw_discard(stored)

    def raw_discard(self, row: Row) -> bool:
        """Remove one storage-domain tuple (codes when interned)."""
        if row not in self._rows:
            return False
        self._rows.remove(row)
        for columns, index in self.indexes.items():
            key = _key_of(row, columns)
            bucket = index.get(key)
            if bucket is not None:
                bucket.remove(row)
                if not bucket:
                    del index[key]
        for (kcol, vcol), pindex in self.proj_indexes.items():
            values = pindex.get(row[kcol])
            if values is not None:
                values.remove(row[vcol])
                if not values:
                    del pindex[row[kcol]]
        self.version += 1
        return True

    def raw_discard_all(self, rows: Iterable[Row]) -> list[Row]:
        """Remove storage-domain tuples; returns those actually removed."""
        return [row for row in rows if self.raw_discard(row)]

    def clear(self) -> None:
        self._rows.clear()
        self.indexes.clear()
        self.proj_indexes.clear()
        self.version += 1

    # -- statistics ------------------------------------------------------------
    def profile(self) -> RelationProfile:
        """Row count and per-column value summary of the current rows.

        Built on first request and kept until ``version`` moves: the one
        invalidation rule, and no mutation path pays more for it than
        its ``version += 1``.  The stamp is read *before* the rows and
        every mutation bumps it *after* changing them, so a profile
        filed under a version lacks no row of that version; ``tuple``
        snapshots the row set without releasing the interpreter lock and
        the memo is one immutable pair, so a reader beside a writer gets
        the profile of one recent state of the rows, never a torn one.
        """
        version = self.version
        memo = self._profile
        if memo is None or memo[0] != version:
            memo = self._profile = (version, build_profile(
                tuple(self._rows), self.arity,
                None if self.symbols is None else self.symbols.values))
        return memo[1]

    def distinct_count(self, column: int) -> int:
        """Number of distinct values in ``column``, at zero hot-path cost.

        When a live single-column hash index over ``column`` exists —
        and for columns the joins probe, it does — its key count *is*
        the distinct count, maintained incrementally by the very same
        index upkeep every insert already pays.  Otherwise it is read
        off :meth:`profile`, which is rebuilt only after ``version``
        moved.  This is what keeps the adaptive planner's cost model
        off the insert hot path.
        """
        index = self.indexes.get((column,))
        if index is not None:
            return len(index)
        return self.profile().columns[column].distinct

    def probe_estimate(self, bound_columns: Collection[int]) -> float:
        """Expected rows matched by one probe with ``bound_columns``.

        The textbook independence-assumption estimate: cardinality
        divided by the distinct count of every bound column, floored at
        one distinct value so an empty column does not divide by zero.
        Computed from :meth:`distinct_count`, so evaluation never pays
        per-insert statistics maintenance; the engines' adaptive planner
        and ``explain`` both read it.
        """
        estimate = float(len(self._rows))
        for column in bound_columns:
            estimate /= max(1, self.distinct_count(column))
        return estimate

    # -- lookup ----------------------------------------------------------------
    def rows(self) -> frozenset[Row]:
        if self.symbols is None:
            return frozenset(self._rows)
        return frozenset(self)

    def raw_rows(self) -> Collection[Row]:
        """The internal storage-domain row container, read-only.

        Codes when interned, values in raw mode.  This is what kernel
        scans and negation membership tests iterate/probe; callers must
        not mutate it or hold it across mutations.
        """
        return self._rows

    def lookup(self, bound: Bound) -> Collection[Row]:
        """Rows (as *values*) matching the bound-column pattern.

        ``bound`` is a tuple of ``(column, value)`` pairs; columns must be
        sorted ascending and unique.  With an empty pattern this is a full
        scan.

        In raw mode this returns the relation's *internal* container (an
        index bucket, or the backing row set for a full scan) to avoid a
        per-call copy: callers must treat the result as read-only and
        must not hold it across mutations of the relation.  In interned
        mode the pattern is encoded, the coded index is probed, and the
        matching rows are decoded into a fresh list (bucket order
        preserved); a pattern mentioning a never-interned value matches
        nothing.
        """
        bucket = self._probe(bound)
        if self.symbols is None or not bucket:
            return bucket
        return list(_decoder(self.arity)(bucket, self.symbols.values))

    def _probe(self, bound: Bound) -> Collection[Row]:
        """:meth:`lookup` before the decode: the matching storage-domain
        rows, as the internal container."""
        if not bound:
            return self._rows
        probe = self._key(bound)
        if probe is None:
            return ()
        return self.index_for(probe[0]).get(probe[1], ())

    def _key(self, bound: Bound) -> Optional[tuple[tuple[int, ...], object]]:
        """A non-empty pattern as ``(columns, storage-domain key)``, the
        key shaped as :func:`_key_of` shapes it; None when a value of it
        was never interned (it then matches nothing)."""
        columns = tuple(c for c, _ in bound)
        values = tuple(v for _, v in bound)
        if self.symbols is not None:
            get = self.symbols.code
            values = tuple(get(value) for value in values)
            if None in values:
                return None
        return columns, values[0] if len(values) == 1 else values

    # -- indexes ---------------------------------------------------------------
    def _extend_indexes(self, new_rows: Collection[Row]) -> None:
        """Append already-stored ``new_rows`` to every live index."""
        if not new_rows:
            return
        for columns, index in self.indexes.items():
            _index_rows(index, columns, new_rows)
        for (kcol, vcol), pindex in self.proj_indexes.items():
            pget = pindex.get
            for row in new_rows:
                code = row[kcol]
                values = pget(code)
                if values is None:
                    pindex[code] = [row[vcol]]
                else:
                    values.append(row[vcol])
        self.version += 1

    def index_for(self, columns: tuple[int, ...]) -> Index:
        """The hash index over ``columns`` (built on first use).

        ``columns`` must be sorted ascending and unique.  The returned
        dict maps a key over the storage domain (values in raw mode,
        codes when interned) — the bare value for one column, so the
        generated kernels probe with ``index.get(code)`` and never
        allocate a key tuple per row, and the tuple of values for
        several — to the list of rows carrying those values.  It is the
        live index — kept up to date by subsequent :meth:`add` calls —
        and must be treated as read-only.  The kernel compiler
        pre-resolves this once per rule firing instead of re-deriving it
        per probe.
        """
        index = self.indexes.get(columns)
        if index is None:
            index = self._build_index(columns)
        return index

    def _build_index(self, columns: tuple[int, ...]) -> Index:
        index: Index = {}
        _index_rows(index, columns, self._rows)
        self.indexes[columns] = index
        return index

    def projection_index(self, key_column: int, value_column: int
                         ) -> dict[ConstValue, list[ConstValue]]:
        """Bare key-column value -> list of ``value_column`` entries (live).

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
            for row in self._rows:
                code = row[key_column]
                bucket = get(code)
                if bucket is None:
                    proj[code] = [row[value_column]]
                else:
                    bucket.append(row[value_column])
            self.proj_indexes[key] = proj
        return proj

    def build_indexes_like(self, other: "Relation") -> None:
        """Build every index column set ``other`` holds and this lacks.

        A relation that replaces ``other`` for the same readers (a
        compacted snapshot base) warms here, on the writer's clock, the
        indexes those readers probe — so none of them pays a cold build.
        The key lists are taken atomically: a reader may be adding an
        index to ``other`` while this runs.
        """
        for columns in list(other.indexes):
            self.index_for(columns)
        for key_column, value_column in list(other.proj_indexes):
            self.projection_index(key_column, value_column)

    # -- lifecycle -------------------------------------------------------------
    def copy(self) -> "Relation":
        """An independent relation with the same rows.

        Rows are copied (one C-level set copy); indexes are **not** —
        they rebuild lazily on the copy's first probe, exactly as on a
        freshly loaded relation.  A snapshot base taken at compaction
        therefore pays nothing for indexes its readers never probe,
        which profiling showed dominating copy cost when every index
        was eagerly duplicated.  The copy gets a fresh
        ``(uid, version)`` identity so cached predicate checks against
        the source never leak to it.
        """
        out = Relation(self.name, self.arity, symbols=self.symbols)
        out._rows = set(self._rows)
        return out


def _in_base_at(rows: Iterable[Row], stamps: dict[Row, tuple[int, ...]],
                at: int) -> Iterator[Row]:
    """The base ``rows`` present at log version ``at``."""
    get = stamps.get
    for row in rows:
        flips = get(row)
        if flips is None or not bisect_right(flips, at) & 1:
            yield row


def _in_log_at(rows: Iterable[Row], stamps: dict[Row, tuple[int, ...]],
               at: int) -> Iterator[Row]:
    """The rows outside the base among ``rows`` present at version ``at``."""
    get = stamps.get
    for row in rows:
        flips = get(row)
        if flips is not None and bisect_right(flips, at) & 1:
            yield row


class PatchLog:
    """The changes over one snapshot base, stamped with log versions.

    One writer appends; any number of :class:`PatchedRelation` views
    read it, each at its own version.  A row's presence at version ``v``
    is its presence in the base, flipped once per stamp ``<= v`` in
    ``stamps[row]`` — the ascending versions at which it was removed or
    added.  Nothing is ever edited in place where a reader could see it
    half done:

    - a stamp tuple is replaced whole (``flips + (version,)``), and a
      row is stamped before it is appended anywhere, so a reader at an
      older version ignores every stamp, row and bucket entry newer
      than itself;
    - ``rows`` (the rows outside the base, in first-added order) and
      the buckets of ``indexes`` over them are append-only lists — a
      row removed later stays, its stamps say it is gone;
    - ``indexes`` gains a column set only from the writer, assigned
      whole, in the column sets its base's readers built; a reader
      probing one the log lacks scans ``rows``.

    Readers only probe ``stamps`` and ``indexes`` and iterate lists, so
    none walks a container while the writer resizes it.
    """

    __slots__ = ("version", "stamps", "rows", "indexes", "size")

    def __init__(self) -> None:
        #: The newest version a publish claimed; the base is version 0.
        self.version = 0
        self.stamps: dict[Row, tuple[int, ...]] = {}
        self.rows: list[Row] = []
        self.indexes: dict[tuple[int, ...], Index] = {}
        #: Stamps appended so far (what compaction bounds).
        self.size = 0

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return (f"PatchLog(v{self.version}, {self.size} stamps, "
                f"{len(self.rows)} rows outside the base)")

    def stamp(self, first: Collection[Row], again: Iterable[Row],
              version: int) -> None:
        """Flip at ``version`` the rows ``first`` (never stamped before)
        and ``again`` (stamped at older versions)."""
        stamps = self.stamps
        count = len(first)
        for row in again:
            stamps[row] += (version,)
            count += 1
        stamps.update(dict.fromkeys(first, (version,)))
        self.size += count

    def index(self, fresh: Sequence[Row], base: Relation) -> None:
        """Append ``fresh`` to ``rows`` and every bucket, then build the
        index column sets ``base`` holds and the log lacks."""
        self.rows.extend(fresh)
        for columns, index in self.indexes.items():
            _index_rows(index, columns, fresh)
        for columns in list(base.indexes):
            if columns not in self.indexes:
                built: Index = {}
                _index_rows(built, columns, self.rows)
                self.indexes[columns] = built


class PatchedRelation:
    """A read-only relation: a shared ``base`` read through a patch log.

    The content is ``base`` with the changes ``log`` stamped up to
    version ``at``.  ``base`` is a :class:`Relation` that is never
    mutated again once a view exists over it, so any number of views —
    the consecutive snapshots of a serving view — share it *and the
    hash indexes their readers have built on it*.  They share the
    :class:`PatchLog` too: :meth:`patched` on the log's newest view
    appends the delta to it, stamped with the next version, and returns
    a view at that version — time proportional to the delta, whatever
    the size of the base or of the log.  A view never changes: every
    stamp newer than ``at`` is invisible to it.

    Only the value-level *read* API is offered — what
    :func:`~repro.engine.bindings.solve_body` and the ``Database``
    accessors use.  The storage API the kernels join over
    (``raw_rows``, ``index_for``, ...) is deliberately absent: a
    fixpoint must not run over a view.  (``at`` is not named
    ``version``: a relation with a ``version`` is one a query can be
    prepared against, see :func:`~repro.engine.prepared.edb_stamp`.)
    """

    __slots__ = ("name", "arity", "symbols", "base", "log", "at", "_len")

    def __init__(self, base: Relation, log: PatchLog | None = None,
                 at: int = 0, length: int | None = None) -> None:
        self.name = base.name
        self.arity = base.arity
        self.symbols = base.symbols
        self.base = base
        self.log = log if log is not None else PatchLog()
        self.at = at
        self._len = len(base) if length is None else length

    def __repr__(self) -> str:
        return (f"PatchedRelation({self.name!r}/{self.arity}, "
                f"{len(self)} rows: {len(self.base)} in the base, "
                f"v{self.at} of {self.log!r})")

    def patched(self, removed: Collection[Row],
                added: Collection[Row]) -> "PatchedRelation":
        """The view after removing, *then* adding, storage-domain rows.

        Removing an absent row and adding a present one are no-ops, and
        a row in both ends up present (maintenance reports a row DRed
        over-deleted and the insertion pass re-derived in both sets).
        ``self`` is unchanged — and returned as it is when nothing
        changes.  On the log's newest view this stamps the rows that
        change with the next version: the version is claimed first, so
        a publish that raises part-way leaves no view at it, and the
        next extension re-bases.  A view that is not the newest
        re-bases: a new base holding the result, with the indexes of
        the old one.
        """
        adds = set(added)
        drops = set(removed) - adds  # a row in both ends up present
        log, in_base, at = self.log, self.base.raw_rows(), self.at
        touched = log.stamps.keys() & (adds | drops)
        # A row never stamped is present exactly when the base holds it.
        fresh = adds.difference(touched, in_base)
        gone = drops.difference(touched).intersection(in_base)
        flipped = [row for row in touched if (row in adds) != self._has(row)]
        if not (fresh or gone or flipped):
            return self
        if at != log.version:
            base = Relation(self.name, self.arity, symbols=self.symbols)
            base.raw_add_all(self._raw_iter())
            base.raw_discard_all(drops)
            base.raw_add_all(adds)
            base.build_indexes_like(self.base)
            return PatchedRelation(base)
        version = log.version = at + 1
        log.stamp(fresh | gone, flipped, version)
        log.index(list(fresh), self.base)
        grown = len(fresh) - len(gone) \
            + 2 * len(adds.intersection(flipped)) - len(flipped)
        return PatchedRelation(self.base, log, version, self._len + grown)

    def _has(self, row: Row) -> bool:
        """Is the storage-domain ``row`` present at this view's version?"""
        flips = self.log.stamps.get(row)
        flipped = flips is not None and bisect_right(flips, self.at) & 1
        return (row in self.base.raw_rows()) != bool(flipped)

    def _raw_iter(self) -> Iterator[Row]:
        """The storage-domain rows of this view."""
        rows = self.base.raw_rows()
        if not self.at:
            return iter(rows)
        stamps = self.log.stamps
        return chain(_in_base_at(rows, stamps, self.at),
                     _in_log_at(self.log.rows, stamps, self.at))

    # -- the value-level read API ---------------------------------------------
    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Row]:
        if self.symbols is None:
            return self._raw_iter()
        return _decoder(self.arity)(self._raw_iter(), self.symbols.values)

    def profile(self) -> RelationProfile:
        """As :meth:`Relation.profile`, built on every call (a view keeps
        no memo) from the decoded rows."""
        return build_profile(tuple(self), self.arity)

    def __contains__(self, row: Row) -> bool:
        stored = self.base._stored(row)
        return stored is not None and self._has(stored)

    def rows(self) -> frozenset[Row]:
        return frozenset(self)

    def lookup(self, bound: Bound) -> Collection[Row]:
        """As :meth:`Relation.lookup`: the base bucket less the rows
        stamped away by this view's version, plus the log bucket's rows
        stamped present, then one decode."""
        at = self.at
        if not at:
            return self.base.lookup(bound)
        if not bound:
            kept: Collection[Row] = list(self._raw_iter())
        else:
            probe = self.base._key(bound)
            if probe is None:
                return ()
            columns, key = probe
            log = self.log
            get = log.stamps.get
            kept = self.base.index_for(columns).get(key, ())
            # ``isdisjoint`` iterates the bucket (a list) and only probes
            # the stamps, which the writer may be growing meanwhile.
            if kept and not log.stamps.keys().isdisjoint(kept):
                kept = [row for row in kept
                        if (flips := get(row)) is None
                        or not bisect_right(flips, at) & 1]
            index = log.indexes.get(columns)
            if index is not None:
                extra = index.get(key, ())
            else:
                extra = [row for row in log.rows
                         if _key_of(row, columns) == key]
            if extra:
                extra = [row for row in extra
                         if (flips := get(row)) is not None
                         and bisect_right(flips, at) & 1]
                if extra:
                    kept = [*kept, *extra]
        if self.symbols is None or not kept:
            return kept
        return list(_decoder(self.arity)(kept, self.symbols.values))
