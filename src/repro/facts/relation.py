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

The physical row set and its hash indexes live in a
:class:`~repro.facts.backend.DictBackend`; the relation keeps the
semantics — arity checks, interning — and delegates the physical
operations.  The adaptive join planner's statistics
(:meth:`Relation.distinct_count`, :meth:`Relation.probe_estimate`) are
read off the live indexes, so no insert pays for them.
"""

from __future__ import annotations

from itertools import chain, filterfalse
from typing import (AbstractSet, Callable, Collection, Iterable, Iterator,
                    Optional)

from ..datalog.terms import ConstValue
from .backend import DictBackend, Index
from .symbols import SymbolTable

Row = tuple[ConstValue, ...]

#: A value-level bound-column pattern: sorted ``(column, value)`` pairs.
Bound = tuple[tuple[int, ConstValue], ...]

__all__ = ["Relation", "PatchedRelation", "Row", "Index"]

_DECODERS: dict[int, Callable[[Iterable[Row], list], Iterator[Row]]] = {}


def _decoder(arity: int) -> Callable[[Iterable[Row], list], Iterator[Row]]:
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


class Relation:
    """A set of fixed-arity ground tuples with on-demand hash indexes."""

    __slots__ = ("name", "arity", "symbols", "backend", "_distinct_cache")

    def __init__(self, name: str, arity: int,
                 rows: Iterable[Row] | None = None,
                 symbols: SymbolTable | None = None) -> None:
        if arity < 0:
            raise ValueError("arity must be non-negative")
        self.name = name
        self.arity = arity
        #: The shared intern table, or None in raw mode.
        self.symbols = symbols
        #: The physical row/index store (see :mod:`repro.facts.backend`).
        self.backend = DictBackend()
        #: column -> (cardinality the count was taken at, count); the
        #: scan fallback of :meth:`distinct_count`.
        self._distinct_cache: dict[int, tuple[int, int]] = {}
        if rows:
            self.add_all(rows)

    @property
    def interned(self) -> bool:
        return self.symbols is not None

    @property
    def version(self) -> int:
        """The backend's mutation counter (see its ``version`` attr).

        Bumps on every content change; together with the backend's
        ``uid`` it stamps the generated kernels' column-level predicate
        cache, whose invalidation rule is exactly "the stamp moved".
        """
        return self.backend.version

    # -- container protocol -------------------------------------------------
    def __len__(self) -> int:
        return len(self.backend.rows)

    def __iter__(self) -> Iterator[Row]:
        if self.symbols is None:
            return iter(self.backend.rows)
        return _decoder(self.arity)(self.backend.rows, self.symbols.values)

    def __contains__(self, row: Row) -> bool:
        stored = self._stored(row)
        return stored is not None and stored in self.backend.rows

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
        return self.backend.insert(materialized)

    def raw_add(self, row: Row) -> bool:
        """Insert one storage-domain tuple (codes when interned).

        The fast path for the compiled kernels, which derive rows in the
        storage domain already: no re-encoding, no arity re-check (the
        kernel's head constructor fixes the arity).  In raw mode this is
        :meth:`add` minus the validation.
        """
        return self.backend.insert(row)

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

        return len(self.backend.add_new(materialize()))

    def raw_add_all(self, rows: Iterable[Row]) -> int:
        """Bulk :meth:`raw_add`: storage-domain rows, one index sweep."""
        return len(self.backend.add_new(rows))

    def raw_merge_new(self, rows: Collection[Row]) -> set[Row]:
        """Bulk raw insert via set difference; returns the new rows.

        The duplicate screen runs as one C-level set difference instead
        of a per-row membership probe, so the engines' insert loops pay
        Python call overhead per *batch* rather than per derived row.
        Rows that collide with existing ones (or repeat within ``rows``)
        are silently dropped, exactly as a sequence of :meth:`raw_add`
        calls would drop them.
        """
        return self.backend.merge_new(rows)

    def raw_merge(self, rows: Collection[Row]) -> None:
        """Bulk raw insert of rows known to be absent from the relation.

        Caller guarantees ``rows`` is duplicate-free and disjoint from
        the current contents (e.g. the return value of another
        relation's :meth:`raw_merge_new`); skipping the membership
        screen makes this the cheapest insert path.  ``rows`` is copied
        in, never kept.
        """
        self.backend.merge(rows)

    # -- deletion ------------------------------------------------------------
    def discard(self, row: Iterable[ConstValue]) -> bool:
        """Remove one tuple of *values*; returns True when it was present.

        Every live index drops the row (empty buckets are deleted, so
        single-column index key counts stay exact distinct counts for
        :meth:`distinct_count`).
        """
        stored = self._stored(row)
        return stored is not None and self._remove(stored)

    def raw_discard(self, row: Row) -> bool:
        """Remove one storage-domain tuple (codes when interned)."""
        return self._remove(row)

    def _remove(self, materialized: Row) -> bool:
        if not self.backend.remove(materialized):
            return False
        if self._distinct_cache:
            self._distinct_cache.clear()
        return True

    def discard_all(self, rows: Iterable[Iterable[ConstValue]]) -> int:
        """Remove many value tuples; returns the number removed."""
        return sum(1 for row in rows if self.discard(row))

    def raw_discard_all(self, rows: Iterable[Row]) -> list[Row]:
        """Remove storage-domain tuples; returns those actually removed."""
        return [row for row in rows if self._remove(row)]

    def clear(self) -> None:
        self.backend.clear()
        self._distinct_cache.clear()

    # -- statistics ------------------------------------------------------------
    def distinct_count(self, column: int) -> int:
        """Number of distinct values in ``column``, at zero hot-path cost.

        When a live single-column hash index over ``column`` exists —
        and for columns the joins probe, it does — its key count *is*
        the distinct count, maintained incrementally by the very same
        index upkeep every insert already pays.  Otherwise one scan
        computes it, cached until the cardinality changes (inserts only
        grow the cardinality, and every removal empties the cache
        outright, so a cached entry always describes the current rows).
        This is what keeps the adaptive planner's cost model off the
        insert hot path.
        """
        index = self.backend.indexes.get((column,))
        if index is not None:
            return len(index)
        cindex = self.backend.code_indexes.get(column)
        if cindex is not None:
            return len(cindex)
        rows = self.backend.rows
        cardinality = len(rows)
        cached = self._distinct_cache.get(column)
        if cached is not None and cached[0] == cardinality:
            return cached[1]
        count = len({row[column] for row in rows})
        self._distinct_cache[column] = (cardinality, count)
        return count

    def probe_estimate(self, bound_columns: Collection[int]) -> float:
        """Expected rows matched by one probe with ``bound_columns``.

        The textbook independence-assumption estimate: cardinality
        divided by the distinct count of every bound column, floored at
        one distinct value so an empty column does not divide by zero.
        Computed from :meth:`distinct_count`, so evaluation never pays
        per-insert statistics maintenance; the engines' adaptive planner
        and ``explain`` both read it.
        """
        estimate = float(len(self.backend.rows))
        for column in bound_columns:
            estimate /= max(1, self.distinct_count(column))
        return estimate

    # -- lookup ----------------------------------------------------------------
    def rows(self) -> frozenset[Row]:
        if self.symbols is None:
            return frozenset(self.backend.rows)
        return frozenset(self)

    def raw_rows(self) -> Collection[Row]:
        """The internal storage-domain row container, read-only.

        Codes when interned, values in raw mode.  This is what kernel
        scans and negation membership tests iterate/probe; callers must
        not mutate it or hold it across mutations.
        """
        return self.backend.rows

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
            return self.backend.rows
        columns = tuple(c for c, _ in bound)
        if self.symbols is None:
            key = tuple(v for _, v in bound)
        else:
            get = self.symbols.code
            encoded = []
            for _, value in bound:
                code = get(value)
                if code is None:
                    return ()
                encoded.append(code)
            key = tuple(encoded)
        return self.backend.index_for(columns).get(key, ())

    def index_for(self, columns: tuple[int, ...]) -> Index:
        """The hash index over ``columns`` (built on first use).

        ``columns`` must be sorted ascending and unique.  The returned
        dict maps a tuple of storage-domain keys (values in raw mode,
        codes when interned) — one per column — to the list of rows
        carrying those values.  It is the live index — kept up to date
        by subsequent :meth:`add` calls — and must be treated as
        read-only.  The kernel compiler pre-resolves this once per rule
        firing instead of re-deriving it per probe.
        """
        return self.backend.index_for(columns)

    def code_index_for(self, column: int) -> dict:
        """Single-column index keyed by the bare storage value.

        Same buckets as ``index_for((column,))`` but without the 1-tuple
        key wrapper — the generated kernels' probe path.  Live and
        read-only, like :meth:`index_for`.
        """
        return self.backend.code_index_for(column)

    def projection_index(self, key_column: int, value_column: int) -> dict:
        """Bare key value -> list of ``value_column`` entries (live)."""
        return self.backend.projection_index(key_column, value_column)

    def copy(self) -> "Relation":
        """An independent relation with the same rows.

        Rows are copied (one C-level set copy); indexes are **not** —
        they rebuild lazily on the copy's first probe, exactly as on a
        freshly loaded relation.  State-reconstruction copies
        (incremental maintenance's before/mid states, a snapshot base
        taken at compaction) therefore pay nothing for indexes the copy
        never probes, which profiling showed dominating copy cost when
        every index was eagerly duplicated.
        """
        return self._over(self.backend.copy())

    def warm_copy(self) -> "Relation":
        """:meth:`copy` with every live index duplicated as well.

        For small relations that are probed again at once (see
        :meth:`DictBackend.warm_copy <repro.facts.backend.DictBackend.
        warm_copy>`).
        """
        return self._over(self.backend.warm_copy())

    def _over(self, backend: DictBackend) -> "Relation":
        out = object.__new__(Relation)
        out.name = self.name
        out.arity = self.arity
        out.symbols = self.symbols
        out.backend = backend
        out._distinct_cache = {}
        return out

    def difference(self, other: "Relation") -> "Relation":
        """A new relation with this one's rows that are not in ``other``.

        Neither operand is modified.  When both relations share the same
        symbol table (or both are raw) the set difference runs directly
        over the storage domain; otherwise rows are compared by value.
        """
        out = Relation(self.name, self.arity, symbols=self.symbols)
        if self.symbols is other.symbols:
            other_rows = other.backend.rows
            out.raw_add_all(row for row in self.backend.rows
                            if row not in other_rows)
        else:
            out.add_all(row for row in self if row not in other)
        return out


class PatchedRelation:
    """A read-only relation: a shared ``base`` under a small patch.

    The content is ``(base - removed) | added``.  ``base`` is a
    :class:`Relation` that is never mutated again once a view exists
    over it, so any number of views — the consecutive snapshots of a
    serving view — share it *and the hash indexes their readers have
    built on it*.  ``added`` is a small relation of its own and
    ``removed`` a set of storage-domain rows, under two invariants:
    ``removed <= base`` and ``added & base == {}``; neither is mutated
    after construction either.  :meth:`patched` derives the next view
    in time proportional to the patch, whatever the size of the base.

    Only the value-level *read* API is offered — what
    :func:`~repro.engine.bindings.solve_body` and the ``Database``
    accessors use.  The storage API the kernels join over
    (``raw_rows``, ``index_for``, ...) is deliberately absent: a
    fixpoint must not run over a view.
    """

    __slots__ = ("name", "arity", "symbols", "base", "added", "removed")

    def __init__(self, base: Relation, added: Relation | None = None,
                 removed: AbstractSet[Row] = frozenset()) -> None:
        self.name = base.name
        self.arity = base.arity
        self.symbols = base.symbols
        self.base = base
        self.added = added if added is not None \
            else Relation(base.name, base.arity, symbols=base.symbols)
        self.removed = removed

    def __repr__(self) -> str:
        return (f"PatchedRelation({self.name!r}/{self.arity}, "
                f"{len(self.base)} rows +{len(self.added)} "
                f"-{len(self.removed)})")

    def patch_size(self) -> int:
        return len(self.added) + len(self.removed)

    def patched(self, removed: Collection[Row],
                added: Collection[Row]) -> "PatchedRelation":
        """The view after removing, *then* adding, storage-domain rows.

        Removing an absent row and adding a present one are no-ops, and
        a row in both ends up present (maintenance reports a row DRed
        over-deleted and the insertion pass re-derived in both sets).
        ``self`` is unchanged — and returned as it is for an empty
        delta.  Cost is one warm copy of the patch plus the new rows;
        the base is only probed.
        """
        if not removed and not added:
            return self
        in_base = self.base.raw_rows()
        patch = self.added.warm_copy()
        gone = set(self.removed)
        for row in removed:
            if not patch.raw_discard(row) and row in in_base:
                gone.add(row)
        for row in added:
            if row in in_base:
                gone.discard(row)
            else:
                patch.raw_add(row)
        return PatchedRelation(self.base, patch, gone)

    # -- the value-level read API ---------------------------------------------
    def __len__(self) -> int:
        return len(self.base) - len(self.removed) + len(self.added)

    def __iter__(self) -> Iterator[Row]:
        rows: Iterable[Row] = self.base.raw_rows()
        if self.removed:
            rows = filterfalse(self.removed.__contains__, rows)
        if len(self.added):
            rows = chain(rows, self.added.raw_rows())
        if self.symbols is None:
            return iter(rows)
        return _decoder(self.arity)(rows, self.symbols.values)

    def __contains__(self, row: Row) -> bool:
        stored = self.base._stored(row)
        if stored is None:
            return False
        return stored in self.added.raw_rows() or (
            stored in self.base.raw_rows() and stored not in self.removed)

    def rows(self) -> frozenset[Row]:
        return frozenset(self)

    def lookup(self, bound: Bound) -> Collection[Row]:
        """As :meth:`Relation.lookup`: the base bucket minus ``removed``
        plus the ``added`` bucket, then one decode."""
        removed = self.removed
        if not removed and not len(self.added):
            return self.base.lookup(bound)
        kept = self.base._probe(bound)
        if removed and not removed.isdisjoint(kept):
            kept = [row for row in kept if row not in removed]
        extra = self.added._probe(bound)
        if extra:
            kept = [*kept, *extra]
        if self.symbols is None or not kept:
            return kept
        return list(_decoder(self.arity)(kept, self.symbols.values))
