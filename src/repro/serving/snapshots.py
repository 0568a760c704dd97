"""MVCC snapshots: immutable, versioned materializations for readers.

The write side of the serving tier mutates shared state in place — the
:class:`~repro.facts.changelog.VersionedDatabase` EDB under ``apply``
and the view's live IDB under incremental maintenance.  Readers never
touch either.  Instead, after every successful refresh the view
publishes a :class:`Snapshot`: a read-only view of the EDB and IDB as
of one version, swapped in with a single reference assignment (atomic
under the GIL).  A reader pins whatever snapshot reference it observes
and answers queries from it without locks, unaffected by any refresh —
including a *failed* one — running concurrently.

Consecutive snapshots share structure: each relation is a
:class:`~repro.facts.relation.PatchedRelation` — an immutable base and
an append-only :class:`~repro.facts.relation.PatchLog` of the changes
over it, both shared (the base with its already-built hash indexes) by
every snapshot until the next compaction, each snapshot reading the
log at its own version — so publishing costs the refresh's delta, not
a copy of the database or of the accumulated patch.

Staleness is a first-class, bounded property rather than an accident:
a :class:`StalenessBound` says how far behind the live version a
served snapshot may be.  The server serves the last-good snapshot
whenever it satisfies the bound, which is what keeps readers answering
while the single maintenance writer churns — or retries after a fault
— underneath.
"""

from __future__ import annotations

import time
from typing import Optional

from ..datalog.atoms import Atom
from ..datalog.parser import parse_query
from ..datalog.program import Program
from ..datalog.terms import Constant, Variable
from ..engine.bindings import EvalStats
from ..engine.engine import select_answers
from ..engine.seminaive import answers
from ..facts.database import Database


class Snapshot:
    """One immutable materialization at one version.

    ``edb`` and ``idb`` are read-only databases of
    :class:`~repro.facts.relation.PatchedRelation` views that share no
    mutable state with the writer's workspace, so neither in-place
    ``apply`` mutations nor a half-finished maintenance pass can ever
    show through a reader's result set.  What a snapshot owns is only
    its version in each relation's patch log; the bases, the indexes
    readers have built on them and the logs are shared with its
    neighbours.  The writer only appends to a log, stamping each
    change with the version it publishes, so what a snapshot reads
    never changes under it, and nothing is copied between compactions
    (a new base is a :meth:`~repro.facts.relation.Relation.copy` —
    rows only — whose indexes the *writer* then builds, see
    :meth:`MaterializedView._publish <repro.serving.views.
    MaterializedView._publish>`).
    """

    def __init__(self, program: Program, version: int,
                 edb: Database, idb: Database) -> None:
        self.program = program
        self.version = version
        self.edb = edb
        self.idb = idb
        #: Monotonic creation stamp, for the reported age.
        self.created_monotonic = time.monotonic()
        self._fingerprint: str | None = None

    def __repr__(self) -> str:
        return (f"Snapshot(v{self.version}, "
                f"{self.idb.total_facts()} IDB facts, "
                f"age={self.age_s():.3f}s)")

    def age_s(self) -> float:
        """Seconds since this snapshot was published."""
        return time.monotonic() - self.created_monotonic

    def query(self, text_or_literals,
              stats: EvalStats | None = None) -> set[tuple]:
        """Answer a conjunctive query from the pinned state.

        Each call uses its own :class:`EvalStats` unless one is passed,
        so concurrent readers never share a mutable counter object.

        A single positive atom over constants and variables is answered
        by :func:`~repro.engine.engine.select_answers` — one bound-column
        lookup — and projected onto its variables, counted as the
        interpreter counts it (one atom lookup, one matched row per
        selected row); any other query runs through the interpreter.
        """
        if isinstance(text_or_literals, str):
            literals = parse_query(text_or_literals).literals
        else:
            literals = tuple(text_or_literals)
        stats = stats if stats is not None else EvalStats()
        if len(literals) == 1 and isinstance(literals[0], Atom) \
                and all(isinstance(arg, (Constant, Variable))
                        for arg in literals[0].args):
            return self._select(literals[0], stats)
        return answers(literals, self.program, self.edb, self.idb, stats)

    def _select(self, query: Atom, stats: EvalStats) -> set[tuple]:
        """``query``'s rows projected onto its variables (in order of
        first appearance)."""
        source = self.idb if query.pred in self.program.idb_predicates \
            else self.edb
        rows = select_answers(source, query)
        stats.atom_lookups += 1
        stats.rows_matched += len(rows)
        columns: dict[Variable, int] = {}
        for column, arg in enumerate(query.args):
            if isinstance(arg, Variable):
                columns.setdefault(arg, column)
        picked = tuple(columns.values())
        if picked == tuple(range(query.arity)):
            return set(rows)
        return {tuple(row[column] for column in picked) for row in rows}

    def facts(self, pred: str) -> frozenset[tuple]:
        return self.idb.facts(pred)

    def fingerprint(self) -> str:
        """Digest of the snapshot IDB; cached — a snapshot is immutable.

        Import is local to avoid a cycle (views.py imports this module).
        """
        if self._fingerprint is None:
            from .views import relation_fingerprint
            self._fingerprint = relation_fingerprint(self.idb)
        return self._fingerprint

    def describe(self) -> dict:
        return {
            "version": self.version,
            "idb_facts": self.idb.total_facts(),
            "edb_facts": self.edb.total_facts(),
            "age_s": round(self.age_s(), 6),
        }


class StalenessBound:
    """How stale a served snapshot may be, in versions.

    ``max_lag`` bounds ``source.version - snapshot.version`` — the
    number of applied changesets the answer may be missing.  ``None``
    (the default) accepts any last-good snapshot, which is the
    availability-over-freshness corner of the trade-off.  ``max_lag=0``
    demands the current version (readers then wait, up to their
    deadline, for the writer).
    """

    def __init__(self, max_lag: Optional[int] = None) -> None:
        if max_lag is not None and max_lag < 0:
            raise ValueError("max_lag must be >= 0")
        self.max_lag = max_lag

    def __repr__(self) -> str:
        return f"StalenessBound(max_lag={self.max_lag})"

    def allows(self, snapshot: Snapshot | None,
               source_version: int) -> bool:
        """May ``snapshot`` be served while the source is at
        ``source_version``?"""
        if snapshot is None:
            return False
        return self.max_lag is None \
            or source_version - snapshot.version <= self.max_lag
