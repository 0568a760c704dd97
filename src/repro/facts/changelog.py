"""EDB versioning: changesets and the change-log database.

A :class:`Changeset` is a batch of EDB insertions and deletions —
the unit of update traffic a serving deployment applies between
queries.  Semantics are *set-oriented and order-free*: applying
``(inserts, deletes)`` to a database ``db`` produces
``(db - deletes) | inserts`` (a row present in both sets ends up
present).

A :class:`VersionedDatabase` wraps a :class:`~repro.facts.database.
Database` with a monotonically increasing version number and a
change-log of *effective* changesets: :meth:`VersionedDatabase.apply`
records only the rows that actually changed membership (deletes that
were present, inserts that were absent), so the log entries compose
exactly.  :meth:`VersionedDatabase.changes_since` folds the log into
one net changeset between two versions — precisely the delta the
incremental maintenance engine (:mod:`repro.incremental`) needs to
bring a stale materialized view current without replaying history.

The text syntax mirrors the fact syntax with a sign prefix::

    +edge(a, b).
    -edge(c, d).

one signed fact per statement (several may share a line).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from ..datalog.parser import parse_statements
from ..datalog.rules import Rule
from ..datalog.terms import Constant, ConstValue
from ..errors import EvaluationError, ParseError
from .database import Database
from .relation import Row


@dataclass
class Changeset:
    """A batch of EDB insertions and deletions, by predicate name."""

    inserts: dict[str, set[Row]] = field(default_factory=dict)
    deletes: dict[str, set[Row]] = field(default_factory=dict)

    # -- construction --------------------------------------------------------
    def insert(self, pred: str, row: Iterable[ConstValue]) -> "Changeset":
        """Schedule one insertion; returns ``self`` for chaining."""
        self.inserts.setdefault(pred, set()).add(tuple(row))
        return self

    def delete(self, pred: str, row: Iterable[ConstValue]) -> "Changeset":
        """Schedule one deletion; returns ``self`` for chaining."""
        self.deletes.setdefault(pred, set()).add(tuple(row))
        return self

    @classmethod
    def from_text(cls, text: str) -> "Changeset":
        """Parse signed fact syntax (``+p(a). -q(b, c).``)."""
        changeset = cls()
        for signed in _split_signed(text):
            sign, fact_text = signed
            for statement in parse_statements(fact_text):
                if not isinstance(statement, Rule) or statement.body:
                    raise ParseError(
                        f"changeset entries must be ground facts, "
                        f"found: {statement}")
                values = []
                for arg in statement.head.args:
                    if not isinstance(arg, Constant):
                        raise ParseError(
                            f"changeset fact is not ground: "
                            f"{statement.head}")
                    values.append(arg.value)
                if sign == "+":
                    changeset.insert(statement.head.pred, values)
                else:
                    changeset.delete(statement.head.pred, values)
        return changeset

    def to_text(self) -> str:
        """Serialize as signed fact syntax (sorted, round-trippable)."""
        lines = []
        for sign, by_pred in (("-", self.deletes), ("+", self.inserts)):
            for pred in sorted(by_pred):
                for row in sorted(by_pred[pred],
                                  key=lambda r: tuple(map(str, r))):
                    args = ", ".join(str(Constant(v)) for v in row)
                    lines.append(f"{sign}{pred}({args}).")
        return "\n".join(lines)

    # -- inspection ----------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not any(self.inserts.values()) \
            and not any(self.deletes.values())

    def total_inserts(self) -> int:
        return sum(len(rows) for rows in self.inserts.values())

    def total_deletes(self) -> int:
        return sum(len(rows) for rows in self.deletes.values())

    def predicates(self) -> frozenset[str]:
        """Every predicate the changeset touches."""
        return frozenset(self.inserts) | frozenset(self.deletes)

    def __repr__(self) -> str:
        return (f"Changeset(+{self.total_inserts()}, "
                f"-{self.total_deletes()})")

    # -- algebra -------------------------------------------------------------
    def normalized(self) -> "Changeset":
        """An equivalent changeset with no row in both sets.

        ``(db - D) | I`` leaves a row present whenever it is inserted,
        regardless of a simultaneous delete, so rows in both sets can
        drop out of ``deletes`` (never out of ``inserts`` — the row may
        be absent from ``db``).
        """
        out = Changeset(
            inserts={pred: set(rows)
                     for pred, rows in self.inserts.items() if rows})
        for pred, rows in self.deletes.items():
            kept = rows - self.inserts.get(pred, set())
            if kept:
                out.deletes[pred] = kept
        return out

    def then(self, later: "Changeset") -> "Changeset":
        """The one changeset that applying ``self`` then ``later``
        amounts to, exact for any two changesets.

        ``(((db - D1) | I1) - D2) | I2`` is ``(db - (D1 | D2)) | ((I1 -
        D2) | I2)``: a later delete also deletes and a later insert also
        inserts.  :meth:`compose` cancels instead, which is exact only
        for effective changesets; the serving writer folds changesets as
        they were submitted, so it uses this.
        """
        inserts = {pred: set(rows) for pred, rows in self.inserts.items()}
        deletes = {pred: set(rows) for pred, rows in self.deletes.items()}
        for pred, rows in later.deletes.items():
            deletes.setdefault(pred, set()).update(rows)
            inserts.get(pred, set()).difference_update(rows)
        for pred, rows in later.inserts.items():
            inserts.setdefault(pred, set()).update(rows)
        return Changeset(
            inserts={p: r for p, r in inserts.items() if r},
            deletes={p: r for p, r in deletes.items() if r})

    def compose(self, later: "Changeset") -> "Changeset":
        """The net effect of applying ``self`` then ``later``.

        Exact when both changesets are *effective* (each delete was
        present, each insert absent, as recorded by
        :meth:`VersionedDatabase.apply`): a later delete cancels an
        earlier insert and vice versa.
        """
        inserts = {pred: set(rows) for pred, rows in self.inserts.items()}
        deletes = {pred: set(rows) for pred, rows in self.deletes.items()}
        for pred, rows in later.deletes.items():
            pending = inserts.get(pred, set())
            for row in rows:
                if row in pending:
                    pending.discard(row)
                else:
                    deletes.setdefault(pred, set()).add(row)
        for pred, rows in later.inserts.items():
            removed = deletes.get(pred, set())
            for row in rows:
                if row in removed:
                    removed.discard(row)
                else:
                    inserts.setdefault(pred, set()).add(row)
        return Changeset(
            inserts={p: r for p, r in inserts.items() if r},
            deletes={p: r for p, r in deletes.items() if r})


def _split_signed(text: str) -> Iterator[tuple[str, str]]:
    """Split changeset text into (sign, fact-statement) pairs."""
    depth = 0
    start = None
    sign = None
    for position, char in enumerate(text):
        if start is None:
            if char in "+-":
                sign = char
                start = position + 1
            elif not char.isspace():
                raise ParseError(
                    f"changeset entries must start with '+' or '-', "
                    f"found {char!r}")
            continue
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == "." and depth == 0:
            assert sign is not None
            yield sign, text[start:position + 1]
            start = None
            sign = None
    if start is not None:
        raise ParseError("unterminated changeset entry (missing '.')")


@dataclass(frozen=True)
class AppliedChange:
    """One change-log entry: the version it produced and its effect."""

    version: int
    changeset: Changeset


class VersionedDatabase:
    """A database under a monotone version counter and a change-log.

    The wrapped :attr:`db` is mutated in place by :meth:`apply`; readers
    holding the database object always see the newest version.  The log
    keeps the *effective* changeset per version so any two versions can
    be diffed with :meth:`changes_since`.
    """

    def __init__(self, db: Database | None = None) -> None:
        self.db = db if db is not None else Database()
        self.version = 0
        self.log: list[AppliedChange] = []

    def __repr__(self) -> str:
        return f"VersionedDatabase(v{self.version}, {self.db!r})"

    def apply(self, changeset: Changeset,
              idb_predicates: Iterable[str] = ()) -> int:
        """Apply a changeset; returns the new version number.

        Deletions of absent rows and insertions of present rows are
        no-ops and are *not* recorded — the logged changeset is the
        exact membership delta.  ``idb_predicates`` (when the caller
        knows the program) guards against changesets that try to
        mutate derived relations directly.
        """
        self.check(changeset, idb_predicates)
        normalized = changeset.normalized()
        effective = Changeset()
        for pred, rows in normalized.deletes.items():
            rel = self.db.relation_or_empty(pred, _arity_of(rows))
            for row in sorted(rows, key=lambda r: tuple(map(str, r))):
                if rel.discard(row):
                    effective.delete(pred, row)
        for pred, rows in normalized.inserts.items():
            rel = self.db.ensure(pred, _arity_of(rows))
            for row in sorted(rows, key=lambda r: tuple(map(str, r))):
                if rel.add(row):
                    effective.insert(pred, row)
        self.version += 1
        self.log.append(AppliedChange(self.version, effective))
        return self.version

    def check(self, changeset: Changeset,
              idb_predicates: Iterable[str] = ()) -> None:
        """Raise the ``EvaluationError`` :meth:`apply` would, up front.

        The pre-mutation guards of :meth:`apply`, callable on their own
        (the serving writer screens queued changesets with
        them): no predicate of ``idb_predicates`` is touched, and every
        row has the arity of the stored relation — or, for a predicate
        the database does not hold yet, of the first row seen.  Run
        *before* the first mutation, so a bad row leaves ``db``,
        ``version`` and ``log`` untouched instead of a half-applied,
        unlogged changeset that every view and snapshot then silently
        diverges from.
        """
        derived = changeset.predicates() & frozenset(idb_predicates)
        if derived:
            raise EvaluationError(
                f"changeset touches IDB predicate"
                f"{'s' if len(derived) > 1 else ''} "
                f"{', '.join(sorted(derived))}; only EDB relations can "
                "be updated")
        arities = {pred: self.db.relation(pred).arity
                   for pred in changeset.predicates() if pred in self.db}
        for by_pred in (changeset.deletes, changeset.inserts):
            for pred, rows in by_pred.items():
                for row in rows:
                    expected = arities.setdefault(pred, len(row))
                    if len(row) != expected:
                        raise EvaluationError(
                            f"changeset row {pred}{row!r} has arity "
                            f"{len(row)}, relation {pred!r} has arity "
                            f"{expected}; nothing was applied")

    def changes_since(self, version: int) -> Changeset:
        """The net changeset between ``version`` and :attr:`version`.

        Entry ``v`` of the log sits at index ``v - 1`` (:meth:`apply`
        appends exactly one entry per version), so this composes the
        tail ``log[version:]`` and never scans what is already behind.
        """
        if version > self.version:
            raise EvaluationError(
                f"version {version} is ahead of the database "
                f"(at {self.version})")
        net = Changeset()
        for entry in self.log[max(version, 0):]:
            net = net.compose(entry.changeset)
        return net


def _arity_of(rows: Mapping | set) -> int:
    return len(next(iter(rows)))
