"""The extensional database: a dictionary of named relations."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from ..datalog.atoms import Atom
from ..datalog.parser import parse_statements
from ..datalog.rules import Rule
from ..datalog.terms import Constant, ConstValue
from ..errors import EvaluationError
from .relation import PatchedRelation, Relation, Row
from .symbols import SymbolTable


class Database:
    """A mapping from predicate name to :class:`Relation`.

    Databases are mutable; evaluation engines never mutate the EDB they are
    given (IDB results are accumulated in a separate database).

    A database constructed with a :class:`SymbolTable` (``symbols=``)
    stores every relation in interned mode: rows are dense ``int``
    codes, with values encoded/decoded at the value-level API boundary.
    The table is shared across all relations of the database — and with
    the IDB/delta databases the engines derive from it — so codes are
    comparable everywhere.
    """

    def __init__(self,
                 relations: Mapping[str, Iterable[Row]] | None = None,
                 symbols: SymbolTable | None = None) -> None:
        self._relations: dict[str, Relation] = {}
        #: The shared intern table, or None for raw storage.
        self.symbols = symbols
        if relations:
            for name, rows in relations.items():
                for row in rows:
                    self.add_fact(name, *row)

    @classmethod
    def of_relations(cls, relations: Iterable[Relation | PatchedRelation],
                     symbols: SymbolTable | None = None) -> "Database":
        """A database over existing relation objects, adopted as they are.

        With :class:`PatchedRelation` members the result is a read-only
        database (a published snapshot): every accessor works, every
        mutator fails on the relation.
        """
        out = cls(symbols=symbols)
        for rel in relations:
            out._relations[rel.name] = rel  # type: ignore[assignment]
        return out

    # -- container protocol -------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[str]:
        return iter(self._relations)

    def __len__(self) -> int:
        return len(self._relations)

    def __repr__(self) -> str:
        inner = ", ".join(f"{name}/{rel.arity}:{len(rel)}"
                          for name, rel in sorted(self._relations.items()))
        return f"Database({inner})"

    # -- access ---------------------------------------------------------------
    def relation(self, name: str) -> Relation:
        """The relation for ``name``; raises on unknown predicates."""
        try:
            return self._relations[name]
        except KeyError:
            raise EvaluationError(f"unknown relation {name!r}") from None

    def relation_or_empty(self, name: str, arity: int) -> Relation:
        """The relation for ``name`` or a fresh empty one of ``arity``."""
        rel = self._relations.get(name)
        if rel is None:
            return Relation(name, arity, symbols=self.symbols)
        return rel

    def ensure(self, name: str, arity: int) -> Relation:
        """Get-or-create the relation for ``name``."""
        rel = self._relations.get(name)
        if rel is None:
            rel = Relation(name, arity, symbols=self.symbols)
            self._relations[name] = rel
        elif rel.arity != arity:
            raise EvaluationError(
                f"relation {name!r} has arity {rel.arity}, not {arity}")
        return rel

    def predicates(self) -> frozenset[str]:
        return frozenset(self._relations)

    def total_facts(self) -> int:
        return sum(len(rel) for rel in self._relations.values())

    # -- mutation ----------------------------------------------------------------
    def add_fact(self, name: str, *values: ConstValue) -> bool:
        """Add one ground fact; returns True when new."""
        return self.ensure(name, len(values)).add(values)

    def add_atom(self, atom: Atom) -> bool:
        """Add a ground atom (every argument must be a constant)."""
        values = []
        for arg in atom.args:
            if not isinstance(arg, Constant):
                raise EvaluationError(f"fact is not ground: {atom}")
            values.append(arg.value)
        return self.add_fact(atom.pred, *values)

    def facts(self, name: str) -> frozenset[Row]:
        """All rows of ``name`` (empty when the relation is unknown)."""
        rel = self._relations.get(name)
        return rel.rows() if rel is not None else frozenset()

    def copy(self) -> "Database":
        return Database.of_relations(
            (rel.copy() for rel in self._relations.values()), self.symbols)

    def interned(self, symbols: SymbolTable | None = None) -> "Database":
        """This database re-encoded over a :class:`SymbolTable`.

        Returns ``self`` unchanged when already interned; otherwise a
        new database sharing no storage with this one, with every
        constant interned into ``symbols`` (a fresh table by default).
        Cost is one pass over the facts; evaluation entry points call
        this once per run when ``interning="on"``.
        """
        if self.symbols is not None:
            return self
        out = Database(symbols=symbols if symbols is not None
                       else SymbolTable())
        for name, rel in self._relations.items():
            out.ensure(name, rel.arity).add_all(rel)
        return out

    def merge(self, other: "Database") -> int:
        """Add every fact of ``other``; returns the number of new facts."""
        added = 0
        for name in other:
            rel = other.relation(name)
            added += self.ensure(name, rel.arity).add_all(rel)
        return added

    # -- text I/O -------------------------------------------------------------
    @classmethod
    def from_text(cls, text: str) -> "Database":
        """Build a database from fact syntax, e.g. ``par(ann, bob, 30).``"""
        db = cls()
        for statement in parse_statements(text):
            if not isinstance(statement, Rule) or statement.body:
                raise EvaluationError(
                    f"expected only facts, found: {statement}")
            db.add_atom(statement.head)
        return db

    def to_text(self) -> str:
        """Serialize as fact syntax (sorted, round-trippable)."""
        lines = []
        for name in sorted(self._relations):
            for row in sorted(self._relations[name],
                              key=lambda r: tuple(map(str, r))):
                args = ", ".join(str(Constant(v)) for v in row)
                lines.append(f"{name}({args}).")
        return "\n".join(lines)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        names = self.predicates() | other.predicates()
        return all(self.facts(n) == other.facts(n) for n in names)

    def __hash__(self) -> int:  # pragma: no cover - mutable, rarely hashed
        return id(self)
