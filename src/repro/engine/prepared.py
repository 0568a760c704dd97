"""Prepared bound queries: set up once per binding pattern and EDB version.

The paper optimizes once, at compile time, whatever the query's
constants (Sections 1 and 6; E6).  A bound query's setup — the dataflow
analysis, the plan choice and the compiled kernels — depends on the
query only through its predicate and adornment, so what one query set
up is handed to the next of the same pattern (the once-per-shape
setting of Fejza & Genevès, arXiv:2312.02572):

- :func:`~repro.analysis.dataflow.analyze_dataflow` keeps its result;
- :func:`~repro.engine.optimizer.choose_plan` keeps the chosen
  candidate with its magic seed held apart, and seeds it per query;
- :func:`~repro.engine.optimizer.cbo_evaluate` runs every query of the
  pattern with one :class:`~repro.engine.compile.KernelCache`.

An entry lives on the :class:`~repro.datalog.program.Program` it was
prepared for (``Program._prepared``), one per ``(query predicate,
adornment, ICs)``.  The ICs count by identity, as for
``generate_residues``: two equal-valued ICs with different labels never
share an entry.  An entry is valid for one *EDB stamp*: the ``(uid,
version)`` of every relation of the EDB, and the identity of its symbol
table.  A write bumps a version, and ``interning="on"`` over a raw EDB
re-encodes it into new relations over a new table; either way the next
lookup replaces the entry.  There is one entry per binding pattern and
nothing to size.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .compile import KernelCache
from .magic import adornment_of

if TYPE_CHECKING:
    from ..analysis.dataflow import DataflowResult
    from ..datalog.atoms import Atom
    from ..datalog.program import Program
    from ..facts.database import Database
    from ..facts.symbols import SymbolTable
    from .optimizer import PreparedPlan

#: ``(relation name, uid, version)`` for every relation of an EDB.
Stamp = tuple[tuple[str, int, int], ...]


class PreparedQuery:
    """What one binding pattern set up over one EDB stamp.

    Attributes:
        stamp / symbols: the EDB the entry is valid for.
        ics: the ICs of the key, held so that their ids stay theirs.
        kernels: the compiled kernels every query of the pattern runs.
        dataflow: :func:`~repro.analysis.dataflow.analyze_dataflow`'s
            result, kept on the IC-free entry (the analysis takes no
            ICs); None until analyzed.
        plan: :func:`~repro.engine.optimizer.choose_plan`'s choice,
            seed held apart; None until chosen.
        violated: positions in ``ics`` of the ICs the EDB violates;
            None until checked.
    """

    __slots__ = ("stamp", "symbols", "ics", "kernels", "dataflow", "plan",
                 "violated")

    def __init__(self, stamp: Stamp, symbols: SymbolTable | None,
                 ics: tuple) -> None:
        self.stamp = stamp
        self.symbols = symbols
        self.ics = ics
        self.kernels = KernelCache(symbols=symbols)
        self.dataflow: DataflowResult | None = None
        self.plan: PreparedPlan | None = None
        self.violated: tuple[int, ...] | None = None


def edb_stamp(edb: Database) -> Stamp | None:
    """The stamp of ``edb``, or None when a relation keeps no version (a
    published snapshot's read-only view): such an EDB is never
    prepared for."""
    stamp: list[tuple[str, int, int]] = []
    for name in edb:
        relation = edb.relation(name)
        version = getattr(relation, "version", None)
        if version is None:
            return None
        stamp.append((name, relation.uid, version))
    return tuple(stamp)


def prepared(program: Program, edb: Database, query: Atom | None,
             ics: Sequence = ()) -> PreparedQuery | None:
    """The entry of ``query``'s pattern and ``ics`` for ``edb``'s stamp.

    A stale entry is replaced by an empty one; None when ``edb`` has no
    stamp.
    """
    stamp = edb_stamp(edb)
    if stamp is None:
        return None
    ics = tuple(ics)
    key = (None if query is None else query.pred,
           None if query is None else adornment_of(query),
           tuple(map(id, ics)))
    entry = program._prepared.get(key)
    if entry is None or entry.stamp != stamp \
            or entry.symbols is not edb.symbols:
        entry = program._prepared[key] = PreparedQuery(stamp, edb.symbols,
                                                       ics)
    return entry
