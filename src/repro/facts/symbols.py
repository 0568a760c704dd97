"""Dense-integer interning of constants.

Classic Datalog engines do not join over raw values: every constant is
*interned* into a dense ``int`` code once, at load time, and the entire
fixpoint — rows, hash indexes, join keys, duplicate checks — runs over
small integers.  Codes hash and compare in a handful of machine
instructions, tuples of codes pack densely, and the dense numbering
doubles as a direct index into the decode table, so decoding back to
values (needed only at result materialization and derivation-hook
boundaries) is a list subscript.

:class:`SymbolTable` is the shared value <-> code mapping.  A
:class:`~repro.facts.database.Database` constructed with a table stores
every relation in *interned mode* (rows are ``tuple[int, ...]``); the
value-level API of :class:`~repro.facts.relation.Relation` keeps working
unchanged by encoding/decoding at the boundary, while the compiled
kernels (:mod:`repro.engine.compile`) operate on the raw coded storage
directly.

Note on numeric coercion: Python sets already identify ``1``, ``1.0``
and ``True`` (equal values, equal hashes), keeping the first-inserted
representative.  Interning through a dict reproduces exactly that
first-wins behaviour, so interned and raw relations agree on contents.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..datalog.terms import ConstValue

#: Interning modes accepted by the evaluation entry points.
INTERNING_MODES = ("on", "off")


def validate_interning(interning: str) -> None:
    if interning not in INTERNING_MODES:
        from ..errors import EvaluationError

        raise EvaluationError(
            f"unknown interning mode {interning!r}; expected one of "
            f"{INTERNING_MODES}")


class SymbolTable:
    """A bijection between constants and dense ``int`` codes.

    Codes are assigned in first-seen order starting at 0 and are never
    reused or compacted, so ``values[code]`` is stable for the lifetime
    of the table.  One table is shared by every relation of an interned
    database (and by the IDB/delta relations the engines derive from
    it), so codes are directly comparable across relations.
    """

    __slots__ = ("_codes", "values")

    def __init__(self, values: Iterable[ConstValue] | None = None) -> None:
        self._codes: dict[ConstValue, int] = {}
        #: The decode table: ``values[code]`` is the interned constant.
        #: Grows append-only; treat as read-only.
        self.values: list[ConstValue] = []
        if values:
            for value in values:
                self.intern(value)

    def __len__(self) -> int:
        return len(self.values)

    def __contains__(self, value: ConstValue) -> bool:
        return value in self._codes

    def __repr__(self) -> str:
        return f"SymbolTable({len(self.values)} symbols)"

    # -- encode ----------------------------------------------------------------
    def intern(self, value: ConstValue) -> int:
        """The code for ``value``, assigning a fresh one when unseen."""
        code = self._codes.get(value)
        if code is None:
            code = len(self.values)
            self._codes[value] = code
            self.values.append(value)
        return code

    def code(self, value: ConstValue) -> Optional[int]:
        """The code for ``value``, or None when it was never interned.

        Lookups (membership tests, bound-pattern probes) use this
        instead of :meth:`intern` so that probing for an unseen value
        does not grow the table.
        """
        return self._codes.get(value)

    def intern_row(self, row: Iterable[ConstValue]) -> tuple[int, ...]:
        """Encode a tuple of values, interning unseen ones."""
        intern = self.intern
        return tuple(intern(value) for value in row)

    def code_row(self, row: Iterable[ConstValue]
                 ) -> Optional[tuple[int, ...]]:
        """Encode a tuple of values; None when any value is unseen."""
        get = self._codes.get
        out = []
        for value in row:
            code = get(value)
            if code is None:
                return None
            out.append(code)
        return tuple(out)

    # -- decode ----------------------------------------------------------------
    def value(self, code: int) -> ConstValue:
        """The constant a code stands for."""
        return self.values[code]
