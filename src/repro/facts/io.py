"""CSV import/export for databases.

Real EDBs arrive as delimited files; these helpers move relations in and
out of CSV with a light typing scheme: by default every cell that parses
as an integer (or float) is loaded as a number, everything else as a
string.  An explicit ``types`` signature (e.g. ``"str,int,str"``)
overrides the inference per column.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

from ..datalog.terms import ConstValue
from ..errors import EvaluationError
from .database import Database

_PARSERS = {
    "str": str,
    "int": int,
    "float": float,
}


def _infer(cell: str) -> ConstValue:
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def _typed_row(cells: Sequence[str],
               parsers: Sequence | None) -> tuple[ConstValue, ...]:
    if parsers is None:
        return tuple(_infer(cell) for cell in cells)
    if len(parsers) != len(cells):
        raise EvaluationError(
            f"row has {len(cells)} columns, type signature has "
            f"{len(parsers)}")
    out = []
    for parser, cell in zip(parsers, cells):
        try:
            out.append(parser(cell))
        except ValueError as error:
            raise EvaluationError(
                f"cannot parse {cell!r} as {parser.__name__}") from error
    return tuple(out)


def _parsers_for(types: str | None):
    if types is None:
        return None
    parsers = []
    for name in types.split(","):
        name = name.strip()
        if name not in _PARSERS:
            raise EvaluationError(
                f"unknown column type {name!r}; use "
                f"{sorted(_PARSERS)}")
        parsers.append(_PARSERS[name])
    return parsers


def load_csv(db: Database, pred: str, path: str | Path,
             types: str | None = None, delimiter: str = ",",
             header: bool = False) -> int:
    """Load a CSV file into relation ``pred``; returns rows added."""
    parsers = _parsers_for(types)
    added = 0
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        for index, cells in enumerate(reader):
            if header and index == 0:
                continue
            if not cells:
                continue
            if db.add_fact(pred, *_typed_row(cells, parsers)):
                added += 1
    return added


def save_csv(db: Database, pred: str, path: str | Path,
             delimiter: str = ",") -> int:
    """Write relation ``pred`` to a CSV file (sorted); returns rows."""
    rows = sorted(db.facts(pred), key=lambda r: tuple(map(str, r)))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        for row in rows:
            writer.writerow(row)
    return len(rows)


def load_directory(path: str | Path, types: dict[str, str] | None = None,
                   delimiter: str = ",") -> Database:
    """Build a database from a directory of ``<pred>.csv`` files.

    The database stores raw values; :meth:`Database.interned
    <repro.facts.database.Database.interned>` re-encodes it over dense
    ``int`` codes.
    """
    directory = Path(path)
    if not directory.is_dir():
        raise EvaluationError(f"{directory} is not a directory")
    types = types or {}
    db = Database()
    for csv_path in sorted(directory.glob("*.csv")):
        pred = csv_path.stem
        load_csv(db, pred, csv_path, types=types.get(pred),
                 delimiter=delimiter)
    return db


def save_directory(db: Database, path: str | Path,
                   predicates: Iterable[str] | None = None,
                   delimiter: str = ",") -> int:
    """Write relations as ``<pred>.csv`` files; returns total rows."""
    directory = Path(path)
    directory.mkdir(parents=True, exist_ok=True)
    total = 0
    for pred in sorted(predicates if predicates is not None else db):
        total += save_csv(db, pred, directory / f"{pred}.csv",
                          delimiter=delimiter)
    return total
