"""Test-only data generators and oracles.

Nothing in ``src/`` calls these: they build the graphs, changesets and
historical database states the tests check the library against.
"""

from __future__ import annotations

import random
from typing import Iterable

from repro.facts import Database
from repro.facts.changelog import Changeset, VersionedDatabase


# -- graph generators ---------------------------------------------------------

def chain_edges(length: int, pred: str = "edge") -> Database:
    """A single path ``n0 -> n1 -> ... -> n<length>``."""
    database = Database()
    for index in range(length):
        database.add_fact(pred, f"n{index}", f"n{index + 1}")
    return database


def tree_edges(depth: int, fanout: int, pred: str = "edge") -> Database:
    """A complete ``fanout``-ary tree of the given depth (edges go
    child -> parent so the root is everyone's ancestor)."""
    database = Database()
    frontier = ["n0"]
    counter = 1
    for _ in range(depth):
        next_frontier = []
        for parent in frontier:
            for _ in range(fanout):
                child = f"n{counter}"
                counter += 1
                database.add_fact(pred, child, parent)
                next_frontier.append(child)
        frontier = next_frontier
    return database


def layered_digraph(layers: int, width: int, fanout: int,
                    rng: random.Random, pred: str = "edge") -> Database:
    """A layered DAG: every node links to ``fanout`` nodes one layer up.

    Recursion depth is exactly ``layers``, which makes derivation counts
    predictable.
    """
    database = Database()
    for layer in range(layers):
        for position in range(width):
            source = f"l{layer}_{position}"
            targets = rng.sample(range(width), min(fanout, width))
            for target in targets:
                database.add_fact(pred, source, f"l{layer + 1}_{target}")
    return database


def unary_subset(database: Database, source_pred: str, column: int,
                 target_pred: str, fraction: float,
                 rng: random.Random) -> None:
    """Populate ``target_pred(x)`` with a random fraction of the values
    in ``source_pred``'s ``column``."""
    values = sorted({row[column] for row in database.facts(source_pred)},
                    key=str)
    for value in values:
        if rng.random() < fraction:
            database.add_fact(target_pred, value)


# -- changesets and historical states ----------------------------------------

def random_changeset(db: Database, rng: random.Random,
                     insert_fraction: float = 0.0,
                     delete_fraction: float = 0.0,
                     preds: Iterable[str] | None = None) -> Changeset:
    """A random changeset over ``db``'s relations.

    Deletions sample existing rows; insertions recombine per-column
    values already present in the relation (so they join like real
    data), skipping rows the relation already holds.  Fractions are of
    each relation's cardinality, rounded up to at least one row when
    the fraction is positive and the relation is non-empty.
    """
    changeset = Changeset()
    for pred in sorted(preds if preds is not None else db):
        rows = sorted(db.facts(pred), key=lambda r: tuple(map(str, r)))
        if not rows:
            continue
        if delete_fraction > 0:
            count = max(1, int(len(rows) * delete_fraction))
            for row in rng.sample(rows, min(count, len(rows))):
                changeset.delete(pred, row)
        if insert_fraction > 0:
            count = max(1, int(len(rows) * insert_fraction))
            columns = [sorted({row[c] for row in rows}, key=str)
                       for c in range(len(rows[0]))]
            existing = set(rows)
            made = 0
            for _ in range(count * 20):
                if made >= count:
                    break
                candidate = tuple(rng.choice(column) for column in columns)
                if candidate in existing:
                    continue
                existing.add(candidate)
                changeset.insert(pred, candidate)
                made += 1
    return changeset


def state_at(source: VersionedDatabase, version: int) -> Database:
    """An independent copy of ``source``'s database as of ``version``.

    Rolls the net changeset since ``version`` back over a copy of the
    current state: the log records effective deltas (each delete was
    present, each insert absent), so swapping their inserts and deletes
    undoes them exactly.  This lets a differential test check a snapshot
    served at version ``v`` against a from-scratch evaluation *at* ``v``
    while the live database has long since moved on.
    """
    net = source.changes_since(version)
    out = source.db.copy()
    for pred, rows in net.inserts.items():
        relation = out.relation_or_empty(pred, len(next(iter(rows))))
        for row in rows:
            relation.discard(row)
    for pred, rows in net.deletes.items():
        out.ensure(pred, len(next(iter(rows)))).add_all(rows)
    return out
