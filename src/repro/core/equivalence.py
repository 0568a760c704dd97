"""Empirical semantic-equivalence checking.

Two programs are *semantically equivalent w.r.t. constraints I*
(Section 1) when they compute identical IDB relations on every database
satisfying ``I``.  Exact equivalence of recursive programs is undecidable
in general; we check it empirically on batches of random IC-satisfying
databases — which is how Theorem 4.1 and every push transformation are
validated in the test suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from ..constraints.checker import satisfies, violations
from ..constraints.ic import IntegrityConstraint
from ..datalog.atoms import Atom, Comparison
from ..datalog.program import Program
from ..datalog.terms import ArithExpr, Constant, Variable
from ..engine import evaluate
from ..facts.database import Database


@dataclass(frozen=True)
class Counterexample:
    """A database on which two programs disagree about ``pred``."""

    database: Database
    pred: str
    only_first: frozenset[tuple]
    only_second: frozenset[tuple]

    def __str__(self) -> str:
        return (f"programs disagree on {self.pred}: "
                f"{len(self.only_first)} tuples only in the first, "
                f"{len(self.only_second)} only in the second\n"
                f"database:\n{self.database.to_text()}")


def check_equivalent(first: Program, second: Program, pred: str,
                     databases: Iterable[Database]
                     ) -> Counterexample | None:
    """Compare the two programs' ``pred`` on each database."""
    for database in databases:
        left = evaluate(first, database).facts(pred)
        right = evaluate(second, database).facts(pred)
        if left != right:
            return Counterexample(database, pred,
                                  frozenset(left - right),
                                  frozenset(right - left))
    return None


def make_consistent(database: Database,
                    ics: Sequence[IntegrityConstraint],
                    max_rounds: int = 200) -> Database:
    """Mutate ``database`` until it satisfies every IC.

    Fact-style ICs (database-atom heads with no existential variables)
    are repaired by *adding* the implied facts; all other ICs (denials,
    evaluable heads, existential heads) by *deleting* a body fact of each
    violation.  Deletion can re-expose earlier ICs, hence the outer
    fixpoint loop.
    """
    for _ in range(max_rounds):
        dirty = False
        for ic in ics:
            for binding in violations(ic, database, limit=None):
                dirty = True
                if not _try_repair_by_adding(database, ic, binding):
                    _delete_one_body_fact(database, ic, binding)
                break  # re-evaluate from a clean iterator
        if not dirty:
            return database
    raise RuntimeError("make_consistent did not converge")


def _try_repair_by_adding(database: Database, ic: IntegrityConstraint,
                          binding) -> bool:
    head = ic.head
    if not isinstance(head, Atom):
        return False
    row = []
    for arg in head.args:
        if isinstance(arg, Constant):
            row.append(arg.value)
        elif isinstance(arg, Variable) and arg in binding:
            row.append(binding[arg])
        else:
            return False  # existential head variable
    database.add_fact(head.pred, *row)
    return True


def _delete_one_body_fact(database: Database, ic: IntegrityConstraint,
                          binding) -> None:
    for literal in ic.database_atoms():
        row = []
        grounded = True
        for arg in literal.args:
            if isinstance(arg, Constant):
                row.append(arg.value)
            elif isinstance(arg, Variable) and arg in binding:
                row.append(binding[arg])
            else:
                grounded = False
                break
        if grounded and tuple(row) in database.relation_or_empty(
                literal.pred, literal.arity):
            relation = database.relation(literal.pred)
            rows = set(relation.rows())
            rows.discard(tuple(row))
            relation.clear()
            relation.add_all(rows)
            return
    raise RuntimeError(  # pragma: no cover - violations are grounded
        f"could not ground a body fact of {ic} to delete")


def infer_numeric_columns(program: Program,
                          ics: Sequence[IntegrityConstraint] = ()
                          ) -> dict[str, list[int]]:
    """Guess which EDB columns must hold numbers for sampling.

    A variable compared (``<``, ``<=``, ...) against a numeric constant,
    or used in arithmetic, makes every column it occupies numeric —
    otherwise random symbolic values would make the comparison raise at
    evaluation time.  Numbers then spread over *join classes*: columns
    one variable occupies in a rule or IC body, or in a rule's head and
    body (so classes run through IDB predicates), are one class, and a
    class with a numeric column is all numeric.  A column that joins a
    numeric one draws numbers too, so the two can hold equal values.
    Used by the optimizer's sampled equivalence spot-check to
    parameterize :func:`random_database`.
    """
    scopes: list[tuple[tuple[Atom, ...], tuple[Comparison, ...]]] = []
    for r in program:
        atoms = tuple(lit for lit in r.body if isinstance(lit, Atom))
        comparisons = tuple(lit for lit in r.body
                            if isinstance(lit, Comparison))
        scopes.append(((r.head,) + atoms, comparisons))
    for ic in ics:
        scopes.append((ic.database_atoms(), ic.evaluable_atoms()))

    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(node: tuple[str, int]) -> tuple[str, int]:
        parent.setdefault(node, node)
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    numeric: list[tuple[str, int]] = []
    for atoms, comparisons in scopes:
        first: dict[Variable, tuple[str, int]] = {}
        for atom in atoms:
            for column, arg in enumerate(atom.args):
                if not isinstance(arg, Variable):
                    continue
                node = (atom.pred, column)
                if arg in first:
                    parent[find(node)] = find(first[arg])
                else:
                    first[arg] = node
                    parent.setdefault(node, node)
        for comparison in comparisons:
            operands = (comparison.lhs, comparison.rhs)
            forces_numeric = any(
                isinstance(term, ArithExpr) for term in operands) or any(
                isinstance(term, Constant)
                and isinstance(term.value, (int, float))
                for term in operands)
            if forces_numeric:
                numeric.extend(first[variable] for variable
                               in comparison.variable_set()
                               if variable in first)

    roots = {find(node) for node in numeric}
    edb = program.edb_predicates
    columns: dict[str, list[int]] = {}
    for node in sorted(parent):
        pred, column = node
        if pred in edb and find(node) in roots:
            columns.setdefault(pred, []).append(column)
    return columns


def random_database(schema: dict[str, int], domain_size: int,
                    facts_per_relation: int, rng: random.Random,
                    numeric_columns: Mapping[str, Sequence[int]] | None = None,
                    max_value: int = 100) -> Database:
    """A random database for ``schema`` (predicate -> arity).

    ``numeric_columns[pred]`` lists 0-based columns drawing random
    integers in ``[1, max_value]`` instead of symbols ``c0..c<n>``.
    """
    numeric_columns = numeric_columns or {}
    database = Database()
    for pred, arity in schema.items():
        numeric = set(numeric_columns.get(pred, ()))
        for _ in range(facts_per_relation):
            row = []
            for column in range(arity):
                if column in numeric:
                    row.append(rng.randint(1, max_value))
                else:
                    row.append(f"c{rng.randrange(domain_size)}")
            database.add_fact(pred, *row)
    return database


def random_consistent_databases(schema: dict[str, int],
                                ics: Sequence[IntegrityConstraint],
                                count: int, rng: random.Random,
                                domain_size: int = 8,
                                facts_per_relation: int = 15,
                                numeric_columns: Mapping[str, Sequence[int]]
                                | None = None) -> list[Database]:
    """A batch of random databases repaired to satisfy the ICs."""
    out = []
    for _ in range(count):
        database = random_database(schema, domain_size,
                                   facts_per_relation, rng,
                                   numeric_columns=numeric_columns)
        make_consistent(database, ics)
        assert satisfies(database, *ics)
        out.append(database)
    return out
