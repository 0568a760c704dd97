"""Random EDB and program generators for the benchmarks, the lint
corpus and the differential fuzz tests."""

from __future__ import annotations

import random

from ..facts.database import Database


def random_digraph(nodes: int, edges: int, rng: random.Random,
                   pred: str = "edge", acyclic: bool = True) -> Database:
    """A random (by default acyclic) directed graph."""
    database = Database()
    added = 0
    attempts = 0
    while added < edges and attempts < edges * 20:
        attempts += 1
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a == b:
            continue
        if acyclic and a >= b:
            a, b = b, a
        if database.add_fact(pred, f"n{a}", f"n{b}"):
            added += 1
    return database


def transitive_closure_program(pred: str = "edge",
                               closure: str = "reach") -> str:
    """Source text of the canonical left-linear transitive closure."""
    return (f"r0: {closure}(X, Y) :- {pred}(X, Y).\n"
            f"r1: {closure}(X, Y) :- {closure}(X, Z), {pred}(Z, Y).\n")


def random_linear_program(rng: random.Random, edb_preds: int = 2,
                          nodes: int = 12,
                          edges: int = 24) -> tuple[str, Database]:
    """A random linear-recursive program and a matching random EDB.

    Draws a base rule, one or two linear recursive rules (left- or
    right-linear over random EDB predicates), and one derived predicate
    exercising a harder feature — stratified negation, a comparison
    selection, or a constant-anchored probe.  Every program is safe and
    stratified by construction.  Used by the differential fuzz tests:
    the same (program, EDB) pair must produce identical results under
    every executor / planner / interning combination.
    """
    preds = [f"e{index}" for index in range(max(1, edb_preds))]
    database = Database()
    for pred in preds:
        database.merge(random_digraph(nodes, edges, rng, pred=pred))
        database.ensure(pred, 2)
    lines = [f"b0: p(X, Y) :- {rng.choice(preds)}(X, Y)."]
    for number in range(rng.randint(1, 2)):
        step = rng.choice(preds)
        if rng.random() < 0.5:
            lines.append(f"l{number}: p(X, Z) :- p(X, Y), {step}(Y, Z).")
        else:
            lines.append(f"r{number}: p(X, Z) :- {step}(X, Y), p(Y, Z).")
    flavor = rng.randrange(3)
    if flavor == 0:
        guard = rng.choice(preds)
        lines.append(f"q0: q(X, Y) :- p(X, Y), not {guard}(X, Y).")
    elif flavor == 1:
        lines.append("q0: q(X, Y) :- p(X, Y), X < Y.")
    else:
        anchor = f"n{rng.randrange(nodes)}"
        lines.append(f"q0: q(Y) :- p({anchor}, Y).")
    return "\n".join(lines) + "\n", database
