"""Shared fixtures: paper examples, small databases, deterministic RNG."""

from __future__ import annotations

import random

import pytest

from repro.datalog import Program, Rule, parse_program
from repro.engine import evaluate, holds
from repro.facts import Database
from repro.workloads import (example_2_1, example_3_2, example_4_1,
                             example_4_3, example_5_1)


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def tc_program():
    """The canonical left-linear transitive closure."""
    return parse_program("""
        r0: reach(X, Y) :- edge(X, Y).
        r1: reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """)


@pytest.fixture
def chain_db():
    """a -> b -> c -> d."""
    return Database.from_text("""
        edge(a, b).
        edge(b, c).
        edge(c, d).
    """)


@pytest.fixture
def diamond_db():
    """a -> {b, c} -> d (two paths of equal length)."""
    return Database.from_text("""
        edge(a, b).
        edge(a, c).
        edge(b, d).
        edge(c, d).
    """)


@pytest.fixture
def ex21():
    return example_2_1()


@pytest.fixture
def ex32():
    return example_3_2()


@pytest.fixture
def ex41():
    return example_4_1()


@pytest.fixture
def ex43():
    return example_4_3()


@pytest.fixture
def ex51():
    return example_5_1()


def tc_closure(edges: set[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Reference transitive closure for cross-checking engines."""
    closure = set(edges)
    changed = True
    while changed:
        changed = False
        for (a, b) in list(closure):
            for (c, d) in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    changed = True
    return frozenset(closure)


def dataflow_verdict_violations(program, edb, flow, **options) -> list[str]:
    """Check what a dataflow analysis claims against a plain evaluation.

    The engine no longer consumes the analysis, so its verdicts are
    held to what evaluation observes: ``program`` runs (semi-naively,
    under ``options``) with every comparison ``flow`` calls always-true
    taken *out* of its rule, and a derivation hook watches each
    solution.  Returns one message per broken claim — an inferred-empty
    predicate that has rows, a dead rule with a solution, a removed
    comparison that fails on a solution it would have been asked about.
    """
    dead = {rule.label for rule in program if flow.is_dead(rule)}
    removed: dict[str, list] = {}
    rules = []
    for rule in program:
        true = flow.true_checks.get(rule, frozenset())
        removed[rule.label] = [rule.body[index] for index in sorted(true)]
        rules.append(Rule(rule.head,
                          tuple(lit for index, lit in enumerate(rule.body)
                                if index not in true), rule.label))
    stripped = Program(rules)
    broken: list[str] = []

    def hook(rule, binding, round_index):
        if rule.label in dead:
            broken.append(f"dead rule {rule.label} has solution {binding}")
        for comparison in removed[rule.label]:
            if not holds(comparison, binding):
                broken.append(f"{rule.label}: always-true {comparison} "
                              f"rejects {binding}")
        return True

    result = evaluate(stripped, edb, hook=hook, **options)
    for pred in sorted(flow.empty & program.idb_predicates):
        if result.count(pred):
            broken.append(f"{pred} inferred empty, has "
                          f"{result.count(pred)} rows")
    return broken
