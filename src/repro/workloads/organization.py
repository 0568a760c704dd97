"""The organizational workload (Example 4.1), scalable and IC-consistent.

Employees form a forest of reporting lines (``boss(E, B, R)``: B is a
boss of E with rank R); ``ic1`` forces every executive-rank boss to be
experienced, which the generator satisfies by construction plus repair.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..constraints.checker import repair, satisfies
from ..facts.database import Database
from .paper_examples import example_4_1

RANKS = ("executive", "manager", "staff")


@dataclass(frozen=True)
class OrganizationParams:
    """Knobs for the generator."""

    levels: int = 5
    width: int = 12
    executive_fraction: float = 0.3
    experienced_fraction: float = 0.4
    same_level_triples: int = 30


def generate_organization(params: OrganizationParams,
                          rng: random.Random) -> Database:
    """Build an EDB satisfying Example 4.1's ``ic1``."""
    db = Database()
    names = [[f"e{level}_{pos}" for pos in range(params.width)]
             for level in range(params.levels)]

    # Reporting lines: each employee has one boss one level up.
    for level in range(1, params.levels):
        for employee in names[level]:
            boss = rng.choice(names[level - 1])
            rank = "executive" if rng.random() < \
                params.executive_fraction else rng.choice(RANKS[1:])
            db.add_fact("boss", employee, boss, rank)

    for level_names in names:
        for employee in level_names:
            if rng.random() < params.experienced_fraction:
                db.add_fact("experienced", employee)

    for _ in range(params.same_level_triples):
        level = rng.randrange(params.levels)
        trio = [rng.choice(names[level]) for _ in range(3)]
        db.add_fact("same_level", *trio)

    example = example_4_1()
    repair(db, example.ic("ic1"))
    assert satisfies(db, *example.ics)
    return db
