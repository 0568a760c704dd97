"""The genealogy workload (Example 4.3), scalable and IC-consistent.

Generations ``g0`` (oldest) .. ``gD``; each person's parents sit one
generation above.  ``ic1`` — nobody of 50 or younger has three
generations of descendants — is satisfied by construction: anyone with
at least three generations below (generation index ``<= D - 3``) is
assigned an age above 50, while the youngest generations may be young
(``young_fraction`` controls how often), which is what the conditional
pruning guard tests at run time.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..constraints.checker import satisfies
from ..facts.database import Database
from .paper_examples import example_4_3


@dataclass(frozen=True)
class GenealogyParams:
    """Knobs for the generator."""

    generations: int = 6
    width: int = 10
    parents_per_person: int = 1
    young_fraction: float = 0.6
    old_age_range: tuple[int, int] = (51, 95)
    young_age_range: tuple[int, int] = (5, 50)


def generate_genealogy(params: GenealogyParams,
                       rng: random.Random) -> Database:
    """Build an EDB satisfying Example 4.3's ``ic1``.

    ``par(X, Xa, Y, Ya)`` reads: Y (age Ya) is a parent of X (age Xa).
    """
    db = Database()
    depth = params.generations - 1

    ages: dict[str, int] = {}

    def age_of(generation: int, person: str) -> int:
        if person not in ages:
            has_three_below = (depth - generation) >= 3
            young_allowed = not has_three_below
            if young_allowed and rng.random() < params.young_fraction:
                ages[person] = rng.randint(*params.young_age_range)
            else:
                ages[person] = rng.randint(*params.old_age_range)
        return ages[person]

    people = [[f"g{generation}_{pos}" for pos in range(params.width)]
              for generation in range(params.generations)]
    for generation in range(1, params.generations):
        for person in people[generation]:
            count = min(params.parents_per_person, params.width)
            parents = rng.sample(people[generation - 1], count)
            for parent in parents:
                db.add_fact("par",
                            person, age_of(generation, person),
                            parent, age_of(generation - 1, parent))

    example = example_4_3()
    assert satisfies(db, *example.ics), \
        "generated genealogy database violates ic1"
    return db
