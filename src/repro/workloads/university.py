"""The university workload (Examples 3.2 / 4.2), scalable and
IC-consistent.

Professors collaborate along an acyclic ``works_with`` graph (bounding
the recursion depth of ``eval``), expertise is seeded randomly and closed
under ``ic1`` (expertise propagates to collaborators), and payments above
the 10,000 threshold only go to doctoral students (``ic2``).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..constraints.checker import repair, satisfies
from ..facts.database import Database
from .paper_examples import PaperExample, example_3_2


@dataclass(frozen=True)
class UniversityParams:
    """Knobs for the generator (defaults give a small instance)."""

    professors: int = 30
    students: int = 20
    theses: int = 20
    fields: int = 5
    fields_per_thesis: int = 1
    works_with_density: float = 0.15
    collaboration_chain: bool = True
    expert_seed_fraction: float = 0.3
    supervisions: int = 25
    payments: int = 40
    high_payment_fraction: float = 0.3
    doctoral_fraction: float = 0.4
    max_amount: int = 20000


def generate_university(params: UniversityParams,
                        rng: random.Random) -> Database:
    """Build an EDB satisfying both ICs of Example 3.2/4.2."""
    db = Database()
    fields = [f"f{i}" for i in range(params.fields)]

    # Acyclic collaboration graph: i works with j only for j > i.  The
    # optional chain guarantees recursion depth proportional to the
    # professor count, which is what amortizes the isolation overhead.
    if params.collaboration_chain:
        for i in range(params.professors - 1):
            db.add_fact("works_with", f"p{i}", f"p{i + 1}")
    for i in range(params.professors):
        for j in range(i + 1, params.professors):
            if rng.random() < params.works_with_density:
                db.add_fact("works_with", f"p{i}", f"p{j}")

    # Seed expertise; ic1 closure is added by repair below.
    for i in range(params.professors):
        if rng.random() < params.expert_seed_fraction:
            db.add_fact("expert", f"p{i}", rng.choice(fields))

    for t in range(params.theses):
        count = min(params.fields_per_thesis, len(fields))
        for field_name in rng.sample(fields, count):
            db.add_fact("field", f"t{t}", field_name)

    for _ in range(params.supervisions):
        db.add_fact("super",
                    f"p{rng.randrange(params.professors)}",
                    f"s{rng.randrange(params.students)}",
                    f"t{rng.randrange(params.theses)}")

    for s in range(params.students):
        if rng.random() < params.doctoral_fraction:
            db.add_fact("doctoral", f"s{s}")

    for g in range(params.payments):
        student = rng.randrange(params.students)
        if rng.random() < params.high_payment_fraction:
            amount = rng.randint(10001, params.max_amount)
            db.add_fact("doctoral", f"s{student}")  # keep ic2 satisfied
        else:
            amount = rng.randint(100, 10000)
        db.add_fact("pays", amount, f"g{g}", f"s{student}",
                    f"t{rng.randrange(params.theses)}")

    example = example_3_2()
    repair(db, example.ic("ic1"))
    assert satisfies(db, *example.ics)
    return db


def university_example() -> PaperExample:
    """The program + ICs this workload targets."""
    return example_3_2()
