"""Reference answers that share no code with the program under test.

Plain-Python graph searches over the generated facts: a BFS closure for
the transitive-closure workloads (genealogy's ``anc`` is the same closure
over ``(person, age)`` nodes) and a worklist fixpoint for Example 3.2's
``eval``.  Answers are compared by an order-independent digest so neither
side has to keep a second copy of a 600 k-row answer set alive.
"""

from __future__ import annotations

from typing import Hashable, Iterable

_MASK = (1 << 64) - 1


def digest(rows: Iterable[tuple]) -> tuple[int, int]:
    """``(row count, sum of row hashes mod 2**64)`` of a set of rows."""
    count = total = 0
    for row in rows:
        count += 1
        total += hash(row)
    return count, total & _MASK


def successors(edges: Iterable[tuple]) -> dict[Hashable, list]:
    succ: dict[Hashable, list] = {}
    for source, target in edges:
        succ.setdefault(source, []).append(target)
    return succ


def reachable(succ: dict[Hashable, list], start: Hashable) -> set:
    """Nodes reachable from ``start`` by one or more edges."""
    seen: set = set()
    stack = [start]
    while stack:
        for node in succ.get(stack.pop(), ()):
            if node not in seen:
                seen.add(node)
                stack.append(node)
    return seen


def closure_rows(edges: Iterable[tuple]) -> Iterable[tuple]:
    """Every ``(x, y)`` with a non-empty path from ``x`` to ``y``."""
    succ = successors(edges)
    for source in succ:
        for target in reachable(succ, source):
            yield source, target


def ancestor_rows(par: Iterable[tuple]) -> Iterable[tuple]:
    """Example 4.3: ``anc`` is the closure of ``par`` over (name, age)."""
    edges = [((x, xa), (y, ya)) for x, xa, y, ya in par]
    return (low + high for low, high in closure_rows(edges))


def university_eval_rows(works_with: Iterable[tuple],
                         expert: Iterable[tuple], field: Iterable[tuple],
                         supervises: Iterable[tuple]) -> set[tuple]:
    """Example 3.2: ``eval(P, S, T)`` by a worklist fixpoint.

    ``eval(P, S, T) :- super(P, S, T).``
    ``eval(P, S, T) :- works_with(P, P0), eval(P0, S, T),
    expert(P, F), field(T, F).``
    """
    colleagues: dict = {}
    for prof, other in works_with:
        colleagues.setdefault(other, []).append(prof)
    expertise: dict = {}
    for prof, area in expert:
        expertise.setdefault(prof, set()).add(area)
    areas: dict = {}
    for thesis, area in field:
        areas.setdefault(thesis, set()).add(area)
    done = set(supervises)
    todo = list(done)
    while todo:
        prof0, student, thesis = todo.pop()
        wanted = areas.get(thesis)
        if not wanted:
            continue
        for prof in colleagues.get(prof0, ()):
            row = (prof, student, thesis)
            if row not in done and not wanted.isdisjoint(
                    expertise.get(prof, ())):
                done.add(row)
                todo.append(row)
    return done
