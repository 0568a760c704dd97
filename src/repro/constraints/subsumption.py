"""Clause subsumption and Chakravarthy-style partial subsumption.

Definitions (Section 2):

- a clause ``C`` **subsumes** ``D`` when there is a substitution theta
  (the *subsuming substitution*, mapping variables of C only) with
  ``C theta`` a subclause of ``D``;
- ``C`` **partially subsumes** ``D`` when a subclause of C subsumes D;
- an IC partially subsumes a rule when its *expanded form* does; the
  **residue** is the part of the expanded IC that did not participate.

Complete subsumption (:func:`subsumptions`) places every pattern literal
in turn and backtracks on a mismatch.  Clause subsumption is NP-complete
in general, but a literal sharing variables with one already placed has
few candidates, so on chain-shaped ICs the search is polynomial in their
length.  Partial subsumption (:func:`_matchings`) may also leave any IC
atom out, which doubles the search per atom: exponential in the IC's
size, which is tiny where it is used (rule-level residues and Example
2.1's free residues), matching the algorithm of Chakravarthy et al. [3].
"""

from __future__ import annotations

from typing import Iterator, Sequence

from ..datalog.atoms import Atom, Comparison, Literal, Negation
from ..datalog.terms import FreshVariableSupply
from ..datalog.unify import (EMPTY_SUBSTITUTION, Substitution, match,
                             match_terms)
from .expansion import expand
from .ic import IntegrityConstraint
from .residue import Residue


def rename_ic_apart(ic: IntegrityConstraint,
                    target: Sequence[Literal]) -> IntegrityConstraint:
    """Rename IC variables clashing with the clause's variables.

    Subsuming substitutions map IC variables onto clause terms; when the
    two share a variable name the leftover residue could capture clause
    variables by accident, so colliding IC variables are freshened first.
    """
    clause_vars = {v.name for lit in target for v in lit.variables()}
    colliding = {v for v in ic.variables() if v.name in clause_vars}
    if not colliding:
        return ic
    supply = FreshVariableSupply(
        clause_vars | {v.name for v in ic.variables()})
    mapping = {v: supply.fresh(v.name) for v in sorted(
        colliding, key=lambda v: v.name)}
    return ic.apply(Substitution(mapping))


def match_literal(pattern: Literal, target: Literal,
                  subst: Substitution) -> Iterator[Substitution]:
    """Yield extensions of ``subst`` mapping ``pattern`` onto ``target``.

    Comparisons match with equal operators, or with the converse operator
    and swapped operands (``a < b`` matches ``b > a``); equality and
    inequality additionally match with their operands swapped.
    """
    if isinstance(pattern, Atom) and isinstance(target, Atom):
        extended = match(pattern, target, subst)
        if extended is not None:
            yield extended
        return
    if isinstance(pattern, Negation) and isinstance(target, Negation):
        extended = match(pattern.atom, target.atom, subst)
        if extended is not None:
            yield extended
        return
    if isinstance(pattern, Comparison) and isinstance(target, Comparison):
        candidates = [(pattern.op, pattern.lhs, pattern.rhs)]
        converse = pattern.converse()
        if (converse.op, converse.lhs, converse.rhs) != candidates[0]:
            candidates.append((converse.op, converse.lhs, converse.rhs))
        for op, lhs, rhs in candidates:
            if op != target.op:
                continue
            step = match_terms(lhs, target.lhs, subst)
            if step is None:
                continue
            final = match_terms(rhs, target.rhs, step)
            if final is not None:
                yield final


def subsumptions(pattern: Sequence[Literal], target: Sequence[Literal],
                 subst: Substitution = EMPTY_SUBSTITUTION
                 ) -> Iterator[Substitution]:
    """Yield every theta with ``pattern theta`` a subclause of ``target``.

    Distinct pattern literals may map to the same target literal, as in
    classical clause subsumption.
    """
    pattern = tuple(pattern)
    target = tuple(target)

    def assign(index: int, current: Substitution) -> Iterator[Substitution]:
        if index == len(pattern):
            yield current
            return
        for candidate in target:
            for extended in match_literal(pattern[index], candidate,
                                          current):
                yield from assign(index + 1, extended)

    yield from assign(0, subst)


def _matchings(atoms: Sequence[Atom], target: Sequence[Literal]
               ) -> Iterator[tuple[frozenset[int], Substitution]]:
    """Enumerate partial matchings of ``atoms`` into ``target``.

    Yields ``(matched_indices, theta)`` pairs, including the empty
    matching; callers filter for maximality.
    """
    target = tuple(target)

    def assign(index: int, matched: frozenset[int],
               current: Substitution
               ) -> Iterator[tuple[frozenset[int], Substitution]]:
        if index == len(atoms):
            yield matched, current
            return
        # Option 1: skip this IC atom.
        yield from assign(index + 1, matched, current)
        # Option 2: map it onto some target literal.
        for candidate in target:
            for extended in match_literal(atoms[index], candidate, current):
                yield from assign(index + 1, matched | {index}, extended)

    yield from assign(0, frozenset(), EMPTY_SUBSTITUTION)


def _is_maximal(atoms: Sequence[Atom], target: Sequence[Literal],
                matched: frozenset[int], subst: Substitution) -> bool:
    """No skipped atom can still be matched consistently with theta."""
    for index, atom in enumerate(atoms):
        if index in matched:
            continue
        for candidate in target:
            if next(match_literal(atom, candidate, subst), None) is not None:
                return False
    return True


def partial_subsumptions(ic: IntegrityConstraint,
                         target: Sequence[Literal]
                         ) -> Iterator[Residue]:
    """Chakravarthy-style residues of ``ic`` w.r.t. a clause body.

    The IC is first converted to expanded form; every *maximal* non-empty
    matching of its database atoms into the clause's literals yields a
    residue consisting of the unmatched database atoms, the introduced
    equalities, the IC's evaluable atoms and the head — all under theta.
    """
    target = tuple(target)
    expanded = expand(rename_ic_apart(ic, target))
    seen: set[tuple[frozenset[int], tuple]] = set()
    for matched, theta in _matchings(expanded.database_atoms, target):
        if not matched:
            continue
        if not _is_maximal(expanded.database_atoms, target, matched, theta):
            continue
        key = (matched, tuple(sorted(
            (v.name, str(t)) for v, t in theta.items())))
        if key in seen:
            continue
        seen.add(key)
        leftover: list[Literal] = [
            atom for index, atom in enumerate(expanded.database_atoms)
            if index not in matched]
        leftover.extend(expanded.equalities)
        leftover.extend(expanded.evaluable_atoms)
        body = theta.apply_literals(leftover)
        head = theta.apply_literal(expanded.head) \
            if expanded.head is not None else None
        yield Residue(body, head, theta, ic).simplified()


def rule_residues(ic: IntegrityConstraint,
                  body: Sequence[Literal]) -> list[Residue]:
    """All distinct simplified residues of ``ic`` w.r.t. a rule body."""
    out: list[Residue] = []
    for residue in partial_subsumptions(ic, body):
        if residue not in out:
            out.append(residue)
    return out
