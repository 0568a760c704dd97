"""Free (partial) subsumption and free residues (Definition 2.1).

Free subsumption tests the IC against a clause *as written* — without the
expansion step — so the subsuming substitution must respect the IC's
shared variables and constants directly.  The *free residue* is the part
of ``ic theta`` that did not participate.

*Maximal* free subsumption (Definition 3.1) requires the subclause of the
IC consisting of **all** its database subgoals to subsume the clause
completely; the resulting residue body then contains only evaluable atoms,
which is what makes it usable for query-independent optimization.

The two searches differ in cost.  A maximal subsumption is a complete
matching, found by :func:`~.subsumption.subsumptions`' backtracking: each
IC atom is placed in turn, and once a chain IC's first atom is placed the
shared variables leave each later atom a few candidates, so Algorithm
3.1's verification step is polynomial in the IC's length.  The partial
free residues of Example 2.1 must also consider leaving atoms out, which
multiplies the search by two per atom; only :func:`free_subsumptions`
pays that.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..datalog.atoms import Atom, Literal
from ..datalog.unify import Substitution
from .ic import IntegrityConstraint
from .residue import Residue
from .subsumption import (_is_maximal, _matchings, match_literal,
                          rename_ic_apart, subsumptions)


@dataclass(frozen=True)
class FreeSubsumption:
    """One way an IC freely subsumes a clause.

    Attributes:
        matched: indices (into the IC's database atoms) that participated.
        subst: the subsuming substitution theta.
        residue: the free residue arising from this subsumption.
        complete: True when every database atom of the IC participated
            (i.e. this is a *maximal* subsumption in the Def. 3.1 sense).
    """

    matched: frozenset[int]
    subst: Substitution
    residue: Residue
    complete: bool


def free_subsumptions(ic: IntegrityConstraint,
                      target: Sequence[Literal]
                      ) -> Iterator[FreeSubsumption]:
    """Enumerate free (partial) subsumptions of ``ic`` against a clause.

    Every maximal non-empty partial matching of the IC's database atoms
    is produced, mirroring Example 2.1's free residues.  This searches
    the partial matchings too, which is exponential in the number of IC
    atoms; Algorithm 3.1 needs only :func:`maximal_free_subsumptions`.
    """
    target = tuple(target)
    ic = rename_ic_apart(ic, target)
    atoms = ic.database_atoms()
    seen: set[tuple[frozenset[int], tuple]] = set()
    for matched, theta in _matchings(atoms, target):
        if not matched:
            continue
        complete = len(matched) == len(atoms)
        if not complete and not _is_maximal(atoms, target, matched, theta):
            continue
        found = _free_subsumption(ic, atoms, matched, theta, seen)
        if found is not None:
            yield found


def maximal_free_subsumptions(ic: IntegrityConstraint,
                              target: Sequence[Literal]
                              ) -> Iterator[FreeSubsumption]:
    """Only the complete (maximal) free subsumptions of Definition 3.1.

    Every database atom of the IC must be matched, so the search assigns
    each atom in turn and never branches on leaving one out: the
    backtracking of :func:`subsumptions`, polynomial in the IC's length
    for a chain IC.  The order is that of the complete matchings among
    :func:`free_subsumptions`' output.
    """
    target = tuple(target)
    ic = rename_ic_apart(ic, target)
    atoms = ic.database_atoms()
    every = frozenset(range(len(atoms)))
    seen: set[tuple[frozenset[int], tuple]] = set()
    for theta in subsumptions(atoms, target):
        found = _free_subsumption(ic, atoms, every, theta, seen)
        if found is not None:
            yield found


def _free_subsumption(ic: IntegrityConstraint, atoms: Sequence[Atom],
                      matched: frozenset[int], theta: Substitution,
                      seen: set[tuple[frozenset[int], tuple]]
                      ) -> FreeSubsumption | None:
    """The free subsumption of one matching, or None for a repeat."""
    key = (matched, tuple(sorted(
        (v.name, str(t)) for v, t in theta.items())))
    if key in seen:
        return None
    seen.add(key)
    leftover: list[Literal] = [
        atom for index, atom in enumerate(atoms) if index not in matched]
    leftover.extend(ic.evaluable_atoms())
    body = theta.apply_literals(leftover)
    head = theta.apply_literal(ic.head) if ic.head is not None else None
    residue = Residue(body, head, theta, ic).simplified()
    return FreeSubsumption(matched, theta, residue,
                           len(matched) == len(atoms))


def extend_to_useful(residue: Residue, target: Sequence[Literal],
                     strict: bool = True) -> Residue | None:
    """Try to extend theta so the residue head equals an atom of the clause.

    Section 3: a residue with database atom ``A`` in its head is *useful*
    for a sequence when theta extends to a substitution with
    ``A theta' = B`` for some atom ``B`` of the sequence.  Returns the
    residue under the extended substitution, or None when no extension
    exists.  Residues without a database-atom head are trivially useful
    and returned unchanged.

    With ``strict=False`` the extension may additionally *re-bind clause
    variables* occurring in the residue head onto a sequence atom.  This
    looser reading reproduces the paper's Examples 3.2/4.2 (where the
    implied ``expert(P, F')`` is identified with the sequence atom
    ``expert(P, F)``); it is not sound by itself, so the optimizer always
    re-validates loose eliminations with the chase guard.

    The residue's literals already carry theta; only the extension's *new*
    bindings are applied on top (safe because subsumption renames the IC
    apart from the clause first, so leftover residue variables are
    IC-private).
    """
    head = residue.head_atom()
    if head is None:
        return residue
    base = residue.subst
    if strict and residue.ic is not None:
        # Freeze non-IC (clause) variables so only genuinely-unbound IC
        # variables can be extended, per the letter of the definition.
        ic_vars = residue.ic.variables()
        frozen = {v: v for v in head.variable_set()
                  if v not in ic_vars and v not in base}
        if frozen:
            base = Substitution(dict(base.items()) | frozen)
    known = set(base)
    for lit in target:
        if not isinstance(lit, Atom):
            continue
        extension = next(match_literal(head, lit, base), None)
        if extension is not None:
            new_only = Substitution(
                {v: t for v, t in extension.items() if v not in known})
            return Residue(new_only.apply_literals(residue.body),
                           new_only.apply_literal(head),
                           extension, residue.ic).simplified()
    return None
