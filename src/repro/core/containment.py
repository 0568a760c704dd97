"""Conjunctive-query containment under integrity constraints (chase).

Atom elimination (Section 4, optimization 1) deletes an atom ``B`` from a
sequence clause ``C``.  That is only sound when ``C`` and ``C - B`` are
equivalent *as queries* on every database satisfying the ICs.  One
direction is trivial (``C`` has more conjuncts).  The other —
``C - B  subseteq_IC  C`` — is the classical chase test:

1. freeze the variables of ``C - B`` into a canonical instance ``D``
   (variables act as labeled nulls);
2. chase ``D`` with the ICs (firing an IC whose evaluable premises are
   entailed by the asserted conditions adds its head, inventing fresh
   nulls for existential head variables);
3. succeed iff ``C`` has a homomorphism into the chased instance that is
   the identity on the head variables.

The paper applies eliminations directly from useful residues; we use this
check as a soundness guard (it accepts all the paper's examples) unless
the optimizer is run in ``paper`` fidelity mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from ..datalog.atoms import Atom, Comparison, Literal
from ..datalog.terms import Constant, FreshVariableSupply, Term, Variable
from ..datalog.unify import (EMPTY_SUBSTITUTION, Substitution, match,
                             match_terms)
from ..engine import builtins
from ..constraints.ic import IntegrityConstraint
from ..constraints.subsumption import rename_ic_apart


@dataclass
class ChaseInstance:
    """A canonical instance: ground-ish atoms plus assumed comparisons.

    Terms are ordinary AST terms; variables play the role of labeled
    nulls.  ``assumptions`` are comparisons taken as true (the clause's
    own evaluable literals plus any asserted residue condition).
    """

    atoms: list[Atom] = field(default_factory=list)
    assumptions: list[Comparison] = field(default_factory=list)
    inconsistent: bool = False
    #: Variables EGD merging should keep as representatives (typically
    #: the head variables of a containment check).
    protected: frozenset = frozenset()

    def add_atom(self, atom: Atom) -> bool:
        if atom in self.atoms:
            return False
        self.atoms.append(atom)
        return True

    def add_assumption(self, comparison: Comparison) -> bool:
        if comparison in self.assumptions:
            return False
        self.assumptions.append(comparison)
        return True


def _equality_classes(assumptions: Sequence[Comparison]
                      ) -> dict[Term, Term]:
    """Union-find representatives induced by ``=`` assumptions."""
    parent: dict[Term, Term] = {}

    def find(term: Term) -> Term:
        while term in parent:
            term = parent[term]
        return term

    for comparison in assumptions:
        if comparison.op != "=":
            continue
        left, right = find(comparison.lhs), find(comparison.rhs)
        if left == right:
            continue
        # Prefer constants as representatives.
        if isinstance(left, Constant):
            parent[right] = left
        else:
            parent[left] = right
    return {term: find(term) for term in parent}


def entails(assumptions: Sequence[Comparison],
            comparison: Comparison) -> bool:
    """Decide whether the assumption set entails ``comparison``.

    Deliberately incomplete but sound: ground evaluation, syntactic match
    modulo converse orientation, and rewriting through ``=`` assumptions.
    """
    classes = _equality_classes(assumptions)

    def canon(term: Term) -> Term:
        return classes.get(term, term)

    goal = Comparison(comparison.op, canon(comparison.lhs),
                      canon(comparison.rhs))
    # Ground decision.
    if isinstance(goal.lhs, Constant) and isinstance(goal.rhs, Constant):
        try:
            return builtins.holds(goal, {})
        except Exception:  # incomparable types: fall through
            return False
    if goal.op == "=" and goal.lhs == goal.rhs:
        return True
    for assumed in assumptions:
        canonical = Comparison(assumed.op, canon(assumed.lhs),
                               canon(assumed.rhs))
        if canonical == goal or canonical.converse() == goal:
            return True
    return False


def _homomorphisms(pattern: Sequence[Literal], instance: ChaseInstance,
                   seed: Substitution) -> Iterator[Substitution]:
    """Homomorphisms of a conjunction into a chase instance.

    Database atoms map onto instance atoms; evaluable literals must be
    entailed by the instance's assumptions under the mapping.
    """
    atoms = [lit for lit in pattern if isinstance(lit, Atom)]
    comparisons = [lit for lit in pattern if isinstance(lit, Comparison)]

    def assign(index: int, current: Substitution) -> Iterator[Substitution]:
        if index == len(atoms):
            for comparison in comparisons:
                mapped = current.apply_literal(comparison)
                if not entails(instance.assumptions, mapped):
                    return
            yield current
            return
        for candidate in instance.atoms:
            extended = match(atoms[index], candidate, current)
            if extended is not None:
                yield from assign(index + 1, extended)

    yield from assign(0, seed)


def _apply_egd(instance: ChaseInstance, equality: Comparison) -> str:
    """Apply one EGD step: unify the equality's two sides.

    Returns ``"noop"`` when the sides are already equal, ``"merged"``
    after substituting one side for the other throughout the instance,
    and ``"inconsistent"`` when two distinct constants are equated.
    """
    left, right = equality.lhs, equality.rhs
    if left == right:
        return "noop"
    if isinstance(left, Constant) and isinstance(right, Constant):
        return "inconsistent"
    # Substitute a variable (null) by the other term; prefer replacing
    # a variable with a constant, and keep protected (head) variables
    # as representatives.
    left_ok = isinstance(left, Variable) and left not in instance.protected
    right_ok = isinstance(right, Variable) and \
        right not in instance.protected
    if left_ok and (not right_ok or not isinstance(right, Variable)):
        victim, replacement = left, right
    elif right_ok:
        victim, replacement = right, left
    elif isinstance(left, Variable):
        victim, replacement = left, right
    elif isinstance(right, Variable):
        victim, replacement = right, left
    else:  # arithmetic terms: record as an assumption instead
        instance.add_assumption(equality)
        return "merged"
    subst = Substitution({victim: replacement})
    instance.atoms[:] = list(dict.fromkeys(
        subst.apply(atom) for atom in instance.atoms))
    instance.assumptions[:] = list(dict.fromkeys(
        subst.apply_literal(comparison)
        for comparison in instance.assumptions))
    return "merged"


def _head_satisfied(mapped: Atom, existential: frozenset[Variable],
                    existing: Atom) -> bool:
    """Does ``existing`` witness the mapped head atom?

    Non-existential positions must agree exactly (they hold instance
    terms); existential variables bind consistently.
    """
    if mapped.pred != existing.pred or mapped.arity != existing.arity:
        return False
    witness: dict[Variable, Term] = {}
    for pattern_arg, target_arg in zip(mapped.args, existing.args):
        if isinstance(pattern_arg, Variable) and pattern_arg in existential:
            if witness.setdefault(pattern_arg, target_arg) != target_arg:
                return False
        elif pattern_arg != target_arg:
            return False
    return True


def chase(instance: ChaseInstance, ics: Sequence[IntegrityConstraint],
          supply: FreshVariableSupply, max_rounds: int = 25) -> ChaseInstance:
    """Run the (restricted) chase in place and return the instance.

    An IC fires when its database atoms embed into the instance and its
    evaluable premises are entailed.  Denials mark the instance
    inconsistent.  Atom heads are only added when no existing atom already
    satisfies them (restricted chase), with fresh variables standing in
    for existential head variables; the round bound guards against
    non-terminating dependency sets.
    """
    for _ in range(max_rounds):
        changed = False
        for ic in ics:
            renamed = rename_ic_apart(
                ic, tuple(instance.atoms) + tuple(instance.assumptions))
            # Materialize before firing: firing mutates the instance.
            matches = list(_homomorphisms(renamed.body, instance,
                                          EMPTY_SUBSTITUTION))
            for theta in matches:
                head = renamed.head
                if head is None:
                    instance.inconsistent = True
                    return instance
                mapped = theta.apply_literal(head)
                if isinstance(mapped, Comparison):
                    if mapped.op == "=":
                        # Equality-generating dependency: merge the two
                        # terms in the instance (the standard chase EGD
                        # step); clashing constants are a contradiction.
                        outcome = _apply_egd(instance, mapped)
                        if outcome == "inconsistent":
                            instance.inconsistent = True
                            return instance
                        changed |= outcome == "merged"
                        continue
                    if not entails(instance.assumptions, mapped):
                        changed |= instance.add_assumption(mapped)
                    continue
                assert isinstance(mapped, Atom)
                existential = frozenset(
                    v for v in head.variable_set() if v not in theta)
                # Restricted chase: satisfied when some atom agrees with
                # the mapped head exactly, with only the *existential*
                # head variables acting as wildcards.
                satisfied = any(
                    _head_satisfied(mapped, existential, existing)
                    for existing in instance.atoms)
                if satisfied:
                    continue
                grounding = Substitution({
                    v: supply.fresh(v.name) for v in existential})
                changed |= instance.add_atom(grounding.apply(mapped))
        if not changed:
            break
    return instance


def freeze(literals: Sequence[Literal],
           extra_assumptions: Iterable[Comparison] = ()
           ) -> tuple[ChaseInstance, FreshVariableSupply]:
    """Build the canonical instance of a clause body."""
    instance = ChaseInstance()
    names: set[str] = set()
    for lit in literals:
        names.update(v.name for v in lit.variables())
        if isinstance(lit, Atom):
            instance.add_atom(lit)
        elif isinstance(lit, Comparison):
            instance.add_assumption(lit)
    for comparison in extra_assumptions:
        names.update(v.name for v in comparison.variables())
        instance.add_assumption(comparison)
    supply = FreshVariableSupply(names, prefix="N")
    return instance, supply


def contained_under(head: Atom, smaller_body: Sequence[Literal],
                    larger_body: Sequence[Literal],
                    ics: Sequence[IntegrityConstraint],
                    assumptions: Iterable[Comparison] = (),
                    max_rounds: int = 25) -> bool:
    """Is every answer of ``(head :- smaller_body)`` also an answer of
    ``(head :- larger_body)`` on IC-satisfying databases (given the
    asserted ``assumptions``)?

    Both bodies must share the same variable space and the same head.
    This is the guard for atom elimination with ``smaller_body`` the
    clause minus the candidate atom and ``larger_body`` the full clause.
    """
    instance, supply = freeze(smaller_body, assumptions)
    instance.protected = frozenset(
        arg for arg in head.args if isinstance(arg, Variable))
    chase(instance, ics, supply, max_rounds=max_rounds)
    if instance.inconsistent:
        return True  # the smaller query is empty under the ICs
    seed: Optional[Substitution] = EMPTY_SUBSTITUTION
    for arg in head.args:
        if isinstance(arg, Variable):
            seed = match_terms(arg, arg, seed)  # identity on head vars
            if seed is None:  # pragma: no cover - identity always matches
                return False
    return next(_homomorphisms(larger_body, instance, seed),
                None) is not None


def elimination_is_sound(head: Atom, body: Sequence[Literal],
                         atom_index: int,
                         ics: Sequence[IntegrityConstraint],
                         assumptions: Iterable[Comparison] = ()) -> bool:
    """Can ``body[atom_index]`` be deleted without changing answers?

    ``assumptions`` carries the residue condition ``E`` for conditional
    eliminations (the optimized rule copy is guarded by ``E``).
    """
    body = tuple(body)
    if not isinstance(body[atom_index], Atom):
        return False
    smaller = body[:atom_index] + body[atom_index + 1:]
    return contained_under(head, smaller, body, ics,
                           assumptions=assumptions)
