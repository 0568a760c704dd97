"""Collapsing the isolation chain by unfold/inline (a cost refinement).

Algorithm 4.1's output materializes the auxiliary predicates
``p_1..p_{k-1}``, ``q_1..q_{k-1}``.  Under bottom-up evaluation that is
expensive: every tuple of the recursive predicate flows through *every*
alpha-rule of the chain, so the chain multiplies per-level join work by
roughly ``k`` — easily outweighing what the pushed residues save.

The classical unfold transformation (Tamaki & Sato) fixes this without
touching semantics: an auxiliary predicate with known definitions is
resolved away by inlining each definition into each consumer.  The
result replaces the ``k``-rule chain by ``k``-step "unrolled" rules that
advance ``k`` recursion levels per application, preserving the pushed
edits (eliminated atoms stay eliminated, guards stay attached) while
restoring one join pass per level.

The collapse is *our* refinement — the paper stops at Algorithm 4.1 —
and is benchmarked as an ablation (automaton form vs collapsed form) in
experiment E1.
"""

from __future__ import annotations

from typing import Iterable

from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import FreshVariableSupply
from ..datalog.unify import Substitution, unify

#: Give up (and keep the automaton form) past this many rules.
RULE_BUDGET = 200


def _has_aux_atom(rule: Rule, aux: set[str]) -> bool:
    return any(isinstance(lit, Atom) and lit.pred in aux
               for lit in rule.body)


def _inline_once(rule: Rule, pred: str, definitions: Iterable[Rule],
                 supply: FreshVariableSupply) -> list[Rule]:
    """Resolve the first ``pred`` occurrence of ``rule`` against each
    definition; returns the replacement rules."""
    index = next(i for i, lit in enumerate(rule.body)
                 if isinstance(lit, Atom) and lit.pred == pred)
    call = rule.body[index]
    assert isinstance(call, Atom)
    out: list[Rule] = []
    for definition in definitions:
        renaming = Substitution({
            v: supply.fresh(v.name)
            for v in sorted(definition.variables(),
                            key=lambda v: v.name)})
        renamed = definition.apply(renaming)
        unifier = unify(renamed.head, call)
        if unifier is None:
            continue
        body = (rule.body[:index] + renamed.body + rule.body[index + 1:])
        new_rule = Rule(rule.head, body,
                        label=f"{rule.label}+{definition.label}")
        out.append(new_rule.apply(unifier))
    return out


def inline_auxiliaries(program: Program, aux_preds: Iterable[str]
                       ) -> Program:
    """Resolve away every auxiliary predicate, or return ``program``
    unchanged when the unrolled form would exceed :data:`RULE_BUDGET`
    rules.

    Auxiliaries are processed innermost-first: a predicate is inlined
    only once its own definitions are auxiliary-free, which terminates
    because the isolation chain is acyclic through the auxiliaries.
    """
    aux = {p for p in aux_preds}
    if not aux:
        return program
    rules = list(program)
    supply = FreshVariableSupply(
        {v.name for rule in rules for v in rule.variables()})

    while True:
        defined_aux = {r.head.pred for r in rules if r.head.pred in aux}
        ready = [pred for pred in sorted(defined_aux)
                 if not any(_has_aux_atom(r, aux) for r in rules
                            if r.head.pred == pred)]
        # Auxiliaries with no remaining rules (pruned away) inline to
        # nothing: consumers of an empty predicate are dead.
        empty = aux - defined_aux
        consumers_of_empty = [
            r for r in rules
            if any(isinstance(lit, Atom) and lit.pred in empty
                   for lit in r.body)]
        if consumers_of_empty:
            doomed = {id(r) for r in consumers_of_empty}
            rules = [r for r in rules if id(r) not in doomed]
            continue
        if not ready:
            break
        pred = ready[0]
        definitions = [r for r in rules if r.head.pred == pred]
        new_rules: list[Rule] = []
        for rule in rules:
            if rule.head.pred == pred:
                continue
            if _has_aux_atom(rule, {pred}):
                new_rules.extend(
                    _inline_once(rule, pred, definitions, supply))
            else:
                new_rules.append(rule)
        if len(new_rules) > RULE_BUDGET:
            return program  # keep the (correct) automaton form
        rules = new_rules
        aux.discard(pred)
        if not aux:
            break

    # Re-label duplicates introduced by inlining.
    seen: set[str] = set()
    final: list[Rule] = []
    for rule in rules:
        label = rule.label or "r"
        while label in seen:
            label += "'"
        seen.add(label)
        final.append(rule.with_label(label))
    return Program(final, edb_hint=tuple(program.edb_predicates))
