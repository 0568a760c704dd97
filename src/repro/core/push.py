"""Pushing residues inside recursion (Section 4, stage 2).

One residue's edit is proved once and installed by one of two back ends.
:func:`validate_edit` is the only validator: it derives the residue's
condition and edit target from the residue's own sequence clause and
runs that action's guard from :mod:`repro.core.containment` on it.  An
edit that cannot be proven answer-preserving is reported rather than
returned.  A validated :class:`Edit` goes either to the depth-class
compilation (:func:`repro.core.periodic.push_periodic_group`) or into an
Algorithm 4.1 isolation, where one of three functions installs it:

- **atom elimination** (fact residue whose head lands on a sequence
  atom): delete that atom from the corresponding alpha-rule; for a
  conditional residue ``E -> A``, split the rule into an ``E``-guarded
  copy without ``A`` and ``not E``-guarded copies with it;
- **atom introduction** (fact residue naming an evaluable atom or a
  small relation): add the implied atom to the alpha-rule it shares
  variables with, with the complementary ``not E`` copies;
- **subtree pruning** (null residue): guard the alpha-rule carrying the
  residue's variables with ``not E``; an unconditional null residue
  deletes the pattern-completing alpha-rule outright, followed by
  dead-rule cleanup.

``not E`` for a conjunction ``E1, ..., Em`` is realized as ``m`` rule
copies each carrying one complemented comparison (free residue bodies are
evaluable, so complements are comparisons again — no negation needed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..datalog.analysis import is_safe
from ..datalog.atoms import Atom, Comparison
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..errors import TransformError
from .containment import (elimination_is_sound, introduction_is_sound,
                          pruning_is_sound)
from .isolate import Isolation, _rename_call
from .residues import SequenceResidue
from .sequences import ProvenancedLiteral

@dataclass(frozen=True)
class PushOutcome:
    """What happened to one residue push attempt."""

    action: str                      # eliminate | introduce | prune
    applied: bool
    reason: str = ""
    edited_rule: str | None = None   # label of the alpha-rule edited
    program: Program | None = field(default=None, repr=False)


def _complement_copies(rule: Rule, condition: tuple[Comparison, ...],
                       label_stem: str) -> list[Rule]:
    """The ``not E`` side of a conditional split (one copy per literal)."""
    copies = []
    for index, comparison in enumerate(condition):
        label = f"{label_stem}_n{index}" if len(condition) > 1 \
            else f"{label_stem}_n"
        copies.append(rule.add_literals(
            comparison.complement()).with_label(label))
    return copies


def _find_level_for_condition(isolation: Isolation,
                              condition: tuple[Comparison, ...],
                              prefer: int | None = None) -> int | None:
    """A level whose alpha-rule binds every condition variable.

    Prefers ``prefer`` when it qualifies (same-rule split is cheapest),
    otherwise the qualifying level nearest to it.
    """
    needed = set()
    for comparison in condition:
        needed.update(comparison.variable_set())
    qualifying = [
        level for level in range(len(isolation.alpha_labels))
        if needed <= isolation.alpha_rule(level).body_variables()]
    if not qualifying:
        return None
    if prefer is None:
        return qualifying[0]
    if prefer in qualifying:
        return prefer
    return min(qualifying, key=lambda level: abs(level - prefer))


def _chain_pred_name(isolation: Isolation, level: int) -> str:
    """The predicate defined by the alpha-rule at ``level``."""
    if level == 0:
        return isolation.pred
    return isolation.p_names[level - 1]


def _rename_head(rule: Rule, new_pred: str) -> Rule:
    return rule.with_head(Atom(new_pred, rule.head.args))


def _split_with_condition(isolation: Isolation, edit_level: int,
                          edited: Rule,
                          condition: tuple[Comparison, ...],
                          tag: str) -> tuple[Program | None, str]:
    """Install ``edited`` (built from the alpha-rule at ``edit_level``)
    guarded by ``condition``.

    When the condition's variables are bound in the same alpha-rule, this
    is the paper's split: the edited copy gets ``E``, the original gets
    the ``not E`` copies.  When the condition lives in a *different*
    alpha-rule, the guard decision is threaded through duplicated chain
    predicates so the decision taken deep in the pattern reaches the rule
    being edited (Example 4.1 needs this: the rank test sits three
    recursion levels below the eliminable atom).

    Returns ``(program, "")`` on success or ``(None, reason)``.
    """
    original = isolation.alpha_rule(edit_level)
    if not condition:
        if not is_safe(edited):
            return None, f"edit would make {original.label} unsafe"
        return isolation.program.replace_rule(original.label, edited), ""

    cond_level = _find_level_for_condition(isolation, condition,
                                           prefer=edit_level)
    if cond_level is None:
        return None, ("no single alpha-rule binds every residue-"
                      "condition variable")

    if cond_level == edit_level:
        optimized = edited.add_literals(*condition).with_label(
            f"{original.label}_{tag}")
        replacements = [optimized] + _complement_copies(
            original, condition, original.label)
        unsafe = [r.label for r in replacements if not is_safe(r)]
        if unsafe:
            return None, f"conditional split produces unsafe rules: {unsafe}"
        return isolation.program.replace_rule(
            original.label, *replacements), ""

    # Threaded split: duplicate the chain predicates between the two
    # levels so the condition's outcome selects which copy of the edited
    # rule consumes the sub-derivation.
    program = isolation.program
    existing = set(program.predicates)

    def dup_name(level: int) -> str:
        name = f"{_chain_pred_name(isolation, level)}_{tag}"
        while name in existing:
            name += "_"
        existing.add(name)
        return name

    dup_names: dict[int, str] = {}
    cond_rule = isolation.alpha_rule(cond_level)

    if cond_level > edit_level:
        # The condition is decided deeper; its verdict climbs up through
        # duplicated predicates pred_{edit_level+1} .. pred_{cond_level}.
        for level in range(edit_level + 1, cond_level + 1):
            dup_names[level] = dup_name(level)
        new_rules: list[tuple[str, list[Rule]]] = []
        # cond rule: E-copy feeds the duplicated chain, not-E copies the
        # normal one.
        sat_copy = _rename_head(
            cond_rule.add_literals(*condition), dup_names[cond_level]
            ).with_label(f"{cond_rule.label}_{tag}")
        new_rules.append((cond_rule.label,
                          [sat_copy] + _complement_copies(
                              cond_rule, condition, cond_rule.label)))
        # intermediate rules: duplicated head and call.
        for level in range(edit_level + 1, cond_level):
            rule = isolation.alpha_rule(level)
            copy = _rename_call(
                _rename_head(rule, dup_names[level]),
                _chain_pred_name(isolation, level + 1),
                dup_names[level + 1]).with_label(f"{rule.label}_{tag}")
            new_rules.append((rule.label, [rule, copy]))
        # edited rule consumes the duplicated chain.
        optimized = _rename_call(
            edited, _chain_pred_name(isolation, edit_level + 1),
            dup_names[edit_level + 1]).with_label(
                f"{original.label}_{tag}")
        new_rules.append((original.label, [original, optimized]))
    else:
        # The condition is decided shallower; the edited rule offers an
        # alternative chain that only the E-guarded copy consumes.
        for level in range(cond_level + 1, edit_level + 1):
            dup_names[level] = dup_name(level)
        new_rules = []
        optimized = _rename_head(edited, dup_names[edit_level]) \
            .with_label(f"{original.label}_{tag}")
        new_rules.append((original.label, [original, optimized]))
        for level in range(cond_level + 1, edit_level):
            rule = isolation.alpha_rule(level)
            copy = _rename_call(
                _rename_head(rule, dup_names[level]),
                _chain_pred_name(isolation, level + 1),
                dup_names[level + 1]).with_label(f"{rule.label}_{tag}")
            new_rules.append((rule.label, [rule, copy]))
        guarded = _rename_call(
            cond_rule.add_literals(*condition),
            _chain_pred_name(isolation, cond_level + 1),
            dup_names[cond_level + 1]).with_label(
                f"{cond_rule.label}_{tag}")
        new_rules.append((cond_rule.label,
                          [guarded] + _complement_copies(
                              cond_rule, condition, cond_rule.label)))

    all_new = [r for _, rules in new_rules for r in rules]
    unsafe = [r.label for r in all_new if not is_safe(r)]
    if unsafe:
        return None, f"threaded split produces unsafe rules: {unsafe}"
    for old_label, replacements in new_rules:
        program = program.replace_rule(old_label, *replacements)
    return program, ""


def _residue_condition(residue) -> tuple[Comparison, ...]:
    condition = tuple(lit for lit in residue.body
                      if isinstance(lit, Comparison))
    if len(condition) != len(residue.body):
        raise TransformError(
            f"residue {residue} has database atoms in its body; only "
            "free residues can be pushed")
    return condition


# ---------------------------------------------------------------------------
# The validator
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Edit:
    """One residue's edit, proved on ``item.clause`` by
    :func:`validate_edit`."""

    item: SequenceResidue
    action: str                       # eliminate | introduce | prune
    condition: tuple[Comparison, ...]
    #: eliminate: the atom to delete and where the sequence holds it.
    target: ProvenancedLiteral | None = None
    #: introduce: the atom to prepend.
    introduced: Atom | Comparison | None = None


def validate_edit(item: SequenceResidue, action: str,
                  ics) -> Edit | PushOutcome:
    """Build ``item``'s ``action`` edit and prove it, or say why it
    cannot be pushed.

    The action's guard runs once, on the residue's own sequence clause.
    """
    clause = item.clause
    residue = item.residue
    if action == "eliminate":
        head = residue.head_atom()
        if head is None:
            return PushOutcome("eliminate", False,
                               "residue has no database-atom head")
        condition = _residue_condition(residue)
        target = clause.provenance_of(head)
        if target is None:
            return PushOutcome(
                "eliminate", False,
                f"residue head {head} does not occur in the sequence "
                "(not useful for elimination)")
        literals = clause.literals()
        if not elimination_is_sound(
                clause.head, literals, literals.index(head), ics,
                condition):
            return PushOutcome(
                "eliminate", False,
                f"chase guard could not prove deleting {head} is "
                "answer-preserving")
        return Edit(item, action, condition, target=target)
    if action == "introduce":
        residue = item.subsumption.residue  # unextended: head vars faithful
        condition = _residue_condition(residue)
        introduced = residue.head
        if introduced is None:
            return PushOutcome("introduce", False, "null residues cannot "
                               "introduce atoms")
        if not introduction_is_sound(
                clause.head, clause.literals(), introduced, ics,
                condition):
            return PushOutcome(
                "introduce", False,
                f"chase guard could not prove adding {introduced} is "
                "answer-preserving")
        return Edit(item, action, condition, introduced=introduced)
    if action == "prune":
        if residue.head is not None:
            return PushOutcome("prune", False,
                               "only null residues prune subtrees")
        condition = _residue_condition(residue)
        if not pruning_is_sound(clause.literals(), ics, condition):
            return PushOutcome(
                "prune", False,
                "chase guard could not derive a contradiction from the "
                "sequence plus the residue condition")
        return Edit(item, action, condition)
    raise ValueError(f"unknown push action {action!r}")


def _superseded(isolation: Isolation, edit: Edit) -> PushOutcome | None:
    """Refuse an edit proved on another clause than the isolated one."""
    if isolation.clause != edit.item.clause:
        return PushOutcome(edit.action, False,
                           "earlier edit superseded the target rule")
    return None


# ---------------------------------------------------------------------------
# (1) Atom elimination
# ---------------------------------------------------------------------------

def apply_elimination(isolation: Isolation, edit: Edit) -> PushOutcome:
    """Delete the residue-implied atom from its alpha-rule."""
    refused = _superseded(isolation, edit)
    if refused is not None:
        return refused
    target = edit.target
    assert target is not None
    rule = isolation.alpha_rule(target.level)
    body_index = _alpha_body_index(rule, target)
    if body_index is None:
        return PushOutcome(
            "eliminate", False,
            f"{target.literal} not found in alpha-rule {rule.label}")

    edited = rule.remove_body_index(body_index).with_label(
        f"{rule.label}_e")
    program, reason = _split_with_condition(
        isolation, target.level, edited, edit.condition, tag="e")
    if program is None:
        return PushOutcome("eliminate", False, reason)
    return PushOutcome("eliminate", True, edited_rule=rule.label,
                       program=program)


def _alpha_body_index(rule: Rule,
                      provenance: ProvenancedLiteral) -> int | None:
    """Map clause provenance back to the alpha-rule body position."""
    if (0 <= provenance.body_index < len(rule.body)
            and rule.body[provenance.body_index] == provenance.literal):
        return provenance.body_index
    for index, literal in enumerate(rule.body):  # pragma: no cover
        if literal == provenance.literal:
            return index
    return None


# ---------------------------------------------------------------------------
# (2) Atom introduction
# ---------------------------------------------------------------------------

def apply_introduction(isolation: Isolation, edit: Edit) -> PushOutcome:
    """Add the residue-implied atom to the alpha-rule sharing its vars.

    Unbound residue-head variables (existential witnesses) would make the
    introduced atom a cartesian blow-up; they are kept — they bind
    themselves during the semijoin — but at least one variable must be
    shared with the sequence (the paper's criterion (ii))."""
    refused = _superseded(isolation, edit)
    if refused is not None:
        return refused
    introduced = edit.introduced
    assert introduced is not None
    shared = introduced.variable_set()
    level = None
    best_overlap = 0
    for candidate in range(len(isolation.alpha_labels)):
        rule = isolation.alpha_rule(candidate)
        overlap = len(shared & rule.body_variables())
        if overlap > best_overlap:
            best_overlap = overlap
            level = candidate
    if level is None:
        return PushOutcome(
            "introduce", False,
            "the residue head shares no variable with the sequence")

    rule = isolation.alpha_rule(level)
    # Prepend the reducer: the paper reorders so "the selection is first
    # performed on the small relation and the bindings passed on".
    edited = rule.with_body((introduced,) + rule.body).with_label(
        f"{rule.label}_i")
    program, reason = _split_with_condition(
        isolation, level, edited, edit.condition, tag="i")
    if program is None:
        return PushOutcome("introduce", False, reason)
    return PushOutcome("introduce", True, edited_rule=rule.label,
                       program=program)


# ---------------------------------------------------------------------------
# (3) Subtree pruning
# ---------------------------------------------------------------------------

def apply_pruning(isolation: Isolation, edit: Edit) -> PushOutcome:
    """Guard (or delete) the alpha-chain so pruned subtrees never fire."""
    refused = _superseded(isolation, edit)
    if refused is not None:
        return refused
    condition = edit.condition
    if not condition:
        # Unconditional: the pattern-completing alpha-rule goes away.
        label = isolation.alpha_labels[-1]
        edb = isolation.program.edb_predicates  # before deletion
        program = isolation.program.replace_rule(label)
        program = remove_dead_rules(program, edb)
        return PushOutcome("prune", True, edited_rule=label,
                           program=program)

    level = _find_level_for_condition(isolation, condition)
    if level is None:
        return PushOutcome(
            "prune", False,
            "no single alpha-rule binds every residue-condition variable")
    rule = isolation.alpha_rule(level)
    replacements = _complement_copies(rule, condition, rule.label)
    for replacement in replacements:
        if not is_safe(replacement):
            return PushOutcome(
                "prune", False,
                f"guarding {rule.label} with the complement of "
                f"{condition} would make it unsafe")
    program = isolation.program.replace_rule(rule.label, *replacements)
    return PushOutcome("prune", True, edited_rule=rule.label,
                       program=program)


# ---------------------------------------------------------------------------
# Cleanup
# ---------------------------------------------------------------------------

def remove_dead_rules(program: Program,
                      edb: frozenset[str] | None = None) -> Program:
    """Drop rules referencing IDB predicates that have no rules left.

    Applied after unconditional pruning deletes a rule: callers of the
    now-empty auxiliary predicate can never fire.  ``edb`` must be the
    *true* EDB set (a predicate whose rules were all deleted would
    otherwise be mistaken for an extensional relation); it defaults to
    the program's own classification, which only works when no rules
    were deleted yet.
    """
    if edb is None:
        edb = program.edb_predicates
    rules = list(program)
    while True:
        defined = {rule.head.pred for rule in rules}
        alive = []
        for rule in rules:
            dead = any(
                isinstance(lit, Atom) and lit.pred not in defined
                and lit.pred not in edb
                for lit in rule.body)
            if not dead:
                alive.append(rule)
        if len(alive) == len(rules):
            return Program(alive, edb_hint=tuple(edb))
        rules = alive
