"""Overlap-aware pushing for periodic sequences (a cost refinement).

When the expansion sequence is the same recursive rule repeated —
``s = r^k``, by far the common case — the pattern occurs at *every*
recursion level with at least ``k-1`` levels below, and those occurrences
overlap.  Algorithm 4.1's automaton matches a greedy non-overlapping
subset, so the pushed edit only fires every ``k`` levels while its chain
predicates shadow the whole relation, which usually costs more than the
edit saves (measured in experiment E1's ablation).

This module compiles the overlapping reading directly, for residues whose
edit and condition sit at pattern level 0 (the outermost instance —
where the usefulness extension normally lands them):

- depth classes ``d_0 .. d_{k-2}`` (exactly ``j`` recursive steps) and
  ``deep`` (at least ``k-1`` steps);
- the exit rules fill ``d_0``; an unedited copy of ``r`` links each class
  to the next; ``deep`` absorbs further steps;
- the *edited* copy of ``r`` extends ``deep`` — every such extension has
  the full pattern beneath it, so the residue licenses the edit at every
  level past the first ``k-1``;
- the answer predicate is the union of the classes.

Tuples reachable at several depths are stored in up to two classes (their
minimal class and ``deep``), the price of the overlap-aware form on dense
data; on trees and chains each tuple lives in exactly one class and every
level past warm-up runs the edited body.

Each residue's edit is licensed by the same guard as on the automaton
path — :func:`~repro.core.containment.elimination_is_sound`,
:func:`~repro.core.containment.introduction_is_sound` or
:func:`~repro.core.containment.pruning_is_sound`, run once on the
residue's own sequence clause — before :func:`push_periodic_group`
compiles the validated edits; soundness is property-tested.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.analysis import is_safe
from ..datalog.atoms import Atom, Comparison
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..errors import TransformError
from .containment import (elimination_is_sound, introduction_is_sound,
                          pruning_is_sound)
from .push import (GuardMode, PushOutcome, _complement_copies,
                   _residue_condition)
from .residues import SequenceResidue


def periodic_shape(program: Program, pred: str,
                   sequence: tuple[str, ...]) -> str | None:
    """The repeated recursive rule label, or None when not ``r^k``."""
    if len(sequence) < 2:
        return None
    labels = set(sequence)
    if len(labels) != 1:
        return None
    label = sequence[0]
    if program.rule(label).count_occurrences(pred) != 1:
        return None
    return label


def periodic_applicable(program: Program, pred: str,
                        item: SequenceResidue) -> bool:
    """Can this residue be pushed with the depth-class compilation?

    Requires: a uniform all-recursive sequence, an edit target at pattern
    level 0, and a condition whose variables live in the level-0 instance
    (i.e. the rule's own variables, since unfolding leaves level 0
    unrenamed).
    """
    if periodic_shape(program, pred, item.sequence) is None:
        return False
    residue = item.residue
    try:
        condition = _residue_condition(residue)
    except TransformError:
        return False
    rule = program.rule(item.sequence[0])
    condition_vars = set()
    for comparison in condition:
        condition_vars.update(comparison.variable_set())
    if not condition_vars <= rule.variables():
        return False
    head = residue.head_atom()
    if head is not None:
        provenance = item.clause.provenance_of(head)
        if provenance is not None and provenance.level != 0:
            return False
        if provenance is None and residue.head is not None:
            # Introduction: the atom must attach to level-0 variables.
            head_vars = item.subsumption.residue.head.variable_set() \
                if item.subsumption.residue.head is not None else set()
            if not head_vars & rule.variables():
                return False
    return True


def _aux_name(program: Program, pred: str, stem: str) -> str:
    name = f"{pred}__{stem}"
    existing = set(program.predicates)
    while name in existing:
        name += "_"
    return name


# ---------------------------------------------------------------------------
# Multi-residue compilation: several ICs over the same recursive rule
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Edit:
    """One validated residue's contribution to the depth-class program."""

    action: str                       # eliminate | introduce | prune
    sequence: tuple[str, ...]         # the residue's ``r^k``
    condition: tuple[Comparison, ...]
    body_index: int | None = None     # eliminate: atom position in r
    introduced: object = None         # introduce: the atom to prepend

    @property
    def threshold(self) -> int:
        """The minimum number of recursive steps the *child* tuple must
        have for the pattern to sit beneath the extension (``k - 1``)."""
        return len(self.sequence) - 1


def _apply_edit_unconditional(rule: Rule, edit: _Edit) -> Rule | None:
    if edit.action == "eliminate":
        return rule.remove_body_index(edit.body_index)
    if edit.action == "introduce":
        return rule.with_body((edit.introduced,) + rule.body)
    return None  # unconditional prune: the rule vanishes


def _split_on_edit(copies: list[Rule], edit: _Edit,
                   stem: str) -> list[Rule]:
    """Apply one conditional edit to every copy (case split on E)."""
    out: list[Rule] = []
    for index, copy in enumerate(copies):
        suffix = f"{stem}{index}" if len(copies) > 1 else stem
        if edit.action != "prune":
            edited = _apply_edit_unconditional(copy, edit)
            assert edited is not None
            out.append(edited.add_literals(*edit.condition).with_label(
                f"{copy.label}_{suffix}"))
        out.extend(_complement_copies(copy, edit.condition,
                                      f"{copy.label}_{suffix}"))
    return out


def push_periodic_group(program: Program, pred: str,
                        edits: list[_Edit]) -> PushOutcome:
    """Compile several validated periodic edits over one recursive rule.

    The depth classes are sized to the *largest* residue; each residue's
    edit applies to every extension step whose child depth reaches that
    residue's threshold.  The edits come from :func:`_edit_for`, which
    ran their guards.
    """
    labels = {periodic_shape(program, pred, edit.sequence)
              for edit in edits}
    if len(labels) != 1 or None in labels:
        return PushOutcome("group", False,
                           "residues span different recursive rules")
    (label,) = labels
    recursive_rule = program.rule(label)
    if [r for r in program.recursive_rules(pred) if r.label != label]:
        return PushOutcome(
            "group", False,
            "periodic compilation needs a single recursive rule")

    big_k = max(len(edit.sequence) for edit in edits)
    class_names = [_aux_name(program, pred, f"d{j}")
                   for j in range(big_k - 1)]
    deep_name = _aux_name(program, pred, "deep")

    def class_name(j: int) -> str:
        return class_names[j] if j < big_k - 1 else deep_name

    def rename_call(rule: Rule, target: str) -> Rule:
        body = list(rule.body)
        for index, literal in enumerate(body):
            if isinstance(literal, Atom) and literal.pred == pred:
                body[index] = Atom(target, literal.args)
                return rule.with_body(tuple(body))
        raise TransformError(f"{rule.label} has no recursive call")

    new_rules: list[Rule] = []
    for exit_rule in program.exit_rules(pred):
        new_rules.append(Rule(Atom(class_names[0], exit_rule.head.args),
                              exit_rule.body,
                              label=f"{exit_rule.label}_d0"))

    # Extension steps: child class j -> class j+1 (saturating at deep),
    # plus the deep self-extension.
    steps = [(j, min(j + 1, big_k - 1)) for j in range(big_k - 1)]
    steps.append((big_k - 1, big_k - 1))
    for child, target in steps:
        child_tag = "deep" if child == big_k - 1 else f"d{child}"
        applicable = [e for e in edits if e.threshold <= child]
        base = rename_call(recursive_rule, class_name(child))
        base = Rule(Atom(class_name(target), base.head.args), base.body,
                    label=f"{label}_{child_tag}_step")
        unconditional = [e for e in applicable if not e.condition]
        conditional = [e for e in applicable if e.condition]
        vanished = False
        for edit in unconditional:
            edited = _apply_edit_unconditional(base, edit)
            if edited is None:
                vanished = True
                break
            base = edited.with_label(base.label)
        if vanished:
            continue  # unconditional prune: this step produces nothing
        copies = [base]
        for index, edit in enumerate(conditional):
            copies = _split_on_edit(copies, edit, f"c{index}")
        new_rules.extend(copies)

    head_args = recursive_rule.head.args
    for j in range(big_k - 1):
        new_rules.append(Rule(Atom(pred, head_args),
                              (Atom(class_names[j], head_args),),
                              label=f"{pred}_from_d{j}"))
    new_rules.append(Rule(Atom(pred, head_args),
                          (Atom(deep_name, head_args),),
                          label=f"{pred}_from_deep"))

    unsafe = [r.label for r in new_rules if not is_safe(r)]
    if unsafe:
        return PushOutcome("group", False,
                           f"group compilation produced unsafe rules: "
                           f"{unsafe}")
    untouched = [r for r in program if r.head.pred != pred]
    transformed = Program(untouched + new_rules,
                          edb_hint=tuple(program.edb_predicates))
    preserved = frozenset(class_names) | {deep_name}
    return PushOutcome("group", True, edited_rule=label,
                       program=transformed, preserved_preds=preserved)


def push_periodic_group_best_effort(
        program: Program, pred: str, items: "list[SequenceResidue]",
        actions: list[str], ics, guard: GuardMode = "chase"
) -> tuple[PushOutcome, list[PushOutcome]]:
    """Validate each residue individually, compile the survivors.

    Returns the group outcome plus one outcome per input residue (failed
    guards are reported individually instead of aborting the group).
    One residue is pushed by calling this with a one-item list.
    """
    per_item: list[PushOutcome] = []
    edits: list[_Edit] = []
    for item, action in zip(items, actions):
        validated = _edit_for(item, action, ics, guard)
        if isinstance(validated, PushOutcome):
            per_item.append(validated)
        else:
            per_item.append(PushOutcome(action, True))
            edits.append(validated)
    if not edits:
        return (PushOutcome("group", False,
                            "no residue survived its guard"), per_item)
    outcome = push_periodic_group(program, pred, edits)
    if not outcome.applied:
        per_item = [
            PushOutcome(entry.action, False, outcome.reason)
            if entry.applied else entry for entry in per_item]
    return outcome, per_item


def _edit_for(item: SequenceResidue, action: str, ics,
              guard: GuardMode) -> _Edit | PushOutcome:
    """Run the residue's guard on its sequence clause and build its
    :class:`_Edit`, or say why it cannot be pushed."""
    residue = item.residue
    clause = item.clause
    if action == "prune":
        condition = _residue_condition(residue)
        if guard == "chase" and not pruning_is_sound(
                clause.literals(), ics, condition):
            return PushOutcome(
                "prune", False,
                "chase guard could not derive a contradiction for "
                f"{residue}")
        return _Edit("prune", item.sequence, condition)
    if action == "eliminate":
        head = residue.head_atom()
        condition = _residue_condition(residue)
        provenance = clause.provenance_of(head) if head else None
        if provenance is None or provenance.level != 0:
            return PushOutcome("eliminate", False,
                               "edit target is not at pattern level 0")
        literals = clause.literals()
        if guard == "chase" and not elimination_is_sound(
                clause.head, literals, literals.index(head), ics,
                condition):
            return PushOutcome(
                "eliminate", False,
                f"chase guard rejected deleting {head}")
        return _Edit("eliminate", item.sequence, condition,
                     body_index=provenance.body_index)
    if action == "introduce":
        unextended = item.subsumption.residue
        condition = _residue_condition(unextended)
        head = unextended.head
        if head is None:
            return PushOutcome("introduce", False, "no head to introduce")
        if guard == "chase" and not introduction_is_sound(
                clause.head, clause.literals(), head, ics, condition):
            return PushOutcome(
                "introduce", False,
                f"chase guard rejected adding {head}")
        return _Edit("introduce", item.sequence, condition,
                     introduced=head)
    return PushOutcome(action, False, f"unsupported action {action!r}")
