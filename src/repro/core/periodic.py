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

Each residue's edit is proved once, on the residue's own sequence clause,
by :func:`repro.core.push.validate_edit` — the validator the automaton
path uses too — before :func:`push_periodic_group` compiles the validated
edits; soundness is property-tested.  A group this compilation cannot
take leaves its residues to Algorithm 4.1.
"""

from __future__ import annotations

from ..datalog.analysis import is_safe
from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..errors import TransformError
from .isolate import _aux_names, _rename_call
from .push import Edit, PushOutcome, _complement_copies, _residue_condition
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


# ---------------------------------------------------------------------------
# Multi-residue compilation: several ICs over the same recursive rule
# ---------------------------------------------------------------------------

def _apply_edit_unconditional(rule: Rule, edit: Edit) -> Rule | None:
    if edit.action == "eliminate":
        assert edit.target is not None
        return rule.remove_body_index(edit.target.body_index)
    if edit.action == "introduce":
        return rule.with_body((edit.introduced,) + rule.body)
    return None  # unconditional prune: the rule vanishes


def _split_on_edit(copies: list[Rule], edit: Edit,
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
                        edits: list[Edit]) -> PushOutcome:
    """Compile several validated periodic edits over one recursive rule.

    The depth classes are sized to the *largest* residue; each residue's
    edit applies to every extension step whose child depth reaches that
    residue's threshold: ``k - 1`` steps for an ``r^k`` residue, so the
    whole pattern sits beneath the extension.  The edits come from
    :func:`repro.core.push.validate_edit`, which proved them.
    """
    labels = {periodic_shape(program, pred, edit.item.sequence)
              for edit in edits}
    if len(labels) != 1 or None in labels:
        return PushOutcome("group", False,
                           "residues span different recursive rules")
    if any(edit.target is not None and edit.target.level != 0
           for edit in edits):
        return PushOutcome("group", False,
                           "edit target is not at pattern level 0")
    (label,) = labels
    recursive_rule = program.rule(label)
    if [r for r in program.recursive_rules(pred) if r.label != label]:
        return PushOutcome(
            "group", False,
            "periodic compilation needs a single recursive rule")

    big_k = max(len(edit.item.sequence) for edit in edits)
    *class_names, deep_name = _aux_names(
        program, pred, [f"d{j}" for j in range(big_k - 1)] + ["deep"])

    def class_name(j: int) -> str:
        return class_names[j] if j < big_k - 1 else deep_name

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
        applicable = [e for e in edits if len(e.item.sequence) - 1 <= child]
        base = _rename_call(recursive_rule, pred, class_name(child))
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
    return PushOutcome("group", True, edited_rule=label,
                       program=transformed)
