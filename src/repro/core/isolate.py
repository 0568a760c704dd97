"""Algorithm 4.1: isolating an expansion sequence.

Given a linear program ``P`` for predicate ``p`` and an expansion
sequence ``s = <r_j1, ..., r_jk>``, produce an equivalent program that
generates occurrences of ``s`` through a dedicated chain of rules, so the
push transformations of Section 4 can edit exactly those occurrences.

The construction is a pattern-matching automaton over rule strings:

- auxiliary predicates ``p_1 .. p_{k-1}`` and ``q_1 .. q_{k-1}`` with
  ``p_0 = q_0 = p_k = q_k = p``;
- **alpha-rules** (one per position ``i``): ``p_{i-1} :- body(r_ji)``
  with the recursive call renamed to ``p_i`` — the match advances;
- **beta-rules** (positions ``1 .. k-1``): same body but the call renamed
  to ``q_i`` — the match will break at the *next* position;
- **gamma-rules** for ``q_{i-1}``: a copy of every rule ``r_l`` with
  ``l != j_i`` (recursive calls keep pointing at ``p``) — the breaking
  rule fires and matching restarts.

Step 5's head unifications are realized by building the alpha/beta rules
directly from the *unfolding*'s rule instances
(:func:`repro.core.sequences.unfold`), whose variable spaces are already
chained head-to-call; gamma-rule heads are unified with the corresponding
alpha-rule heads.  Theorem 4.1 (equivalence) is validated empirically by
:mod:`repro.core.equivalence` and the property-test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import FreshVariableSupply
from ..datalog.unify import Substitution, unify
from ..errors import TransformError
from .sequences import SequenceClause, unfold


@dataclass(frozen=True)
class Isolation:
    """The output of Algorithm 4.1.

    Attributes:
        program: the transformed, equivalent program.
        pred: the recursive predicate.
        sequence: the isolated sequence's rule labels.
        clause: the unfolding the alpha-rules were aligned with.
        alpha_labels: labels of the alpha-rules; ``alpha_labels[i]`` is
            the rule built from sequence position ``i`` (0-based level),
            i.e. the paper's ``(i+1)``-th alpha-rule.
        p_names: auxiliary predicate names ``p_1..p_{k-1}``.
        q_names: auxiliary predicate names ``q_1..q_{k-1}``.
    """

    program: Program
    pred: str
    sequence: tuple[str, ...]
    clause: SequenceClause
    alpha_labels: tuple[str, ...]
    p_names: tuple[str, ...]
    q_names: tuple[str, ...]

    def alpha_rule(self, level: int) -> Rule:
        """The alpha-rule built from sequence position ``level``."""
        return self.program.rule(self.alpha_labels[level])


def _aux_names(program: Program, pred: str,
               stems: Sequence[str]) -> list[str]:
    """One fresh auxiliary predicate ``pred__stem`` per stem, clear of
    the program's predicates and of each other."""
    existing = set(program.predicates)
    names = []
    for stem in stems:
        name = f"{pred}__{stem}"
        while name in existing:
            name += "_"
        existing.add(name)
        names.append(name)
    return names


def _rename_call(rule: Rule, pred: str, new_pred: str) -> Rule:
    """Rename the (single) body occurrence of ``pred``; a rule without
    one is returned unchanged."""
    body = list(rule.body)
    for index, literal in enumerate(body):
        if isinstance(literal, Atom) and literal.pred == pred:
            body[index] = Atom(new_pred, literal.args)
            return rule.with_body(tuple(body))
    return rule


def isolate(program: Program, pred: str,
            sequence: Sequence[str]) -> Isolation:
    """Apply Algorithm 4.1 and return the transformed program.

    With a length-1 sequence the transformation is the identity (the
    "alpha-rule" is the original rule), which is exactly the rule-level
    optimization setting of Chakravarthy et al.
    """
    sequence = tuple(sequence)
    if not sequence:
        raise TransformError("cannot isolate an empty sequence")
    program.require_linear(pred)
    clause = unfold(program, pred, sequence)
    k = len(sequence)

    if k == 1:
        return Isolation(program, pred, sequence, clause,
                         alpha_labels=(sequence[0],),
                         p_names=(), q_names=())

    p_names = _aux_names(program, pred, [f"p{i}" for i in range(1, k)])
    q_names = _aux_names(program, pred, [f"q{i}" for i in range(1, k)])

    def p_name(index: int) -> str:
        """``p_index`` with the paper's convention p_0 = p_k = p."""
        if index in (0, k):
            return pred
        return p_names[index - 1]

    def q_name(index: int) -> str:
        if index in (0, k):
            return pred
        return q_names[index - 1]

    supply = FreshVariableSupply(
        {v.name for rule in program for v in rule.variables()}
        | {v.name for v in clause.variables()})

    alpha_rules: list[Rule] = []
    beta_rules: list[Rule] = []
    gamma_rules: list[Rule] = []
    alpha_labels: list[str] = []

    for level, instance in enumerate(clause.instances):
        i = level + 1  # the paper's 1-based rule position
        head = Atom(p_name(i - 1), instance.head.args)
        alpha = _rename_call(
            Rule(head, instance.body, label=f"{pred}__alpha{i}"),
            pred, p_name(i))
        alpha_rules.append(alpha)
        alpha_labels.append(alpha.label)

        if i <= k - 1:
            # beta-rule: identical body, the call diverts to q_i.
            beta = _rename_call(
                Rule(head, instance.body, label=f"{pred}__beta{i}"),
                pred, q_name(i))
            if beta.body != alpha.body:  # exit rules yield no distinct beta
                beta_rules.append(beta)

        # gamma-rules for q_{i-1}: every rule other than r_ji, with the
        # head unified with the alpha-rule's head (step 5).  For i = 1,
        # q_0 = p and the heads are the original ones, so the original
        # rules are kept verbatim.
        for other in program.rules_for(pred):
            if other.label == sequence[i - 1]:
                continue
            if i == 1:
                gamma_rules.append(other)
                continue
            renamed_map = {v: supply.fresh(v.name) for v in sorted(
                other.variables(), key=lambda v: v.name)}
            renamed = other.apply(Substitution(renamed_map))
            target_head = Atom(q_name(i - 1), head.args)
            unifier = unify(Atom(q_name(i - 1), renamed.head.args),
                            target_head)
            if unifier is None:
                # Heads that cannot take this argument pattern can never
                # be called here; omit the rule.
                continue
            gamma = renamed.apply(unifier).with_head(
                unifier.apply(target_head)).with_label(
                    f"{pred}__gamma{i}_{other.label}")
            gamma_rules.append(gamma)

    untouched = [rule for rule in program if rule.head.pred != pred]
    transformed = Program(
        untouched + alpha_rules + beta_rules + gamma_rules,
        edb_hint=tuple(program.edb_predicates))
    return Isolation(transformed, pred, sequence, clause,
                     tuple(alpha_labels), tuple(p_names), tuple(q_names))
