"""Residue-guided evaluation — the run-time side of the comparison.

The evaluation-paradigm approaches (Chakravarthy et al. [3]; Lee & Han
[9]) impose residues on the subqueries computed during each iteration of
the bottom-up loop.  This engine models that reading:

- *rule-level null residues* veto any derivation whose binding satisfies
  the residue condition;
- *sequence-level null residues* over a uniform sequence (the same
  recursive rule ``d`` times, optionally closed by an exit rule) veto
  derivations from delta round ``>= d_rec`` whose binding satisfies the
  condition — the delta round is a *lower bound* on the number of
  recursive applications in the derivation (see
  :data:`repro.engine.seminaive.DerivationHook`), so ``round >= d_rec``
  soundly implies the ``d_rec``-fold unfolding the residue was compiled
  against is present beneath the derivation;
- every candidate derivation of a guarded rule pays the residue checks
  (``stats.residue_checks``) at run time, on every iteration, for every
  query — the overhead the program-transformation approach avoids by
  folding the same conditions into the program once.

Fact residues cannot remove joins at run time with this mechanism (the
join has already produced the binding by the time the residue is
consulted), which is the structural advantage of pushing residues inside
the program.
"""

from __future__ import annotations

import time
from typing import Iterable, Mapping

from ..constraints.ic import IntegrityConstraint
from ..core.residues import generate_residues, rule_level_residues
from ..datalog.atoms import Comparison
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Variable
from ..engine import builtins
from ..engine.bindings import EvalStats
from ..engine.engine import EvaluationResult
from ..engine.seminaive import DerivationHook, seminaive_evaluate
from ..facts.database import Database

#: A guard: check ``condition`` from delta round ``min_round`` onwards.
Guard = tuple[tuple[Comparison, ...], int]


class ResidueGuidedEngine:
    """Semi-naive evaluation with per-derivation residue checking."""

    def __init__(self, program: Program,
                 ics: Iterable[IntegrityConstraint],
                 pred: str | None = None) -> None:
        self.program = program
        self.ics = list(ics)
        self._guards: dict[str, list[Guard]] = {}
        self._attach_rule_level_guards()
        self._attach_sequence_guards(pred)

    def _attach_rule_level_guards(self) -> None:
        for ic in self.ics:
            for item in rule_level_residues(self.program, ic,
                                            useful_only=False):
                residue = item.residue
                if not residue.is_null or not residue.body:
                    continue
                condition = tuple(residue.body)
                label = item.sequence[0]
                if not _condition_vars(condition) <= \
                        self.program.rule(label).variables():
                    continue
                self._add_guard(label, condition, 0)

    def _attach_sequence_guards(self, pred: str | None) -> None:
        info = self.program.recursion_info()
        preds = [pred] if pred else sorted(info.recursive_predicates)
        for target in preds:
            if not info.is_linear(target):
                continue
            for ic in self.ics:
                if not ic.is_chain() or not ic.is_edb_only(self.program):
                    continue
                for item in generate_residues(self.program, target, ic,
                                              useful_only=False):
                    self._attach_sequence_item(target, item)

    def _attach_sequence_item(self, pred: str, item) -> None:
        residue = item.residue
        if not residue.is_null or not residue.body:
            return
        labels = item.sequence
        if len(labels) < 2:
            return
        recursive = [label for label in labels
                     if self.program.rule(label).count_occurrences(pred)]
        # Uniform sequences only: r^d optionally closed by an exit rule.
        if len(set(recursive)) != 1:
            return
        if len(recursive) not in (len(labels), len(labels) - 1):
            return
        if recursive != list(labels[:len(recursive)]):
            return
        rule_label = recursive[0]
        condition = tuple(lit for lit in residue.body
                          if isinstance(lit, Comparison))
        if len(condition) != len(residue.body):
            return
        # The condition must be over the outermost instance, whose
        # variables are the rule's own (level 0 is not renamed).
        if not _condition_vars(condition) <= \
                self.program.rule(rule_label).variables():
            return
        self._add_guard(rule_label, condition, len(recursive))

    def _add_guard(self, label: str, condition: tuple[Comparison, ...],
                   min_round: int) -> None:
        guards = self._guards.setdefault(label, [])
        if (condition, min_round) not in guards:
            guards.append((condition, min_round))

    @property
    def attached_guards(self) -> int:
        return sum(len(v) for v in self._guards.values())

    def guards_for(self, label: str) -> list[Guard]:
        return list(self._guards.get(label, ()))

    def hook(self, stats: EvalStats) -> DerivationHook:
        """The per-derivation residue check, counting into ``stats``."""
        def hook(rule: Rule, binding: Mapping[Variable, object],
                 round_index: int) -> bool:
            guards = self._guards.get(rule.label or "")
            if not guards:
                return True
            for condition, min_round in guards:
                if round_index < min_round:
                    continue
                stats.residue_checks += 1
                if all(builtins.holds(comparison, binding)
                       for comparison in condition):
                    return False  # the IC says this derivation is vacuous
            return True

        return hook

    def evaluate(self, edb: Database) -> EvaluationResult:
        """Run semi-naive evaluation with the residue hook installed.

        The hooked rule bodies run on the same generated kernels as a
        residue-pushed program's, so the two paradigms are costed like
        for like.
        """
        stats = EvalStats()
        start = time.perf_counter()
        idb = seminaive_evaluate(self.program, edb, stats,
                                 hook=self.hook(stats))
        elapsed = time.perf_counter() - start
        return EvaluationResult(self.program, edb, idb, stats, elapsed,
                                method="seminaive+residue-guided")


def _condition_vars(condition: tuple[Comparison, ...]
                    ) -> frozenset[Variable]:
    out: set[Variable] = set()
    for comparison in condition:
        out.update(comparison.variable_set())
    return frozenset(out)
