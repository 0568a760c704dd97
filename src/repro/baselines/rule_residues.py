"""Rule-level residue transformation — the Chakravarthy et al. reading.

The evaluation-based line of work [3, 9] attaches residues to individual
*rules* (not expansion sequences).  As a compile-time comparator we apply
the same push operations as the main optimizer, but restricted to
length-1 sequences: whatever optimization is expressible on single rules
happens; residues that only exist at the sequence level (Example 3.1's
``r0 r0 r0``) are invisible here.  Experiment E7 measures that gap.
"""

from __future__ import annotations

from typing import Iterable

from ..constraints.ic import IntegrityConstraint
from ..core.optimizer import OptimizationReport, SemanticOptimizer
from ..core.residues import SequenceResidue, rule_level_residues
from ..datalog.program import Program


class RuleLevelOptimizer(SemanticOptimizer):
    """A :class:`SemanticOptimizer` restricted to single-rule residues."""

    def residues(self, ic: IntegrityConstraint) -> list[SequenceResidue]:
        """Rule-level systems never look past individual rules."""
        return rule_level_residues(self.program, ic)


def optimize_rule_level(program: Program,
                        ics: Iterable[IntegrityConstraint],
                        pred: str | None = None,
                        small_relations: Iterable[str] = ()
                        ) -> OptimizationReport:
    """Optimize using only rule-level residues (the [3]-style baseline)."""
    return RuleLevelOptimizer(
        program, ics, pred=pred,
        small_relations=small_relations).optimize()
