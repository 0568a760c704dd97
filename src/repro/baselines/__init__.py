"""Evaluation-based comparators for the transformation approach."""

from .rule_residues import RuleLevelOptimizer, optimize_rule_level
from .guided import ResidueGuidedEngine

__all__ = ["RuleLevelOptimizer", "optimize_rule_level",
           "ResidueGuidedEngine"]
