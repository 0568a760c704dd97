"""The paper's contribution: residue generation and pushing (Sections 3-4)."""

from .sequences import (ProvenancedLiteral, SequenceClause,
                        enumerate_sequences, unfold)
from .apgraph import APGraph, build_ap_graph
from .sdgraph import SDGraph, build_sd_graph
from .pattern import PatternGraph, build_pattern_graph
from .residues import (SequenceResidue, detect_sequences, generate_residues,
                       generate_residues_exhaustive, residues_for_sequence,
                       rule_level_residues)
from .containment import (chase, contained_under, elimination_is_sound,
                          freeze)
from .isolate import Isolation, isolate
from .push import (PushOutcome, apply_elimination, apply_introduction,
                   apply_pruning, remove_dead_rules)
from .minimize import (apply_functional_dependencies,
                       as_functional_dependency, minimize_program,
                       minimize_rule, rule_subsumed_by)
from .optimizer import (OptimizationReport, SemanticOptimizer, StageFailure,
                        optimize_all_predicates)
from .equivalence import (Counterexample, check_equivalent,
                          infer_numeric_columns, make_consistent,
                          random_consistent_databases, random_database)

__all__ = [
    "ProvenancedLiteral", "SequenceClause", "enumerate_sequences", "unfold",
    "APGraph", "build_ap_graph",
    "SDGraph", "build_sd_graph",
    "PatternGraph", "build_pattern_graph",
    "SequenceResidue", "detect_sequences",
    "generate_residues", "generate_residues_exhaustive",
    "residues_for_sequence", "rule_level_residues",
    "chase", "contained_under", "elimination_is_sound", "freeze",
    "Isolation", "isolate",
    "PushOutcome", "apply_elimination", "apply_introduction",
    "apply_pruning", "remove_dead_rules",
    "apply_functional_dependencies",
    "as_functional_dependency", "minimize_program", "minimize_rule",
    "rule_subsumed_by",
    "OptimizationReport", "SemanticOptimizer",
    "StageFailure", "optimize_all_predicates",
    "Counterexample", "check_equivalent", "infer_numeric_columns",
    "make_consistent", "random_consistent_databases", "random_database",
]
