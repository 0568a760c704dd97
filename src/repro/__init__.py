"""repro — semantic optimization of recursive queries by pushing
integrity-constraint residues inside recursion.

A from-scratch reproduction of Lakshmanan & Missaoui, *"Pushing Semantics
inside Recursion: A General Framework for Semantic Optimization of
Recursive Queries"*, ICDE 1995.

Quickstart::

    from repro import (parse_program, ics_from_text, Database,
                       SemanticOptimizer, evaluate)

    program = parse_program('''
        r0: anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
        r1: anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
    ''')
    ics = ics_from_text('''
        ic1: Ya <= 50, par(Z, Za, Y, Ya), par(Z2, Z2a, Z, Za),
             par(Z3, Z3a, Z2, Z2a) -> .
    ''')
    report = SemanticOptimizer(program, ics).optimize()
    print(report.summary())
    result = evaluate(report.optimized, Database.from_text("..."))

Subpackages:

- :mod:`repro.datalog` — AST, parser, analysis (the substrate);
- :mod:`repro.analysis` — the diagnostics engine behind ``repro lint``:
  the paper's assumptions and the engine preconditions as stable,
  span-carrying diagnostic codes;
- :mod:`repro.facts` — indexed relations and databases;
- :mod:`repro.engine` — naive/semi-naive evaluation, stratification,
  magic sets;
- :mod:`repro.constraints` — ICs, (free) subsumption, residues;
- :mod:`repro.core` — the paper's contribution: Algorithm 3.1
  (residue generation over expansion sequences), Algorithm 4.1
  (sequence isolation) and the push transformations;
- :mod:`repro.baselines` — the evaluation-paradigm comparators;
- :mod:`repro.iqa` — intelligent query answering (Section 5);
- :mod:`repro.workloads` / :mod:`repro.bench` — paper fixtures,
  generators and the experiment suite;
- :mod:`repro.runtime` — resilience layer: budgets, deadlines,
  cooperative cancellation and deterministic fault injection.
"""

from .errors import (BudgetExceededError, ConstraintError,
                     EvaluationCancelledError, EvaluationError, ParseError,
                     ProgramError, ReproError, TransformError)
from .runtime import Budget, ChaosPlan
from .datalog import (Atom, Comparison, Constant, Program, Rule, Span,
                      Variable, atom, comparison, format_program,
                      parse_atom, parse_ic, parse_program, parse_query,
                      parse_rule, rule, validate_program)
from .analysis import (AnalysisReport, Diagnostic, analyze_program,
                       lint_program, lint_source)
from .facts import Database, Relation
from .engine import (EvaluationResult, evaluate, evaluate_with_magic,
                     magic_answers, magic_rewrite, naive_evaluate,
                     seminaive_evaluate, topdown_query)
from .constraints import (IntegrityConstraint, Residue, ic_from_text,
                          ics_from_text, satisfies, violations)
from .core import (Isolation, OptimizationReport, SemanticOptimizer,
                   SequenceResidue, StageFailure, check_equivalent,
                   generate_residues, isolate, optimize_all_predicates,
                   unfold)
from .baselines import ResidueGuidedEngine, optimize_rule_level
from .iqa import KnowledgeQuery, describe, parse_describe

__version__ = "1.0.0"

__all__ = [
    "BudgetExceededError", "ConstraintError", "EvaluationCancelledError",
    "EvaluationError", "ParseError", "ProgramError",
    "ReproError", "TransformError",
    "Budget", "ChaosPlan",
    "Atom", "Comparison", "Constant", "Program", "Rule", "Span",
    "Variable", "atom", "comparison", "format_program", "parse_atom",
    "parse_ic", "parse_program", "parse_query", "parse_rule", "rule",
    "validate_program",
    "AnalysisReport", "Diagnostic", "analyze_program", "lint_program",
    "lint_source",
    "Database", "Relation",
    "EvaluationResult", "evaluate", "evaluate_with_magic",
    "magic_answers", "magic_rewrite", "naive_evaluate",
    "seminaive_evaluate", "topdown_query",
    "IntegrityConstraint", "Residue", "ic_from_text", "ics_from_text",
    "satisfies", "violations",
    "Isolation", "OptimizationReport", "SemanticOptimizer",
    "SequenceResidue", "StageFailure", "check_equivalent",
    "generate_residues", "isolate", "optimize_all_predicates", "unfold",
    "ResidueGuidedEngine", "optimize_rule_level",
    "KnowledgeQuery", "describe", "parse_describe",
    "__version__",
]
