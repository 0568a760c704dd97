"""Bottom-up evaluation: naive, semi-naive, stratification, magic sets."""

from .bindings import EvalStats, PLANNERS, validate_planner
from .builtins import holds
from .compile import CompiledKernel, KernelCache, compile_rule
from .profile import EvalProfile
from .codegen import GeneratedKernel, PredicateCache
from .engine import (EvaluationResult, evaluate, evaluate_with_magic,
                     magic_answers)
from .magic import MagicProgram, adornment_of, magic_rewrite
from .naive import naive_evaluate
from .optimizer import (ChosenPlan, cbo_answers, cbo_evaluate,
                        choose_plan, enumerate_candidates)
from .seminaive import seminaive_evaluate
from .stratify import stratify
from .topdown import TabledEvaluator, TopDownResult, topdown_query
from .explain import Derivation, explain
from .plan import PlanStep, explain_kernels, explain_plan, plan_rule

__all__ = [
    "EvalStats", "PLANNERS", "validate_planner", "holds",
    "CompiledKernel", "KernelCache", "compile_rule",
    "EvalProfile",
    "GeneratedKernel", "PredicateCache",
    "EvaluationResult", "evaluate", "evaluate_with_magic",
    "magic_answers",
    "MagicProgram", "adornment_of", "magic_rewrite",
    "ChosenPlan", "cbo_answers",
    "cbo_evaluate", "choose_plan", "enumerate_candidates",
    "naive_evaluate", "seminaive_evaluate", "stratify",
    "TabledEvaluator", "TopDownResult", "topdown_query",
    "Derivation", "explain",
    "PlanStep", "explain_kernels", "explain_plan",
    "plan_rule",
]
