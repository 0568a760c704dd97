"""Resilient evaluation runtime: budgets, cancellation, fault injection.

The paper's pitch is that semantic optimization is *compile-time* and
therefore safe to run in front of every query.  This package supplies
the operational half of that promise: bounded, interruptible evaluation
(:class:`Budget`), and a deterministic fault-injection harness (:mod:`repro.runtime.chaos`) that the test suite
uses to prove every fallback path fires.  See ``docs/robustness.md``.
"""

from ..errors import (BudgetExceededError, EvaluationCancelledError,
                      ServingUnavailable)
from .budget import Budget, current_budget, resolve_budget
from .chaos import ChaosError, ChaosPlan, active_plan, checkpoint
from .retry import CircuitBreaker, HealthState, RetryPolicy

__all__ = [
    "Budget", "current_budget", "resolve_budget",
    "BudgetExceededError", "EvaluationCancelledError",
    "ServingUnavailable",
    "ChaosError", "ChaosPlan", "active_plan", "checkpoint",
    "CircuitBreaker", "HealthState", "RetryPolicy",
]
