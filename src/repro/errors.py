"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still being able to distinguish parse errors from semantic ones.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ParseError(ReproError):
    """Raised when Datalog source text cannot be parsed.

    Attributes:
        line: 1-based line number of the offending token, if known.
        column: 1-based column number of the offending token, if known.
        excerpt: a caret-annotated extract of the offending source line,
            when the parser had the source text at hand; rendered on the
            lines following the message.
    """

    def __init__(self, message: str, line: int | None = None,
                 column: int | None = None,
                 excerpt: str | None = None) -> None:
        location = ""
        if line is not None:
            location = f" at line {line}"
            if column is not None:
                location += f", column {column}"
        text = message + location
        if excerpt:
            text += "\n" + excerpt
        super().__init__(text)
        self.line = line
        self.column = column
        self.excerpt = excerpt


class ProgramError(ReproError):
    """Raised when a program violates a structural requirement.

    Examples: unsafe rules, mutual recursion where linear recursion is
    required, rules that are not range restricted.
    """


class ConstraintError(ReproError):
    """Raised when an integrity constraint is malformed for an algorithm.

    For instance, Algorithm 3.1 requires chain-shaped ICs whose database
    subgoals share variables only with their chain neighbours.
    """


class EvaluationError(ReproError):
    """Raised when bottom-up evaluation cannot proceed.

    Examples: an evaluable predicate applied to unbound variables, a
    non-stratifiable use of negation, or a query over an unknown predicate.
    """


class BudgetExceededError(EvaluationError):
    """Raised when evaluation exhausts a resource budget.

    The error reports *how far* evaluation got before the budget ran
    out, so callers can distinguish "almost done" from "barely started".

    Attributes:
        resource: which limit was hit (``"deadline"``, ``"derivations"``,
            ``"facts"`` or ``"rounds"``).
        limit: the configured limit for that resource.
        spent: how much of the resource had been consumed when the check
            fired (seconds for deadlines, counts otherwise).
        stats: partial :class:`repro.engine.bindings.EvalStats`
            accumulated up to the interruption, when available.
        last_round: the last *completed* fixpoint round, when available.
    """

    def __init__(self, message: str, resource: str = "unknown",
                 limit: float | int | None = None,
                 spent: float | int | None = None,
                 stats: object | None = None,
                 last_round: int | None = None) -> None:
        super().__init__(message)
        self.resource = resource
        self.limit = limit
        self.spent = spent
        self.stats = stats
        self.last_round = last_round


class EvaluationCancelledError(EvaluationError):
    """Raised when a cooperative :meth:`repro.runtime.Budget.cancel`
    interrupts an evaluation.

    Attributes:
        stats: partial :class:`repro.engine.bindings.EvalStats`
            accumulated up to the interruption, when available.
        last_round: the last *completed* fixpoint round, when available.
    """

    def __init__(self, message: str = "evaluation cancelled",
                 stats: object | None = None,
                 last_round: int | None = None) -> None:
        super().__init__(message)
        self.stats = stats
        self.last_round = last_round


class IncrementalUnsupported(EvaluationError):
    """Raised when a changeset cannot be maintained incrementally.

    Deletion maintenance (DRed) is only exact for the
    *monotone* part of a program: when a changed predicate can reach a
    negated occurrence, removing or adding EDB rows may grow or shrink
    relations non-monotonically and the delta passes no longer bound the
    effect.  The serving layer treats this error as "fall back to a full
    recomputation", so callers never observe wrong answers — only the
    loss of the incremental speedup.

    Attributes:
        reason: short machine-readable tag (``"negation"``, ...).
    """

    def __init__(self, message: str, reason: str = "unsupported") -> None:
        super().__init__(message)
        self.reason = reason


class ServingUnavailable(ReproError):
    """Raised when the serving tier cannot honour a request right now.

    The concurrent serving layer (:mod:`repro.serving`) degrades in
    defined steps rather than letting internal failures escape to
    clients: admission control sheds load, a tripped circuit breaker
    rejects writes, and a reader whose staleness bound cannot be met
    before its deadline is told so — always with this typed error, so
    clients can distinguish "back off and retry" from a genuine bug.

    Attributes:
        reason: short machine-readable tag — ``"admission"`` (too many
            concurrent readers), ``"backpressure"`` (the write queue
            is full), ``"circuit-open"`` (the server's write circuit
            tripped after repeated refresh failures), ``"deadline"``
            (the per-request deadline expired before a fresh-enough
            snapshot existed), ``"no-snapshot"`` (the view has never
            been successfully materialized), or ``"stopped"`` (the
            server is shutting down).
        retry_after_s: a hint for when retrying might succeed, when the
            server can estimate one (circuit-breaker cooldown).
    """

    def __init__(self, message: str, reason: str = "unavailable",
                 retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.reason = reason
        self.retry_after_s = retry_after_s


class TransformError(ReproError):
    """Raised when a program transformation receives invalid input.

    Examples: isolating an empty expansion sequence, pushing a residue that
    does not belong to the isolated sequence.
    """
