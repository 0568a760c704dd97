"""Cooperative resource budgets for evaluation and optimization.

A :class:`Budget` bounds one unit of work along four axes — wall-clock
deadline, derivation events, materialized facts, and fixpoint rounds —
and carries a cooperative cancellation flag that another thread may set
at any time.  The fixpoint engines count derivation events down to the
next :meth:`Budget.checkpoint` and call :func:`check_round` at every
round boundary; both raise the typed errors of :mod:`repro.errors` carrying the partial
:class:`~repro.engine.bindings.EvalStats` and the last completed round,
so callers can report how far evaluation got.  :func:`check_round` is
the one round bound of every schedule — semi-naive, naive, top-down and
each incremental maintenance pass: :attr:`Budget.max_rounds` when a
budget sets it, and the :data:`MAX_ROUNDS` safety valve always.

Deadline checks call :func:`time.monotonic`, which is too expensive to
pay per derivation; a checkpoint is therefore due at most every
:data:`DEFAULT_DEADLINE_CHECK_INTERVAL` events (counter limits stay exact).
Round boundaries always check the clock.

Budgets can also be installed *ambiently* with :meth:`Budget.activate`:
engines that were not handed an explicit budget fall back to
:func:`current_budget`, which is how the benchmark harness imposes a
deadline on measurement closures it does not control.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional

from ..errors import BudgetExceededError, EvaluationCancelledError

#: Ambiently-active budget (see :meth:`Budget.activate`).
_CURRENT: ContextVar[Optional["Budget"]] = ContextVar(
    "repro_active_budget", default=None)

#: At most this many derivation events pass between two checkpoints.
DEFAULT_DEADLINE_CHECK_INTERVAL = 64

#: Safety valve for runaway fixpoints (e.g. value-inventing arithmetic):
#: no schedule runs more rounds than this, budget or not.
MAX_ROUNDS = 100_000


class Budget:
    """A resource budget for one evaluation or optimization run.

    Args:
        timeout_s: wall-clock allowance in seconds; the deadline starts
            counting at :meth:`start` (engines call it on entry).
        max_derivations: bound on derivation *events* (new facts plus
            duplicate derivations) — the engine's total work.
        max_facts: bound on *materialized* facts (new tuples only).
        max_rounds: bound on the rounds of each fixpoint schedule —
            semi-naive delta rounds per stratum, naive rounds, top-down
            outer iterations and each maintenance pass's rounds (see
            :func:`check_round`).
    """

    def __init__(self, timeout_s: float | None = None,
                 max_derivations: int | None = None,
                 max_facts: int | None = None,
                 max_rounds: int | None = None) -> None:
        self.timeout_s = timeout_s
        self.max_derivations = max_derivations
        self.max_facts = max_facts
        self.max_rounds = max_rounds
        self._cancel_event = threading.Event()
        self._deadline: float | None = None
        self._started_at: float | None = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        for name in ("timeout_s", "max_derivations", "max_facts",
                     "max_rounds"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value}")
        if self.cancelled:
            parts.append("cancelled")
        return f"Budget({', '.join(parts)})"

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "Budget":
        """Arm the deadline (idempotent); returns ``self`` for chaining."""
        if self._started_at is None:
            self._started_at = time.monotonic()
            if self.timeout_s is not None:
                self._deadline = self._started_at + self.timeout_s
        return self

    def cancel(self) -> None:
        """Cooperatively cancel: the next checkpoint raises
        :class:`EvaluationCancelledError`.  Thread-safe."""
        self._cancel_event.set()

    @property
    def cancelled(self) -> bool:
        return self._cancel_event.is_set()

    @property
    def counter_limited(self) -> bool:
        """Whether a derivation or fact limit is set: bulk inserts must
        then stop at the exact event that crosses it (see
        :meth:`checkpoint`)."""
        return self.max_derivations is not None \
            or self.max_facts is not None

    # -- checkpoints ---------------------------------------------------------
    def checkpoint(self, stats=None,
                   last_round: int | None = None) -> int:
        """The derivation-event checkpoint of every schedule.

        Performs the full check (cancellation, counter limits, deadline)
        and returns the number of derivation events that may safely pass
        before the next checkpoint is due.  Engines count that many
        events down and call :meth:`checkpoint` again at zero, which
        keeps counter limits *exact* — the distance returned never
        crosses a configured limit, so a limit raises at the very event
        that reaches it — while paying one clock read per at most
        :data:`DEFAULT_DEADLINE_CHECK_INTERVAL` events.
        """
        if self._cancel_event.is_set():
            raise EvaluationCancelledError(
                "evaluation cancelled", stats=stats, last_round=last_round)
        self._check_counters(stats, last_round)
        self._check_deadline(stats, last_round)
        return self.events_until_check(stats)

    def events_until_check(self, stats=None) -> int:
        """Derivation events until the next required :meth:`checkpoint`.

        :data:`DEFAULT_DEADLINE_CHECK_INTERVAL`, shortened so that no counter
        limit can be crossed in between: with ``max_derivations`` or
        ``max_facts`` configured the distance to the nearest limit is
        returned instead, so the limit raises at exactly the event that
        reaches it.
        """
        nxt = DEFAULT_DEADLINE_CHECK_INTERVAL
        if stats is not None:
            if self.max_derivations is not None:
                events = stats.derivations + stats.duplicate_derivations
                nxt = min(nxt, self.max_derivations - events)
            if self.max_facts is not None:
                nxt = min(nxt, self.max_facts - stats.derivations)
        return nxt if nxt > 0 else 1

    def _check_counters(self, stats, last_round: int | None) -> None:
        if stats is None:
            return
        if self.max_derivations is not None:
            events = stats.derivations + stats.duplicate_derivations
            if events >= self.max_derivations:
                raise BudgetExceededError(
                    f"derivation budget exhausted after {events} "
                    f"derivation events (limit {self.max_derivations})",
                    resource="derivations",
                    limit=self.max_derivations, spent=events,
                    stats=stats, last_round=last_round)
        if self.max_facts is not None \
                and stats.derivations >= self.max_facts:
            raise BudgetExceededError(
                f"materialized-fact budget exhausted after "
                f"{stats.derivations} facts (limit {self.max_facts})",
                resource="facts", limit=self.max_facts,
                spent=stats.derivations, stats=stats,
                last_round=last_round)

    def check_round(self, stats=None,
                    last_round: int | None = None) -> None:
        """Round-boundary checkpoint: exact deadline + round limit."""
        if self._cancel_event.is_set():
            raise EvaluationCancelledError(
                "evaluation cancelled", stats=stats, last_round=last_round)
        self._check_deadline(stats, last_round)
        if self.max_rounds is not None and last_round is not None \
                and last_round >= self.max_rounds:
            raise BudgetExceededError(
                f"round budget exhausted after {last_round} rounds "
                f"(limit {self.max_rounds})",
                resource="rounds", limit=self.max_rounds,
                spent=last_round, stats=stats, last_round=last_round)

    def _check_deadline(self, stats, last_round: int | None) -> None:
        if self._deadline is None:
            return
        now = time.monotonic()
        if now > self._deadline:
            spent = now - (self._started_at or now)
            raise BudgetExceededError(
                f"deadline of {self.timeout_s:g}s exceeded after "
                f"{spent:.3f}s", resource="deadline",
                limit=self.timeout_s, spent=spent, stats=stats,
                last_round=last_round)

    # -- ambient installation ----------------------------------------------
    @contextmanager
    def activate(self) -> Iterator["Budget"]:
        """Install this budget ambiently for the ``with`` block.

        Engines invoked without an explicit ``budget=`` argument pick it
        up via :func:`current_budget`."""
        token = _CURRENT.set(self)
        try:
            yield self.start()
        finally:
            _CURRENT.reset(token)


def current_budget() -> Budget | None:
    """The ambiently-active budget installed by :meth:`Budget.activate`,
    or ``None``."""
    return _CURRENT.get()


def resolve_budget(budget: Budget | None) -> Budget | None:
    """An explicit budget if given, else the ambient one, started."""
    if budget is None:
        budget = current_budget()
    return budget.start() if budget is not None else None


def check_round(budget: Budget | None, stats, rounds: int,
                where: str) -> None:
    """The round boundary of every fixpoint schedule, before round
    ``rounds`` (numbered from 1) runs.

    Raises :class:`BudgetExceededError` past :data:`MAX_ROUNDS` or
    ``budget``'s ``max_rounds``, and on its deadline or cancellation
    (:meth:`Budget.check_round`), with ``rounds - 1`` as the last
    completed round; ``where`` names the schedule in the message.  Only
    a round allowed to run is counted in ``stats.iterations``.
    """
    if rounds > MAX_ROUNDS:
        raise BudgetExceededError(
            f"{where} exceeded {MAX_ROUNDS} rounds", resource="rounds",
            limit=MAX_ROUNDS, spent=rounds - 1, stats=stats,
            last_round=rounds - 1)
    if budget is not None:
        budget.check_round(stats, last_round=rounds - 1)
    stats.iterations += 1
