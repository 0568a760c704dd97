"""Benchmark harness: timed engine comparisons with work counters.

Wall time in a pure-Python engine is noisy; every measurement therefore
also reports the instrumentation counters (atom lookups, rows matched,
derivations, residue checks), which deterministically quantify the work
an optimization saves — the quantity the paper's claims are about.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

from ..datalog.pretty import format_table
from ..engine.engine import EvaluationResult
from ..errors import BudgetExceededError
from ..runtime.budget import Budget

#: Per-measurement wall-clock allowance: one runaway configuration fails
#: its own row instead of hanging the whole benchmark suite.
DEFAULT_MEASUREMENT_TIMEOUT_S = 120.0


@dataclass
class Measurement:
    """One engine run: wall times over repeats plus the counters."""

    label: str
    seconds: list[float] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    rule_rows: dict[str, int] = field(default_factory=dict)
    answers: int = 0
    #: True when the run hit the measurement deadline; the row then
    #: reports partial counters instead of hanging the suite.
    budget_exceeded: bool = False

    def rows_for_rules(self, prefix: str) -> int:
        """Matched rows attributed to rules labelled ``prefix*``."""
        return sum(rows for label, rows in self.rule_rows.items()
                   if label.startswith(prefix))

    @property
    def median_seconds(self) -> float:
        return statistics.median(self.seconds) if self.seconds else 0.0

    def speedup_over(self, baseline: "Measurement") -> float:
        if self.median_seconds == 0:
            return float("inf")
        return baseline.median_seconds / self.median_seconds


def measure(label: str, run: Callable[[], EvaluationResult],
            answer_pred: str, repeats: int = 3,
            timeout_s: float | None = DEFAULT_MEASUREMENT_TIMEOUT_S
            ) -> Measurement:
    """Run an evaluation ``repeats`` times; keep counters from the last.

    Each repeat runs under an ambient :class:`Budget` deadline
    (``timeout_s``; ``None`` disables it).  On expiry the measurement is
    marked ``budget_exceeded`` and carries the partial counters — the
    row reports the timeout instead of the whole suite hanging.
    """
    measurement = Measurement(label)
    result: EvaluationResult | None = None
    for _ in range(max(1, repeats)):
        budget = Budget(timeout_s=timeout_s)
        start = time.perf_counter()
        try:
            with budget.activate():
                result = run()
        except BudgetExceededError as error:
            measurement.seconds.append(time.perf_counter() - start)
            measurement.budget_exceeded = True
            if error.stats is not None:
                measurement.counters = error.stats.as_dict()
                measurement.rule_rows = dict(error.stats.rule_rows)
            return measurement
        measurement.seconds.append(time.perf_counter() - start)
    assert result is not None
    measurement.counters = result.stats.as_dict()
    measurement.rule_rows = dict(result.stats.rule_rows)
    measurement.answers = result.count(answer_pred) \
        if answer_pred in result.program.idb_predicates else 0
    return measurement


@dataclass
class Table:
    """An experiment's printable result table."""

    title: str
    headers: list[str]
    rows: list[list[object]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        self.rows.append(list(cells))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        lines = [self.title, "=" * len(self.title),
                 format_table(self.headers, self.rows)]
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def show(self) -> None:
        print(self.render())
        print()

    def to_csv(self, path) -> None:
        """Write the table as CSV (headers + rows; notes as comments)."""
        import csv

        with open(path, "w", encoding="utf-8", newline="") as handle:
            for note in [self.title] + self.notes:
                handle.write(f"# {note}\n")
            writer = csv.writer(handle)
            writer.writerow(self.headers)
            for row in self.rows:
                writer.writerow([str(cell) for cell in row])


def check_same_answers(measurements: Iterable[Measurement]) -> bool:
    """All engines must agree — semantic optimization preserves answers."""
    answers = {m.answers for m in measurements}
    return len(answers) == 1
