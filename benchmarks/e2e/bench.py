"""The run's clock, sample store and answer checker.

**Times are reported at nominal machine speed.**  The sandbox this
benchmark runs in is a small virtual machine whose speed moves by 10-40 %
over seconds to minutes with its neighbours' load; a fixed pure-Python
loop timed there shows the same swings as the program under test.  Raw
wall times therefore differ more between two runs of one commit than
between most pairs of commits.  Every timed region is bracketed by that
fixed loop (``calibration_loop``, outside the region's clock, collector
off), and the region's wall time is divided by ``loop time / NOMINAL``.
What is reported is the time the region would have taken had the machine
run the loop at its nominal rate throughout; the loop is benchmark code
that no change to the program can reach.  The raw medians and the speed
factor are printed beside the normalised ones.
"""

from __future__ import annotations

import gc
import sys
import traceback
from time import perf_counter

import oracle

#: Seconds one calibration loop takes on the reference machine (2 vCPU
#: Xeon 2.1 GHz, CPython 3.11) at its usual speed.
NOMINAL_LOOP_S = 0.0055
#: A bracket spends about this share of the region's time on each side.
BRACKET_SHARE = 0.06
MAX_LOOPS = 16


_TABLE = {(i & 1023, i >> 3): i for i in range(4096)}
_SEEN = {(i, i) for i in range(4096)}


def calibration_loop(table=_TABLE, seen=_SEEN) -> None:
    """The engine's instruction mix, in two halves.

    First containers that grow (tuples into a fresh set and dict:
    allocation and resizing), then containers in a steady state (probes,
    and add/discard on a set of fixed size).  Timed beside this
    benchmark's operations over sixty runs, each half alone left
    run-to-run spreads of 5-6 % (mean over workloads; up to 11-13 %), the
    two together 4 % (up to 10 %); a loop over integers only did worse.
    """
    grown: dict = {}
    fresh: set = set()
    for i in range(15000):
        row = (i & 1023, i >> 3)
        fresh.add(row)
        grown[i & 4095] = row
    hits = 0
    for i in range(15000):
        row = (i & 1023, i >> 3)
        if row in table:
            hits += 1
        seen.add(row)
        seen.discard(row)


class Bench:
    """Clock, sample store and answer checker of one run."""

    def __init__(self, recorder, tracing: bool) -> None:
        self.recorder = recorder
        self.tracing = tracing
        self.measuring = False
        #: normalised seconds per operation kind.
        self.samples: dict[str, list[float]] = {"op": [], "alt": []}
        self.raw: dict[str, list[float]] = {"op": [], "alt": []}
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0
        self.raw_busy = 0.0
        #: (normalised busy s, raw busy s, traced) per measured cycle.
        self.cycles: list[tuple[float, float, bool]] = []
        self._hint: dict[str, float] = {}
        self._last_speed = (0.0, 0, 1.0)

    # -- the normalised clock ------------------------------------------------
    def _speed(self, region_s: float) -> float:
        """Mean seconds per calibration loop, right now."""
        loops = min(MAX_LOOPS, max(1, int(
            BRACKET_SHARE * region_s / NOMINAL_LOOP_S)))
        ended, had, value = self._last_speed
        if had >= loops and perf_counter() - ended < 0.001:
            return value  # the previous region's closing bracket
        gc.disable()
        try:
            calibration_loop()  # untimed: refill the caches the region emptied
            start = perf_counter()
            for _ in range(loops):
                calibration_loop()
            ended = perf_counter()
        finally:
            gc.enable()
        value = (ended - start) / loops
        self._last_speed = (ended, loops, value)
        return value

    def clock(self, operation, hint_s: float = 0.0):
        """``(result, error, raw seconds, normalised seconds)``."""
        result = error = None
        before = self._speed(hint_s)
        start = perf_counter()
        try:
            result = operation()
        except Exception:  # noqa: BLE001 - an operation that raises failed
            error = traceback.format_exc()
        raw = perf_counter() - start
        after = self._speed(raw)
        factor = (before + after) / (2.0 * NOMINAL_LOOP_S)
        return result, error, raw, raw / factor

    def seconds(self, operation, hint_s: float = 0.1):
        """Normalised seconds of an untimed-role region, and its result."""
        result, error, _raw, normal = self.clock(operation, hint_s)
        if error is not None:
            raise RuntimeError(error)
        return normal, result

    # -- operations ----------------------------------------------------------
    def timed(self, role: str, operation, expected) -> float:
        """Run one operation on the clock, then check its answer."""
        self.attempted += 1

        def spanned():
            with self.recorder.span(f"bench.{role}"):
                return operation()
        result, error, raw, normal = self.clock(
            spanned, self._hint.get(role, 0.0))
        self._hint[role] = raw
        if self.measuring:
            self.samples[role].append(normal)
            self.raw[role].append(raw)
            self.busy += normal
            self.raw_busy += raw
        if error is not None:
            self.failed += 1
            print(f"FAILED {role}: raised\n{error}", file=sys.stderr)
        else:
            if isinstance(expected, tuple):
                result = oracle.digest(result)
            self._compare(result, expected, role)
        return normal

    def check(self, actual, expected, what: str) -> None:
        """A whole-run check; counts as one operation."""
        self.attempted += 1
        self._compare(actual, expected, what)

    def _compare(self, actual, expected, what: str) -> None:
        if actual != expected:
            self.failed += 1
            print(f"FAILED {what}: got {str(actual)[:200]}, "
                  f"expected {str(expected)[:200]}", file=sys.stderr)

    def run_cycle(self, workload, index: int, traced: bool) -> None:
        self.recorder.enabled = traced
        self.busy = self.raw_busy = 0.0
        try:
            workload.cycle(index)
        finally:
            self.recorder.enabled = False
        self.cycles.append((self.busy, self.raw_busy, traced))
