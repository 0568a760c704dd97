"""Lightweight evaluation profiling: per-kernel and per-round breakdown.

An :class:`EvalProfile` threads through
:func:`~repro.engine.seminaive.seminaive_evaluate` (``profile=``) and
collects, without touching the unprofiled hot path:

- per-kernel wall time: rule firings keyed by the engine's rule key
  (label or ``pred#index``) plus the delta-variant suffix, with call
  counts and derived-row totals, so a bench regression is attributable
  to a specific kernel rather than a workload total.  ``seconds`` is
  the rule body, ``merge_seconds`` the insert of what it derived
  (duplicate screen, index upkeep, delta fill), so the two together add
  up to the fixpoint;
- per-round delta sizes: after every semi-naive round, the frontier
  cardinality of each recursive predicate.

``as_dict()`` is the JSON-ready shape of both.
"""

from __future__ import annotations

from typing import TypedDict

__all__ = ["EvalProfile", "KernelEntry"]


class KernelEntry(TypedDict):
    """One kernel's accumulated firings."""

    calls: int
    seconds: float
    merge_seconds: float
    rows: int


class EvalProfile:
    """Accumulates kernel timings and round frontier sizes."""

    __slots__ = ("kernels", "rounds")

    def __init__(self) -> None:
        self.kernels: dict[str, KernelEntry] = {}
        #: one entry per completed round: {"round", "deltas"}
        self.rounds: list[dict[str, object]] = []

    def record_fire(self, key: str, seconds: float, merge_seconds: float,
                    rows: int) -> None:
        entry = self.kernels.get(key)
        if entry is None:
            self.kernels[key] = {"calls": 1, "seconds": seconds,
                                 "merge_seconds": merge_seconds,
                                 "rows": rows}
        else:
            entry["calls"] += 1
            entry["seconds"] += seconds
            entry["merge_seconds"] += merge_seconds
            entry["rows"] += rows

    def record_round(self, round_index: int,
                     delta_sizes: dict[str, int]) -> None:
        self.rounds.append({"round": round_index,
                            "deltas": dict(delta_sizes)})

    def as_dict(self) -> dict[str, object]:
        kernels = {
            key: {"calls": entry["calls"],
                  "seconds": round(entry["seconds"], 6),
                  "merge_seconds": round(entry["merge_seconds"], 6),
                  "rows": entry["rows"]}
            for key, entry in sorted(self.kernels.items())}
        return {"kernels": kernels, "rounds": self.rounds}
