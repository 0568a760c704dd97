"""Lightweight evaluation profiling: per-kernel and per-round breakdown.

An :class:`EvalProfile` threads through
:func:`~repro.engine.seminaive.seminaive_evaluate` (``profile=``) and
collects, without touching the unprofiled hot path:

- per-kernel wall time: rule firings keyed by the engine's rule key
  (label or ``pred#index``) plus the delta-variant suffix, with call
  counts and derived-row totals, so a bench regression is attributable
  to a specific kernel rather than a workload total;
- per-round delta sizes: after every semi-naive round, the frontier
  cardinality of each recursive predicate.

``as_dict()`` is the JSON-ready shape of both.
"""

from __future__ import annotations

__all__ = ["EvalProfile"]


class EvalProfile:
    """Accumulates kernel timings and round frontier sizes."""

    __slots__ = ("kernels", "rounds")

    def __init__(self) -> None:
        #: kernel key -> {"calls", "seconds", "rows"}
        self.kernels: dict[str, dict] = {}
        #: one entry per completed round: {"round", "deltas"}
        self.rounds: list[dict] = []

    def record_fire(self, key: str, seconds: float, rows: int) -> None:
        entry = self.kernels.get(key)
        if entry is None:
            self.kernels[key] = {"calls": 1, "seconds": seconds,
                                 "rows": rows}
        else:
            entry["calls"] += 1
            entry["seconds"] += seconds
            entry["rows"] += rows

    def record_round(self, round_index: int,
                     delta_sizes: dict[str, int]) -> None:
        self.rounds.append({"round": round_index,
                            "deltas": dict(delta_sizes)})

    def as_dict(self) -> dict:
        kernels = {
            key: {"calls": entry["calls"],
                  "seconds": round(entry["seconds"], 6),
                  "rows": entry["rows"]}
            for key, entry in sorted(self.kernels.items())}
        return {"kernels": kernels, "rounds": self.rounds}
