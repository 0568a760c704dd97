"""In-memory span recorder for the traced benchmark pass.

A span is ``(name, start, end, parent, op)``: ``name`` is
``layer.step`` (the layer is the module under ``src/repro/``), ``parent``
the index of the enclosing span (``-1`` for the root span of an
operation) and ``op`` the operation's id, shared by every span the
operation caused.  The benchmark is single-threaded, so nesting is a
stack and a span's self time is its duration minus its direct children's.

Spans are recorded from the benchmark's own files, around the adapter's
calls into each layer; nothing under ``src/`` knows about them.  With the
recorder disabled ``span()`` hands back one shared no-op context manager,
so the untraced pass runs the same code path at ~0.2 us per call.
"""

from __future__ import annotations

import json
from time import perf_counter


class _NoSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


_NO_SPAN = _NoSpan()


class _Span:
    __slots__ = ("recorder", "index")

    def __init__(self, recorder: "Recorder", index: int) -> None:
        self.recorder = recorder
        self.index = index

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        recorder = self.recorder
        recorder.spans[self.index][2] = perf_counter()
        recorder._stack.pop()
        return False


class Recorder:
    """Collects spans and counts while :attr:`enabled` is true."""

    def __init__(self) -> None:
        self.enabled = False
        #: ``[name, start, end, parent, op]`` per span, in start order.
        self.spans: list[list] = []
        #: count name -> total over every traced operation.
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op = -1

    def span(self, name: str):
        if not self.enabled:
            return _NO_SPAN
        index = len(self.spans)
        stack = self._stack
        if not stack:
            self._op += 1
        self.spans.append([name, perf_counter(), 0.0,
                           stack[-1] if stack else -1, self._op])
        stack.append(index)
        return _Span(self, index)

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    # -- aggregation ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span: duration minus direct children."""
        out = [end - start for _n, start, end, _p, _o in self.spans]
        for _name, start, end, parent, _op in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, total seconds, self seconds)``."""
        out: dict[str, tuple[int, float, float]] = {}
        for (name, start, end, _p, _o), own in zip(self.spans,
                                                   self.self_times()):
            calls, total, self_total = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + end - start, self_total + own)
        return out

    def _timed_ops(self, root_layer: str) -> set[int]:
        return {op for name, _s, _e, parent, op in self.spans
                if parent < 0 and name.startswith(root_layer + ".")}

    def layer_self_seconds(self, root_layer: str) -> dict[str, float]:
        """Self time per layer (the part of the name before the dot),
        over the operations whose root span belongs to ``root_layer``."""
        ops = self._timed_ops(root_layer)
        out: dict[str, float] = {}
        for (name, _s, _e, _p, op), own in zip(self.spans,
                                               self.self_times()):
            if op in ops:
                layer = name.split(".", 1)[0]
                out[layer] = out.get(layer, 0.0) + own
        return out

    def root_seconds(self, root_layer: str) -> float:
        return sum(end - start for name, start, end, parent, _o in self.spans
                   if parent < 0 and name.startswith(root_layer + "."))

    # -- export --------------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """Chrome-trace JSON (``chrome://tracing`` / Perfetto)."""
        origin = self.spans[0][1] if self.spans else 0.0
        events = [{"name": name, "cat": name.split(".", 1)[0], "ph": "X",
                   "ts": (start - origin) * 1e6,
                   "dur": (end - start) * 1e6, "pid": 1, "tid": 1,
                   "args": {"span": index, "parent": parent, "op": op}}
                  for index, (name, start, end, parent, op)
                  in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)
