"""Compare two result sets of run.py, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py A/set.json B/set.json

``A`` is the base (the parent commit, or the first of two sets of the
same commit).  A row shows both medians, ``B / A`` and a verdict:

* ``regressed``  — B's median is worse than A's by more than the
  metric's bound in BENCHMARK.json;
* ``unresolved`` — the spread between runs (first to third quartile, as a
  share of the median, the wider of the two sets) exceeds the bound, so
  the sets cannot tell;
* ``ok``         — neither.

Metrics without a bound (the per-layer ones of traced sets) get no
verdict.  Exits 1 when any row is regressed or unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median."""
    middle = statistics.median(values)
    if len(values) < 2 or not middle:
        return 0.0
    low, _mid, high = statistics.quantiles(values, n=4)
    return (high - low) / abs(middle)


def metric_values(runs: list[dict]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for run in runs:
        for name, entry in run["metrics"].items():
            out.setdefault(name, []).append(entry["value"])
    return out


def compare(base: dict, other: dict, spec: dict) -> tuple[list[str], bool]:
    bounds = {m["name"]: (m["bound"], m["better"])
              for m in spec["end_to_end"]}
    lines = [f"{'workload':<16} {'metric':<32} {'A median':>12} "
             f"{'B median':>12} {'B/A':>7} {'spread':>7} {'bound':>6}  verdict"]
    clean = True
    for workload in base["runs"]:
        if workload not in other["runs"]:
            continue
        ours = metric_values(base["runs"][workload])
        theirs = metric_values(other["runs"][workload])
        for name, a_values in ours.items():
            b_values = theirs.get(name)
            if not b_values:
                continue
            a, b = statistics.median(a_values), statistics.median(b_values)
            wide = max(spread(a_values), spread(b_values))
            ratio = b / a if a else float("nan")
            verdict = bound_text = ""
            if name in bounds:
                bound, better = bounds[name]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                bound_text = f"{bound:.2f}"
                if wide > bound:
                    verdict = "unresolved"
                elif worse > bound:
                    verdict = "regressed"
                else:
                    verdict = "ok"
                clean = clean and verdict == "ok"
            lines.append(f"{workload:<16} {name:<32} {a:>12.4f} {b:>12.4f} "
                         f"{ratio:>7.3f} {wide:>7.3f} {bound_text:>6}  "
                         f"{verdict}")
        for label, runs in (("A", base["runs"][workload]),
                            ("B", other["runs"][workload])):
            failed = sum(run["failed"] for run in runs)
            attempted = sum(run["attempted"] for run in runs)
            lines.append(f"{workload:<16} {'ops_failed_ratio ' + label:<32} "
                         f"{failed}/{attempted}")
            clean = clean and failed == 0
    return lines, clean


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base = json.loads(Path(argv[1]).read_text())
    other = json.loads(Path(argv[2]).read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    lines, clean = compare(base, other, spec)
    print(f"A = {argv[1]} (base)   B = {argv[2]}   "
          f"runs per workload: {len(next(iter(base['runs'].values())))} / "
          f"{len(next(iter(other['runs'].values())))}")
    print("\n".join(lines))
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
