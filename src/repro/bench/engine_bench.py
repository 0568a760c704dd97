"""Engine benchmark baseline: the ``BENCH_engine.json`` artifact.

This is the perf trajectory for the evaluation engines themselves (as
opposed to :mod:`repro.bench.experiments`, which measures the paper's
*optimizations*): a fixed set of recursive workloads — transitive
closure, same-generation, and a bound-argument magic workload — each
run under every evaluation method (naive, semi-naive, magic, top-down)
and, for the bottom-up methods, under both executors (compiled kernels
vs. the reference interpreter).

Each entry records median wall time over repeats *and* the
:class:`~repro.engine.bindings.EvalStats` counters, plus a fingerprint
of the result database, so that

- this PR and every future one can quantify hot-path wins against a
  stored baseline, and
- the differential guarantee is checked where it is measured: both
  executors must produce identical databases and ``derivations``
  counts, and all four methods must agree on the query answers.

:func:`regression_failures` turns the report into a CI gate: compiled
must not be slower than interpreted by more than the allowed factor on
the transitive-closure workload, and every agreement flag must hold.
"""

from __future__ import annotations

import gc
import hashlib
import json
import platform
import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Optional

from ..datalog.atoms import Atom
from ..datalog.parser import parse_program
from ..datalog.program import Program
from ..datalog.terms import Constant, Variable
from ..engine.engine import (EvaluationResult, evaluate,
                             evaluate_with_magic)
from ..engine.profile import EvalProfile
from ..engine.topdown import topdown_query
from ..errors import BudgetExceededError
from ..facts.database import Database
from ..runtime.budget import Budget
from ..workloads.generators import (random_digraph, tree_edges,
                                    transitive_closure_program)

#: Executors compared on every bottom-up method.
EXECUTORS = ("compiled", "interpreted")

#: Semi-naive executor configurations compared per workload: the plain
#: columnless baseline against every interning x planner combination.
#: ``baseline`` (greedy planner, raw storage, compiled) is the reference
#: the ``interned_speedup`` metric and the per-cell floor of ``--check``
#: divide by; ``interned_adaptive`` is the fast path.
SEMINAIVE_CONFIGS = (
    ("baseline", {"planner": "greedy", "interning": "off"}),
    ("interned_greedy", {"planner": "greedy", "interning": "on"}),
    ("adaptive", {"planner": "adaptive", "interning": "off"}),
    ("interned_adaptive", {"planner": "adaptive", "interning": "on"}),
)

#: Report format version (bump when the JSON shape changes).
REPORT_VERSION = 2

#: Default artifact filename.
DEFAULT_REPORT_PATH = "BENCH_engine.json"

SAME_GENERATION = """
    r0: sg(X, X) :- person(X).
    r1: sg(X, Y) :- par(X, Xp), sg(Xp, Yp), par(Y, Yp).
"""


@dataclass(frozen=True)
class EngineWorkload:
    """One benchmark scenario: a program, an EDB and a query atom."""

    name: str
    program: Program
    edb: Database
    query: Atom
    answer_pred: str


def _digraph(nodes: int, edges: int, seed: int) -> Database:
    return random_digraph(nodes, edges, random.Random(seed))


def _sg_database(depth: int, fanout: int) -> Database:
    db = tree_edges(depth, fanout, pred="par")
    people = {value for row in db.facts("par") for value in row}
    for person in sorted(people):
        db.add_fact("person", person)
    return db


#: Scale presets: CI smoke stays fast; ``default`` is the scale the
#: acceptance numbers are quoted at.
SCALES: dict[str, dict[str, tuple]] = {
    "smoke": {
        "transitive_closure": (80, 240),
        "same_generation": (3, 3),
        "magic": (120, 360),
    },
    "default": {
        "transitive_closure": (200, 600),
        "same_generation": (4, 3),
        "magic": (300, 900),
    },
    "large": {
        "transitive_closure": (400, 1400),
        "same_generation": (5, 3),
        "magic": (600, 2000),
    },
}


#: Default RNG seed for the generated EDBs: fixed so every run of a
#: given (scale, seed) measures the identical database and fingerprints
#: are comparable across machines and CI runs.
DEFAULT_SEED = 7


def build_workloads(scale: str = "default",
                    seed: int = DEFAULT_SEED) -> list[EngineWorkload]:
    """The benchmark scenarios at the given scale preset."""
    try:
        params = SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of "
            f"{sorted(SCALES)}") from None
    tc_program = parse_program(transitive_closure_program())
    nodes, edges = params["transitive_closure"]
    depth, fanout = params["same_generation"]
    magic_nodes, magic_edges = params["magic"]
    free = Atom("reach", (Variable("X"), Variable("Y")))
    return [
        EngineWorkload(
            name="transitive_closure",
            program=tc_program,
            edb=_digraph(nodes, edges, seed=seed),
            query=free,
            answer_pred="reach"),
        EngineWorkload(
            name="same_generation",
            program=parse_program(SAME_GENERATION),
            edb=_sg_database(depth, fanout),
            query=Atom("sg", (Variable("X"), Variable("Y"))),
            answer_pred="sg"),
        EngineWorkload(
            name="magic",
            program=tc_program,
            edb=_digraph(magic_nodes, magic_edges, seed=seed + 16),
            query=Atom("reach", (Constant("n0"), Variable("Y"))),
            answer_pred="reach"),
    ]


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def _timed(run: Callable[[], EvaluationResult], repeats: int,
           timeout_s: float | None):
    """Run ``repeats`` times under a deadline; keep the last result.

    The cyclic collector is paused while the clock runs and invoked
    explicitly between repeats: a generation-2 collection over the
    millions of live row tuples an evaluation holds costs tens of
    milliseconds and lands in whichever cell happens to cross the
    allocation threshold — which would be charged to that cell's
    measurement rather than to the engine under test.
    """
    seconds: list[float] = []
    result: Optional[EvaluationResult] = None
    gc_was_enabled = gc.isenabled()
    for _ in range(max(1, repeats)):
        budget = Budget(timeout_s=timeout_s)
        gc.disable()
        start = time.perf_counter()
        try:
            with budget.activate():
                result = run()
        except BudgetExceededError:
            seconds.append(time.perf_counter() - start)
            return seconds, None
        finally:
            if gc_was_enabled:
                gc.enable()
        seconds.append(time.perf_counter() - start)
        gc.collect()
    return seconds, result


def _paired_ratio(run_a: Callable[[], EvaluationResult],
                  run_b: Callable[[], EvaluationResult],
                  repeats: int,
                  timeout_s: float | None) -> float | None:
    """Best-of interleaved a/b wall ratio (>1 means b is faster).

    Speedup gates compare two cells, and timing them in separate
    windows lets a burst of machine noise (CPU steal, frequency
    shifts, a neighbouring process) land under exactly one of them —
    faking a regression or an improvement no code change caused.  Here
    the two runs alternate back-to-back, so a noisy window degrades
    both sides, and the per-side minimum over repeats then discards
    the noisy windows entirely.  Returns None when a run exhausts its
    budget.
    """
    best_a = best_b = float("inf")
    gc_was_enabled = gc.isenabled()
    for _ in range(max(1, repeats)):
        for side, run in (("a", run_a), ("b", run_b)):
            budget = Budget(timeout_s=timeout_s)
            gc.disable()
            start = time.perf_counter()
            try:
                with budget.activate():
                    run()
            except BudgetExceededError:
                return None
            finally:
                if gc_was_enabled:
                    gc.enable()
            elapsed = time.perf_counter() - start
            if side == "a":
                best_a = min(best_a, elapsed)
            else:
                best_b = min(best_b, elapsed)
            gc.collect()
    return round(best_a / max(best_b, 1e-6), 3)


def _fingerprint(idb: Database) -> str:
    return hashlib.sha256(idb.to_text().encode("utf-8")).hexdigest()[:16]


def _query_rows(rows, query: Atom) -> frozenset[tuple]:
    """Filter full tuples on the query's constant positions."""
    wanted = []
    for row in rows:
        keep = True
        binding: dict[Variable, object] = {}
        for value, arg in zip(row, query.args):
            if isinstance(arg, Constant):
                if arg.value != value:
                    keep = False
                    break
            elif isinstance(arg, Variable):
                if binding.setdefault(arg, value) != value:
                    keep = False
                    break
        if keep:
            wanted.append(row)
    return frozenset(wanted)


def _entry(seconds: list[float],
           result: Optional[EvaluationResult]) -> dict:
    entry: dict = {
        "wall_ms": round(statistics.median(seconds) * 1000, 3),
        "best_ms": round(min(seconds) * 1000, 3),
        "runs_ms": [round(s * 1000, 3) for s in seconds],
    }
    if result is None:
        entry["budget_exceeded"] = True
        return entry
    entry["stats"] = result.stats.as_dict()
    entry["idb_facts"] = sum(
        len(result.idb.relation(p)) for p in result.idb)
    entry["fingerprint"] = _fingerprint(result.idb)
    return entry


def run_engine_benchmark(scale: str = "default", repeats: int = 3,
                         timeout_s: float | None = 120.0,
                         seed: int = DEFAULT_SEED,
                         profile: bool = False) -> dict:
    """Run the engine baseline and return the report dict.

    Per workload: every bottom-up method (naive, seminaive, magic) runs
    under both executors; top-down runs once (it has no compiled path);
    the semi-naive evaluation additionally runs under every
    :data:`SEMINAIVE_CONFIGS` configuration (interning x planner).
    The report carries per-entry timings/counters, an ``agreement``
    block recording the differential checks, and per-workload
    ``interned_speedup`` — baseline wall time over the
    interned+adaptive configuration's.

    ``profile=True`` attaches a per-kernel wall-time and per-round
    delta-size breakdown (:class:`~repro.engine.profile.EvalProfile`)
    to every semi-naive configuration cell.
    """
    report: dict = {
        "version": REPORT_VERSION,
        "scale": scale,
        "repeats": repeats,
        "seed": seed,
        "python": platform.python_version(),
        "workloads": [],
    }
    for workload in build_workloads(scale, seed=seed):
        block: dict = {
            "name": workload.name,
            "edb_facts": workload.edb.total_facts(),
            "methods": {},
        }
        answers: dict[str, frozenset] = {}
        derivations: dict[tuple[str, str], int] = {}
        fingerprints: dict[tuple[str, str], str] = {}

        def bottom_up(method: str,
                      run_for: Callable[[str], EvaluationResult],
                      _workload=workload, _block=block,
                      _answers=answers, _derivations=derivations,
                      _fingerprints=fingerprints) -> None:
            per_method: dict = {}
            for executor in EXECUTORS:
                seconds, result = _timed(
                    lambda: run_for(executor), repeats, timeout_s)
                per_method[executor] = _entry(seconds, result)
                if result is None:
                    continue
                _derivations[(method, executor)] = \
                    result.stats.derivations
                _fingerprints[(method, executor)] = \
                    per_method[executor]["fingerprint"]
                if method == "magic":
                    assert result.magic is not None
                    rows = result.magic.answers(result.idb)
                else:
                    rows = result.facts(_workload.answer_pred)
                _answers.setdefault(
                    method, _query_rows(rows, _workload.query))
            compiled = per_method["compiled"]
            interpreted = per_method["interpreted"]
            if "fingerprint" in compiled and "fingerprint" in interpreted:
                per_method["speedup"] = round(
                    interpreted["wall_ms"]
                    / max(compiled["wall_ms"], 1e-6), 3)
                per_method["executors_agree"] = (
                    compiled["fingerprint"] == interpreted["fingerprint"]
                    and compiled["stats"]["derivations"]
                    == interpreted["stats"]["derivations"])
            _block["methods"][method] = per_method

        bottom_up("naive", lambda executor: evaluate(
            workload.program, workload.edb, method="naive",
            executor=executor))
        bottom_up("seminaive", lambda executor: evaluate(
            workload.program, workload.edb, executor=executor))
        bottom_up("magic", lambda executor: evaluate_with_magic(
            workload.program, workload.edb, workload.query,
            executor=executor))

        # Semi-naive evaluation across the configuration matrix.  The
        # baseline configuration equals the seminaive/compiled entry
        # above (greedy planner, raw storage), so its measurement is
        # reused rather than re-timed.
        configs: dict = {}
        config_fingerprints: dict[str, str] = {}
        for config_name, knobs in SEMINAIVE_CONFIGS:
            holder: dict = {}

            def run_config(_knobs=knobs,
                           _holder=holder) -> EvaluationResult:
                prof = EvalProfile() if profile else None
                result = evaluate(workload.program, workload.edb,
                                  **_knobs, profile=prof)
                if prof is not None:
                    _holder["profile"] = prof
                return result

            if config_name == "baseline":
                entry = dict(block["methods"]["seminaive"]["compiled"])
            else:
                seconds, result = _timed(run_config, repeats, timeout_s)
                entry = _entry(seconds, result)
                if result is not None and "profile" in holder:
                    entry["profile"] = holder["profile"].as_dict()
            configs[config_name] = entry
            if "fingerprint" in entry:
                config_fingerprints[config_name] = entry["fingerprint"]
        block["seminaive_configs"] = configs
        baseline = configs["baseline"]
        fast = configs.get("interned_adaptive", {})
        if "fingerprint" in baseline and "fingerprint" in fast:
            block["interned_speedup"] = round(
                baseline["wall_ms"] / max(fast["wall_ms"], 1e-6), 3)

        seconds, topdown = _timed_topdown(workload, repeats, timeout_s)
        td_entry: dict = {
            "wall_ms": round(statistics.median(seconds) * 1000, 3)}
        if topdown is None:
            td_entry["budget_exceeded"] = True
        else:
            td_entry["answers"] = len(topdown.answers)
            td_entry["stats"] = topdown.stats.as_dict()
            answers["topdown"] = _query_rows(
                topdown.project(workload.query), workload.query)
        block["methods"]["topdown"] = td_entry

        block["agreement"] = {
            "configs_agree": len(set(
                config_fingerprints.values())) <= 1,
            "configs_compared": sorted(config_fingerprints),
            "methods_agree": len(set(answers.values())) <= 1,
            "methods_compared": sorted(answers),
            "executors_agree": all(
                block["methods"][m].get("executors_agree", True)
                for m in ("naive", "seminaive", "magic")),
            "naive_matches_seminaive": fingerprints.get(
                ("naive", "compiled")) == fingerprints.get(
                ("seminaive", "compiled")),
        }
        report["workloads"].append(block)

    tc = _workload_block(report, "transitive_closure")
    summary = {}
    if tc is not None:
        for method in ("naive", "seminaive", "magic"):
            speedup = tc["methods"].get(method, {}).get("speedup")
            if speedup is not None:
                summary[f"tc_{method}_speedup"] = speedup
    for name, key in (("transitive_closure", "tc"),
                      ("same_generation", "sg"), ("magic", "magic")):
        block = _workload_block(report, name)
        if block is None:
            continue
        if "interned_speedup" in block:
            summary[f"{key}_interned_speedup"] = \
                block["interned_speedup"]
    report["summary"] = summary
    return report


def _timed_topdown(workload: EngineWorkload, repeats: int,
                   timeout_s: float | None):
    seconds: list[float] = []
    result = None
    for _ in range(max(1, repeats)):
        budget = Budget(timeout_s=timeout_s)
        start = time.perf_counter()
        try:
            with budget.activate():
                result = topdown_query(workload.program, workload.edb,
                                       workload.query)
        except BudgetExceededError:
            seconds.append(time.perf_counter() - start)
            return seconds, None
        seconds.append(time.perf_counter() - start)
    return seconds, result


def _workload_block(report: dict, name: str) -> dict | None:
    for block in report["workloads"]:
        if block["name"] == name:
            return block
    return None


# ---------------------------------------------------------------------------
# Artifact + regression gate
# ---------------------------------------------------------------------------

def write_engine_benchmark(report: dict,
                           path: str = DEFAULT_REPORT_PATH) -> None:
    """Write the report as ``BENCH_engine.json`` (stable key order)."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=False)
        handle.write("\n")


#: Gates refuse reports measured with fewer repeats than this: medians
#: over >=3 runs are what keep speedup thresholds from flapping.
MIN_GATE_REPEATS = 3


#: Methods the per-cell executor floors apply to (top-down has no
#: compiled path and is excluded).
GATED_METHODS = ("naive", "seminaive", "magic")


def regression_failures(report: dict, max_slowdown: float = 1.5,
                        workload: str = "transitive_closure",
                        min_repeats: int = MIN_GATE_REPEATS
                        ) -> list[str]:
    """Check the report against the CI gate; returns failure messages.

    Fails when the report was measured with fewer than ``min_repeats``
    repeats (single-run medians make every threshold below noise-
    sensitive), or when any differential agreement flag is false.

    The ``max_slowdown`` factor is a per-cell floor over the whole
    workload x executor grid: on *every* workload, (a) every
    naive/seminaive/magic cell must have completed under budget on both
    executors with the compiled executor no more than ``max_slowdown``x
    slower than the interpreted one, and (b) every semi-naive
    configuration cell must be no more than ``max_slowdown``x slower
    than the compiled baseline.
    """
    failures: list[str] = []
    repeats = report.get("repeats", 0)
    if repeats < min_repeats:
        failures.append(
            f"report measured with repeats={repeats}; gates need "
            f">= {min_repeats} for stable medians")
    if _workload_block(report, workload) is None:
        return [*failures, f"workload {workload!r} missing from report"]
    for entry in report["workloads"]:
        name = entry["name"]
        for method in GATED_METHODS:
            per_method = entry["methods"].get(method, {})
            for executor in EXECUTORS:
                cell = per_method.get(executor, {})
                if "wall_ms" not in cell or \
                        cell.get("budget_exceeded"):
                    failures.append(
                        f"{name}/{method}/{executor}: cell missing "
                        "or budget exceeded")
            speedup = per_method.get("speedup")
            if speedup is not None and \
                    speedup < 1.0 / max_slowdown:
                failures.append(
                    f"{name}/{method}: compiled executor is "
                    f"{1.0 / speedup:.2f}x slower than interpreted "
                    f"(allowed {max_slowdown:.2f}x)")
        configs = entry.get("seminaive_configs", {})
        base_wall = configs.get("baseline", {}).get("wall_ms")
        for config_name, cell in configs.items():
            if config_name == "baseline":
                continue
            if "wall_ms" not in cell or cell.get("budget_exceeded"):
                failures.append(
                    f"{name}/{config_name}: cell missing or budget "
                    "exceeded")
                continue
            if base_wall is None:
                continue
            ratio = base_wall / max(cell["wall_ms"], 1e-6)
            if ratio < 1.0 / max_slowdown:
                failures.append(
                    f"{name}/{config_name}: {1.0 / ratio:.2f}x slower "
                    f"than the compiled baseline (allowed "
                    f"{max_slowdown:.2f}x)")
        agreement = entry.get("agreement", {})
        for flag in ("methods_agree", "executors_agree",
                     "naive_matches_seminaive", "configs_agree"):
            if agreement.get(flag) is False:
                failures.append(f"{name}: {flag} is false")
    return failures
