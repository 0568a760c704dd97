"""The repository's end-to-end benchmark.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this process and prints its metrics, the last line
being the JSON object BENCHMARK.json's contract asks for.  With ``--runs N``
(or without ``--workload``) it runs a set instead: N runs of every
workload (or of the one named), each in a fresh process with seeds
``seed, seed+1, ...``, written to ``<out>/set.json`` for compare.py.

Load model: closed loop, one client, one process per run, no threads,
``PYTHONHASHSEED=0``; the collector stays enabled inside the clock (users
pay it) and a full collection runs between operations outside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

#: Whole set-ups per run; ``setup_s`` is their median plus the import.
SETUP_REPEATS = 3


def layer_values(bench, workload) -> dict[str, float]:
    """Every per-layer metric of a traced run.

    Span times are raw; they are brought to nominal speed by the ratio of
    normalised to raw time over the traced cycles they were recorded in.
    """
    from metrics import PER_LAYER, tail
    recorder = bench.recorder
    traced = [busy for busy, _raw, was_traced in bench.cycles if was_traced]
    untraced = [busy for busy, _raw, was_traced in bench.cycles
                if not was_traced]
    cycles = max(len(traced), 1)
    scale = sum(traced) / max(sum(raw for _busy, raw, was_traced
                                  in bench.cycles if was_traced), 1e-12)
    totals = recorder.totals()
    layers = recorder.layer_self_seconds("bench")
    extra = workload.extra

    def per_cycle(name: str) -> float:
        return totals.get(name, (0, 0.0, 0.0))[1] * scale / cycles

    def per_call(name: str) -> float:
        calls, total, _own = totals.get(name, (0, 0.0, 0.0))
        return total * scale / calls if calls else 0.0

    def count(name: str) -> float:
        return recorder.counts.get(name, 0) / cycles

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    fixpoint = per_cycle("engine.fixpoint")
    maintain = per_cycle("incremental.maintain")
    update = per_cycle("serving.update")
    refresh = count("serving.refresh_s") * scale
    apply = per_cycle("facts.apply")
    values = {
        "datalog.parse_ms": per_cycle("datalog.parse") * 1e3,
        "datalog.rules": count("datalog.rules"),
        "analysis.lint_ms": per_cycle("analysis.lint") * 1e3,
        "analysis.diagnostics": count("analysis.diagnostics"),
        "analysis.dataflow_ms": per_cycle("analysis.dataflow") * 1e3,
        "core.residues_ms": per_cycle("core.residues") * 1e3,
        "core.residues": count("core.residues"),
        "core.optimize_ms": per_cycle("core.optimize") * 1e3,
        "core.steps_applied": count("core.steps_applied"),
        "core.rules_out": count("core.rules_out"),
        "engine.cbo_ms": per_cycle("engine.cbo") * 1e3,
        "engine.cbo_groups": count("engine.cbo_groups"),
        "engine.kernel_compile_ms": per_cycle("engine.kernel_compile") * 1e3,
        "engine.fixpoint_s": fixpoint,
        "engine.iterations": count("engine.iterations"),
        "engine.derivations": count("engine.derivations"),
        "engine.rows_matched": count("engine.rows_matched"),
        "engine.atom_lookups": count("engine.atom_lookups"),
        "engine.useful_ratio": ratio(
            count("engine.derivations"),
            count("engine.derivations") + count("engine.duplicates")),
        "engine.replans": count("engine.replans"),
        "engine.facts_per_s": ratio(count("engine.new_facts"), fixpoint),
        "facts.intern_ms": per_cycle("facts.intern") * 1e3,
        "facts.symbols": count("facts.symbols"),
        "facts.decode_ms": per_cycle("facts.decode") * 1e3,
        "facts.apply_ms": apply * 1e3,
        "facts.copy_ms": per_cycle("facts.copy") * 1e3,
        "incremental.maintain_ms": maintain * 1e3,
        "incremental.rows_added": count("incremental.rows_added"),
        "incremental.rows_removed": count("incremental.rows_removed"),
        "incremental.maintain_speedup": ratio(
            extra.get("incremental.recompute_s", 0.0), maintain),
        "serving.update_ms": update * 1e3,
        "serving.refresh_ms": refresh * 1e3,
        "serving.publish_ms": max(update - refresh - apply, 0.0) * 1e3,
        "serving.snapshot_query_ms.first":
            per_call("serving.read_first") * 1e3,
        "serving.snapshot_query_ms.warm": per_call("serving.read_warm") * 1e3,
        "bench.trace_overhead": ratio(
            statistics.median(traced) if traced else 0.0,
            statistics.median(untraced) if untraced else 0.0),
        "bench.cycle_ms": statistics.median(traced) * 1e3 if traced else 0.0,
        "bench.op_ms_p95": tail(bench.samples["op"]) * 1e3,
        "bench.alt_ms_p95": tail(bench.samples["alt"]) * 1e3,
    }
    for layer in ("datalog", "analysis", "constraints", "core", "engine",
                  "facts", "incremental", "serving", "bench"):
        values[f"self_ms.{layer}"] = \
            layers.get(layer, 0.0) * scale / cycles * 1e3
    # Everything else was measured outside the cycles (set-up, whole-run
    # counts, the traced run's diagnostics); 0 where the workload has none.
    for name, _unit, _better, _moves in PER_LAYER:
        values.setdefault(name, float(extra.get(name, 0.0)))
    unknown = set(values) - {entry[0] for entry in PER_LAYER}
    if unknown:
        raise SystemExit(f"per-layer values missing from metrics.py: {unknown}")
    return values


def run_workload(args, import_s: float) -> int:
    import adapter
    import metrics
    import workloads
    from bench import Bench
    from spans import Recorder

    preset = "smoke" if args.smoke else "full"
    recorder = Recorder()
    bench = Bench(recorder, tracing=bool(args.trace))
    workload = workloads.WORKLOADS[args.workload](
        adapter.Adapter(recorder), bench,
        workloads.SIZES[preset][args.workload], args.seed)
    workload.generate()
    if preset == "full":
        manifest = json.loads((HERE / "MANIFEST.json").read_text())
        bench.check(workload.cardinalities,
                    manifest["cardinalities"][workload.name],
                    "generator drift: input cardinalities")

    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        setups.append(bench.seconds(workload.build, hint_s=1.0)[0])
    setup_s = import_s + statistics.median(setups)

    bench.measuring = True
    deadline = perf_counter() + args.seconds
    index = 0
    while index < 2 or perf_counter() < deadline:
        bench.run_cycle(workload, index,
                        traced=bench.tracing and index % 2 == 0)
        index += 1
    bench.measuring = False
    workload.finish()

    ops, alts = bench.samples["op"], bench.samples["alt"]
    end_to_end = {
        "op_ms_p50": statistics.median(ops) * 1e3,
        "alt_ms_p50": statistics.median(alts) * 1e3,
        "cycles_per_s": len(bench.cycles) / sum(c[0] for c in bench.cycles),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    print(f"workload {workload.name}  seed {args.seed}  preset {preset}  "
          f"engine {adapter.ENGINE}")
    print(f"  op  = {workload.op_is}\n  alt = {workload.alt_is}")
    speed = sum(c[1] for c in bench.cycles) / sum(c[0] for c in bench.cycles)
    print(f"  cycles {len(bench.cycles)}  op samples {len(ops)}  "
          f"alt samples {len(alts)}  setups {SETUP_REPEATS} "
          f"(import {import_s:.3f} s)")
    print(f"  times are at nominal speed; this run's raw times were "
          f"{speed:.3f} x as long: raw op median "
          f"{statistics.median(bench.raw['op']) * 1e3:.4f} ms, raw alt "
          f"median {statistics.median(bench.raw['alt']) * 1e3:.4f} ms")
    units = {name: unit for name, unit, _b, _bound in metrics.END_TO_END}
    for name, value in end_to_end.items():
        print(f"  {name:<14} {value:>12.4f} {units[name]}")
    print(f"  ops_failed_ratio {bench.failed}/{bench.attempted}")

    reported = end_to_end
    if bench.tracing:
        workload.diagnostics()
        reported = layer_values(bench, workload)
        units = {name: unit for name, unit, _b, _m in metrics.PER_LAYER}
        busy = sum(c[1] for c in bench.cycles if c[2])
        in_spans = recorder.root_seconds("bench")
        print("  self time per layer, traced operations "
              f"({in_spans:.3f} s in spans, {busy:.3f} s on the clock):")
        for layer, own in sorted(
                recorder.layer_self_seconds("bench").items(),
                key=lambda item: -item[1]):
            print(f"    {layer:<12} {own:>9.4f} s "
                  f"{100.0 * own / max(in_spans, 1e-12):6.2f} %")
        reported = {name: reported[name] for name in units}
        for name, value in reported.items():
            print(f"  {name:<34} {value:>14.4f} {units[name]}")

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if bench.tracing:
        recorder.write_chrome_trace(str(out / f"trace-{workload.name}.json"))
    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()},
    }
    detail = dict(result, workload=workload.name, seed=args.seed,
                  preset=preset, trace=args.trace, engine=adapter.ENGINE,
                  cycles=len(bench.cycles), op_samples=len(ops),
                  alt_samples=len(alts), raw_over_nominal=speed,
                  cardinalities=workload.cardinalities,
                  python=platform.python_version(),
                  platform=platform.platform(), nproc=os.cpu_count())
    (out / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


def run_set(args) -> int:
    """``--runs`` runs of every workload (or of ``--workload``), each in a
    fresh process."""
    import workloads
    runs: dict[str, list[dict]] = {}
    status = 0
    for name in [args.workload] if args.workload else workloads.WORKLOADS:
        for number in range(args.runs or 1):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed + number),
                       "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", args.out]
            if args.smoke:
                command.append("--smoke")
            start = perf_counter()
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            print(done.stdout, end="")
            print(f"  wall {perf_counter() - start:.1f} s", flush=True)
            if done.returncode:
                status = 1
                continue
            runs.setdefault(name, []).append(
                json.loads(done.stdout.splitlines()[-1]))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "set.json").write_text(json.dumps(
        {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
         "runs": runs}, indent=1))
    print(f"wrote {out / 'set.json'}")
    return status


def write_spec() -> int:
    """Render BENCHMARK.json and MANIFEST.json from the code's tables."""
    import adapter
    import metrics
    import workloads
    from spans import Recorder
    spec = metrics.benchmark_json(workloads.WORKLOADS.values())
    (ROOT / "BENCHMARK.json").write_text(json.dumps(spec, indent=2) + "\n")
    cardinalities = {}
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(adapter.Adapter(Recorder()), None,
                       workloads.SIZES["full"][name], workloads.SHAPE_SEED)
        workload.generate()
        cardinalities[name] = workload.cardinalities
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    manifest_path = HERE / "MANIFEST.json"
    manifest = json.loads(manifest_path.read_text()) \
        if manifest_path.exists() else {}
    manifest.update({
        "baseline_commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "engine": adapter.ENGINE,
        "shape_seed": workloads.SHAPE_SEED,
        "setup_repeats": SETUP_REPEATS,
        "sizes": workloads.SIZES["full"],
        "cardinalities": cardinalities,
        "per_layer_moves": {name: moves for name, _unit, _better, moves
                            in metrics.PER_LAYER},
    })
    manifest_path.write_text(json.dumps(manifest, indent=1) + "\n")
    print(f"wrote {ROOT / 'BENCHMARK.json'} and {manifest_path}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, 0.5 s of measuring per run")
    parser.add_argument("--runs", type=int, default=None,
                        help="run a set: this many runs per workload, each "
                             "in a fresh process, into <out>/set.json")
    parser.add_argument("--out", default=str(HERE / "out"))
    parser.add_argument("--write-spec", action="store_true",
                        help="render BENCHMARK.json from metrics.py")
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)
    from bench import Bench

    def imports():
        import metrics  # noqa: F401
        import workloads  # noqa: F401
    import_s = Bench(None, False).seconds(imports, hint_s=0.3)[0]
    import metrics
    import workloads
    if args.seconds is None:
        args.seconds = 0.5 if args.smoke else float(metrics.RUN_SECONDS)
    if args.write_spec:
        return write_spec()
    if args.workload not in (None, *workloads.WORKLOADS):
        parser.error(f"unknown workload {args.workload!r}; one of "
                     f"{', '.join(workloads.WORKLOADS)}")
    if args.workload is None or args.runs is not None:
        return run_set(args)
    return run_workload(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
