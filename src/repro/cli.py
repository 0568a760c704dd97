"""Command-line interface: ``python -m repro <command> ...``.

Commands:

- ``evaluate PROGRAM DB [--query Q]`` — run a program over a database.
- ``explain PROGRAM [DB]`` — show the join plans (or compiled kernels)
  every rule would run with; ``--stats`` adds selectivity estimates and
  per-relation statistics.
- ``optimize PROGRAM --ics ICS`` — print the optimization report and the
  transformed program.
- ``residues PROGRAM --ics ICS`` — print the residues of Algorithm 3.1.
- ``describe PROGRAM "describe ... where ..."`` — intelligent answering.
- ``lint PROGRAM [--ics F] [--query Q]`` — static analysis: check the
  paper's assumptions and the engine preconditions, with stable codes
  and source spans; ``--bundled`` lints every shipped workload.
- ``serve PROGRAM DB --query Q [--update F ...]`` — materialize the
  program once, answer the query, then apply each changeset file and
  re-answer from the incrementally maintained view; ``--concurrent``
  adds a writer thread, reader threads and writer clients to the same
  session (``--readers``/``--writers``); the budget flags bound the
  view's materialization.
- ``bench-serving`` — concurrent serving under load and chaos faults;
  writes ``BENCH_serving.json`` (p50/p99 latency, QPS, stale-read
  ratio, error rate).
- ``update DB CHANGESET [...]`` — apply changeset files (``+fact.`` /
  ``-fact.`` statements) to a database and print/write the result.
- ``experiments [IDS ...]`` — run the reproduction experiments.
- ``shell`` — interactive Datalog shell (rules, facts, ICs, queries).
- ``examples [NAME]`` — list or show the paper's worked examples.

Programs, databases and ICs are read from files in the library's
Prolog-like syntax (``-`` reads stdin).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .baselines import optimize_rule_level
from .bench.experiments import ALL_EXPERIMENTS
from .constraints import ics_from_text
from .core import SemanticOptimizer
from .datalog import format_program, parse_program
from .errors import (BudgetExceededError, EvaluationError, ParseError,
                     ReproError)
from .engine import evaluate
from .facts import Database
from .iqa import describe as iqa_describe
from .iqa import parse_describe
from .runtime import Budget
from .workloads import ALL_EXAMPLES, load

#: Distinct exit codes for scripting (`repro ... || handle $?`); each
#: failure prints a diagnostic (with a caret-annotated source excerpt
#: for parse errors) to stderr, never a traceback.
EXIT_ERROR = 2          # generic library failure / missing file
EXIT_PARSE = 3          # ParseError: malformed program/IC/database text
EXIT_BUDGET = 4         # BudgetExceededError: deadline or limit hit
EXIT_LINT = 5           # lint found error-severity diagnostics


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_program(args: argparse.Namespace):
    """Parse a program and enforce the evaluation preconditions.

    The checks are the error-severity analysis passes (the same ones
    ``repro lint`` runs), so a program the CLI rejects here is exactly a
    program ``lint`` reports errors for — with the same messages.
    """
    from .analysis import PRECONDITION_PASSES, analyze_program

    source = _read(args.program)
    program = parse_program(source)
    report = analyze_program(program, source=source,
                             names=PRECONDITION_PASSES)
    if report.has_errors:
        details = "; ".join(
            f"{d.code}[{d.rule_label or d.subject or '-'}]: {d.message}"
            for d in report.errors)
        raise ReproError(f"invalid program: {details}")
    return program


def _load_ics(args: argparse.Namespace):
    return ics_from_text(_read(args.ics))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _budget_from_args(args: argparse.Namespace) -> Budget | None:
    """A :class:`Budget` from ``--timeout-s``/``--max-*`` flags, if any."""
    limits = (getattr(args, "timeout_s", None),
              getattr(args, "max_derivations", None),
              getattr(args, "max_facts", None))
    if all(value is None for value in limits):
        return None
    return Budget(timeout_s=limits[0], max_derivations=limits[1],
                  max_facts=limits[2])


def _add_budget_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--timeout-s", type=float, metavar="S",
                        help="wall-clock deadline in seconds")
    parser.add_argument("--max-derivations", type=int, metavar="N",
                        help="abort after N derivation events")
    parser.add_argument("--max-facts", type=int, metavar="N",
                        help="abort after N materialized facts")


def _evaluate_cbo(args: argparse.Namespace, program, db: Database) -> int:
    """``evaluate --planner cbo --query Q``: enumerate the rewrite space
    (magic per adornment, residue pushing, linearization), run
    the cheapest candidate, and answer the query from whatever shape the
    chosen plan materialized.  ``--stats`` appends the candidate table.
    """
    from .datalog.atoms import Atom
    from .datalog.parser import parse_query
    from .engine.engine import select_answers
    from .engine.optimizer import cbo_evaluate
    from .engine.seminaive import answers as solve_literals

    literals = parse_query(args.query).literals
    idb_preds = program.idb_predicates
    idb_atoms = [lit for lit in literals
                 if isinstance(lit, Atom) and lit.pred in idb_preds]
    # Magic specializes exactly one IDB predicate; a query touching
    # several keeps the identity/linearize space only.
    seed = idb_atoms[0] if len(idb_atoms) == 1 else None
    result = cbo_evaluate(program, db, query=seed,
                          budget=_budget_from_args(args),
                          executor=args.executor,
                          interning=args.interning)
    if result.magic is not None:
        assert seed is not None
        overlay = Database()
        overlay.ensure(seed.pred, seed.arity).add_all(select_answers(
            result.idb, seed, pred=result.magic.query_pred))
        out_rows = solve_literals(literals, program, db, overlay,
                                  result.stats)
    else:
        out_rows = result.query(literals)
    _print_query_rows(out_rows)
    if args.stats:
        assert result.choice is not None
        print(result.choice.describe(), file=sys.stderr)
        for key, value in result.stats.as_dict().items():
            print(f"# {key}: {value}", file=sys.stderr)
        print(f"# elapsed: {result.elapsed_seconds * 1000:.2f}ms",
              file=sys.stderr)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cbo_query = args.planner == "cbo"
    if cbo_query and not args.query:
        raise EvaluationError(
            "--planner cbo chooses a rewrite for a query; pass --query "
            "(whole-program evaluation takes greedy, adaptive or source)")
    if cbo_query and args.method != "seminaive":
        raise EvaluationError(
            "--planner cbo --query runs the plan the optimizer chose, "
            f"semi-naively; it cannot honour --method {args.method}")
    program = _load_program(args)
    db = Database.from_text(_read(args.database))
    if cbo_query:
        return _evaluate_cbo(args, program, db)
    result = evaluate(program, db, method=args.method,
                      planner=args.planner,
                      budget=_budget_from_args(args),
                      executor=args.executor,
                      interning=args.interning)
    if args.query:
        for row in sorted(result.query(args.query), key=str):
            print("\t".join(str(v) for v in row))
    else:
        for pred in sorted(program.idb_predicates):
            for row in sorted(result.facts(pred), key=str):
                args_text = ", ".join(repr(v) if isinstance(v, str)
                                      and not v.isidentifier() else str(v)
                                      for v in row)
                print(f"{pred}({args_text}).")
    if args.stats:
        for key, value in result.stats.as_dict().items():
            print(f"# {key}: {value}", file=sys.stderr)
        print(f"# elapsed: {result.elapsed_seconds * 1000:.2f}ms",
              file=sys.stderr)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .engine import explain_kernels, explain_plan

    program = _load_program(args)
    db = Database.from_text(_read(args.database)) if args.database \
        else Database()
    if args.dataflow:
        # Analyze in the value domain, before any interning re-encode.
        from .analysis.dataflow import analyze_dataflow
        from .datalog.atoms import Atom
        from .datalog.parser import parse_query

        query = None
        if args.query:
            query = next((lit for lit
                          in parse_query(args.query).literals
                          if isinstance(lit, Atom)), None)
        print(analyze_dataflow(program,
                               edb=db if args.database else None,
                               query=query).render())
        print()
    if args.interning == "on":
        db = db.interned()
    if args.kernels:
        print(explain_kernels(program, db, planner=args.planner,
                              show_stats=args.stats))
    else:
        print(explain_plan(program, db, planner=args.planner,
                           show_stats=args.stats))
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    program = _load_program(args)
    ics = _load_ics(args)
    if args.rule_level:
        report = optimize_rule_level(
            program, ics, pred=args.pred,
            small_relations=set(args.small or ()))
    else:
        report = SemanticOptimizer(
            program, ics, pred=args.pred, compilation=args.compilation,
            small_relations=set(args.small or ())).optimize(
                budget=_budget_from_args(args), verify=args.verify)
    print(report.summary())
    print()
    print(format_program(report.optimized, group_by_head=True))
    return 0 if report.changed or args.allow_unchanged else 1


def cmd_residues(args: argparse.Namespace) -> int:
    program = _load_program(args)
    ics = _load_ics(args)
    optimizer = SemanticOptimizer(program, ics, pred=args.pred)
    for ic in ics:
        print(f"{ic}")
        items = optimizer.residues(ic)
        for item in items:
            print(f"  {item}")
        if not items:
            print("  (no residues)")
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    program = _load_program(args)
    query = parse_describe(args.query)
    result = iqa_describe(program, query)
    print(result.summary())
    return 0


def _lint_bundled(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .analysis import bundled_reports

    examples_dir = args.examples_dir
    if examples_dir is None:
        candidate = pathlib.Path(__file__).resolve().parents[2] / "examples"
        examples_dir = candidate if candidate.is_dir() else None
    failed = False
    lines: list[str] = []
    payload: list[dict] = []
    pairs: list[tuple] = []
    for target, report in bundled_reports(examples_dir=examples_dir):
        failed = failed or report.has_errors
        pairs.append((target.name, report))
        if args.format == "json":
            payload.append({"target": target.name, **report.to_dict()})
        else:
            lines.append(f"{target.name}: {report.summary()}")
            lines.extend("  " + e.render() for e in report.errors)
    if args.format == "sarif":
        from .analysis import render_sarif

        text = render_sarif(pairs)
    elif args.format == "json":
        text = json.dumps({"targets": payload,
                           "ok": not failed}, indent=2)
    else:
        verdict = "FAIL: bundled programs have lint errors" if failed \
            else "ok: no bundled program has lint errors"
        text = "\n".join([*lines, verdict])
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_LINT if failed else 0


def cmd_lint(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .analysis import REGISTRY, lint_source

    if args.passes is not None:
        if not args.passes:
            raise ReproError(
                "--passes needs at least one pass name; available: "
                + ", ".join(sorted(REGISTRY)))
        for name in args.passes:
            if name not in REGISTRY:
                import difflib

                close = difflib.get_close_matches(
                    name, list(REGISTRY), n=1)
                hint = f" (did you mean {close[0]!r}?)" if close else ""
                raise ReproError(
                    f"unknown analysis pass {name!r}{hint}")
    if args.bundled:
        return _lint_bundled(args)
    if not args.program:
        raise ReproError("lint needs a PROGRAM file (or --bundled)")
    report = lint_source(_read(args.program),
                         ic_text=_read(args.ics) if args.ics else None,
                         query_text=args.query,
                         names=args.passes)
    if args.format == "sarif":
        from .analysis import render_sarif

        source_name = "<stdin>" if args.program == "-" else args.program
        text = render_sarif([(source_name, report)])
    elif args.format == "json":
        text = json.dumps(report.to_dict(), indent=2)
    else:
        text = report.render()
    if args.out:
        pathlib.Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return EXIT_LINT if report.has_errors else 0


def cmd_experiments(args: argparse.Namespace) -> int:
    wanted = [name.upper() for name in (args.ids or ALL_EXPERIMENTS)]
    unknown = [name for name in wanted if name not in ALL_EXPERIMENTS]
    if unknown:
        raise ReproError(
            f"unknown experiments {unknown}; choose from "
            f"{sorted(ALL_EXPERIMENTS)}")
    for name in wanted:
        table = ALL_EXPERIMENTS[name]()
        table.show()
        if args.csv_dir:
            import pathlib

            directory = pathlib.Path(args.csv_dir)
            directory.mkdir(parents=True, exist_ok=True)
            table.to_csv(directory / f"{name}.csv")
    return 0


def _print_query_rows(rows) -> None:
    for row in sorted(rows, key=str):
        print("\t".join(str(v) for v in row))


def _serve_clients(args: argparse.Namespace, server, program,
                   changesets: list) -> None:
    """``serve --concurrent``: start the writer thread, then run
    ``--readers`` reader threads answering the query from any last-good
    snapshot while ``--writers`` client threads submit ``changesets``
    to the server's write queue.  Returns once every accepted write is
    applied, so the answer read next is what the serial session ends
    with.
    """
    import threading

    from .errors import ServingUnavailable
    from .serving import StalenessBound

    stop = threading.Event()
    counters = {"reads": 0, "stale": 0, "rejected": 0}
    lock = threading.Lock()

    def reader_loop() -> None:
        while not stop.is_set():
            try:
                result = server.read(program, args.query,
                                     planner=args.planner,
                                     executor=args.executor,
                                     deadline_s=1.0,
                                     staleness=StalenessBound())
            except ServingUnavailable:
                with lock:
                    counters["rejected"] += 1
                continue
            with lock:
                counters["reads"] += 1
                if result.stale:
                    counters["stale"] += 1

    def writer_loop(batch: list) -> None:
        for changeset in batch:
            try:
                server.update(changeset, timeout_s=1.0)
            except ServingUnavailable:
                with lock:
                    counters["rejected"] += 1

    server.start()
    writers = max(1, args.writers)
    batches: list[list] = [[] for _ in range(writers)]
    for index, changeset in enumerate(changesets):
        batches[index % writers].append(changeset)
    threads = [threading.Thread(target=reader_loop, daemon=True)
               for _ in range(args.readers)]
    threads += [threading.Thread(target=writer_loop, args=(batch,),
                                 daemon=True)
                for batch in batches if batch]
    for thread in threads:
        thread.start()
    for thread in threads[args.readers:]:
        thread.join()
    server.flush()
    stop.set()
    for thread in threads[:args.readers]:
        thread.join(timeout=5.0)
    print(f"# {args.readers} readers / {writers} writers, "
          f"{counters['reads']} background reads ({counters['stale']} "
          f"stale, {counters['rejected']} rejected), "
          f"health {server.health}", file=sys.stderr)


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: one :class:`~repro.serving.ThreadedServer` session.

    The view is materialized under the budget flags, the query is
    answered from a current snapshot, and each ``--update`` file is
    applied by the server's writer before the query is answered again.
    ``--concurrent`` only adds threads: a background writer, reader
    threads and writer clients submitting every update file, after
    which the final answer is printed.
    """
    from .facts.changelog import Changeset
    from .serving import StalenessBound, ThreadedServer

    program = _load_program(args)
    db = Database.from_text(_read(args.database))
    if args.interning == "on":
        db = db.interned()
    updates = [(path, Changeset.from_text(_read(path)))
               for path in args.update or ()]
    server = ThreadedServer(db=db, staleness=StalenessBound(max_lag=0),
                            max_readers=args.readers + 1)
    view = server.view(program, planner=args.planner,
                       executor=args.executor)
    view.refresh(_budget_from_args(args))

    def answer(change: str) -> None:
        result = server.read(program, args.query, planner=args.planner,
                             executor=args.executor)
        _print_query_rows(result.rows)
        print(f"# v{result.version}: {change}{view.last_mode} "
              f"({(view.last_refresh_s or 0) * 1000:.2f}ms, "
              f"{view.snapshot.idb.total_facts()} IDB facts)",
              file=sys.stderr)

    try:
        if args.concurrent:
            _serve_clients(args, server, program,
                           [changeset for _, changeset in updates])
            updates = []
        answer("")
        for path, changeset in updates:
            server.update(changeset)
            print(f"-- {path}")
            answer(f"+{changeset.total_inserts()}"
                   f"/-{changeset.total_deletes()} -> ")
    finally:
        server.stop()
    if args.describe:
        import json

        print(json.dumps(server.describe(), indent=2), file=sys.stderr)
    dropped = server.dropped_changesets
    if dropped:
        raise ReproError(f"{dropped} changeset(s) could not apply and "
                         f"were dropped: {server.last_error}")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    from .facts.changelog import Changeset, VersionedDatabase

    db = Database.from_text(_read(args.database))
    versioned = VersionedDatabase(db)
    for path in args.changesets:
        versioned.apply(Changeset.from_text(_read(path)))
    effective = versioned.changes_since(0)
    text = versioned.db.to_text()
    if text and not text.endswith("\n"):
        text += "\n"
    if args.out:
        import pathlib

        pathlib.Path(args.out).write_text(text, encoding="utf-8")
    else:
        print(text, end="")
    print(f"# v{versioned.version}: +{effective.total_inserts()} "
          f"-{effective.total_deletes()} effective, "
          f"{versioned.db.total_facts()} facts", file=sys.stderr)
    return 0


def cmd_bench_serving(args: argparse.Namespace) -> int:
    from .bench.serving_bench import (regression_failures,
                                      run_serving_benchmark,
                                      write_serving_benchmark)

    report = run_serving_benchmark(duration_s=args.duration_s,
                                   readers=args.readers,
                                   seed=args.seed,
                                   chaos=not args.no_chaos)
    write_serving_benchmark(report, args.out)
    print(f"wrote {args.out} (duration={args.duration_s}s, "
          f"readers={args.readers}, seed={args.seed})")
    for mode in report["modes"]:
        agree = "ok" if mode["fingerprints_agree"] else "MISMATCH"
        print(f"  {mode['mode']:8} qps={mode['qps']:.0f}  "
              f"p50={mode['latency_p50_ms']:.2f}ms  "
              f"p99={mode['latency_p99_ms']:.2f}ms  "
              f"stale={mode['stale_read_ratio']:.1%}  "
              f"errors={mode['error_rate']:.1%}  "
              f"health={mode['final_health']}  fingerprints: {agree}")
    if args.check:
        failures = regression_failures(report)
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("regression gate: ok")
    return 0


def cmd_examples(args: argparse.Namespace) -> int:
    if args.name:
        example = load(args.name)
        print(f"# {example.name}: {example.notes}")
        print(format_program(example.program))
        for ic in example.ics:
            print(ic)
        return 0
    for factory in ALL_EXAMPLES:
        example = factory()
        print(f"{example.name:14} pred={example.pred:8} {example.notes}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semantic optimization of recursive queries "
                    "(Lakshmanan & Missaoui, ICDE 1995)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("evaluate", help="evaluate a program")
    p_eval.add_argument("program")
    p_eval.add_argument("database")
    p_eval.add_argument("--query", help="conjunctive query to answer")
    p_eval.add_argument("--method", default="seminaive",
                        choices=["seminaive", "naive"])
    p_eval.add_argument("--planner", default="greedy",
                        choices=["greedy", "adaptive", "source", "cbo"],
                        help="join order: boundness+size (greedy), "
                             "statistics-driven, planned once per rule "
                             "(adaptive), rule order (source); or cbo, "
                             "which needs --query: enumerate magic/"
                             "residue/linearization rewrites "
                             "and run the cheapest with adaptive")
    p_eval.add_argument("--executor", default="compiled",
                        choices=["compiled", "interpreted"],
                        help="compiled kernels (default: a generated "
                             "whole-frontier function per rule body) "
                             "or the reference interpreter")
    p_eval.add_argument("--interning", default="off",
                        choices=["on", "off"],
                        help="intern constants to dense ints and join "
                             "over codes (on) or evaluate values as-is "
                             "(off, default)")
    p_eval.add_argument("--stats", action="store_true",
                        help="print counters to stderr")
    _add_budget_flags(p_eval)
    p_eval.set_defaults(func=cmd_evaluate)

    p_explain = sub.add_parser(
        "explain", help="show join plans / compiled kernels")
    p_explain.add_argument("program")
    p_explain.add_argument("database", nargs="?",
                           help="facts file (optional; sizes read 0 "
                                "without it)")
    p_explain.add_argument("--planner", default="greedy",
                           choices=["greedy", "adaptive", "source"])
    p_explain.add_argument("--kernels", action="store_true",
                           help="show the compiled step programs "
                                "instead of the planner view")
    p_explain.add_argument("--interning", default="off",
                           choices=["on", "off"],
                           help="explain against interned storage")
    p_explain.add_argument("--stats", action="store_true",
                           help="include selectivity estimates' source "
                                "statistics (cardinality, distinct "
                                "counts) per relation")
    p_explain.add_argument("--dataflow", action="store_true",
                           help="run the static dataflow analysis and "
                                "print the inferred column domains, "
                                "binding-pattern adornments and size "
                                "bounds per predicate, ahead of the "
                                "plans")
    p_explain.add_argument("--query", metavar="Q",
                           help="with --dataflow, query atom seeding "
                                "the binding-pattern analysis")
    p_explain.set_defaults(func=cmd_explain)

    p_opt = sub.add_parser("optimize", help="push IC residues")
    p_opt.add_argument("program")
    p_opt.add_argument("--ics", required=True)
    p_opt.add_argument("--pred", help="recursive predicate (inferred "
                                      "when unique)")
    p_opt.add_argument("--compilation", default="periodic",
                       choices=["periodic", "automaton"])
    p_opt.add_argument("--small", nargs="*",
                       help="relations worth introducing as reducers")
    p_opt.add_argument("--rule-level", action="store_true",
                       help="use the rule-level baseline instead")
    p_opt.add_argument("--allow-unchanged", action="store_true",
                       help="exit 0 even when nothing was pushed")
    p_opt.add_argument("--verify", default="none",
                       choices=["none", "sample"],
                       help="spot-check optimized vs. source answers on "
                            "sampled databases; quarantine on mismatch")
    _add_budget_flags(p_opt)
    p_opt.set_defaults(func=cmd_optimize)

    p_res = sub.add_parser("residues", help="show Algorithm 3.1 residues")
    p_res.add_argument("program")
    p_res.add_argument("--ics", required=True)
    p_res.add_argument("--pred")
    p_res.set_defaults(func=cmd_residues)

    p_desc = sub.add_parser("describe", help="intelligent query answering")
    p_desc.add_argument("program")
    p_desc.add_argument("query",
                        help='e.g. "describe honors(S) where ..."')
    p_desc.set_defaults(func=cmd_describe)

    p_lint = sub.add_parser(
        "lint", help="static analysis with stable diagnostic codes")
    p_lint.add_argument("program", nargs="?",
                        help="program file (may mix rules, ICs and a "
                             "query; - reads stdin)")
    p_lint.add_argument("--ics", help="integrity constraints file")
    p_lint.add_argument("--query",
                        help="query atom enabling the reachability and "
                             "residue-usefulness passes")
    p_lint.add_argument("--format", default="text",
                        choices=["text", "json", "sarif"],
                        help="plain text (default), the report's JSON "
                             "dict, or SARIF 2.1.0 for code-scanning "
                             "upload")
    p_lint.add_argument("--out",
                        help="write the report to this file instead of "
                             "stdout")
    p_lint.add_argument("--passes", nargs="*", metavar="PASS",
                        help="run only the named passes")
    p_lint.add_argument("--bundled", action="store_true",
                        help="lint every bundled workload and examples/ "
                             "program instead of a file")
    p_lint.add_argument("--examples-dir",
                        help="with --bundled, where to find the "
                             "examples/ scripts (default: auto-detect)")
    p_lint.set_defaults(func=cmd_lint)

    p_serve = sub.add_parser(
        "serve",
        help="answer a query from an incrementally maintained view")
    p_serve.add_argument("program")
    p_serve.add_argument("database")
    p_serve.add_argument("--query", required=True,
                         help="conjunctive query to answer")
    p_serve.add_argument("--update", action="append", metavar="FILE",
                         help="changeset file (+fact. / -fact. "
                              "statements) to apply; repeatable, the "
                              "query is re-answered after each")
    p_serve.add_argument("--planner", default="greedy",
                         choices=["greedy", "adaptive", "source"])
    p_serve.add_argument("--executor", default="compiled",
                         choices=["compiled", "interpreted"])
    p_serve.add_argument("--interning", default="off",
                         choices=["on", "off"])
    p_serve.add_argument("--describe", action="store_true",
                         help="print the server state as JSON to stderr")
    p_serve.add_argument("--concurrent", action="store_true",
                         help="add threads to the session: reader "
                              "threads answer from MVCC snapshots while "
                              "writer clients stream the --update files "
                              "through a background writer; prints the "
                              "final answer only")
    p_serve.add_argument("--readers", type=int, default=4, metavar="N",
                         help="with --concurrent, background reader "
                              "threads (default 4)")
    p_serve.add_argument("--writers", type=int, default=1, metavar="N",
                         help="with --concurrent, writer client threads "
                              "the --update files are spread over "
                              "(default 1)")
    _add_budget_flags(p_serve)
    p_serve.set_defaults(func=cmd_serve)

    p_update = sub.add_parser(
        "update", help="apply changeset files to a database")
    p_update.add_argument("database")
    p_update.add_argument("changesets", nargs="+", metavar="CHANGESET",
                          help="changeset files, applied in order")
    p_update.add_argument("--out",
                          help="write the updated database here "
                               "(default: stdout)")
    p_update.set_defaults(func=cmd_update)

    p_bsrv = sub.add_parser(
        "bench-serving",
        help="concurrent serving under load (and chaos): "
             "BENCH_serving.json")
    p_bsrv.add_argument("--out", default="BENCH_serving.json",
                        help="report path (default BENCH_serving.json)")
    p_bsrv.add_argument("--duration-s", type=float, default=2.0,
                        help="measured run length per mode "
                             "(default 2.0)")
    p_bsrv.add_argument("--readers", type=int, default=4,
                        help="concurrent reader threads (default 4)")
    p_bsrv.add_argument("--seed", type=int, default=7,
                        help="RNG seed for the EDB and update stream")
    p_bsrv.add_argument("--no-chaos", action="store_true",
                        help="skip the fault-injected mode")
    p_bsrv.add_argument("--check", action="store_true",
                        help="exit 1 when reads stall, any unexpected "
                             "error escapes, or fingerprints disagree")
    p_bsrv.set_defaults(func=cmd_bench_serving)

    p_exp = sub.add_parser("experiments",
                           help="run the reproduction experiments")
    p_exp.add_argument("ids", nargs="*",
                       help="E1..E10 (default: all)")
    p_exp.add_argument("--csv-dir",
                       help="also write each table as CSV here")
    p_exp.set_defaults(func=cmd_experiments)

    p_shell = sub.add_parser("shell", help="interactive Datalog shell")
    p_shell.set_defaults(func=lambda args: __import__(
        "repro.shell", fromlist=["interactive"]).interactive())

    p_ex = sub.add_parser("examples", help="the paper's worked examples")
    p_ex.add_argument("name", nargs="?",
                      help="e.g. example_4_3 (default: list)")
    p_ex.set_defaults(func=cmd_examples)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as error:
        print(f"parse error: {error}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as error:
        detail = ""
        if error.last_round is not None:
            detail = f" (completed {error.last_round} rounds"
            if error.stats is not None:
                detail += f", {error.stats.derivations} facts"
            detail += ")"
        print(f"budget exceeded: {error}{detail}", file=sys.stderr)
        return EXIT_BUDGET
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
