"""The reproduction experiments E1..E10 (see DESIGN.md section 4).

The paper has no empirical tables; each experiment here quantifies one
of its *claims* on synthetic, IC-consistent workloads.  Every experiment
returns a :class:`repro.bench.harness.Table`: ``repro experiments``
prints them and writes ``results/E*.csv``, and
``tests/test_pretty_bench.py`` runs each at its default sizes and checks
its agreement and counter columns.
"""

from __future__ import annotations

import random
import time

from ..baselines.guided import ResidueGuidedEngine
from ..baselines.rule_residues import optimize_rule_level
from ..constraints.checker import repair
from ..constraints.ic import ics_from_text
from ..core.optimizer import SemanticOptimizer
from ..core.residues import (detect_sequences, generate_residues,
                             generate_residues_exhaustive,
                             rule_level_residues)
from ..core.sequences import enumerate_sequences
from ..datalog.atoms import atom
from ..datalog.program import Program
from ..engine.engine import evaluate, evaluate_with_magic
from ..engine.topdown import topdown_query
from ..iqa import describe, parse_describe
from ..workloads.genealogy import GenealogyParams, generate_genealogy
from ..workloads.paper_examples import (example_2_1, example_3_2,
                                        example_4_1, example_4_3,
                                        example_5_1)
from ..workloads.university import UniversityParams, generate_university
from .harness import Measurement, Table, check_same_answers, measure


def _fmt(measurement: Measurement, counter: str = "atom_lookups") -> str:
    return (f"{measurement.median_seconds * 1000:7.1f}ms "
            f"{measurement.counters.get(counter, 0):>8}")


# ---------------------------------------------------------------------------
# E1 — atom elimination (Example 3.2's expert join, university workload)
# ---------------------------------------------------------------------------

def _e1_params(size: int) -> UniversityParams:
    return UniversityParams(professors=size, students=max(size // 5, 2),
                            theses=max(size // 5, 2), fields=12,
                            fields_per_thesis=6, works_with_density=0.04,
                            expert_seed_fraction=0.7,
                            supervisions=max(size // 4, 2), payments=0)


def experiment_e1(sizes: tuple[int, ...] = (20, 40, 80),
                  repeats: int = 3, seed: int = 11) -> Table:
    """Plain vs pushed (periodic) vs automaton ablation vs rule-level.

    Expected shape: the pushed program skips the redundant ``expert``
    join at every recursion level past the first, so its matched rows
    drop ~20% below plain's, growing with EDB size; the faithful
    Algorithm 4.1 automaton form pays chain-shadowing overhead and loses
    to plain (the ablation motivating the periodic compilation); the
    rule-level baseline finds no pushable residue and equals plain.
    """
    example = example_3_2()
    ic1 = example.ic("ic1")
    pushed_program = SemanticOptimizer(
        example.program, [ic1], pred="eval").optimize().optimized
    automaton_program = SemanticOptimizer(
        example.program, [ic1], pred="eval", compilation="automaton",
        collapse=False).optimize().optimized
    rule_level = optimize_rule_level(
        example.program, [ic1], pred="eval").optimized

    table = Table(
        "E1  atom elimination: eval committee (ic1: expertise propagates)",
        ["professors", "plain t/rows", "pushed t/rows",
         "automaton t/rows", "rule-level t/rows", "row savings",
         "answers equal"])
    rng = random.Random(seed)
    for size in sizes:
        db = generate_university(_e1_params(size), rng)
        plain = measure("plain", lambda: evaluate(example.program, db),
                        "eval", repeats)
        pushed = measure("pushed", lambda: evaluate(pushed_program, db),
                         "eval", repeats)
        automaton = measure("automaton",
                            lambda: evaluate(automaton_program, db),
                            "eval", repeats)
        baseline = measure("rule-level", lambda: evaluate(rule_level, db),
                           "eval", repeats)
        rows = (plain, pushed, automaton, baseline)
        saving = 1 - pushed.counters["rows_matched"] / max(
            plain.counters["rows_matched"], 1)
        table.add_row(size, _fmt(plain, "rows_matched"),
                      _fmt(pushed, "rows_matched"),
                      _fmt(automaton, "rows_matched"),
                      _fmt(baseline, "rows_matched"),
                      f"{saving:.1%}",
                      "yes" if check_same_answers(rows) else "NO")
    table.note("rule-level baseline cannot see the r1 r1 residue, so its "
               "program (and cost) equals plain")
    table.note("'automaton' is the uncollapsed Algorithm 4.1 output — "
               "the ablation justifying the periodic compilation")
    return table


# ---------------------------------------------------------------------------
# E2 — atom introduction (Example 4.2's doctoral reducer)
# ---------------------------------------------------------------------------

def experiment_e2(sizes: tuple[int, ...] = (20, 40, 80),
                  repeats: int = 3, seed: int = 13) -> Table:
    """Plain vs introduced reducer on ``eval_support``, under both the
    fixed source join order (the paper's 1995 setting) and the greedy
    indexed planner.

    Expected shape: with the source-order planner the introduced
    ``doctoral(S)`` reducer anchors the join and avoids scanning the
    large recursive ``eval`` relation, winning by a factor that grows
    with ``|eval|``; with the greedy indexed planner the engine already
    anchors optimally and the reducer's benefit vanishes — the crossover
    is planner capability, which is exactly the gap between 1995 and
    modern engines.  The unconditional variant of ic2 ("every supported
    student is doctoral") is used so no ``not E`` copy is needed.
    """
    example = example_3_2()
    ic2u = ics_from_text(
        "ic2u: pays(M, G, S, T) -> doctoral(S).")[0]
    optimized = SemanticOptimizer(
        example.program, [ic2u], pred="eval",
        small_relations={"doctoral"}).optimize().optimized

    table = Table(
        "E2  atom introduction: doctoral semijoin reducer "
        "(unconditional ic2)",
        ["professors", "plain/src r2-rows", "introduced/src r2-rows",
         "src savings", "plain/greedy r2-rows",
         "introduced/greedy r2-rows", "greedy savings", "answers equal"])
    rng = random.Random(seed)
    for size in sizes:
        params = UniversityParams(
            professors=size, students=max(size // 2, 4),
            theses=max(size // 2, 4), supervisions=size,
            payments=size // 2, doctoral_fraction=0.05,
            high_payment_fraction=0.5)
        db = generate_university(params, rng)
        repair(db, ic2u)
        runs = {}
        for planner in ("source", "greedy"):
            runs[("plain", planner)] = measure(
                f"plain/{planner}",
                lambda p=planner: evaluate(example.program, db, planner=p),
                "eval_support", repeats)
            runs[("introduced", planner)] = measure(
                f"introduced/{planner}",
                lambda p=planner: evaluate(optimized, db, planner=p),
                "eval_support", repeats)

        def r2_rows(kind: str, planner: str) -> int:
            return runs[(kind, planner)].rows_for_rules("r2")

        def saving(planner: str) -> str:
            plain_rows = r2_rows("plain", planner)
            pushed_rows = r2_rows("introduced", planner)
            return f"{1 - pushed_rows / max(plain_rows, 1):.1%}"

        table.add_row(
            size,
            r2_rows("plain", "source"),
            r2_rows("introduced", "source"),
            saving("source"),
            r2_rows("plain", "greedy"),
            r2_rows("introduced", "greedy"),
            saving("greedy"),
            "yes" if check_same_answers(runs.values()) else "NO")
    table.note("row counts attributed to the eval_support rules only; "
               "the eval fixpoint is identical across engines")
    table.note("the source planner keeps atoms in rule order; eval comes "
               "first in r2, so plain scans the large recursive relation")
    return table


# ---------------------------------------------------------------------------
# E3 — subtree pruning (Example 4.3, genealogy)
# ---------------------------------------------------------------------------

def experiment_e3(generations: tuple[int, ...] = (5, 7, 9),
                  repeats: int = 3, seed: int = 17) -> Table:
    """Plain vs pushed pruning vs residue-guided evaluation on ``anc``.

    Expected shape: all three compute identical answers (the EDB
    satisfies the IC, so pruned subtrees were empty anyway); the guided
    engine pays one residue check per candidate derivation
    (``residue_checks`` grows with output size) while the transformed
    program pays nothing at run time — the paper's Section 1 claim (ii).
    """
    example = example_4_3()
    ic1 = example.ic("ic1")
    optimized = SemanticOptimizer(
        example.program, [ic1], pred="anc").optimize().optimized
    guided = ResidueGuidedEngine(example.program, [ic1], pred="anc")

    table = Table(
        "E3  subtree pruning: genealogy (ic1: young people lack deep "
        "descendants)",
        ["generations", "plain t/lookups", "pushed t/lookups",
         "guided t/checks", "answers equal"])
    rng = random.Random(seed)
    for depth in generations:
        params = GenealogyParams(generations=depth, width=14)
        db = generate_genealogy(params, rng)
        plain = measure("plain", lambda: evaluate(example.program, db),
                        "anc", repeats)
        pushed = measure("pushed", lambda: evaluate(optimized, db),
                         "anc", repeats)
        run_guided = measure("guided", lambda: guided.evaluate(db),
                             "anc", repeats)
        table.add_row(depth, _fmt(plain), _fmt(pushed),
                      _fmt(run_guided, "residue_checks"),
                      "yes" if check_same_answers(
                          (plain, pushed, run_guided)) else "NO")
    table.note("transformed programs never check residues at run time; "
               "the guided engine checks once per candidate derivation")
    return table


# ---------------------------------------------------------------------------
# E4 — compile-time cost of residue generation
# ---------------------------------------------------------------------------

def _chain_ic_text(length: int) -> str:
    """An Example 4.3-style denial with ``length`` chained par atoms."""
    atoms = []
    child, child_age = "Z0", "Za0"
    for index in range(length):
        parent, parent_age = f"Z{index + 1}", f"Za{index + 1}"
        atoms.append(f"par({child}, {child_age}, {parent}, {parent_age})")
        child, child_age = parent, parent_age
    return f"ic: Za{length} <= 50, {', '.join(atoms)} -> ."


def experiment_e4(lengths: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
                  repeats: int = 3) -> Table:
    """Algorithm 3.1 (graph detection) vs exhaustive enumeration.

    Expected shape: both find the same residues.  Example 4.3 has one
    recursive rule, so its expansion sequences are ``r1^k`` and
    ``r1^k r0``.  For a chain of ``n`` atoms the exhaustive enumerator
    verifies all ``2 (n + 1)`` of them up to length ``n + 1``, the
    SD-graph walk only the two it detects.  Each verification is a complete-matching search over an
    unfolded clause, polynomial in the chain length, so both columns
    grow polynomially and their gap grows with the sequence count, not
    exponentially.  Exhaustive enumeration turns exponential only with
    several recursive rules (``r ** L`` sequences of length ``L``), which
    this experiment does not vary.
    """
    example = example_4_3()
    table = Table(
        "E4  compile time: Algorithm 3.1 vs exhaustive enumeration",
        ["IC chain length", "graph ms", "exhaustive ms",
         "sequences verified (graph/exh)", "residues (graph/exh)",
         "same sequences"])
    for length in lengths:
        ic = ics_from_text(_chain_ic_text(length))[0]
        graph_times, exhaustive_times = [], []
        graph_items = exhaustive_items = []
        for _ in range(repeats):
            # A fresh program for each timed call: generate_residues and
            # unfold memoise on the instance, and each call must time a
            # cold computation that shares no unfolding with the other.
            program = Program(example.program.rules)
            start = time.perf_counter()
            graph_items = generate_residues(program, "anc", ic,
                                            max_extend=0)
            graph_times.append(time.perf_counter() - start)
            program = Program(example.program.rules)
            start = time.perf_counter()
            exhaustive_items = generate_residues_exhaustive(
                program, "anc", ic, max_length=length + 1)
            exhaustive_times.append(time.perf_counter() - start)
        # Without extension windows the graph method verifies each
        # detected sequence once; the exhaustive one every enumerated.
        graph_verified = len(detect_sequences(example.program, "anc", ic))
        exhaustive_verified = sum(1 for _ in enumerate_sequences(
            example.program, "anc", length + 1))
        graph_seqs = {item.sequence for item in graph_items}
        exhaustive_seqs = {item.sequence for item in exhaustive_items}
        table.add_row(length,
                      f"{min(graph_times) * 1000:.1f}",
                      f"{min(exhaustive_times) * 1000:.1f}",
                      f"{graph_verified}/{exhaustive_verified}",
                      f"{len(graph_items)}/{len(exhaustive_items)}",
                      "yes" if graph_seqs == exhaustive_seqs else
                      f"diff {graph_seqs ^ exhaustive_seqs}")
    return table


# ---------------------------------------------------------------------------
# E5 — run-time overhead: compile once vs check every query
# ---------------------------------------------------------------------------

def experiment_e5(query_counts: tuple[int, ...] = (1, 5, 10),
                  seed: int = 23, size: int = 40) -> Table:
    """Amortization: transformation pays once, guided pays per query.

    Expected shape: for a single evaluation the one-off compile cost of
    the transformation can dominate; as the query count grows, the
    pushed program's per-query savings (the eliminated join) overtake it
    and its total crosses below plain — while the residue-guided engine
    keeps paying per-derivation checks forever.  This is Section 1's
    claim (ii) made quantitative, including where the crossover falls.
    """
    rng = random.Random(seed)
    table = Table(
        "E5  run-time overhead: compile-once vs check-per-query",
        ["workload", "queries", "plain total",
         "pushed total (incl. compile)", "guided total (incl. attach)",
         "guided checks"])

    university = example_3_2()
    genealogy = example_4_3()
    workloads = [
        ("elimination (3.2)", university, university.ic("ic1"), "eval",
         [generate_university(_e1_params(size), rng)
          for _ in range(max(query_counts))]),
        ("pruning (4.3)", genealogy, genealogy.ic("ic1"), "anc",
         [generate_genealogy(GenealogyParams(generations=7, width=14),
                             rng) for _ in range(max(query_counts))]),
    ]

    for name, example, ic, pred, databases in workloads:
        start = time.perf_counter()
        optimized = SemanticOptimizer(
            example.program, [ic], pred=pred).optimize().optimized
        compile_seconds = time.perf_counter() - start
        start = time.perf_counter()
        guided = ResidueGuidedEngine(example.program, [ic], pred=pred)
        attach_seconds = time.perf_counter() - start

        for count in query_counts:
            batch = databases[:count]
            plain_total = sum(
                evaluate(example.program, db).elapsed_seconds
                for db in batch)
            pushed_total = compile_seconds + sum(
                evaluate(optimized, db).elapsed_seconds for db in batch)
            guided_results = [guided.evaluate(db) for db in batch]
            guided_total = attach_seconds + sum(
                r.elapsed_seconds for r in guided_results)
            checks = sum(r.stats.residue_checks for r in guided_results)
            table.add_row(name, count, f"{plain_total * 1000:.1f}ms",
                          f"{pushed_total * 1000:.1f}ms",
                          f"{guided_total * 1000:.1f}ms", checks)
    table.note("each 'query' is a fresh database evaluation; the "
               "transformation is compiled exactly once per workload")
    table.note("fact ICs (elimination) have no run-time reading, so the "
               "guided engine checks nothing there; null ICs (pruning) "
               "cost one check per candidate derivation, every query")
    return table


# ---------------------------------------------------------------------------
# E6 — query independence: composing with magic sets
# ---------------------------------------------------------------------------

def experiment_e6(repeats: int = 3, seed: int = 29) -> Table:
    """The optimization helps across binding patterns, with and without
    magic sets on top.

    Expected shape: the elimination's row savings appear both for the
    unbound query (full materialization) and for the bound query
    (magic-restricted evaluation): the transformation is independent of
    the binding pattern, unlike binding-specific techniques.  Both rows'
    answers agree, the bound row's read from the adorned query predicate.
    """
    example = example_3_2()
    ic1 = example.ic("ic1")
    optimized = SemanticOptimizer(
        example.program, [ic1], pred="eval").optimize().optimized
    rng = random.Random(seed)
    db = generate_university(_e1_params(40), rng)

    bound_query = atom("eval", "p0", "S", "T")

    table = Table(
        "E6  query independence: elimination composes with magic sets",
        ["binding", "plain t/rows", "pushed t/rows", "row savings",
         "answers equal"])

    def row(binding: str, plain_run, pushed_run, query) -> None:
        plain = measure("plain", plain_run, query, repeats)
        pushed = measure("pushed", pushed_run, query, repeats)
        saving = 1 - pushed.counters["rows_matched"] / max(
            plain.counters["rows_matched"], 1)
        table.add_row(binding, _fmt(plain, "rows_matched"),
                      _fmt(pushed, "rows_matched"), f"{saving:.1%}",
                      "yes" if check_same_answers((plain, pushed))
                      else "NO")

    row("free (full fixpoint)",
        lambda: evaluate(example.program, db),
        lambda: evaluate(optimized, db), "eval")
    row("bound (magic sets)",
        lambda: evaluate_with_magic(example.program, db, bound_query),
        lambda: evaluate_with_magic(optimized, db, bound_query),
        bound_query)
    return table


# ---------------------------------------------------------------------------
# E7 — sequence-level vs rule-level residues
# ---------------------------------------------------------------------------

def experiment_e7() -> Table:
    """How many pushable residues each method finds, per paper example.

    Expected shape: the rule-level reading [3] misses every residue that
    needs more than one rule application (Examples 2.1, 3.2, 4.1, 4.3),
    which is the paper's core argument for sequence-level residues.
    """
    table = Table(
        "E7  sequence-level vs rule-level residue discovery",
        ["example", "ic", "sequence-level", "rule-level",
         "sequence-only"])
    cases = [(example_2_1(), "ic"), (example_3_2(), "ic1"),
             (example_4_1(), "ic1"), (example_4_3(), "ic1")]
    for example, label in cases:
        ic = example.ic(label)
        optimizer = SemanticOptimizer(example.program, [ic],
                                      pred=example.pred)
        sequence_items = [
            item for item in optimizer.residues(ic)
            if len(item.sequence) > 1]
        rule_items = rule_level_residues(example.program, ic)
        table.add_row(example.name, label, len(sequence_items),
                      len(rule_items),
                      len({item.sequence for item in sequence_items}))
    table.note("rule-level counts include residues that the chase guard "
               "later rejects (e.g. Example 4.1's loose length-1 residue)")
    return table


# ---------------------------------------------------------------------------
# E8 — intelligent query answering (Example 5.1)
# ---------------------------------------------------------------------------

def experiment_e8(repeats: int = 5) -> Table:
    """Reproduce Example 5.1's intelligent answer and time the pipeline.

    Expected shape: the context's relevant part is ``graduated`` +
    ``topten``; the ``r3`` proof tree is totally subsumed, so the
    residue is the empty conjunction — "every object satisfying the
    context is an honors student".
    """
    example = example_5_1()
    query = parse_describe(
        "describe honors(Stud) where major(Stud, cs), "
        "graduated(Stud, College), topten(College), hobby(Stud, chess)")
    times = []
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = describe(example.program, query)
        times.append(time.perf_counter() - start)
    assert result is not None
    table = Table(
        "E8  intelligent query answering (Example 5.1)",
        ["proof tree", "subsumed by context", "residue"])
    for description in result.descriptions:
        residue = ", ".join(str(lit) for lit in description.residue) \
            or "true (empty conjunction)"
        table.add_row(" ".join(description.tree.labels),
                      "yes" if description.subsumed else "no", residue)
    table.note(f"irrelevant context dropped: "
               f"{', '.join(str(l) for l in result.irrelevant)}")
    table.note(f"context suffices: {result.context_suffices}; "
               f"median describe() time {min(times) * 1000:.2f}ms")
    return table


# ---------------------------------------------------------------------------
# E9 — pruning under top-down evaluation
# ---------------------------------------------------------------------------

def experiment_e9(generations: tuple[int, ...] = (6, 8),
                  queries_per_db: int = 6, seed: int = 31) -> Table:
    """Bound queries under tabled top-down evaluation, plain vs pruned.

    Bottom-up materialization cannot profit from pruning on consistent
    data (E3); *top-down* evaluation can: a pushed guard stops expanding
    a doomed subtree before its subgoals are called.  For
    ``anc(X, Xa, y, ya)`` queries with a *young* ancestor ``y``, the
    pruned program's guard refutes the deep recursion immediately, while
    the plain program computes the ancestor closure.

    Expected shape: large savings for young-ancestor queries (the guard
    cuts the recursion), modest effect for old-ancestor queries; answers
    always identical.
    """
    example = example_4_3()
    ic1 = example.ic("ic1")
    optimized = SemanticOptimizer(
        example.program, [ic1], pred="anc").optimize().optimized
    table = Table(
        "E9  pruning under top-down evaluation (bound young/old queries)",
        ["generations", "ancestor age", "plain rows", "pruned rows",
         "row savings", "answers equal"])
    rng = random.Random(seed)
    for depth in generations:
        db = generate_genealogy(
            GenealogyParams(generations=depth, width=12,
                            young_fraction=0.7), rng)
        people = sorted({(y, ya) for (_, _, y, ya) in db.facts("par")})
        young = [p for p in people if p[1] <= 50][:queries_per_db]
        old = [p for p in people if p[1] > 50][:queries_per_db]
        for label, group in (("<= 50", young), ("> 50", old)):
            plain_rows = pruned_rows = 0
            equal = True
            for person, age in group:
                goal = atom("anc", "X", "Xa", person, age)
                plain = topdown_query(example.program, db, goal)
                pruned = topdown_query(optimized, db, goal)
                plain_rows += plain.stats.rows_matched
                pruned_rows += pruned.stats.rows_matched
                if plain.project(goal) != pruned.project(goal):
                    equal = False
            saving = 1 - pruned_rows / max(plain_rows, 1)
            table.add_row(depth, label, plain_rows, pruned_rows,
                          f"{saving:.1%}", "yes" if equal else "NO")
    table.note("each row aggregates the bound queries anc(X, Xa, y, ya) "
               "over several ancestors y of the stated age group")
    return table


# ---------------------------------------------------------------------------
# E10 — ablation of the design choices
# ---------------------------------------------------------------------------

def experiment_e10(size: int = 40, repeats: int = 2,
                   seed: int = 37) -> Table:
    """Ablation on the E1 workload: each optimizer configuration's
    compile time and evaluation work.

    Expected shape: the default (periodic compilation + chase guard) is
    the only configuration that both beats plain and is guard-verified;
    dropping the guard saves compile time but gives up the soundness
    net; the automaton forms lose at run time; minimization alone finds
    nothing (the redundancy lives across rule instances).
    """
    from ..core.minimize import minimize_program

    example = example_3_2()
    ic1 = example.ic("ic1")
    rng = random.Random(seed)
    db = generate_university(_e1_params(size), rng)
    plain_eval = measure("plain", lambda: evaluate(example.program, db),
                         "eval", repeats)

    def compiled(factory):
        # A fresh program per configuration: residues are memoised on
        # the Program instance, and each compile must pay for its own.
        source = Program(example.program.rules)
        start = time.perf_counter()
        program = factory(source)
        return program, (time.perf_counter() - start) * 1000

    configurations = [
        ("periodic + chase guard (default)", lambda p: SemanticOptimizer(
            p, [ic1], pred="eval").optimize().optimized),
        ("periodic, guard=none", lambda p: SemanticOptimizer(
            p, [ic1], pred="eval", guard="none").optimize().optimized),
        ("automaton + collapse", lambda p: SemanticOptimizer(
            p, [ic1], pred="eval",
            compilation="automaton").optimize().optimized),
        ("automaton raw", lambda p: SemanticOptimizer(
            p, [ic1], pred="eval",
            compilation="automaton", collapse=False).optimize().optimized),
        ("rule-level baseline", lambda p: optimize_rule_level(
            p, [ic1], pred="eval").optimized),
        ("minimization only", lambda p: minimize_program(
            p, [ic1]).minimized),
    ]

    table = Table(
        f"E10  ablation of design choices ({size} professors)",
        ["configuration", "compile ms", "eval t/rows", "rows vs plain",
         "answers equal"])
    table.add_row("plain (no optimization)", "-",
                  _fmt(plain_eval, "rows_matched"), "100.0%", "yes")
    for name, factory in configurations:
        program, compile_ms = compiled(factory)
        run = measure(name, lambda p=program: evaluate(p, db), "eval",
                      repeats)
        ratio = run.counters["rows_matched"] / max(
            plain_eval.counters["rows_matched"], 1)
        table.add_row(name, f"{compile_ms:.1f}",
                      _fmt(run, "rows_matched"), f"{ratio:.1%}",
                      "yes" if check_same_answers((plain_eval, run))
                      else "NO")
    return table


ALL_EXPERIMENTS = {
    "E1": experiment_e1,
    "E2": experiment_e2,
    "E3": experiment_e3,
    "E4": experiment_e4,
    "E5": experiment_e5,
    "E6": experiment_e6,
    "E7": experiment_e7,
    "E8": experiment_e8,
    "E9": experiment_e9,
    "E10": experiment_e10,
}
