"""The one module of the benchmark that imports ``repro``.

Every layer is driven from outside, through its public functions, and
every call sits inside a span named ``layer.step`` (the layer is the
module under ``src/repro/``).  A later refactor of the engine's entry
points — an ``EvalConfig`` object, a removed executor, a renamed
function — is a change to this file and to nothing else of the benchmark.

The untraced and the traced pass run exactly this code; the recorder is
merely switched off in the first.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from repro import (Budget, Database, ReproError,  # noqa: E402
                   ResidueGuidedEngine, SemanticOptimizer, evaluate,
                   format_program, generate_residues, ics_from_text, lint_program,
                   magic_rewrite, parse_atom, parse_program,
                   validate_program, violations)
from repro.analysis.dataflow import analyze_dataflow  # noqa: E402
from repro.core.equivalence import (infer_numeric_columns,  # noqa: E402
                                    random_consistent_databases)
from repro.engine import (EvalProfile, EvalStats, KernelCache,  # noqa: E402
                          cbo_answers, cbo_evaluate, choose_plan, compile_rule,
                          seminaive_evaluate)
from repro.facts.changelog import Changeset, VersionedDatabase  # noqa: E402
from repro.incremental.maintain import maintain  # noqa: E402
from repro.serving import StalenessBound, ThreadedServer  # noqa: E402
from repro.workloads.genealogy import (GenealogyParams,  # noqa: E402
                                       generate_genealogy)
from repro.workloads.generators import (random_digraph,  # noqa: E402
                                        random_linear_program)
from repro.workloads.organization import (OrganizationParams,  # noqa: E402
                                          generate_organization)
from repro.workloads.university import (UniversityParams,  # noqa: E402
                                        generate_university)

from spans import Recorder  # noqa: E402

#: The engine configuration of every end-to-end path.
ENGINE = {"planner": "adaptive", "interning": "on", "executor": "compiled"}

#: The independent-by-construction configuration: the reference
#: interpreter with no planner statistics and no interning.
REFERENCE = {"planner": "greedy", "interning": "off",
             "executor": "interpreted"}


# ---------------------------------------------------------------------------
# input generation (the repository's own seeded generators, as plain facts)
# ---------------------------------------------------------------------------

def facts_of(db: Database) -> list[tuple[str, tuple]]:
    return [(pred, row) for pred in sorted(db.predicates())
            for row in sorted(db.facts(pred), key=repr)]


def digraph_facts(nodes: int, edges: int, rng: random.Random,
                  acyclic: bool = True) -> list[tuple[str, tuple]]:
    return facts_of(random_digraph(nodes, edges, rng, acyclic=acyclic))


def university_facts(professors: int,
                     rng: random.Random) -> list[tuple[str, tuple]]:
    """The E1 parameterisation of the Example 3.2 generator."""
    params = UniversityParams(
        professors=professors, students=max(professors // 5, 2),
        theses=max(professors // 5, 2), fields=12, fields_per_thesis=6,
        works_with_density=0.04, expert_seed_fraction=0.7,
        supervisions=max(professors // 4, 2), payments=0)
    return facts_of(generate_university(params, rng))


def genealogy_facts(generations: int, width: int,
                    rng: random.Random) -> list[tuple[str, tuple]]:
    params = GenealogyParams(generations=generations, width=width,
                             parents_per_person=2)
    return facts_of(generate_genealogy(params, rng))


def organization_facts(rng: random.Random) -> list[tuple[str, tuple]]:
    return facts_of(generate_organization(OrganizationParams(), rng))


def linear_program_draw(rng: random.Random
                        ) -> tuple[str, list[tuple[str, tuple]]]:
    text, db = random_linear_program(rng)
    return text, facts_of(db)


def consistent_facts(program_text: str, ic_text: str,
                     rng: random.Random) -> list[tuple[str, tuple]]:
    """A small random EDB for ``program_text`` repaired to satisfy its
    ICs (for the paper examples that have no scalable generator)."""
    program = parse_program(program_text)
    ics = ics_from_text(ic_text) if ic_text else []
    arities = program.predicate_arities()
    schema = {pred: arities[pred] for pred in sorted(program.edb_predicates)}
    db = random_consistent_databases(
        schema, ics, 1, rng,
        numeric_columns=infer_numeric_columns(program, ics))[0]
    return facts_of(db)


def load(facts: list[tuple[str, tuple]]) -> Database:
    db = Database()
    for pred, row in facts:
        db.add_fact(pred, *row)
    return db


# ---------------------------------------------------------------------------
# the layers
# ---------------------------------------------------------------------------

class Adapter:
    """Public calls into each layer, each inside a span."""

    def __init__(self, recorder: Recorder) -> None:
        self.rec = recorder

    # -- datalog / constraints / analysis / core ------------------------------
    def parse(self, text: str):
        with self.rec.span("datalog.parse"):
            program = parse_program(text)
        self.rec.count("datalog.rules", len(program))
        return program

    def parse_query(self, text: str):
        with self.rec.span("datalog.parse"):
            return parse_atom(text)

    def validate(self, program) -> None:
        """The load gate: refuse programs the engines cannot run."""
        with self.rec.span("datalog.validate"):
            report = validate_program(program)
        if report.unsafe_rules or report.unrestricted_rules:
            raise ValueError(f"load gate refused: {report.summary()}")

    def parse_ics(self, text: str) -> list:
        with self.rec.span("constraints.parse"):
            return ics_from_text(text)

    def ic_violations(self, db: Database, ics) -> int:
        with self.rec.span("constraints.ic_check"):
            return sum(1 for ic in ics for _ in violations(ic, db, limit=1))

    def lint(self, program, ics) -> int:
        with self.rec.span("analysis.lint"):
            report = lint_program(program, ics)
        self.rec.count("analysis.diagnostics", len(report))
        return len(report)

    def dataflow(self, program, edb: Database, query=None):
        with self.rec.span("analysis.dataflow"):
            return analyze_dataflow(program, edb=edb, query=query)

    def residues(self, program, pred: str, ics) -> int:
        with self.rec.span("core.residues"):
            found = sum(len(generate_residues(program, pred, ic))
                        for ic in ics)
        self.rec.count("core.residues", found)
        return found

    def optimize(self, program, ics, pred: str):
        with self.rec.span("core.optimize"):
            report = SemanticOptimizer(program, ics, pred=pred).optimize()
        self.rec.count("core.steps_applied", len(report.applied_steps))
        self.rec.count("core.rules_out", len(report.optimized))
        return report.optimized

    # -- engine ---------------------------------------------------------------
    def plan(self, program, edb: Database, query=None, ics=(), flow=None):
        with self.rec.span("engine.cbo"):
            choice = choose_plan(program, edb, query=query, ics=ics,
                                 dataflow=flow)
        self.rec.count("engine.cbo_groups", choice.groups)
        return choice

    def magic(self, program, query):
        with self.rec.span("engine.magic_rewrite"):
            return magic_rewrite(program, query)

    def kernels(self, program, edb: Database) -> int:
        def sizes(atom, _index):
            return len(edb.relation_or_empty(atom.pred, atom.arity))
        with self.rec.span("engine.kernel_compile"):
            return len([compile_rule(rule, sizes, symbols=edb.symbols)
                        for rule in program])

    def fixpoint(self, program, edb: Database, budget=None, profile=None):
        stats = EvalStats()
        with self.rec.span("engine.fixpoint"):
            idb = seminaive_evaluate(
                program, edb, stats, planner=ENGINE["planner"],
                executor=ENGINE["executor"], budget=budget, profile=profile)
        self._count_stats(stats, idb.total_facts())
        return idb

    def _count_stats(self, stats, new_facts: int) -> None:
        count = self.rec.count
        count("engine.iterations", stats.iterations)
        count("engine.derivations", stats.derivations)
        count("engine.duplicates", stats.duplicate_derivations)
        count("engine.rows_matched", stats.rows_matched)
        count("engine.atom_lookups", stats.atom_lookups)
        count("engine.replans", stats.replans)
        count("engine.new_facts", new_facts)

    def bound_answers(self, program, edb: Database, query, choice):
        with self.rec.span("engine.fixpoint"):
            return cbo_answers(program, edb, query, choice=choice,
                               executor=ENGINE["executor"],
                               interning=ENGINE["interning"])

    def bound_evaluate(self, program, edb: Database, query, choice) -> None:
        """One bound query's evaluation alone, under ``choice``."""
        cbo_evaluate(program, edb, query=query, choice=choice,
                     executor=ENGINE["executor"],
                     interning=ENGINE["interning"])

    # -- facts ----------------------------------------------------------------
    def intern(self, db: Database) -> Database:
        with self.rec.span("facts.intern"):
            edb = db.interned()
        self.rec.count("facts.symbols", len(edb.symbols))
        return edb

    def decode(self, idb: Database, pred: str) -> frozenset:
        with self.rec.span("facts.decode"):
            return idb.facts(pred)

    # -- the end-to-end query path ---------------------------------------------
    def query(self, program_text: str, db: Database, pred: str,
              ic_text: str | None = None) -> frozenset:
        """Program/IC text + raw database -> decoded answer set."""
        program = self.parse(program_text)
        self.validate(program)
        if ic_text is not None:
            program = self.optimize(program, self.parse_ics(ic_text), pred)
        idb = self.fixpoint(program, self.intern(db))
        return self.decode(idb, pred)

    def bound_query(self, program, edb: Database,
                    query_text: str) -> frozenset:
        """Parsed program + interned database + query text -> answers."""
        query = self.parse_query(query_text)
        flow = self.dataflow(program, edb, query)
        choice = self.plan(program, edb, query=query, flow=flow)
        return self.bound_answers(program, edb, query, choice)

    def compile(self, program_text: str, ic_text: str, pred: str,
                edb: Database):
        """Everything that happens to a program before its first round.

        Returns the chosen program and a fingerprint of every artefact
        the front end produced, so repeated compiles can be checked for
        determinism against a verified first one.
        """
        program = self.parse(program_text)
        self.validate(program)
        ics = self.parse_ics(ic_text) if ic_text else []
        diagnostics = self.lint(program, ics)
        found = 0
        if ics:
            found = self.residues(program, pred, ics)
            program = self.optimize(program, ics, pred)
        choice = self.plan(program, edb, flow=self.dataflow(program, edb))
        kernels = self.kernels(choice.program, edb)
        fingerprint = (f"{format_program(choice.program)}|{choice.label}|"
                       f"{diagnostics}|{found}|{kernels}")
        return choice.program, fingerprint

    # -- serving / incremental ---------------------------------------------------
    def serve(self, db: Database, program, warm_query: str):
        """A synchronous (no writer thread) server with one built view."""
        server = ThreadedServer(db=db.interned(),
                                staleness=StalenessBound(max_lag=0))
        with self.rec.span("serving.materialize"):
            server.read(program, warm_query, planner=ENGINE["planner"],
                        executor=ENGINE["executor"])
        return server

    def update(self, server, program, inserts, deletes) -> None:
        """Returns after apply + maintain + publish (no writer thread)."""
        with self.rec.span("serving.update"):
            server.update(changeset(inserts, deletes))
        self.rec.count("serving.refresh_s",
                       view_of(server, program).last_refresh_s or 0.0)

    def read(self, server, program, query_text: str, first: bool):
        name = "serving.read_first" if first else "serving.read_warm"
        with self.rec.span(name):
            result = server.read(program, query_text,
                                 planner=ENGINE["planner"],
                                 executor=ENGINE["executor"])
        return result.rows


def view_of(server, program):
    return server.view(program, planner=ENGINE["planner"],
                       executor=ENGINE["executor"])


def changeset(inserts, deletes) -> Changeset:
    changes = Changeset()
    for pred, row in inserts:
        changes.insert(pred, row)
    for pred, row in deletes:
        changes.delete(pred, row)
    return changes


class Shadow:
    """The write path's steps taken one by one, beside the server.

    ``ThreadedServer.update`` is one public call, so its parts cannot be
    timed from outside.  The traced pass therefore replays every changeset
    on a second copy of the data through the same public functions the
    server composes — ``VersionedDatabase.apply``, ``maintain`` and the
    two ``Database.copy`` calls a snapshot publish makes — outside the
    operation's clock.
    """

    def __init__(self, layers: Adapter, program,
                 facts: list[tuple[str, tuple]]) -> None:
        self.rec = layers.rec
        self.program = program
        self.source = VersionedDatabase(load(facts).interned())
        self.idb = self._recompute()
        # Compiled kernels are reused across refreshes, as a view does.
        self.kernels = KernelCache(symbols=self.source.db.symbols)

    def _recompute(self) -> Database:
        return seminaive_evaluate(
            self.program, self.source.db, planner=ENGINE["planner"],
            executor=ENGINE["executor"])

    def follow(self, inserts, deletes) -> None:
        with self.rec.span("shadow.follow"):
            with self.rec.span("facts.apply"):
                self.source.apply(changeset(inserts, deletes))
            with self.rec.span("incremental.maintain"):
                result = maintain(
                    self.program, self.source.db, self.idb,
                    self.source.log[-1].changeset,
                    planner=ENGINE["planner"], executor=ENGINE["executor"],
                    kernels=self.kernels)
            with self.rec.span("facts.copy"):
                self.source.db.copy()
                self.idb.copy()
        self.rec.count("incremental.rows_added", result.total_added())
        self.rec.count("incremental.rows_removed", result.total_removed())

    def recompute(self) -> None:
        """The from-scratch alternative to one ``maintain`` call."""
        self._recompute()


# ---------------------------------------------------------------------------
# references and one-off measurements
# ---------------------------------------------------------------------------

def reference_answers(program_text: str,
                      facts: list[tuple[str, tuple]]) -> dict:
    """Every derived predicate of the unoptimized program, by the
    reference interpreter."""
    program = parse_program(program_text)
    result = evaluate(program, load(facts), **REFERENCE)
    return {pred: result.facts(pred)
            for pred in sorted(program.idb_predicates)}


def engine_answers(program, edb: Database, preds) -> dict:
    result = evaluate(program, edb, **ENGINE)
    return {pred: result.facts(pred) for pred in preds}


def facade(program, db: Database, config: dict) -> bool:
    """``evaluate()`` under ``config``; False when the configuration no
    longer exists (a deleted executor must not break the benchmark)."""
    try:
        evaluate(program, db, **config)
    except (ReproError, TypeError):
        return False
    return True


def never_firing_budget() -> Budget:
    return Budget(timeout_s=1e9, max_derivations=10 ** 15,
                  max_facts=10 ** 15)


def guided(program, ics, pred: str, db: Database) -> int:
    """The evaluation-paradigm comparator: residues checked per
    derivation at run time instead of pushed at compile time.  Returns
    the number of residue checks."""
    result = ResidueGuidedEngine(program, ics, pred=pred).evaluate(db)
    return result.stats.residue_checks
