"""The six workloads: inputs, operations, references, diagnostics.

A workload is a fixed *cycle* of operations repeated for the measuring
time.  Every cycle has a primary operation kind (``op``) and a contrast
kind (``alt``) that uses the same layers the opposite way; the table in
README.md says what they are for each workload and why.

Inputs come in two steps.  The *shape* of an input — which graph, which
university, which genealogy — is drawn with :data:`SHAPE_SEED`, so its
sizes and answer cardinalities are the ones MANIFEST.json states, for
every ``--seed``.  The run's ``--seed`` then draws everything else: the
names of the constants, the order the facts arrive in, the constants the
queries ask about, the stream of updates, the programs of the corpus and
the order of operations.  Work per cycle therefore stays level from one
seed to the next and the spread between seeds measures the system, not
the luck of a random graph's closure size (which moves by 5-11 % between
seeds at these sizes).
"""

from __future__ import annotations

import gc
import random
import re
import statistics

import adapter
import oracle

SHAPE_SEED = 7

TC = ("r0: reach(X, Y) :- edge(X, Y).\n"
      "r1: reach(X, Y) :- reach(X, Z), edge(Z, Y).\n")

UNIVERSITY = """
r0: eval(P, S, T) :- super(P, S, T).
r1: eval(P, S, T) :- works_with(P, P0), eval(P0, S, T),
                     expert(P, F), field(T, F).
r2: eval_support(P, S, T, M) :- eval(P, S, T), pays(M, G, S, T).
"""
UNIVERSITY_IC1 = "ic1: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1)."
UNIVERSITY_IC2 = "ic2: pays(M, G, S, T), M > 10000 -> doctoral(S)."

GENEALOGY = """
r0: anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
r1: anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).
"""
GENEALOGY_IC1 = ("ic1: Ya <= 50, par(Z, Za, Y, Ya), par(Z2, Z2a, Z, Za), "
                 "par(Z3, Z3a, Z2, Z2a) -> .")

EXAMPLE_2_1 = """
r0: p(X1, X2, X3, X4, X5, X6) :-
        a(X1, X2, X4), b(Y2, X3), c(Y3, Y4, X5), d(Y5, X6),
        p(X1, Y2, Y3, Y4, Y5, Y6).
r1: p(X1, X2, X3, X4, X5, X6) :- e(X1, X2, X3, X4, X5, X6).
"""
EXAMPLE_2_1_IC = "ic: a(V1, V2, V3), b(V2, V4), c(V4, V5, V6) -> d(V6, V7)."

EXAMPLE_4_1 = """
r1: triple(E1, E2, E3) :- same_level(E1, E2, E3).
r2: triple(E1, E2, E3) :- boss(U, E3, R), experienced(U),
                          triple(U, E1, E2).
"""
EXAMPLE_4_1_IC = "ic1: boss(E, B, R), R = executive -> experienced(B)."

EXAMPLE_5_1 = """
r0: honors(Stud) :- transcript(Stud, Major, Cred, Gpa),
                    Cred >= 30, Gpa >= 3.8.
r1: honors(Stud) :- transcript(Stud, Major, Cred, Gpa),
                    Gpa >= 3.8, exceptional(Stud).
r2: exceptional(Stud) :- publication(Stud, P), appears(P, Jl),
                         reputed(Jl).
r3: honors(Stud) :- graduated(Stud, College), topten(College).
"""

#: Input sizes.  ``full`` is what BENCHMARK.json measures; ``smoke``
#: keeps every workload under two seconds for the test.
SIZES = {
    "full": {
        "closure-xl": {"dag": (2000, 12000), "cyclic": (300, 3000)},
        "bound-query": {"graph": (2000, 8000), "bf_per_cycle": 20},
        "university-elim": {"professors": 300},
        "genealogy-prune": {"generations": 9, "width": 250},
        "compile-corpus": {"random_programs": 40, "chain_ics": (3, 6)},
        "serve-churn": {"graph": (2000, 8000), "warm_reads": 10},
    },
    "smoke": {
        "closure-xl": {"dag": (200, 1200), "cyclic": (60, 300)},
        "bound-query": {"graph": (200, 800), "bf_per_cycle": 5},
        "university-elim": {"professors": 40},
        "genealogy-prune": {"generations": 6, "width": 20},
        "compile-corpus": {"random_programs": 5, "chain_ics": (3, 4)},
        "serve-churn": {"graph": (200, 800), "warm_reads": 5},
    },
}


def relabel(facts, rng: random.Random):
    """Permute constant names within their families and shuffle order.

    ``n17`` may become ``n903`` and ``g3_12`` become ``g0_7``, but a name
    without digits (a rank such as ``executive`` that an IC mentions) and
    every number stay as they are, so the input is the same database up
    to isomorphism.
    """
    families: dict[str, list[str]] = {}
    for name in sorted({value for _pred, row in facts for value in row
                        if isinstance(value, str) and value[-1:].isdigit()}):
        families.setdefault(re.sub(r"\d+", "#", name), []).append(name)
    renamed: dict[str, str] = {}
    for members in families.values():
        shuffled = members[:]
        rng.shuffle(shuffled)
        renamed.update(zip(members, shuffled))
    out = [(pred, tuple(renamed.get(value, value) for value in row))
           for pred, row in facts]
    rng.shuffle(out)
    return out


def rows_of(facts, pred: str) -> list[tuple]:
    return [row for name, row in facts if name == pred]


def topological_rank(edges) -> dict:
    """Kahn's algorithm: ``rank[a] < rank[b]`` for every edge ``(a, b)``."""
    succ = oracle.successors(edges)
    waiting: dict = {}
    for _source, target in edges:
        waiting[target] = waiting.get(target, 0) + 1
    ready = sorted(node for node in succ if node not in waiting)
    rank: dict = {}
    while ready:
        node = ready.pop()
        rank[node] = len(rank)
        for target in succ.get(node, ()):
            waiting[target] -= 1
            if not waiting[target]:
                ready.append(target)
    return rank


def chain_ic(length: int) -> str:
    """An Example 4.3-style denial over ``length`` chained ``par`` atoms."""
    atoms = [f"par(Z{i}, Za{i}, Z{i + 1}, Za{i + 1})" for i in range(length)]
    return f"ic: Za{length} <= 50, {', '.join(atoms)} -> ."


class Workload:
    """Common shape: generate once, build (timed, repeatable), cycle."""

    name = ""
    why = ""
    #: What the two operation kinds are, for the printed report.
    op_is = ""
    alt_is = ""

    def __init__(self, layers, bench, sizes: dict, seed: int) -> None:
        self.layers = layers
        self.bench = bench
        self.sizes = sizes
        self.seed = seed
        #: Numbers measured outside the cycles (setup, diagnostics).
        self.extra: dict[str, float] = {}
        #: Cardinalities for the generator-drift guard.
        self.cardinalities: dict[str, int] = {}

    def generate(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def cycle(self, index: int) -> None:
        raise NotImplementedError

    def diagnostics(self) -> None:
        """Extra per-layer measurements of the traced run."""

    def finish(self) -> None:
        """Whole-run checks after the last cycle."""


# ---------------------------------------------------------------------------
# closure-xl
# ---------------------------------------------------------------------------

class ClosureXL(Workload):
    name = "closure-xl"
    why = ("Whole transitive closure, text to answers: the engine fixpoint "
           "and fact storage do nearly all the work, the front end none.")
    op_is = "cold TC query over the sparse DAG (about 1 in 3 derivations new)"
    alt_is = "cold TC query over a dense cyclic graph (about 1 in 10 new)"

    def generate(self) -> None:
        shape = random.Random(SHAPE_SEED)
        rng = random.Random(self.seed)
        self.inputs = {}
        for kind, acyclic in (("dag", True), ("cyclic", False)):
            nodes, edges = self.sizes[kind]
            facts = relabel(adapter.digraph_facts(
                nodes, edges, shape, acyclic=acyclic), rng)
            expected = oracle.digest(oracle.closure_rows(
                rows_of(facts, "edge")))
            self.inputs[kind] = (facts, expected)
            self.cardinalities[f"{kind}_edges"] = len(facts)
            self.cardinalities[f"{kind}_reach"] = expected[0]

    def build(self) -> None:
        self.dbs = {kind: adapter.load(facts)
                    for kind, (facts, _expected) in self.inputs.items()}
        self.cycle(-1)

    def cycle(self, index: int) -> None:
        for kind, role in (("dag", "op"), ("cyclic", "alt")):
            gc.collect()
            self.bench.timed(
                role, lambda: self.layers.query(TC, self.dbs[kind], "reach"),
                self.inputs[kind][1])

    def diagnostics(self) -> None:
        db = self.dbs["dag"]
        program = self.layers.parse(TC)
        edb = db.interned()
        seconds = self.bench.seconds
        for label, config in (
                ("default", {}),
                ("vectorized", {**adapter.ENGINE, "executor": "vectorized"}),
                ("parallel", {**adapter.ENGINE, "executor": "parallel",
                              "shards": 4})):
            gc.collect()
            took, exists = seconds(
                lambda: adapter.facade(program, db, config), 1.0)
            self.extra[f"engine.fixpoint_s.{label}"] = took if exists else 0.0
        profile = adapter.EvalProfile()
        self.layers.fixpoint(program, edb, profile=profile)
        kernels = [entry["seconds"] for entry in profile.kernels.values()]
        self.extra["engine.top_kernel_share"] = max(kernels) / sum(kernels)
        times = {}
        for budgeted in (True, False):
            budget = adapter.never_firing_budget() if budgeted else None
            gc.collect()
            times[budgeted] = seconds(lambda: self.layers.fixpoint(
                program, edb, budget=budget), 1.0)[0]
        self.extra["runtime.budget_overhead"] = times[True] / times[False]


# ---------------------------------------------------------------------------
# bound-query
# ---------------------------------------------------------------------------

class BoundQuery(Workload):
    name = "bound-query"
    why = ("Goal-directed queries: plan enumeration and magic sets decide; "
           "bf needs a small fixpoint, fb degenerates to a near-full closure.")
    op_is = "reach(c, Y): bound-free, magic sets keep the fixpoint small"
    alt_is = "reach(Y, c): free-bound over the same left-linear program"

    def generate(self) -> None:
        nodes, edges = self.sizes["graph"]
        self.facts = relabel(adapter.digraph_facts(
            nodes, edges, random.Random(SHAPE_SEED)), random.Random(self.seed))
        edge_rows = rows_of(self.facts, "edge")
        self.forward = oracle.successors(edge_rows)
        self.backward = oracle.successors((b, a) for a, b in edge_rows)
        self.nodes = sorted({node for row in edge_rows for node in row})
        self.cardinalities["edges"] = len(edge_rows)

    def build(self) -> None:
        self.rng = random.Random(self.seed)
        self.program = self.layers.parse(TC)
        self.edb = adapter.load(self.facts).interned()
        self.cycle(-1)

    def cycle(self, index: int) -> None:
        # References first, so the timed queries run back to back.
        wanted = [(node, {(node, other) for other
                          in oracle.reachable(self.forward, node)})
                  for node in self.rng.choices(
                      self.nodes, k=self.sizes["bf_per_cycle"])]
        gc.collect()
        for node, expected in wanted:
            self.bench.timed(
                "op", lambda: self.layers.bound_query(
                    self.program, self.edb, f"reach({node}, Y)"), expected)
        node = self.rng.choice(self.nodes)
        expected = {(other, node)
                    for other in oracle.reachable(self.backward, node)}
        gc.collect()
        self.bench.timed(
            "alt", lambda: self.layers.bound_query(
                self.program, self.edb, f"reach(Y, {node})"), expected)

    def diagnostics(self) -> None:
        node = self.rng.choice(self.nodes)
        layers, program, edb = self.layers, self.program, self.edb
        seconds = self.bench.seconds
        bf = layers.parse_query(f"reach({node}, Y)")
        self.extra["engine.magic_rewrite_ms"] = \
            seconds(lambda: layers.magic(program, bf), 0.0)[0] * 1000.0
        # Regret of the plan chosen for the fb query, against the
        # unrewritten program (the other candidate a user could run).
        fb = layers.parse_query(f"reach(Y, {node})")
        choice = layers.plan(program, edb, query=fb)
        chosen = seconds(lambda: layers.bound_evaluate(
            program, edb, fb, choice), 0.5)[0]
        plain = seconds(lambda: layers.fixpoint(program, edb), 0.5)[0]
        self.extra["engine.cbo_regret"] = chosen / min(chosen, plain)


# ---------------------------------------------------------------------------
# university-elim / genealogy-prune
# ---------------------------------------------------------------------------

class PaperWorkload(Workload):
    """Interleaved pairs: optimize + evaluate against plain evaluate."""

    program_text = ""
    ic_text = ""
    pred = ""
    op_is = "pushed: parse, Algorithm 3.1/4.1 rewrite, then evaluate"
    alt_is = "plain: the same query without the semantic optimizer"

    def shape_facts(self, shape: random.Random):
        raise NotImplementedError

    def generate(self) -> None:
        self.facts = relabel(self.shape_facts(random.Random(SHAPE_SEED)),
                             random.Random(self.seed))
        self.expected = oracle.digest(self.answer_rows(self.facts))
        self.cardinalities["edb_facts"] = len(self.facts)
        self.cardinalities[f"{self.pred}_facts"] = self.expected[0]

    def answer_rows(self, facts):
        raise NotImplementedError

    def build(self) -> None:
        self.db = adapter.load(self.facts)
        took, found = self.bench.seconds(lambda: self.layers.ic_violations(
            self.db, self.layers.parse_ics(self.ic_text)))
        self.extra["constraints.ic_check_ms"] = took * 1000.0
        self.extra["constraints.violations"] = found
        if found:
            raise ValueError(f"{self.name}: generated EDB violates its IC")
        self.ratios: list[float] = []
        self.cycle(-1)

    def cycle(self, index: int) -> None:
        times = {}
        for pushed in ((True, False) if index % 2 else (False, True)):
            gc.collect()
            times[pushed] = self.bench.timed(
                "op" if pushed else "alt",
                lambda: self.layers.query(
                    self.program_text, self.db, self.pred,
                    self.ic_text if pushed else None),
                self.expected)
        if index >= 0:
            self.ratios.append(times[False] / times[True])

    def finish(self) -> None:
        self.extra["core.pushed_speedup"] = statistics.median(self.ratios)

    def diagnostics(self) -> None:
        program = self.layers.parse(self.program_text)
        ics = self.layers.parse_ics(self.ic_text)
        pushed = self.layers.optimize(program, ics, self.pred)
        edb = self.db.interned()
        chosen = self.layers.plan(program, edb, ics=ics).program
        seconds = {}
        for label, candidate in (("plain", program), ("pushed", pushed),
                                 ("chosen", chosen)):
            gc.collect()
            seconds[label] = self.bench.seconds(
                lambda: self.layers.fixpoint(candidate, edb), 0.5)[0]
        self.extra["engine.cbo_regret"] = \
            seconds["chosen"] / min(seconds.values())
        self.extra["baselines.guided_s"], \
            self.extra["baselines.residue_checks"] = self.bench.seconds(
                lambda: adapter.guided(program, ics, self.pred, self.db), 0.5)


class UniversityElim(PaperWorkload):
    name = "university-elim"
    why = ("The paper's atom elimination (Example 3.2, E1) where it pays: "
           "the core layer's rewrite removes a join from every recursive round.")
    program_text = UNIVERSITY
    ic_text = UNIVERSITY_IC1
    pred = "eval"

    def shape_facts(self, shape):
        return adapter.university_facts(self.sizes["professors"], shape)

    def answer_rows(self, facts):
        return oracle.university_eval_rows(
            rows_of(facts, "works_with"), rows_of(facts, "expert"),
            rows_of(facts, "field"), rows_of(facts, "super"))


class GenealogyPrune(PaperWorkload):
    name = "genealogy-prune"
    why = ("The paper's subtree pruning (Example 4.3, E3) on an EDB that "
           "satisfies the IC: nothing is pruned, only the rewrite's overhead shows.")
    program_text = GENEALOGY
    ic_text = GENEALOGY_IC1
    pred = "anc"

    def shape_facts(self, shape):
        return adapter.genealogy_facts(self.sizes["generations"],
                                       self.sizes["width"], shape)

    def answer_rows(self, facts):
        return oracle.ancestor_rows(rows_of(facts, "par"))


# ---------------------------------------------------------------------------
# compile-corpus
# ---------------------------------------------------------------------------

class CompileCorpus(Workload):
    name = "compile-corpus"
    why = ("Front end only: parse, lint, dataflow, residues, rewrite, plan "
           "choice and kernel codegen over a corpus; no fixpoint runs at all.")
    op_is = "compile one random linear program (no ICs)"
    alt_is = "compile the IC suite: 5 paper examples + chain ICs, one pass"

    def generate(self) -> None:
        shape = random.Random(SHAPE_SEED)
        rng = random.Random(self.seed)
        small_genealogy = adapter.genealogy_facts(6, 8, shape)
        self.suite = [
            ("example_2_1", EXAMPLE_2_1, EXAMPLE_2_1_IC, "p",
             adapter.consistent_facts(EXAMPLE_2_1, EXAMPLE_2_1_IC, shape)),
            ("example_3_2", UNIVERSITY,
             UNIVERSITY_IC1 + "\n" + UNIVERSITY_IC2, "eval",
             adapter.university_facts(20, shape)),
            ("example_4_1", EXAMPLE_4_1, EXAMPLE_4_1_IC, "triple",
             adapter.organization_facts(shape)),
            ("example_4_3", GENEALOGY, GENEALOGY_IC1, "anc",
             small_genealogy),
            ("example_5_1", EXAMPLE_5_1, "", "honors",
             adapter.consistent_facts(EXAMPLE_5_1, "", shape)),
        ]
        low, high = self.sizes["chain_ics"]
        for length in range(low, high + 1):
            self.suite.append((f"chain_ic_{length}", GENEALOGY,
                               chain_ic(length), "anc", small_genealogy))
        self.draws = []
        for number in range(self.sizes["random_programs"]):
            text, facts = adapter.linear_program_draw(rng)
            self.draws.append((f"random_{number}", text, "", "p", facts))
        # Reference answers: the unoptimized program under the reference
        # interpreter, for every predicate the program derives.
        self.reference = {
            name: adapter.reference_answers(text, facts)
            for name, text, _ic, _pred, facts in self.suite + self.draws}
        self.cardinalities["programs"] = len(self.suite) + len(self.draws)

    def build(self) -> None:
        self.rng = random.Random(self.seed)
        self.edbs = {name: adapter.load(facts).interned()
                     for name, _t, _i, _p, facts in self.suite + self.draws}
        self.fingerprints: dict[str, str] = {}
        # Warm-up pass, which is also the translation check: the program
        # each compile chose must answer like the reference.
        for name, text, ic_text, pred, _facts in self.suite + self.draws:
            chosen, fingerprint = self.layers.compile(
                text, ic_text, pred, self.edbs[name])
            self.fingerprints[name] = fingerprint
            self.bench.check(
                adapter.engine_answers(chosen, self.edbs[name],
                                       self.reference[name]),
                self.reference[name], f"{name}: compiled program")

    def compile_one(self, entry) -> str:
        name, text, ic_text, pred, _facts = entry
        return self.layers.compile(text, ic_text, pred, self.edbs[name])[1]

    def cycle(self, index: int) -> None:
        gc.collect()
        draws = self.draws[:]
        self.rng.shuffle(draws)
        for entry in draws:
            self.bench.timed("op", lambda: self.compile_one(entry),
                             self.fingerprints[entry[0]])
        gc.collect()
        suite = self.suite[:]
        self.rng.shuffle(suite)
        self.bench.timed(
            "alt", lambda: [self.compile_one(entry) for entry in suite],
            [self.fingerprints[entry[0]] for entry in suite])


# ---------------------------------------------------------------------------
# serve-churn
# ---------------------------------------------------------------------------

class ServeChurn(Workload):
    name = "serve-churn"
    why = ("Writes beside reads on a materialized view: incremental "
           "maintenance, snapshot publish and the first read after a write "
           "against warm reads.")
    op_is = "write then read it back: update (2 inserts, 1 delete) + first read"
    alt_is = "warm bound read from the published snapshot"

    def generate(self) -> None:
        nodes, edges = self.sizes["graph"]
        self.facts = relabel(adapter.digraph_facts(
            nodes, edges, random.Random(SHAPE_SEED)), random.Random(self.seed))
        self.nodes = sorted({node for _p, row in self.facts for node in row})
        self.cardinalities["edges"] = len(self.facts)
        self.cardinalities["reach"] = oracle.digest(
            oracle.closure_rows(rows_of(self.facts, "edge")))[0]

    def build(self) -> None:
        self.rng = random.Random(self.seed)
        self.edges = rows_of(self.facts, "edge")
        self.present = set(self.edges)
        self.forward: dict[str, set] = {}
        for source, target in self.edges:
            self.forward.setdefault(source, set()).add(target)
        self.rank = topological_rank(self.edges)
        self.program = self.layers.parse(TC)
        self.updates = 0
        self.extra["serving.materialize_s"], self.server = \
            self.bench.seconds(lambda: self.layers.serve(
                adapter.load(self.facts), self.program,
                f"reach({self.nodes[0]}, Y)"), 0.5)
        self.shadow = adapter.Shadow(self.layers, self.program, self.facts) \
            if self.bench.tracing else None
        self.cycle(-1)

    def next_changes(self):
        """One present edge out, two absent edges in; inserts follow the
        topological rank, so the graph stays the DAG it was generated as."""
        position = self.rng.randrange(len(self.edges))
        self.edges[position], self.edges[-1] = \
            self.edges[-1], self.edges[position]
        gone = self.edges.pop()
        inserts = []
        while len(inserts) < 2:
            a, b = self.rng.sample(self.nodes, 2)
            if self.rank[a] > self.rank[b]:
                a, b = b, a
            if (a, b) not in self.present:
                self.present.add((a, b))
                self.edges.append((a, b))
                self.forward.setdefault(a, set()).add(b)
                inserts.append(("edge", (a, b)))
        self.present.discard(gone)
        self.forward[gone[0]].discard(gone[1])
        return inserts, [("edge", gone)]

    def expected_read(self, node: str) -> set:
        """A snapshot query answers over the query's variables only."""
        return {(other,) for other in oracle.reachable(self.forward, node)}

    def cycle(self, index: int) -> None:
        # References first, so the timed reads run back to back.
        inserts, deletes = self.next_changes()
        reads = [(node, self.expected_read(node)) for node in self.rng.choices(
            self.nodes, k=1 + self.sizes["warm_reads"])]
        gc.collect()

        def write_then_read():
            self.layers.update(self.server, self.program, inserts, deletes)
            return self.layers.read(self.server, self.program,
                                    f"reach({reads[0][0]}, Y)", first=True)
        self.bench.timed("op", write_then_read, reads[0][1])
        self.updates += 1
        for node, expected in reads[1:]:
            self.bench.timed(
                "alt", lambda: self.layers.read(
                    self.server, self.program, f"reach({node}, Y)",
                    first=False), expected)
        if self.shadow is not None:
            self.shadow.follow(inserts, deletes)

    def finish(self) -> None:
        view = adapter.view_of(self.server, self.program)
        self.bench.check(
            oracle.digest(view.snapshot.facts("reach")),
            oracle.digest(oracle.closure_rows(self.edges)),
            "serve-churn: last snapshot against a from-scratch closure")
        described = view.describe()
        counts = (described["incremental_refreshes"],
                  described["full_refreshes"],
                  self.server.describe()["stale_reads"])
        self.extra["serving.incremental_refreshes"], \
            self.extra["serving.full_refreshes"], \
            self.extra["serving.stale_reads"] = counts
        self.bench.check(counts, (self.updates, 1, 0),
                         "serve-churn: refresh and staleness counts")

    def diagnostics(self) -> None:
        self.extra["incremental.recompute_s"] = \
            self.bench.seconds(self.shadow.recompute, 0.5)[0]


WORKLOADS = {cls.name: cls for cls in (
    ClosureXL, BoundQuery, UniversityElim, GenealogyPrune, CompileCorpus,
    ServeChurn)}
