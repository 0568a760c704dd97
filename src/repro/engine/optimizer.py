"""Cost-based enumerating optimizer for recursive plans.

The adaptive planner (PR 3) orders one rule body at a time; the semantic
optimizer (Algorithm 3.1 + Section 4) pushes residues greedily; magic
sets rewrite unconditionally.  This module composes all of them into a
*transformation-based enumerating optimizer* in the style of Fejza &
Genevès (arXiv:2312.02572), whose search space — semantically equivalent
whole programs — subsumes magic-sets- and residue-style rewrites the way
Wang et al.'s FGH rule does (arXiv:2202.10390):

1. **Enumerate** a bounded rewrite space per program: residue pushing
   on/off per integrity constraint, magic sets with a per-adornment
   choice (each bound query position may be kept or weakened), and
   left/right linearization of transitive-closure-shaped linear rules.
   Candidates live in a :class:`Memo`: groups are keyed by program
   fingerprint, so transform paths that converge on the same program
   share one group and are costed once (group-level deduplication).
2. **Cost** each group with a unified model: *warm* index-backed
   statistics (:meth:`Relation.probe_estimate`) where relations hold
   rows, *cold* dataflow size bounds (:class:`DataflowResult`) everywhere
   else.  Each candidate is priced with the analysis of its *own*
   program, as Fejza & Genevès price each enumerated plan: a magic
   candidate's analysis runs over the rewritten rules, its seed read as
   one row of unknown value in the query column's domain, so its
   adorned and magic predicates get bounds of their own — what the
   magic restriction will let them materialize, not what the input
   program's predicate would — and equal ones for every query of the
   pattern.
3. **Choose** the cheapest whole-program candidate *before the fixpoint
   starts* and execute it with ``planner="adaptive"`` (join orders from
   the statistics each kernel's first firing reads).

The optimizer is reached only through the query-bearing entry points
(:func:`cbo_evaluate`, :func:`cbo_answers`): its rewrites preserve the
*answer* but not the full IDB trace (magic, linearization) or
rely on IC-consistency (residue pushing).  Whole-program evaluation
(:func:`repro.engine.evaluate`) has one candidate, the identity program,
so it takes a join planner instead.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Iterator, Sequence

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Variable
from ..errors import ReproError, TransformError
from ..facts.database import Database
from ..runtime import chaos
from ..runtime.budget import Budget, resolve_budget
from .bindings import EvalStats, check_edb_arities, plan_body
from .magic import MagicProgram, adornment_of, magic_rewrite, reseed
from .prepared import prepared

if TYPE_CHECKING:
    from ..analysis.dataflow import DataflowResult
    from .engine import EvaluationResult

INF = math.inf

#: Enumeration ceiling — the rewrite space is bounded by construction
#: (per-IC on/off, per-adornment weakening, per-pred linearization)
#: but the cross product is still capped outright.
MAX_CANDIDATES = 32

#: Cost estimate used for predicates the model knows nothing about
#: (no rows, no dataflow bound).
_UNKNOWN_ESTIMATE = 1000.0


# ---------------------------------------------------------------------------
# the memo
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanCandidate:
    """One enumerated rewrite of the input program."""

    program: Program
    transforms: tuple[str, ...]
    magic: MagicProgram | None = None

    @property
    def label(self) -> str:
        return " + ".join(self.transforms) if self.transforms \
            else "identity"


@dataclass
class MemoGroup:
    """All transform paths that produced one (fingerprint-equal) program.

    ``derivations`` records every path; the candidate itself — and its
    cost — is shared, which is the group-level deduplication that keeps
    the enumeration linear in *distinct* programs rather than in
    transform paths.
    """

    fingerprint: str
    candidate: PlanCandidate
    derivations: list[tuple[str, ...]]
    cost: float = INF
    detail: str = ""


def _program_fingerprint(candidate: PlanCandidate) -> str:
    """Hash of the candidate's rule texts and, for a magic rewrite, its
    answer predicate.

    A magic candidate's seed is left out: it is the only rule that
    depends on the query's constants, so every query of one binding
    pattern gets the same fingerprints.
    """
    magic = candidate.magic
    seed = None if magic is None else magic.seed
    text = "\n".join(sorted(str(rule) for rule in candidate.program
                            if rule is not seed))
    if magic is not None:
        text += f"\n% answers: {magic.query_pred}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Memo:
    """Fingerprint-keyed group store for enumerated candidates."""

    def __init__(self) -> None:
        self._groups: dict[str, MemoGroup] = {}
        self._order: list[MemoGroup] = []

    def add(self, candidate: PlanCandidate) -> MemoGroup:
        fingerprint = _program_fingerprint(candidate)
        group = self._groups.get(fingerprint)
        if group is None:
            group = MemoGroup(fingerprint, candidate,
                              [candidate.transforms])
            self._groups[fingerprint] = group
            self._order.append(group)
        else:
            group.derivations.append(candidate.transforms)
        return group

    def __len__(self) -> int:
        return len(self._order)

    def __iter__(self) -> Iterator[MemoGroup]:
        return iter(self._order)

    @property
    def paths(self) -> int:
        """Total transform paths enumerated (>= number of groups)."""
        return sum(len(group.derivations) for group in self._order)


# ---------------------------------------------------------------------------
# rewrite enumeration
# ---------------------------------------------------------------------------

def _ic_labels(ics: Sequence) -> list[str]:
    return [getattr(ic, "label", None) or f"ic{index}"
            for index, ic in enumerate(ics)]


def _ic_subsets(ics: Sequence) -> list[tuple[tuple, str]]:
    """Per-IC on/off choices, bounded.

    Up to three ICs the full power set (minus the empty set — that is
    the identity candidate); beyond that, all-on plus each singleton.
    """
    labels = _ic_labels(ics)
    out: list[tuple[tuple, str]] = []
    if len(ics) <= 3:
        for mask in range(1, 1 << len(ics)):
            subset = tuple(ic for bit, ic in enumerate(ics)
                           if mask & (1 << bit))
            chosen = "+".join(label for bit, label in enumerate(labels)
                              if mask & (1 << bit))
            out.append((subset, f"residues[{chosen}]"))
    else:
        out.append((tuple(ics), "residues[all]"))
        for ic, label in zip(ics, labels):
            out.append(((ic,), f"residues[{label}]"))
    return out


def _residue_variant(program: Program, ics: Sequence) -> Program | None:
    """Push the residues of ``ics`` into ``program``; None on no-op."""
    from ..core.optimizer import SemanticOptimizer
    try:
        report = SemanticOptimizer(program, list(ics)).optimize()
    except ReproError:
        return None
    if not report.changed or report.optimized == program:
        return None
    return report.optimized


def _linearizations(program: Program) -> list[tuple[Program, str]]:
    """Left/right linearization variants of transitive-closure shapes.

    Applicable exactly when a predicate ``p`` is defined by one exit
    rule ``p(X, Y) :- e(X, Y)`` and one linear recursive rule
    ``p(X, Z) :- p(X, Y), e(Y, Z)`` (or its right-linear mirror) over
    the *same* base predicate ``e`` — the classical case where both
    orientations compute ``e+`` and swapping is answer-preserving.
    """
    out: list[tuple[Program, str]] = []
    for pred in sorted(program.idb_predicates):
        rules = program.rules_for(pred)
        if len(rules) != 2:
            continue
        exit_rules = [r for r in rules if pred not in r.body_predicates()]
        recursive = [r for r in rules if pred in r.body_predicates()]
        if len(exit_rules) != 1 or len(recursive) != 1:
            continue
        base, rec = exit_rules[0], recursive[0]
        swapped = _swap_linear(pred, base, rec)
        if swapped is None:
            continue
        new_rule, direction = swapped
        rewritten = [new_rule if r is rec else r for r in program]
        out.append((Program(rewritten,
                            edb_hint=tuple(program.edb_predicates)),
                    f"linearize[{pred}:{direction}]"))
    return out


def _swap_linear(pred: str, base: Rule,
                 rec: Rule) -> tuple[Rule, str] | None:
    """Build the mirrored recursive rule, or None when the shape
    does not match the safe transitive-closure pattern."""
    if len(base.body) != 1 or len(rec.body) != 2:
        return None
    seed = base.body[0]
    if not isinstance(seed, Atom) or seed.pred == pred:
        return None
    if base.head.args != seed.args or len(base.head.args) != 2:
        return None
    if not all(isinstance(arg, Variable) for arg in base.head.args):
        return None
    first, second = rec.body
    if not (isinstance(first, Atom) and isinstance(second, Atom)):
        return None
    head = rec.head
    if len(head.args) != 2 or not all(isinstance(a, Variable)
                                      for a in head.args):
        return None
    x, z = head.args
    if first.pred == pred and second.pred == seed.pred:
        # left-linear p(X,Z) :- p(X,Y), e(Y,Z)  ->  right-linear
        if first.args[0] != x or second.args[1] != z \
                or first.args[1] != second.args[0]:
            return None
        y = first.args[1]
        if len({x, y, z}) != 3:
            return None
        mirrored = Rule(head, (Atom(seed.pred, (x, y)),
                               Atom(pred, (y, z))),
                        label=rec.label, span=rec.span)
        return mirrored, "right"
    if first.pred == seed.pred and second.pred == pred:
        # right-linear p(X,Z) :- e(X,Y), p(Y,Z)  ->  left-linear
        if first.args[0] != x or second.args[1] != z \
                or first.args[1] != second.args[0]:
            return None
        y = first.args[1]
        if len({x, y, z}) != 3:
            return None
        mirrored = Rule(head, (Atom(pred, (x, y)),
                               Atom(seed.pred, (y, z))),
                        label=rec.label, span=rec.span)
        return mirrored, "left"
    return None


def _adornment_choices(query: Atom) -> list[str]:
    """Weakenings of the query's natural adornment (all-free excluded).

    Each constant position may stay bound or be weakened to free —
    weakening trades a tighter magic filter for fewer adorned variants
    (and a broader, more reusable magic seed).  All-free is the
    "no magic" candidate, enumerated separately.
    """
    natural = adornment_of(query)
    bound_positions = [i for i, a in enumerate(natural) if a == "b"]
    choices: list[str] = []
    for mask in range(1, 1 << len(bound_positions)):
        pattern = list("f" * len(natural))
        for bit, position in enumerate(bound_positions):
            if mask & (1 << bit):
                pattern[position] = "b"
        choices.append("".join(pattern))
    choices.sort(key=lambda p: (-p.count("b"), p))
    return choices[:8]


def enumerate_candidates(program: Program, query: Atom | None = None,
                         ics: Sequence = (),
                         budget: Budget | None = None) -> Memo:
    """Generate the bounded rewrite space of ``program`` into a memo.

    Without a query (and without ICs) the space degenerates to the
    identity program: every other rewrite preserves the query answer —
    or relies on IC-consistency — rather than the full IDB trace (see
    module docstring).
    """
    return _enumerate(program, query, tuple(ics), budget, violated=())


def _enumerate(program: Program, query: Atom | None, ics: tuple,
               budget: Budget | None, violated: Sequence[int]) -> Memo:
    """:func:`enumerate_candidates` without a residue candidate of any
    IC whose position in ``ics`` is ``violated``."""
    budget = resolve_budget(budget)
    memo = Memo()
    base: list[PlanCandidate] = [PlanCandidate(program, ())]

    # Residue pushing on/off per IC (Algorithm 3.1 + Section 4 pushes),
    # for the ICs the EDB satisfies.
    dropped = {id(ics[index]) for index in violated}
    for subset, label in _ic_subsets(ics):
        if any(id(ic) in dropped for ic in subset):
            continue
        if budget is not None:
            budget.check_round(last_round=None)
        pushed = _residue_variant(program, subset)
        if pushed is not None:
            base.append(PlanCandidate(pushed, (label,)))

    if query is not None:
        # Left/right linearization of transitive-closure shapes.
        for candidate in list(base):
            for variant, label in _linearizations(candidate.program):
                base.append(PlanCandidate(
                    variant, candidate.transforms + (label,)))

    out = list(base)
    if query is not None and query.pred in program.idb_predicates:
        # Magic sets, one candidate per adornment weakening.
        for candidate in base:
            for adornment in _adornment_choices(query):
                if budget is not None:
                    budget.check_round(last_round=None)
                try:
                    rewritten = magic_rewrite(candidate.program, query,
                                              budget=budget,
                                              adornment=adornment)
                except TransformError:
                    continue
                out.append(PlanCandidate(
                    rewritten.program,
                    candidate.transforms + (f"magic[{adornment}]",),
                    magic=rewritten))

    for candidate in out[:MAX_CANDIDATES]:
        memo.add(candidate)
    return memo


# ---------------------------------------------------------------------------
# the cost model
# ---------------------------------------------------------------------------

class _Estimator:
    """Unified cold/warm cardinality estimates for one candidate.

    Warm: relations that already hold rows answer through their index
    statistics (:meth:`Relation.probe_estimate`).  Cold: the dataflow
    size bounds of the candidate's own program answer for everything
    else — for a magic candidate, that analysis covers its adorned and
    magic predicates, seed included.
    """

    def __init__(self, edb: Database,
                 dataflow: "DataflowResult | None") -> None:
        self.edb = edb
        self.dataflow = dataflow

    def _cold(self, pred: str,
              bound_cols: tuple[int, ...]) -> float | None:
        flow = self.dataflow
        if flow is None or (pred not in flow.bounds
                            and pred not in flow.columns):
            return None
        return flow.probe_estimate(pred, bound_cols)

    def __call__(self, pred: str, arity: int,
                 bound_cols: tuple[int, ...]) -> float:
        relation = self.edb.relation_or_empty(pred, arity)
        if len(relation):
            return relation.probe_estimate(bound_cols)
        cold = self._cold(pred, bound_cols)
        if cold is not None:
            return cold
        return _UNKNOWN_ESTIMATE / (1.0 + len(bound_cols))


def _saturating_mul(a: float, b: float) -> float:
    return INF if a == INF or b == INF else a * b


def _member_group(rule: Rule, order: list[int], step_no: int,
                  bound: set[Variable]) -> tuple[Variable, list[int]] | None:
    """The new variable X of the atom at ``order[step_no]`` and the
    later steps that read it, when the kernel folds them as a member
    group (:mod:`repro.engine.codegen`): the atom probes a bound
    column, every other column bound but X's, X read by no head term
    and by nothing after it but atoms that bind nothing new, each
    reading X once; neither side reads the head's predicate."""
    atom = rule.body[order[step_no]]
    new = [arg for arg in atom.args
           if isinstance(arg, Variable) and arg not in bound]
    if len(new) != 1 or atom.pred == rule.head.pred \
            or new[0] in rule.head.variable_set():
        return None
    (x,) = new
    seen = bound | {x}
    readers: list[int] = []
    for later in order[step_no + 1:]:
        literal = rule.body[later]
        if x in literal.variable_set():
            if not isinstance(literal, Atom) or literal.args.count(x) != 1 \
                    or literal.pred == rule.head.pred \
                    or not literal.variable_set() <= seen:
                return None
            readers.append(later)
        seen |= literal.variable_set()
    return (x, readers) if readers else None


def _rule_cost(rule: Rule, estimator: _Estimator) -> float:
    """Estimated join work of one rule over the whole fixpoint.

    Semi-naive evaluation pushes every derived tuple through each rule
    body about once, entering a recursive rule through the delta of an
    occurrence of its head predicate, so a single pass priced at full
    relation sizes and anchored at that occurrence approximates the
    total: walk the planner's join order, charging one probe per
    intermediate row plus the rows each probe returns.  The kernel's
    folds are priced as it runs them (:mod:`repro.engine.codegen`).
    An existential atom — probed on a bound column, no variable
    repeated in it, none of its new variables read later or in the
    head — is one probe per row: it returns no rows to walk and can
    only shrink the frontier.  The atom of a member group is one probe
    for its set of values, which the frontier does not multiply, and
    each membership test reading them one intersection, charged the
    smaller of the two sets; the last one keeps the rows whose
    intersection is not empty.
    """

    def sizes(atom: Atom, index: int) -> int:
        estimate = estimator(atom.pred, atom.arity, ())
        return int(min(estimate, 10.0 ** 9))

    def cost(atom: Atom, index: int,
             bound_cols: tuple[int, ...]) -> float:
        if atom.pred == rule.head.pred and not bound_cols:
            return 0.0  # the anchor: scanned first
        return estimator(atom.pred, atom.arity, bound_cols)

    order = plan_body(rule, sizes, cost=cost)
    head_vars = rule.head.variable_set()
    bound: set[Variable] = set()
    frontier = 1.0
    work = 0.0
    #: The open member group: its variable, the expected size of its
    #: set of values and the membership tests still to come.
    group: tuple[Variable, float, list[int]] | None = None
    for step_no, position in enumerate(order):
        literal = rule.body[position]
        if isinstance(literal, Comparison):
            work += frontier * 0.1
            continue
        if isinstance(literal, Negation):
            work += frontier
            continue
        atom = literal
        bound_cols = tuple(
            column for column, arg in enumerate(atom.args)
            if isinstance(arg, Constant)
            or (isinstance(arg, Variable) and arg in bound))
        step = estimator(atom.pred, atom.arity, bound_cols)
        new = [arg for arg in atom.args
               if isinstance(arg, Variable) and arg not in bound]
        opened = _member_group(rule, order, step_no, bound) \
            if group is None and bound_cols else None
        if group is not None and position in group[2]:
            x, values, readers = group
            keyed = estimator(atom.pred, atom.arity, tuple(
                column for column, arg in enumerate(atom.args)
                if arg != x))
            work += frontier * (1.0 + min(values, keyed))
            values *= min(step, 1.0)
            group = (x, values, readers[1:]) if readers[1:] else None
            if group is None:
                frontier = _saturating_mul(frontier,
                                           max(min(values, 1.0), 0.01))
        elif opened is not None:
            work += frontier
            group = (opened[0], step, opened[1])
        elif group is None and bound_cols and new \
                and len(set(new)) == len(new) \
                and head_vars.isdisjoint(new) \
                and not any(rule.body[later].variable_set().intersection(new)
                            for later in order[step_no + 1:]):
            work += frontier
            frontier = _saturating_mul(frontier, min(step, 1.0))
        else:
            work += frontier * (1.0 + step)
            frontier = _saturating_mul(frontier, max(step, 0.01))
        bound.update(arg for arg in atom.args
                     if isinstance(arg, Variable))
        if work == INF:
            return INF
    return work


def estimate_program_cost(candidate: PlanCandidate, edb: Database,
                          dataflow: "DataflowResult | None" = None,
                          ) -> tuple[float, str]:
    """Whole-program cost of one candidate, with a one-line breakdown."""
    estimator = _Estimator(edb, dataflow)
    total = 0.0
    heaviest, heaviest_cost = "", 0.0
    for rule in candidate.program:
        if rule.is_fact:
            continue
        rule_cost = _rule_cost(rule, estimator)
        total += rule_cost
        if rule_cost >= heaviest_cost:
            heaviest_cost = rule_cost
            heaviest = rule.label or str(rule.head)
    detail = (f"{len(candidate.program)} rules; heaviest "
              f"{heaviest} ~{heaviest_cost:.0f}") if heaviest else \
        f"{len(candidate.program)} rules"
    return total, detail


# ---------------------------------------------------------------------------
# plan choice
# ---------------------------------------------------------------------------

@dataclass
class ChosenPlan:
    """The optimizer's decision: cheapest candidate plus provenance.

    ``dropped`` names the ICs whose residue candidates were left out
    because the EDB violates them; ``reused`` is set when the choice
    came from the query pattern's prepared entry instead of a fresh
    enumeration.
    """

    program: Program
    transforms: tuple[str, ...]
    cost: float
    fingerprint: str
    magic: MagicProgram | None = field(default=None, repr=False)
    groups: int = 1
    paths: int = 1
    enumeration_seconds: float = 0.0
    table: list[tuple[str, str, float]] = field(default_factory=list,
                                                repr=False)
    dropped: tuple[str, ...] = ()
    reused: bool = False

    @property
    def label(self) -> str:
        return " + ".join(self.transforms) if self.transforms \
            else "identity"

    def describe(self) -> str:
        """Explain-style rendering of the enumeration and the choice."""
        how = ("reused, not re-enumerated (one enumeration per binding "
               "pattern and EDB version),") if self.reused \
            else "enumerated"
        lines = [f"cost-based optimizer: {self.groups} candidate "
                 f"group(s) from {self.paths} transform path(s) {how} "
                 f"in {self.enumeration_seconds * 1000.0:.1f} ms"]
        lines.extend(f"  residues of {label} dropped: the EDB violates it"
                     for label in self.dropped)
        for fingerprint, label, cost in self.table:
            marker = "*" if fingerprint == self.fingerprint else " "
            shown = "inf" if cost == INF else f"{cost:.0f}"
            lines.append(f"  {marker} {label}: cost ~{shown} "
                         f"[{fingerprint}]")
        lines.append(f"chosen: {self.label} (cost ~"
                     + ("inf" if self.cost == INF
                        else f"{self.cost:.0f}") + ")")
        return "\n".join(lines)


class PreparedPlan:
    """A choice kept for every query of one binding pattern.

    Nothing in a choice depends on the query's constants but the magic
    seed: the seed is a fact rule, which the cost model skips, the
    fingerprints leave out and the pricing analysis reads as one row of
    unknown value, and every other rewritten rule depends on the
    adornment only.  So :meth:`choice_for` re-seeds the kept choice, and
    label, cost, fingerprint, table and program equal a cold choice for
    the query.
    """

    __slots__ = ("choice", "dataflow")

    def __init__(self, choice: ChosenPlan,
                 dataflow: "DataflowResult | None") -> None:
        self.choice = replace(choice)
        #: The analysis the costs were priced with.
        self.dataflow = dataflow

    def choice_for(self, query: Atom | None, start: float) -> ChosenPlan:
        """The kept choice, seeded for ``query`` (of the kept pattern)."""
        kept = self.choice
        magic = kept.magic
        if magic is not None:
            assert query is not None
            magic = reseed(magic, query)
        return replace(
            kept, program=kept.program if magic is None else magic.program,
            magic=magic, enumeration_seconds=perf_counter() - start,
            reused=True)


def _violated(ics: tuple, edb: Database) -> tuple[int, ...]:
    """Positions of the ICs ``edb`` violates (one violation each is
    enough)."""
    from ..constraints.checker import violations

    return tuple(index for index, ic in enumerate(ics)
                 if next(violations(ic, edb, limit=1), None) is not None)


def _candidate_dataflow(candidate: PlanCandidate, edb: Database,
                        dataflow: "DataflowResult | None",
                        ) -> "DataflowResult | None":
    """The analysis ``candidate`` is priced with: ``dataflow`` for the
    identity program, else the analysis of the candidate's own program.

    Rewrites are analyzed with no query: the cost model reads sizes and
    distinct counts, not adornments, and a magic candidate's seed (in
    its program) already says what is bound.  The seed is read as one
    row of unknown value in the domain ``dataflow`` gives the query
    column it binds (any value without one), so the price is the
    pattern's, not the query's.  A candidate whose analysis fails is
    priced with ``dataflow``.
    """
    if not candidate.transforms:
        return dataflow
    from ..analysis.dataflow import TOP, analyze_dataflow, analyze_seeded
    magic = candidate.magic
    try:
        if magic is None:
            return analyze_dataflow(candidate.program, edb=edb)
        pred, _, adornment = magic.query_pred.rpartition("__")
        columns = None if dataflow is None else dataflow.columns.get(pred)
        return analyze_seeded(
            candidate.program, edb, magic.seed,
            [TOP if columns is None else columns[column]
             for column, mark in enumerate(adornment) if mark == "b"])
    except ReproError:
        return dataflow


def choose_plan(program: Program, edb: Database,
                query: Atom | None = None, ics: Sequence = (),
                budget: Budget | None = None,
                dataflow: "DataflowResult | None" = None) -> ChosenPlan:
    """Enumerate the rewrite space and pick the cheapest candidate.

    Ties break toward fewer transforms, then enumeration order, so the
    identity program wins any dead heat and the choice is deterministic.

    Residue pushing assumes the EDB satisfies the IC: an IC with a
    violation in ``edb`` gets no residue candidate, and the choice's
    ``dropped`` names it.

    The choice depends on the query only through its predicate and
    adornment, so it is kept in the pattern's prepared entry
    (:mod:`repro.engine.prepared`) and later queries of the pattern get
    it re-seeded with their constants (``reused``, equal to a fresh
    enumeration; see :class:`PreparedPlan`) until the EDB's stamp
    moves.  So the analyses below run once per pattern and stamp.

    Every candidate is priced with a dataflow analysis of its own
    program: the identity candidate with ``dataflow``, which defaults
    to :func:`~repro.analysis.dataflow.analyze_dataflow`'s result
    (another analysis object is priced afresh and nothing is kept),
    every other with the analysis of its rewritten program, with no
    query (a magic candidate's seed read as one row of unknown value in
    its column's domain).  A candidate whose
    analysis raises :class:`~repro.errors.ReproError` is priced with
    ``dataflow``.  The arity check and ``budget`` run on every call.  While a chaos plan is
    active nothing is reused or kept: its faults must reach every stage
    and its degraded choices must not outlive it.
    """
    start = perf_counter()
    budget = resolve_budget(budget)
    check_edb_arities(program, edb)
    ics = tuple(ics)
    entry = prepared(program, edb, query, ics) \
        if chaos.active_plan() is None else None
    if entry is None:
        violated = _violated(ics, edb)
    else:
        plan = entry.plan
        if plan is not None \
                and (dataflow is None or dataflow is plan.dataflow):
            if budget is not None:
                budget.check_round(last_round=None)
            return plan.choice_for(query, start)
        violated = entry.violated
        if violated is None:
            violated = entry.violated = _violated(ics, edb)
    keep = entry is not None
    if dataflow is None:
        from ..analysis.dataflow import analyze_dataflow
        try:
            dataflow = analyze_dataflow(program, edb=edb, query=query)
        except ReproError:
            dataflow = None
    elif keep:
        own = prepared(program, edb, query)
        keep = own is not None and dataflow is own.dataflow
    memo = _enumerate(program, query, ics, budget, violated)
    best: MemoGroup | None = None
    best_key: tuple[float, int, int] | None = None
    table: list[tuple[str, str, float]] = []
    for index, group in enumerate(memo):
        flow = _candidate_dataflow(group.candidate, edb, dataflow)
        group.cost, group.detail = estimate_program_cost(
            group.candidate, edb, flow)
        table.append((group.fingerprint, group.candidate.label,
                      group.cost))
        key = (group.cost, len(group.candidate.transforms), index)
        if best_key is None or key < best_key:
            best, best_key = group, key
    assert best is not None  # the identity candidate is always present
    labels = _ic_labels(ics)
    choice = ChosenPlan(program=best.candidate.program,
                        transforms=best.candidate.transforms,
                        cost=best.cost, fingerprint=best.fingerprint,
                        magic=best.candidate.magic, groups=len(memo),
                        paths=memo.paths,
                        enumeration_seconds=perf_counter() - start,
                        table=table,
                        dropped=tuple(labels[index] for index in violated))
    if keep:
        assert entry is not None
        entry.plan = PreparedPlan(choice, dataflow)
    return choice


# ---------------------------------------------------------------------------
# query-bearing evaluation entry points
# ---------------------------------------------------------------------------

def cbo_evaluate(program: Program, edb: Database,
                 query: Atom | None = None, ics: Sequence = (),
                 budget: Budget | None = None,
                 executor: str = "compiled", interning: str = "off",
                 choice: ChosenPlan | None = None,
                 ) -> "EvaluationResult":
    """Evaluate ``program`` under the plan the enumerating optimizer picks.

    The whole rewrite space engages here (magic, residues and
    linearization — see :func:`enumerate_candidates`); the chosen
    candidate then runs semi-naively with ``planner="adaptive"``.  The result's ``choice``
    attribute carries the :class:`ChosenPlan`; when magic was chosen the
    result's ``magic`` field is set and answers should be read through
    :func:`cbo_answers`.  ``budget`` covers enumeration *and*
    evaluation.

    Like the choice, the compiled kernels are kept per binding pattern:
    the compiled executor runs with the prepared entry's
    :class:`~repro.engine.compile.KernelCache`, so a kernel is planned
    from the statistics of the first query of the pattern that fires it
    and reused by every later one until the EDB's stamp moves.  A magic
    seed, a fact, gets no kernel: its firing inserts its head row, and
    the re-seeded program keeps the strata of the kept one, so a query
    of a prepared pattern generates no code and stratifies nothing.
    """
    from ..facts.symbols import validate_interning
    from .compile import validate_executor
    from .engine import EvaluationResult
    from .seminaive import seminaive_evaluate

    validate_executor(executor)
    validate_interning(interning)
    budget = resolve_budget(budget)
    if interning == "on":
        edb = edb.interned()
    if choice is None:
        choice = choose_plan(program, edb, query=query, ics=ics,
                             budget=budget)
    kernels = None
    if executor == "compiled":
        entry = prepared(program, edb, query, ics)
        kernels = None if entry is None else entry.kernels
    stats = EvalStats()
    start = perf_counter()
    idb = seminaive_evaluate(choice.program, edb, stats, budget=budget,
                             planner="adaptive", executor=executor,
                             kernels=kernels)
    elapsed = perf_counter() - start
    return EvaluationResult(choice.program, edb, idb, stats, elapsed,
                            method="seminaive+cbo", magic=choice.magic,
                            executor=executor, choice=choice)


def cbo_answers(program: Program, edb: Database, query: Atom,
                ics: Sequence = (), budget: Budget | None = None,
                executor: str = "compiled", interning: str = "off",
                choice: ChosenPlan | None = None) -> frozenset[tuple]:
    """Answers to ``query`` under the optimizer's chosen plan.

    Full tuples of the query predicate, filtered on the query's
    constant positions — the same contract as
    :func:`repro.engine.magic_answers` regardless of whether the chosen
    candidate was a magic rewrite.  A stream of queries of one binding
    pattern over one EDB version analyzes, plans and compiles once
    (see :func:`choose_plan` and :func:`cbo_evaluate`); each query pays
    its own seed and fixpoint.  Residue candidates of ICs the EDB
    violates are never chosen.
    """
    from .engine import select_answers

    result = cbo_evaluate(program, edb, query=query, ics=ics,
                          budget=budget, executor=executor,
                          interning=interning, choice=choice)
    if result.magic is not None:
        return select_answers(result.idb, query,
                              pred=result.magic.query_pred)
    if query.pred in result.program.idb_predicates:
        return select_answers(result.idb, query)
    return select_answers(result.edb, query)
