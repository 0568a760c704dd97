"""Join-plan introspection.

The planners in :mod:`repro.engine.bindings` decide join orders at
evaluation time from relation sizes (greedy) or live cardinality
statistics (adaptive); this module exposes those decisions for
inspection, which makes discussions like experiment E2's ("whose
anchor is better?") concrete: ``explain_plan`` shows, per rule, the
order literals would run in, which index pattern each atom would be
probed with, and — under the adaptive planner — the estimated rows per
probe and the statistics epoch the estimate was derived from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Variable
from ..facts.database import Database
from ..facts.relation import Relation
from .bindings import bound_columns_of, plan_body, validate_planner

if TYPE_CHECKING:
    from ..analysis.dataflow import DataflowResult


@dataclass(frozen=True)
class PlanStep:
    """One literal of a rule's execution plan.

    Attributes:
        literal: the literal, as written.
        kind: ``scan`` (no bound columns), ``probe`` (indexed lookup),
            ``check`` (comparison / negation test), or ``bind``
            (an ``=`` that assigns).
        bound_columns: 0-based columns bound at probe time (atoms only).
        relation_size: the relation's size at planning time (atoms only).
        estimate: estimated rows matched per probe, from live relation
            statistics (adaptive planner only).
        stats_epoch: the statistics epoch the estimate was read at
            (adaptive planner only) — identifies *which* state of the
            relation the plan was derived from.
    """

    literal: object
    kind: str
    bound_columns: tuple[int, ...] = ()
    relation_size: int | None = None
    estimate: float | None = None
    stats_epoch: int | None = None

    def render(self) -> str:
        if self.kind in ("scan", "probe"):
            columns = ",".join(str(c) for c in self.bound_columns)
            detail = f"probe[{columns}]" if self.kind == "probe" \
                else "scan"
            text = f"{detail:12} {self.literal}  " \
                   f"(~{self.relation_size} rows"
            if self.estimate is not None:
                text += f", est {self.estimate:g}/probe"
                if self.stats_epoch is not None:
                    text += f" @epoch {self.stats_epoch}"
            return text + ")"
        return f"{self.kind:12} {self.literal}"


@dataclass(frozen=True)
class RulePlan:
    """The ordered plan of one rule."""

    rule: Rule
    steps: tuple[PlanStep, ...]
    planner: str = "greedy"

    def render(self) -> str:
        lines = [f"{self.rule.label or '?'}: {self.rule}"]
        for index, step in enumerate(self.steps, start=1):
            lines.append(f"  {index}. {step.render()}")
        return "\n".join(lines)


def plan_rule(rule: Rule, program: Program, edb: Database,
              idb: Database | None = None,
              planner: str = "greedy",
              dataflow: "DataflowResult | None" = None) -> RulePlan:
    """Compute the execution plan one rule would use.

    IDB relation sizes come from ``idb`` when given (e.g. a finished
    evaluation's result) and are treated as empty otherwise, matching
    what the engine would see at the start of the fixpoint.  The body
    ``index`` of each occurrence is threaded through to the size and
    cost callbacks, exactly as the engines' delta-aware ``fetch`` does,
    so per-occurrence resolution stays faithful to execution.  When
    ``dataflow`` is given, the adaptive planner seeds cold (missing or
    empty) relations with the analysis's static size bounds instead of
    a flat zero, mirroring the engines.
    """
    validate_planner(planner)

    def relation_for(atom: Atom, index: int) -> Relation | None:
        if atom.pred in program.idb_predicates:
            if idb is not None and atom.pred in idb:
                return idb.relation(atom.pred)
            return None
        return edb.relation_or_empty(atom.pred, atom.arity)

    def sizes(atom: Atom, index: int) -> int:
        relation = relation_for(atom, index)
        return len(relation) if relation is not None else 0

    cost = None
    if planner in ("adaptive", "cbo"):
        def cost(atom: Atom, index: int,
                 bound_cols: tuple[int, ...]) -> float:
            relation = relation_for(atom, index)
            if relation is None or not len(relation):
                if dataflow is not None:
                    return dataflow.probe_estimate(atom.pred, bound_cols)
                return 0.0
            return relation.enable_stats().probe_estimate(bound_cols)

    order = plan_body(rule, sizes,
                      keep_atom_order=(planner == "source"), cost=cost)
    bound: set[Variable] = set()
    steps: list[PlanStep] = []
    for index in order:
        literal = rule.body[index]
        if isinstance(literal, Comparison):
            kind = "bind" if literal.op == "=" and not \
                literal.variable_set() <= bound else "check"
            steps.append(PlanStep(literal, kind))
            bound.update(literal.variable_set())
            continue
        if isinstance(literal, Negation):
            steps.append(PlanStep(literal, "check"))
            continue
        columns = bound_columns_of(literal, bound)
        estimate = epoch = None
        if cost is not None:
            estimate = cost(literal, index, columns)
            relation = relation_for(literal, index)
            if relation is not None and relation.stats is not None:
                epoch = relation.stats.epoch
        steps.append(PlanStep(
            literal, "probe" if columns else "scan", columns,
            sizes(literal, index), estimate, epoch))
        bound.update(literal.variable_set())
    return RulePlan(rule, tuple(steps), planner=planner)


def _stats_section(program: Program, edb: Database,
                   idb: Database | None) -> str:
    """Render the live statistics every referenced relation carries."""
    lines = ["statistics:"]
    seen: set[str] = set()
    for label, db in (("edb", edb), ("idb", idb)):
        if db is None:
            continue
        for name in sorted(db):
            if name in seen:
                continue
            seen.add(name)
            relation = db.relation(name)
            stats = relation.enable_stats()
            distinct = ",".join(str(stats.distinct(column))
                                for column in range(relation.arity))
            lines.append(
                f"  {label} {name}/{relation.arity}: "
                f"{stats.cardinality} rows, distinct=[{distinct}], "
                f"epoch={stats.epoch}")
    if len(lines) == 1:
        lines.append("  (no relations)")
    return "\n".join(lines)


def explain_plan(program: Program, edb: Database,
                 idb: Database | None = None,
                 planner: str = "greedy",
                 show_stats: bool = False,
                 dataflow: "DataflowResult | None" = None) -> str:
    """Render the plans of every rule of the program.

    With ``show_stats`` a trailing section lists, per relation, the
    cardinality, per-column distinct counts and statistics epoch the
    estimates were derived from (``repro explain --stats``).
    ``dataflow`` is as in :func:`plan_rule`.
    """
    body = "\n\n".join(
        plan_rule(rule, program, edb, idb, planner,
                  dataflow=dataflow).render()
        for rule in program)
    if show_stats:
        body += "\n\n" + _stats_section(program, edb, idb)
    return body


def explain_kernels(program: Program, edb: Database,
                    idb: Database | None = None,
                    planner: str = "greedy",
                    show_stats: bool = False,
                    dataflow: "DataflowResult | None" = None) -> str:
    """Render the compiled kernel of every rule of the program.

    This is the compiled-executor counterpart of :func:`explain_plan`:
    it shows the step program each rule is lowered to (probe patterns,
    slot binds, checks) and the back end it runs on — the generated
    function's source, or why the rule runs the per-row chain —
    compiled against the same size estimates :func:`plan_rule` uses
    (including, under ``planner="adaptive"``, the statistics-estimated
    rows per probe), against the EDB's symbol table when it is
    interned, and with ``dataflow``'s provably-true comparisons elided.
    """
    from .compile import CompiledKernel

    validate_planner(planner)

    def relation_for(atom: Atom, index: int) -> Relation | None:
        if atom.pred in program.idb_predicates:
            if idb is not None and atom.pred in idb:
                return idb.relation(atom.pred)
            return None
        return edb.relation_or_empty(atom.pred, atom.arity)

    def relation_size(atom: Atom, index: int) -> int:
        relation = relation_for(atom, index)
        return len(relation) if relation is not None else 0

    cost = None
    if planner in ("adaptive", "cbo"):
        def cost(atom: Atom, index: int,
                 bound_cols: tuple[int, ...]) -> float:
            relation = relation_for(atom, index)
            if relation is None or not len(relation):
                if dataflow is not None:
                    return dataflow.probe_estimate(atom.pred, bound_cols)
                return 0.0
            return relation.enable_stats().probe_estimate(bound_cols)

    true_checks = dataflow.true_checks if dataflow is not None else {}
    body = "\n\n".join(
        CompiledKernel(rule, relation_size,
                       keep_atom_order=(planner == "source"),
                       cost=cost, symbols=edb.symbols,
                       true_checks=true_checks.get(rule, frozenset())
                       ).describe()
        for rule in program)
    if show_stats:
        body += "\n\n" + _stats_section(program, edb, idb)
    return body
