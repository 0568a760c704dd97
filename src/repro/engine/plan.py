"""Join-plan introspection.

The planners decide a join order when a rule's kernel is compiled
(:func:`repro.engine.fire.compile_firing`), from relation sizes
(greedy) or live cardinality statistics (adaptive); this module
compiles the same kernels to expose those decisions for inspection, which makes discussions like experiment E2's ("whose
anchor is better?") concrete: ``explain_plan`` shows, per rule, the
order literals would run in, which index pattern each atom would be
probed with, and — under the adaptive planner — the estimated rows per
probe, read from the same :meth:`Relation.probe_estimate` the engines
cost their kernels with.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Variable
from ..facts.database import Database
from ..facts.relation import Relation
from ..facts.symbols import SymbolTable
from .bindings import (Fetch, bound_columns_of, frontier_occurrences,
                       validate_planner)
from .compile import CompiledKernel
from .fire import compile_firing


@dataclass(frozen=True)
class PlanStep:
    """One literal of a rule's execution plan.

    Attributes:
        literal: the literal, as written.
        kind: ``scan`` (no bound columns), ``probe`` (indexed lookup),
            ``member`` (every column bound: a membership test),
            ``check`` (comparison / negation test), or ``bind``
            (an ``=`` that assigns); an atom's kind is its kernel's.
        bound_columns: 0-based columns bound at probe time (atoms only).
        relation_size: the relation's size at planning time (atoms only).
        estimate: estimated rows matched per probe, from live relation
            statistics (adaptive planner only).
    """

    literal: object
    kind: str
    bound_columns: tuple[int, ...] = ()
    relation_size: int | None = None
    estimate: float | None = None

    def render(self) -> str:
        if self.relation_size is None:
            return f"{self.kind:12} {self.literal}"
        columns = ",".join(str(c) for c in self.bound_columns)
        detail = f"probe[{columns}]" if self.kind == "probe" else self.kind
        text = f"{detail:12} {self.literal}  (~{self.relation_size} rows"
        if self.estimate is not None:
            text += f", est {self.estimate:g}/probe"
        return text + ")"


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


def _round0_kernel(rule: Rule, program: Program, edb: Database,
                   idb: Database | None, planner: str,
                   symbols: SymbolTable | None = None
                   ) -> tuple[Fetch, CompiledKernel]:
    """What ``rule``'s firing in the *initialization round* of its
    stratum reads, and the kernel it is compiled to.

    ``fetch`` resolves IDB atoms from ``idb`` when given (what earlier
    strata and earlier rules of the round have derived, or a finished
    evaluation's result) and to an empty relation otherwise, matching
    what the engine sees at the start of the fixpoint.  The kernel comes
    from :func:`repro.engine.fire.compile_firing` — the function every
    engine firing is planned by, same frontier rule — so an explained
    plan is the plan a :class:`~repro.engine.fire.Firer` compiles for
    that firing.
    """
    validate_planner(planner)
    stratum: frozenset[str] = frozenset((rule.head.pred,))
    for group in program.recursion_info().mutual_groups:
        if rule.head.pred in group:
            stratum = group

    def fetch(atom: Atom, index: int) -> Relation:
        if atom.pred not in program.idb_predicates:
            return edb.relation_or_empty(atom.pred, atom.arity)
        if idb is not None and atom.pred in idb:
            return idb.relation(atom.pred)
        return Relation(atom.pred, atom.arity)

    return fetch, compile_firing(
        rule, fetch, frontier_occurrences(rule, stratum, None), planner,
        symbols=symbols)


def plan_rule(rule: Rule, program: Program, edb: Database,
              idb: Database | None = None,
              planner: str = "greedy") -> RulePlan:
    """Compute the execution plan one rule would use.

    The order and the estimates are those of :func:`_round0_kernel`'s
    kernel, and so is each atom's step kind (a fully bound atom is the
    kernel's ``member`` test); each atom's size is read through the same
    ``fetch``.
    """
    if rule.is_fact:
        # A fact fires as its head row: there is nothing to plan.
        validate_planner(planner)
        return RulePlan(rule, (), planner=planner)
    fetch, kernel = _round0_kernel(rule, program, edb, idb, planner)
    kinds = {source[0]: source[3] for source in kernel.sources}
    bound: set[Variable] = set()
    steps: list[PlanStep] = []
    for index in kernel.order:
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
        steps.append(PlanStep(
            literal, kinds[index], bound_columns_of(literal, bound),
            len(fetch(literal, index)), kernel.plan_costs.get(index)))
        bound.update(literal.variable_set())
    return RulePlan(rule, tuple(steps), planner=planner)


def _stats_section(edb: Database, idb: Database | None) -> str:
    """Render the statistics the adaptive planner reads per relation."""
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
            distinct = ",".join(str(relation.distinct_count(column))
                                for column in range(relation.arity))
            lines.append(
                f"  {label} {name}/{relation.arity}: "
                f"{len(relation)} rows, distinct=[{distinct}]")
    if len(lines) == 1:
        lines.append("  (no relations)")
    return "\n".join(lines)


def explain_plan(program: Program, edb: Database,
                 idb: Database | None = None,
                 planner: str = "greedy",
                 show_stats: bool = False) -> str:
    """Render the plans of every rule of the program.

    With ``show_stats`` a trailing section lists, per relation, the
    cardinality and per-column distinct counts the estimates were
    derived from (``repro explain --stats``).
    """
    body = "\n\n".join(
        plan_rule(rule, program, edb, idb, planner).render()
        for rule in program)
    if show_stats:
        body += "\n\n" + _stats_section(edb, idb)
    return body


def explain_kernels(program: Program, edb: Database,
                    idb: Database | None = None,
                    planner: str = "greedy",
                    show_stats: bool = False) -> str:
    """Render the compiled kernel of every rule of the program.

    This is the compiled-executor counterpart of :func:`explain_plan`:
    it shows the step program each rule is lowered to (probe patterns,
    slot binds, checks) and the source of the generated function it
    runs as, compiled against the same size estimates :func:`plan_rule`
    uses (including, under ``planner="adaptive"``, the
    statistics-estimated rows per probe) and against the EDB's symbol
    table when it is interned.  A fact has no kernel: the engines
    insert its head row as it stands, and it is rendered as such.
    """
    def describe(rule: Rule) -> str:
        if rule.is_fact:
            validate_planner(planner)
            return (f"{rule.label or '?'}: {rule} "
                    "[fact: its head row is inserted, no kernel]")
        _fetch, kernel = _round0_kernel(rule, program, edb, idb, planner,
                                        edb.symbols)
        return kernel.describe()

    body = "\n\n".join(map(describe, program))
    if show_stats:
        body += "\n\n" + _stats_section(edb, idb)
    return body
