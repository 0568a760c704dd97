"""The analysis passes and their registry.

Each pass inspects an :class:`AnalysisContext` — a program, optional
integrity constraints and an optional query — and yields
:class:`Diagnostic` findings.  Passes are registered by name with the
codes they may emit, so tooling (the ``lint`` CLI, the docs, the test
suite's coverage assertion) can enumerate them.

The severity table :data:`CODES` is the single source of truth: the
severity of a code is looked up there, never restated at emission
sites, so a code always means the same thing everywhere.

The *error*-severity passes mirror exactly the preconditions the
engines and the optimizer enforce at runtime (``validate_program``,
``require_linear``, ``stratify``, ``_check_atom_args``,
``validate_ics``): a program with no error-level findings loads, and a
program with one fails to load with the same complaint the lint already
gave — with a source location attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

import networkx as nx

from ..constraints.ic import IntegrityConstraint
from ..datalog.analysis import (bound_variables, is_range_restricted,
                                rule_is_connected)
from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.program import Program
from ..datalog.rules import Rule, is_connected
from ..datalog.spans import Span
from ..datalog.terms import ArithExpr, Constant, Variable
from ..engine import builtins
from ..engine.bindings import bound_columns_of, plan_body
from .diagnostics import AnalysisReport, Diagnostic

#: code -> (severity, one-line summary).  Codes are stable: they never
#: change meaning; new checks get new codes.
CODES: dict[str, tuple[str, str]] = {
    "RR001": ("error", "rule is not range restricted"),
    "SAFE001": ("error",
                "variable not bound by a positive database atom"),
    "SAFE002": ("error", "arithmetic expression inside a database atom"),
    "CONN001": ("warning", "rule body is not connected"),
    "LIN001": ("error", "mutual recursion between predicates"),
    "LIN002": ("error", "rule is non-linear in its recursive component"),
    "STRAT001": ("error", "negation on a recursive cycle"),
    "ARITY001": ("error", "predicate used with inconsistent arities"),
    "TYPE001": ("warning", "predicate column mixes constant types"),
    "DEAD001": ("warning", "rule unreachable from the query"),
    "DEAD002": ("warning", "predicate unreachable from the query"),
    "VAR001": ("warning", "variable occurs only once in its rule"),
    "IC001": ("error", "IC mentions IDB predicates"),
    "IC002": ("warning", "IC is not connected"),
    "IC003": ("info", "IC is not chain-shaped (Algorithm 3.1)"),
    "IC004": ("info", "IC yields no useful residue for the recursion"),
    "PERF002": ("warning", "positive atoms form a guaranteed cross product"),
    "PERF003": ("warning", "source-order evaluation forces a cross product"),
    "PERF004": ("warning",
                "recursive existence guard degrades deletion maintenance"),
    "TYPE002": ("warning",
                "rule heads give a predicate column conflicting types"),
    "DEAD003": ("warning", "predicate is provably empty"),
    "SAT001": ("warning", "comparison is statically unsatisfiable"),
    "BOUND001": ("warning",
                 "non-linear recursion has no static size bound"),
    "PARSE001": ("error", "source text could not be parsed"),
}


#: The passes whose error findings are *preconditions*: programs that
#: fail them are rejected by ``repro evaluate``/``optimize`` at load
#: time (matching the historical ``validate_program(...).ok`` gate).
PRECONDITION_PASSES: tuple[str, ...] = ("range-restriction", "safety",
                                        "linearity")


def severity_of(code: str) -> str:
    return CODES[code][0]


def make_diagnostic(code: str, message: str, *, span: Span | None = None,
                    rule: str | None = None, subject: str | None = None,
                    pass_name: str = "") -> Diagnostic:
    """Build a :class:`Diagnostic` with the severity from :data:`CODES`."""
    return Diagnostic(code=code, severity=severity_of(code), message=message,
                      span=span, rule_label=rule, subject=subject,
                      pass_name=pass_name)


@dataclass
class AnalysisContext:
    """Everything a pass may look at.

    Attributes:
        program: the program under analysis.
        ics: integrity constraints to check alongside the program.
        query: the query atom, when known; query-dependent passes
            (reachability, residue usefulness) are skipped without one.
        source: the source text the program was parsed from, used only
            for rendering excerpts — never consulted by passes.
    """

    program: Program
    ics: tuple[IntegrityConstraint, ...] = ()
    query: Atom | None = None
    source: str | None = None


PassFn = Callable[[AnalysisContext], Iterable[Diagnostic]]


@dataclass(frozen=True)
class AnalysisPass:
    """A registered pass: its name, emittable codes and entry point."""

    name: str
    codes: tuple[str, ...]
    description: str
    run: PassFn = field(compare=False)


#: Registry of all passes, in registration (= execution) order.
REGISTRY: dict[str, AnalysisPass] = {}


def register(name: str, codes: Iterable[str],
             description: str) -> Callable[[PassFn], PassFn]:
    """Class-level decorator adding a pass to :data:`REGISTRY`."""
    code_tuple = tuple(codes)
    for code in code_tuple:
        if code not in CODES:
            raise ValueError(f"pass {name!r} declares unknown code {code}")

    def decorate(fn: PassFn) -> PassFn:
        if name in REGISTRY:
            raise ValueError(f"duplicate pass name {name!r}")
        REGISTRY[name] = AnalysisPass(name, code_tuple, description, fn)
        return fn

    return decorate


def run_passes(context: AnalysisContext,
               names: Iterable[str] | None = None) -> AnalysisReport:
    """Run the selected passes (all by default) and collect a report."""
    report = AnalysisReport(source=context.source)
    selected = list(names) if names is not None else list(REGISTRY)
    for name in selected:
        try:
            analysis_pass = REGISTRY[name]
        except KeyError:
            import difflib
            close = difflib.get_close_matches(name, list(REGISTRY), n=1)
            hint = f" (did you mean {close[0]!r}?)" if close else ""
            raise ValueError(
                f"unknown analysis pass {name!r}{hint}; "
                f"known: {', '.join(REGISTRY)}") from None
        for diagnostic in analysis_pass.run(context):
            if diagnostic.pass_name:
                report.diagnostics.append(diagnostic)
            else:
                report.diagnostics.append(
                    Diagnostic(code=diagnostic.code,
                               severity=diagnostic.severity,
                               message=diagnostic.message,
                               span=diagnostic.span,
                               rule_label=diagnostic.rule_label,
                               subject=diagnostic.subject,
                               pass_name=name))
    report.sort()
    return report


def analyze_program(program: Program,
                    ics: Iterable[IntegrityConstraint] = (),
                    query: Atom | None = None,
                    source: str | None = None,
                    names: Iterable[str] | None = None) -> AnalysisReport:
    """Convenience wrapper: build a context and run the passes."""
    context = AnalysisContext(program=program, ics=tuple(ics), query=query,
                              source=source)
    return run_passes(context, names)


# ---------------------------------------------------------------------------
# helpers shared by several passes
# ---------------------------------------------------------------------------

def _rule_span(rule: Rule) -> Span | None:
    return rule.span if rule.span is not None else rule.head.span


def _names(variables: Iterable[Variable]) -> str:
    return ", ".join(sorted(v.name for v in variables))


# ---------------------------------------------------------------------------
# 1. range restriction (paper assumption 1)
# ---------------------------------------------------------------------------

@register("range-restriction", ["RR001"],
          "every head variable must appear in the body (assumption 1)")
def check_range_restriction(context: AnalysisContext) -> Iterator[Diagnostic]:
    for rule in context.program:
        if is_range_restricted(rule):
            continue
        missing = rule.head_variables() - rule.body_variables()
        yield make_diagnostic(
            "RR001",
            f"head variable{'s' if len(missing) > 1 else ''} "
            f"{_names(missing)} never appear{'s' if len(missing) == 1 else ''}"
            f" in the body; the rule is not range restricted",
            span=rule.head.span or rule.span, rule=rule.label,
            subject=rule.head.pred)


# ---------------------------------------------------------------------------
# 2. safety (engine precondition)
# ---------------------------------------------------------------------------

@register("safety", ["SAFE001", "SAFE002"],
          "every variable must be bound by positive atoms (via = chains); "
          "database atoms take only variables and constants")
def check_safety(context: AnalysisContext) -> Iterator[Diagnostic]:
    for rule in context.program:
        bound = bound_variables(rule)
        in_body = rule.body_variables()
        flagged: set[Variable] = set()
        for lit in rule.body:
            if isinstance(lit, (Atom, Negation)):
                atom = lit if isinstance(lit, Atom) else lit.atom
                if any(isinstance(arg, ArithExpr) for arg in atom.args):
                    yield make_diagnostic(
                        "SAFE002",
                        f"database atom {atom} contains an arithmetic "
                        "expression; compute it with '=' into a fresh "
                        "variable instead",
                        span=lit.span or _rule_span(rule), rule=rule.label,
                        subject=atom.pred)
            if isinstance(lit, Negation):
                unbound = (lit.variable_set() & in_body) - bound
                if unbound:
                    flagged.update(unbound)
                    yield make_diagnostic(
                        "SAFE001",
                        f"variable{'s' if len(unbound) > 1 else ''} "
                        f"{_names(unbound)} in {lit} not bound by a "
                        "positive database atom",
                        span=lit.span or _rule_span(rule), rule=rule.label)
            elif isinstance(lit, Comparison):
                unbound = lit.variable_set() - bound
                if unbound:
                    flagged.update(unbound)
                    yield make_diagnostic(
                        "SAFE001",
                        f"variable{'s' if len(unbound) > 1 else ''} "
                        f"{_names(unbound)} in {lit} cannot be bound; "
                        "comparisons only check or compute over already "
                        "bound variables",
                        span=lit.span or _rule_span(rule), rule=rule.label)
        head_unbound = (rule.head_variables() & in_body) - bound - flagged
        if head_unbound:
            yield make_diagnostic(
                "SAFE001",
                f"head variable{'s' if len(head_unbound) > 1 else ''} "
                f"{_names(head_unbound)} only appear{'s' if len(head_unbound) == 1 else ''} "
                "in comparisons or negations and cannot be bound",
                span=rule.head.span or rule.span, rule=rule.label,
                subject=rule.head.pred)


# ---------------------------------------------------------------------------
# 3. connectivity (paper assumption 2)
# ---------------------------------------------------------------------------

@register("connectivity", ["CONN001"],
          "rule bodies should form one variable-connected component "
          "(assumption 2)")
def check_connectivity(context: AnalysisContext) -> Iterator[Diagnostic]:
    for rule in context.program:
        if rule.body and not rule_is_connected(rule):
            yield make_diagnostic(
                "CONN001",
                "rule body is not connected: some literals share no "
                "variables with the rest (the paper's assumption 2); "
                "the join degenerates to a cross product",
                span=_rule_span(rule), rule=rule.label,
                subject=rule.head.pred)


# ---------------------------------------------------------------------------
# 4. linearity / mutual recursion (paper assumption 3)
# ---------------------------------------------------------------------------

@register("linearity", ["LIN001", "LIN002"],
          "recursion must be linear and not mutual (assumption 3)")
def check_linearity(context: AnalysisContext) -> Iterator[Diagnostic]:
    program = context.program
    info = program.recursion_info()
    for group in info.mutual_groups:
        members = sorted(group)
        span = None
        for pred in members:
            rules = program.rules_for(pred)
            if rules:
                span = _rule_span(rules[0])
                break
        yield make_diagnostic(
            "LIN001",
            f"predicates {', '.join(members)} are mutually recursive; "
            "the paper's algorithms require linear recursion without "
            "mutual recursion",
            span=span, subject=members[0])
    scc_of = info.component_of
    recursive = info.recursive_predicates
    for rule in program:
        head = rule.head.pred
        if head not in recursive:
            continue
        component = scc_of[head]
        same = [a for a in rule.database_atoms()
                if a.pred in recursive and scc_of.get(a.pred) == component]
        if len(same) > 1:
            yield make_diagnostic(
                "LIN002",
                f"rule is non-linear: its body mentions the recursive "
                f"component of {head} {len(same)} times "
                f"({', '.join(str(a) for a in same)})",
                span=_rule_span(rule), rule=rule.label, subject=head)


# ---------------------------------------------------------------------------
# 5. stratification
# ---------------------------------------------------------------------------

@register("stratification", ["STRAT001"],
          "negation must not occur on a recursive cycle")
def check_stratification(context: AnalysisContext) -> Iterator[Diagnostic]:
    program = context.program
    graph = program.dependency_graph()
    scc_of = program.recursion_info().component_of
    for source, target, data in sorted(graph.edges(data=True)):
        if not data.get("negative") or scc_of[source] != scc_of[target]:
            continue
        try:
            back = nx.shortest_path(graph, target, source)
        except nx.NetworkXNoPath:  # pragma: no cover - same SCC has a path
            back = [target, source]
        cycle = " -> ".join([*back, target])
        span = None
        label = None
        for rule in program.rules_for(target):
            for lit in rule.body:
                if isinstance(lit, Negation) and lit.atom.pred == source:
                    span = lit.span or _rule_span(rule)
                    label = rule.label
                    break
            if span is not None:
                break
        yield make_diagnostic(
            "STRAT001",
            f"program is not stratifiable: {target} depends negatively "
            f"on {source} inside the recursive cycle {cycle}",
            span=span, rule=label, subject=target)


# ---------------------------------------------------------------------------
# 6. arity and constant-type consistency
# ---------------------------------------------------------------------------

def _constant_kind(value: object) -> str:
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return "string"


def _program_atoms(context: AnalysisContext
                   ) -> Iterator[tuple[Atom, Rule | None]]:
    """Every database atom in rules, ICs and the query, with its rule."""
    for rule in context.program:
        yield rule.head, rule
        for lit in rule.body:
            if isinstance(lit, Atom):
                yield lit, rule
            elif isinstance(lit, Negation):
                yield lit.atom, rule
    for ic in context.ics:
        for lit in ic.all_literals():
            if isinstance(lit, Atom):
                yield lit, None
    if context.query is not None:
        yield context.query, None


@register("consistency", ["ARITY001", "TYPE001"],
          "predicates must keep one arity; columns should keep one "
          "constant type")
def check_consistency(context: AnalysisContext) -> Iterator[Diagnostic]:
    arities: dict[str, tuple[int, Atom]] = {}
    column_kinds: dict[tuple[str, int], dict[str, Atom]] = {}
    mismatched: set[str] = set()
    for atom, rule in _program_atoms(context):
        label = rule.label if rule is not None else None
        known = arities.setdefault(atom.pred, (atom.arity, atom))
        if known[0] != atom.arity and atom.pred not in mismatched:
            mismatched.add(atom.pred)
            yield make_diagnostic(
                "ARITY001",
                f"predicate {atom.pred} used with arity {atom.arity} here "
                f"but arity {known[0]} at {known[1]}",
                span=atom.span, rule=label, subject=atom.pred)
        for column, arg in enumerate(atom.args):
            if not isinstance(arg, Constant):
                continue
            kinds = column_kinds.setdefault((atom.pred, column), {})
            kind = _constant_kind(arg.value)
            kinds.setdefault(kind, atom)
            if len(kinds) == 2 and kind in kinds:
                first_kind, first_atom = next(
                    (k, a) for k, a in kinds.items() if k != kind)
                yield make_diagnostic(
                    "TYPE001",
                    f"column {column + 1} of {atom.pred} holds a {kind} "
                    f"constant here but a {first_kind} constant at "
                    f"{first_atom}; mixed types never join",
                    span=atom.span, rule=label, subject=atom.pred)
                kinds["__reported__"] = atom


# ---------------------------------------------------------------------------
# 7. reachability w.r.t. the query
# ---------------------------------------------------------------------------

@register("reachability", ["DEAD001", "DEAD002"],
          "rules and predicates should contribute to the query "
          "(skipped when no query is given)")
def check_reachability(context: AnalysisContext) -> Iterator[Diagnostic]:
    if context.query is None:
        return
    program = context.program
    graph = program.dependency_graph()
    goal = context.query.pred
    if goal in graph:
        reachable = set(nx.ancestors(graph, goal)) | {goal}
    else:
        reachable = {goal}
    for pred in sorted(program.idb_predicates - reachable):
        yield make_diagnostic(
            "DEAD002",
            f"predicate {pred} is never used when answering "
            f"?- {context.query}; its rules are dead code",
            subject=pred,
            span=_rule_span(program.rules_for(pred)[0]))
    for rule in program:
        if rule.head.pred in reachable:
            continue
        yield make_diagnostic(
            "DEAD001",
            f"rule defines {rule.head.pred}, which the query "
            f"?- {context.query} cannot reach",
            span=_rule_span(rule), rule=rule.label, subject=rule.head.pred)


# ---------------------------------------------------------------------------
# 8. singleton variables
# ---------------------------------------------------------------------------

@register("singleton-variables", ["VAR001"],
          "a variable used exactly once is usually a typo; prefix with "
          "'_' to silence")
def check_singletons(context: AnalysisContext) -> Iterator[Diagnostic]:
    for rule in context.program:
        counts: dict[Variable, int] = {}
        for variable in rule.head.variables():
            counts[variable] = counts.get(variable, 0) + 1
        for lit in rule.body:
            for variable in lit.variables():
                counts[variable] = counts.get(variable, 0) + 1
        singles = sorted((v.name for v, n in counts.items()
                          if n == 1 and not v.name.startswith("_")))
        if singles:
            yield make_diagnostic(
                "VAR001",
                f"variable{'s' if len(singles) > 1 else ''} "
                f"{', '.join(singles)} occur{'s' if len(singles) == 1 else ''}"
                " only once; prefix with '_' if intentional",
                span=_rule_span(rule), rule=rule.label,
                subject=rule.head.pred)


# ---------------------------------------------------------------------------
# 9. IC well-formedness (paper assumption 4 + Algorithm 3.1 applicability)
# ---------------------------------------------------------------------------

def _target_predicate(context: AnalysisContext) -> str | None:
    """The recursive predicate residues would be generated for."""
    info = context.program.recursion_info()
    recursive = info.recursive_predicates
    if context.query is not None and context.query.pred in recursive:
        return context.query.pred
    if len(recursive) == 1:
        return next(iter(recursive))
    return None


@register("ic-wellformedness", ["IC001", "IC002", "IC003", "IC004"],
          "ICs must be EDB-only and connected; chain shape and a useful "
          "residue make them optimizable")
def check_ics(context: AnalysisContext) -> Iterator[Diagnostic]:
    if not context.ics:
        return
    target = _target_predicate(context)
    for ic in context.ics:
        name = ic.label or str(ic)
        edb_only = ic.is_edb_only(context.program)
        if not edb_only:
            idb = sorted({a.pred for a in ic.database_atoms()
                          if not context.program.is_edb(a.pred)}
                         | ({ic.head.pred} if isinstance(ic.head, Atom)
                            and not context.program.is_edb(ic.head.pred)
                            else set()))
            yield make_diagnostic(
                "IC001",
                f"IC {name} mentions IDB predicate{'s' if len(idb) > 1 else ''} "
                f"{', '.join(idb)}; the paper considers EDB-only "
                "constraints (assumption 4)",
                span=ic.span, subject=ic.label)
        if not ic.is_connected():
            yield make_diagnostic(
                "IC002",
                f"IC {name} is not connected (assumption 2): some "
                "literals share no variables with the rest",
                span=ic.span, subject=ic.label)
            continue
        if not edb_only:
            continue
        if not ic.is_chain():
            yield make_diagnostic(
                "IC003",
                f"IC {name} is not chain-shaped, so Algorithm 3.1's "
                "SD-graph walk does not apply; the optimizer finds its "
                "residues with the bounded exhaustive enumerator instead",
                span=ic.span, subject=ic.label)
            continue
        if target is None:
            continue
        try:
            from ..core.residues import generate_residues
            residues = generate_residues(context.program, target, ic)
        except Exception:  # applicability precheck only — never fatal
            continue
        if not residues:
            yield make_diagnostic(
                "IC004",
                f"IC {name} yields no useful residue for the recursion "
                f"of {target}; pushing it would not specialize this "
                "program",
                span=ic.span, subject=ic.label)


# ---------------------------------------------------------------------------
# 10. performance lints
# ---------------------------------------------------------------------------

@register("perf", ["PERF002", "PERF003", "PERF004"],
          "hot-loop shape: cross-product-shaped join orders and "
          "existence guards that degrade deletion maintenance")
def check_perf(context: AnalysisContext) -> Iterator[Diagnostic]:
    program = context.program
    info = program.recursion_info()
    recursive, scc_of = info.recursive_predicates, info.component_of
    for rule in program:
        if not rule.body:
            continue
        yield from _existence_guards(rule, recursive, scc_of)
        atoms = rule.database_atoms()
        if len(atoms) > 1 and not is_connected(atoms):
            yield make_diagnostic(
                "PERF002",
                "the positive database atoms share no variables across "
                "some split, so every join order pays a cross product",
                span=_rule_span(rule), rule=rule.label,
                subject=rule.head.pred)
            continue  # PERF003 would restate the same problem
        cross = _source_order_cross_product(rule)
        if cross is not None:
            yield make_diagnostic(
                "PERF003",
                f"in source order, {cross} joins with no bound column "
                "(a cross product); the greedy planner reorders it, but "
                "a fixed-order evaluator would pay it — consider "
                "reordering the body",
                span=cross.span or _rule_span(rule), rule=rule.label,
                subject=rule.head.pred)


def _existence_guards(rule: Rule, recursive: frozenset[str],
                      scc_of: Mapping[str, frozenset[str]]
                      ) -> Iterator[Diagnostic]:
    """PERF004: recursive atoms whose bindings reach nothing else.

    A positive atom from the head's own recursive component whose
    variables touch neither the head nor any other body literal only
    *gates* the rule — any single row satisfies it.  Deletion
    maintenance (DRed) is degenerate on such a guard: removing one
    guard row overdeletes every head fact this rule derived, and the
    rederivation pass then restores almost all of them.
    """
    head_scc = scc_of.get(rule.head.pred)
    for position, lit in enumerate(rule.body):
        if not isinstance(lit, Atom) or lit.pred not in recursive:
            continue
        if scc_of.get(lit.pred) != head_scc:
            continue
        elsewhere: set[Variable] = set(rule.head.variable_set())
        for other_position, other in enumerate(rule.body):
            if other_position != position:
                elsewhere.update(other.variable_set())
        if lit.variable_set() & elsewhere:
            continue
        yield make_diagnostic(
            "PERF004",
            f"{lit} only gates the rule (its variables bind nothing "
            "else); deleting any of its rows makes DRed overdelete "
            f"every {rule.head.pred} fact from this rule before "
            "rederiving them — bind a shared variable or move the "
            "guard to a non-recursive predicate",
            span=lit.span or _rule_span(rule), rule=rule.label,
            subject=rule.head.pred)


def _source_order_cross_product(rule: Rule) -> Atom | None:
    """First atom that probes with zero bound columns in source order."""
    try:
        order = plan_body(rule, sizes=lambda atom, index: 1,
                          keep_atom_order=True)
    except Exception:  # unplannable bodies are the safety pass's concern
        return None
    bound: set[Variable] = set()
    seen_atom = False
    for index in order:
        lit = rule.body[index]
        if isinstance(lit, Atom):
            if (seen_atom and lit.args
                    and not bound_columns_of(lit, bound)):
                return lit
            seen_atom = True
            bound.update(lit.variables())
        elif isinstance(lit, Comparison):
            if builtins.can_bind(lit, bound):
                bound.update(lit.variable_set())
    return None


# ---------------------------------------------------------------------------
# 11. dataflow (abstract interpretation)
# ---------------------------------------------------------------------------

@register("dataflow", ["TYPE002", "DEAD003", "SAT001", "BOUND001"],
          "fixpoint abstract interpretation: cross-rule column types, "
          "provably empty predicates, statically unsatisfiable "
          "comparisons, and unbounded non-linear recursion")
def check_dataflow(context: AnalysisContext) -> Iterator[Diagnostic]:
    from ..errors import ReproError
    from .dataflow import INF, analyze_dataflow
    program = context.program
    try:
        flow = analyze_dataflow(program, query=context.query)
    except ReproError:
        return  # inconsistent arities etc.; the consistency pass reports
    for entry in flow.unsat:
        yield make_diagnostic(
            "SAT001",
            f"comparison {entry.comparison} can never hold: "
            f"{entry.reason}; the rule derives nothing",
            span=entry.comparison.span or _rule_span(entry.rule),
            rule=entry.rule.label, subject=entry.rule.head.pred)
    for pred in sorted(flow.empty & program.idb_predicates):
        rules = program.rules_for(pred)
        span = _rule_span(rules[0]) if rules else None
        reasons = sorted({reason for rule, reason in flow.dead_rules.items()
                          if rule.head.pred == pred})
        detail = f" ({reasons[0]})" if reasons else ""
        yield make_diagnostic(
            "DEAD003",
            f"{pred} is provably empty: no rule for it can ever "
            f"derive a fact{detail}",
            span=span, subject=pred)
    for (pred, column), entries in sorted(flow.head_kinds.items()):
        for index, (label_a, kinds_a) in enumerate(entries):
            conflict = next(
                ((label_b, kinds_b)
                 for label_b, kinds_b in entries[index + 1:]
                 if not (kinds_a & kinds_b)), None)
            if conflict is not None:
                label_b, kinds_b = conflict
                yield make_diagnostic(
                    "TYPE002",
                    f"column {column} of {pred} is "
                    f"{'/'.join(sorted(kinds_a))} in rule {label_a} but "
                    f"{'/'.join(sorted(kinds_b))} in rule {label_b}; "
                    "the join of these rules can never share values",
                    subject=pred)
                break
    info = program.recursion_info()
    for pred in sorted(info.nonlinear_predicates):
        if flow.size_bound(pred) == INF:
            rules = program.recursive_rules(pred)
            yield make_diagnostic(
                "BOUND001",
                f"{pred} recurses non-linearly and the size-bound "
                "analysis cannot bound its growth; evaluation cost may "
                "be quadratic in the fixpoint size per round",
                span=_rule_span(rules[0]) if rules else None,
                subject=pred)
