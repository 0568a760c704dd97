"""Join machinery: evaluating a rule body against stored relations.

The engine evaluates rule bodies literal-at-a-time with hash-index
lookups.  A simple greedy planner orders literals once per evaluation:
comparisons run as soon as their variables are bound (selections pushed
down), negations run when ground, and database atoms are chosen to
maximize bound columns (and, among equals, smaller relations), which keeps
intermediate binding sets small.

Semi-naive evaluation needs to force one designated occurrence of a
recursive predicate to read from the *delta* relation; the ``fetch``
callable receives the body index of the atom so callers can redirect
specific occurrences.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Collection, Iterator, Optional

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.rules import Rule
from ..datalog.terms import ArithExpr, Constant, ConstValue, Variable
from ..errors import EvaluationError
from ..facts.relation import Relation, Row
from . import builtins

if TYPE_CHECKING:
    from ..datalog.program import Program
    from ..facts.database import Database

#: ``fetch(atom, body_index) -> Relation`` — resolves an atom occurrence to
#: the relation it should scan (full relation, delta, EDB, ...).
Fetch = Callable[[Atom, int], Relation]

#: ``sizes(atom, body_index) -> int`` — the size of the relation an atom
#: occurrence reads, as the greedy planner ranks it.
Sizes = Callable[[Atom, int], int]

#: ``cost(atom, body_index, bound_columns) -> float`` — estimated rows
#: one placement of the atom would match, given the columns bound so
#: far.  Supplied by the adaptive planner from live relation statistics.
Cost = Callable[[Atom, int, tuple[int, ...]], float]

#: Known join planners: ``greedy`` orders by boundness then raw size,
#: ``adaptive`` by statistics-estimated selectivity, ``source`` keeps
#: database atoms in rule order.  Whole-program rewrites are chosen by
#: :func:`repro.engine.optimizer.cbo_evaluate`, not by a planner.
PLANNERS = ("greedy", "adaptive", "source")

Binding = dict[Variable, ConstValue]


def validate_planner(planner: str) -> None:
    if planner not in PLANNERS:
        raise EvaluationError(
            f"unknown planner {planner!r}; expected one of {PLANNERS}")


def check_edb_arities(program: "Program", edb: "Database") -> None:
    """Reject an EDB relation stored at another arity than the program's.

    Run once at fixpoint entry: the executors index stored rows by the
    *program's* column positions, so a mismatch would otherwise surface
    as an ``IndexError`` or as wrong-width derived rows.
    """
    idb_predicates = program.idb_predicates
    for pred, arity in program.predicate_arities().items():
        if pred in idb_predicates or pred not in edb:
            continue
        stored = edb.relation(pred).arity
        if stored != arity:
            raise EvaluationError(
                f"relation {pred!r} has arity {stored}, "
                f"program uses {pred}/{arity}")


@dataclass
class EvalStats:
    """Instrumentation counters accumulated during evaluation.

    These are the quantities the benchmark harness reports alongside wall
    time: they make the *work saved* by an optimization visible even when
    timings are noisy.
    """

    atom_lookups: int = 0
    rows_matched: int = 0
    comparisons_checked: int = 0
    negation_checks: int = 0
    derivations: int = 0
    duplicate_derivations: int = 0
    iterations: int = 0
    rules_fired: int = 0
    residue_checks: int = 0
    #: Always 0: a kernel is planned once (``benchmarks/e2e`` still
    #: reports the field as ``engine.replans``).
    replans: int = 0
    #: Incremental maintenance: IDB rows removed by DRed's overdeletion.
    overdeleted: int = 0
    #: Incremental maintenance: overdeleted rows with surviving proofs.
    rederived: int = 0
    #: Incremental maintenance: IDB rows whose removal stuck (net Δ⁻).
    retracted: int = 0
    #: Matched rows attributed to each rule label (semi-naive only).
    rule_rows: dict = field(default_factory=dict)

    def rows_for_rules(self, prefix: str) -> int:
        """Total matched rows in rules whose label starts with ``prefix``."""
        return sum(rows for label, rows in self.rule_rows.items()
                   if label.startswith(prefix))

    def merge(self, other: "EvalStats") -> None:
        self.atom_lookups += other.atom_lookups
        self.rows_matched += other.rows_matched
        self.comparisons_checked += other.comparisons_checked
        self.negation_checks += other.negation_checks
        self.derivations += other.derivations
        self.duplicate_derivations += other.duplicate_derivations
        self.iterations += other.iterations
        self.rules_fired += other.rules_fired
        self.residue_checks += other.residue_checks
        self.replans += other.replans
        self.overdeleted += other.overdeleted
        self.rederived += other.rederived
        self.retracted += other.retracted
        for label, rows in other.rule_rows.items():
            self.rule_rows[label] = self.rule_rows.get(label, 0) + rows

    def as_dict(self) -> dict[str, int]:
        return {
            "atom_lookups": self.atom_lookups,
            "rows_matched": self.rows_matched,
            "comparisons_checked": self.comparisons_checked,
            "negation_checks": self.negation_checks,
            "derivations": self.derivations,
            "duplicate_derivations": self.duplicate_derivations,
            "iterations": self.iterations,
            "rules_fired": self.rules_fired,
            "residue_checks": self.residue_checks,
            "replans": self.replans,
            "overdeleted": self.overdeleted,
            "rederived": self.rederived,
            "retracted": self.retracted,
        }


def _check_atom_args(atom: Atom) -> None:
    for arg in atom.args:
        if isinstance(arg, ArithExpr):
            raise EvaluationError(
                f"arithmetic expressions are not allowed in database "
                f"atoms: {atom}")


def bound_columns_of(atom: Atom, bound: set[Variable]) -> tuple[int, ...]:
    """The atom's columns that would be bound given ``bound`` variables."""
    return tuple(
        column for column, arg in enumerate(atom.args)
        if isinstance(arg, Constant)
        or (isinstance(arg, Variable) and arg in bound))


def plan_body(rule: Rule, sizes: Sizes | None,
              keep_atom_order: bool = False,
              cost: Cost | None = None) -> list[int]:
    """Order body literal indexes greedily (see module docstring).

    ``sizes`` ranks the database atoms; it is only read when neither
    ``keep_atom_order`` nor ``cost`` decides, and may be None then.

    With ``keep_atom_order`` database atoms stay in source order (the
    1995-style fixed-join-order evaluator the paper assumes); evaluable
    literals still run as soon as their variables are bound, since no
    reasonable evaluator defers a ready selection.

    When ``cost`` is given (the adaptive planner) the next database
    atom is the one with the smallest estimated match count — size
    scaled by the selectivity of its bound columns — instead of the
    boundness/size heuristic; boundness is implicit in the estimate,
    since every bound column divides it by the column's distinct count.
    Ties break by source order, keeping plans deterministic.
    """
    remaining = set(range(len(rule.body)))
    bound: set[Variable] = set()
    order: list[int] = []

    def ready_builtin() -> Optional[int]:
        for index in sorted(remaining):
            lit = rule.body[index]
            if isinstance(lit, Comparison):
                if builtins.can_check(lit, bound) or builtins.can_bind(
                        lit, bound):
                    return index
            elif isinstance(lit, Negation):
                if lit.variable_set() <= bound:
                    return index
        return None

    while remaining:
        index = ready_builtin()
        if index is not None:
            order.append(index)
            remaining.discard(index)
            lit = rule.body[index]
            if isinstance(lit, Comparison):
                bound.update(lit.variable_set())
            continue
        # Pick the database atom with the most bound variables, breaking
        # ties by smaller relation size, then by source order — or by
        # smallest estimated match count under the adaptive planner — or
        # simply the next atom in source order under keep_atom_order.
        best: tuple | None = None
        best_index: Optional[int] = None
        for index in sorted(remaining):
            lit = rule.body[index]
            if not isinstance(lit, Atom):
                continue
            if keep_atom_order:
                best_index = index
                break
            if cost is not None:
                key = (cost(lit, index, bound_columns_of(lit, bound)),
                       index)
            else:
                assert sizes is not None, "greedy planning needs sizes"
                bound_count = sum(
                    1 for arg in lit.args
                    if isinstance(arg, Constant)
                    or (isinstance(arg, Variable) and arg in bound))
                key = (-bound_count, sizes(lit, index), index)
            if best is None or key < best:
                best = key
                best_index = index
        if best_index is None:
            # Only unready builtins remain: unsafe rule.
            stuck = [str(rule.body[i]) for i in sorted(remaining)]
            raise EvaluationError(
                f"unsafe rule {rule.label or rule}: cannot evaluate "
                f"{', '.join(stuck)}")
        order.append(best_index)
        remaining.discard(best_index)
        bound.update(rule.body[best_index].variable_set())
    return order


#: What a frontier occurrence's size or estimate is scaled by when a
#: planner ranks it (see :func:`frontier_occurrences`).
FRONTIER_BIAS = 0.05


def frontier_occurrences(rule: Rule, stratum: Collection[str],
                         variant: int | None) -> frozenset[int]:
    """Body indexes whose relation holds only *new* rows at a firing.

    In a delta round that is the delta-redirected occurrence
    (``variant``).  In the initialization round (``variant is None``)
    it is every same-stratum atom: whatever earlier rules of the round
    put there, no firing of this rule has seen any of it — exactly a
    delta.  Join paths rooted at such an occurrence are the ones that
    can produce new facts, while anchoring elsewhere re-enumerates old
    paths *and probes the frontier* — which builds a hash index on a
    relation that is dropped next round (a delta) or that the recursion
    is about to grow by orders of magnitude, so that every later insert
    extends an index no later round reads.  The planners therefore rank
    these occurrences at :data:`FRONTIER_BIAS` of what they measure
    (:func:`anchor_sizes`, :func:`anchor_cost`) — the one frontier rule,
    shared by the fixpoint and by ``explain``.
    """
    if variant is not None:
        return frozenset((variant,))
    return frozenset(index for index, lit in enumerate(rule.body)
                     if isinstance(lit, Atom) and lit.pred in stratum)


def anchor_sizes(sizes: Sizes, frontier: Collection[int]) -> Sizes:
    """``sizes`` with the frontier rule applied (greedy planner)."""
    def anchored(atom: Atom, index: int) -> int:
        size = sizes(atom, index)
        return int(size * FRONTIER_BIAS) if index in frontier else size
    return anchored


def anchor_cost(cost: Cost, frontier: Collection[int]) -> Cost:
    """``cost`` with the frontier rule applied (adaptive planner): only
    a *scan* of the occurrence is discounted — once a column is bound it
    is being probed, which is what the rule steers away from."""
    def anchored(atom: Atom, index: int,
                 bound_cols: tuple[int, ...]) -> float:
        estimate = cost(atom, index, bound_cols)
        if index in frontier and not bound_cols:
            estimate *= FRONTIER_BIAS
        return estimate
    return anchored


def _match_row(atom: Atom, row: Row, binding: Binding) -> Optional[Binding]:
    """Extend ``binding`` so that ``atom`` matches ``row``; None on clash."""
    extended: Binding | None = None
    current = binding
    for arg, value in zip(atom.args, row):
        if isinstance(arg, Constant):
            if arg.value != value:
                return None
        else:  # Variable
            known = current.get(arg, _MISSING)
            if known is _MISSING:
                if extended is None:
                    extended = dict(binding)
                    current = extended
                extended[arg] = value
            elif known != value:
                return None
    return extended if extended is not None else dict(binding)


_MISSING = object()


def _bound_pattern(atom: Atom,
                   binding: Binding) -> tuple[tuple[int, ConstValue], ...]:
    pairs: list[tuple[int, ConstValue]] = []
    seen_vars: set[Variable] = set()
    for column, arg in enumerate(atom.args):
        if isinstance(arg, Constant):
            pairs.append((column, arg.value))
        elif isinstance(arg, Variable):
            if arg in binding:
                pairs.append((column, binding[arg]))
            else:
                seen_vars.add(arg)
    return tuple(pairs)


def solve_body(rule: Rule, fetch: Fetch, stats: EvalStats,
               order: list[int] | None = None,
               initial: Binding | None = None,
               keep_atom_order: bool = False) -> Iterator[Binding]:
    """Yield every binding of the body variables satisfying the body."""
    if order is None:
        def sizes(atom: Atom, index: int) -> int:
            return len(fetch(atom, index))
        order = plan_body(rule, sizes, keep_atom_order=keep_atom_order)

    def solve(position: int, binding: Binding) -> Iterator[Binding]:
        if position == len(order):
            yield binding
            return
        index = order[position]
        lit = rule.body[index]
        if isinstance(lit, Comparison):
            stats.comparisons_checked += 1
            extended = builtins.solve(lit, binding)
            if extended is not None:
                yield from solve(position + 1, extended)
            return
        if isinstance(lit, Negation):
            stats.negation_checks += 1
            _check_atom_args(lit.atom)
            relation = fetch(lit.atom, index)
            pattern = _bound_pattern(lit.atom, binding)
            found = False
            for row in relation.lookup(pattern):
                if _match_row(lit.atom, row, binding) is not None:
                    found = True
                    break
            if not found:
                yield from solve(position + 1, binding)
            return
        # Database atom
        _check_atom_args(lit)
        relation = fetch(lit, index)
        stats.atom_lookups += 1
        pattern = _bound_pattern(lit, binding)
        for row in relation.lookup(pattern):
            extended = _match_row(lit, row, binding)
            if extended is None:
                continue
            stats.rows_matched += 1
            yield from solve(position + 1, extended)

    yield from solve(0, dict(initial or {}))


def instantiate_head(rule: Rule, binding: Binding) -> Row:
    """Build the head tuple from a complete body binding."""
    values: list[ConstValue] = []
    for arg in rule.head.args:
        if isinstance(arg, Constant):
            values.append(arg.value)
        elif isinstance(arg, Variable):
            try:
                values.append(binding[arg])
            except KeyError:
                raise EvaluationError(
                    f"head variable {arg} unbound in rule "
                    f"{rule.label or rule}; rule is not range "
                    "restricted") from None
        else:
            values.append(builtins.eval_term(arg, binding))
    return tuple(values)
