"""Fixpoint abstract interpretation over Datalog programs.

One abstract-interpretation engine powers four analyses:

1. **Type/domain inference** — every predicate column gets an abstract
   :class:`Domain` (a small constant set, a numeric interval, or a
   symbol-class set), seeded from EDB contents when a database is given
   and joined across rule heads to a fixpoint (with interval widening,
   so head arithmetic such as ``p(X + 1) :- p(X)`` terminates).
2. **Binding-pattern (adornment) analysis** — bound/free patterns are
   propagated from the query atom through rule bodies left to right
   (``=`` binds), enumerating the adornments each IDB predicate is
   called with.
3. **Constant propagation + unsatisfiability** — comparisons are
   evaluated against the inferred domains; a comparison that is false
   for every possible value kills its rule, and a predicate with no
   live rule is *provably empty*.
4. **Size-bound analysis** — per-column distinct-value bounds flow
   along a value-flow closure from EDB columns to IDB columns, giving
   per-predicate (and per-adornment) cardinality upper bounds from EDB
   sizes and rule structure alone.

Soundness is the contract: every inference is an *over*-approximation
of the concrete fixpoint, so "provably empty" predicates really
evaluate to zero rows, "provably true" comparisons never filter a row,
and size bounds never undershoot.  Two deliberate design points keep
the approximation honest:

- ``compare_values`` raises on mixed-type ordering, so an ordering
  verdict (true/false) or an ordering-based domain refinement is only
  drawn when no possible value pair could raise — either both sides
  are surely numeric, or an exhaustive constant-pair evaluation
  observed no error.  (``=``/``!=`` never raise and may always be
  decided from domain disjointness.)
- A provably-true verdict for a comparison is computed against the
  domains induced by the *atoms alone* — never against domains refined
  by that same comparison — so skipping the check at runtime admits no
  extra rows.

Skipping a dead rule can suppress a type-error crash that evaluating
it under some join orders would raise (a comparison on a mixed-type
column placed before the filter that empties the rule).  That latitude
already exists between planners — join order decides whether the
raising pair is ever enumerated — so dead-rule pruning stays within
the engine's existing behavioral envelope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Constant, ConstValue, Term, Variable
from ..engine.bindings import check_edb_arities
from ..engine.builtins import compare_values
from ..engine.prepared import prepared
from ..errors import EvaluationError
from ..facts.relation import PROFILE_VALUES, ColumnProfile

if TYPE_CHECKING:  # pragma: no cover - import cycle shield
    from ..facts.database import Database

INF = float("inf")

#: A constant set wider than this collapses to an interval/kind domain.
#: A relation's column profile keeps the values themselves up to this
#: width, so an EDB column gets the domain of its values exactly.
MAX_CONSTS = PROFILE_VALUES

#: Interval bounds that keep moving widen to +-inf after this many
#: changes, guaranteeing fixpoint termination under head arithmetic.
WIDEN_AFTER = 8

#: How many distinct adornment patterns the worklist will enumerate
#: before giving up (the analysis stays sound; the listing truncates).
MAX_ADORNMENTS = 128

NUMBER = "number"
STRING = "string"
ALL_KINDS: frozenset[str] = frozenset({NUMBER, STRING})


def _kind_of(value: ConstValue) -> str:
    """The symbol class of a constant (booleans compare as numbers)."""
    return STRING if isinstance(value, str) else NUMBER


# ---------------------------------------------------------------------------
# the domain lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Domain:
    """An abstract set of constant values.

    ``form`` selects the representation:

    - ``"bottom"`` — the empty set.
    - ``"consts"`` — an explicit set of at most :data:`MAX_CONSTS`
      constants (may mix numbers and strings).
    - ``"interval"`` — numbers in ``[lo, hi]``; ``integral`` marks an
      integer-only interval (making its size finite and exact).
    - ``"kinds"`` — all values of the listed symbol classes; the full
      class set is the lattice top.

    Always build through :func:`consts_domain` / :func:`interval_domain`
    / :func:`kinds_domain` so equal sets get equal representations.
    """

    form: str
    consts: frozenset[ConstValue] = frozenset()
    lo: float = INF
    hi: float = -INF
    integral: bool = False
    kinds: frozenset[str] = frozenset()

    @property
    def is_bottom(self) -> bool:
        return self.form == "bottom"

    def possible_kinds(self) -> frozenset[str]:
        """Which symbol classes the domain may contain."""
        if self.form == "consts":
            return frozenset(_kind_of(value) for value in self.consts)
        if self.form == "interval":
            return frozenset({NUMBER})
        return self.kinds

    @property
    def surely_numeric(self) -> bool:
        return (not self.is_bottom
                and self.possible_kinds() == frozenset({NUMBER}))

    def numeric_hull(self) -> tuple[float, float, bool]:
        """``(lo, hi, integral)`` covering the numeric members."""
        if self.form == "consts":
            numbers = [float(value) for value in self.consts
                       if not isinstance(value, str)]
            if not numbers:
                return (INF, -INF, True)
            integral = all(float(value).is_integer()
                           for value in self.consts
                           if not isinstance(value, str))
            return (min(numbers), max(numbers), integral)
        if self.form == "interval":
            return (self.lo, self.hi, self.integral)
        if NUMBER in self.kinds:
            return (-INF, INF, False)
        return (INF, -INF, True)

    def size(self) -> float:
        """An upper bound on the number of distinct members."""
        if self.form == "bottom":
            return 0.0
        if self.form == "consts":
            return float(len(self.consts))
        if (self.form == "interval" and self.integral
                and self.lo > -INF and self.hi < INF):
            return self.hi - self.lo + 1.0
        return INF

    def render(self) -> str:
        if self.form == "bottom":
            return "empty"
        if self.form == "consts":
            members = sorted(self.consts,
                             key=lambda v: (_kind_of(v), str(v)))
            return "{%s}" % ", ".join(repr(v) for v in members)
        if self.form == "interval":
            if self.lo == -INF and self.hi == INF and not self.integral:
                return "number"
            note = " int" if self.integral else ""
            return f"[{_fmt(self.lo)}..{_fmt(self.hi)}{note}]"
        if self.kinds == ALL_KINDS:
            return "any"
        return "|".join(sorted(self.kinds))


def _fmt(bound: float) -> str:
    if bound == INF:
        return "inf"
    if bound == -INF:
        return "-inf"
    if float(bound).is_integer():
        return str(int(bound))
    return str(bound)


BOTTOM = Domain("bottom")
TOP = Domain("kinds", kinds=ALL_KINDS)
ANY_NUMBER = Domain("interval", lo=-INF, hi=INF, integral=False)
ANY_STRING = Domain("kinds", kinds=frozenset({STRING}))


def kinds_domain(kinds: Iterable[str]) -> Domain:
    kind_set = frozenset(kinds)
    if not kind_set:
        return BOTTOM
    if kind_set == frozenset({NUMBER}):
        return ANY_NUMBER  # canonical: "any number" is the full interval
    return Domain("kinds", kinds=kind_set)


def interval_domain(lo: float, hi: float, integral: bool = False) -> Domain:
    if lo > hi:
        return BOTTOM
    return Domain("interval", lo=lo, hi=hi, integral=integral)


def consts_domain(values: Iterable[ConstValue]) -> Domain:
    """The tightest canonical domain containing ``values``."""
    members = frozenset(values)
    if not members:
        return BOTTOM
    if len(members) <= MAX_CONSTS:
        return Domain("consts", consts=members)
    kinds = frozenset(_kind_of(value) for value in members)
    if kinds == frozenset({NUMBER}):
        numbers = [float(value) for value in members
                   if not isinstance(value, str)]
        integral = all(float(value).is_integer() for value in members
                       if not isinstance(value, str))
        return interval_domain(min(numbers), max(numbers), integral)
    return kinds_domain(kinds)


def _column_domain(column: ColumnProfile) -> Domain:
    """:func:`consts_domain` of a stored column's values, read off its
    profile."""
    if column.values is not None:
        return consts_domain(column.values)
    if not column.strings:
        return interval_domain(float(column.lo), float(column.hi),
                               column.integral)
    return kinds_domain(ALL_KINDS if column.lo <= column.hi else {STRING})


def join(a: Domain, b: Domain) -> Domain:
    """Least upper bound: a domain containing both."""
    if a.is_bottom:
        return b
    if b.is_bottom:
        return a
    if a.form == "consts" and b.form == "consts":
        return consts_domain(a.consts | b.consts)
    kinds = a.possible_kinds() | b.possible_kinds()
    if kinds == frozenset({NUMBER}):
        (alo, ahi, aint) = a.numeric_hull()
        (blo, bhi, bint) = b.numeric_hull()
        return interval_domain(min(alo, blo), max(ahi, bhi),
                               aint and bint)
    return kinds_domain(kinds)


def meet(a: Domain, b: Domain) -> Domain:
    """Greatest lower bound: the values in both domains."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    if a.form == "consts" and b.form == "consts":
        return consts_domain(a.consts & b.consts)
    if a.form == "consts" or b.form == "consts":
        constant, other = (a, b) if a.form == "consts" else (b, a)
        return consts_domain(value for value in constant.consts
                             if _member_possible(value, other))
    if a.form == "interval" and b.form == "interval":
        return interval_domain(max(a.lo, b.lo), min(a.hi, b.hi),
                               a.integral or b.integral)
    if a.form == "interval" or b.form == "interval":
        interval, kinds = (a, b) if a.form == "interval" else (b, a)
        if NUMBER in kinds.kinds:
            return interval
        return BOTTOM
    return kinds_domain(a.kinds & b.kinds)


def _member_possible(value: ConstValue, domain: Domain) -> bool:
    """May ``value`` belong to ``domain``?  (Over-approximate.)"""
    if domain.is_bottom:
        return False
    if domain.form == "consts":
        return value in domain.consts
    if domain.form == "interval":
        if isinstance(value, str):
            return False
        number = float(value)
        if not domain.lo <= number <= domain.hi:
            return False
        return not domain.integral or number.is_integer()
    return _kind_of(value) in domain.kinds


# ---------------------------------------------------------------------------
# abstract term evaluation
# ---------------------------------------------------------------------------

Env = dict[Variable, Domain]


def _term_domain(term: Term, env: Mapping[Variable, Domain]) -> Domain:
    if isinstance(term, Constant):
        return consts_domain((term.value,))
    if isinstance(term, Variable):
        return env.get(term, TOP)
    return _arith_domain(term.op, _term_domain(term.left, env),
                         _term_domain(term.right, env))


def _mul(x: float, y: float) -> float:
    # The 0 * inf corner of interval multiplication: take the limit 0
    # (other corners cover the unbounded directions).
    if x == 0.0 or y == 0.0:
        return 0.0
    return x * y


def _arith_domain(op: str, a: Domain, b: Domain) -> Domain:
    """Result domain of ``a op b`` over the rows that do not raise."""
    if a.is_bottom or b.is_bottom:
        return BOTTOM
    (alo, ahi, aint) = a.numeric_hull()
    (blo, bhi, bint) = b.numeric_hull()
    if alo > ahi or blo > bhi:
        # No numeric members on one side: every evaluation raises, so
        # no value is produced at all.
        return BOTTOM
    integral = aint and bint
    if op == "+":
        return interval_domain(alo + blo, ahi + bhi, integral)
    if op == "-":
        return interval_domain(alo - bhi, ahi - blo, integral)
    if op == "*":
        corners = [_mul(alo, blo), _mul(alo, bhi),
                   _mul(ahi, blo), _mul(ahi, bhi)]
        return interval_domain(min(corners), max(corners), integral)
    return ANY_NUMBER  # division: true division, unbounded quotients


# ---------------------------------------------------------------------------
# comparison verdicts and refinement
# ---------------------------------------------------------------------------

def _verdict(op: str, a: Domain, b: Domain) -> bool | None:
    """``True``/``False`` when the comparison is decided for *every*
    possible value pair (and no pair could raise); ``None`` otherwise."""
    if a.is_bottom or b.is_bottom:
        return None
    if (a.form == "consts" and b.form == "consts"
            and len(a.consts) * len(b.consts) <= 64):
        outcomes: set[bool] = set()
        for left in a.consts:
            for right in b.consts:
                try:
                    outcomes.add(compare_values(op, left, right))
                except EvaluationError:
                    return None  # a raising pair forbids any verdict
        if outcomes == {True}:
            return True
        if outcomes == {False}:
            return False
        return None
    if op in ("=", "!="):
        # Equality never raises; disjoint domains decide it.
        if meet(a, b).is_bottom:
            return op == "!="
        return None
    if not (a.surely_numeric and b.surely_numeric):
        return None  # a string member could make the ordering raise
    (alo, ahi, _) = a.numeric_hull()
    (blo, bhi, _) = b.numeric_hull()
    if op == "<":
        return True if ahi < blo else (False if alo >= bhi else None)
    if op == "<=":
        return True if ahi <= blo else (False if alo > bhi else None)
    if op == ">":
        return True if alo > bhi else (False if ahi <= blo else None)
    if op == ">=":
        return True if alo >= bhi else (False if ahi < blo else None)
    return None


_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _refine(comparison: Comparison, env: Env) -> Variable | None:
    """Meet variable domains with what the comparison implies.

    Returns the variable whose domain became bottom (the body is then
    unsatisfiable), or ``None``.  Refinements only *shrink* domains
    toward the set of satisfying, non-raising assignments, so they are
    sound for emptiness conclusions (a raising assignment produces no
    solution either — it aborts the evaluation).
    """
    for var, other in ((comparison.lhs, comparison.rhs),
                       (comparison.rhs, comparison.lhs)):
        if not isinstance(var, Variable):
            continue
        op = (comparison.op if var is comparison.lhs
              else _FLIPPED.get(comparison.op, comparison.op))
        current = env.get(var, TOP)
        other_domain = _term_domain(other, env)
        if other_domain.is_bottom:
            continue
        refined = current
        if op == "=":
            refined = meet(current, other_domain)
        elif current.form == "consts" and other_domain.form == "consts":
            refined = _refine_by_pairs(op, current, other_domain)
        elif (op in _FLIPPED and current.surely_numeric
              and other_domain.surely_numeric):
            (blo, bhi, _) = other_domain.numeric_hull()
            if op in ("<", "<="):
                refined = meet(current, interval_domain(-INF, bhi))
            else:
                refined = meet(current, interval_domain(blo, INF))
        if refined != current:
            env[var] = refined
            if refined.is_bottom:
                return var
    return None


def _refine_by_pairs(op: str, current: Domain, other: Domain) -> Domain:
    """Keep the constants that satisfy ``op`` against some other value."""
    if len(current.consts) * len(other.consts) > 64:
        return current
    keep: list[ConstValue] = []
    for value in current.consts:
        for right in other.consts:
            try:
                if compare_values(op, value, right):
                    keep.append(value)
                    break
            except EvaluationError:
                return current  # a raising pair forbids refinement
    return consts_domain(keep)


# ---------------------------------------------------------------------------
# per-rule abstract evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PredState:
    """What the fixpoint knows about one predicate.

    ``nonempty`` means *may* be nonempty; ``False`` is a proof of
    emptiness.  ``columns`` over-approximate each column's values.
    """

    nonempty: bool
    columns: tuple[Domain, ...]


@dataclass(frozen=True)
class UnsatComparison:
    """A comparison no possible assignment satisfies."""

    rule: Rule
    body_index: int
    comparison: Comparison
    reason: str


@dataclass(frozen=True)
class RuleFacts:
    """One rule's abstract evaluation against a predicate state."""

    alive: bool
    reason: str = ""
    true_checks: frozenset[int] = frozenset()
    unsat: tuple[UnsatComparison, ...] = ()
    head: tuple[Domain, ...] = ()


def _eval_rule(rule: Rule, state: Mapping[str, PredState]) -> RuleFacts:
    # 1. Domains induced by the positive atoms alone.
    atom_env: Env = {}
    for literal in rule.body:
        if not isinstance(literal, Atom) or isinstance(literal, Negation):
            continue
        pred_state = state.get(literal.pred)
        if pred_state is None:
            continue
        if not pred_state.nonempty:
            return RuleFacts(alive=False,
                             reason=f"{literal.pred} is provably empty")
        for column, arg in enumerate(literal.args):
            if column >= len(pred_state.columns):
                continue
            domain = pred_state.columns[column]
            if isinstance(arg, Constant):
                if meet(domain, consts_domain((arg.value,))).is_bottom:
                    return RuleFacts(
                        alive=False,
                        reason=(f"{arg.value!r} never occurs in "
                                f"{literal.pred}[{column}]"))
            elif isinstance(arg, Variable):
                refined = meet(atom_env.get(arg, TOP), domain)
                atom_env[arg] = refined
                if refined.is_bottom:
                    return RuleFacts(
                        alive=False,
                        reason=(f"{arg.name} has no possible value "
                                f"(column domains are disjoint)"))

    comparisons = [(index, literal)
                   for index, literal in enumerate(rule.body)
                   if isinstance(literal, Comparison)]

    # 2. Provably-true checks, judged against the *atom* domains only —
    #    never against a comparison's own refinement (see module doc).
    true_checks = frozenset(
        index for index, comparison in comparisons
        if _verdict(comparison.op, _term_domain(comparison.lhs, atom_env),
                    _term_domain(comparison.rhs, atom_env)) is True)

    # 3. Joint satisfiability under all comparisons.
    refined_env: Env = dict(atom_env)
    unsat: list[UnsatComparison] = []
    for _ in range(2):  # two sweeps let ``=`` chains propagate
        for index, comparison in comparisons:
            bottomed = _refine(comparison, refined_env)
            if bottomed is not None:
                witness = UnsatComparison(
                    rule, index, comparison,
                    f"no value of {bottomed.name} satisfies it")
                return RuleFacts(alive=False,
                                 reason=f"{comparison} can never hold",
                                 unsat=(witness,))
    for index, comparison in comparisons:
        verdict = _verdict(comparison.op,
                           _term_domain(comparison.lhs, refined_env),
                           _term_domain(comparison.rhs, refined_env))
        if verdict is False:
            lhs = _term_domain(comparison.lhs, refined_env).render()
            rhs = _term_domain(comparison.rhs, refined_env).render()
            unsat.append(UnsatComparison(
                rule, index, comparison,
                f"always false over {lhs} {comparison.op} {rhs}"))
    if unsat:
        return RuleFacts(alive=False,
                         reason=f"{unsat[0].comparison} can never hold",
                         unsat=tuple(unsat))

    head = tuple(_term_domain(arg, refined_env)
                 for arg in rule.head.args)
    return RuleFacts(alive=True, true_checks=true_checks, head=head)


# ---------------------------------------------------------------------------
# the analysis result
# ---------------------------------------------------------------------------

@dataclass
class DataflowResult:
    """Everything the four analyses inferred about a program.

    All data is keyed by predicate name (and rule object for the
    per-rule facts).  ``counts`` maps ``(pred, column)`` to an upper
    bound on the column's distinct values; ``bounds`` maps predicates
    to cardinality upper bounds; both may be ``inf``.
    """

    program: Program
    columns: dict[str, tuple[Domain, ...]]
    empty: frozenset[str]
    counts: dict[tuple[str, int], float]
    bounds: dict[str, float]
    adornments: dict[str, tuple[str, ...]]
    adorned_bounds: dict[tuple[str, str], float]
    dead_rules: dict[Rule, str]
    true_checks: dict[Rule, frozenset[int]]
    unsat: tuple[UnsatComparison, ...]
    head_kinds: dict[tuple[str, int],
                     tuple[tuple[str, frozenset[str]], ...]]
    converged: bool = True

    def is_dead(self, rule: Rule) -> bool:
        return rule in self.dead_rules

    def size_bound(self, pred: str) -> float:
        """Cardinality upper bound for ``pred`` (may be ``inf``)."""
        return self.bounds.get(pred, INF)

    def probe_estimate(self, pred: str, bound_cols: Sequence[int]) -> float:
        """Static stand-in for ``Relation.probe_estimate``.

        The expected number of rows matching a probe that fixes
        ``bound_cols``: the total bound divided by each bound column's
        distinct-count bound — the same uniformity assumption the
        index statistics make, computed without any data.
        """
        total = self.size_bound(pred)
        if total <= 0.0:
            return 0.0
        estimate = total
        for column in bound_cols:
            distinct = self.counts.get((pred, column), INF)
            if distinct == INF:
                distinct = total
            estimate /= max(1.0, min(distinct, total))
        return estimate

    def render(self) -> str:
        """The whole analysis as an ``explain``-style text block."""
        lines = ["dataflow:"]
        arity_of: dict[str, int] = {
            pred: len(columns) for pred, columns in self.columns.items()}
        for pred in sorted(self.columns):
            arity = arity_of[pred]
            is_edb = self.program.is_edb(pred)
            tag = "edb" if is_edb else "idb"
            if pred in self.empty:
                lines.append(f"  {pred}/{arity} ({tag}): provably empty")
                continue
            bound = self.size_bound(pred)
            lines.append(f"  {pred}/{arity} ({tag}): "
                         f"size bound {_fmt(bound)}")
            for column, domain in enumerate(self.columns[pred]):
                distinct = self.counts.get((pred, column), INF)
                lines.append(f"    col {column}: {domain.render()} "
                             f"(distinct <= {_fmt(distinct)})")
            patterns = self.adornments.get(pred, ())
            if patterns:
                rendered = ", ".join(
                    f"{pattern} (bound "
                    f"{_fmt(self.adorned_bounds.get((pred, pattern), bound))}"
                    ")"
                    for pattern in patterns)
                lines.append(f"    adornments: {rendered}")
        if self.dead_rules:
            lines.append("  dead rules:")
            for rule, reason in sorted(
                    self.dead_rules.items(),
                    key=lambda item: item[0].label or str(item[0])):
                lines.append(f"    {rule.label or rule.head}: {reason}")
        if self.unsat:
            lines.append("  unsatisfiable comparisons:")
            for entry in self.unsat:
                lines.append(f"    {entry.rule.label or entry.rule.head}: "
                             f"{entry.comparison} ({entry.reason})")
        skips = {rule.label or str(rule.head): sorted(checks)
                 for rule, checks in self.true_checks.items() if checks}
        if skips:
            lines.append("  provably true checks:")
            for label in sorted(skips):
                positions = ", ".join(str(i) for i in skips[label])
                lines.append(f"    {label}: body positions {positions}")
        if not self.converged:
            lines.append("  (fixpoint did not converge; "
                         "all inferences widened to top)")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------

def analyze_dataflow(program: Program, edb: "Database | None" = None,
                     query: Atom | None = None) -> DataflowResult:
    """Run all four analyses to a fixpoint over ``program``.

    Without ``edb``, EDB columns start at top (lint mode); with it,
    they start from each relation's column profile (memoised on the
    relation until its next write), which also supplies exact
    per-column distinct counts for the size-bound analysis.  A relation
    stored at another arity than the program's is an ``EvaluationError``.

    The query enters only through its predicate and adornment, so with
    an ``edb`` the result is kept in the query's prepared entry
    (:mod:`repro.engine.prepared`) and returned as it is to every query
    of the same pattern until the EDB's stamp moves.  A result is
    shared: read it, never mutate it.
    """
    if edb is None:
        return _analyze(program, None, query)
    check_edb_arities(program, edb)
    entry = prepared(program, edb, query)
    if entry is None:
        return _analyze(program, edb, query)
    if entry.dataflow is None:
        entry.dataflow = _analyze(program, edb, query)
    return entry.dataflow


def _analyze(program: Program, edb: "Database | None",
             query: Atom | None) -> DataflowResult:
    """The analysis itself: one fixpoint, nothing kept."""
    arities = dict(program.predicate_arities())
    state: dict[str, PredState] = {}
    distinct: dict[tuple[str, int], float] = {}
    edb_sizes: dict[str, float] = {}
    for pred in sorted(program.edb_predicates):
        arity = arities.get(pred, 0)
        if edb is None:
            state[pred] = PredState(True, (TOP,) * arity)
            edb_sizes[pred] = INF
            for column in range(arity):
                distinct[(pred, column)] = INF
            continue
        profile = edb.relation_or_empty(pred, arity).profile()
        edb_sizes[pred] = float(profile.rows)
        state[pred] = PredState(
            profile.rows > 0,
            tuple(_column_domain(summary) for summary in profile.columns))
        for column, summary in enumerate(profile.columns):
            distinct[(pred, column)] = float(summary.distinct)
    for pred in program.idb_predicates:
        arity = arities.get(pred, 0)
        state[pred] = PredState(False, (BOTTOM,) * arity)

    # -- domain / emptiness fixpoint ------------------------------------
    widen_hits: dict[tuple[str, int], int] = {}
    column_count = sum(arities.get(pred, 0) for pred in state) + 1
    max_rounds = 50 + 30 * column_count
    converged = False
    for _ in range(max_rounds):
        changed = False
        for rule in program:
            facts = _eval_rule(rule, state)
            if not facts.alive:
                continue
            pred = rule.head.pred
            current = state[pred]
            columns = list(current.columns)
            touched = False
            for column, contribution in enumerate(facts.head):
                if column >= len(columns):
                    continue
                old = columns[column]
                merged = join(old, contribution)
                if merged == old:
                    continue
                if merged.form == "interval" and old.form == "interval":
                    hits = widen_hits.get((pred, column), 0) + 1
                    widen_hits[(pred, column)] = hits
                    if hits > WIDEN_AFTER:
                        merged = interval_domain(
                            merged.lo if merged.lo == old.lo else -INF,
                            merged.hi if merged.hi == old.hi else INF,
                            merged.integral)
                if merged != old:
                    columns[column] = merged
                    touched = True
            if touched or not current.nonempty:
                state[pred] = PredState(True, tuple(columns))
                changed = True
        if not changed:
            converged = True
            break
    if not converged:
        # Paranoia fallback: widening guarantees convergence, but if
        # the cap ever trips, collapse to a sound do-nothing result.
        for pred in state:
            arity = arities.get(pred, 0)
            state[pred] = PredState(True, (TOP,) * arity)

    # -- final per-rule facts -------------------------------------------
    dead_rules: dict[Rule, str] = {}
    true_checks: dict[Rule, frozenset[int]] = {}
    unsat: list[UnsatComparison] = []
    head_kinds: dict[tuple[str, int],
                     list[tuple[str, frozenset[str]]]] = {}
    for rule in program:
        facts = _eval_rule(rule, state)
        if not facts.alive:
            dead_rules[rule] = facts.reason
            unsat.extend(facts.unsat)
            continue
        if facts.true_checks and converged:
            true_checks[rule] = facts.true_checks
        for column, contribution in enumerate(facts.head):
            kinds = contribution.possible_kinds()
            if kinds:
                head_kinds.setdefault(
                    (rule.head.pred, column), []).append(
                        (rule.label, kinds))

    empty = frozenset(pred for pred, pred_state in state.items()
                      if not pred_state.nonempty)

    counts = _distinct_counts(program, state, dead_rules, distinct)
    bounds = _size_bounds(program, state, dead_rules, counts,
                          edb_sizes, arities)
    adornments = _adornments(program, query)
    adorned_bounds: dict[tuple[str, str], float] = {}
    for pred, patterns in adornments.items():
        for pattern in patterns:
            free_product = 1.0
            for column, mark in enumerate(pattern):
                if mark == "f":
                    free_product = _mul_bound(
                        free_product, counts.get((pred, column), INF))
            adorned_bounds[(pred, pattern)] = min(
                bounds.get(pred, INF), free_product)

    return DataflowResult(
        program=program,
        columns={pred: pred_state.columns
                 for pred, pred_state in state.items()},
        empty=empty,
        counts=counts,
        bounds=bounds,
        adornments=adornments,
        adorned_bounds=adorned_bounds,
        dead_rules=dead_rules,
        true_checks=true_checks,
        unsat=tuple(unsat),
        head_kinds={key: tuple(entries)
                    for key, entries in head_kinds.items()},
        converged=converged)


def _mul_bound(a: float, b: float) -> float:
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


# ---------------------------------------------------------------------------
# size bounds: value-flow closure + downward cardinality fixpoint
# ---------------------------------------------------------------------------

def _distinct_counts(program: Program, state: Mapping[str, PredState],
                     dead_rules: Mapping[Rule, str],
                     edb_distinct: Mapping[tuple[str, int], float],
                     ) -> dict[tuple[str, int], float]:
    """Upper-bound the distinct values per ``(pred, column)``.

    Values flow from EDB columns to IDB head columns along variable
    occurrences: a head variable's values come from the column of its
    first positive body occurrence.  The closure collects, per IDB
    column, the set of *EDB source columns* plus any directly placed
    constants; the distinct count is then the sum of the sources'
    exact distinct counts (plus the constants).  Summing over a set of
    source columns — rather than per-rule contributions — keeps the
    bound finite under recursion: a recursive rule adds no new source.
    """
    sources: dict[tuple[str, int], set[tuple[str, int]]] = {}
    consts: dict[tuple[str, int], set[ConstValue]] = {}
    unbounded: set[tuple[str, int]] = set()
    edges: list[tuple[tuple[str, int], tuple[str, int]]] = []

    edb = program.edb_predicates
    for rule in program:
        if rule in dead_rules:
            continue
        first_occurrence: dict[Variable, tuple[str, int]] = {}
        for literal in rule.body:
            if not isinstance(literal, Atom) or isinstance(literal,
                                                           Negation):
                continue
            for column, arg in enumerate(literal.args):
                if (isinstance(arg, Variable)
                        and arg not in first_occurrence):
                    first_occurrence[arg] = (literal.pred, column)
        pred = rule.head.pred
        for column, arg in enumerate(rule.head.args):
            node = (pred, column)
            if isinstance(arg, Constant):
                consts.setdefault(node, set()).add(arg.value)
            elif isinstance(arg, Variable):
                source = first_occurrence.get(arg)
                if source is None:
                    unbounded.add(node)  # bound by ``=`` or unsafe
                else:
                    edges.append((node, source))
            else:
                unbounded.add(node)  # arithmetic mints new values

    for key in edb_distinct:
        sources[key] = {key}
    # Transitive closure over the (static, small) flow graph.
    for _ in range(len(state) * 2 + 2):
        changed = False
        for node, source in edges:
            if source in unbounded:
                if node not in unbounded:
                    unbounded.add(node)
                    changed = True
                continue
            pool = sources.setdefault(node, set())
            incoming = sources.get(source, set())
            if not incoming <= pool:
                pool |= incoming
                changed = True
            extra = consts.get(source, set())
            if extra - consts.setdefault(node, set()):
                consts[node] |= extra
                changed = True
        if not changed:
            break

    counts: dict[tuple[str, int], float] = {}
    for pred, pred_state in state.items():
        for column, domain in enumerate(pred_state.columns):
            node = (pred, column)
            if pred in edb:
                count = edb_distinct.get(node, INF)
            elif node in unbounded:
                count = INF
            else:
                count = float(len(consts.get(node, set())))
                for source in sources.get(node, set()):
                    count += edb_distinct.get(source, INF)
            counts[node] = min(count, domain.size())
    return counts


def _size_bounds(program: Program, state: Mapping[str, PredState],
                 dead_rules: Mapping[Rule, str],
                 counts: Mapping[tuple[str, int], float],
                 edb_sizes: Mapping[str, float],
                 arities: Mapping[str, int]) -> dict[str, float]:
    """Cardinality upper bounds per predicate.

    Starts every IDB predicate at the product of its column
    distinct-count bounds (any relation fits under that cap) and
    iterates ``bound(p) = min(bound(p), sum over rules of the product
    of body-atom bounds)`` downward.  Every iterate is itself a sound
    upper bound, so stopping after a fixed number of passes is safe.
    """
    bounds: dict[str, float] = {}
    for pred in state:
        if program.is_edb(pred):
            bounds[pred] = edb_sizes.get(pred, INF)
            continue
        if not state[pred].nonempty:
            bounds[pred] = 0.0
            continue
        cap = 1.0
        for column in range(arities.get(pred, 0)):
            cap = _mul_bound(cap, counts.get((pred, column), INF))
        bounds[pred] = cap
    live_rules = [rule for rule in program if rule not in dead_rules]
    for _ in range(2 * len(state) + 2):
        for pred in program.idb_predicates:
            if not state.get(pred, PredState(False, ())).nonempty:
                continue
            total = 0.0
            for rule in live_rules:
                if rule.head.pred != pred:
                    continue
                product = 1.0
                for atom in rule.database_atoms():
                    product = _mul_bound(product,
                                         bounds.get(atom.pred, INF))
                total += product
            bounds[pred] = min(bounds[pred], total)
    return bounds


# ---------------------------------------------------------------------------
# adornments
# ---------------------------------------------------------------------------

def _adornments(program: Program,
                query: Atom | None) -> dict[str, tuple[str, ...]]:
    """Binding patterns each IDB predicate is called with.

    Seeded from the query atom (constants bound) when given, else from
    the all-free pattern of every IDB predicate; propagated through
    rule bodies left to right with ``=`` binding new variables.
    """
    idb = program.idb_predicates
    seen: dict[str, set[str]] = {pred: set() for pred in idb}
    worklist: list[tuple[str, str]] = []

    def enqueue(pred: str, pattern: str) -> None:
        patterns = seen.get(pred)
        if patterns is None or pattern in patterns:
            return
        if sum(len(values) for values in seen.values()) >= MAX_ADORNMENTS:
            return
        patterns.add(pattern)
        worklist.append((pred, pattern))

    if query is not None and query.pred in idb:
        enqueue(query.pred,
                "".join("b" if isinstance(arg, Constant) else "f"
                        for arg in query.args))
    else:
        for pred in idb:
            rules = program.rules_for(pred)
            arity = len(rules[0].head.args) if rules else 0
            enqueue(pred, "f" * arity)

    while worklist:
        pred, pattern = worklist.pop()
        for rule in program.rules_for(pred):
            bound: set[Variable] = set()
            for column, mark in enumerate(pattern):
                if mark == "b" and column < len(rule.head.args):
                    arg = rule.head.args[column]
                    if isinstance(arg, Variable):
                        bound.add(arg)
            for literal in rule.body:
                if isinstance(literal, Comparison):
                    if literal.op == "=":
                        variables = literal.variable_set()
                        if len(variables - bound) <= 1:
                            bound.update(variables)
                    continue
                if isinstance(literal, Negation):
                    continue
                if isinstance(literal, Atom):
                    if literal.pred in idb:
                        body_pattern = "".join(
                            "b" if (isinstance(arg, Constant)
                                    or (isinstance(arg, Variable)
                                        and arg in bound))
                            else "f"
                            for arg in literal.args)
                        enqueue(literal.pred, body_pattern)
                    bound.update(literal.variable_set())
    return {pred: tuple(sorted(patterns))
            for pred, patterns in seen.items()}
