"""Compiled rule kernels: one step program per rule body, one back end.

The reference interpreter in :mod:`repro.engine.bindings` evaluates a
rule body by threading per-tuple ``dict[Variable, value]`` bindings
through a recursive generator, re-deriving the join plan, the bound
pattern of every atom and the hash of every :class:`Variable` on every
rule firing.  That interpreter overhead dwarfs the per-round deltas the
paper's experiments measure.

This module lowers a rule body **once** into a :class:`CompiledKernel`:

- the join plan (:func:`repro.engine.bindings.plan_body`) is computed
  a single time, at compile time — greedy by default, or driven by a
  statistics ``cost`` callback under the adaptive planner;
- every variable is mapped to an integer *slot*;
- the planned body becomes a symbolic **step program**
  (:attr:`CompiledKernel.steps`): probes and scans with their key
  terms, slot writes and in-atom repeats, membership tests, ground
  negations, comparison checks and ``=`` binds, over terms that are
  constants, slots or arithmetic.

The step program is the only description of the body, and it has one
back end: :mod:`repro.engine.codegen` lowers it into a **generated
function** — the whole body as one list comprehension that processes
a firing's entire frontier with no per-row Python call,
interned or raw, arithmetic and bind-only bodies included (the engines
compile no fact: :class:`~repro.engine.fire.Firer` inserts its head
row).  When a
derivation hook is installed the same program is generated a second
time with one closing filter that shows the hook each solution's
``Binding`` before the head row is built.  Either way the derived head
rows equal the reference interpreter's, and so does every ``EvalStats``
counter under the same join order.

Kernels are pure code: they bake in body *positions*, never relation
objects, so semi-naive evaluation compiles one variant per
delta-redirected occurrence and reuses it across all rounds, resolving
the actual relations (delta vs. full) per firing through the same
``fetch`` callable the interpreter uses.

**Interned mode.**  Compiled against a shared
:class:`~repro.facts.symbols.SymbolTable` (``symbols=``), a kernel
joins entirely over dense ``int`` codes: program constants are interned
at compile time, probe keys and negation members are codes, slots hold
codes.  Only two step kinds ever touch values: comparison checks decode
their operands (``<`` must order values, not codes), and arithmetic
computes in the value domain and re-interns its result.  Head rows are
emitted *in the storage domain* — the engines insert them through
:meth:`repro.facts.relation.Relation.raw_add`, so a derived fact is
never decoded unless a human-facing boundary (result materialization,
derivation hooks, tracing) asks for it.

The interpreter remains the semantics oracle: a kernel must derive
exactly the same head rows (as a set, and the same number of solutions)
as :func:`repro.engine.bindings.solve_body` on every rule and database.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Term, Variable, variables_of
from ..errors import EvaluationError
from ..facts.relation import Row
from ..facts.symbols import SymbolTable
from . import builtins
from .bindings import (Binding, Cost, EvalStats, Fetch, Sizes,
                       _check_atom_args, bound_columns_of, plan_body)
from .codegen import GeneratedKernel, PredicateCache

#: Known executors for the bottom-up engines.
EXECUTORS = ("compiled", "interpreted")

#: Per-derivation hook, as in :mod:`repro.engine.seminaive`.
Hook = Callable[[Rule, Binding, int], bool]


class FoldedRows(list):
    """Head rows that stand for more solutions than they hold.

    A folding kernel text runs an existential atom as one probe, so a
    binding whose bucket holds ``m`` rows yields its head row once for
    ``m`` solutions (and a member group as one intersection, standing
    for as many solutions as it holds values).  ``repeats`` counts the
    folded copies, each of which would have derived a row already in
    the list again.
    """

    __slots__ = ("repeats",)
    repeats: int


def validate_executor(executor: str) -> None:
    if executor not in EXECUTORS:
        raise EvaluationError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}")


class CompiledKernel:
    """One rule body: its plan, its step program, its generated function.

    Attributes:
        rule: the source rule.
        order: the body indexes in execution order (the cached plan).
        n_slots: how many variables (slots) the body binds.
        sources: ``(body_index, atom, bound_columns, kind)`` per
            relation-touching step, in execution order; ``kind`` is
            ``"probe"``, ``"scan"``, ``"member"`` or ``"neg"``.
            :meth:`execute` resolves each through ``fetch``.
        symbols: the shared intern table, or None for value-domain
            compilation.  Head rows are emitted in the storage domain.
        plan_costs: ``{body_index: estimated rows per probe}`` recorded
            at plan time when a ``cost`` callback was supplied (the
            adaptive planner); empty otherwise.
        steps: the symbolic step program — the one description of the
            body, which the generated function is built from.  Steps are
            ``("atom", src, cols, keys, writes, checks)``,
            ``("member", src, keys)``, ``("neg", src, args)``,
            ``("check", op, lhs, rhs)`` and
            ``("bind", slot, term)``; terms are ``("const", payload)``,
            ``("slot", n)`` or ``("arith", op, left, right)``.
            Constants are in the storage domain (interned codes) except
            the operands of checks and of arithmetic, which stay values.
        head: the head arguments as storage-domain terms.
        generated: the generated whole-frontier function
            (:class:`~repro.engine.codegen.GeneratedKernel`).
    """

    __slots__ = ("rule", "order", "n_slots", "sources", "symbols",
                 "plan_costs", "steps", "head", "generated",
                 "_predicates", "_step_notes")

    def __init__(self, rule: Rule, sizes: Sizes | None,
                 keep_atom_order: bool = False,
                 cost: Cost | None = None,
                 symbols: SymbolTable | None = None,
                 predicates: PredicateCache | None = None) -> None:
        self.rule = rule
        self.symbols = symbols
        self.order = plan_body(rule, sizes, keep_atom_order=keep_atom_order,
                               cost=cost)
        #: Column-predicate filters of the generated function; shared
        #: across a :class:`KernelCache`, private to a lone kernel.
        self._predicates = predicates if predicates is not None \
            else PredicateCache(symbols)
        slot_of: dict[Variable, int] = {}

        def slot(var: Variable) -> int:
            found = slot_of.get(var)
            if found is None:
                found = len(slot_of)
                slot_of[var] = found
            return found

        def sym(term: Term, coded: bool) -> tuple:
            """``term`` as a symbolic term; ``coded`` interns constants."""
            if isinstance(term, Constant):
                return ("const", symbols.intern(term.value)
                        if coded and symbols is not None else term.value)
            if isinstance(term, Variable):
                return ("slot", slot_of[term])
            return ("arith", term.op, sym(term.left, False),
                    sym(term.right, False))

        steps: list[tuple] = []
        self.sources: list[tuple[int, Atom, tuple[int, ...], str]] = []
        self.plan_costs: dict[int, float] = {}
        self._step_notes: list[str] = []
        bound: set[Variable] = set()

        for index in self.order:
            lit = rule.body[index]
            if isinstance(lit, Comparison):
                can_check = builtins.can_check(lit, bound)
                if not can_check and builtins.can_bind(lit, bound):
                    # ``=`` in binding position: assign one new slot.
                    target, source = lit.lhs, lit.rhs
                    if not isinstance(target, Variable) or target in bound:
                        target, source = source, target
                    assert isinstance(target, Variable)
                    source_sym = sym(source, True)
                    steps.append(("bind", slot(target), source_sym))
                    self._step_notes.append(f"bind         {lit}")
                else:
                    steps.append(("check", lit.op, sym(lit.lhs, False),
                                  sym(lit.rhs, False)))
                    self._step_notes.append(f"check        {lit}")
                bound.update(lit.variable_set())
                continue
            if isinstance(lit, Negation):
                _check_atom_args(lit.atom)
                src = len(self.sources)
                self.sources.append((index, lit.atom, (), "neg"))
                steps.append(("neg", src, tuple(sym(arg, True)
                                                for arg in lit.atom.args)))
                self._step_notes.append(f"absent       {lit}")
                continue
            # Database atom.
            _check_atom_args(lit)
            if cost is not None:
                self.plan_costs[index] = cost(
                    lit, index, bound_columns_of(lit, bound))
            cols: list[int] = []
            keys: list[tuple] = []
            writes: list[tuple[int, int]] = []
            checks: list[tuple[int, int]] = []
            atom_new: set[Variable] = set()
            for column, arg in enumerate(lit.args):
                # No arithmetic here (checked above): a non-variable is
                # a constant.
                if not isinstance(arg, Variable) or arg in bound:
                    cols.append(column)
                    keys.append(sym(arg, True))
                elif arg in atom_new:
                    # Repeated within this atom: first occurrence binds,
                    # later ones must match the just-written slot.
                    checks.append((column, slot_of[arg]))
                else:
                    atom_new.add(arg)
                    writes.append((column, slot(arg)))
            src = len(self.sources)
            if cols and not writes and not checks:
                # Every column is bound: a membership test against the
                # row container, not a probe — an all-columns index
                # would just be the row set again, built in O(n).
                self.sources.append((index, lit, (), "member"))
                steps.append(("member", src, tuple(keys)))
                self._step_notes.append(f"{'member':12} {lit}")
                bound.update(lit.variable_set())
                continue
            self.sources.append((index, lit, tuple(cols),
                                 "probe" if cols else "scan"))
            steps.append(("atom", src, tuple(cols), tuple(keys),
                          tuple(writes), tuple(checks)))
            detail = f"probe[{','.join(map(str, cols))}]" if cols \
                else "scan"
            note = f"{detail:12} {lit}"
            estimate = self.plan_costs.get(index)
            if estimate is not None:
                note += f"  ~{estimate:g} rows/probe"
            self._step_notes.append(note)
            bound.update(lit.variable_set())

        # Every head variable must have a slot.
        for arg in rule.head.args:
            for var in variables_of(arg):
                if var not in slot_of:
                    raise EvaluationError(
                        f"head variable {var} unbound in rule "
                        f"{rule.label or rule}; rule is not range "
                        "restricted")
        self.steps = tuple(steps)
        self.head = tuple(sym(arg, True) for arg in rule.head.args)
        self.n_slots = len(slot_of)
        self.generated = GeneratedKernel(self.steps, self.head, symbols,
                                         self.sources, rule,
                                         tuple(slot_of))

    @property
    def interned(self) -> bool:
        """Whether head rows come out in the coded storage domain."""
        return self.symbols is not None

    # -- execution -----------------------------------------------------------
    def execute(self, fetch: Fetch, stats: EvalStats,
                hook: Optional[Hook] = None,
                round_index: int = 0, fold: bool = False) -> list[Row]:
        """Run the kernel and return the derived head rows (buffered).

        ``fetch`` resolves each atom occurrence to its relation exactly
        as for the interpreter, so delta redirection works unchanged;
        probe targets (index dict or row container) are resolved once
        per call, not per tuple.  Rows come back in the kernel's storage
        domain: codes when :attr:`interned` (insert them with
        ``raw_add``), plain values otherwise.

        A ``hook`` is shown each solution's value-domain ``Binding``
        once, after the body's last step, and may veto the row.

        Otherwise the list holds one row per solution, unless ``fold``
        lets existential steps and member groups run as probes (see
        :mod:`repro.engine.codegen`): then a solution that
        repeats a row of its binding is counted in the returned
        :class:`FoldedRows`' ``repeats`` instead.  The counters are the
        same either way.
        """
        out, lookups, rows, cmps, negs, *folded = self.generated.run(
            fetch, self._predicates, hook, round_index, fold)
        stats.atom_lookups += lookups
        stats.rows_matched += rows
        stats.comparisons_checked += cmps
        stats.negation_checks += negs
        if folded and folded[0]:
            out = FoldedRows(out)
            out.repeats = folded[0]
        return out

    # -- introspection -------------------------------------------------------
    def describe(self) -> str:
        """Render the step program and its generated function."""
        mode = ", interned" if self.symbols is not None else ""
        lines = [f"{self.rule.label or '?'}: {self.rule} "
                 f"[{self.n_slots} slots{mode}]"]
        for number, note in enumerate(self._step_notes, start=1):
            lines.append(f"  {number}. {note}")
        lines.append("  generated function:")
        lines.extend(f"    {line}"
                     for line in self.generated.source.splitlines())
        return "\n".join(lines)


class KernelCache:
    """Per-evaluation memo of compiled kernels.

    Kernels are keyed by ``(rule, variant)`` where ``variant`` is the
    engine's delta-redirection tag (``None`` for the base plan, the
    redirected body index for a semi-naive delta variant), so each
    (stratum, delta-variant) pair is compiled once, at its first firing,
    and that kernel runs every later firing of the key.  How a miss is
    planned is decided by :class:`repro.engine.fire.Firer`; the cache
    holds kernels, never a planner.

    All kernels of the cache are compiled against its :attr:`symbols`
    and share one :class:`~repro.engine.codegen.PredicateCache`
    (:attr:`predicates`).
    """

    __slots__ = ("symbols", "predicates", "_kernels")

    def __init__(self, symbols: SymbolTable | None = None) -> None:
        self.symbols = symbols
        self.predicates = PredicateCache(symbols)
        self._kernels: dict[tuple[Rule, object], CompiledKernel] = {}

    def __len__(self) -> int:
        return len(self._kernels)

    def get(self, rule: Rule, variant: object) -> CompiledKernel | None:
        """The kernel ``(rule, variant)`` was compiled to, if any."""
        return self._kernels.get((rule, variant))

    def put(self, rule: Rule, variant: object,
            kernel: CompiledKernel) -> CompiledKernel:
        """Keep ``kernel`` for ``(rule, variant)``; returns it.

        Facts never get here: the :class:`~repro.engine.fire.Firer`
        inserts a fact's head row without a kernel, so a cache shared by
        a stream of bound queries holds no query's magic seed.
        """
        self._kernels[rule, variant] = kernel
        return kernel


def compile_rule(rule: Rule, sizes: Sizes,
                 keep_atom_order: bool = False,
                 cost: Cost | None = None,
                 symbols: SymbolTable | None = None) -> CompiledKernel:
    """Compile one rule body into a :class:`CompiledKernel`."""
    return CompiledKernel(rule, sizes, keep_atom_order=keep_atom_order,
                          cost=cost, symbols=symbols)
