"""One way to fire a rule: plan it, run it, merge what it derived.

Every schedule in the repo — the semi-naive rounds
(:mod:`repro.engine.seminaive`), the naive repeat-until-unchanged loop
(:mod:`repro.engine.naive`), the delta passes of incremental
maintenance (:mod:`repro.incremental.maintain`) and ``explain``
(:mod:`repro.engine.plan`) — decides *which* rule fires against *which*
relations.  The three decisions of the firing itself are made here,
once: how the body is ordered (:func:`compile_firing` — ``explain``
calls it too, so an explained plan is a fired plan), what runs it
(:meth:`Firer.run`) and how its rows go in (:meth:`Firer.merge`).
"""

from __future__ import annotations

from typing import Collection

from ..datalog.atoms import Atom
from ..datalog.rules import Rule
from ..errors import EvaluationError
from ..facts.relation import Relation, Row
from ..facts.symbols import SymbolTable
from ..runtime import chaos
from ..runtime.budget import Budget
from .bindings import (Cost, EvalStats, Fetch, Sizes, anchor_cost,
                       anchor_sizes, instantiate_head, solve_body,
                       validate_planner)
from .codegen import PredicateCache
from .compile import (CompiledKernel, FoldedRows, Hook, KernelCache,
                      validate_executor)


def estimators(fetch: Fetch, frontier: Collection[int], planner: str,
               ranked: Fetch | None = None
               ) -> tuple[Sizes | None, Cost | None]:
    """The ``sizes`` or (adaptive only) ``cost`` callback of one firing.

    ``fetch`` resolves each body occurrence to the relation the firing
    reads (the delta for a redirected one) and ``frontier`` lists the
    occurrences whose relation holds only new rows.  The ``"adaptive"``
    planner costs every atom against the live cardinality / distinct
    statistics of what it will read, the frontier rule applied to the
    cost (:func:`~repro.engine.bindings.anchor_cost`), and ranks no
    sizes.  Any other planner ranks the same relations greedily by size,
    the frontier rule applied to the sizes
    (:func:`~repro.engine.bindings.anchor_sizes`).

    ``ranked`` is greedy's other behaviour: the relations to rank when
    they are *not* the ones read.  Semi-naive delta rounds pass their
    base fetch — greedy has always ranked the base relation under a
    delta (the E1–E10 counters depend on it), and a base relation is no
    frontier, so the rule has nothing to discount there.
    """
    if planner == "adaptive":
        def cost(atom: Atom, index: int,
                 bound_cols: tuple[int, ...]) -> float:
            return fetch(atom, index).probe_estimate(bound_cols)

        return None, anchor_cost(cost, frontier)

    def sizes_of(source: Fetch) -> Sizes:
        def sizes(atom: Atom, index: int) -> int:
            return len(source(atom, index))
        return sizes

    if ranked is not None:
        return sizes_of(ranked), None
    return anchor_sizes(sizes_of(fetch), frontier), None


def compile_firing(rule: Rule, fetch: Fetch, frontier: Collection[int],
                   planner: str, ranked: Fetch | None = None,
                   symbols: SymbolTable | None = None,
                   predicates: PredicateCache | None = None
                   ) -> CompiledKernel:
    """``rule`` compiled for one firing, ordered as ``planner`` orders it.

    The whole planning policy of the repo: ``"source"`` keeps atoms in
    rule order, the other two rank what :func:`estimators` measures for
    this firing (``fetch``, ``frontier`` and ``ranked`` are as there).
    :class:`Firer` compiles a cache miss through it and ``explain``
    (:mod:`repro.engine.plan`) every plan it renders.
    """
    sizes, cost = estimators(fetch, frontier, planner, ranked)
    return CompiledKernel(rule, sizes, keep_atom_order=planner == "source",
                          cost=cost, symbols=symbols, predicates=predicates)


class Firer:
    """Fires rules for one evaluation or maintenance run.

    Where every schedule's ``planner`` and ``executor`` are turned into
    behaviour.  ``"compiled"`` runs a
    :class:`~repro.engine.compile.KernelCache` — ``kernels`` when the
    caller keeps one across runs, which must be compiled against the
    same ``symbols`` — and plans a kernel once, at its first firing
    (:func:`compile_firing`), while a fact needs none: its firing is its
    head row; ``"interpreted"`` runs the oracle, which
    re-plans greedily every firing (in rule order under ``"source"``)
    and takes no ``kernels``.

    ``stats`` accumulates every counter; ``budget`` (already resolved
    and started) and the chaos plan active at construction are consulted
    per derivation event by :meth:`merge`.
    """

    __slots__ = ("kernels", "planner", "symbols", "stats", "budget",
                 "hook", "chaos_plan")

    def __init__(self, planner: str, executor: str,
                 symbols: SymbolTable | None, stats: EvalStats,
                 budget: Budget | None = None, hook: Hook | None = None,
                 kernels: KernelCache | None = None) -> None:
        validate_executor(executor)
        validate_planner(planner)
        if kernels is not None and executor != "compiled":
            raise EvaluationError(
                f"kernels= needs executor='compiled', not {executor!r}")
        if kernels is not None and kernels.symbols is not symbols:
            raise EvaluationError(
                "kernels= was compiled against another symbol table than "
                "the database's")
        if kernels is None and executor == "compiled":
            kernels = KernelCache(symbols=symbols)
        self.planner = planner
        self.kernels = kernels
        self.symbols = symbols
        self.stats = stats
        self.budget = budget
        self.hook = hook
        self.chaos_plan = chaos.active_plan()

    @property
    def whole_sets(self) -> bool:
        """Whether a firing's rows may come and go as one set (a copy
        rule's union): compiled, and nothing has to see the rows one at
        a time — a hook each solution, a chaos plan each derivation
        event, a counter limit the exact event it is crossed at."""
        return self.kernels is not None and self.hook is None \
            and self.chaos_plan is None \
            and not (self.budget is not None
                     and self.budget.counter_limited)

    def run(self, rule: Rule, fetch: Fetch, variant: object = None,
            frontier: Collection[int] = (), ranked: Fetch | None = None,
            round_index: int = 0) -> list[Row]:
        """All derivations of ``rule`` under ``fetch``, buffered.

        The list is in the storage domain (codes when interned) and
        carries *multiplicity* — one entry per body solution the hook
        let through — which :meth:`merge` counts as duplicate
        derivations.  When nothing has to see each solution
        (:attr:`whole_sets`) a kernel folds its existential steps and
        member groups, and
        the solutions that only repeat a row come back as the
        :class:`~repro.engine.compile.FoldedRows`' ``repeats``.
        ``variant`` keys the kernel (one per delta-redirected occurrence
        or maintenance pass) and is planned at its first firing only;
        ``frontier`` and ``ranked`` are as in :func:`estimators`.
        """
        stats = self.stats
        stats.rules_fired += 1
        kernels = self.kernels
        if kernels is not None:
            if rule.is_fact:
                return self._fact(rule, round_index)
            kernel = kernels.get(rule, variant)
            if kernel is None:
                kernel = kernels.put(rule, variant, compile_firing(
                    rule, fetch, frontier, self.planner, ranked,
                    kernels.symbols, kernels.predicates))
            return kernel.execute(fetch, stats, hook=self.hook,
                                  round_index=round_index,
                                  fold=self.whole_sets)
        hook = self.hook
        derived = [instantiate_head(rule, binding)
                   for binding in solve_body(
                       rule, fetch, stats,
                       keep_atom_order=self.planner == "source")
                   if hook is None or hook(rule, binding, round_index)]
        if self.symbols is not None:
            return list(map(self.symbols.intern_row, derived))
        return derived

    def _fact(self, rule: Rule, round_index: int) -> list[Row]:
        """A fact's firing: its head row, shown to the hook with the
        empty binding as the interpreter shows it.  No kernel is
        compiled: a magic seed's constants are the whole fact, and a
        stream of bound queries would compile one per query."""
        if self.hook is not None and not self.hook(rule, {}, round_index):
            return []
        row = instantiate_head(rule, {})
        if self.symbols is not None:
            row = self.symbols.intern_row(row)
        return [row]

    def merge(self, derived: Collection[Row], target: Relation,
              last_round: int = 0) -> Collection[Row]:
        """Insert one firing's rows into ``target``; returns the new ones.

        Budget ticks are amortized: ``checkpoint`` returns how many
        derivation events may pass before the next check without a
        counter limit being crossed, and that many rows go in as one
        C-level set difference — so exhaustion payloads stay exact while
        the insert pays one Python call per window instead of one per
        row.  ``derivations`` and ``duplicate_derivations`` total what a
        row-at-a-time insert would count.  Under a chaos plan the rows
        do go in one at a time: fault ordinals are per derivation event.
        A :class:`~repro.engine.compile.FoldedRows`' repeats are
        duplicate derivations.
        """
        if type(derived) is FoldedRows:
            self.stats.duplicate_derivations += derived.repeats
        budget = self.budget
        if self.chaos_plan is not None:
            return self._merge_rows(derived, target, last_round)
        if budget is None or not isinstance(derived, list):
            if budget is not None:
                # A copy rule's row set goes in whole (no counter limit
                # is set, or it would have come as a list).
                budget.checkpoint(self.stats, last_round=last_round)
            return self._merge_window(derived, target)
        fresh: set[Row] = set()
        position = 0
        while position < len(derived):
            countdown = budget.checkpoint(self.stats, last_round=last_round)
            chunk = derived[position:position + max(countdown, 1)]
            position += len(chunk)
            fresh |= self._merge_window(chunk, target)
        return fresh

    def _merge_window(self, chunk: Collection[Row],
                      target: Relation) -> set[Row]:
        new_rows = target.raw_merge_new(chunk)
        self.stats.derivations += len(new_rows)
        self.stats.duplicate_derivations += len(chunk) - len(new_rows)
        return new_rows

    def _merge_rows(self, derived: Collection[Row], target: Relation,
                    last_round: int) -> list[Row]:
        stats, budget, chaos_plan = self.stats, self.budget, self.chaos_plan
        assert chaos_plan is not None
        new_rows: list[Row] = []
        countdown = budget.checkpoint(stats, last_round=last_round) \
            if budget is not None else 0
        for row in derived:
            chaos_plan.derivation()
            if target.raw_add(row):
                new_rows.append(row)
                stats.derivations += 1
            else:
                stats.duplicate_derivations += 1
            if budget is not None:
                countdown -= 1
                if countdown <= 0:
                    countdown = budget.checkpoint(stats,
                                                  last_round=last_round)
        return new_rows
