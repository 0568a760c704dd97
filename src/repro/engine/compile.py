"""Compiled rule kernels: slot-based join execution.

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
- every variable is mapped to an integer *slot* in a flat list
  environment — no per-tuple dict allocation, no ``Variable`` hashing;
- each database atom becomes a closure that probes a pre-resolved
  :meth:`repro.facts.relation.Relation.index_for` hash index with
  precomputed bound-column extractors, writes unbound columns straight
  into slots and checks repeated columns in place;
- comparisons and negations become pre-bound slot checks (negations are
  ground at plan time, so they compile to a single set-membership test);
- the head becomes a tuple constructor over slots.

Kernels are pure code: they bake in body *positions*, never relation
objects, so semi-naive evaluation compiles one variant per
delta-redirected occurrence and reuses it across all rounds, resolving
the actual relations (delta vs. full) per firing through the same
``fetch`` callable the interpreter uses.

**Interned mode.**  Compiled against a shared
:class:`~repro.facts.symbols.SymbolTable` (``symbols=``), a kernel
joins entirely over dense ``int`` codes: program constants are interned
at compile time, probe keys and negation members are code tuples,
slots hold codes.  Only two step kinds ever touch values: comparison
checks decode their operands (``<`` must order values, not codes), and
arithmetic computes in the value domain and re-interns its result.
Head rows are emitted *in the storage domain* — the engines insert them
through :meth:`repro.facts.relation.Relation.raw_add`, so a derived
fact is never decoded unless a human-facing boundary (result
materialization, derivation hooks, tracing) asks for it.

Interned storage also unlocks **tail fusion**: when the last planned
step is a positive atom with no in-atom equality checks and the head is
built from variables and constants only, the kernel swaps the innermost
closure call for a generated list comprehension that maps each matching
bucket row straight to a head tuple.  That removes one Python call per
matched row on the innermost loop — the hot loop of transitive closure
— and is the main single-thread win of the columnar representation.

The interpreter remains the semantics oracle: a kernel must derive
exactly the same head rows (as a set, and the same number of solutions)
as :func:`repro.engine.bindings.solve_body` on every rule and database.
Derivation hooks are honoured by lazily materializing a *value-domain*
``Binding`` view of the slot environment — the dict is only built when
a hook is installed, so the hot path never pays for it.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..datalog.atoms import Atom, Comparison, Negation
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Variable, variables_of
from ..errors import EvaluationError
from ..facts.relation import Row
from ..facts.symbols import SymbolTable
from . import builtins
from .bindings import (Binding, Cost, EvalStats, Fetch, _check_atom_args,
                       bound_columns_of, plan_body)

#: Known executors for the bottom-up engines.  ``vectorized`` lowers
#: each firing to a whole-frontier batch kernel over columnar storage
#: (see :mod:`repro.engine.vectorize`).
EXECUTORS = ("compiled", "interpreted", "vectorized")

#: ``sizes(atom, body_index) -> int`` — relation-size estimate used by
#: the greedy planner at compile time.
Sizes = Callable[[Atom, int], int]

#: Per-derivation hook, as in :mod:`repro.engine.seminaive`.
Hook = Callable[[Rule, Binding, int], bool]


def validate_executor(executor: str) -> None:
    if executor not in EXECUTORS:
        raise EvaluationError(
            f"unknown executor {executor!r}; expected one of {EXECUTORS}")


class _Ctx:
    """Mutable per-execution state shared by the step closures."""

    __slots__ = ("rels", "emit", "out", "lookups", "rows", "cmps", "negs")

    def __init__(self) -> None:
        self.rels: list = []
        self.emit = None
        self.out: list = []
        self.lookups = 0
        self.rows = 0
        self.cmps = 0
        self.negs = 0


def _term_getter(term, slot_of: dict[Variable, int]):
    """Compile a term into ``env -> value`` over the slot environment."""
    if isinstance(term, Constant):
        value = term.value
        return lambda env: value
    if isinstance(term, Variable):
        slot = slot_of[term]
        return lambda env: env[slot]
    # ArithExpr
    left = _term_getter(term.left, slot_of)
    right = _term_getter(term.right, slot_of)
    op = term.op
    apply_arith = builtins.apply_arith
    return lambda env: apply_arith(op, left(env), right(env))


def _coded_term_getter(term, slot_of: dict[Variable, int],
                       symbols: SymbolTable | None):
    """``env -> storage-domain value`` (a code in interned mode).

    Program constants are interned once at compile time; arithmetic is
    the one term kind that must round-trip — operands are decoded, the
    result computed in the value domain and re-interned, so derived
    numbers get codes like any loaded constant.
    """
    if symbols is None:
        return _term_getter(term, slot_of)
    if isinstance(term, Constant):
        code = symbols.intern(term.value)
        return lambda env: code
    if isinstance(term, Variable):
        slot = slot_of[term]
        return lambda env: env[slot]
    # ArithExpr: value-domain computation, re-interned result.
    left = _decoded_term_getter(term.left, slot_of, symbols)
    right = _decoded_term_getter(term.right, slot_of, symbols)
    op = term.op
    apply_arith = builtins.apply_arith
    intern = symbols.intern
    return lambda env: intern(apply_arith(op, left(env), right(env)))


def _decoded_term_getter(term, slot_of: dict[Variable, int],
                         symbols: SymbolTable | None):
    """``env -> value`` even when slots hold codes.

    Comparison checks need real values: codes are dense ints in
    interning order, so ``<`` over codes would order by first
    appearance, not by value.
    """
    if symbols is None:
        return _term_getter(term, slot_of)
    if isinstance(term, Constant):
        value = term.value
        return lambda env: value
    if isinstance(term, Variable):
        slot = slot_of[term]
        values = symbols.values
        return lambda env: values[env[slot]]
    left = _decoded_term_getter(term.left, slot_of, symbols)
    right = _decoded_term_getter(term.right, slot_of, symbols)
    op = term.op
    apply_arith = builtins.apply_arith
    return lambda env: apply_arith(op, left(env), right(env))


def _make_atom_step(src: int, key_getters, writes, checks, cont):
    """An atom step: probe/scan, bind unbound columns, run ``cont``.

    ``ctx.rels[src]`` holds the pre-resolved probe target: the hash
    index dict when ``key_getters`` is given, the raw row container for
    a full scan.  ``writes`` are ``(column, slot)`` pairs for first
    occurrences of unbound variables; ``checks`` are later occurrences
    of a variable first bound within this same atom.
    """
    if key_getters is not None and len(key_getters) == 1:
        single_getter = key_getters[0]
    else:
        single_getter = None

    def step(env, ctx):
        ctx.lookups += 1
        if key_getters is None:
            bucket = ctx.rels[src]
        else:
            if single_getter is not None:
                key = (single_getter(env),)
            else:
                key = tuple(g(env) for g in key_getters)
            bucket = ctx.rels[src].get(key)
            if bucket is None:
                return
        matched = 0
        if checks:
            for row in bucket:
                for col, slot in writes:
                    env[slot] = row[col]
                ok = True
                for col, slot in checks:
                    if row[col] != env[slot]:
                        ok = False
                        break
                if ok:
                    matched += 1
                    cont(env, ctx)
        elif writes:
            for row in bucket:
                for col, slot in writes:
                    env[slot] = row[col]
                matched += 1
                cont(env, ctx)
        else:
            for _row in bucket:
                matched += 1
                cont(env, ctx)
        ctx.rows += matched

    return step


def _make_fused_tail_step(src: int, key_getters, builder):
    """The fused innermost step: bucket rows map straight to head rows.

    ``builder(env, bucket)`` is a generated list comprehension (see
    :meth:`CompiledKernel._try_fuse_tail`) producing the head tuples for
    every row of the bucket; the whole batch lands in ``ctx.out`` with
    one ``extend``, with no per-row closure call and no slot writes.
    Only valid when the tail atom has no in-atom checks, so every bucket
    row matches.
    """
    if key_getters is not None and len(key_getters) == 1:
        single_getter = key_getters[0]
    else:
        single_getter = None

    def step(env, ctx):
        ctx.lookups += 1
        if key_getters is None:
            bucket = ctx.rels[src]
        else:
            if single_getter is not None:
                key = (single_getter(env),)
            else:
                key = tuple(g(env) for g in key_getters)
            bucket = ctx.rels[src].get(key)
            if bucket is None:
                return
        ctx.out.extend(builder(env, bucket))
        ctx.rows += len(bucket)

    return step


def _make_negation_step(src: int, value_getters, cont):
    """A negation step: the atom is ground here, so it is one membership
    test against the relation's row container."""

    def step(env, ctx):
        ctx.negs += 1
        if tuple(g(env) for g in value_getters) not in ctx.rels[src]:
            cont(env, ctx)

    return step


def _make_member_step(src: int, value_getters, cont):
    """A fully-bound positive atom: one membership test, no index.

    Probing an all-columns index would mean building an index that is
    just the row set again — a full O(n) construction to answer O(1)
    questions the row container already answers.
    """

    def step(env, ctx):
        ctx.lookups += 1
        if tuple(g(env) for g in value_getters) in ctx.rels[src]:
            ctx.rows += 1
            cont(env, ctx)

    return step


def _make_check_step(op: str, lhs_get, rhs_get, cont):
    compare_values = builtins.compare_values

    def step(env, ctx):
        ctx.cmps += 1
        if compare_values(op, lhs_get(env), rhs_get(env)):
            cont(env, ctx)

    return step


def _make_bind_step(slot: int, value_get, cont):
    def step(env, ctx):
        ctx.cmps += 1
        env[slot] = value_get(env)
        cont(env, ctx)

    return step


def _chain(plans: list[tuple], cont):
    """Fold step descriptions into a closure chain, innermost-first."""
    for plan in reversed(plans):
        tag = plan[0]
        if tag == "atom":
            _, src, key_getters, writes, checks = plan
            cont = _make_atom_step(src, key_getters, writes, checks, cont)
        elif tag == "check":
            _, op, lhs, rhs = plan
            cont = _make_check_step(op, lhs, rhs, cont)
        elif tag == "bind":
            _, target_slot, getter = plan
            cont = _make_bind_step(target_slot, getter, cont)
        elif tag == "member":
            _, src, getters = plan
            cont = _make_member_step(src, getters, cont)
        else:  # neg
            _, src, getters = plan
            cont = _make_negation_step(src, getters, cont)
    return cont


class CompiledKernel:
    """One rule body lowered to a chain of slot-machine closures.

    Attributes:
        rule: the source rule.
        order: the body indexes in execution order (the cached plan).
        n_slots: size of the flat environment.
        sources: ``(body_index, atom, bound_columns, kind)`` per
            relation-touching step, in execution order; ``kind`` is
            ``"probe"``, ``"scan"`` or ``"neg"``.  :meth:`execute`
            resolves each to a probe target through ``fetch``.
        symbols: the shared intern table, or None for value-domain
            compilation.  Head rows are emitted in the storage domain.
        plan_costs: ``{body_index: estimated rows per probe}`` recorded
            at plan time when a ``cost`` callback was supplied (the
            adaptive planner); empty otherwise.
        fused: whether the tail step was fused (see module docstring).
    """

    __slots__ = ("rule", "order", "n_slots", "sources", "symbols",
                 "plan_costs", "fused", "deep_fused",
                 "batch_plan", "batch_head",
                 "_entry", "_fast_entry", "_deep_fn", "_head_fn",
                 "_slot_items", "_step_notes")

    def __init__(self, rule: Rule, sizes: Sizes,
                 keep_atom_order: bool = False,
                 cost: Cost | None = None,
                 symbols: SymbolTable | None = None,
                 fuse: bool = True) -> None:
        self.rule = rule
        self.symbols = symbols
        self.order = plan_body(rule, sizes, keep_atom_order=keep_atom_order,
                               cost=cost)
        slot_of: dict[Variable, int] = {}

        def slot(var: Variable) -> int:
            found = slot_of.get(var)
            if found is None:
                found = len(slot_of)
                slot_of[var] = found
            return found

        # First pass: describe each step with compile-time data.
        plans: list[tuple] = []  # (tag, payload...)
        self.sources: list[tuple[int, Atom, tuple[int, ...], str]] = []
        self.plan_costs: dict[int, float] = {}
        self._step_notes: list[str] = []
        bound: set[Variable] = set()
        # Symbolic probe descriptions for whole-body fusion: one entry
        # per atom step, or None once any non-atom step appears.
        sym_plans: list[tuple] | None = []

        # Fully symbolic step program for the vectorized batch executor
        # (:mod:`repro.engine.vectorize`): unlike ``sym_plans`` it also
        # carries member/negation/comparison/bind steps.  Terms appear
        # as ``("const", payload)`` / ``("slot", slot)``; arithmetic
        # (the one term kind that must round-trip through the value
        # domain per row) disqualifies the batch lowering entirely and
        # the vectorized executor falls back to this kernel's
        # :meth:`execute`.
        batch_ok = True
        bsteps: list[tuple] = []

        def _sym_coded(term):
            """Storage-domain symbolic term, or None for arithmetic."""
            if isinstance(term, Constant):
                return ("const", symbols.intern(term.value)
                        if symbols is not None else term.value)
            if isinstance(term, Variable):
                return ("slot", slot_of[term])
            return None

        def _sym_value(term):
            """Value-domain symbolic term (slots still hold codes)."""
            if isinstance(term, Constant):
                return ("const", term.value)
            if isinstance(term, Variable):
                return ("slot", slot_of[term])
            return None

        for index in self.order:
            lit = rule.body[index]
            if not isinstance(lit, Atom) or isinstance(lit, Negation):
                sym_plans = None
            if isinstance(lit, Comparison):
                can_check = builtins.can_check(lit, bound)
                if not can_check and builtins.can_bind(lit, bound):
                    # ``=`` in binding position: assign one new slot.
                    if isinstance(lit.lhs, Variable) \
                            and lit.lhs not in bound:
                        target, source = lit.lhs, lit.rhs
                    else:
                        target, source = lit.rhs, lit.lhs
                    getter = _coded_term_getter(source, slot_of, symbols)
                    source_sym = _sym_coded(source) if batch_ok else None
                    target_slot = slot(target)
                    plans.append(("bind", target_slot, getter))
                    if source_sym is None:
                        batch_ok = False
                    else:
                        bsteps.append(("bind", target_slot, source_sym))
                    self._step_notes.append(f"bind         {lit}")
                else:
                    lhs = _decoded_term_getter(lit.lhs, slot_of, symbols)
                    rhs = _decoded_term_getter(lit.rhs, slot_of, symbols)
                    if batch_ok:
                        lhs_sym = _sym_value(lit.lhs)
                        rhs_sym = _sym_value(lit.rhs)
                        if lhs_sym is None or rhs_sym is None:
                            batch_ok = False
                        else:
                            # The trailing body index lets the batch
                            # lowering match this check against
                            # dataflow's provably-true comparisons.
                            bsteps.append(
                                ("check", lit.op, lhs_sym, rhs_sym,
                                 index))
                    plans.append(("check", lit.op, lhs, rhs))
                    self._step_notes.append(f"check        {lit}")
                bound.update(lit.variable_set())
                continue
            if isinstance(lit, Negation):
                _check_atom_args(lit.atom)
                getters = tuple(_coded_term_getter(arg, slot_of, symbols)
                                for arg in lit.atom.args)
                src = len(self.sources)
                self.sources.append((index, lit.atom, (), "neg"))
                plans.append(("neg", src, getters))
                if batch_ok:
                    neg_syms = tuple(_sym_coded(arg)
                                     for arg in lit.atom.args)
                    if any(sym is None for sym in neg_syms):
                        batch_ok = False
                    else:
                        bsteps.append(("neg", src, neg_syms))
                self._step_notes.append(f"absent       {lit}")
                continue
            # Database atom.
            _check_atom_args(lit)
            if cost is not None:
                self.plan_costs[index] = cost(
                    lit, index, bound_columns_of(lit, bound))
            cols: list[int] = []
            key_getters: list = []
            key_syms: list[tuple[str, object]] = []
            writes: list[tuple[int, int]] = []
            checks: list[tuple[int, int]] = []
            atom_new: set[Variable] = set()
            for column, arg in enumerate(lit.args):
                if isinstance(arg, Constant):
                    cols.append(column)
                    key_getters.append(
                        _coded_term_getter(arg, slot_of, symbols))
                    key_syms.append(
                        ("const", symbols.intern(arg.value)
                         if symbols is not None else arg.value))
                elif arg in bound:
                    cols.append(column)
                    key_getters.append(
                        _coded_term_getter(arg, slot_of, symbols))
                    key_syms.append(("slot", slot_of[arg]))
                elif arg in atom_new:
                    # Repeated within this atom: first occurrence binds,
                    # later ones must match the just-written slot.
                    checks.append((column, slot_of[arg]))
                else:
                    atom_new.add(arg)
                    writes.append((column, slot(arg)))
            if cols and not writes and not checks:
                # Every column is bound: a membership test against the
                # row container, not an index probe (see
                # :func:`_make_member_step`).
                src = len(self.sources)
                self.sources.append((index, lit, (), "member"))
                plans.append(("member", src, tuple(key_getters)))
                bsteps.append(("member", src, tuple(key_syms)))
                sym_plans = None
                self._step_notes.append(f"{'member':12} {lit}")
                bound.update(lit.variable_set())
                continue
            src = len(self.sources)
            kind = "probe" if cols else "scan"
            self.sources.append((index, lit, tuple(cols), kind))
            plans.append(("atom", src,
                          tuple(key_getters) if cols else None,
                          tuple(writes), tuple(checks)))
            bsteps.append(("atom", src,
                           tuple(key_syms) if cols else None,
                           tuple(writes), tuple(checks)))
            if sym_plans is not None:
                sym_plans.append((src,
                                  tuple(key_syms) if cols else None,
                                  tuple(writes), tuple(checks)))
            detail = f"probe[{','.join(map(str, cols))}]" if cols \
                else "scan"
            note = f"{detail:12} {lit}"
            estimate = self.plan_costs.get(index)
            if estimate is not None:
                note += f"  ~{estimate:g} rows/probe"
            self._step_notes.append(note)
            bound.update(lit.variable_set())

        # Head constructor: every head variable must have a slot.
        head_getters = []
        for arg in rule.head.args:
            for var in variables_of(arg):
                if var not in slot_of:
                    raise EvaluationError(
                        f"head variable {var} unbound in rule "
                        f"{rule.label or rule}; rule is not range "
                        "restricted")
            head_getters.append(_coded_term_getter(arg, slot_of, symbols))
        head_getters = tuple(head_getters)

        bhead: list[tuple] = []
        if batch_ok:
            for arg in rule.head.args:
                sym = _sym_coded(arg)
                if sym is None:  # ArithExpr head: generic path only.
                    batch_ok = False
                    break
                bhead.append(sym)
        #: Symbolic batch program + head for the vectorized executor,
        #: or None when the body/head uses arithmetic (or is empty) and
        #: the batch lowering must fall back to :meth:`execute`.
        self.batch_plan = tuple(bsteps) if batch_ok and bsteps else None
        self.batch_head = tuple(bhead) if self.batch_plan is not None \
            else None

        def head_fn(env, _getters=head_getters):
            return tuple(g(env) for g in _getters)

        self._head_fn = head_fn
        self.n_slots = len(slot_of)
        self._slot_items = tuple(slot_of.items())

        # Second pass: chain the closures innermost-first.
        def emit_solution(env, ctx):
            ctx.emit(env)

        self._entry = _chain(plans, emit_solution)
        # ``fuse=False`` skips both fusion passes when the caller knows
        # this kernel will run through its batch form (the vectorized
        # executor): fusion's codegen would be paid on every compile
        # and used only on the rare hook/decline fallback, where the
        # unfused chain produces identical rows and counters anyway.
        # Kernels without a batch plan always fall back, so fuse those.
        if not fuse and self.batch_plan is not None:
            self._fast_entry = None
            self._deep_fn = None
        else:
            self._fast_entry = self._try_fuse_tail(plans, slot_of)
            self._deep_fn = self._try_fuse_body(sym_plans, slot_of)
        self.fused = self._fast_entry is not None
        self.deep_fused = self._deep_fn is not None

    def _try_fuse_tail(self, plans: list[tuple],
                       slot_of: dict[Variable, int]):
        """Build the fused fast entry, or None when fusion doesn't apply.

        Requirements: interned storage, the last planned step is a
        positive atom with no in-atom equality checks (every bucket row
        matches), and every head argument is a variable or constant.
        The head tuple is then a pure projection of earlier-bound slots
        and the tail row's columns, expressed as one generated list
        comprehension compiled with :func:`eval` — per matched row the
        interpreter executes projection bytecode only, no closure call.
        """
        if self.symbols is None or not plans:
            return None
        tail = plans[-1]
        if tail[0] != "atom":
            return None
        _, src, key_getters, writes, checks = tail
        if checks or not self.rule.head.args:
            return None
        col_of_slot = {s: c for c, s in writes}
        parts: list[str] = []
        for arg in self.rule.head.args:
            if isinstance(arg, Constant):
                parts.append(repr(self.symbols.intern(arg.value)))
            elif isinstance(arg, Variable):
                slot = slot_of[arg]
                column = col_of_slot.get(slot)
                parts.append(f"row[{column}]" if column is not None
                             else f"env[{slot}]")
            else:  # ArithExpr head: keep the generic path.
                return None
        source_text = (f"lambda env, bucket: "
                       f"[({', '.join(parts)},) for row in bucket]")
        builder = eval(source_text, {"__builtins__": {}}, {})  # noqa: S307
        fused = _make_fused_tail_step(src, key_getters, builder)
        self._step_notes.append(
            f"fuse         tail -> {self.rule.head} "
            f"[({', '.join(parts)})]")
        return _chain(plans[:-1], fused)

    def _try_fuse_body(self, sym_plans: list[tuple] | None,
                       slot_of: dict[Variable, int]):
        """Compile the *whole body* to one generated function, or None.

        Whole-body fusion subsumes tail fusion: when every planned step
        is a positive database atom (no comparisons, binds or
        negations) and the head is built from variables and constants
        only, the entire join is expressed as a cascade of generated
        list comprehensions over int codes — one per atom level, each
        materializing the matched row prefixes of that level — executed
        by :func:`exec`-compiled bytecode with **zero** per-row Python
        calls.  The per-level list lengths reproduce the closure
        chain's ``lookups``/``rows_matched`` accounting exactly (level
        ``k`` is entered once per row matched at level ``k-1``), so
        compiled statistics stay bit-identical to the interpreter's.

        Returns ``kern(rels) -> (head_rows, level_counts)``.
        """
        if self.symbols is None or not sym_plans:
            return None
        # slot -> "r{level}[{column}]" at the slot's first write.
        ref: dict[int, str] = {}
        for level, (_src, _keys, writes, _checks) in enumerate(sym_plans):
            for column, slot in writes:
                ref.setdefault(slot, f"r{level}[{column}]")
        parts: list[str] = []
        for arg in self.rule.head.args:
            if isinstance(arg, Constant):
                parts.append(repr(self.symbols.intern(arg.value)))
            elif isinstance(arg, Variable):
                expr = ref.get(slot_of[arg])
                if expr is None:
                    return None
                parts.append(expr)
            else:  # ArithExpr head: keep the generic path.
                return None
        head_expr = f"({', '.join(parts)},)" if parts else "()"
        last = len(sym_plans) - 1
        lines = ["def _kern(rels):"]
        names: list[str] = []
        for level, (src, keys, writes, checks) in enumerate(sym_plans):
            if keys is None:
                source = f"rels[{src}]"
            else:
                key = ", ".join(repr(payload) if kind == "const"
                                else ref[payload]
                                for kind, payload in keys)
                source = f"rels[{src}].get(({key},), ())"
            if level == last:
                item = head_expr
            elif level == 0:
                item = "r0"  # bare rows; tuples only once joined
            else:
                item = "(" + ", ".join(f"r{i}"
                                       for i in range(level + 1)) + ",)"
            gens = f"for r{level} in {source}"
            if level == 1:
                gens = f"for r0 in {names[0]} " + gens
            elif level > 1:
                prefix = ", ".join(f"r{i}" for i in range(level))
                gens = f"for ({prefix},) in {names[-1]} " + gens
            conds = "".join(f" if r{level}[{column}] == {ref[slot]}"
                            for column, slot in checks)
            name = "out" if level == last else f"lvl{level}"
            names.append(name)
            lines.append(f"    {name} = [{item} {gens}{conds}]")
        counts = ", ".join(f"len({name})" for name in names)
        lines.append(f"    return out, ({counts},)")
        namespace: dict = {}
        exec("\n".join(lines), {"__builtins__": {}, "len": len},  # noqa: S102
             namespace)
        self._step_notes.append(
            f"fuse         body -> {self.rule.head} [{head_expr}]")
        return namespace["_kern"]

    @property
    def interned(self) -> bool:
        """Whether head rows come out in the coded storage domain."""
        return self.symbols is not None

    # -- execution -----------------------------------------------------------
    def execute(self, fetch: Fetch, stats: EvalStats,
                hook: Optional[Hook] = None,
                round_index: int = 0) -> list[Row]:
        """Run the kernel and return the derived head rows (buffered).

        ``fetch`` resolves each atom occurrence to its relation exactly
        as for the interpreter, so delta redirection works unchanged;
        probe targets (index dict or row container) are resolved once
        per call, not per tuple.  Rows come back in the kernel's storage
        domain: codes when :attr:`interned` (insert them with
        ``raw_add``), plain values otherwise.  When ``hook`` is given, a
        value-domain ``Binding`` dict view of the slot environment is
        materialized per solution and the hook may veto the row — the
        fast path never builds it.
        """
        ctx = _Ctx()
        rels = ctx.rels
        for body_index, atom, cols, kind in self.sources:
            relation = fetch(atom, body_index)
            if kind == "probe":
                rels.append(relation.index_for(cols))
            else:  # scan / neg / member: the raw (read-only) row container
                rels.append(relation.raw_rows())
        if hook is None and self._deep_fn is not None:
            out, counts = self._deep_fn(rels)
            # Level k runs once per row matched at level k-1 (plus one
            # entry into level 0): identical accounting to the chain.
            stats.atom_lookups += 1 + sum(counts[:-1])
            stats.rows_matched += sum(counts)
            return out
        out: list[Row] = []
        env: list = [None] * self.n_slots
        if hook is None and self._fast_entry is not None:
            ctx.out = out
            self._fast_entry(env, ctx)
        else:
            head_fn = self._head_fn
            if hook is None:
                def emit(e) -> None:
                    out.append(head_fn(e))
            else:
                rule = self.rule
                slot_items = self._slot_items
                symbols = self.symbols
                if symbols is None:
                    def emit(e) -> None:
                        binding = {var: e[s] for var, s in slot_items}
                        if hook(rule, binding, round_index):
                            out.append(head_fn(e))
                else:
                    values = symbols.values

                    def emit(e) -> None:
                        binding = {var: values[e[s]]
                                   for var, s in slot_items}
                        if hook(rule, binding, round_index):
                            out.append(head_fn(e))
            ctx.emit = emit
            self._entry(env, ctx)
        stats.atom_lookups += ctx.lookups
        stats.rows_matched += ctx.rows
        stats.comparisons_checked += ctx.cmps
        stats.negation_checks += ctx.negs
        return out

    # -- introspection -------------------------------------------------------
    def describe(self) -> str:
        """Render the compiled step program (one line per step)."""
        mode = ", interned" if self.symbols is not None else ""
        lines = [f"{self.rule.label or '?'}: {self.rule} "
                 f"[{self.n_slots} slots{mode}]"]
        for number, note in enumerate(self._step_notes, start=1):
            lines.append(f"  {number}. {note}")
        if not self._step_notes:
            lines.append("  (empty body: emits the ground head once)")
        return "\n".join(lines)


class KernelCache:
    """Per-evaluation cache of compiled kernels, with drift replanning.

    Kernels are keyed by ``(rule, variant)`` where ``variant`` is the
    engine's delta-redirection tag (``None`` for the base plan, the
    redirected body index for a semi-naive delta variant), so each
    (stratum, delta-variant) pair compiles exactly once and is reused
    across rounds — *until its plan goes stale*.

    Under the adaptive planner (``adaptive=True``) every cache entry
    remembers the sizes of its positive sources at plan time.  On each
    hit those sizes are re-read through the caller's ``sizes`` callback
    (delta-aware); when any source has grown or shrunk past
    ``replan_threshold`` (default 4x, both directions, ignoring
    relations that never exceed 16 rows) the kernel is recompiled
    against current statistics.  Because the snapshot resets to the
    *new* sizes on every replan, a source growing monotonically to ``n``
    rows triggers at most ``log_threshold(n)`` replans — O(log n) per
    (rule, variant) per fixpoint — and ``max_replans`` caps the count
    outright for adversarial oscillation.
    """

    __slots__ = ("keep_atom_order", "symbols", "adaptive",
                 "replan_threshold", "replan_floor", "max_replans",
                 "replans", "fuse", "on_replan", "_kernels",
                 "_replan_counts")

    def __init__(self, keep_atom_order: bool = False,
                 symbols: SymbolTable | None = None,
                 adaptive: bool = False,
                 replan_threshold: float = 4.0,
                 replan_floor: int = 16,
                 max_replans: int = 16,
                 fuse: bool = True,
                 on_replan: Callable[[Rule], None] | None = None) -> None:
        self.keep_atom_order = keep_atom_order
        self.symbols = symbols
        #: False under the vectorized executor: batch-lowerable kernels
        #: skip the fusion codegen they would never use.
        self.fuse = fuse
        self.adaptive = adaptive
        self.replan_threshold = replan_threshold
        #: Sources smaller than this (both then and now) never trigger.
        self.replan_floor = replan_floor
        self.max_replans = max_replans
        #: Total recompilations caused by drift, across all keys.
        self.replans = 0
        #: Optional drift-replan observer (rule that drifted).  The
        #: cost-based optimizer hooks this to re-enter its per-rule
        #: enumeration (e.g. batch-vs-row kernel choice) against the
        #: statistics that triggered the replan.
        self.on_replan = on_replan
        self._kernels: dict[tuple[Rule, object],
                            tuple[CompiledKernel, tuple[int, ...]]] = {}
        self._replan_counts: dict[tuple[Rule, object], int] = {}

    def __len__(self) -> int:
        return len(self._kernels)

    def _snapshot(self, kernel: CompiledKernel,
                  sizes: Sizes) -> tuple[int, ...]:
        return tuple(sizes(atom, body_index)
                     for body_index, atom, _cols, kind in kernel.sources
                     if kind != "neg")

    def _drifted(self, kernel: CompiledKernel, sizes: Sizes,
                 snapshot: tuple[int, ...]) -> bool:
        threshold = self.replan_threshold
        floor = self.replan_floor
        position = 0
        for body_index, atom, _cols, kind in kernel.sources:
            if kind == "neg":
                continue
            then = snapshot[position]
            position += 1
            now = sizes(atom, body_index)
            big, small = (now, then) if now >= then else (then, now)
            if big >= floor and big >= threshold * max(1, small):
                return True
        return False

    def kernel(self, rule: Rule, variant: object, sizes: Sizes,
               cost: Cost | None = None) -> CompiledKernel:
        key = (rule, variant)
        entry = self._kernels.get(key)
        if entry is not None:
            kernel, snapshot = entry
            if not self.adaptive \
                    or self._replan_counts.get(key, 0) >= self.max_replans \
                    or not self._drifted(kernel, sizes, snapshot):
                return kernel
            self._replan_counts[key] = self._replan_counts.get(key, 0) + 1
            self.replans += 1
            if self.on_replan is not None:
                self.on_replan(rule)
        kernel = CompiledKernel(
            rule, sizes, keep_atom_order=self.keep_atom_order,
            cost=cost, symbols=self.symbols, fuse=self.fuse)
        self._kernels[key] = (kernel, self._snapshot(kernel, sizes))
        return kernel


def compile_rule(rule: Rule, sizes: Sizes,
                 keep_atom_order: bool = False,
                 cost: Cost | None = None,
                 symbols: SymbolTable | None = None) -> CompiledKernel:
    """Compile one rule body into a :class:`CompiledKernel`."""
    return CompiledKernel(rule, sizes, keep_atom_order=keep_atom_order,
                          cost=cost, symbols=symbols)
