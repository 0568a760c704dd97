"""Batch-vectorized rule kernels: whole-frontier execution per firing.

The compiled executor (:mod:`repro.engine.compile`) already fuses
pure-positive bodies into generated comprehensions, but every firing
still resolves probe targets through per-probe attribute lookups, wraps
every single-column key in a fresh 1-tuple, and runs comparisons,
negations and fully-bound membership tests through per-row closure
calls.  This module lowers a kernel's **symbolic batch plan**
(``CompiledKernel.batch_plan``) one step further, into a single
generated function that processes the whole delta frontier per firing:

- the first join level iterates its source *without* copying it;
- probes go through :meth:`Relation.code_index_for` — single-column
  indexes keyed by the **bare** interned code, so the hot loop never
  allocates a key tuple — with the bucket getter hoisted out of the
  loop once per firing;
- when the innermost join level feeds exactly one of its columns into
  the head, the probe is replaced by a
  :meth:`Relation.projection_index` lookup and the level emits
  projected codes directly, never touching a row tuple;
- comparisons against a constant are evaluated **per column, not per
  row**: a :class:`PredicateCache` memoizes, per
  ``(relation, version, predicate)``, the set of column codes passing
  the check, so each distinct code is compared once per relation
  version and the per-row work is one set-membership test.  The cache's
  invalidation rule is exactly the backend's version counter: any
  content change bumps it and orphans the entry;
- negations and fully-bound atoms become column/set membership filters
  inside the same comprehension cascade.

Statistics parity is exact: the generated function returns, alongside
the derived head rows, closed-form counter sums (lookups per level
entry, rows per level output, comparison/negation counts per entry)
that reproduce the closure chain's ``EvalStats`` accounting
bit-identically — the differential fuzz matrix pins the vectorized
executor to the compiled one on facts, counters, budget payloads and
chaos ordinals alike.

Anything the symbolic plan cannot express (arithmetic terms, empty
bodies, derivation hooks installed) falls back to
:meth:`CompiledKernel.execute` — same rows, same stats, just the
per-row path.
"""

from __future__ import annotations

import math
import types
from typing import (TYPE_CHECKING, Any, Callable, Mapping, Optional,
                    Sequence)

from ..datalog.rules import Rule
from ..errors import EvaluationError
from ..facts.relation import Relation, Row
from ..facts.symbols import SymbolTable
from . import builtins
from .bindings import EvalStats, Fetch
from .compile import CompiledKernel, Hook

if TYPE_CHECKING:
    from ..facts.backend import ColumnarBackend

__all__ = ["BatchKernel", "PredicateCache", "VectorRunner",
           "compile_batch", "columnar_backend_factory"]


def columnar_backend_factory(name: str, arity: int) -> ColumnarBackend:
    """``Database.backend_factory`` building columnar storage.

    Passed by the evaluation entry points when ``executor="vectorized"``
    runs over an interned database, so IDB and delta relations land in
    :class:`~repro.facts.backend.ColumnarBackend` stores (O(1)-copy
    snapshots).  Only valid for interned rows — codes are ints, which
    is what ``array('q')`` holds.
    """
    from ..facts.backend import ColumnarBackend

    return ColumnarBackend(arity)


class _Unvectorizable(Exception):
    """Internal: this plan cannot be expressed as a batch kernel."""


#: Generated source text -> compiled code object.  Batch kernels for
#: the same (plan shape, interned constants) recur across evaluations
#: — every benchmark repeat, every serving refresh — and ``compile`` is
#: the expensive half of instantiating one.
_CODE_CACHE: dict[str, types.CodeType] = {}


def _lit(value: object) -> str:
    """Embed a storage constant into generated code, or refuse.

    Only round-trippable literals are embedded; anything exotic (a
    non-finite float, an arbitrary object in raw mode) bails out of the
    batch lowering entirely rather than risk an unfaithful ``repr``.
    """
    if value is True or value is False or isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, float) and math.isfinite(value):
        return repr(value)
    raise _Unvectorizable()


class _CheckedColumn:
    """Predicate-cache container when some codes cannot be ordered.

    ``compare_values`` raises for mixed-type ordering comparisons; a
    cached column filter must preserve that, so codes whose comparison
    raised at build time re-raise on membership — the same error, at
    the same row, as the per-row executor.
    """

    __slots__ = ("passing", "raising", "op", "const", "slot_left", "values")

    def __init__(self, passing: frozenset[Any], raising: frozenset[Any],
                 op: str, const: object, slot_left: bool,
                 values: Sequence[Any] | None) -> None:
        self.passing = passing
        self.raising = raising
        self.op = op
        self.const = const
        self.slot_left = slot_left
        self.values = values

    def __contains__(self, code: Any) -> bool:
        if code in self.raising:
            value = self.values[code] if self.values is not None else code
            left, right = ((value, self.const) if self.slot_left
                           else (self.const, value))
            builtins.compare_values(self.op, left, right)
        return code in self.passing


class PredicateCache:
    """Memoized column-level predicate filters.

    ``passing(relation, column, op, const, slot_left)`` returns a
    membership container holding every code of ``relation``'s
    ``column`` that satisfies ``value <op> const`` (or ``const <op>
    value`` when ``slot_left`` is False).  Entries are keyed by the
    backend's ``(uid, ...)`` identity and stamped with its ``version``;
    **any mutation bumps the version and invalidates the entry** — the
    whole invalidation protocol.  Distinct codes are compared once per
    relation version instead of once per row per firing.
    """

    __slots__ = ("symbols", "entries", "builds")

    def __init__(self, symbols: SymbolTable | None = None) -> None:
        self.symbols = symbols
        self.entries: dict[tuple[Any, ...], tuple[int, object]] = {}
        #: Cache-miss rebuilds, for introspection/tests.
        self.builds = 0

    def passing(self, relation: Relation, column: int, op: str,
                const: object, slot_left: bool) -> object:
        backend = relation.backend
        key = (backend.uid, column, op, const, slot_left)
        version = backend.version
        entry = self.entries.get(key)
        if entry is not None and entry[0] == version:
            return entry[1]
        values = self.symbols.values if self.symbols is not None else None
        compare = builtins.compare_values
        passing: set[Any] = set()
        raising: set[Any] = set()
        for code in relation.code_index_for(column):
            value = values[code] if values is not None else code
            left, right = ((value, const) if slot_left
                           else (const, value))
            try:
                if compare(op, left, right):
                    passing.add(code)
            except EvaluationError:
                raising.add(code)
        container: object
        if raising:
            container = _CheckedColumn(frozenset(passing),
                                       frozenset(raising), op, const,
                                       slot_left, values)
        else:
            container = frozenset(passing)
        self.builds += 1
        self.entries[key] = (version, container)
        return container


class BatchKernel:
    """A compiled whole-frontier batch function plus its resolver specs.

    ``fn(*args) -> (head_rows, lookups, rows, cmps, negs)`` where
    ``args`` are the per-firing probe targets described by
    ``resolvers`` (see :meth:`VectorRunner.run`).  ``source`` keeps the
    generated code for introspection (``explain --kernels``).
    """

    __slots__ = ("fn", "resolvers", "source")

    def __init__(self, fn: Callable[..., tuple[list[Row], int, int,
                                               int, int]],
                 resolvers: tuple[Any, ...], source: str) -> None:
        self.fn = fn
        self.resolvers = resolvers
        self.source = source


def _eq_const_codes(plan: tuple[Any, ...],
                    symbols: SymbolTable | None) -> tuple[Any, ...]:
    """Interned codes of ``=``/``!=`` comparison constants.

    These are the only symbol-table lookups :func:`_generate` performs
    outside the plan itself (the plan already stores atom constants in
    the storage domain): equality against a *never-interned* constant
    lowers to a static ``False``/always-true, so the generated text
    depends on how each such constant resolves right now.  The tuple
    completes the structural cache key below.
    """
    if symbols is None:
        return ()
    codes: list[Any] = []
    for step in plan:
        if step[0] == "check" and step[1] in ("=", "!="):
            for sym in (step[2], step[3]):
                if sym[0] == "const":
                    codes.append(symbols.code(sym[1]))
    return tuple(codes)


#: ``(plan, head, interned, eq-codes)`` -> ``(source, specs)`` or the
#: ``_DECLINED`` sentinel.  The generated text is a pure function of
#: this key, so repeat evaluations (benchmark runs, serving refreshes)
#: skip the string assembly and go straight to the cached bytecode —
#: only the per-table ``exec`` instantiation remains.
_DECLINED = object()
_TEXT_CACHE: dict[tuple[Any, ...], object] = {}


def compile_batch(kernel: CompiledKernel,
                  true_checks: frozenset[int] = frozenset(),
                  ) -> BatchKernel | None:
    """Lower a kernel's symbolic batch plan, or None when it can't be.

    ``true_checks`` lists body indexes of comparisons the dataflow
    analysis proved always true for every reachable row; the generated
    code drops their per-row conditions (the accounting still counts
    them, so ``EvalStats`` stay bit-identical to the unskipped form).
    """
    if kernel.batch_plan is None or kernel.batch_head is None:
        return None
    symbols = kernel.symbols
    try:
        key = (kernel.batch_plan, kernel.batch_head, symbols is not None,
               _eq_const_codes(kernel.batch_plan, symbols),
               tuple(sorted(true_checks)))
    except TypeError:  # unhashable constant somewhere in the plan
        key = None
    if key is not None:
        cached = _TEXT_CACHE.get(key)
        if cached is _DECLINED:
            return None
        if isinstance(cached, tuple):
            source_text, specs = cached
            return _instantiate(
                source_text, specs,
                symbols.values if symbols is not None else None)
    try:
        batch = _generate(kernel, true_checks)
    except _Unvectorizable:
        if key is not None:
            _TEXT_CACHE[key] = _DECLINED
        return None
    if key is not None:
        _TEXT_CACHE[key] = (batch.source, batch.resolvers)
    return batch


def _generate(kernel: CompiledKernel,
              true_checks: frozenset[int] = frozenset()) -> BatchKernel:
    plan = kernel.batch_plan
    head = kernel.batch_head
    assert plan is not None and head is not None
    symbols = kernel.symbols
    interned = symbols is not None
    values = symbols.values if interned else None

    last_level = -1
    for pos, step in enumerate(plan):
        if step[0] != "bind":
            last_level = pos
    if last_level < 0:
        raise _Unvectorizable()
    deferred_binds = [step for pos, step in enumerate(plan)
                      if step[0] == "bind" and pos > last_level]

    specs: list[tuple[Any, ...]] = []
    spec_idx: dict[tuple[Any, ...], int] = {}

    def arg_of(spec: tuple[Any, ...]) -> int:
        found = spec_idx.get(spec)
        if found is None:
            found = len(specs)
            spec_idx[spec] = found
            specs.append(spec)
        return found

    reg_exprs: dict[int, str] = {}
    #: slot -> (source ordinal, column) at the slot's first atom write;
    #: the predicate cache can only filter slots with a column origin.
    origins: dict[int, tuple[int, int]] = {}
    regs: list[str] = []
    lines: list[str] = []
    lk: list[str] = []
    rm: list[str] = []
    cc: list[str] = []
    nc: list[str] = []
    state: dict[str, Any] = {"count": "1", "frontier": None, "levels": 0}

    def sym_storage(sym: tuple[str, Any]) -> str:
        kind, payload = sym
        if kind == "const":
            return _lit(payload)
        expr = reg_exprs.get(payload)
        if expr is None:
            raise _Unvectorizable()
        return expr

    def decode(expr: str) -> str:
        return f"V[{expr}]" if interned else expr

    def gens_prefix() -> str:
        frontier = state["frontier"]
        if frontier is None:
            return ""
        if frontier[0] == "virtual":
            return f"for {regs[0]} in {frontier[1]} "
        if not regs:
            pattern = "_"
        elif len(regs) == 1:
            pattern = regs[0]
        else:
            pattern = "(" + ", ".join(regs) + ",)"
        return f"for {pattern} in {frontier[1]} "

    def item_expr() -> str:
        if not regs:
            return "1"
        if len(regs) == 1:
            return regs[0]
        return "(" + ", ".join(regs) + ",)"

    def atom_source(src: int, keys: tuple[Any, ...] | None,
                    cols: tuple[int, ...]) -> str:
        if keys is None:
            return f"a{arg_of(('rows', src))}"
        if len(cols) == 1:
            j = arg_of(("probe1", src, cols[0]))
            return f"g{j}({sym_storage(keys[0])}, E)"
        j = arg_of(("probeN", src, cols))
        key = "(" + ", ".join(sym_storage(k) for k in keys) + ",)"
        return f"g{j}({key}, E)"

    def membership_cond(src: int, syms: tuple[Any, ...],
                        positive: bool) -> str:
        word = "in" if positive else "not in"
        if len(syms) == 1:
            j = arg_of(("member1", src, 0))
            return f"{sym_storage(syms[0])} {word} a{j}"
        j = arg_of(("rows", src))
        if not syms:
            return f"E {word} a{j}"
        key = "(" + ", ".join(sym_storage(s) for s in syms) + ",)"
        return f"{key} {word} a{j}"

    def check_cond(op: str, lhs_sym: tuple[str, Any],
                   rhs_sym: tuple[str, Any]) -> str | None:
        """A per-row condition for a comparison, or None when always
        true.  ``=``/``!=`` compare in the storage domain (interning is
        first-wins over value equality, so code equality is value
        equality); ordering comparisons against a constant route
        through the column-level predicate cache when the slot has a
        column origin, and decode inline otherwise."""
        lkind, lval = lhs_sym
        rkind, rval = rhs_sym
        if lkind == "const" and rkind == "const":
            try:
                return None if builtins.compare_values(op, lval, rval) \
                    else "False"
            except EvaluationError:
                # Preserve the per-row raise (only if a row arrives).
                return f"C({op!r}, {_lit(lval)}, {_lit(rval)})"
        if op in ("=", "!="):
            py = "==" if op == "=" else "!="
            if lkind == "slot" and rkind == "slot":
                return (f"{sym_storage(lhs_sym)} {py} "
                        f"{sym_storage(rhs_sym)}")
            slot_sym, const_val = ((lhs_sym, rval) if lkind == "slot"
                                   else (rhs_sym, lval))
            sexpr = sym_storage(slot_sym)
            if symbols is not None:
                code = symbols.code(const_val)
                if code is None:
                    # Never-interned constant: no stored value equals it.
                    return "False" if op == "=" else None
                return f"{sexpr} {py} {code}"
            return f"{sexpr} {py} {_lit(const_val)}"
        if lkind == "slot" and rkind == "slot":
            return (f"C({op!r}, {decode(sym_storage(lhs_sym))}, "
                    f"{decode(sym_storage(rhs_sym))})")
        slot_left = lkind == "slot"
        slot_no = lval if slot_left else rval
        const_val = rval if slot_left else lval
        sexpr = sym_storage(("slot", slot_no))
        origin = origins.get(slot_no)
        if origin is not None:
            j = arg_of(("pcache", origin[0], origin[1], op, const_val,
                        slot_left))
            return f"{sexpr} in a{j}"
        if slot_left:
            return f"C({op!r}, {decode(sexpr)}, {_lit(const_val)})"
        return f"C({op!r}, {_lit(const_val)}, {decode(sexpr)})"

    def emit_filter(cond: str | None, is_last: bool,
                    head_expr: str | None = None) -> None:
        if cond is None and not is_last:
            return  # statically true: the level is a no-op copy
        prefix = gens_prefix()
        name = "out" if is_last else f"lvl{state['levels']}"
        state["levels"] += 1
        item = head_expr if is_last else item_expr()
        if cond == "False":
            lines.append(f"{name} = []")
        elif state["frontier"] is None:
            if cond is None:
                lines.append(f"{name} = [{item}]")
            else:
                lines.append(f"{name} = [{item}] if {cond} else []")
        elif cond is None:
            lines.append(f"{name} = [{item} {prefix.rstrip()}]")
        else:
            lines.append(f"{name} = [{item} {prefix}if {cond}]")
        state["frontier"] = ("list", name)
        state["count"] = f"len({name})"

    def head_parts() -> list[str]:
        for dstep in deferred_binds:
            _tag, dslot, dsym = dstep
            reg_exprs[dslot] = sym_storage(dsym)
            cc.append("len(out)")
        return [sym_storage(sym) for sym in head]

    for pos, step in enumerate(plan):
        tag = step[0]
        is_last = pos == last_level
        if tag == "bind":
            if pos > last_level:
                continue  # folded into head_parts, counted vs len(out)
            _tag, slot_no, sym = step
            cc.append(state["count"])
            reg_exprs[slot_no] = sym_storage(sym)
            continue
        if tag == "check":
            _tag, op, lhs_sym, rhs_sym, body_index = step
            cc.append(state["count"])
            # Dataflow proved the comparison true for every reachable
            # row: no condition needed (the count above still accrues,
            # matching the row-at-a-time executors exactly).
            skip = body_index in true_checks
            if is_last:
                cond = None if skip else check_cond(op, lhs_sym, rhs_sym)
                parts = head_parts()
                head_expr = ("(" + ", ".join(parts) + ",)"
                             if parts else "()")
                emit_filter(cond, True, head_expr)
            else:
                cond = None if skip else check_cond(op, lhs_sym, rhs_sym)
                emit_filter(cond, False)
            continue
        if tag in ("member", "neg"):
            _tag, src, syms = step
            positive = tag == "member"
            (lk if positive else nc).append(state["count"])
            cond = membership_cond(src, syms, positive)
            if is_last:
                parts = head_parts()
                head_expr = ("(" + ", ".join(parts) + ",)"
                             if parts else "()")
                emit_filter(cond, True, head_expr)
            else:
                emit_filter(cond, False)
            if positive:
                rm.append(state["count"])
            continue
        # tag == "atom"
        _tag, src, keys, writes, checks = step
        cols = kernel.sources[src][2]
        lk.append(state["count"])
        prefix = gens_prefix()
        rname = f"r{len(regs)}"
        for col, slot_no in writes:
            reg_exprs[slot_no] = f"{rname}[{col}]"
            origins[slot_no] = (src, col)
        conds = "".join(f" if {rname}[{col}] == {reg_exprs[slot_no]}"
                        for col, slot_no in checks)
        source = atom_source(src, keys, cols)
        if not is_last:
            if state["frontier"] is None and not checks:
                # Virtual first level: iterate the source in place —
                # no list copy, count is just its length.
                sname = f"s{state['levels']}"
                state["levels"] += 1
                lines.append(f"{sname} = {source}")
                regs.append(rname)
                state["frontier"] = ("virtual", sname)
                state["count"] = f"len({sname})"
                rm.append(state["count"])
            else:
                name = f"lvl{state['levels']}"
                state["levels"] += 1
                regs.append(rname)
                item = item_expr()
                lines.append(
                    f"{name} = [{item} {prefix}for {rname} in "
                    f"{source}{conds}]")
                state["frontier"] = ("list", name)
                state["count"] = f"len({name})"
                rm.append(state["count"])
            continue
        # Final level: emit head rows directly.
        parts = head_parts()
        atom = kernel.sources[src][1]
        arity = len(atom.args)
        identity = (state["frontier"] is None and not checks and arity > 0
                    and parts == [f"{rname}[{i}]" for i in range(arity)])
        if identity:
            # The head is the row verbatim: one C-level list copy.
            lines.append(f"out = list({source})")
        else:
            if keys is not None and len(cols) == 1 and not checks:
                used = sorted({col for col, _slot in writes
                               if f"{rname}[{col}]" in parts})
                if len(used) == 1:
                    # Projection: the level contributes exactly one
                    # column to the head, so probe the projection index
                    # and emit its entries — no row tuples at all.
                    val_col = used[0]
                    j = arg_of(("proj", src, cols[0], val_col))
                    source = f"g{j}({sym_storage(keys[0])}, E)"
                    vname = f"v{len(regs)}"
                    parts = [vname if part == f"{rname}[{val_col}]"
                             else part for part in parts]
                    rname = vname
            head_expr = ("(" + ", ".join(parts) + ",)" if parts
                         else "()")
            lines.append(f"out = [{head_expr} {prefix}for {rname} in "
                         f"{source}{conds}]")
        state["frontier"] = ("list", "out")
        state["count"] = "len(out)"
        rm.append("len(out)")

    params = ", ".join(f"a{i}" for i in range(len(specs)))
    prologue = [f"g{i} = a{i}.get" for i, spec in enumerate(specs)
                if spec[0] in ("probe1", "probeN", "proj")]

    def total(terms: list[str]) -> str:
        return " + ".join(terms) if terms else "0"

    body = [f"def _batch({params}):"]
    body.extend(f"    {line}" for line in prologue)
    body.extend(f"    {line}" for line in lines)
    body.append(f"    return out, {total(lk)}, {total(rm)}, "
                f"{total(cc)}, {total(nc)}")
    return _instantiate("\n".join(body), tuple(specs), values)


def _instantiate(source_text: str, specs: tuple[Any, ...],
                 values: Sequence[Any] | None) -> BatchKernel:
    """Exec generated batch source into a :class:`BatchKernel`.

    Bytecode compilation dominates codegen cost and depends only on the
    source text — cache it process-wide.  The globals cannot be cached
    alongside: ``V`` binds the decode table of *this* evaluation's
    symbol table.
    """
    code = _CODE_CACHE.get(source_text)
    if code is None:
        code = compile(source_text, "<batch-kernel>", "exec")
        _CODE_CACHE[source_text] = code
    namespace: dict[str, Any] = {}
    exec(code,  # noqa: S102 - generated from the symbolic plan
         {"__builtins__": {}, "len": len, "list": list, "E": (),
          "C": builtins.compare_values, "V": values},
         namespace)
    return BatchKernel(namespace["_batch"], specs, source_text)


class VectorRunner:
    """Per-evaluation driver for the vectorized executor.

    Holds the batch-kernel cache (keyed by kernel identity, so adaptive
    replans recompile the batch form too) and the shared
    :class:`PredicateCache`.  ``run`` executes a kernel's batch form
    when it has one and no derivation hook is installed, and falls back
    to :meth:`CompiledKernel.execute` otherwise — both paths produce
    identical rows and statistics.

    ``kernel_choice``, when set (``planner="cbo"``), is consulted once
    per kernel identity: a ``row`` verdict pins the rule to the
    compiled row-at-a-time kernel even though a batch lowering exists
    (narrow predicted frontiers never amortize the batch setup).  The
    verdict caches with the batch form, so an adaptive-drift replan —
    a fresh kernel identity — re-enters the choice against current
    statistics.
    """

    __slots__ = ("symbols", "cache", "true_checks", "kernel_choice",
                 "_compiled")

    def __init__(self, symbols: SymbolTable | None = None,
                 true_checks: Mapping[Rule, frozenset[int]] | None = None,
                 kernel_choice: Callable[[CompiledKernel], Any] | None
                 = None) -> None:
        self.symbols = symbols
        self.cache = PredicateCache(symbols)
        #: rule -> body indexes of provably-true comparisons (from the
        #: dataflow analysis); kernels for those rules skip the checks.
        self.true_checks = true_checks or {}
        #: optional CBO chooser: kernel -> KernelChoice (``use_batch``).
        self.kernel_choice = kernel_choice
        # id(kernel) -> (kernel, batch | None); the strong kernel ref
        # keeps ids stable for the lifetime of this runner.
        self._compiled: dict[int, tuple[CompiledKernel,
                                        BatchKernel | None]] = {}

    def batch_for(self, kernel: CompiledKernel) -> BatchKernel | None:
        entry = self._compiled.get(id(kernel))
        if entry is None or entry[0] is not kernel:
            skips = self.true_checks.get(kernel.rule, frozenset())
            batch = compile_batch(kernel, skips)
            if batch is not None and self.kernel_choice is not None \
                    and not self.kernel_choice(kernel).use_batch:
                # Row and batch kernels derive identical rows and
                # counters, so the choice never changes results.
                batch = None
            entry = (kernel, batch)
            self._compiled[id(kernel)] = entry
        return entry[1]

    def invalidate(self, rule: Rule) -> None:
        """Drop cached batch forms (and choices) of ``rule``.

        Called by the kernel cache on an adaptive-drift replan under
        ``planner="cbo"`` so the batch-vs-row enumeration re-enters
        with the statistics that triggered the replan.
        """
        self._compiled = {key: entry for key, entry
                          in self._compiled.items()
                          if entry[0].rule is not rule}

    def run(self, kernel: CompiledKernel, fetch: Fetch, stats: EvalStats,
            hook: Optional[Hook] = None,
            round_index: int = 0) -> list[Row]:
        if hook is not None:
            return kernel.execute(fetch, stats, hook, round_index)
        batch = self.batch_for(kernel)
        if batch is None:
            return kernel.execute(fetch, stats, hook, round_index)
        fetched: dict[int, Relation] = {}

        def rel(src: int) -> Relation:
            relation = fetched.get(src)
            if relation is None:
                body_index, atom, _cols, _kind = kernel.sources[src]
                relation = fetch(atom, body_index)
                fetched[src] = relation
            return relation

        args: list[Any] = []
        for spec in batch.resolvers:
            tag = spec[0]
            if tag == "rows":
                args.append(rel(spec[1]).raw_rows())
            elif tag in ("probe1", "member1"):
                args.append(rel(spec[1]).code_index_for(spec[2]))
            elif tag == "probeN":
                args.append(rel(spec[1]).index_for(spec[2]))
            elif tag == "proj":
                args.append(rel(spec[1]).projection_index(spec[2],
                                                          spec[3]))
            else:  # pcache
                _tag, src, column, op, const, slot_left = spec
                args.append(self.cache.passing(rel(src), column, op,
                                               const, slot_left))
        out, lookups, rows, cmps, negs = batch.fn(*args)
        stats.atom_lookups += lookups
        stats.rows_matched += rows
        stats.comparisons_checked += cmps
        stats.negation_checks += negs
        return out
