"""Generated rule kernels: one whole-frontier function per rule body.

A :class:`~repro.engine.compile.CompiledKernel` describes a rule body
once, as a symbolic step program (``kernel.steps`` / ``kernel.head``).
This module is that program's back end: :class:`GeneratedKernel` lowers
it into a single generated Python function that processes the whole delta
frontier per firing as a cascade of list comprehensions —

- the first join level iterates its source *without* copying it;
- probes go through :meth:`Relation.index_for` — a single-column
  index is keyed by the **bare** stored value, so the hot loop never
  allocates a key tuple — with the bucket getter hoisted out of the
  loop once per firing;
- when the innermost join level feeds exactly one of its columns into
  the head, the probe is replaced by a
  :meth:`Relation.projection_index` lookup and the level emits
  projected values directly, never touching a row tuple;
- comparisons against a constant are evaluated **per column, not per
  row**: a :class:`PredicateCache` memoizes the set of column values
  passing the check, so each distinct value is compared once per
  relation version and the per-row work is one set-membership test;
- negations and fully-bound atoms become membership filters inside the
  same comprehension cascade.

Memory stays bounded by the widest *slice*, not the widest level: each
intermediate level is ``del``-eted as soon as its consumer is built,
and a body with intermediate levels walks its outermost source in
slices of :data:`SLICE_ROWS` rows, accumulating head rows and level
counts across slices.

Every step program has a generated form.  Arithmetic computes in the
value domain — ``A(op, ...)`` over decoded operands — and re-interns
its result for storage; an arithmetic ``=`` bind is one extra clause of
the next level's comprehension.  An empty or bind-only body is a
degenerate frontier of one.  A constant with no faithful literal
(``inf``, ``nan``) is passed as an argument instead of embedded.  A
derivation hook gets a second text of the same program
(``hooked=True``): no step builds the head, and one closing level
filters the finished frontier through ``hook(rule, binding, round)``
before the head rows are built, so the hook sees each solution's
value-domain ``Binding`` exactly once and vetoed rows compute nothing.

Statistics parity is exact: the generated function returns, alongside
the derived head rows, closed-form counter sums (lookups per level
entry, rows per level output, comparison/negation counts per entry)
that reproduce the reference interpreter's row-at-a-time ``EvalStats``
accounting bit-identically under the same join order — the
differential fuzz matrix pins the two to each other, hooked and not.
"""

from __future__ import annotations

import math
import types
from itertools import islice
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from ..errors import EvaluationError
from ..facts.relation import Relation, Row
from ..facts.symbols import SymbolTable
from . import builtins
from .bindings import Fetch

__all__ = ["GeneratedKernel", "PredicateCache", "SLICE_ROWS",
           "MAX_CACHED_KERNELS"]

#: Rows of the outermost source processed per pass when the body
#: materializes intermediate join levels (see the module docstring).
SLICE_ROWS = 2048

#: Entry cap of the process-wide generated-text cache.  Keys embed
#: interned constant codes, so a long-lived process that keeps seeing
#: new programs or bound-query constants would otherwise grow it
#: forever; at the cap the cache is cleared wholesale and refills.
MAX_CACHED_KERNELS = 1024


def _lit(value: object) -> str | None:
    """``value`` as a literal of the generated code, or None.

    Only round-trippable literals are embedded; anything exotic (a
    non-finite float, an arbitrary object in raw mode) has no faithful
    ``repr`` and reaches the function as an argument instead.
    """
    if value is True or value is False or isinstance(value, (int, str)):
        return repr(value)
    if isinstance(value, float) and math.isfinite(value):
        return repr(value)
    return None


def _faithful(obj: Any) -> Any:
    """``obj`` as a cache-key part that tells equal constants apart.

    ``1``, ``1.0`` and ``True`` are equal with equal hashes (so are
    ``0.0`` and ``-0.0``), but generated text and column filters embed
    the constant itself: anything that is not a plain ``int`` or ``str``
    is keyed by its type and ``repr`` as well, tuples leaf by leaf.
    """
    kind = type(obj)
    if kind is int or kind is str:
        return obj
    if kind is tuple:
        return tuple(map(_faithful, obj))
    return (kind, repr(obj), obj)


class _CheckedColumn:
    """Predicate-cache container when some codes cannot be ordered.

    ``compare_values`` raises for mixed-type ordering comparisons; a
    cached column filter must preserve that, so codes whose comparison
    raised at build time re-raise on membership — the same error the
    interpreter raises for that row.
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


#: Filters kept per cached predicate (see :class:`PredicateCache`).
_SLOTS = 2


class PredicateCache:
    """Memoized column-level predicate filters.

    ``passing(relation, column, op, const, slot_left)`` returns a
    membership container holding every stored value of ``relation``'s
    ``column`` that satisfies ``value <op> const`` (or ``const <op>
    value`` when ``slot_left`` is False).  Entries are keyed by the
    *predicate* — ``(relation name, column, op, const, side)`` — and
    hold at most :data:`_SLOTS` filters, each stamped with its relation's
    ``(uid, version)``, most recently used first.  Two, because the
    variants of one rule read a predicate's delta and its full relation
    through the same filter: with one slot each firing would evict the
    other's, and an unchanged full relation (the maintenance phases,
    naive evaluation) would be re-filtered every time.  A mutation
    bumps the version and replaces that relation's slot; a relation never
    seen before (each round's fresh delta) replaces the least recently
    used one.  The cache therefore stays bounded by the number of
    distinct cached predicates, however many rounds or refreshes it
    lives through.
    """

    __slots__ = ("symbols", "entries", "builds")

    def __init__(self, symbols: SymbolTable | None = None) -> None:
        self.symbols = symbols
        self.entries: dict[tuple[Any, ...],
                           list[tuple[tuple[int, int], object]]] = {}
        #: Cache-miss rebuilds, for introspection/tests.
        self.builds = 0

    def passing(self, relation: Relation, column: int, op: str,
                const: object, slot_left: bool) -> object:
        key = (relation.name, column, op, _faithful(const), slot_left)
        stamp = (relation.uid, relation.version)
        # A slot list is replaced, never edited in place: kernels that
        # share the cache may run on several threads at once.
        slots = self.entries.get(key, [])
        for position, slot in enumerate(slots):
            if slot[0] == stamp:
                if position:
                    self.entries[key] = [slot, *slots[:position],
                                         *slots[position + 1:]]
                return slot[1]
        values = self.symbols.values if self.symbols is not None else None
        compare = builtins.compare_values
        passing: set[Any] = set()
        raising: set[Any] = set()
        # A live index already enumerates the distinct codes; without
        # one (a delta nobody probes on this column) don't build one.
        index = relation.indexes.get((column,))
        codes: Iterable[Any] = index if index is not None \
            else {row[column] for row in relation.raw_rows()}
        for code in codes:
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
        # The same relation's slot (mutated since) goes first, then the
        # least recently used.
        kept = [slot for slot in slots if slot[0][0] != relation.uid]
        self.entries[key] = [(stamp, container), *kept[:_SLOTS - 1]]
        return container


#: One relation-touching step of a kernel, as ``CompiledKernel.sources``
#: lists them: ``(body_index, atom, bound_columns, kind)``.
Source = tuple[int, Any, tuple[int, ...], str]


class _Form(NamedTuple):
    """One generated text of a step program."""

    #: ``fn(*args) -> (head_rows, lookups, rows, cmps, negs)``.
    fn: Callable[..., tuple[list[Row], int, int, int, int]]
    #: What each argument of ``fn`` is resolved from, per firing.
    resolvers: tuple[Any, ...]
    #: The generated code, for introspection (``explain --kernels``).
    source: str


class GeneratedKernel:
    """The generated whole-frontier function of one step program.

    A program has two texts (:meth:`form`): the one that
    runs without a derivation hook, generated with the kernel, and the
    hooked one, generated the first time a hook is passed.

    ``rule`` and ``slot_vars`` (the body's variables by slot number)
    are what a derivation hook is shown; they are bound into the
    function's globals, never into its text.
    """

    __slots__ = ("_program", "_forms")

    def __init__(self, steps: tuple[Any, ...], head: tuple[Any, ...],
                 symbols: SymbolTable | None,
                 rule: object = None,
                 slot_vars: tuple[Any, ...] = ()) -> None:
        self._program = (steps, head, symbols, rule, slot_vars)
        self._forms: dict[bool, _Form] = {}
        self.form(False)

    def form(self, hooked: bool) -> _Form:
        """The text that runs with (``hooked``) or without a hook."""
        found = self._forms.get(hooked)
        if found is None:
            found = self._forms[hooked] = _instantiate(*self._program,
                                                       hooked=hooked)
        return found

    @property
    def source(self) -> str:
        """The generated code of the unhooked text."""
        return self.form(False).source

    def run(self, sources: Sequence[Source], fetch: Fetch,
            predicates: PredicateCache,
            hook: Callable[..., bool] | None = None, round_index: int = 0
            ) -> tuple[list[Row], int, int, int, int]:
        """Resolve this firing's arguments and call the function."""
        fn, resolvers, _source = self.form(hook is not None)
        fetched: dict[int, Relation] = {}

        def rel(src: int) -> Relation:
            relation = fetched.get(src)
            if relation is None:
                body_index, atom, _cols, _kind = sources[src]
                relation = fetch(atom, body_index)
                fetched[src] = relation
            return relation

        args: list[Any] = []
        for spec in resolvers:
            tag = spec[0]
            if tag == "rows":
                args.append(rel(spec[1]).raw_rows())
            elif tag in ("probe1", "member1"):
                args.append(rel(spec[1]).index_for((spec[2],)))
            elif tag == "probeN":
                args.append(rel(spec[1]).index_for(spec[2]))
            elif tag == "proj":
                args.append(rel(spec[1]).projection_index(spec[2],
                                                          spec[3]))
            elif tag == "pcache":
                _tag, src, column, op, const, slot_left = spec
                args.append(predicates.passing(rel(src), column, op,
                                               const, slot_left))
            elif tag == "const":
                args.append(spec[1])
            elif tag == "hook":
                args.append(hook)
            else:  # round
                args.append(round_index)
        return fn(*args)


def _eq_const_codes(steps: tuple[Any, ...],
                    symbols: SymbolTable | None) -> tuple[Any, ...]:
    """Interned codes of ``=``/``!=`` comparison constants.

    The step program keeps check operands as values; :func:`_emit`
    compares a slot against such a constant by code, so it interns the
    constant — like the atom constants ``CompiledKernel`` interned
    before it — and embeds the code.  A constant no stored value equals
    *yet* must get a code too: arithmetic interns new values while the
    kernel runs.  The tuple completes the structural cache key below.
    """
    if symbols is None:
        return ()
    codes: list[Any] = []
    for step in steps:
        if step[0] == "check" and step[1] in ("=", "!="):
            for sym in (step[2], step[3]):
                if sym[0] == "const":
                    codes.append(symbols.intern(sym[1]))
    return tuple(codes)


#: ``(steps, head, interned, eq-codes, hooked)`` ->
#: ``(source, specs, bytecode)``; ``steps`` and ``head`` go through
#: :func:`_faithful`, so same-shape rules that differ in a constant's
#: type never share text.
#: The generated text is a pure function of this key, so repeat
#: compilations (every fresh ``KernelCache``, every serving refresh, every
#: benchmark repeat) skip both the string assembly and ``compile`` —
#: only the per-table ``exec`` instantiation remains.
_CACHE: dict[tuple[Any, ...],
             tuple[str, tuple[Any, ...], types.CodeType]] = {}


def _instantiate(steps: tuple[Any, ...], head: tuple[Any, ...],
                 symbols: SymbolTable | None,
                 rule: object, slot_vars: tuple[Any, ...],
                 hooked: bool) -> _Form:
    """One text of a step program (cached), bound to this kernel."""
    key = (_faithful(steps), _faithful(head), symbols is not None,
           _eq_const_codes(steps, symbols), hooked)
    cached = _CACHE.get(key)
    if cached is None:
        if len(_CACHE) >= MAX_CACHED_KERNELS:
            _CACHE.clear()
        source_text, specs = _emit(steps, head, symbols, hooked)
        cached = (source_text, specs,
                  compile(source_text, "<generated-kernel>", "exec"))
        _CACHE[key] = cached
    source_text, specs, code = cached
    namespace: dict[str, Any] = {}
    # The globals cannot be cached alongside the bytecode: ``V``/``I``
    # bind *this* kernel's symbol table, ``R``/``K`` its rule and
    # variables.
    exec(code,  # noqa: S102 - generated from the symbolic step program
         {"__builtins__": {}, "len": len, "list": list, "iter": iter,
          "islice": islice, "E": (), "C": builtins.compare_values,
          "A": builtins.apply_arith,
          "V": symbols.values if symbols is not None else None,
          "I": symbols.intern if symbols is not None else None,
          "R": rule, "K": slot_vars},
         namespace)
    return _Form(namespace["_kernel"], specs, source_text)


def _emit(steps: tuple[Any, ...], head: tuple[Any, ...],
          symbols: SymbolTable | None,
          hooked: bool) -> tuple[str, tuple[Any, ...]]:
    """The generated source text and resolver specs of a step program."""
    interned = symbols is not None

    # The step that builds the last level builds the head rows too —
    # unless something must happen between the two: a hook has to see
    # each solution first, an arithmetic bind trails the last level, or
    # there is no level at all (empty and bind-only bodies).  Then no
    # step is last and one closing level builds the heads.
    last_level = -1
    for pos, step in enumerate(steps):
        if step[0] != "bind":
            last_level = pos
    if hooked or last_level < 0 \
            or any(step[2][0] == "arith" for step in steps[last_level + 1:]):
        last_level = len(steps)
    deferred_binds = steps[last_level + 1:]

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
    #: Arithmetic binds waiting for the next level: each is one
    #: ``for bN in (expr,)`` clause of that level's comprehension.
    pending: list[str] = []
    #: Level-building lines: ``(list name, count name | None, expr)``
    #: (the head level has no count name) or ``("del", name)``.
    lines: list[tuple[Any, ...]] = []
    lk: list[str] = []
    rm: list[str] = []
    cc: list[str] = []
    nc: list[str] = []
    #: ``virtual`` holds the source expression of an in-place first
    #: level (named ``s0`` / counted ``n0``), or None; ``pattern``
    #: unpacks one item of ``frontier``.
    state: dict[str, Any] = {"count": "1", "frontier": None, "levels": 0,
                             "virtual": None, "pattern": "_"}

    def lit(value: object) -> str:
        text = _lit(value)
        if text is None:
            text = f"a{len(specs)}"
            specs.append(("const", value))
        return text

    def decode(expr: str) -> str:
        return f"V[{expr}]" if interned else expr

    def value(sym: tuple[Any, ...]) -> str:
        """``sym`` in the value domain (check and arithmetic operands,
        whose constants the step program keeps as values)."""
        kind = sym[0]
        if kind == "const":
            return lit(sym[1])
        if kind == "slot":
            return decode(reg_exprs[sym[1]])
        _kind, op, left, right = sym
        return f"A({op!r}, {value(left)}, {value(right)})"

    def storage(sym: tuple[Any, ...]) -> str:
        """``sym`` in the storage domain; arithmetic re-interns."""
        kind = sym[0]
        if kind == "const":
            return lit(sym[1])
        if kind == "slot":
            return reg_exprs[sym[1]]
        return f"I({value(sym)})" if interned else value(sym)

    def tup(parts: Sequence[str]) -> str:
        return "(" + ", ".join(parts) + ",)" if parts else "()"

    def gens_prefix() -> str:
        """The clauses every row of the next level starts from: the
        frontier's unpacking, then the pending arithmetic binds."""
        frontier = state["frontier"]
        prefix = "" if frontier is None \
            else f"for {state['pattern']} in {frontier} "
        prefix += "".join(pending)
        pending.clear()
        return prefix

    def item_expr() -> str:
        return regs[0] if len(regs) == 1 else tup(regs) if regs else "1"

    def new_level(expr: str, is_last: bool) -> None:
        """Materialize one level from the current frontier, then free
        the frontier it consumed."""
        consumed = state["frontier"]
        if is_last:
            name, count = "out", "len(out)"
            lines.append((name, None, expr))
        else:
            name, count = f"lvl{state['levels']}", f"n{state['levels']}"
            lines.append((name, count, expr))
        state["levels"] += 1
        if consumed is not None and consumed != "s0":
            lines.append(("del", consumed))
        state["frontier"] = name
        state["count"] = count
        state["pattern"] = item_expr() if regs else "_"

    def atom_source(src: int, cols: tuple[int, ...],
                    keys: tuple[Any, ...]) -> str:
        if not cols:
            return f"a{arg_of(('rows', src))}"
        if len(cols) == 1:
            j = arg_of(("probe1", src, cols[0]))
            return f"g{j}({storage(keys[0])}, E)"
        j = arg_of(("probeN", src, cols))
        return f"g{j}({tup([storage(k) for k in keys])}, E)"

    def membership_cond(src: int, syms: tuple[Any, ...],
                        positive: bool) -> str:
        word = "in" if positive else "not in"
        if len(syms) == 1:
            j = arg_of(("member1", src, 0))
            return f"{storage(syms[0])} {word} a{j}"
        j = arg_of(("rows", src))
        return f"{tup([storage(s) for s in syms])} {word} a{j}"

    def check_cond(op: str, lhs_sym: tuple[Any, ...],
                   rhs_sym: tuple[Any, ...]) -> str | None:
        """A per-row condition for a comparison, or None when always
        true.  ``=``/``!=`` compare in the storage domain (interning is
        first-wins over value equality, so code equality is value
        equality); ordering comparisons against a constant route
        through the column-level predicate cache when the slot has a
        column origin, and decode inline otherwise; an arithmetic
        operand compares in the value domain."""
        lkind, lval = lhs_sym[:2]
        rkind, rval = rhs_sym[:2]

        def inline() -> str:
            return f"C({op!r}, {value(lhs_sym)}, {value(rhs_sym)})"

        if lkind == "const" and rkind == "const":
            try:
                return None if builtins.compare_values(op, lval, rval) \
                    else "False"
            except EvaluationError:
                return inline()  # raises per row, if a row arrives
        if "arith" in (lkind, rkind):
            return inline()
        if op in ("=", "!="):
            py = "==" if op == "=" else "!="
            if lkind == "slot" and rkind == "slot":
                return f"{storage(lhs_sym)} {py} {storage(rhs_sym)}"
            slot_sym, const_val = ((lhs_sym, rval) if lkind == "slot"
                                   else (rhs_sym, lval))
            sexpr = storage(slot_sym)
            if symbols is not None:
                return f"{sexpr} {py} {symbols.intern(const_val)}"
            return f"{sexpr} {py} {lit(const_val)}"
        if lkind == "slot" and rkind == "slot":
            return inline()
        slot_left = lkind == "slot"
        slot_no = lval if slot_left else rval
        origin = origins.get(slot_no)
        if origin is None:
            return inline()
        j = arg_of(("pcache", origin[0], origin[1], op,
                    rval if slot_left else lval, slot_left))
        return f"{reg_exprs[slot_no]} in a{j}"

    def emit_filter(cond: str | None, is_last: bool,
                    head_expr: str | None = None) -> None:
        if cond is None and not is_last:
            return  # statically true: the level is a no-op copy
        if cond == "False" and not pending:
            new_level("[]", is_last)
            return
        prefix = gens_prefix()
        item = head_expr if is_last else item_expr()
        if not prefix:  # a degenerate frontier of one
            expr = f"[{item}]" if cond is None \
                else f"[{item}] if {cond} else []"
        elif cond is None:
            expr = f"[{item} {prefix.rstrip()}]"
        else:
            expr = f"[{item} {prefix}if {cond}]"
        new_level(expr, is_last)

    def head_parts() -> list[str]:
        for _tag, dslot, dsym in deferred_binds:
            reg_exprs[dslot] = storage(dsym)
            cc.append("len(out)")
        return [storage(sym) for sym in head]

    for pos, step in enumerate(steps):
        tag = step[0]
        is_last = pos == last_level
        if tag == "bind":
            if pos > last_level:
                continue  # folded into head_parts, counted vs len(out)
            _tag, slot_no, sym = step
            cc.append(state["count"])
            if sym[0] == "arith":
                # Computed once per row, in a register of its own.
                bname = f"b{len(regs)}"
                pending.append(f"for {bname} in ({storage(sym)},) ")
                regs.append(bname)
                reg_exprs[slot_no] = bname
            else:
                reg_exprs[slot_no] = storage(sym)
            continue
        if tag == "check":
            _tag, op, lhs_sym, rhs_sym = step
            cc.append(state["count"])
            emit_filter(check_cond(op, lhs_sym, rhs_sym), is_last,
                        tup(head_parts()) if is_last else None)
            continue
        if tag in ("member", "neg"):
            _tag, src, syms = step
            positive = tag == "member"
            (lk if positive else nc).append(state["count"])
            cond = membership_cond(src, syms, positive)
            emit_filter(cond, is_last,
                        tup(head_parts()) if is_last else None)
            if positive:
                rm.append(state["count"])
            continue
        # tag == "atom"
        _tag, src, cols, keys, writes, checks = step
        lk.append(state["count"])
        first = state["frontier"] is None and not pending
        prefix = gens_prefix()
        rname = f"r{len(regs)}"
        for col, slot_no in writes:
            reg_exprs[slot_no] = f"{rname}[{col}]"
            origins[slot_no] = (src, col)
        conds = "".join(f" if {rname}[{col}] == {reg_exprs[slot_no]}"
                        for col, slot_no in checks)
        if not is_last:
            source = atom_source(src, cols, keys)
            regs.append(rname)
            if first and not checks:
                # Virtual first level: iterate the source in place —
                # no list copy, count is just its length.
                state["virtual"] = source
                state["levels"] += 1
                state["frontier"] = "s0"
                state["count"] = "n0"
                state["pattern"] = rname
            else:
                new_level(f"[{item_expr()} {prefix}for {rname} in "
                          f"{source}{conds}]", False)
            rm.append(state["count"])
            continue
        # Final level: emit head rows directly.
        parts = head_parts()
        arity = len(cols) + len(writes) + len(checks)
        identity = (first and not checks and arity > 0
                    and parts == [f"{rname}[{i}]" for i in range(arity)])
        if identity:
            # The head is the row verbatim: one C-level list copy.
            new_level(f"list({atom_source(src, cols, keys)})", True)
        else:
            used = sorted({col for col, _slot in writes
                           if f"{rname}[{col}]" in parts})
            if len(cols) == 1 and not checks and len(used) == 1:
                # Projection: the level contributes exactly one column
                # to the head, so probe the projection index and emit
                # its entries — no row tuples at all.
                val_col = used[0]
                j = arg_of(("proj", src, cols[0], val_col))
                source = f"g{j}({storage(keys[0])}, E)"
                vname = f"v{len(regs)}"
                parts = [vname if part == f"{rname}[{val_col}]"
                         else part for part in parts]
                rname = vname
            else:
                source = atom_source(src, cols, keys)
            new_level(f"[{tup(parts)} {prefix}for {rname} in "
                      f"{source}{conds}]", True)
        rm.append("len(out)")

    if last_level == len(steps):
        # The closing level: every slot is bound, so a hook can be shown
        # the whole value-domain binding; it runs after the last
        # ``rows_matched`` count and before any head term is computed.
        cond = None
        if hooked:
            binding = ", ".join(f"k{slot_no}: {decode(expr)}" for
                                slot_no, expr in sorted(reg_exprs.items()))
            cond = (f"a{arg_of(('hook',))}(R, {{{binding}}}, "
                    f"a{arg_of(('round',))})")
        emit_filter(cond, True, tup(head_parts()))

    def total(terms: list[str]) -> str:
        return " + ".join(terms) if terms else "0"

    params = ", ".join(f"a{i}" for i in range(len(specs)))
    body = [f"def _kernel({params}):"]
    body.extend(f"    g{i} = a{i}.get" for i, spec in enumerate(specs)
                if spec[0] in ("probe1", "probeN", "proj"))
    if hooked:
        body.extend(f"    k{slot_no} = K[{slot_no}]"
                    for slot_no in sorted(reg_exprs))
    counts = [line[1] for line in lines
              if line[0] != "del" and line[1] is not None]
    sliced = state["virtual"] is not None and bool(counts)
    if sliced:
        # Intermediate levels behind an in-place first level: walk the
        # source in bounded slices so no level ever holds more than one
        # slice's worth of join prefixes.  ``n0`` (and the single
        # level-0 entry in the lookup count) cover the whole source;
        # the other counts and ``out`` accumulate across slices.
        body.append(f"    whole = {state['virtual']}")
        body.append("    n0 = len(whole)")
        body.append(f"    {' = '.join(counts)} = 0")
        body.append("    out = []")
        body.append("    rest = iter(whole)")
        body.append(f"    s0 = list(islice(rest, {SLICE_ROWS}))")
        body.append("    while s0:")
        indent = "        "
    else:
        if state["virtual"] is not None:
            body.append(f"    s0 = {state['virtual']}")
            body.append("    n0 = len(s0)")
        indent = "    "
    for line in lines:
        if line[0] == "del":
            body.append(f"{indent}del {line[1]}")
            continue
        name, count, expr = line
        if count is None:
            body.append(f"{indent}out {'+=' if sliced else '='} {expr}")
        else:
            body.append(f"{indent}{name} = {expr}")
            body.append(f"{indent}{count} {'+=' if sliced else '='} "
                        f"len({name})")
    if sliced:
        body.append(f"        s0 = list(islice(rest, {SLICE_ROWS}))")
    body.append(f"    return out, {total(lk)}, {total(rm)}, "
                f"{total(cc)}, {total(nc)}")
    return "\n".join(body), tuple(specs)
