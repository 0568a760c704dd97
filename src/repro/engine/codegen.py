"""Generated rule kernels: one whole-frontier function per rule body.

A :class:`~repro.engine.compile.CompiledKernel` describes a rule body
once, as a symbolic step program (``kernel.steps`` / ``kernel.head``).
This module is that program's back end: :class:`GeneratedKernel` lowers
it into a single generated Python function whose body is **one list
comprehension** over the whole delta frontier of a firing —

- each atom step is a ``for`` clause and each check, membership or
  negation step an ``if`` clause, so no join level is ever built as a
  list: a binding lives only while the comprehension extends it;
- the first source is iterated in place, without a copy;
- probes go through :meth:`Relation.index_for` — a single-column
  index is keyed by the **bare** stored value, so the hot loop never
  allocates a key tuple — with the bucket getter hoisted out of the
  loop once per firing;
- when the last atom feeds exactly one of its columns to what follows,
  the probe is replaced by a :meth:`Relation.projection_index` lookup
  and the clause iterates projected values directly, never touching a
  row tuple;
- an **existential** atom — probed on at least one bound column, no
  variable repeated within it, and no slot it writes read by a later
  step or the head (``field(T, F)`` of Example 3.2's pushed recursive
  rule) — is one probe, not a loop:
  ``if (w2 := len(g2(key, E))) and (n2 := n2 + w2)``.  A binding whose
  bucket is empty stops; any other goes on once, standing for as many
  solutions as its bucket holds, and the running product of those
  bucket lengths (the latest ``wN``) weights every later count;
- an atom whose **one new slot only membership tests read** — probed
  on at least one bound column, every other column bound, no variable
  repeated, the slot reaching no head term, check or other atom
  (``field(T, F)`` / ``expert(P, F)`` of Example 3.2's plain recursive
  rule) — folds into those tests.  Its bucket's values of the slot are
  distinct, so the text takes them once as a set
  (:meth:`Relation.set_index`), ``len(x1 := g1(key, E))``, weighting
  the steps up to the first test by that size; each test becomes one
  intersection with the same kind of set of its own relation, keyed by
  its other columns, ``len(x1.intersection(g3(key, E)))``, whose size
  weights what follows.  Neither side may read the relation the rule
  derives: its set index would be kept current on every derived row;
- comparisons against a constant are evaluated **per column, not per
  row**: a :class:`PredicateCache` memoizes the set of column values
  passing the check, so each distinct value is compared once per
  relation version and the per-row work is one set-membership test.

Every step program has a generated form.  Arithmetic computes in the
value domain — ``A(op, ...)`` over decoded operands — and re-interns
its result for storage; an arithmetic ``=`` bind is one
``for bN in (expr,)`` clause.  A bind-only body is a degenerate
frontier of one (so is a fact's empty one, though the engines insert a
fact's head row without generating code for it).  A constant with no
faithful literal (``inf``, ``nan``) is passed as an argument instead
of embedded.  A
derivation hook gets another text of the same program
(``hooked=True``) whose last clause filters each solution through
``hook(rule, binding, round)`` before its head row is built, so the
hook sees each solution's value-domain ``Binding`` exactly once and
vetoed rows compute nothing.  That text walks every existential
bucket and member group, and so does a third, unhooked one
(``fold=False``) that runs when a chaos plan or a counter limit must
see each solution as a row of its own; a program with no fold has no
third text.

Statistics parity is exact: the generated function returns, alongside
the derived head rows, counter sums (lookups per step entry, rows per
step output, comparison/negation counts per entry) that reproduce the
reference interpreter's row-at-a-time ``EvalStats`` accounting
bit-identically under the same join order.  The comprehension keeps
the counts with assignment expressions: a probe adds its bucket's
length once per binding that probes it
(``for b1 in (g1(k, E),) if (n1 := n1 + len(b1)) >= 0 for r1 in b1``),
a filter in the middle of the body counts its survivors
(``if (n2 := n2 + 1)``), the first source's count is its length and
the last step's is ``len(out)``.  After an existential step each of
those counts is weighted (``n2 + w1``, ``len(b3) * w1``), the last
step gets a counter of its own, and the function returns a sixth sum:
the solutions its head rows stand for beyond themselves, which the
caller counts as duplicate derivations.  A member group's atom counts
its set's size as the rows it matched, and each of its tests the
intersection's size as the bindings that passed.  The differential
fuzz matrix pins the counters to the interpreter's, hooked and not.
"""

from __future__ import annotations

import math
import types
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from ..datalog.rules import Rule
from ..errors import EvaluationError
from ..facts.relation import Relation
from ..facts.symbols import SymbolTable
from . import builtins
from .bindings import Fetch

__all__ = ["GeneratedKernel", "PredicateCache", "MAX_CACHED_KERNELS"]

#: Entry cap of the process-wide generated-text cache.  Keys embed
#: interned constant codes, so a long-lived process that keeps seeing
#: new programs would otherwise grow it forever; at the cap the cache
#: is cleared wholesale and refills.  (A bound query's constants reach
#: no key: its magic seed is a fact, which no kernel is generated for.)
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

#: What a text run on an empty leading scan gets for every other
#: argument: its prologue reads ``.get`` of each index, and nothing
#: reads the rest.
_NOTHING = types.MappingProxyType({})


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

    #: ``fn(*args) -> (head_rows, lookups, rows, cmps, negs)``; a
    #: folding text appends the solutions its rows stand for beyond
    #: themselves.
    fn: Callable[..., tuple[Any, ...]]
    #: What each argument of ``fn`` is resolved from, per firing.
    resolvers: tuple[Any, ...]
    #: The generated code, for introspection (``explain --kernels``).
    source: str


class GeneratedKernel:
    """The generated whole-frontier function of one step program.

    A program has up to three texts (:meth:`form`): the folding one,
    generated with the kernel, which probes each existential step
    instead of walking its bucket and intersects each member group's
    sets instead of testing each value; the walking one, generated the
    first time every solution must come out as a row of its own (it is
    the folding one when the program has nothing to fold); and the
    hooked one, which walks too, generated the first time a hook is
    passed.

    ``sources`` are the program's relation-touching steps, as
    ``CompiledKernel.sources`` lists them; each firing resolves them
    through its ``fetch``, and no member group reads one whose atom is
    the rule head's predicate (see :func:`_folds`).  ``rule`` and
    ``slot_vars`` (the body's variables by slot number) are what a
    derivation hook is shown; they are bound into the function's
    globals, never into its text.
    """

    __slots__ = ("_program", "_forms", "_folds", "_sources")

    def __init__(self, steps: tuple[Any, ...], head: tuple[Any, ...],
                 symbols: SymbolTable | None,
                 sources: Sequence[Source],
                 rule: Rule | None = None,
                 slot_vars: tuple[Any, ...] = ()) -> None:
        self._sources = sources
        derived = frozenset(
            src for src, (_index, atom, _cols, _kind) in enumerate(sources)
            if rule is not None and atom.pred == rule.head.pred)
        self._program = (steps, head, symbols, rule, slot_vars, derived)
        self._forms: dict[tuple[bool, bool], _Form] = {}
        folding, self._folds = _instantiate(*self._program, False, True)
        self._forms[False, self._folds] = folding

    def form(self, hooked: bool, fold: bool = True) -> _Form:
        """The text that runs with (``hooked``) or without a hook,
        folding existential steps and member groups (``fold``) or
        walking them.  Without a fold the walking text is the folding
        one."""
        key = (hooked, fold and not hooked and self._folds)
        found = self._forms.get(key)
        if found is None:
            found = self._forms[key] = _instantiate(*self._program,
                                                    *key)[0]
        return found

    @property
    def source(self) -> str:
        """The generated code of the unhooked, folding text."""
        return self.form(False).source

    def run(self, fetch: Fetch, predicates: PredicateCache,
            hook: Callable[..., bool] | None = None, round_index: int = 0,
            fold: bool = False) -> tuple[Any, ...]:
        """Resolve this firing's arguments and call the function of the
        text :meth:`form` picks for ``hook`` and ``fold``.

        A text whose first argument is the rows its outer loop scans
        reads nothing else when they are empty, but for its ``.get``
        prologue: it then runs on those rows and empty stand-ins, and no
        index, set or predicate cache of a later step is resolved."""
        fn, resolvers, _source = self.form(hook is not None, fold)
        sources = self._sources
        fetched: dict[int, Relation] = {}

        def rel(src: int) -> Relation:
            relation = fetched.get(src)
            if relation is None:
                body_index, atom, _cols, _kind = sources[src]
                relation = fetch(atom, body_index)
                fetched[src] = relation
            return relation

        if resolvers and resolvers[0][0] == "rows":
            rows = rel(resolvers[0][1]).raw_rows()
            if not rows:
                return fn(rows, *(_NOTHING,) * (len(resolvers) - 1))

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
            elif tag == "sets":
                args.append(rel(spec[1]).set_index(spec[2]))
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


#: ``(steps, head, interned, eq-codes, derived, hooked, fold)`` ->
#: ``(source, specs, bytecode, folds)``; ``steps`` and ``head`` go through
#: :func:`_faithful`, so same-shape rules that differ in a constant's
#: type never share text.
#: The generated text is a pure function of this key, so repeat
#: compilations (every fresh ``KernelCache``, every serving refresh, every
#: benchmark repeat) skip both the string assembly and ``compile`` —
#: only the per-table ``exec`` instantiation remains.
_CACHE: dict[tuple[Any, ...],
             tuple[str, tuple[Any, ...], types.CodeType, bool]] = {}


def _instantiate(steps: tuple[Any, ...], head: tuple[Any, ...],
                 symbols: SymbolTable | None,
                 rule: Rule | None, slot_vars: tuple[Any, ...],
                 derived: frozenset[int],
                 hooked: bool, fold: bool) -> tuple[_Form, bool]:
    """One text of a step program (cached), bound to this kernel, and
    whether it folds a step."""
    key = (_faithful(steps), _faithful(head), symbols is not None,
           _eq_const_codes(steps, symbols), derived, hooked, fold)
    cached = _CACHE.get(key)
    if cached is None:
        if len(_CACHE) >= MAX_CACHED_KERNELS:
            _CACHE.clear()
        source_text, specs, folds = _emit(steps, head, symbols, derived,
                                          hooked, fold)
        cached = (source_text, specs,
                  compile(source_text, "<generated-kernel>", "exec"), folds)
        _CACHE[key] = cached
    source_text, specs, code, folds = cached
    namespace: dict[str, Any] = {}
    # The globals cannot be cached alongside the bytecode: ``V``/``I``
    # bind *this* kernel's symbol table, ``R``/``K`` its rule and
    # variables.
    exec(code,  # noqa: S102 - generated from the symbolic step program
         {"__builtins__": {}, "len": len, "list": list,
          "E": (), "C": builtins.compare_values,
          "A": builtins.apply_arith,
          "V": symbols.values if symbols is not None else None,
          "I": symbols.intern if symbols is not None else None,
          "R": rule, "K": slot_vars},
         namespace)
    return _Form(namespace["_kernel"], specs, source_text), folds


def _slots_in(sym: tuple[Any, ...]) -> set[int]:
    """The slots a symbolic term reads."""
    if sym[0] == "slot":
        return {sym[1]}
    if sym[0] == "arith":
        return _slots_in(sym[2]) | _slots_in(sym[3])
    return set()


def _reads(step: tuple[Any, ...]) -> tuple[Any, ...]:
    """The terms a step reads."""
    tag = step[0]
    if tag == "atom":
        return step[3]
    if tag in ("member", "neg"):
        return step[2]
    if tag == "check":
        return step[2:]
    return (step[2],)  # bind


def _existential_steps(steps: tuple[Any, ...],
                      head: tuple[Any, ...]) -> frozenset[int]:
    """The positions of the existential atom steps of a step program.

    An atom step is existential when it probes on at least one bound
    column, repeats no variable within the atom, and writes no slot
    that a later step or the head reads: all it asks of its bucket is
    whether it is empty.
    """
    read: set[int] = set()
    for sym in head:
        read |= _slots_in(sym)
    found: list[int] = []
    for pos in range(len(steps) - 1, -1, -1):
        step = steps[pos]
        if step[0] == "atom":
            _tag, _src, cols, _keys, writes, checks = step
            if cols and not checks \
                    and read.isdisjoint(slot for _col, slot in writes):
                found.append(pos)
        for sym in _reads(step):
            read |= _slots_in(sym)
    return frozenset(found)


def _member_groups(steps: tuple[Any, ...], head: tuple[Any, ...]
                   ) -> dict[int, tuple[int, ...]]:
    """Atom steps whose one new slot only membership tests read.

    Maps the position of such an atom A to the positions of the
    ``member`` steps M that read its slot X.  A probes on at least one
    bound column, repeats no variable and writes only X, so the X
    values of one bucket are distinct; X reaches no head term and no
    step but the Ms, each of which reads it once.  A is then one probe
    for its set of X values and each M one intersection with it.
    """
    read: set[int] = set()
    for sym in head:
        read |= _slots_in(sym)
    groups: dict[int, tuple[int, ...]] = {}
    for pos, step in enumerate(steps):
        if step[0] != "atom":
            continue
        _tag, _src, cols, _keys, writes, checks = step
        if not cols or checks or len(writes) != 1:
            continue
        ((_col, slot),) = writes
        if slot in read:
            continue
        readers: list[int] = []
        for later in range(pos + 1, len(steps)):
            reads = sum(slot in _slots_in(sym)
                        for sym in _reads(steps[later]))
            if not reads:
                continue
            if steps[later][0] != "member" or reads != 1:
                break
            readers.append(later)
        else:
            if readers:
                groups[pos] = tuple(readers)
    return groups


def _folds(steps: tuple[Any, ...], head: tuple[Any, ...],
           derived: frozenset[int]
           ) -> tuple[frozenset[int], dict[int, tuple[int, ...]]]:
    """The existential steps and the member groups a folding text runs
    as probes, taken left to right: a fold that starts inside a group
    (between its atom and its last member test) walks, so each count
    is weighted by one running product.

    No group reads a source in ``derived`` (the relation the rule
    derives): a set index over it would be kept current on every row
    the rule adds, which the walk never pays — DRed's rederivation of
    ``reach(X, Y) :- reach(X, Z), edge(Z, Y)`` tests ``reach(X, Z)``
    for each ``Z`` of ``edge(Z, Y)``, and folding it indexes the whole
    closure.
    """
    existential = _existential_steps(steps, head)
    groups = {a: ms for a, ms in _member_groups(steps, head).items()
              if derived.isdisjoint(steps[pos][1] for pos in (a, *ms))}
    kept: list[int] = []
    taken: dict[int, tuple[int, ...]] = {}
    until = -1
    for pos in sorted(existential | groups.keys()):
        if pos <= until:
            continue
        if pos in groups:
            taken[pos] = groups[pos]
            until = groups[pos][-1]
        else:
            kept.append(pos)
    return frozenset(kept), taken


def _emit(steps: tuple[Any, ...], head: tuple[Any, ...],
          symbols: SymbolTable | None, derived: frozenset[int],
          hooked: bool, fold: bool) -> tuple[str, tuple[Any, ...], bool]:
    """The generated source text and resolver specs of a step program,
    and whether the text folds a step.

    ``fold`` probes every existential step instead of walking its
    bucket, and every member group's atom for its set of values, which
    its membership tests intersect (a hooked text always walks)."""
    interned = symbols is not None
    folded, groups = _folds(steps, head, derived) if fold and not hooked \
        else (frozenset(), {})
    #: member step -> its group's atom; atom -> (its slot, the register
    #: holding the set of the slot's values still in play, the weight
    #: before the atom).
    tested = {m: a for a, ms in groups.items() for m in ms}
    in_play: dict[int, tuple[int, str, str | None]] = {}

    # Every step but a bind can change how many bindings there are.
    # The last such step is where a head-only form (a verbatim copy, a
    # projection) can apply, unless a hook has to see every slot.
    last = -1 if hooked else max(
        (pos for pos, step in enumerate(steps) if step[0] != "bind"),
        default=-1)
    # Without a hook or a fold, the bindings the last step leaves are
    # the head rows, so its count is ``len(out)``; a hook filters after
    # it, and a folded binding stands for several rows, so then every
    # count is a counter of its own.
    final = -1 if folded or groups else last

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
    #: The ``for`` / ``if`` clauses of the comprehension, in order.
    clauses: list[str] = []
    #: Lines ahead of the comprehension: an in-place first source.
    prelude: list[str] = []
    #: Counters the comprehension adds to, all starting at 0.
    counters: list[str] = []
    lk: list[str] = []
    rm: list[str] = []
    cc: list[str] = []
    nc: list[str] = []
    #: How many bindings reach the next clause (before the first
    #: ``for``, a degenerate frontier of one).
    count = "1"
    #: How many solutions each binding stands for: the register of the
    #: last fold (which carries the product of every folded bucket
    #: length or intersection size so far), or None before the first.
    weight: str | None = None
    #: The whole right-hand side of ``out``, when it is not the
    #: comprehension (a head that copies its only source verbatim).
    whole: str | None = None
    registers = 0

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

    def times(factor: str | None) -> str:
        return f" * {factor}" if factor else ""

    def key_of(syms: Sequence[tuple[Any, ...]]) -> str:
        """A probe key: the bare term for one column, else a tuple."""
        if len(syms) == 1:
            return storage(syms[0])
        return tup([storage(sym) for sym in syms])

    def survivors(pos: int) -> str:
        """The count of bindings leaving step ``pos``: ``len(out)`` for
        the last one, else a counter bumped once per binding."""
        if pos == final:
            return "len(out)"
        name = f"n{pos}"
        counters.append(name)
        clauses.append(f"if ({name} := {name} + {weight or 1})")
        return name

    def atom_source(src: int, cols: tuple[int, ...],
                    keys: tuple[Any, ...]) -> str:
        if not cols:
            return f"a{arg_of(('rows', src))}"
        j = arg_of(("probe1", src, cols[0]) if len(cols) == 1
                   else ("probeN", src, cols))
        return f"g{j}({key_of(keys)}, E)"

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

    def fold_clause(pos: int, size: str, factor: str | None) -> str:
        """Step ``pos`` as one fold: a binding goes on once when
        ``size`` is not 0, standing for ``size * factor`` solutions;
        the step's count adds them."""
        nonlocal count, weight
        weight, count = f"w{pos}", f"n{pos}"
        counters.append(count)
        rm.append(count)
        return (f"if ({weight} := {size}{times(factor)})"
                f" and ({count} := {count} + {weight})")

    for pos, step in enumerate(steps):
        tag = step[0]
        if tag == "bind":
            _tag, slot_no, sym = step
            cc.append(count)
            if sym[0] == "arith":
                # Computed once per binding, in a register of its own.
                bname = f"b{registers}"
                registers += 1
                clauses.append(f"for {bname} in ({storage(sym)},)")
                reg_exprs[slot_no] = bname
            else:
                reg_exprs[slot_no] = storage(sym)
            continue
        if tag == "check":
            _tag, op, lhs_sym, rhs_sym = step
            cc.append(count)
            cond = check_cond(op, lhs_sym, rhs_sym)
            if cond is not None:  # None: statically true, no clause
                clauses.append(f"if {cond}")
                count = survivors(pos)
            continue
        if pos in tested:
            # A member test of a group: the values of its atom's slot
            # that pass are one intersection with the set index keyed
            # by the test's other columns.
            _tag, src, syms = step
            lk.append(count)
            slot_no, values, outer = in_play[tested[pos]]
            column = syms.index(("slot", slot_no))
            j = arg_of(("sets", src, column))
            passing = (f"{values}.intersection("
                       f"g{j}({key_of(syms[:column] + syms[column + 1:])}"
                       f", E))")
            if pos != groups[tested[pos]][-1]:
                # A later test of the group narrows what passes here.
                in_play[tested[pos]] = (slot_no, f"x{pos}", outer)
                passing = f"(x{pos} := {passing})"
            clauses.append(fold_clause(pos, f"len({passing})", outer))
            continue
        if tag in ("member", "neg"):
            _tag, src, syms = step
            positive = tag == "member"
            (lk if positive else nc).append(count)
            clauses.append(f"if {membership_cond(src, syms, positive)}")
            count = survivors(pos)
            if positive:
                rm.append(count)
            continue
        # tag == "atom"
        _tag, src, cols, keys, writes, checks = step
        lk.append(count)
        if pos in groups:
            # The atom of a member group is one probe for the set of
            # its slot's values (distinct: every other column is
            # bound); its member tests intersect that set.  Its slot
            # gets no register.
            ((col, slot_no),) = writes
            j = arg_of(("sets", src, col))
            in_play[pos] = (slot_no, f"x{pos}", weight)
            clauses.append(fold_clause(
                pos, f"len(x{pos} := g{j}({key_of(keys)}, E))", weight))
            continue
        rname = f"r{registers}"
        registers += 1
        for col, slot_no in writes:
            reg_exprs[slot_no] = f"{rname}[{col}]"
            origins[slot_no] = (src, col)
        conds = "".join(f" if {rname}[{col}] == {reg_exprs[slot_no]}"
                        for col, slot_no in checks)
        if pos in folded:
            # An existential step is one probe: a binding whose bucket
            # is empty stops, any other goes on once, standing for as
            # many solutions as its bucket holds.  Its rows are counted
            # as the walk would count them.
            clauses.append(fold_clause(
                pos, f"len({atom_source(src, cols, keys)})", weight))
            continue
        if pos != last:
            source = atom_source(src, cols, keys)
            if checks:
                clauses.append(f"for {rname} in {source}{conds}")
                count = survivors(pos)
            elif not clauses:
                # The first source is iterated in place — no copy, and
                # its length is the count.
                count = f"n{pos}"
                prelude += [f"s0 = {source}", f"{count} = len(s0)"]
                clauses.append(f"for {rname} in s0")
            else:
                # Each probe's bucket is counted whole, once per
                # binding that probes it, then walked.
                count = f"n{pos}"
                counters.append(count)
                bname = f"b{rname[1:]}"
                grow = f"len({bname}) * {weight}" if weight \
                    else f"len({bname})"
                clauses.append(
                    f"for {bname} in ({source},) "
                    f"if ({count} := {count} + {grow}) >= 0 "
                    f"for {rname} in {bname}")
            rm.append(count)
            continue
        # The last step that changes the count: the head rows follow.
        if not clauses and not cols and not checks \
                and pos == len(steps) - 1 \
                and head == tuple(("slot", slot) for _col, slot in writes):
            # The head is the row verbatim: one C-level list copy.
            count = "len(out)"
            rm.append(count)
            whole = f"list({atom_source(src, cols, keys)})"
            continue
        if len(cols) == 1 and not checks:
            read: set[int] = set()
            for sym in (*head, *(bind[2] for bind in steps[pos + 1:])):
                read |= _slots_in(sym)
            used = [(col, slot) for col, slot in writes if slot in read]
            if len(used) == 1:
                # Projection: exactly one of the atom's columns is read
                # after it, so probe the projection index and iterate
                # that column's values — no row tuples at all.
                ((val_col, val_slot),) = used
                vname = f"v{rname[1:]}"
                j = arg_of(("proj", src, cols[0], val_col))
                reg_exprs[val_slot] = vname
                clauses.append(
                    f"for {vname} in g{j}({storage(keys[0])}, E)")
                count = survivors(pos)
                rm.append(count)
                continue
        clauses.append(f"for {rname} in {atom_source(src, cols, keys)}"
                       f"{conds}")
        count = survivors(pos)
        rm.append(count)

    if hooked:
        # Every slot is bound, so the hook is shown the whole
        # value-domain binding; it filters after the last count and
        # before any head term is computed.
        binding = ", ".join(f"k{slot_no}: {decode(expr)}" for
                            slot_no, expr in sorted(reg_exprs.items()))
        clauses.append(f"if a{arg_of(('hook',))}(R, {{{binding}}}, "
                       f"a{arg_of(('round',))})")
    if whole is None:
        if clauses and not clauses[0].startswith("for "):
            # A comprehension starts with a ``for``: a leading filter
            # runs over the frontier of one.
            clauses.insert(0, "for _ in (0,)")
        item = tup([storage(sym) for sym in head])
        whole = f"[{' '.join([item, *clauses])}]"

    def total(terms: list[str]) -> str:
        return " + ".join(terms) if terms else "0"

    params = ", ".join(f"a{i}" for i in range(len(specs)))
    body = [f"def _kernel({params}):"]
    body.extend(f"    g{i} = a{i}.get" for i, spec in enumerate(specs)
                if spec[0] in ("probe1", "probeN", "proj", "sets"))
    if hooked:
        body.extend(f"    k{slot_no} = K[{slot_no}]"
                    for slot_no in sorted(reg_exprs))
    body.extend(f"    {line}" for line in prelude)
    if counters:
        body.append(f"    {' = '.join(counters)} = 0")
    body.append(f"    out = {whole}")
    # A folding text also returns how many solutions its rows stand
    # for beyond themselves.
    repeats = f", {count} - len(out)" if folded or groups else ""
    body.append(f"    return out, {total(lk)}, {total(rm)}, "
                f"{total(cc)}, {total(nc)}{repeats}")
    return "\n".join(body), tuple(specs), bool(folded or groups)
