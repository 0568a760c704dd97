"""Adaptive planning: statistics costs, planned-once kernels, generated bodies.

Covers the statistics-driven planner end to end: the cost model orders
probes by estimated selectivity, a kernel is planned once per
``(rule, variant)`` at its first firing and kept however the statistics
move afterwards (a cache hit reads none), and kernels run their bodies
as generated comprehensions without changing any observable result or
counter.
"""

import pytest

from repro.datalog import parse_program
from repro.engine import EvalStats, evaluate, fire
from repro.engine.compile import CompiledKernel, compile_rule
from repro.engine.fire import Firer, compile_firing
from repro.engine.plan import explain_kernels, explain_plan
from repro.facts import Database, Relation
from repro.facts.symbols import SymbolTable


TC = """
r0: tc(X, Y) :- edge(X, Y).
r1: tc(X, Z) :- tc(X, Y), edge(Y, Z).
"""


def chain_db(n=30):
    db = Database()
    db.ensure("edge", 2)
    for i in range(n):
        db.add_fact("edge", f"n{i}", f"n{i + 1}")
    return db


class _Claimed(Relation):
    """An empty relation that tells the planners it holds ``claimed``
    rows."""

    __slots__ = ("claimed",)

    def __init__(self, name, claimed):
        super().__init__(name, 2)
        self.claimed = claimed

    def __len__(self):
        return self.claimed

    def probe_estimate(self, bound_columns):
        return float(self.claimed)


class TestKernelCache:
    @pytest.mark.parametrize("planner", ["greedy", "adaptive"])
    def test_a_cached_kernel_keeps_its_first_plan(self, planner):
        rule = parse_program(TC).rules[1]
        sizes = {"tc": 1, "edge": 10**6}

        def fetch(atom, index):
            return _Claimed(atom.pred, sizes[atom.pred])

        firer = Firer(planner, "compiled", None, EvalStats())
        firer.run(rule, fetch)
        first = firer.kernels.get(rule, None)
        assert first.order == [0, 1]
        sizes.update(tc=10**6, edge=1)
        # Planned afresh, the new statistics would put edge first...
        assert compile_firing(rule, fetch, (), planner).order == [1, 0]
        firer.run(rule, fetch)
        # ...but the key was planned at its first firing, for good.
        assert firer.kernels.get(rule, None) is first
        assert first.order == [0, 1] and len(firer.kernels) == 1

    def test_a_cache_hit_reads_no_statistics(self, monkeypatch):
        built, compiled = [], []
        estimators = fire.estimators
        init = CompiledKernel.__init__

        def counting_estimators(*args, **kwargs):
            built.append(args)
            return estimators(*args, **kwargs)

        def counting_init(self, rule, *args, **kwargs):
            compiled.append(rule)
            init(self, rule, *args, **kwargs)

        monkeypatch.setattr(fire, "estimators", counting_estimators)
        monkeypatch.setattr(CompiledKernel, "__init__", counting_init)
        result = evaluate(parse_program(TC), chain_db(40),
                          planner="adaptive")
        assert len(result.facts("tc")) == 40 * 41 // 2
        assert len(built) == len(compiled) == 2
        assert result.stats.rules_fired > len(compiled)
        assert result.stats.replans == 0


class TestAdaptiveCostModel:
    def test_cost_orders_by_selectivity(self):
        # fat(X), thin(X, Y): greedy (size-based) would scan thin (3
        # rows) first; the adaptive cost model knows probing fat on a
        # bound column yields ~1 row and keeps whichever anchor
        # minimizes estimated rows — observable via plan estimates.
        program = parse_program(
            "q0: out(X, Y) :- fat(X), thin(X, Y).")
        db = Database()
        db.ensure("fat", 1)
        db.ensure("thin", 2)
        for i in range(50):
            db.add_fact("fat", f"v{i}")
        for i in range(3):
            db.add_fact("thin", f"v{i}", f"w{i}")
        text = explain_plan(program, db, planner="adaptive")
        assert "est" in text
        result = evaluate(program, db, planner="adaptive")
        assert len(result.facts("out")) == 3

    def test_explain_plan_stats_section(self):
        text = explain_plan(parse_program(TC), chain_db(5),
                            planner="adaptive", show_stats=True)
        assert "statistics" in text.lower()
        assert "edge/2" in text
        assert "distinct" in text

    def test_explain_kernels_marks_interned_and_generated(self):
        db = chain_db(5).interned()
        text = explain_kernels(parse_program(TC), db,
                               planner="adaptive")
        assert "interned" in text
        assert "generated function" in text


class TestGeneratedBody:
    def _kernel(self, rule_text, db, **kwargs):
        program = parse_program(rule_text)
        rule = program.rules[-1]

        def sizes(atom, index):
            return len(db.relation_or_empty(atom.pred, atom.arity))

        return compile_rule(rule, sizes, symbols=db.symbols, **kwargs)

    def test_pure_atom_body_has_a_generated_function(self):
        db = chain_db(5).interned()
        kernel = self._kernel(TC, db)
        assert kernel.generated is not None
        assert "def _kernel(" in kernel.describe()

    def test_comparison_body_is_generated_too(self):
        db = chain_db(5).interned()
        kernel = self._kernel(
            "q0: q(X, Y) :- edge(X, Y), X < Y.", db)
        assert kernel.generated is not None
        assert "V[" in kernel.generated.source  # decodes to compare

    def test_raw_mode_is_generated_without_decoding(self):
        kernel = self._kernel(
            "q0: q(X, Y) :- edge(X, Y), X < Y.", chain_db(5))
        assert kernel.generated is not None
        assert "V[" not in kernel.generated.source

    def test_interned_and_raw_kernels_agree(self):
        # Same program, same database: interned and raw kernels must
        # produce identical facts and identical work counters.
        program = parse_program(TC)
        db = chain_db(25)
        raw = evaluate(program, db, interning="off")
        interned = evaluate(program, db, interning="on")
        assert raw.facts("tc") == interned.facts("tc")
        for field in ("derivations", "duplicate_derivations",
                      "rows_matched", "atom_lookups", "iterations"):
            assert getattr(raw.stats, field) \
                == getattr(interned.stats, field), field

    def test_repeated_variable_in_atom_filters(self):
        program = parse_program("q0: loop(X) :- edge(X, X).")
        db = Database({"edge": [("a", "a"), ("a", "b"), ("c", "c")]})
        raw = evaluate(program, db, interning="off")
        interned = evaluate(program, db, interning="on")
        assert raw.facts("loop") == interned.facts("loop") \
            == frozenset({("a",), ("c",)})
        assert raw.stats.rows_matched == interned.stats.rows_matched

    def test_constant_in_head_and_body(self):
        program = parse_program('q0: tagged("t", Y) :- edge("a", Y).')
        db = Database({"edge": [("a", "b"), ("c", "d")]})
        for interning in ("off", "on"):
            result = evaluate(program, db, interning=interning)
            assert result.facts("tagged") == frozenset({("t", "b")})

    def test_hooks_see_decoded_bindings(self):
        # A derivation hook needs value-domain bindings per solution:
        # the hooked text of an interned kernel decodes every register
        # it shows the hook, and joins over codes everywhere else.
        from repro.engine.seminaive import seminaive_evaluate
        program = parse_program(TC)
        db = chain_db(3).interned()
        seen = []

        def hook(rule, binding, round_index):
            seen.append((rule.label, round_index, dict(binding)))
            return True

        idb = seminaive_evaluate(program, db, hook=hook)
        assert len(idb.relation("tc")) == 6
        assert all(isinstance(v, str) and v.startswith("n")
                   for _label, _round, b in seen for v in b.values())
        assert {len(b) for _label, _round, b in seen} == {2, 3}
        assert {round_index for _label, round_index, _b in seen} == {0, 1}
        kernel = self._kernel(TC, db)
        kernel.execute(lambda atom, index: db.relation_or_empty(
            atom.pred, atom.arity), EvalStats(), hook=hook)
        hooked = kernel.generated.form(True).source
        assert hooked.count("V[") == 3 and "V[" not in \
            kernel.generated.source


class TestSymbolSharingGuards:
    def test_kernel_emits_codes_only_for_its_own_table(self):
        # A kernel compiled against one symbol table must intern its
        # program constants in that table, not re-use raw values.
        symbols = SymbolTable()
        db = Database({"edge": [("a", "b")]}).interned(symbols)
        program = parse_program('q0: q("z", Y) :- edge(X, Y).')
        result = evaluate(program, db, interning="on")
        assert result.facts("q") == frozenset({("z", "b")})
        assert symbols.code("z") is not None
