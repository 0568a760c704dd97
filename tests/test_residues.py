"""Tests for Algorithm 3.1 — residue generation over expansion sequences.

Each paper example's stated outcome is asserted verbatim, and the graph
method is cross-checked against the exhaustive reference enumerator.
"""

import pytest

import repro.constraints.free as free_module
import repro.constraints.subsumption as subsumption_module
import repro.core.residues as residues_module
import repro.core.sequences as sequences_module
from repro import Database, SemanticOptimizer, lint_program
from repro.bench.experiments import (_chain_ic_text, experiment_e4,
                                     experiment_e10)
from repro.constraints import ic_from_text, ics_from_text
from repro.core import (detect_sequences, generate_residues,
                        generate_residues_exhaustive, rule_level_residues)
from repro.core.residues import introduction_eligible
from repro.core.sequences import unfold
from repro.datalog import Program, parse_program
from repro.engine.optimizer import choose_plan
from repro.errors import ConstraintError
from repro.workloads.paper_examples import ALL_EXAMPLES, example_4_3


class TestExample21:
    """Example 3.1: the IC maximally subsumes only the r0-chains."""

    def test_detected_sequence(self, ex21):
        sequences = detect_sequences(ex21.program, "p", ex21.ic("ic"))
        assert ("r0", "r0", "r0") in sequences

    def test_residue_on_r0x3_is_loose(self, ex21):
        items = generate_residues(ex21.program, "p", ex21.ic("ic"))
        by_seq = {item.sequence: item for item in items}
        short = by_seq[("r0", "r0", "r0")]
        assert short.residue.kind == "unconditional fact"
        assert short.useful and not short.strictly_useful

    def test_extension_finds_strict_placement(self, ex21):
        items = generate_residues(ex21.program, "p", ex21.ic("ic"))
        strict = [item for item in items if item.strictly_useful]
        assert [item.sequence for item in strict] == \
            [("r0", "r0", "r0", "r0")]
        assert str(strict[0].residue.head) == "d(Y5, X6)"

    def test_rule_level_finds_nothing_maximal(self, ex21):
        items = rule_level_residues(ex21.program, ex21.ic("ic"))
        # Only the non-maximal (partial) readings exist at rule level;
        # maximal free subsumption of all three atoms needs the chain.
        assert all(not item.strictly_useful for item in items)


class TestExample32:
    def test_sequence_and_residue(self, ex32):
        items = generate_residues(ex32.program, "eval", ex32.ic("ic1"))
        assert len(items) == 1
        item = items[0]
        assert item.sequence == ("r1", "r1")
        assert str(item.residue) == "-> expert(P, F)"
        assert item.residue.kind == "unconditional fact"
        assert item.useful and not item.strictly_useful

    def test_ic2_is_rule_level(self, ex32):
        items = rule_level_residues(ex32.program, ex32.ic("ic2"))
        assert len(items) == 1
        item = items[0]
        assert item.sequence == ("r2",)
        assert item.residue.head.pred == "doctoral"
        assert not item.useful  # head does not occur in r2
        assert introduction_eligible(item)


class TestExample41:
    def test_usefulness_extension_reaches_r2x4(self, ex41):
        items = generate_residues(ex41.program, "triple", ex41.ic("ic1"))
        strict = [item for item in items if item.strictly_useful]
        assert [item.sequence for item in strict] == \
            [("r2", "r2", "r2", "r2")]
        residue = strict[0].residue
        assert residue.kind == "conditional fact"
        assert str(residue.head) == "experienced(U)"

    def test_extension_respects_budget(self, ex41):
        # A budget of 1 per side caps windows at three instances, which
        # is too short for the head to land strictly.
        items = generate_residues(ex41.program, "triple", ex41.ic("ic1"),
                                  max_extend=1)
        assert all(not item.strictly_useful for item in items)


class TestExample43:
    def test_both_pruning_sequences(self, ex43):
        items = generate_residues(ex43.program, "anc", ex43.ic("ic1"))
        sequences = {item.sequence for item in items}
        assert ("r1", "r1", "r1") in sequences
        assert ("r1", "r1", "r0") in sequences
        for item in items:
            assert item.residue.kind == "conditional null"
            assert str(item.residue) == "Ya <= 50 ->"

    def test_exhaustive_agrees(self, ex43):
        graph = {(i.sequence, str(i.residue))
                 for i in generate_residues(ex43.program, "anc",
                                            ex43.ic("ic1"))}
        brute = {(i.sequence, str(i.residue))
                 for i in generate_residues_exhaustive(
                     ex43.program, "anc", ex43.ic("ic1"))}
        assert graph == brute


class TestCrossCheck:
    """Graph detection vs exhaustive enumeration on all examples."""

    @pytest.mark.parametrize("fixture,pred,label", [
        ("ex21", "p", "ic"), ("ex32", "eval", "ic1"),
        ("ex43", "anc", "ic1"),
    ])
    def test_same_residues(self, fixture, pred, label, request):
        example = request.getfixturevalue(fixture)
        ic = example.ic(label)
        graph = {(i.sequence, str(i.residue))
                 for i in generate_residues(example.program, pred, ic)}
        max_len = max((len(s) for s, _ in graph), default=3)
        brute = {(i.sequence, str(i.residue))
                 for i in generate_residues_exhaustive(
                     example.program, pred, ic, max_length=max_len)}
        assert graph == brute


class TestGuards:
    def test_idb_ic_rejected(self, ex43):
        ic = ic_from_text("anc(X, Xa, Y, Ya) -> par(X, Xa, Y, Ya).")
        with pytest.raises(ConstraintError):
            generate_residues(ex43.program, "anc", ic)

    def test_unrelated_ic_yields_nothing(self, ex43):
        ic = ic_from_text("other(X, Y) -> .")
        assert generate_residues(ex43.program, "anc", ic) == []

    def test_useful_only_off_keeps_more(self, ex32):
        strict = generate_residues(ex32.program, "eval", ex32.ic("ic1"))
        everything = generate_residues(ex32.program, "eval",
                                       ex32.ic("ic1"), useful_only=False)
        assert len(everything) >= len(strict)


class TestSpanMinimality:
    def test_longer_windows_filtered(self, ex32):
        """The r1 r1 footprint inside r1 r1 r1 does not span, so the
        three-level sequence contributes no duplicate residue."""
        from repro.core.residues import residues_for_sequence
        items = residues_for_sequence(ex32.program, "eval",
                                      ("r1", "r1", "r1"), ex32.ic("ic1"))
        spanning = [i for i in items
                    if i.residue.head is not None
                    and i.residue.head.pred == "expert"]
        # Matches exist but none spans levels 0..2 with a landing head.
        assert all(not i.strictly_useful for i in spanning)


# ---------------------------------------------------------------------------
# Algorithm 3.1 runs once per program and IC
# ---------------------------------------------------------------------------

@pytest.fixture
def counted(monkeypatch):
    """Count Algorithm 3.1 computations (one SD-graph detection each) and
    sequence verifications, as (program id, IC label) and sequences."""
    computations: list[tuple[int, str | None]] = []
    verifications: list[tuple[str, ...]] = []
    programs = []  # held, so no program id is reused within a test
    detect = residues_module.detect_sequences
    verify = residues_module.residues_for_sequence

    def counting_detect(program, pred, ic, **options):
        programs.append(program)
        computations.append((id(program), ic.label))
        return detect(program, pred, ic, **options)

    def counting_verify(program, pred, sequence, ic, *args, **options):
        verifications.append(tuple(sequence))
        return verify(program, pred, sequence, ic, *args, **options)

    monkeypatch.setattr(residues_module, "detect_sequences",
                        counting_detect)
    monkeypatch.setattr(residues_module, "residues_for_sequence",
                        counting_verify)
    return computations, verifications


MEMO_CASES = [
    pytest.param(factory, ic.label, None,
                 id=f"{factory.__name__}-{ic.label}")
    for factory in ALL_EXAMPLES for ic in factory().ics
] + [pytest.param(example_4_3, None, length, id=f"chain_ic_{length}")
     for length in range(2, 9)]


def _chain_ic(length):
    return ics_from_text(_chain_ic_text(length))[0]


def _memo_ic(example, label, length):
    return example.ic(label) if length is None else _chain_ic(length)


class TestOncePerProgram:
    def test_compile_order_computes_once_per_ic(self, ex32, counted):
        """lint, generate_residues, then optimize on one program object:
        the benchmark's compile order (three computations per IC before
        the memo)."""
        computations, _ = counted
        ics = [ex32.ic("ic1"), ex32.ic("ic2")]
        lint_program(ex32.program, ics)
        for ic in ics:
            generate_residues(ex32.program, "eval", ic)
        report = SemanticOptimizer(ex32.program, ics, pred="eval").optimize()
        assert report.failures == []
        assert sorted(label for _, label in computations) == ["ic1", "ic2"]

    def test_plan_choice_computes_once_per_ic(self, ex32, counted):
        """choose_plan tries {ic1}, {ic2} and {ic1, ic2}: two ICs, two
        computations (four before the memo)."""
        computations, _ = counted
        ics = [ex32.ic("ic1"), ex32.ic("ic2")]
        choose_plan(ex32.program, Database(), ics=ics)
        assert sorted(label for _, label in computations) == ["ic1", "ic2"]

    @pytest.mark.parametrize("fixture", ["ex21", "ex32", "ex41"])
    def test_each_sequence_is_verified_once(self, request, fixture,
                                            counted):
        """13 distinct sequences, 13 verifications (28 before)."""
        _, verifications = counted
        example = request.getfixturevalue(fixture)
        generate_residues(example.program, example.pred, example.ics[0])
        assert len(verifications) == len(set(verifications)) == 13

    def test_e4_times_one_cold_computation_per_repeat(self, counted):
        computations, _ = counted
        experiment_e4(lengths=(2, 3), repeats=2)
        assert len(computations) == 4
        assert len({program for program, _ in computations}) == 4

    def test_e4_counts_the_sequences_it_verifies(self, counted):
        """The verified-sequences column is the verification count:
        r1^3 and r1^2 r0 for the graph, all 8 up to length 4 for the
        exhaustive enumerator."""
        _, verifications = counted
        table = experiment_e4(lengths=(3,), repeats=1)
        assert table.rows[0][3] == "2/8"
        assert len(verifications) == 2 + 8

    def test_e10_times_one_cold_computation_per_configuration(self,
                                                              counted):
        """The two SemanticOptimizer configurations each pay for their
        own Algorithm 3.1 run on a program of their own."""
        computations, _ = counted
        experiment_e10(size=6, repeats=1)
        assert len(computations) == 2
        assert len({program for program, _ in computations}) == 2


class TestMemoSemantics:
    @pytest.mark.parametrize("useful_only", [True, False])
    @pytest.mark.parametrize("max_extend", [0, 1, 3])
    @pytest.mark.parametrize("factory,label,length", MEMO_CASES)
    def test_a_hit_equals_a_fresh_program(self, factory, label, length,
                                          useful_only, max_extend):
        example = factory()
        ic = _memo_ic(example, label, length)
        options = dict(useful_only=useful_only, max_extend=max_extend)
        first = generate_residues(example.program, example.pred, ic,
                                  **options)
        again = generate_residues(example.program, example.pred, ic,
                                  **options)
        fresh = generate_residues(Program(example.program.rules),
                                  example.pred, ic, **options)
        assert first == again == fresh
        assert [str(item) for item in again] == \
            [str(item) for item in fresh]

    def test_ics_differing_only_by_label_keep_their_own(self, ex32):
        """Equal-valued ICs are distinct keys: each call's residues carry
        the IC that was passed."""
        ic = ex32.ic("ic1")
        twin = ic_from_text(str(ic).replace("ic1:", "twin:"))
        assert twin == ic and twin.label == "twin"
        for _ in range(2):
            for passed in (ic, twin):
                items = generate_residues(ex32.program, "eval", passed)
                assert items
                assert {item.residue.ic.label for item in items} == \
                    {passed.label}

    def test_each_call_returns_a_fresh_list(self, ex21):
        ic = ex21.ic("ic")
        first = generate_residues(ex21.program, "p", ic)
        expected = list(first)
        first.clear()
        second = generate_residues(ex21.program, "p", ic)
        assert second == expected and second is not first
        second.append(second[0])
        assert generate_residues(ex21.program, "p", ic) == expected

    def test_a_computation_that_raises_stores_nothing(self, ex21,
                                                      monkeypatch,
                                                      counted):
        computations, _ = counted
        ic = ex21.ic("ic")
        expected = generate_residues(Program(ex21.program.rules), "p", ic)
        computations.clear()
        verify = residues_module.residues_for_sequence

        def failing(*args, **options):
            raise RuntimeError("injected verification fault")

        monkeypatch.setattr(residues_module, "residues_for_sequence",
                            failing)
        with pytest.raises(RuntimeError, match="injected"):
            generate_residues(ex21.program, "p", ic)
        monkeypatch.setattr(residues_module, "residues_for_sequence", verify)
        assert generate_residues(ex21.program, "p", ic) == expected
        assert len(computations) == 2
        assert generate_residues(ex21.program, "p", ic) == expected
        assert len(computations) == 2


# ---------------------------------------------------------------------------
# Step 4 costs what it should: complete matchings, shared prefixes
# ---------------------------------------------------------------------------

class TestVerificationCost:
    """Algorithm 3.1 on Example 4.3 with an 8-atom chain IC, in counts."""

    def test_free_subsumption_tries_few_literal_matches(self, monkeypatch):
        """612 calls; 478 278 while the search also enumerated every
        partial matching only to drop it."""
        calls = []
        match_literal = subsumption_module.match_literal

        def counting(*args):
            calls.append(None)
            return match_literal(*args)

        monkeypatch.setattr(subsumption_module, "match_literal", counting)
        monkeypatch.setattr(free_module, "match_literal", counting)
        items = generate_residues(Program(example_4_3().program.rules),
                                  "anc", _chain_ic(8))
        assert len(items) == 2
        assert len(calls) <= 1000

    def test_each_prefix_is_unfolded_once_per_program(self, monkeypatch,
                                                      counted):
        """r1^8 and r1^7 r0 share the levels of r1^7: 8 renamed levels,
        14 when every sequence was unfolded from scratch."""
        _, verifications = counted
        renamed = []
        unify = sequences_module.unify

        def counting(*args):
            renamed.append(None)
            return unify(*args)

        monkeypatch.setattr(sequences_module, "unify", counting)
        program = Program(example_4_3().program.rules)
        generate_residues(program, "anc", _chain_ic(8))
        prefixes = {sequence[:end] for sequence in verifications
                    for end in range(2, len(sequence) + 1)}
        assert len(renamed) == len(prefixes) == 8
        # Another IC on the same program renames only r1^6 r0's last
        # level: r1^7 is already unfolded.
        renamed.clear()
        generate_residues(program, "anc", _chain_ic(7))
        assert len(renamed) == 1


class TestPrefixMemo:
    @pytest.mark.parametrize("factory,label,length", MEMO_CASES)
    def test_a_warm_unfolding_equals_a_cold_one(self, factory, label,
                                                length, counted):
        """Every sequence Algorithm 3.1 visits, extension windows
        included, unfolds on the memo-warm program exactly as on a
        fresh one that unfolds nothing else."""
        _, verifications = counted
        example = factory()
        program = Program(example.program.rules)
        generate_residues(program, example.pred,
                          _memo_ic(example, label, length), max_extend=3)
        for sequence in verifications:
            warm = unfold(program, example.pred, sequence)
            cold = unfold(Program(example.program.rules), example.pred,
                          sequence)
            assert warm == cold
            assert str(warm) == str(cold)
            assert [str(s) for s in warm.level_substitutions] == \
                [str(s) for s in cold.level_substitutions]

    def test_the_memo_lives_on_the_program(self, ex43):
        program = Program(ex43.program.rules)
        first = unfold(program, "anc", ("r1", "r1", "r0"))
        assert set(program._unfolded) == {
            ("anc", ()), ("anc", ("r1",)), ("anc", ("r1", "r1")),
            ("anc", ("r1", "r1", "r0"))}
        assert unfold(program, "anc", ("r1", "r1", "r0")) == first
        assert not Program(ex43.program.rules)._unfolded
