"""Unit tests for expansion sequences and unfolding."""

import pytest

from repro.core.sequences import enumerate_sequences, unfold
from repro.datalog import parse_program
from repro.errors import TransformError


class TestUnfold:
    def test_single_rule(self, ex43):
        clause = unfold(ex43.program, "anc", ("r1",))
        assert clause.head.pred == "anc"
        assert len(clause.body) == 2
        assert clause.recursive_tail is not None
        assert clause.body[clause.recursive_tail].literal.pred == "anc"

    def test_two_levels_share_variables(self, ex43):
        clause = unfold(ex43.program, "anc", ("r1", "r1"))
        pars = [item.literal for item in clause.body
                if item.literal.pred == "par"]
        assert len(pars) == 2
        level0, level1 = pars
        # Level-0's par reads the recursion's intermediate variables,
        # which level-1 binds.
        shared = level0.variable_set() & level1.variable_set()
        assert shared

    def test_provenance_levels_and_indexes(self, ex43):
        clause = unfold(ex43.program, "anc", ("r1", "r1", "r0"))
        levels = sorted({item.level for item in clause.body})
        assert levels == [0, 1, 2]
        for item in clause.body:
            original = ex43.program.rule(clause.labels[item.level])
            original_lit = original.body[item.body_index]
            assert getattr(original_lit, "pred", None) == \
                getattr(item.literal, "pred", None)

    def test_exit_terminated_has_no_tail(self, ex43):
        clause = unfold(ex43.program, "anc", ("r1", "r0"))
        assert clause.recursive_tail is None
        assert len(clause.literals()) == 2

    def test_literals_include_the_tail(self, ex43):
        clause = unfold(ex43.program, "anc", ("r1", "r1"))
        assert len(clause.literals()) == 3

    def test_locals_renamed_apart(self, ex21):
        clause = unfold(ex21.program, "p", ("r0", "r0"))
        all_vars = [v for item in clause.body
                    for v in item.literal.variables()]
        # b's first argument differs between levels.
        bs = [item.literal for item in clause.body
              if item.literal.pred == "b"]
        assert bs[0].args[0] != bs[1].args[0]
        assert len(all_vars) > 0

    def test_instance_heads_chain(self, ex43):
        clause = unfold(ex43.program, "anc", ("r1", "r1"))
        inst0, inst1 = clause.instances
        rec_call = [lit for lit in inst0.body if lit.pred == "anc"][0]
        assert inst1.head == rec_call

    def test_str(self, ex43):
        text = str(unfold(ex43.program, "anc", ("r1", "r0")))
        assert text.startswith("anc(") and ":-" in text


class TestUnfoldErrors:
    def test_empty_sequence(self, ex43):
        with pytest.raises(TransformError):
            unfold(ex43.program, "anc", ())

    def test_exit_rule_must_be_last(self, ex43):
        with pytest.raises(TransformError):
            unfold(ex43.program, "anc", ("r0", "r1"))

    def test_wrong_predicate(self, ex43):
        with pytest.raises(TransformError):
            unfold(ex43.program, "par", ("r1",))

    def test_nonlinear_rule_rejected(self):
        program = parse_program(
            "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), t(Z, Y).")
        with pytest.raises(TransformError):
            unfold(program, "t", ("r1", "r1"))


class TestEnumerateSequences:
    def test_lengths_and_shapes(self, ex43):
        sequences = list(enumerate_sequences(ex43.program, "anc", 2))
        assert ("r1",) in sequences
        assert ("r0",) in sequences
        assert ("r1", "r1") in sequences
        assert ("r1", "r0") in sequences
        assert ("r0", "r1") not in sequences  # exit rule terminates

    def test_all_unfold(self, ex43):
        for sequence in enumerate_sequences(ex43.program, "anc", 3):
            unfold(ex43.program, "anc", sequence)  # must not raise
