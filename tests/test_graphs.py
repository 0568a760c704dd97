"""Unit tests for the AP-graph, SD-graph and pattern graph (Section 3)."""

import pytest

from repro.core.apgraph import (build_ap_graph, position_node,
                                same_rule_shared_positions, subgoal_node)
from repro.core.pattern import build_pattern_graph
from repro.core.sdgraph import build_sd_graph
from repro.constraints import ic_from_text
from repro.datalog import parse_program
from repro.datalog.atoms import atom
from repro.errors import ConstraintError, ProgramError


class TestAPGraph:
    def test_genealogy_structure(self, ex43):
        ap = build_ap_graph(ex43.program, "anc")
        # par occurs once in each rule.
        assert len(ap.subgoals) == 2
        # In r1, par's args 1,2 feed recursive positions 3,4.
        par_r1 = subgoal_node("r1", 1)
        undirected = {(e.position, e.arg_pos)
                      for e in ap.undirected_from(par_r1)}
        assert undirected == {(3, 1), (4, 2)}

    def test_directed_edges_carry_output_variables(self, ex43):
        ap = build_ap_graph(ex43.program, "anc")
        # Output vars X (pos 1) and Xa (pos 2) thread through the
        # recursive call unchanged: p_1 -> p_1 and p_2 -> p_2 edges.
        threading = {(e.position, e.target)
                     for e in ap.directed if e.arg_pos is None}
        assert (1, position_node(1)) in threading
        assert (2, position_node(2)) in threading
        # Output vars Y (pos 3) and Ya (pos 4) land in par of r1.
        landings = {(e.position, e.target, e.arg_pos)
                    for e in ap.directed if e.arg_pos is not None
                    and e.rule == "r1"}
        assert (3, subgoal_node("r1", 1), 3) in landings
        assert (4, subgoal_node("r1", 1), 4) in landings

    def test_dummy_links_for_non_recursive_sharing(self):
        program = parse_program("""
            r0: p(X) :- e(X).
            r1: p(X) :- a(X, W), b(W, Y), p(Y).
        """)
        ap = build_ap_graph(program, "p")
        # a and b share W, which does not touch the recursive call.
        assert any(set(d[:2]) == {subgoal_node("r1", 0),
                                  subgoal_node("r1", 1)}
                   for d in ap.dummies)

    def test_requires_linear(self):
        program = parse_program(
            "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, Z), t(Z, Y).")
        with pytest.raises(ProgramError):
            build_ap_graph(program, "t")

    def test_unknown_predicate(self, ex43):
        with pytest.raises(ProgramError):
            build_ap_graph(ex43.program, "ghost")


class TestSDGraph:
    def test_genealogy_par_to_par_edge(self, ex43):
        sd = build_sd_graph(ex43.program, "anc")
        par_r1 = subgoal_node("r1", 1)
        edges = [e for e in sd.directed
                 if e.source == par_r1 and e.target == par_r1
                 and e.expansion == ("r1",)]
        assert len(edges) == 1
        # par's args 1,2 equal the next level's args 3,4.
        assert edges[0].pairs == {(1, 3), (2, 4)}

    def test_edge_into_exit_rule(self, ex43):
        sd = build_sd_graph(ex43.program, "anc")
        par_r0 = subgoal_node("r0", 0)
        assert any(e.target == par_r0 and e.expansion == ("r0",)
                   for e in sd.directed)

    def test_multi_hop_edges(self, ex41):
        """Example 4.1: experienced connects to boss three levels down
        through the argument-threading p_1 -> p_2 -> p_3 chain."""
        sd = build_sd_graph(ex41.program, "triple")
        experienced = subgoal_node("r2", 1)
        boss = subgoal_node("r2", 0)
        spans = {e.expansion for e in sd.directed
                 if e.source == experienced and e.target == boss}
        assert ("r2", "r2", "r2") in spans

    def test_same_rule_undirected_edges(self, ex41):
        sd = build_sd_graph(ex41.program, "triple")
        boss = subgoal_node("r2", 0)
        experienced = subgoal_node("r2", 1)
        pairs = [e.pairs for e in sd.undirected
                 if e.source == boss and e.target == experienced]
        assert pairs == [frozenset({(1, 1)})]  # they share U

    def test_max_hops_bounds_edges(self, ex41, monkeypatch):
        monkeypatch.setattr("repro.core.sdgraph.MAX_HOPS", 1)
        shallow = build_sd_graph(ex41.program, "triple")
        monkeypatch.setattr("repro.core.sdgraph.MAX_HOPS", 4)
        deep = build_sd_graph(ex41.program, "triple")
        assert len(shallow.directed) < len(deep.directed)


class TestPatternGraph:
    def test_chain_labels(self, ex43):
        pattern = build_pattern_graph(ex43.ic("ic1"))
        assert pattern.length == 3
        assert pattern.edge_pairs[0] == {(1, 3), (2, 4)}

    def test_reversed_flips_labels(self, ex43):
        pattern = build_pattern_graph(ex43.ic("ic1"))
        flipped = pattern.reversed()
        assert flipped.atoms == tuple(reversed(pattern.atoms))
        assert flipped.edge_pairs[-1] == {(3, 1), (4, 2)}

    def test_single_atom(self, ex41):
        pattern = build_pattern_graph(ex41.ic("ic1"))
        assert pattern.length == 1 and pattern.edge_pairs == ()

    def test_non_chain_rejected(self):
        ic = ic_from_text("a(X, Y), b(Y, Z), c(Z, X) -> .")
        with pytest.raises(ConstraintError):
            build_pattern_graph(ic)


class TestSharedPositions:
    def test_pairs(self):
        pairs = same_rule_shared_positions(atom("a", "X", "Y"),
                                           atom("b", "Y", "Z", "X"))
        assert pairs == {(1, 3), (2, 1)}

    def test_constants_do_not_share(self):
        assert same_rule_shared_positions(atom("a", "c1"),
                                          atom("b", "c1")) == frozenset()
