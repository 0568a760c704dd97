"""The subgoal-dependency graph (SD-graph).

Nodes are EDB subgoal occurrences; a directed edge ``a -> b`` labelled
``(exp, {(i1, j1), ...})`` records that in any expansion sequence
extending ``rule(a)`` by the rules of ``exp``, the ``i``-th argument of
``a`` is identical to the ``j``-th argument of ``b`` (``b`` lives
``len(exp)`` levels deeper).  Edges are obtained by composing one
undirected AP-graph hop (into a recursive-call position) with a chain of
directed hops (output-variable flow), exactly as Definition 3.2's paths
prescribe.

Undirected SD edges record same-rule variable sharing (directly or via a
dummy subgoal).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from ..datalog.program import Program
from .apgraph import (APGraph, SubgoalNode, build_ap_graph,
                      same_rule_shared_positions)

#: Maximum number of recursion levels an SD edge may span.
DEFAULT_MAX_HOPS = 6


@dataclass(frozen=True)
class SDEdge:
    """A directed SD-graph edge.

    Attributes:
        source: the shallower subgoal occurrence.
        target: the deeper subgoal occurrence.
        expansion: rule labels crossed, top-down; ``target`` belongs to
            the last one.
        pairs: argument-position pairs ``(i, j)`` with source's i-th
            argument identical to target's j-th argument.
    """

    source: SubgoalNode
    target: SubgoalNode
    expansion: tuple[str, ...]
    pairs: frozenset[tuple[int, int]]


@dataclass
class SDGraph:
    """The SD-graph: directed cross-level edges + same-rule sharing."""

    ap: APGraph
    directed: list[SDEdge] = field(default_factory=list)
    undirected: list[SDEdge] = field(default_factory=list)

    def edges_from(self, node: SubgoalNode,
                   include_undirected: bool = True) -> Iterator[SDEdge]:
        for edge in self.directed:
            if edge.source == node:
                yield edge
        if include_undirected:
            for edge in self.undirected:
                if edge.source == node:
                    yield edge

    def nodes_for(self, predicate: str) -> Iterator[SubgoalNode]:
        for node, atom in self.ap.subgoals.items():
            if atom.pred == predicate:
                yield node


def build_sd_graph(program: Program, pred: str,
                   max_hops: int = DEFAULT_MAX_HOPS) -> SDGraph:
    """Construct the SD-graph of ``program`` w.r.t. ``pred``."""
    ap = build_ap_graph(program, pred)
    graph = SDGraph(ap=ap)

    # Directed edges: undirected hop into p_k, then 1..max_hops directed
    # hops.  Accumulate (source, target, expansion) -> pairs.
    accumulated: dict[tuple[SubgoalNode, SubgoalNode, tuple[str, ...]],
                      set[tuple[int, int]]] = {}
    for start in ap.subgoals:
        for hop in ap.undirected_from(start):
            _walk(ap, start, hop.arg_pos, hop.position, (), accumulated,
                  max_hops)
    for (source, target, expansion), pairs in accumulated.items():
        graph.directed.append(
            SDEdge(source, target, expansion, frozenset(pairs)))

    # Undirected edges: same-rule sharing (directly or via dummies both
    # reduce to shared variables between the two atoms).
    nodes = list(ap.subgoals.items())
    for index_a, (node_a, atom_a) in enumerate(nodes):
        for node_b, atom_b in nodes[index_a + 1:]:
            if node_a[1] != node_b[1]:  # different rules
                continue
            pairs = same_rule_shared_positions(atom_a, atom_b)
            if pairs:
                graph.undirected.append(
                    SDEdge(node_a, node_b, (), pairs))
                graph.undirected.append(
                    SDEdge(node_b, node_a, (),
                           frozenset((j, i) for i, j in pairs)))
    return graph


def _walk(ap: APGraph, start: SubgoalNode, start_arg: int, position: int,
          expansion: tuple[str, ...],
          accumulated: dict, max_hops: int) -> None:
    """Depth-first walk along directed AP edges from ``p_position``."""
    if len(expansion) >= max_hops:
        return
    for edge in ap.directed_from(position):
        new_expansion = expansion + (edge.rule,)
        if isinstance(edge.target, tuple) and edge.target[0] == "subgoal":
            key = (start, edge.target, new_expansion)
            accumulated.setdefault(key, set()).add(
                (start_arg, edge.arg_pos))
        else:  # another recursive-call position: keep threading down
            _walk(ap, start, start_arg, edge.target[1], new_expansion,
                  accumulated, max_hops)
