"""Stratification for negation.

The optimizer itself never emits negated database atoms (conditional
splits use comparison complements), but the substrate supports stratified
negation as any real deductive database would.  A program is stratifiable
when no cycle of the predicate dependency graph contains a negative edge;
strata are then the SCC condensation in topological order.
"""

from __future__ import annotations

from typing import Iterable

import networkx as nx

from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..errors import EvaluationError


def stratify(program: Program) -> list[frozenset[str]]:
    """Partition the IDB predicates into evaluation strata.

    Returns a list of predicate sets; stratum ``i`` may depend positively
    on strata ``<= i`` and negatively only on strata ``< i``.  Raises
    :class:`EvaluationError` for non-stratifiable programs.
    """
    graph = program.dependency_graph()
    condensation = nx.condensation(graph)
    # Check for negative edges inside a component.
    component_of: dict[str, int] = condensation.graph["mapping"]
    for source, target, data in graph.edges(data=True):
        if data.get("negative") and component_of[source] == \
                component_of[target]:
            raise EvaluationError(
                f"program is not stratifiable: {target} depends "
                f"negatively on {source} within a recursive component")
    idb = program.idb_predicates
    strata: list[frozenset[str]] = []
    for node in nx.topological_sort(condensation):
        members = frozenset(condensation.nodes[node]["members"]) & idb
        if members:
            strata.append(members)
    return strata


def is_recursive_stratum(stratum: frozenset[str],
                         rules: Iterable[Rule]) -> bool:
    """True when some rule of the stratum reads a same-stratum atom."""
    if len(stratum) > 1:
        return True
    return any(
        isinstance(lit, Atom) and lit.pred in stratum
        for rule in rules if rule.head.pred in stratum
        for lit in rule.body)
