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

    The strata are computed once per program and kept on it
    (``Program._strata``); a program whose magic seed is swapped for
    another query's (:meth:`Program.with_fact
    <repro.datalog.program.Program.with_fact>`) keeps them too.
    """
    strata = program._strata
    if strata is None:
        strata = program._strata = _condense(program)
    return list(strata)


def _condense(program: Program) -> tuple[frozenset[str], ...]:
    """The strata of ``program``: the dependency graph's condensation in
    topological order, restricted to the IDB."""
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
    return tuple(strata)


def is_recursive_stratum(stratum: frozenset[str],
                         rules: Iterable[Rule]) -> bool:
    """True when some rule of the stratum reads a same-stratum atom."""
    if len(stratum) > 1:
        return True
    return any(
        isinstance(lit, Atom) and lit.pred in stratum
        for rule in rules if rule.head.pred in stratum
        for lit in rule.body)
