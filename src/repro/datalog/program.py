"""Programs and their structural analysis.

A :class:`Program` is an ordered collection of rules.  It computes, on
demand, the analyses the paper's assumptions rest on:

- the EDB/IDB split (IDB = predicates defined by some rule head);
- the predicate dependency graph and its strongly connected components;
- recursive predicates, with *linear* vs *non-linear* classification and
  detection of *mutual* recursion (which the paper excludes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping

import networkx as nx

from ..errors import ProgramError
from .atoms import Atom, Negation
from .rules import Rule

if TYPE_CHECKING:
    from ..constraints.ic import IntegrityConstraint
    from ..core.residues import SequenceResidue
    from ..core.sequences import UnfoldedPrefix
    from ..engine.prepared import PreparedQuery


@dataclass(frozen=True)
class RecursionInfo:
    """Summary of the recursion structure of a program.

    Attributes:
        recursive_predicates: predicates on a dependency cycle.
        mutual_groups: SCCs of size > 1 (mutual recursion).
        nonlinear_predicates: recursive predicates with a rule whose body
            mentions a predicate of its own SCC more than once.
        component_of: every predicate of the program mapped to its SCC
            of the dependency graph.
    """

    recursive_predicates: frozenset[str]
    mutual_groups: tuple[frozenset[str], ...]
    nonlinear_predicates: frozenset[str]
    component_of: Mapping[str, frozenset[str]] = field(compare=False)

    @property
    def has_mutual_recursion(self) -> bool:
        return bool(self.mutual_groups)

    def is_linear(self, pred: str) -> bool:
        return (pred in self.recursive_predicates
                and pred not in self.nonlinear_predicates)


class Program:
    """An ordered, immutable collection of Datalog rules.

    Rules keep their source order; labels are auto-assigned (``r0``,
    ``r1``, ...) for rules that do not carry one, because expansion
    sequences and reports refer to rules by label.
    """

    def __init__(self, rules: Iterable[Rule],
                 edb_hint: Iterable[str] | None = None) -> None:
        rules = list(rules)  # callers may pass generators
        labelled: list[Rule] = []
        used = {r.label for r in rules if isinstance(r, Rule) and r.label}
        counter = 0
        for r in rules:
            if not isinstance(r, Rule):
                raise TypeError(f"not a rule: {r!r}")
            if r.label is None:
                while f"r{counter}" in used:
                    counter += 1
                r = r.with_label(f"r{counter}")
                used.add(r.label)
                counter += 1
            labelled.append(r)
        if len({r.label for r in labelled}) != len(labelled):
            raise ProgramError("duplicate rule labels in program")
        self._rules: tuple[Rule, ...] = tuple(labelled)
        self._edb_hint = frozenset(edb_hint or ())
        self._by_label = {r.label: r for r in self._rules}
        self._by_head: dict[str, tuple[Rule, ...]] = {}
        for r in self._rules:
            self._by_head.setdefault(r.head.pred, ())
            self._by_head[r.head.pred] += (r,)
        self._recursion: RecursionInfo | None = None
        self._arities: Mapping[str, int] | None = None
        # The evaluation strata, filled by ``engine.stratify.stratify``.
        self._strata: tuple[frozenset[str], ...] | None = None
        # The serving tier's digest of the rules, filled by
        # ``serving.views.program_fingerprint``.
        self._fingerprint: str | None = None
        # Algorithm 3.1's results on this program, filled by
        # ``core.residues.generate_residues``: (pred, id(ic),
        # useful_only, max_extend) -> (ic, residues).
        self._residues: dict[
            tuple[str, int, bool, int],
            tuple[IntegrityConstraint, tuple[SequenceResidue, ...]]] = {}
        # Unfolded recursive prefixes of expansion sequences, filled by
        # ``core.sequences.unfold``: (pred, prefix labels) -> prefix.
        self._unfolded: dict[tuple[str, tuple[str, ...]],
                             UnfoldedPrefix] = {}
        # Bound queries prepared over this program, filled by
        # ``engine.prepared.prepared``: (query pred, adornment, IC ids)
        # -> the entry of the last EDB stamp seen.
        self._prepared: dict[
            tuple[str | None, str | None, tuple[int, ...]],
            PreparedQuery] = {}

    # -- container protocol -------------------------------------------------
    def __iter__(self) -> Iterator[Rule]:
        return iter(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __getitem__(self, index: int) -> Rule:
        return self._rules[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Program) and self._rules == other._rules

    def __hash__(self) -> int:
        return hash(self._rules)

    def __str__(self) -> str:
        return "\n".join(f"{r.label}: {r}" for r in self._rules)

    # -- basic accessors ------------------------------------------------------
    @property
    def rules(self) -> tuple[Rule, ...]:
        return self._rules

    def rule(self, label: str) -> Rule:
        """Look up a rule by its label."""
        try:
            return self._by_label[label]
        except KeyError:
            raise ProgramError(f"no rule labelled {label!r}") from None

    def rules_for(self, pred: str) -> tuple[Rule, ...]:
        """All rules whose head predicate is ``pred`` (source order)."""
        return self._by_head.get(pred, ())

    @property
    def idb_predicates(self) -> frozenset[str]:
        return frozenset(self._by_head)

    @property
    def edb_predicates(self) -> frozenset[str]:
        """Predicates referenced in bodies but never defined by a head."""
        referenced: set[str] = set()
        for r in self._rules:
            referenced.update(r.body_predicates())
        return frozenset((referenced | self._edb_hint) - self.idb_predicates)

    @property
    def predicates(self) -> frozenset[str]:
        return self.idb_predicates | self.edb_predicates

    def is_edb(self, pred: str) -> bool:
        return pred not in self.idb_predicates

    # -- transformation-friendly constructors --------------------------------
    def with_rules(self, rules: Iterable[Rule]) -> "Program":
        return Program(rules, edb_hint=self._edb_hint)

    def add_rules(self, *rules: Rule) -> "Program":
        return Program(self._rules + tuple(rules), edb_hint=self._edb_hint)

    def with_fact(self, old: Rule, new: Rule) -> "Program":
        """This program with the fact ``old`` swapped for ``new``.

        ``new`` is a fact of ``old``'s predicate and arity, so no
        predicate, edge or arity changes: the recursion analysis, the
        arities and the strata of this program carry over instead of
        being recomputed (a magic seed swapped per bound query).
        """
        if old.body or new.body or old.head.pred != new.head.pred \
                or old.head.arity != new.head.arity \
                or not any(rule is old for rule in self._rules):
            raise ProgramError(
                f"cannot swap {old} for {new}: both must be facts of "
                "one predicate and arity, the first in the program")
        swapped = Program([new if rule is old else rule
                           for rule in self._rules],
                          edb_hint=self._edb_hint)
        swapped._recursion = self._recursion
        swapped._arities = self._arities
        swapped._strata = self._strata
        return swapped

    def replace_rule(self, label: str, *replacements: Rule) -> "Program":
        """Replace the rule with ``label`` by ``replacements`` (in place)."""
        if label not in self._by_label:
            raise ProgramError(f"no rule labelled {label!r}")
        out: list[Rule] = []
        for r in self._rules:
            if r.label == label:
                out.extend(replacements)
            else:
                out.append(r)
        return Program(out, edb_hint=self._edb_hint)

    # -- dependency analysis ---------------------------------------------------
    def dependency_graph(self) -> "nx.DiGraph":
        """Directed graph: edge ``q -> p`` when q occurs in a body of p.

        Edge attribute ``negative`` is True when some occurrence is under
        negation (needed by stratification).
        """
        graph = nx.DiGraph()
        graph.add_nodes_from(self.predicates)
        for r in self._rules:
            for lit in r.body:
                if isinstance(lit, Atom):
                    negative = False
                elif isinstance(lit, Negation):
                    negative = True
                else:
                    continue
                pred = lit.pred if isinstance(lit, Atom) else lit.atom.pred
                if graph.has_edge(pred, r.head.pred):
                    if negative:
                        graph[pred][r.head.pred]["negative"] = True
                else:
                    graph.add_edge(pred, r.head.pred, negative=negative)
        return graph

    def recursion_info(self) -> RecursionInfo:
        """Analyse recursion structure (cached)."""
        if self._recursion is not None:
            return self._recursion
        graph = self.dependency_graph()
        sccs = [frozenset(c) for c in nx.strongly_connected_components(graph)]
        recursive: set[str] = set()
        mutual: list[frozenset[str]] = []
        for component in sccs:
            if len(component) > 1:
                recursive.update(component)
                mutual.append(component)
            else:
                (pred,) = component
                if graph.has_edge(pred, pred):
                    recursive.add(pred)
        scc_of: dict[str, frozenset[str]] = {}
        for component in sccs:
            for pred in component:
                scc_of[pred] = component
        nonlinear: set[str] = set()
        for r in self._rules:
            head = r.head.pred
            if head not in recursive:
                continue
            same_scc = sum(
                1 for a in r.database_atoms()
                if a.pred in recursive and scc_of.get(a.pred) == scc_of[head])
            if same_scc > 1:
                nonlinear.add(head)
        self._recursion = RecursionInfo(
            recursive_predicates=frozenset(recursive),
            mutual_groups=tuple(sorted(mutual, key=sorted)),
            nonlinear_predicates=frozenset(nonlinear),
            component_of=scc_of)
        return self._recursion

    def exit_rules(self, pred: str) -> tuple[Rule, ...]:
        """Rules for ``pred`` whose body does not mention ``pred``."""
        return tuple(r for r in self.rules_for(pred)
                     if r.count_occurrences(pred) == 0)

    def recursive_rules(self, pred: str) -> tuple[Rule, ...]:
        """Rules for ``pred`` whose body mentions ``pred``."""
        return tuple(r for r in self.rules_for(pred)
                     if r.count_occurrences(pred) > 0)

    def require_linear(self, pred: str) -> None:
        """Enforce the paper's assumption (3) for ``pred``.

        Raises :class:`ProgramError` unless every rule for ``pred``
        contains at most one occurrence of ``pred`` in its body and
        ``pred`` is not mutually recursive with another predicate.
        """
        info = self.recursion_info()
        for group in info.mutual_groups:
            if pred in group:
                raise ProgramError(
                    f"{pred} is mutually recursive with "
                    f"{sorted(group - {pred})}; the paper's algorithms "
                    "require linear recursion without mutual recursion")
        for r in self.rules_for(pred):
            if r.count_occurrences(pred) > 1:
                raise ProgramError(
                    f"rule {r.label} is non-linear in {pred}: "
                    f"{r.count_occurrences(pred)} occurrences")

    def predicate_arities(self) -> Mapping[str, int]:
        """Map every predicate to its arity; inconsistent use is an error.

        Computed once per program; the mapping is read-only.
        """
        if self._arities is not None:
            return self._arities
        arities: dict[str, int] = {}

        def note(pred: str, arity: int) -> None:
            known = arities.setdefault(pred, arity)
            if known != arity:
                raise ProgramError(
                    f"predicate {pred} used with arities {known} and {arity}")

        for r in self._rules:
            note(r.head.pred, r.head.arity)
            for lit in r.body:
                if isinstance(lit, Atom):
                    note(lit.pred, lit.arity)
                elif isinstance(lit, Negation):
                    note(lit.atom.pred, lit.atom.arity)
        self._arities = MappingProxyType(arities)
        return self._arities
