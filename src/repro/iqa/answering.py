"""Intelligent query answering via semantic-optimization machinery.

Section 5's methodology, as run on Example 5.1:

1. extract the *relevant* part of the context by reachability analysis;
2. enumerate the proof trees of the query predicate (each is a
   conjunctive query over EDB leaves);
3. treat the relevant context as an axiom and test whether it (partially)
   subsumes each proof tree's leaves — with the query's distinguished
   variable pinned to the tree's;
4. read descriptions off the residues: an *empty* residue means every
   object satisfying the context qualifies; otherwise the residue lists
   exactly the additional conditions the object must meet.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constraints.subsumption import match_literal
from ..datalog.atoms import Atom, Literal
from ..datalog.program import Program
from ..datalog.terms import FreshVariableSupply, Variable
from ..datalog.unify import EMPTY_SUBSTITUTION, Substitution, unify
from ..errors import TransformError
from .knowledge import KnowledgeQuery
from .reachability import relevant_context


@dataclass(frozen=True)
class ProofTree:
    """One complete unfolding of the query predicate.

    Attributes:
        labels: rule labels applied, in expansion order.
        head: the tree's root atom.
        leaves: the EDB/evaluable leaves (the conjunctive query).
    """

    labels: tuple[str, ...]
    head: Atom
    leaves: tuple[Literal, ...]

    def __str__(self) -> str:
        leaves = ", ".join(str(lit) for lit in self.leaves)
        return f"[{' '.join(self.labels)}] {self.head} :- {leaves}"


def proof_trees(program: Program, query: Atom,
                max_expansions: int = 8) -> list[ProofTree]:
    """All complete proof trees of ``query`` within the expansion budget.

    Every IDB atom is repeatedly replaced by a (renamed, unified) rule
    body; trees needing more than ``max_expansions`` rule applications
    are dropped, which truncates recursive predicates — acceptable for
    description purposes and noted by callers that need completeness.
    """
    supply = FreshVariableSupply(
        {v.name for rule in program for v in rule.variables()}
        | {v.name for v in query.variables()})
    results: list[ProofTree] = []

    def expand(goal_list: list[Literal], labels: tuple[str, ...],
               budget: int) -> None:
        for index, literal in enumerate(goal_list):
            if isinstance(literal, Atom) and \
                    literal.pred in program.idb_predicates:
                if budget == 0:
                    return
                for rule in program.rules_for(literal.pred):
                    renamed_map = {v: supply.fresh(v.name) for v in sorted(
                        rule.variables(), key=lambda v: v.name)}
                    renamed = rule.apply(Substitution(renamed_map))
                    unifier = unify(renamed.head, literal)
                    if unifier is None:
                        continue
                    new_goals = (
                        [unifier.apply_literal(g) for g in
                         goal_list[:index]]
                        + [unifier.apply_literal(g) for g in
                           unifier.apply_literals(renamed.body)]
                        + [unifier.apply_literal(g) for g in
                           goal_list[index + 1:]])
                    expand(new_goals, labels + (renamed.label or "?",),
                           budget - 1)
                return
        results.append(ProofTree(labels, query, tuple(goal_list)))

    expand([query], (), max_expansions)
    return results


@dataclass(frozen=True)
class TreeDescription:
    """How one proof tree relates to the context.

    ``residue`` holds the conditions *still required* beyond the context;
    an empty residue means the context alone guarantees membership.
    """

    tree: ProofTree
    subsumed: bool
    residue: tuple[Literal, ...]

    @property
    def context_suffices(self) -> bool:
        return self.subsumed and not self.residue


@dataclass(frozen=True)
class DescribeResult:
    """The intelligent answer to a knowledge query."""

    query: KnowledgeQuery
    relevant: tuple[Literal, ...]
    irrelevant: tuple[Literal, ...]
    descriptions: tuple[TreeDescription, ...]
    context_inconsistent: bool = False

    @property
    def context_suffices(self) -> bool:
        """True when some proof tree is totally subsumed by the context."""
        return any(d.context_suffices for d in self.descriptions)

    def summary(self) -> str:
        lines = [str(self.query)]
        if self.irrelevant:
            ignored = ", ".join(str(lit) for lit in self.irrelevant)
            lines.append(f"ignored as irrelevant: {ignored}")
        if self.context_inconsistent:
            lines.append(
                "answer: the context contradicts the integrity "
                "constraints; no object can satisfy it")
            return "\n".join(lines)
        if self.context_suffices:
            lines.append(
                "answer: every object satisfying the context is a "
                f"{self.query.target.pred}")
            return "\n".join(lines)
        lines.append("answer: the context alone does not suffice; "
                     "per proof tree, the object must additionally "
                     "satisfy:")
        for description in self.descriptions:
            residue = ", ".join(str(lit) for lit in description.residue) \
                or "true"
            lines.append(
                f"  via {' '.join(description.tree.labels)}: {residue}")
        return "\n".join(lines)


def _best_coverage(context: tuple[Literal, ...], tree: ProofTree,
                   query: Atom) -> tuple[frozenset[int], Substitution]:
    """Map the tree's leaves *into* the context, maximizing coverage.

    Leaf variables are the bindable side (they are existential once the
    query variables are pinned); context variables are rigid — the
    context asserts facts about *its own* individuals, so a context
    about a different person must not be strengthened onto the query's
    (``describe honors(Stud) where graduated(Other, C)...`` does not
    make Stud an honors student).  The query variables are pinned to
    themselves: proof trees are unfolded from the query atom, so tree
    and query share them.

    Returns the largest set of covered leaf indexes and its mapping.
    """
    best: tuple[frozenset[int], Substitution] = (frozenset(),
                                                 EMPTY_SUBSTITUTION)

    def assign(index: int, covered: frozenset[int],
               current: Substitution) -> None:
        nonlocal best
        if index == len(tree.leaves):
            if len(covered) > len(best[0]):
                best = (covered, current)
            return
        leaf = tree.leaves[index]
        # Option 1: leave this leaf uncovered (goes to the residue).
        assign(index + 1, covered, current)
        # Option 2: cover it by some context literal.
        for asserted in context:
            for extended in match_literal(leaf, asserted, current):
                assign(index + 1, covered | {index}, extended)

    # Pin the query's variables so they stay rigid during matching.
    seed = EMPTY_SUBSTITUTION
    for arg in query.args:
        if isinstance(arg, Variable):
            seed = seed.bind(arg, arg)
    assign(0, frozenset(), seed)
    return best


def describe(program: Program, query: KnowledgeQuery,
             max_expansions: int = 8, ics: tuple = ()) -> DescribeResult:
    """Answer a knowledge query (the Section 5 pipeline).

    When integrity constraints are supplied, the relevant context is
    first *chased* with them, so knowledge implied by the context also
    counts as asserted (e.g. an ``alumni -> graduated`` constraint lets
    an alumni context satisfy a graduated condition).  An inconsistent
    context (its chase derives a contradiction) is reported as such.
    """
    if query.target.pred not in program.idb_predicates:
        raise TransformError(
            f"cannot describe {query.target.pred!r}: not an IDB "
            "predicate of the program")
    relevant, irrelevant = relevant_context(program, query.target.pred,
                                            query.context, ics)
    if ics:
        from ..core.containment import chase, freeze

        instance, supply = freeze(relevant)
        chase(instance, list(ics), supply)
        if instance.inconsistent:
            return DescribeResult(query, relevant, irrelevant, (),
                                  context_inconsistent=True)
        relevant_closed: tuple[Literal, ...] = (
            tuple(instance.atoms) + tuple(instance.assumptions))
    else:
        relevant_closed = relevant
    trees = proof_trees(program, query.target, max_expansions)
    if not trees:
        raise TransformError(
            f"{query.target.pred} has no proof trees within the "
            "expansion budget")
    descriptions = []
    for tree in trees:
        covered, theta = _best_coverage(relevant_closed, tree,
                                        query.target)
        residue = tuple(theta.apply_literal(leaf)
                        for index, leaf in enumerate(tree.leaves)
                        if index not in covered)
        database_leaves = {index for index, leaf in
                           enumerate(tree.leaves)
                           if isinstance(leaf, Atom)}
        subsumed = database_leaves <= covered and bool(covered)
        descriptions.append(TreeDescription(tree, subsumed, residue))
    return DescribeResult(query, relevant, irrelevant,
                          tuple(descriptions))
