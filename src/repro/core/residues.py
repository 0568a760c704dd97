"""Residue generation for recursive programs — Algorithm 3.1.

Given a linear program and a chain IC, find the expansion sequences the
IC *maximally subsumes* and compute the corresponding free residues:

1. build the SD-graph of the program and the pattern graph of the IC;
2. walk the pattern path over the SD-graph in both orientations
   (Lemma 3.1), checking the label-subset condition edge by edge; each
   complete walk yields a candidate expansion sequence (Step 3);
3. *verify* each candidate by unfolding it and testing maximal free
   subsumption directly (Step 4), which also produces the subsuming
   substitution and the residue;
4. apply the Section 3 usefulness test, extending theta so a database
   head atom lands on an atom of the sequence.

An exhaustive bounded enumerator over all expansion sequences is provided
as a reference implementation; tests cross-check the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..constraints.free import (FreeSubsumption, extend_to_useful,
                                maximal_free_subsumptions)
from ..constraints.ic import IntegrityConstraint
from ..constraints.residue import Residue
from ..datalog.atoms import Atom
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.unify import Substitution
from ..errors import ConstraintError
from .pattern import PatternGraph, build_pattern_graph
from .sdgraph import SDGraph, build_sd_graph
from .sequences import SequenceClause, enumerate_sequences, unfold


@dataclass(frozen=True)
class SequenceResidue:
    """A residue attached to the expansion sequence that produced it.

    This is the ``(s, R)`` notation of Section 3.  ``strictly_useful``
    records whether usefulness held under the letter of the definition
    (extension of theta on unbound IC variables only); a useful-but-not-
    strict residue relied on the loose clause-variable rebinding and must
    pass the chase guard before being pushed.
    """

    sequence: tuple[str, ...]
    residue: Residue
    clause: SequenceClause
    subsumption: FreeSubsumption
    useful: bool
    strictly_useful: bool = False

    def __str__(self) -> str:
        if self.strictly_useful:
            flag = "useful"
        elif self.useful:
            flag = "loosely useful"
        else:
            flag = "not useful"
        return (f"({' '.join(self.sequence)}; {self.residue}) "
                f"[{self.residue.kind}, {flag}]")


def clause_for_rule(rule: Rule) -> SequenceClause:
    """View a single rule as a length-1 expansion sequence clause."""
    from .sequences import ProvenancedLiteral

    body = tuple(ProvenancedLiteral(lit, 0, index)
                 for index, lit in enumerate(rule.body))
    recursive_tail = None
    for index, lit in enumerate(rule.body):
        if isinstance(lit, Atom) and lit.pred == rule.head.pred:
            recursive_tail = index
    return SequenceClause(
        pred=rule.head.pred,
        labels=(rule.label or "?",),
        head=rule.head,
        body=body,
        instances=(rule,),
        level_substitutions=(Substitution(),),
        recursive_tail=recursive_tail)


# ---------------------------------------------------------------------------
# Candidate detection (Steps 1-3): SD-graph walk
# ---------------------------------------------------------------------------

def candidate_sequences(sd: SDGraph, pattern: PatternGraph
                        ) -> Iterator[tuple[str, ...]]:
    """Candidate expansion sequences for one pattern orientation."""
    if pattern.length == 1:
        seen: set[tuple[str, ...]] = set()
        for node in sd.nodes_for(pattern.atoms[0].pred):
            sequence = (node[1],)
            if sequence not in seen:
                seen.add(sequence)
                yield sequence
        return

    def extend(node, step: int, sequence: tuple[str, ...]
               ) -> Iterator[tuple[str, ...]]:
        if step == pattern.length - 1:
            yield sequence
            return
        wanted_pred = pattern.atoms[step + 1].pred
        wanted_pairs = pattern.edge_pairs[step]
        for edge in sd.edges_from(node):
            if sd.ap.subgoals[edge.target].pred != wanted_pred:
                continue
            if not wanted_pairs <= edge.pairs:
                continue
            yield from extend(edge.target, step + 1,
                              sequence + edge.expansion)

    for start in sd.nodes_for(pattern.atoms[0].pred):
        yield from extend(start, 0, (start[1],))


def detect_sequences(program: Program, pred: str,
                     ic: IntegrityConstraint) -> list[tuple[str, ...]]:
    """Steps 1-3 of Algorithm 3.1: all candidate sequences, both
    orientations, deduplicated, shortest first."""
    sd = build_sd_graph(program, pred)
    pattern = build_pattern_graph(ic)
    candidates: list[tuple[str, ...]] = []
    seen: set[tuple[str, ...]] = set()
    for oriented in (pattern, pattern.reversed()):
        for sequence in candidate_sequences(sd, oriented):
            if sequence not in seen:
                seen.add(sequence)
                candidates.append(sequence)
    candidates.sort(key=len)
    return candidates


# ---------------------------------------------------------------------------
# Verification (Step 4) and residue extraction
# ---------------------------------------------------------------------------

def _matched_levels(clause: SequenceClause,
                    subsumption: FreeSubsumption) -> set[int]:
    """Levels of the clause touched by the subsumption's matched atoms."""
    levels: set[int] = set()
    ic_atoms = subsumption.residue.ic.database_atoms() \
        if subsumption.residue.ic is not None else ()
    theta = subsumption.subst
    for index in subsumption.matched:
        mapped = theta.apply(ic_atoms[index])
        for item in clause.body:
            if item.literal == mapped:
                levels.add(item.level)
                break
    return levels


def _spans_whole_sequence(clause: SequenceClause, levels: set[int]) -> bool:
    """True when the touched levels reach the first and last instance.

    This keeps only *minimal* sequences: a residue whose footprint fits
    in a sub-window belongs to the shorter sequence of that window.  The
    footprint includes the level of the useful residue head when it lands
    on a sequence atom.
    """
    needed = len(clause.labels)
    if needed == 1:
        return True
    return bool(levels) and min(levels) == 0 and max(levels) == needed - 1


def residues_for_sequence(program: Program, pred: str,
                          sequence: Sequence[str],
                          ic: IntegrityConstraint,
                          require_span: bool = True
                          ) -> list[SequenceResidue]:
    """Verify maximal free subsumption of ``ic`` against a sequence."""
    clause = unfold(program, pred, tuple(sequence))
    return _residues_for_clause(clause, ic, require_span)


def _residues_for_clause(clause: SequenceClause, ic: IntegrityConstraint,
                         require_span: bool) -> list[SequenceResidue]:
    literals = clause.literals()
    out: list[SequenceResidue] = []
    for subsumption in maximal_free_subsumptions(ic, literals):
        strict = True
        extended = extend_to_useful(subsumption.residue, literals,
                                    strict=True)
        if extended is None:
            strict = False
            extended = extend_to_useful(subsumption.residue, literals,
                                        strict=False)
        if extended is not None:
            residue, useful = extended, True
        else:
            residue, useful = subsumption.residue, False
            strict = False
        if residue.is_tautology:
            continue
        if require_span:
            levels = _matched_levels(clause, subsumption)
            head = residue.head_atom()
            if useful and head is not None:
                provenance = clause.provenance_of(head)
                if provenance is not None:
                    levels.add(provenance.level)
            if not _spans_whole_sequence(clause, levels):
                continue
        candidate = SequenceResidue(clause.labels, residue, clause,
                                    subsumption, useful,
                                    strictly_useful=useful and strict)
        if all(not _same_residue(candidate, existing) for existing in out):
            out.append(candidate)
    return out


def _same_residue(a: SequenceResidue, b: SequenceResidue) -> bool:
    return (a.sequence == b.sequence
            and a.residue.body == b.residue.body
            and a.residue.head == b.residue.head)


def introduction_eligible(item: SequenceResidue) -> bool:
    """Can this residue drive *atom introduction* (Section 4, (2))?

    The residue head must be an evaluable atom, or a database atom that
    shares at least one variable with the expansion sequence — the
    paper's criterion (ii).  Such residues are kept even when not useful
    in the elimination sense, because introduction is exactly for atoms
    that do *not* already occur (Example 4.2's ``doctoral(S)``).
    """
    residue = item.subsumption.residue
    if residue.head is None:
        return False
    head_vars = residue.head.variable_set()
    if not head_vars:
        return False
    clause_vars = item.clause.variables()
    return bool(head_vars & clause_vars)


# ---------------------------------------------------------------------------
# Algorithm 3.1, end to end
# ---------------------------------------------------------------------------

def _sequence_extensions(program: Program, pred: str,
                         sequence: tuple[str, ...], max_extend: int,
                         cap: int = 500) -> Iterator[tuple[str, ...]]:
    """Windows around ``sequence``: prefix/suffix rule strings.

    Prefixes use recursive rules only; suffixes may end with an exit
    rule.  Used by the usefulness-driven extension search: a residue head
    can land on an atom several recursion levels away from the atoms the
    IC's body matched (Example 4.1 needs ``r2 r2 r2 r2`` although the IC
    has a single database atom).
    """
    recursive = [r.label for r in program.recursive_rules(pred)]
    exits = [r.label for r in program.exit_rules(pred)]
    ends_with_exit = program.rule(sequence[-1]).count_occurrences(pred) == 0

    def strings(alphabet: list[str], length: int
                ) -> Iterator[tuple[str, ...]]:
        if length == 0:
            yield ()
            return
        for prefix in strings(alphabet, length - 1):
            for symbol in alphabet:
                yield prefix + (symbol,)

    produced = 0
    for pre_len in range(max_extend + 1):
        for post_len in range(max_extend + 1):
            if pre_len == 0 and post_len == 0:
                continue
            if post_len and ends_with_exit:
                continue
            for prefix in strings(recursive, pre_len):
                if post_len == 0:
                    yield prefix + sequence
                    produced += 1
                    if produced >= cap:
                        return
                    continue
                for body in strings(recursive, post_len - 1):
                    for last in recursive + exits:
                        yield prefix + sequence + body + (last,)
                        produced += 1
                        if produced >= cap:
                            return


def generate_residues(program: Program, pred: str,
                      ic: IntegrityConstraint,
                      useful_only: bool = True,
                      max_extend: int = 3) -> list[SequenceResidue]:
    """Algorithm 3.1: residues of ``ic`` w.r.t. the program for ``pred``.

    Candidates come from the SD-graph walk; each is verified by direct
    maximal free subsumption on its unfolding.  With ``useful_only`` the
    Section 3 usefulness filter is applied (the default, as the paper
    only pushes useful residues).  When a residue's database head does
    not land on a sequence atom, windows extending the sequence by up to
    ``max_extend`` levels on either side are searched for a placement
    that makes it useful — the detection the paper defers to its tech
    report [8].

    The analysis runs once per program and IC: the result is memoised
    on the ``program`` instance, keyed by ``pred``, the IC's identity
    and the two options, so lint, the optimizer and plan choice share
    one computation.  This is sound because ``Program``, its rules and
    the IC are immutable, and the memo lives and dies with the program.
    The memo holds the IC, so its identity cannot be reused, and two
    ICs that compare equal but differ in label never share residues.
    Each call returns a fresh list, and a computation that raises
    stores nothing.
    """
    key = (pred, id(ic), useful_only, max_extend)
    hit = program._residues.get(key)
    if hit is None:
        found = _algorithm_3_1(program, pred, ic, useful_only, max_extend)
        hit = program._residues[key] = (ic, tuple(found))
    return list(hit[1])


def _algorithm_3_1(program: Program, pred: str, ic: IntegrityConstraint,
                   useful_only: bool,
                   max_extend: int) -> list[SequenceResidue]:
    """One uncached run of :func:`generate_residues`.

    Each distinct expansion sequence is unfolded and verified once, even
    when the extension windows of several candidates overlap.
    """
    if not ic.is_edb_only(program):
        raise ConstraintError(
            f"IC {ic.label or ic} mentions IDB predicates; the paper "
            "considers EDB-only constraints (assumption 4)")
    results: list[SequenceResidue] = []
    verified: dict[tuple[str, ...], list[SequenceResidue]] = {}

    def note(item: SequenceResidue) -> None:
        if all(not _same_residue(item, other) for other in results):
            results.append(item)

    for sequence in detect_sequences(program, pred, ic):
        items = verified.get(sequence)
        if items is None:
            items = verified[sequence] = residues_for_sequence(
                program, pred, sequence, ic)
        needs_extension = any(
            not item.strictly_useful
            and item.residue.head_atom() is not None
            for item in items)
        for item in items:
            if useful_only and not (item.useful
                                    or introduction_eligible(item)):
                continue
            note(item)
        if needs_extension and max_extend > 0:
            for extended in _sequence_extensions(program, pred, sequence,
                                                 max_extend):
                if extended in verified:
                    # Its strictly useful residues are already noted.
                    continue
                verified[extended] = residues_for_sequence(
                    program, pred, extended, ic)
                for item in verified[extended]:
                    if item.strictly_useful:
                        note(item)
    return results


def generate_residues_exhaustive(program: Program, pred: str,
                                 ic: IntegrityConstraint,
                                 max_length: int | None = None,
                                 useful_only: bool = True
                                 ) -> list[SequenceResidue]:
    """Reference implementation: try every sequence up to ``max_length``.

    The default bound is ``k + 1`` with ``k`` the number of database
    atoms of the IC — a chain of ``k`` atoms cannot span more rule
    instances once minimality (the span filter) is imposed.
    """
    if max_length is None:
        max_length = len(ic.database_atoms()) + 1
    results: list[SequenceResidue] = []
    for sequence in enumerate_sequences(program, pred, max_length):
        for item in residues_for_sequence(program, pred, sequence, ic):
            if useful_only and not (item.useful
                                    or introduction_eligible(item)):
                continue
            if all(not _same_residue(item, other) for other in results):
                results.append(item)
    return results


def rule_level_residues(program: Program, ic: IntegrityConstraint,
                        useful_only: bool = True) -> list[SequenceResidue]:
    """Free residues of ``ic`` against single rules (any predicate).

    This is what the evaluation-based approaches [3, 9] work with; it is
    also how non-recursive rules (like Example 4.2's ``r2``) acquire
    residues.
    """
    results: list[SequenceResidue] = []
    for rule in program:
        clause = clause_for_rule(rule)
        for item in _residues_for_clause(clause, ic, require_span=True):
            if useful_only and not (item.useful
                                    or introduction_eligible(item)):
                continue
            results.append(item)
    return results
