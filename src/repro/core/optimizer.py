"""End-to-end semantic optimizer.

:class:`SemanticOptimizer` wires the pipeline together: residue
generation (Algorithm 3.1), sequence isolation (Algorithm 4.1) and
residue pushing (Section 4), with reporting of what was and was not
applied and why.

Composition policy (see DESIGN.md): Algorithm 3.1's assumptions — linear
recursion, no mutual recursion — do not hold for an already-transformed
program, so multi-level passes do not compose arbitrarily.
:meth:`SemanticOptimizer.optimize` therefore works in two phases:

1. all multi-level residues that are *periodic* (uniform ``r^k``
   sequences over the same recursive rule) compose into ONE depth-class
   compilation, each edit applying from its own depth threshold — so
   several ICs on one recursion do not block each other;
2. the remaining residues are pushed per (predicate, sequence) group:
   rule-level groups greedily (they preserve linearity), plus at most
   one further multi-level isolation, ordered by a benefit policy
   (pruning > elimination > introduction, strict usefulness first).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..constraints.ic import IntegrityConstraint
from ..datalog.program import Program
from ..errors import ProgramError
from ..runtime import chaos
from ..runtime.budget import Budget
from ..runtime.resilience import ResilienceReport, StageFailure
from .collapse import inline_auxiliaries
from .isolate import Isolation, isolate
from .periodic import (periodic_applicable, periodic_eliminate,
                       periodic_introduce, periodic_prune,
                       push_periodic_group_best_effort)
from .push import (GuardMode, PushOutcome, apply_elimination,
                   apply_introduction, apply_pruning)
from .residues import (SequenceResidue, generate_residues,
                       generate_residues_exhaustive,
                       rule_level_residues)
from .sdgraph import DEFAULT_MAX_HOPS

#: Push-action priority (lower sorts first).
_ACTION_RANK = {"prune": 0, "eliminate": 1, "introduce": 2, "skip": 3}


@dataclass(frozen=True)
class OptimizationStep:
    """One residue push attempt, applied or not."""

    ic_label: str
    sequence: tuple[str, ...]
    residue: str
    outcome: PushOutcome

    def __str__(self) -> str:
        status = "applied" if self.outcome.applied else \
            f"skipped ({self.outcome.reason})"
        return (f"[{self.outcome.action}] ic={self.ic_label} "
                f"seq={' '.join(self.sequence)} residue='{self.residue}' "
                f"-> {status}")


@dataclass
class OptimizationReport:
    """The result of :meth:`SemanticOptimizer.optimize`."""

    original: Program
    optimized: Program
    steps: list[OptimizationStep] = field(default_factory=list)

    @property
    def applied_steps(self) -> list[OptimizationStep]:
        return [s for s in self.steps if s.outcome.applied]

    @property
    def changed(self) -> bool:
        return bool(self.applied_steps)

    def summary(self) -> str:
        lines = [f"{len(self.applied_steps)}/{len(self.steps)} residue "
                 "pushes applied"]
        lines.extend(f"  {step}" for step in self.steps)
        return "\n".join(lines)


def _preferred_action(item: SequenceResidue,
                      small_relations: frozenset[str]) -> str:
    """Choose the optimization a residue suggests (Section 4)."""
    residue = item.residue
    if residue.is_null:
        return "prune"
    head = residue.head_atom()
    occurs = head is not None and \
        item.clause.provenance_of(head) is not None
    if occurs:
        return "eliminate"
    if head is not None:
        # Introduction of a database atom only pays off for small
        # relations (the paper's criterion); otherwise do nothing.
        return "introduce" if head.pred in small_relations else "skip"
    return "introduce"  # evaluable head: scan reduction


class SemanticOptimizer:
    """Pushes the semantics of integrity constraints inside recursion.

    Args:
        program: a (rectified) linear recursive program.
        ics: the integrity constraints (EDB-only).
        pred: the recursive predicate to optimize; defaults to the single
            recursive predicate of the program.
        guard: ``"chase"`` (default) validates every edit with the
            containment test; ``"none"`` reproduces the paper verbatim.
        small_relations: EDB predicates worth *introducing* as semijoin
            reducers (the paper's "small relation" criterion is a
            physical-design judgement the optimizer cannot make alone).
        max_hops: SD-graph depth bound for Algorithm 3.1.
    """

    def __init__(self, program: Program,
                 ics: Iterable[IntegrityConstraint],
                 pred: str | None = None,
                 guard: GuardMode = "chase",
                 small_relations: Iterable[str] = (),
                 max_hops: int = DEFAULT_MAX_HOPS,
                 collapse: bool = True,
                 compilation: str = "periodic") -> None:
        if compilation not in ("periodic", "automaton"):
            raise ValueError(
                f"compilation must be 'periodic' or 'automaton', "
                f"got {compilation!r}")
        self.program = program
        self.ics = list(ics)
        self.guard: GuardMode = guard
        self.small_relations = frozenset(small_relations)
        self.max_hops = max_hops
        self.collapse = collapse
        self.compilation = compilation
        self.pred = pred or self._single_recursive_pred(program)

    @staticmethod
    def _single_recursive_pred(program: Program) -> str | None:
        """The unique recursive predicate; None for non-recursive
        programs (rule-level residues still apply); ambiguity raises."""
        info = program.recursion_info()
        recursive = sorted(info.recursive_predicates)
        if not recursive:
            return None
        if len(recursive) > 1:
            raise ProgramError(
                f"cannot infer the recursive predicate (found "
                f"{recursive}); pass pred= explicitly or use "
                "optimize_all_predicates")
        return recursive[0]

    # -- residue generation ----------------------------------------------------
    def sequence_residues(self) -> list[SequenceResidue]:
        """Sequence residues of every IC (useful ones only).

        Chain-shaped ICs go through Algorithm 3.1's graph detection;
        non-chain ICs (outside the algorithm's stated class) fall back
        to the bounded exhaustive enumerator, so the optimizer is not
        limited to the paper's syntactic class.
        """
        out: list[SequenceResidue] = []
        if self.pred is None:
            return out
        for ic in self.ics:
            if not ic.is_edb_only(self.program):
                continue
            if ic.is_chain():
                out.extend(generate_residues(
                    self.program, self.pred, ic, max_hops=self.max_hops))
            else:
                out.extend(generate_residues_exhaustive(
                    self.program, self.pred, ic,
                    max_length=len(ic.database_atoms()) + 2))
        return out

    def rule_residues(self) -> list[SequenceResidue]:
        """Rule-level residues (any predicate, any IC shape)."""
        out: list[SequenceResidue] = []
        for ic in self.ics:
            out.extend(rule_level_residues(self.program, ic))
        return out

    def all_residues(self) -> list[SequenceResidue]:
        """Sequence residues plus rule-level residues, deduplicated."""
        residues = self.sequence_residues()
        seen = {(r.sequence, str(r.residue)) for r in residues}
        for item in self.rule_residues():
            key = (item.sequence, str(item.residue))
            if key not in seen:
                seen.add(key)
                residues.append(item)
        return residues

    # -- pushing ------------------------------------------------------------------
    def push(self, program: Program, item: SequenceResidue) -> PushOutcome:
        """Isolate the residue's sequence in ``program`` and push it."""
        isolation = isolate(program, item.clause.pred, item.sequence)
        return self.push_into(isolation, item)

    def push_periodic_item(self, program: Program,
                           item: SequenceResidue) -> PushOutcome:
        """Push via the overlap-aware depth-class compilation.

        Callers must have checked :func:`periodic_applicable` against
        ``program`` first.
        """
        action = _preferred_action(item, self.small_relations)
        pred = item.clause.pred
        if action == "prune":
            return periodic_prune(program, pred, item, self.ics,
                                  self.guard)
        if action == "eliminate":
            return periodic_eliminate(program, pred, item, self.ics,
                                      self.guard)
        if action == "introduce":
            return periodic_introduce(program, pred, item, self.ics,
                                      self.guard)
        return PushOutcome("skip", False,
                           "nothing beneficial to push")

    def push_into(self, isolation: Isolation,
                  item: SequenceResidue) -> PushOutcome:
        action = _preferred_action(item, self.small_relations)
        if action == "skip":
            return PushOutcome(
                "skip", False,
                "fact residue names a relation not declared small; "
                "nothing beneficial to push")
        if action == "prune":
            return apply_pruning(isolation, item, self.ics, self.guard)
        if action == "eliminate":
            outcome = apply_elimination(isolation, item, self.ics,
                                        self.guard)
            if outcome.applied:
                return outcome
            if (item.residue.head_atom() is not None
                    and item.residue.head_atom().pred
                    in self.small_relations):
                return apply_introduction(isolation, item, self.ics,
                                          self.guard)
            return outcome
        return apply_introduction(isolation, item, self.ics, self.guard)

    # -- pipeline stages (shared by optimize and optimize_safe) --------------
    def _sort_key(self, item: SequenceResidue):
        """Push-preference order: pruning > elimination > introduction;
        strict usefulness over loose; all-recursive sequences (which
        cover arbitrarily deep trees) over exit-terminated ones; shorter
        over longer."""
        exit_terminated = any(
            self.program.rule(label).count_occurrences(
                item.clause.pred) == 0
            for label in item.sequence)
        return (_ACTION_RANK[_preferred_action(
                    item, self.small_relations)],
                0 if item.strictly_useful or item.residue.is_null
                else 1,
                1 if exit_terminated else 0,
                len(item.sequence))

    def _sorted_residues(self) -> list[SequenceResidue]:
        return sorted(self.all_residues(), key=self._sort_key)

    def _phase1_periodic(self, current: Program,
                         residues: Sequence[SequenceResidue],
                         report: OptimizationReport, preserved: set[str],
                         capture: Callable[..., None] | None = None,
                         budget: Budget | None = None
                         ) -> tuple[Program, bool, set[int]]:
        """Phase 1 — periodic super-groups: all multi-level residues over
        the same recursive rule compose into ONE depth-class compilation
        (each edit applies from its own depth threshold), so several ICs
        on one recursion do not block each other.

        Returns ``(program, multi_level_done, handled residue ids)``.
        With ``capture`` set (the guarded pipeline), a failing group is
        dropped and reported instead of propagating.
        """
        multi_level_done = False
        handled: set[int] = set()
        if self.compilation != "periodic":
            return current, multi_level_done, handled
        by_rule: dict[tuple[str, str],
                      list[tuple[SequenceResidue, str]]] = {}
        for item in residues:
            if len(item.sequence) <= 1:
                continue
            action = _preferred_action(item, self.small_relations)
            if action == "skip":
                continue
            if not periodic_applicable(current, item.clause.pred, item):
                continue
            key = (item.clause.pred, item.sequence[0])
            by_rule.setdefault(key, []).append((item, action))
        for (pred, rule_label), entries in by_rule.items():
            if multi_level_done:
                break
            items = [entry[0] for entry in entries]
            actions = [entry[1] for entry in entries]
            try:
                if capture is not None:
                    chaos.checkpoint(f"periodic:{pred}/{rule_label}")
                    if budget is not None:
                        budget.check_round(last_round=None)
                outcome, per_item = push_periodic_group_best_effort(
                    current, pred, items, actions, self.ics, self.guard)
            except Exception as error:
                if capture is None:
                    raise
                capture(f"periodic:{pred}/{rule_label}", error,
                        tuple(_ic_label(item) for item in items))
                continue
            if not outcome.applied:
                # Compilation-level failure (e.g. a second recursive
                # rule): leave the items to phase 2's automaton path.
                continue
            for item, item_outcome in zip(items, per_item):
                handled.add(id(item))
                report.steps.append(OptimizationStep(
                    _ic_label(item), item.sequence,
                    str(item.residue), item_outcome))
            current = outcome.program
            preserved |= outcome.preserved_preds
            multi_level_done = True
        return current, multi_level_done, handled

    def _phase2_push(self, current: Program,
                     residues: Sequence[SequenceResidue],
                     handled: set[int], multi_level_done: bool,
                     report: OptimizationReport, preserved: set[str],
                     capture: Callable[..., None] | None = None,
                     budget: Budget | None = None) -> Program:
        """Phase 2 — the remaining residues, per (pred, sequence) group.

        Each group is pushed in one isolation so the sequence is only
        isolated once.  With ``capture`` set, a failing residue is
        dropped and reported instead of propagating.
        """
        groups: dict[tuple[str, tuple[str, ...]],
                     list[SequenceResidue]] = {}
        for item in residues:
            if id(item) in handled:
                continue
            groups.setdefault((item.clause.pred, item.sequence),
                              []).append(item)

        for (pred, sequence), items in groups.items():
            multi_level = len(sequence) > 1
            if multi_level and multi_level_done:
                for item in items:
                    report.steps.append(OptimizationStep(
                        _ic_label(item), sequence, str(item.residue),
                        PushOutcome(
                            _preferred_action(item, self.small_relations),
                            False,
                            "another multi-level sequence was already "
                            "isolated this pass")))
                continue
            isolation: Isolation | None = None
            group_changed = False
            stage = f"push:{pred}/{' '.join(sequence)}"
            for item in items:
                try:
                    if capture is not None:
                        chaos.checkpoint(stage)
                        if budget is not None:
                            budget.check_round(last_round=None)
                    if (self.compilation == "periodic"
                            and periodic_applicable(current, pred, item)):
                        outcome = self.push_periodic_item(current, item)
                    else:
                        if isolation is None:
                            isolation = isolate(current, pred, sequence)
                        outcome = self.push_into(isolation, item)
                except ProgramError as error:
                    outcome = PushOutcome(
                        _preferred_action(item, self.small_relations),
                        False, f"earlier edit superseded the target rule: "
                        f"{error}")
                except Exception as error:
                    if capture is None:
                        raise
                    capture(stage, error, (_ic_label(item),))
                    outcome = PushOutcome(
                        _preferred_action(item, self.small_relations),
                        False, f"stage degraded: {error}")
                report.steps.append(OptimizationStep(
                    _ic_label(item), sequence, str(item.residue), outcome))
                if outcome.applied and outcome.program is not None:
                    current = outcome.program
                    group_changed = True
                    preserved |= outcome.preserved_preds
                    if isolation is not None:
                        # Re-anchor the isolation on the updated program
                        # so later residues of the group see earlier
                        # edits.
                        isolation = Isolation(
                            current, isolation.pred, isolation.sequence,
                            isolation.clause, isolation.alpha_labels,
                            isolation.p_names, isolation.q_names)
            if multi_level and group_changed:
                multi_level_done = True
        return current

    def _collapse_stage(self, current: Program,
                        preserved: set[str]) -> Program:
        auxiliaries = (current.idb_predicates
                       - self.program.idb_predicates - preserved)
        return inline_auxiliaries(current, auxiliaries)

    def optimize(self) -> OptimizationReport:
        """Run the full pipeline (see module docstring for the policy)."""
        report = OptimizationReport(self.program, self.program)
        preserved: set[str] = set()
        residues = self._sorted_residues()
        current, multi_level_done, handled = self._phase1_periodic(
            self.program, residues, report, preserved)
        current = self._phase2_push(current, residues, handled,
                                    multi_level_done, report, preserved)
        if self.collapse:
            current = self._collapse_stage(current, preserved)
        report.optimized = current
        return report

    # -- guarded pipeline ----------------------------------------------------
    def _residues_of_ic(self, ic: IntegrityConstraint
                        ) -> list[SequenceResidue]:
        """All residues contributed by one IC (sequence + rule level)."""
        out: list[SequenceResidue] = []
        if self.pred is not None and ic.is_edb_only(self.program):
            if ic.is_chain():
                out.extend(generate_residues(
                    self.program, self.pred, ic, max_hops=self.max_hops))
            else:
                out.extend(generate_residues_exhaustive(
                    self.program, self.pred, ic,
                    max_length=len(ic.database_atoms()) + 2))
        out.extend(rule_level_residues(self.program, ic))
        return out

    def _safe_residues(self, capture: Callable[..., None],
                       budget: Budget | None) -> list[SequenceResidue]:
        """Residue generation with per-IC degradation.

        First tries the whole stage at once; if that fails, retries one
        IC at a time, dropping (and reporting) only the ICs whose
        residue generation fails.
        """
        try:
            chaos.checkpoint("residues")
            if budget is not None:
                budget.check_round(last_round=None)
            return self._sorted_residues()
        except Exception as error:
            capture("residues", error, ())
        collected: list[SequenceResidue] = []
        seen: set[tuple] = set()
        for ic in self.ics:
            label = ic.label or str(ic)
            try:
                chaos.checkpoint(f"residues:{label}")
                if budget is not None:
                    budget.check_round(last_round=None)
                items = self._residues_of_ic(ic)
            except Exception as error:
                capture(f"residues:{label}", error, (label,))
                continue
            for item in items:
                key = (item.sequence, str(item.residue))
                if key not in seen:
                    seen.add(key)
                    collected.append(item)
        return sorted(collected, key=self._sort_key)

    def optimize_safe(self, budget: Budget | None = None,
                      verify: str = "none", sample_count: int = 3,
                      sample_facts: int = 12,
                      stage_timeout_s: float | None = None,
                      rng: random.Random | None = None
                      ) -> ResilienceReport:
        """Run the pipeline with exception capture and graceful fallback.

        Every stage — residue generation, periodic compilation, per-group
        pushing, auxiliary collapse — runs under its own budget slice
        with exception capture.  A failing stage (or residue group, or
        single IC) is *dropped* and recorded in the returned
        :class:`ResilienceReport`; the pipeline continues from the last
        sound program, degrading in the worst case to the original
        program itself.  Dropping work is always sound: the optimized
        program differs from the source only by guard-validated edits,
        so any prefix of the edit sequence preserves answers
        (Theorem 4.1; see ``docs/robustness.md``).

        Args:
            budget: overall budget; each stage gets a
                :meth:`Budget.child` slice sharing its deadline and
                cancellation flag.  Deadline expiry degrades like any
                other stage failure instead of raising.
            verify: ``"sample"`` runs an equivalence spot-check of the
                optimized vs. source program on random IC-consistent
                databases and *quarantines* the optimization (falls back
                to the source program) on mismatch.
            sample_count / sample_facts: spot-check breadth: number of
                sampled databases and facts per relation in each.
            stage_timeout_s: optional per-stage wall-clock allowance,
                capped by ``budget``'s remaining time.
            rng: randomness for the spot-check (seeded default, so runs
                are reproducible).
        """
        if verify not in ("none", "sample"):
            raise ValueError(
                f"verify must be 'none' or 'sample', got {verify!r}")
        if budget is not None:
            budget.start()
        result = ResilienceReport(self.program, self.program)
        report = OptimizationReport(self.program, self.program)

        def capture(stage: str, error: BaseException,
                    dropped: tuple[str, ...] = ()) -> None:
            result.failures.append(StageFailure(
                stage, str(error) or error.__class__.__name__,
                type(error).__name__, tuple(dropped)))

        def stage_budget() -> Budget | None:
            if budget is not None:
                return budget.child(stage_timeout_s).start()
            if stage_timeout_s is not None:
                return Budget(timeout_s=stage_timeout_s).start()
            return None

        residues = self._safe_residues(capture, stage_budget())
        preserved: set[str] = set()
        current = self.program
        multi_level_done, handled = False, set()

        # Stage-level capture backstops the per-group capture inside each
        # phase; when a phase dies outside a group, its partial steps are
        # discarded so the report never claims an edit the returned
        # program does not contain.
        marker = len(report.steps)
        try:
            current, multi_level_done, handled = self._phase1_periodic(
                self.program, residues, report, preserved,
                capture=capture, budget=stage_budget())
        except Exception as error:
            capture("periodic", error, ())
            del report.steps[marker:]
            current, multi_level_done, handled = self.program, False, set()

        marker = len(report.steps)
        before_phase2 = current
        try:
            current = self._phase2_push(
                current, residues, handled, multi_level_done, report,
                preserved, capture=capture, budget=stage_budget())
        except Exception as error:
            capture("push", error, ())
            del report.steps[marker:]
            current = before_phase2

        if self.collapse:
            try:
                chaos.checkpoint("collapse")
                sliced = stage_budget()
                if sliced is not None:
                    sliced.check_round(last_round=None)
                current = self._collapse_stage(current, preserved)
            except Exception as error:
                # Collapse is cosmetic (inlining auxiliaries); keep the
                # uncollapsed — still sound — program.
                capture("collapse", error, ())

        result.steps = report.steps
        result.optimized = current

        if verify == "sample" and result.applied_steps:
            try:
                chaos.checkpoint("verify")
                detail = self._spot_check(current, sample_count,
                                          sample_facts, rng,
                                          stage_budget())
            except Exception as error:
                result.verification = "error"
                result.verification_detail = str(error)
            else:
                if detail is None:
                    result.verification = "passed"
                else:
                    suspects = "; ".join(
                        f"[{s.outcome.action}] ic={s.ic_label} "
                        f"seq={' '.join(s.sequence)}"
                        for s in result.applied_steps)
                    result.verification = "mismatch"
                    result.verification_detail = \
                        f"{detail}; suspect steps: {suspects}"
                    result.quarantined = True
                    result.optimized = self.program
        return result

    def _spot_check(self, optimized: Program, count: int,
                    facts_per_relation: int,
                    rng: random.Random | None,
                    budget: Budget | None) -> str | None:
        """Compare ``optimized`` against the source program on sampled
        IC-consistent databases; a one-line diagnosis on mismatch."""
        from ..engine import evaluate
        from .equivalence import (infer_numeric_columns,
                                  random_consistent_databases)

        arities = self.program.predicate_arities()
        schema = {pred: arities[pred]
                  for pred in sorted(self.program.edb_predicates)}
        if not schema:
            return None
        rng = rng if rng is not None else random.Random(0x1C95)
        numeric = infer_numeric_columns(self.program, self.ics)
        databases = random_consistent_databases(
            schema, self.ics, count, rng,
            facts_per_relation=facts_per_relation,
            numeric_columns=numeric)
        for index, database in enumerate(databases):
            source = evaluate(self.program, database, budget=budget)
            candidate = evaluate(optimized, database, budget=budget)
            for pred in sorted(self.program.idb_predicates):
                left = source.facts(pred)
                right = candidate.facts(pred)
                if left != right:
                    return (f"sampled database #{index}: {pred} differs "
                            f"({len(left - right)} tuples lost, "
                            f"{len(right - left)} gained)")
        return None


def _ic_label(item: SequenceResidue) -> str:
    ic = item.residue.ic
    return (ic.label or str(ic)) if ic is not None else "?"


def optimize(program: Program, ics: Sequence[IntegrityConstraint],
             pred: str | None = None, guard: GuardMode = "chase",
             small_relations: Iterable[str] = ()) -> OptimizationReport:
    """One-call convenience wrapper around :class:`SemanticOptimizer`."""
    return SemanticOptimizer(
        program, ics, pred=pred, guard=guard,
        small_relations=small_relations).optimize()


def optimize_all_predicates(program: Program,
                            ics: Sequence[IntegrityConstraint],
                            guard: GuardMode = "chase",
                            small_relations: Iterable[str] = (),
                            compilation: str = "periodic"
                            ) -> OptimizationReport:
    """Optimize every linear recursive predicate of the program in turn.

    Each predicate gets its own :class:`SemanticOptimizer` pass over the
    program produced by the previous pass — sound because a pass only
    rewrites its own predicate's rules (other predicates' rules, and
    hence their linearity, are untouched).  Non-linear or mutually
    recursive predicates are skipped with a report entry.
    """
    combined = OptimizationReport(program, program)
    current = program
    info = program.recursion_info()
    for pred in sorted(info.recursive_predicates):
        if not info.is_linear(pred) or any(
                pred in group for group in info.mutual_groups):
            combined.steps.append(OptimizationStep(
                "-", (pred,), "-",
                PushOutcome("skip", False,
                            f"{pred} is not linear recursion")))
            continue
        report = SemanticOptimizer(
            current, ics, pred=pred, guard=guard,
            small_relations=small_relations,
            compilation=compilation).optimize()
        combined.steps.extend(report.steps)
        current = report.optimized
    # A non-recursive program still gets its rule-level residues.
    if not info.recursive_predicates:
        report = SemanticOptimizer(
            current, ics, guard=guard,
            small_relations=small_relations,
            compilation=compilation).optimize()
        combined.steps.extend(report.steps)
        current = report.optimized
    combined.optimized = current
    return combined
