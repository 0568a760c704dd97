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
2. every residue phase 1 did not compile — including those of a group
   the depth-class compilation could not take — is pushed through
   Algorithm 4.1 per (predicate, sequence) group: rule-level groups
   greedily (they preserve linearity), plus at most one further
   multi-level isolation, ordered by a benefit policy (pruning >
   elimination > introduction, strict usefulness first).

Both phases prove an edit through :func:`repro.core.push.validate_edit`,
and one ``optimize()`` call proves each (residue, action) at most once.
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
from .isolate import Isolation, isolate
from .periodic import periodic_applicable, push_periodic_group
from .push import (Edit, PushOutcome, apply_elimination, apply_introduction,
                   apply_pruning, validate_edit)
from .residues import (SequenceResidue, generate_residues,
                       generate_residues_exhaustive,
                       rule_level_residues)

#: Push-action priority (lower sorts first).
_ACTION_RANK = {"prune": 0, "eliminate": 1, "introduce": 2, "skip": 3}

#: The Algorithm 4.1 back end of each action.
_INSTALL = {"eliminate": apply_elimination, "introduce": apply_introduction,
            "prune": apply_pruning}

#: One call's memo of :func:`validate_edit`: (residue, action) -> verdict.
Prover = Callable[[SequenceResidue, str], Edit | PushOutcome]

#: Breadth and seed of the ``verify="sample"`` spot-check: sampled
#: IC-consistent databases, facts per relation in each, and the RNG seed
#: that makes the check reproducible.
_SPOT_CHECK_DATABASES = 3
_SPOT_CHECK_FACTS = 12
_SPOT_CHECK_SEED = 0x1C95


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


@dataclass(frozen=True)
class StageFailure:
    """One pipeline stage (or stage fragment) that was dropped."""

    stage: str              # e.g. "residues", "periodic", "push:anc/r1 r1"
    reason: str             # one-line diagnosis
    error_type: str         # exception class name
    dropped: tuple[str, ...] = ()   # IC labels / residue groups lost

    def __str__(self) -> str:
        extra = f" (dropped {', '.join(self.dropped)})" if self.dropped \
            else ""
        return f"[{self.stage}] {self.error_type}: {self.reason}{extra}"


@dataclass
class OptimizationReport:
    """The result of :meth:`SemanticOptimizer.optimize`.

    ``optimized`` is always sound to evaluate: every applied step passed
    the guards, and the final fallback is ``original`` itself.

    Attributes:
        original: the program handed to the optimizer.
        optimized: the program to evaluate (== ``original`` on full
            degradation or quarantine).
        steps: the per-residue :class:`OptimizationStep` records from the
            stages that completed.
        failures: stages dropped by budget expiry or exception capture.
        verification: ``"skipped"`` | ``"passed"`` | ``"mismatch"`` |
            ``"error"`` — outcome of the sampled equivalence spot-check.
        quarantined: True when the spot-check found a mismatch and the
            optimization was discarded in favour of ``original``.
        verification_detail: the offending predicate/step on mismatch,
            or the error message when verification itself failed.
    """

    original: Program
    optimized: Program
    steps: list[OptimizationStep] = field(default_factory=list)
    failures: list[StageFailure] = field(default_factory=list)
    verification: str = "skipped"
    quarantined: bool = False
    verification_detail: str = ""

    @property
    def applied_steps(self) -> list[OptimizationStep]:
        return [s for s in self.steps if s.outcome.applied]

    @property
    def changed(self) -> bool:
        return not self.quarantined and bool(self.applied_steps)

    @property
    def degraded(self) -> bool:
        """True when anything was dropped, skipped, or quarantined."""
        return bool(self.failures) or self.quarantined

    def record_failure(self, stage: str, error: BaseException,
                       dropped: tuple[str, ...] = ()) -> None:
        """Record a dropped stage instead of letting ``error`` escape."""
        self.failures.append(StageFailure(
            stage, str(error) or error.__class__.__name__,
            type(error).__name__, dropped))

    def summary(self) -> str:
        applied = 0 if self.quarantined else len(self.applied_steps)
        lines = [f"{applied}/{len(self.steps)} residue pushes applied "
                 f"({len(self.failures)} stage(s) degraded, "
                 f"verification: {self.verification})"]
        lines.extend(f"  {step}" for step in self.steps)
        lines.extend(f"  degraded {failure}" for failure in self.failures)
        if self.quarantined:
            lines.append(f"  quarantined: {self.verification_detail}")
        return "\n".join(lines)


def _enter(stage: str, budget: Budget | None) -> None:
    """A stage boundary: the chaos hook, then the budget's deadline and
    cancellation checks."""
    chaos.checkpoint(stage)
    if budget is not None:
        budget.check_round(last_round=None)


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
        small_relations: EDB predicates worth *introducing* as semijoin
            reducers (the paper's "small relation" criterion is a
            physical-design judgement the optimizer cannot make alone).
        compilation: ``"periodic"`` (default) composes multi-level
            residues over one recursive rule into a depth-class
            compilation; ``"automaton"`` isolates each sequence alone.
    """

    def __init__(self, program: Program,
                 ics: Iterable[IntegrityConstraint],
                 pred: str | None = None,
                 small_relations: Iterable[str] = (),
                 compilation: str = "periodic") -> None:
        if compilation not in ("periodic", "automaton"):
            raise ValueError(
                f"compilation must be 'periodic' or 'automaton', "
                f"got {compilation!r}")
        self.program = program
        self.ics = list(ics)
        self.small_relations = frozenset(small_relations)
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
    def residues(self, ic: IntegrityConstraint) -> list[SequenceResidue]:
        """Every residue ``ic`` contributes: the one residue source.

        Sequence residues come first.  Chain-shaped ICs go through
        Algorithm 3.1's graph detection; non-chain ICs (outside the
        algorithm's stated class) fall back to the bounded exhaustive
        enumerator, so the optimizer is not limited to the paper's
        syntactic class.  Rule-level residues (any predicate, any IC
        shape) follow.
        """
        out: list[SequenceResidue] = []
        if self.pred is not None and ic.is_edb_only(self.program):
            if ic.is_chain():
                out.extend(generate_residues(self.program, self.pred, ic))
            else:
                out.extend(generate_residues_exhaustive(
                    self.program, self.pred, ic,
                    max_length=len(ic.database_atoms()) + 2))
        out.extend(rule_level_residues(self.program, ic))
        return _unique(out)

    # -- pushing ------------------------------------------------------------------
    def _prover(self) -> Prover:
        """A fresh memo of :func:`validate_edit`'s verdicts for one
        ``optimize()`` call, so phase 2 never re-proves what phase 1
        proved.  Residues are keyed by identity: the call's residue list
        keeps them alive."""
        verdicts: dict[tuple[int, str], Edit | PushOutcome] = {}

        def prove(item: SequenceResidue, action: str) -> Edit | PushOutcome:
            key = (id(item), action)
            if key not in verdicts:
                verdicts[key] = validate_edit(item, action, self.ics)
            return verdicts[key]
        return prove

    def _push(self, program: Program, item: SequenceResidue,
              isolation: Isolation | None, prove: Prover
              ) -> tuple[PushOutcome, Isolation | None]:
        """Push one residue through Algorithm 4.1 into ``isolation``
        (isolated here on first use), which is returned for the group's
        next residue.  An elimination that cannot be pushed is retried as
        an introduction when its atom's relation is declared small."""
        action = _preferred_action(item, self.small_relations)
        if action == "skip":
            return PushOutcome(
                "skip", False,
                "fact residue names a relation not declared small; "
                "nothing beneficial to push"), isolation
        if isolation is None:
            isolation = isolate(program, item.clause.pred, item.sequence)
        outcome = _install(isolation, prove(item, action))
        head = item.residue.head_atom()
        if (action == "eliminate" and not outcome.applied
                and head is not None and head.pred in self.small_relations):
            outcome = _install(isolation, prove(item, "introduce"))
        return outcome, isolation

    # -- pipeline stages ------------------------------------------------------
    def _sort_key(self, item: SequenceResidue) -> tuple[int, int, int, int]:
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

    def _residues_stage(self, report: OptimizationReport,
                        budget: Budget | None) -> list[SequenceResidue]:
        """Every IC's residues, deduplicated and in push-preference order.

        First tries the whole stage at once; if that fails, retries one
        IC at a time, dropping (and reporting) only the ICs whose
        residue generation fails.
        """
        try:
            _enter("residues", budget)
            per_ic = [self.residues(ic) for ic in self.ics]
        except Exception as error:
            report.record_failure("residues", error)
            per_ic = []
            for ic in self.ics:
                label = ic.label or str(ic)
                try:
                    _enter(f"residues:{label}", budget)
                    per_ic.append(self.residues(ic))
                except Exception as error:
                    report.record_failure(f"residues:{label}", error,
                                          (label,))
        return sorted(_unique(item for items in per_ic for item in items),
                      key=self._sort_key)

    def _phase1_periodic(self, current: Program,
                         residues: Sequence[SequenceResidue],
                         report: OptimizationReport,
                         budget: Budget | None, prove: Prover
                         ) -> tuple[Program, bool, set[int]]:
        """Phase 1 — periodic super-groups: all multi-level residues over
        the same recursive rule compose into ONE depth-class compilation
        (each edit applies from its own depth threshold), so several ICs
        on one recursion do not block each other.

        Returns ``(program, multi_level_done, handled residue ids)``.
        A failing group is dropped and reported instead of propagating;
        a group the compilation cannot take leaves its residues to
        phase 2.
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
            stage = f"periodic:{pred}/{rule_label}"
            try:
                _enter(stage, budget)
                verdicts = [prove(item, action) for item, action in entries]
                edits = [v for v in verdicts if isinstance(v, Edit)]
                outcome = push_periodic_group(current, pred, edits) \
                    if edits else None
            except Exception as error:
                report.record_failure(stage, error, tuple(
                    _ic_label(item) for item, _ in entries))
                continue
            if outcome is None or not outcome.applied \
                    or outcome.program is None:
                # No edit survived, or the compilation failed (e.g. a
                # second recursive rule): phase 2 isolates the residues.
                continue
            for (item, action), verdict in zip(entries, verdicts):
                handled.add(id(item))
                report.steps.append(OptimizationStep(
                    _ic_label(item), item.sequence, str(item.residue),
                    PushOutcome(action, True) if isinstance(verdict, Edit)
                    else verdict))
            current = outcome.program
            multi_level_done = True
        return current, multi_level_done, handled

    def _phase2_push(self, current: Program,
                     residues: Sequence[SequenceResidue],
                     handled: set[int], multi_level_done: bool,
                     report: OptimizationReport,
                     budget: Budget | None, prove: Prover) -> Program:
        """Phase 2 — Algorithm 4.1 for the remaining residues, per
        (pred, sequence) group.

        Each group is pushed in one isolation so the sequence is only
        isolated once.  A failing residue is dropped and reported
        instead of propagating.
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
                    _enter(stage, budget)
                    outcome, isolation = self._push(current, item,
                                                    isolation, prove)
                except ProgramError as error:
                    outcome = PushOutcome(
                        _preferred_action(item, self.small_relations),
                        False, f"earlier edit superseded the target rule: "
                        f"{error}")
                except Exception as error:
                    report.record_failure(stage, error, (_ic_label(item),))
                    outcome = PushOutcome(
                        _preferred_action(item, self.small_relations),
                        False, f"stage degraded: {error}")
                report.steps.append(OptimizationStep(
                    _ic_label(item), sequence, str(item.residue), outcome))
                if outcome.applied and outcome.program is not None:
                    current = outcome.program
                    group_changed = True
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

    def optimize(self, budget: Budget | None = None,
                 verify: str = "none") -> OptimizationReport:
        """Run the pipeline (see the module docstring for the policy).

        Every stage — residue generation, periodic compilation, per-group
        pushing — runs with exception capture.  A failing stage (or
        residue group, or single IC) is *dropped* and recorded in
        :attr:`OptimizationReport.failures`; the pipeline continues from
        the last sound program, degrading in the worst case to the
        original program itself.  Dropping work is always
        sound: the optimized program differs from the source only by
        guard-validated edits, so any prefix of the edit sequence
        preserves answers (Theorem 4.1; see ``docs/robustness.md``).

        Args:
            budget: checked at every stage boundary and handed to the
                spot-check's evaluations.  Deadline expiry or
                cancellation degrades like any other stage failure
                instead of raising.
            verify: ``"sample"`` runs an equivalence spot-check of the
                optimized vs. source program on random IC-consistent
                databases and *quarantines* the optimization (falls back
                to the source program) on mismatch.
        """
        if verify not in ("none", "sample"):
            raise ValueError(
                f"verify must be 'none' or 'sample', got {verify!r}")
        if budget is not None:
            budget.start()
        report = OptimizationReport(self.program, self.program)
        residues = self._residues_stage(report, budget)

        # Stage-level capture backstops the per-group capture inside each
        # phase; when a phase dies outside a group, its partial steps are
        # discarded so the report never claims an edit the returned
        # program does not contain.
        current, multi_level_done = self.program, False
        handled: set[int] = set()
        prove = self._prover()
        marker = len(report.steps)
        try:
            current, multi_level_done, handled = self._phase1_periodic(
                current, residues, report, budget, prove)
        except Exception as error:
            report.record_failure("periodic", error)
            del report.steps[marker:]

        marker = len(report.steps)
        try:
            current = self._phase2_push(
                current, residues, handled, multi_level_done, report,
                budget, prove)
        except Exception as error:
            report.record_failure("push", error)
            del report.steps[marker:]
        report.optimized = current

        if verify == "sample" and report.applied_steps:
            try:
                chaos.checkpoint("verify")
                detail = self._spot_check(current, budget)
            except Exception as error:
                report.verification = "error"
                report.verification_detail = str(error)
            else:
                if detail is None:
                    report.verification = "passed"
                else:
                    suspects = "; ".join(
                        f"[{s.outcome.action}] ic={s.ic_label} "
                        f"seq={' '.join(s.sequence)}"
                        for s in report.applied_steps)
                    report.verification = "mismatch"
                    report.verification_detail = \
                        f"{detail}; suspect steps: {suspects}"
                    report.quarantined = True
                    report.optimized = self.program
        return report

    def _spot_check(self, optimized: Program,
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
        databases = random_consistent_databases(
            schema, self.ics, _SPOT_CHECK_DATABASES,
            random.Random(_SPOT_CHECK_SEED),
            facts_per_relation=_SPOT_CHECK_FACTS,
            numeric_columns=infer_numeric_columns(self.program, self.ics))
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


def _install(isolation: Isolation,
             verdict: Edit | PushOutcome) -> PushOutcome:
    """Install a validated edit in ``isolation``; a refusal passes
    through."""
    if isinstance(verdict, PushOutcome):
        return verdict
    return _INSTALL[verdict.action](isolation, verdict)


def _unique(items: Iterable[SequenceResidue]) -> list[SequenceResidue]:
    """``items`` in order, without repeats of a (sequence, residue)."""
    seen: set[tuple[tuple[str, ...], str]] = set()
    out: list[SequenceResidue] = []
    for item in items:
        key = (item.sequence, str(item.residue))
        if key not in seen:
            seen.add(key)
            out.append(item)
    return out


def _ic_label(item: SequenceResidue) -> str:
    ic = item.residue.ic
    return (ic.label or str(ic)) if ic is not None else "?"


def optimize_all_predicates(program: Program,
                            ics: Sequence[IntegrityConstraint],
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
            current, ics, pred=pred, small_relations=small_relations,
            compilation=compilation).optimize()
        combined.steps.extend(report.steps)
        combined.failures.extend(report.failures)
        current = report.optimized
    # A non-recursive program still gets its rule-level residues.
    if not info.recursive_predicates:
        report = SemanticOptimizer(
            current, ics, small_relations=small_relations,
            compilation=compilation).optimize()
        combined.steps.extend(report.steps)
        combined.failures.extend(report.failures)
        current = report.optimized
    combined.optimized = current
    return combined
