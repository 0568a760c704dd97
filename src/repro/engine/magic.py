"""Magic-sets rewriting.

Section 6 of the paper frames its contribution as the semantic analogue of
magic sets: "just as the magic sets method pushes the goal selectivity of
queries inside recursion, our approach tries to push the semantics (in
ICs) inside the recursion."  We implement the classic supplementary-free
magic-sets transformation both as a substrate feature and for experiment
E6, which composes magic sets *on top of* the semantic transformation to
show the two optimizations are orthogonal.

Bindings pass sideways in the max-bound order (:func:`sips_order`): each
body takes next the atom with the most bound arguments, so a query's
constant enters the recursive atom first whenever that atom binds the
most.  The free-bound query ``reach(Y, c)`` of the right-linear closure
becomes ``reach__fb(X, Y) :- m_reach__fb(Y), reach__fb(Z, Y), edge(X,
Z)``: one backward search from ``c`` whose magic set is the seed alone,
where a left-to-right order would adorn ``reach(Z, Y)`` ``bb`` and pair
``c`` with every edge target.  Ties keep the source order, so a
bound-free query of a left-linear rule keeps its text.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from ..datalog.atoms import Atom, Comparison, Literal
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Term, Variable
from ..errors import TransformError
from ..runtime import chaos
from ..runtime.budget import Budget, resolve_budget
from .builtins import can_bind, can_check

Adornment = str  # e.g. "bf" — one letter per argument position


def adornment_of(query: Atom) -> Adornment:
    """Compute the binding pattern of a query atom: constants are bound."""
    return bound_pattern(query, set())


def _adorned(pred: str, adornment: Adornment) -> str:
    return f"{pred}__{adornment}"


def _magic(pred: str, adornment: Adornment) -> str:
    return f"m_{pred}__{adornment}"


def _bound_args(atom: Atom, adornment: Adornment) -> tuple[Term, ...]:
    return tuple(arg for arg, a in zip(atom.args, adornment) if a == "b")


@dataclass(frozen=True)
class MagicProgram:
    """Result of the rewriting.

    Attributes:
        program: the rewritten rules (adorned + magic + seed).
        query_pred: adorned name of the query predicate; evaluate the
            rewritten program and read answers from this relation.
        seed: the magic seed fact added as a rule (also in ``program``).
    """

    program: Program
    query_pred: str
    seed: Rule

    @property
    def adornment(self) -> Adornment:
        """The binding pattern the query predicate was rewritten for."""
        return self.query_pred.rpartition("__")[2]


def magic_rewrite(program: Program, query: Atom,
                  budget: Budget | None = None,
                  adornment: Adornment | None = None) -> MagicProgram:
    """Rewrite ``program`` for the given query atom.

    The query must target an IDB predicate; its constant arguments define
    the binding pattern.  Negation is not supported by this rewriting (the
    paper's programs are negation-free).  ``budget`` bounds the adornment
    worklist (in the worst case one adorned copy per binding pattern —
    exponential in arity), checked once per worklist entry.

    ``adornment``, when given, overrides the query's natural binding
    pattern with a *weakening* of it: every position marked ``b`` must
    hold a constant in ``query``, but constant positions may be marked
    ``f`` to trade filter tightness for fewer adorned variants.  The
    cost-based optimizer (:mod:`repro.engine.optimizer`) enumerates
    these weakenings as separate candidates.
    """
    budget = resolve_budget(budget)
    chaos.checkpoint("magic_rewrite")
    if query.pred not in program.idb_predicates:
        raise TransformError(
            f"magic rewriting needs an IDB query predicate, got "
            f"{query.pred!r}")
    for rule in program:
        if rule.negated_atoms():
            raise TransformError(
                "magic rewriting does not support negation")

    natural = adornment_of(query)
    if adornment is not None:
        if len(adornment) != len(query.args) \
                or any(a not in "bf" for a in adornment):
            raise TransformError(
                f"adornment {adornment!r} does not match "
                f"{query.pred}/{len(query.args)}")
        if any(a == "b" and n == "f"
               for a, n in zip(adornment, natural)):
            raise TransformError(
                f"adornment {adornment!r} marks a non-constant query "
                "argument bound")
        if "b" not in adornment:
            raise TransformError(
                "all-free adornment passes no bindings; evaluate "
                "without magic rewriting instead")
    query_adornment = adornment if adornment is not None else natural
    out_rules: list[Rule] = []
    pending: list[tuple[str, Adornment]] = [(query.pred, query_adornment)]
    done: set[tuple[str, Adornment]] = set()

    while pending:
        if budget is not None:
            # Deadline/cancellation only: max_rounds bounds *evaluation*
            # rounds, not the rewriting worklist.
            budget.check_round(last_round=None)
        pred, adornment = pending.pop()
        if (pred, adornment) in done:
            continue
        done.add((pred, adornment))
        for rule in program.rules_for(pred):
            out_rules.extend(
                _rewrite_rule(program, rule, adornment, pending))

    seed = magic_seed(query, query_adornment)
    out_rules.append(seed)
    rewritten = Program(
        out_rules, edb_hint=tuple(program.edb_predicates))
    return MagicProgram(rewritten, _adorned(query.pred, query_adornment),
                        seed)


def magic_seed(query: Atom, adornment: Adornment) -> Rule:
    """The seed fact of ``query`` under ``adornment``: the magic
    predicate of the query's pattern over the constants it binds.  It is
    the only rule of a rewrite that depends on the query's constants."""
    return Rule(Atom(_magic(query.pred, adornment),
                     _bound_args(query, adornment)), (), label="magic_seed")


def reseed(rewritten: MagicProgram, query: Atom) -> MagicProgram:
    """``rewritten`` for another query of the same binding pattern.

    Equal to ``magic_rewrite`` of that query under the same adornment:
    every rule but the seed depends on the pattern only, so the seed is
    swapped for ``query``'s and the rest is kept — with the program's
    arities, recursion analysis and strata, which a fact swap leaves
    as they were.
    """
    seed = magic_seed(query, rewritten.adornment)
    return MagicProgram(rewritten.program.with_fact(rewritten.seed, seed),
                        rewritten.query_pred, seed)


def sips_order(body: Sequence[Literal],
               bound: set[Variable]) -> Iterator[Literal]:
    """``body``'s literals in the max-bound sideways information passing
    order, the only one the rewrite (and the dataflow analysis's
    adornments) use.

    The next atom is the one with the most bound argument positions
    (constants and variables in ``bound``), the earliest in the source
    on a tie; each comparison comes right after the step that binds its
    last variable, a binding ``=`` binding its free side.  ``bound``
    holds what is bound ahead of the body and grows by each literal's
    variables once the caller has seen it.  Negated atoms bind nothing
    and are left out; a comparison no step readies (an unsafe rule's)
    comes last.  The order depends on the body and ``bound`` only.
    """
    atoms = [lit for lit in body if isinstance(lit, Atom)]
    comparisons = [lit for lit in body if isinstance(lit, Comparison)]
    while True:
        ready = next((c for c in comparisons if can_check(c, bound)
                      or can_bind(c, bound)), None) if comparisons else None
        if ready is not None:
            comparisons.remove(ready)
            yield ready
            bound.update(ready.variable_set())
        elif atoms:
            atom = atoms[0] if len(atoms) == 1 else max(
                atoms, key=lambda atom: sum(
                    1 for arg in atom.args
                    if isinstance(arg, Constant) or arg in bound))
            atoms.remove(atom)
            yield atom
            bound.update(arg for arg in atom.args
                         if isinstance(arg, Variable))
        else:
            yield from comparisons  # an unsafe rule's unready checks
            return


def bound_pattern(atom: Atom, bound: set[Variable]) -> Adornment:
    """The adornment of ``atom`` when ``bound`` is bound: constants and
    those variables are ``b``."""
    return "".join("b" if isinstance(arg, Constant) or arg in bound
                   else "f" for arg in atom.args)


def _rewrite_rule(program: Program, rule: Rule, adornment: Adornment,
                  pending: list[tuple[str, Adornment]]) -> list[Rule]:
    """Produce the modified rule plus one magic rule per IDB body atom.

    The body runs in :func:`sips_order`; each IDB atom is adorned with
    what its predecessors bind, and its magic rule's body is the magic
    head plus those predecessors.
    """
    bound = {arg for arg, a in zip(rule.head.args, adornment)
             if a == "b" and isinstance(arg, Variable)}
    magic_head = Atom(_magic(rule.head.pred, adornment),
                      _bound_args(rule.head, adornment))
    new_body: list[Literal] = [magic_head]
    magic_rules: list[Rule] = []
    for lit in sips_order(rule.body, bound):
        if isinstance(lit, Comparison) or program.is_edb(lit.pred):
            new_body.append(lit)
            continue
        sub_adornment = bound_pattern(lit, bound)
        pending.append((lit.pred, sub_adornment))
        magic_atom = Atom(_magic(lit.pred, sub_adornment),
                          _bound_args(lit, sub_adornment))
        # A magic rule whose head is one of its body atoms
        # (``m_reach__fb(Y) :- m_reach__fb(Y).``) derives nothing.
        if magic_atom not in new_body:
            magic_rules.append(Rule(magic_atom, tuple(new_body),
                                    label=None))
        new_body.append(Atom(_adorned(lit.pred, sub_adornment), lit.args))

    modified = Rule(Atom(_adorned(rule.head.pred, adornment),
                         rule.head.args),
                    tuple(new_body), label=None)
    return magic_rules + [modified]
