"""Magic-sets rewriting.

Section 6 of the paper frames its contribution as the semantic analogue of
magic sets: "just as the magic sets method pushes the goal selectivity of
queries inside recursion, our approach tries to push the semantics (in
ICs) inside the recursion."  We implement the classic supplementary-free
magic-sets transformation (left-to-right sideways information passing)
both as a substrate feature and for experiment E6, which composes magic
sets *on top of* the semantic transformation to show the two
optimizations are orthogonal.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datalog.atoms import Atom, Comparison, Literal, Negation
from ..datalog.program import Program
from ..datalog.rules import Rule
from ..datalog.terms import Constant, Term, Variable
from ..errors import TransformError
from ..runtime import chaos
from ..runtime.budget import Budget, resolve_budget

Adornment = str  # e.g. "bf" — one letter per argument position


def adornment_of(query: Atom) -> Adornment:
    """Compute the binding pattern of a query atom: constants are bound."""
    return "".join(
        "b" if isinstance(arg, Constant) else "f" for arg in query.args)


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


def _rewrite_rule(program: Program, rule: Rule, adornment: Adornment,
                  pending: list[tuple[str, Adornment]]) -> list[Rule]:
    """Produce the modified rule plus one magic rule per IDB body atom."""
    head_bound = {
        arg for arg, a in zip(rule.head.args, adornment)
        if a == "b" and isinstance(arg, Variable)}
    magic_head = Atom(_magic(rule.head.pred, adornment),
                      _bound_args(rule.head, adornment))
    bound: set[Variable] = set(head_bound)
    new_body: list[Literal] = [magic_head]
    magic_rules: list[Rule] = []
    prefix: list[Literal] = []  # literals usable in magic-rule bodies

    for lit in rule.body:
        if isinstance(lit, Comparison):
            new_body.append(lit)
            if lit.variable_set() <= bound:
                prefix.append(lit)
            continue
        if isinstance(lit, Negation):  # pragma: no cover - guarded above
            raise TransformError("negation in magic rewriting")
        if program.is_edb(lit.pred):
            new_body.append(lit)
            prefix.append(lit)
            bound.update(lit.variable_set())
            continue
        # IDB body atom: adorn by current boundness.
        sub_adornment = "".join(
            "b" if (isinstance(arg, Constant)
                    or (isinstance(arg, Variable) and arg in bound))
            else "f" for arg in lit.args)
        pending.append((lit.pred, sub_adornment))
        magic_atom = Atom(_magic(lit.pred, sub_adornment),
                          _bound_args(lit, sub_adornment))
        magic_body = [magic_head] + list(prefix)
        # A magic rule whose head is one of its body atoms
        # (``m_reach__bf(X) :- m_reach__bf(X).``) derives nothing.
        if magic_atom not in magic_body:
            magic_rules.append(Rule(magic_atom, tuple(magic_body),
                                    label=None))
        adorned_atom = Atom(_adorned(lit.pred, sub_adornment), lit.args)
        new_body.append(adorned_atom)
        prefix.append(adorned_atom)
        bound.update(lit.variable_set())

    modified = Rule(Atom(_adorned(rule.head.pred, adornment),
                         rule.head.args),
                    tuple(new_body), label=None)
    return magic_rules + [modified]
