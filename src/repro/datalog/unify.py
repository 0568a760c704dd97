"""Substitutions, unification and one-way matching.

Three operations drive everything downstream:

- :class:`Substitution` — an immutable mapping from variables to terms,
  applied with :meth:`Substitution.apply` / :meth:`Substitution.apply_literal`.
- :func:`unify` — classical most-general unification of two atoms (used by
  rule unfolding and Algorithm 4.1's step-5 head unification).
- :func:`match` — one-way matching ("subsuming substitutions"): variables of
  the *pattern* may bind to arbitrary terms of the *target*, but target
  variables are treated as constants.  This is the substitution notion used
  by (free) subsumption in Section 2 of the paper.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .atoms import Atom, Comparison, Literal, Negation
from .terms import ArithExpr, Constant, Term, Variable


class Substitution:
    """An immutable mapping from :class:`Variable` to :class:`Term`."""

    __slots__ = ("_map",)

    def __init__(self, mapping: Mapping[Variable, Term] | None = None) -> None:
        self._map: dict[Variable, Term] = dict(mapping or {})

    # -- mapping protocol -------------------------------------------------
    def __getitem__(self, var: Variable) -> Term:
        return self._map[var]

    def __contains__(self, var: Variable) -> bool:
        return var in self._map

    def __len__(self) -> int:
        return len(self._map)

    def __iter__(self):
        return iter(self._map)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Substitution) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self) -> str:
        inner = ", ".join(f"{v}/{t}" for v, t in sorted(
            self._map.items(), key=lambda kv: kv[0].name))
        return "{" + inner + "}"

    def get(self, var: Variable, default: Term | None = None) -> Term | None:
        return self._map.get(var, default)

    def items(self):
        return self._map.items()

    # -- construction ------------------------------------------------------
    def bind(self, var: Variable, term: Term) -> "Substitution":
        """Return a new substitution extended with ``var -> term``."""
        new = dict(self._map)
        new[var] = term
        return Substitution(new)

    def compose(self, other: "Substitution") -> "Substitution":
        """Return ``self`` then ``other``: ``x -> other(self(x))``."""
        new = {v: other.apply_term(t) for v, t in self._map.items()}
        for v, t in other.items():
            new.setdefault(v, t)
        return Substitution(new)

    def restrict(self, variables: Iterable[Variable]) -> "Substitution":
        """Return the substitution restricted to ``variables``."""
        keep = set(variables)
        return Substitution({v: t for v, t in self._map.items() if v in keep})

    # -- application -------------------------------------------------------
    def apply_term(self, term: Term) -> Term:
        if isinstance(term, Variable):
            return self._map.get(term, term)
        if isinstance(term, ArithExpr):
            return ArithExpr(term.op, self.apply_term(term.left),
                             self.apply_term(term.right))
        return term

    def apply(self, atom: Atom) -> Atom:
        return Atom(atom.pred, tuple(self.apply_term(a) for a in atom.args),
                    span=atom.span)

    def apply_literal(self, literal: Literal) -> Literal:
        if isinstance(literal, Atom):
            return self.apply(literal)
        if isinstance(literal, Comparison):
            return Comparison(literal.op, self.apply_term(literal.lhs),
                              self.apply_term(literal.rhs),
                              span=literal.span)
        return Negation(self.apply(literal.atom), span=literal.span)

    def apply_literals(self, literals: Iterable[Literal]) -> tuple[Literal, ...]:
        return tuple(self.apply_literal(lit) for lit in literals)


EMPTY_SUBSTITUTION = Substitution()


def _walk(term: Term, subst: dict[Variable, Term]) -> Term:
    """Follow variable bindings to a representative term."""
    while isinstance(term, Variable) and term in subst:
        term = subst[term]
    return term


def _occurs(var: Variable, term: Term, subst: dict[Variable, Term]) -> bool:
    term = _walk(term, subst)
    if term == var:
        return True
    if isinstance(term, ArithExpr):
        return (_occurs(var, term.left, subst)
                or _occurs(var, term.right, subst))
    return False


def _unify_terms(a: Term, b: Term,
                 subst: dict[Variable, Term]) -> bool:
    a = _walk(a, subst)
    b = _walk(b, subst)
    if a == b:
        return True
    if isinstance(a, Variable):
        if _occurs(a, b, subst):
            return False
        subst[a] = b
        return True
    if isinstance(b, Variable):
        if _occurs(b, a, subst):
            return False
        subst[b] = a
        return True
    if isinstance(a, ArithExpr) and isinstance(b, ArithExpr):
        return (a.op == b.op
                and _unify_terms(a.left, b.left, subst)
                and _unify_terms(a.right, b.right, subst))
    return False


def _resolve(term: Term, subst: dict[Variable, Term]) -> Term:
    term = _walk(term, subst)
    if isinstance(term, ArithExpr):
        return ArithExpr(term.op, _resolve(term.left, subst),
                         _resolve(term.right, subst))
    return term


def unify(a: Atom, b: Atom) -> Optional[Substitution]:
    """Most general unifier of two atoms, or None when they do not unify."""
    if a.pred != b.pred or a.arity != b.arity:
        return None
    working: dict[Variable, Term] = {}
    for ta, tb in zip(a.args, b.args):
        if not _unify_terms(ta, tb, working):
            return None
    return Substitution({v: _resolve(t, working) for v, t in working.items()})


def match_terms(pattern: Term, target: Term,
                subst: Substitution) -> Optional[Substitution]:
    """Extend ``subst`` so that ``pattern`` maps onto ``target``.

    One-way: only variables of the pattern may be bound.  Target variables
    behave like constants (they can be *bound to*, not bound).
    """
    if isinstance(pattern, Variable):
        bound = subst.get(pattern)
        if bound is None:
            return subst.bind(pattern, target)
        return subst if bound == target else None
    if isinstance(pattern, Constant):
        return subst if pattern == target else None
    # ArithExpr pattern
    if (isinstance(target, ArithExpr) and pattern.op == target.op):
        step = match_terms(pattern.left, target.left, subst)
        if step is None:
            return None
        return match_terms(pattern.right, target.right, step)
    return None


def match(pattern: Atom, target: Atom,
          subst: Substitution = EMPTY_SUBSTITUTION) -> Optional[Substitution]:
    """One-way match of ``pattern`` onto ``target`` extending ``subst``."""
    if pattern.pred != target.pred or pattern.arity != target.arity:
        return None
    current = subst
    for p_arg, t_arg in zip(pattern.args, target.args):
        nxt = match_terms(p_arg, t_arg, current)
        if nxt is None:
            return None
        current = nxt
    return current
