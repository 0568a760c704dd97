"""Terms of the Datalog dialect: variables, constants and arithmetic.

The paper's programs use only variables and constants as predicate
arguments; evaluable (built-in) predicates may additionally compare simple
arithmetic expressions over those terms (e.g. ``Ya > Xa + 25``), which we
support as an extension so that the genealogy workload of Example 4.3 can
express age arithmetic.

All term classes are immutable and hashable so they can be used freely in
sets, dictionaries and substitution mappings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Union

#: Python values allowed inside a :class:`Constant`.
ConstValue = Union[str, int, float, bool]

_VARIABLE_RE = re.compile(r"^[A-Z_][A-Za-z0-9_]*$")


@dataclass(frozen=True, slots=True)
class Variable:
    """A logic variable, conventionally starting with an uppercase letter."""

    name: str

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"


@dataclass(frozen=True, slots=True)
class Constant:
    """A constant: a symbol (string), number or boolean."""

    value: ConstValue

    def __str__(self) -> str:
        if isinstance(self.value, str):
            if re.match(r"^[a-z][A-Za-z0-9_]*$", self.value):
                return self.value
            return "'" + self.value.replace("'", "\\'") + "'"
        return str(self.value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


@dataclass(frozen=True, slots=True)
class ArithExpr:
    """A binary arithmetic expression over terms (extension).

    Only appears inside evaluable atoms; database atoms take plain
    variables/constants as arguments, as in the paper.
    """

    op: str  # one of + - * /
    left: "Term"
    right: "Term"

    _OPS = frozenset({"+", "-", "*", "/"})

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ValueError(f"unknown arithmetic operator {self.op!r}")

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


#: Anything that can appear as an argument of an atom.
Term = Union[Variable, Constant, ArithExpr]


def is_variable_name(name: str) -> bool:
    """Return True when ``name`` follows the variable naming convention."""
    return bool(_VARIABLE_RE.match(name))


def mk_term(value: object) -> Term:
    """Coerce a Python value into a :class:`Term`.

    Strings following the variable convention become variables; every other
    string, and all numbers/booleans, become constants.  Terms pass through
    unchanged.  This is the convenience entry point used by workload
    generators and tests.
    """
    if isinstance(value, (Variable, Constant, ArithExpr)):
        return value
    if isinstance(value, str):
        if is_variable_name(value):
            return Variable(value)
        return Constant(value)
    if isinstance(value, (int, float, bool)):
        return Constant(value)
    raise TypeError(f"cannot build a term from {value!r}")


def variables_of(term: Term) -> Iterator[Variable]:
    """Yield every variable occurring in ``term`` (left to right)."""
    if isinstance(term, Variable):
        yield term
    elif isinstance(term, ArithExpr):
        yield from variables_of(term.left)
        yield from variables_of(term.right)


class FreshVariableSupply:
    """Generates variables guaranteed not to clash with a reserved set.

    The transformation algorithms repeatedly need "completely new names"
    (Algorithm 4.1, step 5).  A supply is seeded with every variable name
    already in use and then hands out ``V_1, V_2, ...`` style names that
    avoid the reserved set.
    """

    def __init__(self, reserved: set[str] | None = None,
                 prefix: str = "V") -> None:
        self._reserved = set(reserved or ())
        self._prefix = prefix
        self._counter = 1

    def fork(self) -> "FreshVariableSupply":
        """An independent supply at this one's position.

        The fork hands out exactly the names this supply would hand out
        next; drawing from either leaves the other untouched.
        """
        clone = FreshVariableSupply(self._reserved, self._prefix)
        clone._counter = self._counter
        return clone

    def reserve(self, names: set[str]) -> None:
        """Add more names to the reserved set."""
        self._reserved.update(names)

    def fresh(self, base: str | None = None) -> Variable:
        """Return a fresh variable, optionally derived from ``base``.

        When ``base`` is given the fresh name is ``<base>_<n>`` which keeps
        transformed programs readable; otherwise ``<prefix>_<n>``.
        """
        stem = base if base is not None else self._prefix
        while True:
            name = f"{stem}_{self._counter}"
            self._counter += 1
            if name not in self._reserved:
                self._reserved.add(name)
                return Variable(name)
