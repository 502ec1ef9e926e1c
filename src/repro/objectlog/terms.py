"""Terms of ObjectLog: variables, constants, and arithmetic expressions.

ObjectLog (Litwin & Risch) is a typed Datalog; for this reproduction the
term language is:

* :class:`Variable` — a named logic variable (``I``, ``_G1``...).
* constants — any hashable Python value (ints, floats, strings, OIDs).
* :class:`Arith` — an arithmetic expression over variables and
  constants, used by the builtin literals (``_G4 = _G1 * _G3``).

An *environment* (substitution) is a plain dict mapping
:class:`Variable` to constant values.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, FrozenSet, Iterable, Mapping, Union

from repro.errors import ObjectLogError


class Variable:
    """A logic variable, identified by name."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return hash(("Variable", self.name))

    def __repr__(self) -> str:
        return self.name


Term = Union[Variable, object]
Env = Dict[Variable, object]

_fresh_counter = itertools.count()


def fresh_variable(prefix: str = "_G") -> Variable:
    """A globally fresh variable (used when renaming clauses apart)."""
    return Variable(f"{prefix}{next(_fresh_counter)}")


def is_variable(term: object) -> bool:
    """True when ``term`` is a logic variable (not a constant)."""
    return isinstance(term, Variable)


_OPS = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "%": operator.mod,
}


class Arith:
    """An arithmetic expression tree: ``Arith('+', x, Arith('*', y, 2))``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: "ArithTerm", right: "ArithTerm") -> None:
        if op not in _OPS:
            raise ObjectLogError(f"unknown arithmetic operator {op!r}")
        self.op = op
        self.left = left
        self.right = right

    def variables(self) -> FrozenSet[Variable]:
        return expr_variables(self.left) | expr_variables(self.right)

    def evaluate(self, env: Mapping[Variable, object]):
        return _OPS[self.op](eval_expr(self.left, env), eval_expr(self.right, env))

    def rename(self, mapping: Mapping[Variable, Variable]) -> "Arith":
        return Arith(
            self.op, rename_expr(self.left, mapping), rename_expr(self.right, mapping)
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Arith)
            and other.op == self.op
            and other.left == self.left
            and other.right == self.right
        )

    def __hash__(self) -> int:
        return hash(("Arith", self.op, self.left, self.right))

    def __repr__(self) -> str:
        return f"({self.left!r} {self.op} {self.right!r})"


ArithTerm = Union[Variable, Arith, object]


def expr_variables(expr: ArithTerm) -> FrozenSet[Variable]:
    """All logic variables occurring in an arithmetic term."""
    if isinstance(expr, Variable):
        return frozenset({expr})
    if isinstance(expr, Arith):
        return expr.variables()
    return frozenset()


def eval_expr(expr: ArithTerm, env: Mapping[Variable, object]):
    """Evaluate an arithmetic term under ``env``; unbound vars raise."""
    if isinstance(expr, Variable):
        try:
            return env[expr]
        except KeyError:
            raise ObjectLogError(f"unbound variable {expr!r} in expression") from None
    if isinstance(expr, Arith):
        return expr.evaluate(env)
    return expr


def rename_expr(expr: ArithTerm, mapping: Mapping[Variable, Variable]) -> ArithTerm:
    if isinstance(expr, Variable):
        return mapping.get(expr, expr)
    if isinstance(expr, Arith):
        return expr.rename(mapping)
    return expr


def variables_of(terms: Iterable[Term]) -> FrozenSet[Variable]:
    out = set()
    for term in terms:
        if isinstance(term, Variable):
            out.add(term)
    return frozenset(out)


def ordered_variables(variables: Iterable[Variable]) -> "list[Variable]":
    """Variables in the one canonical (name) order.

    Every compile-time walk over a variable *set* must use this, never
    ad-hoc ``sorted(..., key=repr)`` / ``key=str`` variants: plans are
    compiled independently in every process (the primary, replicas,
    recovery) and must come out identical everywhere.
    """
    return sorted(variables, key=lambda v: v.name)
