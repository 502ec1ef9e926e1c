"""A brute-force ObjectLog evaluator: the reference the oracles trust.

Every variable of a clause ranges over the *active domain* — each value
stored in a base relation or a delta-set, plus every constant of the
program's clauses and of the clause itself — and every combination is
kept whose literals all hold.  There is no ordering, no index, no plan
and no sideways binding: nothing of :mod:`repro.objectlog.evaluate` or
:mod:`repro.objectlog.batch` is reused, so an oracle that compares the
product against this module compares two independent evaluators.

Within reach: base, delta, derived (non-recursive) and negated
predicate literals, and comparisons over arithmetic terms.  Foreign
predicates, aggregates and assignments can compute values outside the
active domain, so they raise rather than answer incompletely.
"""

import itertools
import operator
from typing import Dict, FrozenSet, Mapping, Optional, Set, Tuple

from repro.algebra.delta import DeltaSet
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.program import BasePredicate, DerivedPredicate, Program
from repro.objectlog.terms import Arith, Variable

Row = Tuple

COMPARE = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "=": operator.eq,
    "!=": operator.ne,
}
ARITH = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "//": operator.floordiv,
    "%": operator.mod,
}


def _term_constants(term) -> Set:
    if isinstance(term, Variable):
        return set()
    if isinstance(term, Arith):
        return _term_constants(term.left) | _term_constants(term.right)
    return {term}


def _constants(clause: HornClause) -> Set:
    out: Set = set()
    for literal in (clause.head,) + clause.body:
        if isinstance(literal, PredLiteral):
            for arg in literal.args:
                out |= _term_constants(arg)
        elif isinstance(literal, Comparison):
            out |= _term_constants(literal.left) | _term_constants(literal.right)
    return out


def _value(term, env):
    if isinstance(term, Variable):
        return env[term]
    if isinstance(term, Arith):
        return ARITH[term.op](_value(term.left, env), _value(term.right, env))
    return term


class BruteForce:
    """Nested-loop evaluation against one state: ``view`` supplies the
    base relations, ``deltas`` the delta-sets delta literals read."""

    def __init__(
        self,
        program: Program,
        view,
        deltas: Optional[Mapping[str, DeltaSet]] = None,
    ) -> None:
        self.program = program
        self.view = view
        self.deltas = dict(deltas or {})
        self._extensions: Dict[str, FrozenSet[Row]] = {}
        self._computing: Set[str] = set()
        self.domain: Set = set()
        for name in program.names():
            definition = program.predicate(name)
            if isinstance(definition, BasePredicate):
                for row in self.extension(name):
                    self.domain.update(row)
            elif isinstance(definition, DerivedPredicate):
                for clause in definition.clauses:
                    self.domain |= _constants(clause)
        for delta in self.deltas.values():
            for row in delta.plus | delta.minus:
                self.domain.update(row)

    def extension(self, pred: str) -> FrozenSet[Row]:
        """Every row of ``pred`` in this state."""
        if pred in self._extensions:
            return self._extensions[pred]
        definition = self.program.predicate(pred)
        if isinstance(definition, BasePredicate):
            rows = frozenset(self.view.relation(pred).rows())
        elif isinstance(definition, DerivedPredicate):
            if pred in self._computing:
                raise ValueError(f"recursive predicate {pred!r}")
            self._computing.add(pred)
            rows = frozenset().union(
                *(self.clause_rows(clause) for clause in definition.clauses)
            )
            self._computing.discard(pred)
        else:
            raise NotImplementedError(
                f"{type(definition).__name__} {pred!r} is outside brute force"
            )
        self._extensions[pred] = rows
        return rows

    def clause_rows(self, clause: HornClause) -> FrozenSet[Row]:
        """Head rows of ``clause``: one per satisfying assignment."""
        variables = sorted(clause.variables(), key=lambda var: var.name)
        domain = sorted(self.domain | _constants(clause), key=repr)
        out = set()
        for values in itertools.product(domain, repeat=len(variables)):
            env = dict(zip(variables, values))
            if all(self._holds(literal, env) for literal in clause.body):
                out.add(tuple(_value(arg, env) for arg in clause.head.args))
        return frozenset(out)

    def _holds(self, literal, env) -> bool:
        if isinstance(literal, Comparison):
            return COMPARE[literal.op](
                _value(literal.left, env), _value(literal.right, env)
            )
        if not isinstance(literal, PredLiteral):
            raise NotImplementedError(f"{literal!r} is outside brute force")
        row = tuple(_value(arg, env) for arg in literal.args)
        if literal.delta is not None:
            delta = self.deltas.get(literal.pred, DeltaSet())
            rows = delta.plus if literal.delta == "+" else delta.minus
        else:
            rows = self.extension(literal.pred)
        return (row in rows) != literal.negated
