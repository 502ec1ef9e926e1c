"""ObjectLog programs: the catalog of predicates.

A program maps predicate names to definitions of three kinds, mirroring
the paper's function taxonomy (section 3):

* **base** — a stored function; its extension lives in a
  :class:`~repro.storage.relation.BaseRelation` of the same name.
* **derived** — a derived function: one or more Horn clauses.
* **foreign** — a function implemented in the host language (Python
  standing in for the paper's Lisp/C); callable once its input
  arguments are bound.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Set, Tuple

from repro.errors import (
    DuplicateRelationError,
    ObjectLogError,
    RecursionNotSupportedError,
    UnknownPredicateError,
)
from repro.objectlog.clause import HornClause


class BasePredicate:
    """A stored predicate backed by a base relation of the same name."""

    kind = "base"

    __slots__ = ("name", "arity")

    def __init__(self, name: str, arity: int) -> None:
        self.name = name
        self.arity = arity

    def __repr__(self) -> str:
        return f"BasePredicate({self.name!r}/{self.arity})"


class DerivedPredicate:
    """A derived predicate defined by Horn clauses."""

    kind = "derived"

    __slots__ = ("name", "arity", "clauses")

    def __init__(self, name: str, arity: int) -> None:
        self.name = name
        self.arity = arity
        self.clauses: List[HornClause] = []

    def add_clause(self, clause: HornClause) -> None:
        if clause.head.pred != self.name:
            raise ObjectLogError(
                f"clause head {clause.head.pred!r} does not match predicate "
                f"{self.name!r}"
            )
        if clause.head.arity != self.arity:
            raise ObjectLogError(
                f"clause head arity {clause.head.arity} does not match "
                f"declared arity {self.arity} of {self.name!r}"
            )
        self.clauses.append(clause)

    def __repr__(self) -> str:
        return f"DerivedPredicate({self.name!r}/{self.arity}, clauses={len(self.clauses)})"


class ForeignPredicate:
    """A predicate computed by a Python callable.

    ``fn`` receives the first ``n_in`` argument values (bound) and must
    return an iterable of output tuples of length ``arity - n_in``
    (yield nothing to fail).  With ``n_in == arity`` the callable acts
    as a test and may return a plain bool.
    """

    kind = "foreign"

    __slots__ = ("name", "arity", "n_in", "fn")

    def __init__(self, name: str, arity: int, n_in: int, fn: Callable) -> None:
        if not 0 <= n_in <= arity:
            raise ObjectLogError(f"foreign predicate {name!r}: bad n_in {n_in}")
        self.name = name
        self.arity = arity
        self.n_in = n_in
        self.fn = fn

    def __repr__(self) -> str:
        return f"ForeignPredicate({self.name!r}/{self.arity}, n_in={self.n_in})"


_AGGREGATE_FUNCS = {
    "count": lambda values: len(values),
    "sum": lambda values: sum(values),
    "min": lambda values: min(values),
    "max": lambda values: max(values),
    "avg": lambda values: sum(values) / len(values),
}


class AggregatePredicate:
    """A grouped aggregate over another predicate (section-8 extension).

    The *source* predicate has arity ``>= n_group + 1``: the leading
    ``n_group`` columns are the grouping key, the LAST column is the
    aggregated value, and any columns in between are *witnesses* that
    keep multiplicity under set semantics (two items with the same
    quantity stay two source rows because the item OID is a witness).
    This predicate's extension is one row ``(group..., agg)`` per
    non-empty group; ``count`` counts distinct source rows.

    The paper lists aggregate handling as future work; monitoring is
    per-group incremental: a change to the source only recomputes the
    aggregates of the touched groups (see
    :meth:`repro.rules.propagation.Propagator`).
    """

    kind = "aggregate"

    __slots__ = ("name", "arity", "source", "n_group", "func")

    def __init__(self, name: str, source: str, n_group: int, func: str) -> None:
        if func not in _AGGREGATE_FUNCS:
            raise ObjectLogError(
                f"unknown aggregate {func!r}; expected one of "
                f"{sorted(_AGGREGATE_FUNCS)}"
            )
        if n_group < 0:
            raise ObjectLogError(f"aggregate {name!r}: bad group size {n_group}")
        self.name = name
        self.arity = n_group + 1
        self.source = source
        self.n_group = n_group
        self.func = func

    def apply(self, values) -> object:
        """Aggregate a non-empty collection of values."""
        return _AGGREGATE_FUNCS[self.func](values)

    def __repr__(self) -> str:
        return (
            f"AggregatePredicate({self.name!r} = {self.func} of "
            f"{self.source!r} by {self.n_group} col(s))"
        )


Predicate = object  # Base | Derived | Foreign | Aggregate predicate


class Program:
    """The predicate catalog plus dependency analysis.

    ``version`` moves on every declare, drop and ``add_clause``; the
    compiled goal plans every evaluator over this program shares
    (:meth:`derived_plans`) are valid for one version only.
    """

    def __init__(self) -> None:
        self._predicates: Dict[str, Predicate] = {}
        self.version = 0
        #: compiled plans per (derived predicate, bound head positions),
        #: shared by every evaluator over this program and dropped
        #: wholesale when the version moves — a changed sub-predicate
        #: (dropped, redeclared as another kind, extended) changes
        #: what a plan over it must do
        self._derived_plans: Dict[Tuple, List] = {}
        self._plans_stamp: object = self.stamp

    # -- declaration ------------------------------------------------------------

    def declare_base(self, name: str, arity: int) -> BasePredicate:
        self._check_free(name)
        pred = BasePredicate(name, arity)
        self._predicates[name] = pred
        self.version += 1
        return pred

    def declare_derived(self, name: str, arity: int) -> DerivedPredicate:
        self._check_free(name)
        pred = DerivedPredicate(name, arity)
        self._predicates[name] = pred
        self.version += 1
        return pred

    def declare_foreign(
        self, name: str, arity: int, n_in: int, fn: Callable
    ) -> ForeignPredicate:
        self._check_free(name)
        pred = ForeignPredicate(name, arity, n_in, fn)
        self._predicates[name] = pred
        self.version += 1
        return pred

    def declare_aggregate(
        self, name: str, source: str, n_group: int, func: str
    ) -> AggregatePredicate:
        self._check_free(name)
        source_pred = self.predicate(source)
        if source_pred.arity < n_group + 1:
            raise ObjectLogError(
                f"aggregate {name!r}: source {source!r} has arity "
                f"{source_pred.arity}, needs at least {n_group + 1}"
            )
        pred = AggregatePredicate(name, source, n_group, func)
        self._predicates[name] = pred
        self.version += 1
        return pred

    def add_clause(self, clause: HornClause) -> None:
        pred = self.predicate(clause.head.pred)
        if not isinstance(pred, DerivedPredicate):
            raise ObjectLogError(
                f"cannot add a clause to non-derived predicate {pred!r}"
            )
        pred.add_clause(clause)
        self.version += 1

    def drop(self, name: str) -> None:
        if name not in self._predicates:
            raise UnknownPredicateError(name)
        del self._predicates[name]
        self.version += 1

    @property
    def stamp(self) -> object:
        """What the compiled plans over this program depend on."""
        return self.version

    def derived_plans(self) -> Dict[Tuple, List]:
        """The shared ``(predicate, bound positions) -> plans`` cache,
        emptied first if the program changed since it was filled."""
        stamp = self.stamp
        if stamp != self._plans_stamp:
            self._derived_plans = {}
            self._plans_stamp = stamp
        return self._derived_plans

    def owner(self, name: str) -> "Program":
        """The program that declares ``name`` (an overlay's base for
        the names it only reads through)."""
        return self

    def _check_free(self, name: str) -> None:
        if name in self._predicates:
            raise DuplicateRelationError(name)

    # -- access --------------------------------------------------------------------

    def predicate(self, name: str) -> Predicate:
        try:
            return self._predicates[name]
        except KeyError:
            raise UnknownPredicateError(name) from None

    def has(self, name: str) -> bool:
        return name in self._predicates

    def clauses_of(self, name: str) -> List[HornClause]:
        pred = self.predicate(name)
        if isinstance(pred, DerivedPredicate):
            return list(pred.clauses)
        return []

    def names(self) -> List[str]:
        return sorted(self._predicates)

    # -- dependency analysis -----------------------------------------------------------

    def direct_influents(self, name: str) -> FrozenSet[str]:
        """Predicates referenced by the definition of ``name`` (one step)."""
        pred = self.predicate(name)
        if isinstance(pred, AggregatePredicate):
            return frozenset({pred.source})
        if not isinstance(pred, DerivedPredicate):
            return frozenset()
        out: Set[str] = set()
        for clause in pred.clauses:
            out |= clause.referenced_predicates()
        return frozenset(out)

    def influent_closure(self, name: str) -> FrozenSet[str]:
        """All predicates ``name`` transitively depends on (excl. itself).

        Raises :class:`RecursionNotSupportedError` when the dependency
        graph has a cycle reachable from ``name`` — the paper's
        propagation algorithm assumes a loop-free network.
        """
        seen: Set[str] = set()
        on_stack: Set[str] = set()

        def visit(pred_name: str) -> None:
            if pred_name in on_stack:
                raise RecursionNotSupportedError(
                    f"recursive dependency through {pred_name!r}"
                )
            on_stack.add(pred_name)
            for influent in self.direct_influents(pred_name):
                if influent not in seen:
                    seen.add(influent)
                    visit(influent)
            on_stack.discard(pred_name)

        visit(name)
        return frozenset(seen)

    def base_influents(self, name: str) -> FrozenSet[str]:
        """The stored relations that ``name`` transitively depends on."""
        return frozenset(
            pred
            for pred in self.influent_closure(name)
            if isinstance(self.predicate(pred), BasePredicate)
        )

    def negated_references(self, name: str) -> FrozenSet[str]:
        """Predicates referenced under negation anywhere below ``name``."""
        out: Set[str] = set()
        for pred_name in {name} | set(self.influent_closure(name)):
            for clause in self.clauses_of(pred_name):
                for literal in clause.pred_literals():
                    if literal.negated:
                        out.add(literal.pred)
        return frozenset(out)

    def __repr__(self) -> str:
        return f"Program(predicates={len(self._predicates)})"


class ProgramOverlay(Program):
    """A scratch predicate layer over a shared base :class:`Program`.

    Read-only query compilation must declare auxiliary NOT-predicates
    (:meth:`~repro.amosql.compiler.QueryCompiler._compile_not`), but a
    lock-free reader may never mutate the program shared with writers.
    An overlay keeps those declarations local: lookups fall through to
    the base program, declarations land in the overlay, and cleanup is
    simply dropping the overlay object.  The base program is never
    written through — :meth:`add_clause` and :meth:`drop` refuse names
    that only the base knows.
    """

    def __init__(self, base: Program) -> None:
        self.base = base
        super().__init__()

    @property
    def stamp(self) -> object:
        # the overlay's own plans read base predicates too
        return (self.version, self.base.stamp)

    def predicate(self, name: str) -> Predicate:
        pred = self._predicates.get(name)
        if pred is not None:
            return pred
        return self.base.predicate(name)

    def has(self, name: str) -> bool:
        return name in self._predicates or self.base.has(name)

    def owner(self, name: str) -> Program:
        if name in self._predicates:
            return self
        return self.base.owner(name)

    def _check_free(self, name: str) -> None:
        if name in self._predicates or self.base.has(name):
            raise DuplicateRelationError(name)

    def add_clause(self, clause: HornClause) -> None:
        if clause.head.pred not in self._predicates:
            raise ObjectLogError(
                f"overlay cannot add a clause to base-program predicate "
                f"{clause.head.pred!r}"
            )
        super().add_clause(clause)

    def drop(self, name: str) -> None:
        if name in self._predicates:
            del self._predicates[name]
            self.version += 1
        elif self.base.has(name):
            raise ObjectLogError(
                f"overlay cannot drop base-program predicate {name!r}"
            )
        else:
            raise UnknownPredicateError(name)

    def names(self) -> List[str]:
        return sorted(set(self._predicates) | set(self.base.names()))

    def __repr__(self) -> str:
        return (
            f"ProgramOverlay(local={len(self._predicates)}, "
            f"base={self.base!r})"
        )
