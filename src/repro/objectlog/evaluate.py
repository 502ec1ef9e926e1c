"""The ObjectLog evaluation engine.

One evaluator runs every query against one database state, and every
query it runs is a compiled :class:`~repro.objectlog.batch.ClausePlan`.
:func:`goal_plans` orders (:func:`~repro.objectlog.optimize.order_body`)
and compiles the plans that answer one predicate with some positions
bound, once per (predicate, bound positions) and program version: a
derived predicate's clauses, or the one identity clause of a base,
foreign or aggregate predicate.  :meth:`Evaluator.rows` seeds them —
``value()``, ``extension()``, aggregate groups and foreign/aggregate
negation all ask it — and the extensions of derived predicates are
memoized per bound key.  What remains here is state resolution: which
relation, delta-set side or index a literal reads.

The evaluator is parameterized by a :class:`~repro.algebra.oldstate.StateView`,
so the *same* plans evaluate positive differentials in the new state
and negative differentials in the old state (logical rollback), and by
a mapping of delta-sets for delta-marked literals.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

from repro.algebra.delta import EMPTY_DELTA, DeltaSet
from repro.algebra.oldstate import StateView
from repro.errors import RecursionNotSupportedError
from repro.objectlog.batch import ClausePlan, compile_plan
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import PredLiteral
from repro.objectlog.optimize import order_clause
from repro.objectlog.program import AggregatePredicate, DerivedPredicate, Program
from repro.objectlog.terms import Variable
from repro.obs import metrics

Row = Tuple


class Evaluator:
    """Evaluates clauses and queries against one database state.

    Parameters
    ----------
    program:
        The predicate catalog.
    view:
        State view (new or old) used for base relation access.
    deltas:
        Delta-sets for delta-marked literals, keyed by predicate name.
        The propagation algorithm supplies the changed node's delta
        here; plain queries never need it.

    Compiled plans live on the program (:meth:`Program.derived_plans`),
    not here: every evaluator over one program — the propagator's
    long-lived pair, a ``value()`` call's fresh one — compiles each
    (predicate, bound shape) once per program version.
    """

    def __init__(
        self,
        program: Program,
        view: StateView,
        deltas: Optional[Mapping[str, DeltaSet]] = None,
    ) -> None:
        self.program = program
        self.view = view
        self.deltas = dict(deltas or {})
        self._memo: Dict[Tuple, FrozenSet[Row]] = {}
        self._stack: Set[str] = set()

    def reset(self) -> None:
        """Forget all state tied to one database snapshot: the deltas
        and the memoized derived extensions (compiled plans live on the
        program; probes are resolved through the view per step
        execution).  Lets a propagator keep one evaluator per state
        across runs instead of allocating fresh ones every
        transaction."""
        self.deltas = {}
        if self._memo:
            self._memo.clear()

    def set_delta(self, pred: str, delta: DeltaSet) -> None:
        """Point this evaluator at exactly one influent's delta-set
        (the propagation loop calls this once per edge; the
        derived-predicate memo stays valid — program clauses never
        contain delta literals)."""
        self.deltas = {pred: delta}

    def rows_of(self, pred: str, sign: Optional[str] = None) -> FrozenSet[Row]:
        """All rows a literal over ``pred`` reads: the relation in this
        evaluator's state or — for a delta literal — one side of the
        influent's delta-set."""
        if sign is None:
            return self.view.relation(pred).rows()
        delta = self.deltas.get(pred, EMPTY_DELTA)
        return delta.plus if sign == "+" else delta.minus

    def prober_of(self, pred: str, sign: Optional[str], columns: Tuple[int, ...]):
        """The ``key -> rows`` probe of the same source (a delta side
        is a relation that indexes itself: :meth:`DeltaSet.side`)."""
        if sign is None:
            return self.view.relation(pred).prober(columns)
        return self.deltas.get(pred, EMPTY_DELTA).side(sign).prober(columns)

    # -- public API ---------------------------------------------------------------

    def rows(self, pred: str, bound: Iterable[Tuple[int, object]] = ()) -> Iterable[Row]:
        """The rows of ``pred`` restricted by ``(position, value)`` pairs.

        A derived predicate is answered through the memoized
        :meth:`derived_rows`; any other kind seeds its goal plan with
        the bound positions, so a probe, a foreign call or an aggregate
        group costs what it would inside a clause body.
        """
        bound = tuple(bound)
        definition = self.program.predicate(pred)
        if isinstance(definition, DerivedPredicate):
            return self.derived_rows(definition, bound)
        (plan,) = goal_plans(self.program, pred, tuple(p for p, _ in bound))
        regs = _seed(plan, bound)
        return plan.rows(self, [regs]) if regs is not None else ()

    def extension(self, pred: str) -> FrozenSet[Row]:
        """The full extension of a predicate in this state."""
        return frozenset(self.rows(pred))

    def derivable(self, pred: str, rows: Iterable[Row]) -> FrozenSet[Row]:
        """The rows of ``rows`` in the extension of ``pred``, set-at-a-time.

        One batched semi-join per goal plan: every candidate still
        pending seeds one register list with all head positions bound
        from it, so the row a solved list emits IS its candidate.  The
        negative guard (section 7.2) asks this of the new state, strict
        semantics of the old one.
        """
        arity = self.program.predicate(pred).arity
        found: Set[Row] = set()
        pending = set(rows)
        for plan in goal_plans(self.program, pred, tuple(range(arity))):
            if not pending:
                break
            seeds = []
            for row in pending:
                regs = _seed(plan, enumerate(row))
                if regs is not None:
                    seeds.append(regs)
            if seeds:
                found.update(plan.rows(self, seeds))
                pending -= found
        return frozenset(found)

    def aggregate_rows(
        self,
        definition: AggregatePredicate,
        bound_groups: Tuple[Tuple[int, object], ...] = (),
    ) -> Iterable[Row]:
        """``(group..., agg)`` rows restricted by bound group columns.

        ``bound_groups`` holds ``(position, value)`` pairs for group
        columns (positions below ``n_group``) known in advance, so a
        fully-bound group costs one group's source rows, not a scan.
        Empty groups yield nothing: an aggregate over nothing is
        undefined, as a function application without a stored value.
        """
        n_group = definition.n_group
        groups: Dict[Tuple, List] = {}
        for row in self.rows(definition.source, bound_groups):
            groups.setdefault(row[:n_group], []).append(row[-1])
        return [
            key + (definition.apply(values),) for key, values in groups.items()
        ]

    def derived_rows(
        self,
        definition: DerivedPredicate,
        bound: Tuple[Tuple[int, object], ...],
    ) -> FrozenSet[Row]:
        """Extension of a derived predicate restricted by the bound args.

        ``bound`` holds ``(position, value)`` pairs in position order;
        results are memoized per (predicate, bound) so every plan
        sharing this evaluator amortizes repeated sub-derivations.
        Raises :class:`UnsafeClauseError` when a defining clause has no
        safe order under this binding pattern.
        """
        if definition.name in self._stack:
            raise RecursionNotSupportedError(
                f"recursive evaluation of {definition.name!r} "
                "(recursion is outside the paper's scope)"
            )
        memo_key = (definition.name, bound)
        if memo_key in self._memo:
            reg = metrics.ACTIVE
            if reg is not None:
                reg.counter("evaluate.memo_hits").inc()
            return self._memo[memo_key]
        self._stack.add(definition.name)
        try:
            plans = goal_plans(
                self.program, definition.name, tuple(p for p, _ in bound)
            )
            out: Set[Row] = set()
            for plan in plans:
                regs = _seed(plan, bound)
                if regs is None:
                    continue
                out.update(plan.rows(self, [regs]))
            result = frozenset(out)
        finally:
            self._stack.discard(definition.name)
        self._memo[memo_key] = result
        return result


def goal_plans(program: Program, pred: str, cols: Tuple[int, ...]) -> List[ClausePlan]:
    """Compiled plans answering ``pred`` with the positions ``cols``
    bound, compiled once per (predicate, bound shape) and version of
    the program that declares it — a ``select``'s overlay reads a
    base-program function through the base program's cache, not a
    fresh one per statement.

    A derived predicate has one plan per defining clause; any other
    kind has one plan for the identity clause ``pred(X0..Xn) <-
    pred(X0..Xn)``, whose generated code probes, checks, calls the
    foreign function or restricts the aggregate.
    """
    program = program.owner(pred)
    cache = program.derived_plans()
    key = (pred, cols)
    plans = cache.get(key)
    if plans is not None:
        return plans
    definition = program.predicate(pred)
    if isinstance(definition, DerivedPredicate):
        clauses = definition.clauses
    else:
        goal = PredLiteral(
            pred, tuple(Variable(f"_X{i}") for i in range(definition.arity))
        )
        clauses = [HornClause(goal, [goal])]
    plans = []
    for clause in clauses:
        bound_vars = []
        for position in cols:
            arg = clause.head.args[position]
            if isinstance(arg, Variable) and arg not in bound_vars:
                bound_vars.append(arg)
        ordered = order_clause(clause, program, bound_vars)
        plans.append(compile_plan(ordered, program, bound_vars))
    if program.derived_plans() is cache:
        # not when the program changed while these were compiled
        cache[key] = plans
    return plans


def _seed(plan: ClausePlan, bound: Iterable[Tuple[int, object]]) -> Optional[List]:
    """One seed register list for ``plan`` with the bound head
    positions pinned, or ``None`` when the binding is incompatible
    with the clause head (constant mismatch, or one head variable
    bound to two different values)."""
    regs: List = [None] * plan.n_slots
    slot_of = plan.slot_of
    head_args = plan.clause.head.args
    for position, value in bound:
        arg = head_args[position]
        if isinstance(arg, Variable):
            slot = slot_of[arg]
            current = regs[slot]
            if current is None:
                regs[slot] = value
            elif current != value:
                return None
        elif arg != value:
            return None
    return regs
