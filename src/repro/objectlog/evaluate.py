"""The ObjectLog evaluation engine.

One evaluator runs every query against one database state.  Clause
bodies are never interpreted: a derived predicate is answered by
:class:`~repro.objectlog.batch.ClausePlan` chains, ordered once by
:func:`~repro.objectlog.optimize.order_body` and compiled once per
(predicate, bound head positions) for the evaluator's lifetime, with
the extensions they produce memoized per bound key.  What remains
here is state resolution — which relation, delta-set side or index a
literal reads — and the single positive goal of :meth:`Evaluator.query`
(``value()``, aggregate groups, foreign/aggregate negation).

The evaluator is parameterized by a :class:`~repro.algebra.oldstate.StateView`,
so the *same* plans evaluate positive differentials in the new state
and negative differentials in the old state (logical rollback), and by
a mapping of delta-sets for delta-marked literals.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.algebra.delta import EMPTY_DELTA, DeltaSet
from repro.algebra.oldstate import StateView
from repro.errors import (
    RecursionNotSupportedError,
    UnknownPredicateError,
    UnsafeClauseError,
)
from repro.objectlog.batch import compile_plan
from repro.objectlog.literals import PredLiteral
from repro.objectlog.optimize import order_clause
from repro.objectlog.program import (
    AggregatePredicate,
    BasePredicate,
    DerivedPredicate,
    ForeignPredicate,
    Program,
)
from repro.objectlog.terms import Env, Variable, bind_row, fresh_variable
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

    Compiled derived-predicate plans live on the program
    (:meth:`Program.derived_plans`), not here: every evaluator over
    one program — the propagator's long-lived pair, a ``value()``
    call's fresh one — compiles each (predicate, bound shape) once per
    program version.
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

    def query(self, pred: str, args: Tuple) -> Iterator[Env]:
        """Solve a single positive goal literal ``pred(args)``."""
        yield from self._eval_literal(PredLiteral(pred, tuple(args)), {})

    def extension(self, pred: str) -> FrozenSet[Row]:
        """The full extension of a predicate in this state."""
        definition = self.program.predicate(pred)
        args = tuple(fresh_variable("_X") for _ in range(definition.arity))
        out = set()
        for env in self.query(pred, args):
            out.add(tuple(env[a] for a in args))
        return frozenset(out)

    def holds(self, pred: str, row: Row) -> bool:
        """Membership test: is ``row`` in the extension of ``pred``?"""
        for _ in self.query(pred, tuple(row)):
            return True
        return False

    def derivable(self, pred: str, rows: Iterable[Row]) -> FrozenSet[Row]:
        """The rows of ``rows`` in the extension of ``pred`` — the
        membership test of :meth:`holds`, set-at-a-time.

        One batched semi-join per defining clause: every candidate
        still pending seeds one register list with all head variables
        bound from it, so the row a solved list emits IS its candidate.
        The negative guard (section 7.2) asks this of the new state,
        strict semantics of the old one.  A predicate that is not
        derived is answered by one :meth:`holds` per row.
        """
        definition = self.program.predicate(pred)
        if not isinstance(definition, DerivedPredicate):
            return frozenset(row for row in rows if self.holds(pred, row))
        plans = self._derived_plans_for(
            definition, tuple(range(definition.arity))
        )
        found: Set[Row] = set()
        pending = set(rows)
        for plan in plans:
            if not pending:
                break
            seeds = []
            for row in pending:
                regs = self._derived_seed(plan, enumerate(row))
                if regs is not None:
                    seeds.append(regs)
            if seeds:
                found.update(plan.rows(self, seeds))
                pending -= found
        return frozenset(found)

    # -- literal evaluation ------------------------------------------------------------

    def _eval_literal(self, literal: PredLiteral, env: Env) -> Iterator[Env]:
        """Environments extending ``env`` that satisfy one positive
        predicate literal (a compiled plan's foreign/aggregate negation
        asks this too)."""
        definition = self.program.predicate(literal.pred)
        if isinstance(definition, BasePredicate):
            yield from self._eval_base(literal, env)
        elif isinstance(definition, ForeignPredicate):
            yield from self._eval_foreign(definition, literal, env)
        elif isinstance(definition, DerivedPredicate):
            yield from self._eval_derived(definition, literal, env)
        elif isinstance(definition, AggregatePredicate):
            yield from self._eval_aggregate(definition, literal, env)
        else:  # pragma: no cover - catalog only holds the four kinds
            raise UnknownPredicateError(literal.pred)

    def _eval_base(self, literal: PredLiteral, env: Env) -> Iterator[Env]:
        bound_cols: List[int] = []
        key: List = []
        for position, arg in enumerate(literal.args):
            if isinstance(arg, Variable):
                if arg in env:
                    bound_cols.append(position)
                    key.append(env[arg])
            else:
                bound_cols.append(position)
                key.append(arg)
        if bound_cols:
            probe = self.prober_of(literal.pred, None, tuple(bound_cols))
            # copied: a prober may hand out a live index bucket, and
            # this generator is consumed lazily
            rows = tuple(probe(tuple(key)))
        else:
            rows = self.rows_of(literal.pred)
        reg = metrics.ACTIVE
        if reg is None:
            for row in rows:
                extended = bind_row(literal.args, row, env)
                if extended is not None:
                    yield extended
            return
        reg.counter(
            "evaluate.base_lookups" if bound_cols else "evaluate.base_scans"
        ).inc()
        extensions = reg.counter("evaluate.env_extensions")
        for row in rows:
            extended = bind_row(literal.args, row, env)
            if extended is not None:
                extensions.inc()
                yield extended

    def _eval_foreign(
        self, definition: ForeignPredicate, literal: PredLiteral, env: Env
    ) -> Iterator[Env]:
        inputs = []
        for arg in literal.args[: definition.n_in]:
            if isinstance(arg, Variable):
                if arg not in env:
                    raise UnsafeClauseError(
                        f"foreign predicate {definition.name!r} called with "
                        f"unbound input {arg!r}"
                    )
                inputs.append(env[arg])
            else:
                inputs.append(arg)
        result = definition.fn(*inputs)
        out_args = literal.args[definition.n_in :]
        if not out_args:
            if result:
                yield env
            return
        if result is None:
            return
        for item in result:
            row = item if isinstance(item, tuple) else (item,)
            extended = bind_row(out_args, row, env)
            if extended is not None:
                yield extended

    def _eval_aggregate(
        self, definition: AggregatePredicate, literal: PredLiteral, env: Env
    ) -> Iterator[Env]:
        """Evaluate a grouped aggregate, restricted by bound group args.

        The source predicate is queried with whatever group columns are
        already bound (so a fully-bound group costs one group's rows,
        not a full scan); rows are then grouped and folded.  Empty
        groups yield nothing — an aggregate over nothing is undefined,
        matching the functional-data-model convention that a function
        application without a stored value simply fails.
        """
        bound: List[Tuple[int, object]] = []
        for position, arg in enumerate(literal.args[: definition.n_group]):
            if isinstance(arg, Variable):
                if arg in env:
                    bound.append((position, env[arg]))
            else:
                bound.append((position, arg))
        for row in self.aggregate_rows(definition, tuple(bound)):
            extended = bind_row(literal.args, row, env)
            if extended is not None:
                yield extended

    def aggregate_rows(
        self,
        definition: AggregatePredicate,
        bound_groups: Tuple[Tuple[int, object], ...] = (),
    ) -> Iterable[Row]:
        """``(group..., agg)`` rows restricted by bound group columns.

        ``bound_groups`` holds ``(position, value)`` pairs for group
        columns (positions below ``n_group``) known in advance, so a
        fully-bound group costs one group's source rows, not a scan.
        """
        n_group = definition.n_group
        source_arity = self.program.predicate(definition.source).arity
        value_var = fresh_variable("_V")
        pinned = dict(bound_groups)
        probe_args = tuple(
            pinned.get(position, fresh_variable("_W"))
            for position in range(n_group)
        )
        probe_args += tuple(
            fresh_variable("_W") for _ in range(source_arity - n_group - 1)
        )
        probe_args += (value_var,)
        groups: Dict[Tuple, List] = {}
        for solution in self.query(definition.source, probe_args):
            key = tuple(
                solution[arg] if isinstance(arg, Variable) else arg
                for arg in probe_args[:n_group]
            )
            groups.setdefault(key, []).append(solution[value_var])
        return [
            key + (definition.apply(values),) for key, values in groups.items()
        ]

    def _eval_derived(
        self, definition: DerivedPredicate, literal: PredLiteral, env: Env
    ) -> Iterator[Env]:
        rows = self._derived_rows(definition, literal, env)
        for row in rows:
            extended = bind_row(literal.args, row, env)
            if extended is not None:
                yield extended

    def _derived_rows(
        self, definition: DerivedPredicate, literal: PredLiteral, env: Env
    ) -> FrozenSet[Row]:
        bound: List[Tuple[int, object]] = []
        for position, arg in enumerate(literal.args):
            if isinstance(arg, Variable):
                if arg in env:
                    bound.append((position, env[arg]))
            else:
                bound.append((position, arg))
        return self.derived_rows(definition, tuple(bound))

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
            plans = self._derived_plans_for(
                definition, tuple(position for position, _ in bound)
            )
            out: Set[Row] = set()
            for plan in plans:
                regs = self._derived_seed(plan, bound)
                if regs is None:
                    continue
                out.update(plan.rows(self, [regs]))
            result = frozenset(out)
        finally:
            self._stack.discard(definition.name)
        self._memo[memo_key] = result
        return result

    def _derived_plans_for(
        self,
        definition: DerivedPredicate,
        cols: Tuple[int, ...],
    ) -> List:
        """Compiled plans for ``definition`` probed with the head
        positions ``cols`` pinned, compiled once per (predicate, bound
        shape) and version of the program that declares it — a
        ``select``'s overlay reads a base-program function through the
        base program's cache, not a fresh one per statement."""
        program = self.program.owner(definition.name)
        cache = program.derived_plans()
        key = (definition.name, cols)
        plans = cache.get(key)
        if plans is not None:
            return plans
        plans = []
        for clause in definition.clauses:
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

    @staticmethod
    def _derived_seed(plan, bound) -> Optional[List]:
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
