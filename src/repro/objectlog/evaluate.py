"""The ObjectLog evaluation engine.

A generator-based, set-oriented evaluator for conjunctive clause bodies
with *dynamic sideways information passing*: at every step the most
selective executable literal is chosen next —

1. assignments and comparisons whose inputs are bound (free filters),
2. fully-bound negated literals,
3. delta-set reads (tiny by assumption — "few updates per transaction"),
4. foreign predicates whose inputs are bound,
5. stored/derived predicate reads, preferring the most-bound literal so
   that index probes replace scans.

The evaluator is parameterized by a :class:`~repro.algebra.oldstate.StateView`,
so the *same* engine evaluates positive differentials in the new state
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
    ObjectLogError,
    RecursionNotSupportedError,
    UnknownPredicateError,
    UnsafeClauseError,
)
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Assignment, Comparison, Literal, PredLiteral
from repro.objectlog.program import (
    AggregatePredicate,
    BasePredicate,
    DerivedPredicate,
    ForeignPredicate,
    Program,
)
from repro.objectlog.terms import Env, Variable, bind_row, eval_expr, fresh_variable
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
    compile_derived:
        Answer derived-predicate probes through compiled
        :class:`~repro.objectlog.batch.ClausePlan` chains instead of
        the interpretive generator path.  Compilation is amortized
        over the evaluator's lifetime (plans survive :meth:`reset`),
        so only long-lived evaluators — the batch propagator keeps one
        pair across all transactions — should opt in; a fresh
        evaluator per edge would pay compilation per probe.
    """

    def __init__(
        self,
        program: Program,
        view: StateView,
        deltas: Optional[Mapping[str, DeltaSet]] = None,
        compile_derived: bool = False,
    ) -> None:
        self.program = program
        self.view = view
        self.deltas = dict(deltas or {})
        self.compile_derived = compile_derived
        self._memo: Dict[Tuple, FrozenSet[Row]] = {}
        self._stack: Set[str] = set()
        #: compiled plans per (derived predicate, bound positions):
        #: ``(name, cols) -> (clauses, n_clauses, [plan, ...] | None)``
        #: — the definition's clause list identity AND length are kept
        #: for revalidation (clauses are only ever appended in place,
        #: so a redefined/extended function must not reuse stale
        #: plans); ``None`` records an uncompilable definition so the
        #: interpretive fallback is taken without retrying compilation
        #: per probe
        self._derived_plans: Dict[Tuple, Tuple[List, int, Optional[List]]] = {}

    def reset(self) -> None:
        """Forget all state tied to one database snapshot: the deltas
        and the memoized derived extensions (compiled plans survive;
        probes are resolved through the view per step execution).  Lets
        a propagator keep one evaluator per state across runs instead
        of allocating fresh ones every transaction."""
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

    def solve_body(
        self, body: Iterable[Literal], env: Optional[Env] = None
    ) -> Iterator[Env]:
        """All environments satisfying the conjunction ``body``."""
        yield from self._solve(list(body), dict(env or {}))

    def solve_clause(
        self, clause: HornClause, env: Optional[Env] = None
    ) -> Iterator[Row]:
        """Head rows produced by one clause (may contain duplicates)."""
        head_args = clause.head.args
        for solution in self.solve_body(clause.body, env):
            yield tuple(
                solution[a] if isinstance(a, Variable) else a for a in head_args
            )

    def query(self, pred: str, args: Tuple) -> Iterator[Env]:
        """Solve a single goal literal ``pred(args)``."""
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
        strict semantics of the old one.  Anything but a compilable
        derived predicate on a ``compile_derived`` evaluator is
        answered by one :meth:`holds` per row.
        """
        definition = self.program.predicate(pred)
        plans = None
        if self.compile_derived and isinstance(definition, DerivedPredicate):
            plans = self._derived_plans_for(
                definition, tuple(range(definition.arity))
            )
        if plans is None:
            return frozenset(row for row in rows if self.holds(pred, row))
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
                found.update(map(plan.emit_row, plan.execute(self, seeds)))
                pending -= found
        return frozenset(found)

    # -- scheduling -----------------------------------------------------------------

    def _solve(self, literals: List[Literal], env: Env) -> Iterator[Env]:
        if not literals:
            yield env
            return
        index = self._pick(literals, env)
        literal = literals[index]
        rest = literals[:index] + literals[index + 1 :]
        for extended in self._eval_literal(literal, env):
            yield from self._solve(rest, extended)

    def _pick(self, literals: List[Literal], env: Env) -> int:
        best_index = -1
        best_score = None
        for index, literal in enumerate(literals):
            score = self._score(literal, env)
            if score is None:
                continue
            if best_score is None or score < best_score:
                best_index, best_score = index, score
            if best_score == (0, 0):
                break
        if best_index < 0:
            raise UnsafeClauseError(
                f"no executable literal among {literals!r} with bindings "
                f"{sorted(v.name for v in env)!r}"
            )
        return best_index

    def _score(self, literal: Literal, env: Env):
        """Lower is better; None means not executable yet."""
        if isinstance(literal, Assignment):
            if all(v in env for v in literal.input_variables()):
                return (0, 0)
            return None
        if isinstance(literal, Comparison):
            if all(v in env for v in literal.variables()):
                return (0, 0)
            return None
        if isinstance(literal, PredLiteral):
            unbound = sum(
                1
                for a in literal.args
                if isinstance(a, Variable) and a not in env
            )
            if literal.negated:
                return (1, 0) if unbound == 0 else None
            if literal.delta is not None:
                return (2, unbound)
            definition = self.program.predicate(literal.pred)
            if isinstance(definition, ForeignPredicate):
                inputs = literal.args[: definition.n_in]
                ready = all(
                    not isinstance(a, Variable) or a in env for a in inputs
                )
                return (3, unbound) if ready else None
            return (4, unbound)
        raise ObjectLogError(f"unknown literal type {type(literal).__name__}")

    # -- literal evaluation ------------------------------------------------------------

    def _eval_literal(self, literal: Literal, env: Env) -> Iterator[Env]:
        if isinstance(literal, Assignment):
            value = eval_expr(literal.expr, env)
            if literal.var in env:
                if env[literal.var] == value:
                    yield env
            else:
                extended = dict(env)
                extended[literal.var] = value
                yield extended
            return
        if isinstance(literal, Comparison):
            if literal.holds(env):
                yield env
            return
        assert isinstance(literal, PredLiteral)
        if literal.negated:
            positive = PredLiteral(literal.pred, literal.args)
            for _ in self._eval_literal(positive, env):
                return
            yield env
            return
        definition = self.program.predicate(literal.pred)
        if literal.delta is not None or isinstance(definition, BasePredicate):
            # a delta-set side is a relation like any other
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
            probe = self.prober_of(literal.pred, literal.delta, tuple(bound_cols))
            # copied: a prober may hand out a live index bucket, and
            # this generator is consumed lazily
            rows = tuple(probe(tuple(key)))
        else:
            rows = self.rows_of(literal.pred, literal.delta)
        reg = metrics.ACTIVE
        if reg is None:
            for row in rows:
                extended = bind_row(literal.args, row, env)
                if extended is not None:
                    yield extended
            return
        if literal.delta is not None:
            reg.counter("evaluate.delta_reads").inc()
            reg.counter("evaluate.delta_rows").inc(len(rows))
        else:
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
        results are memoized per (predicate, bound) so both the
        tuple-at-a-time path and compiled batch plans sharing this
        evaluator amortize repeated sub-derivations.
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
            plans = (
                self._derived_plans_for(
                    definition, tuple(position for position, _ in bound)
                )
                if self.compile_derived
                else None
            )
            out: Set[Row] = set()
            if plans is not None:
                for plan in plans:
                    regs = self._derived_seed(plan, bound)
                    if regs is None:
                        continue
                    emit_row = plan.emit_row
                    for solved in plan.execute(self, [regs]):
                        out.add(emit_row(solved))
                result = frozenset(out)
            else:
                for clause in definition.clauses:
                    renamed = clause.rename_apart()
                    call_env: Env = {}
                    compatible = True
                    for position, value in bound:
                        head_arg = renamed.head.args[position]
                        if isinstance(head_arg, Variable):
                            if (
                                head_arg in call_env
                                and call_env[head_arg] != value
                            ):
                                compatible = False
                                break
                            call_env[head_arg] = value
                        elif head_arg != value:
                            compatible = False
                            break
                    if not compatible:
                        continue
                    for row in self.solve_clause(renamed, call_env):
                        out.add(row)
                result = frozenset(out)
        finally:
            self._stack.discard(definition.name)
        self._memo[memo_key] = result
        return result

    def _derived_plans_for(
        self,
        definition: DerivedPredicate,
        cols: Tuple[int, ...],
    ) -> Optional[List]:
        """Compiled plans for ``definition`` probed with the head
        positions ``cols`` pinned, compiled once per (predicate, bound
        shape) and reused for the evaluator's lifetime.  ``None`` means
        the definition cannot be statically ordered/compiled under this
        binding pattern (falls back to the interpretive path)."""
        key = (definition.name, cols)
        entry = self._derived_plans.get(key)
        if (
            entry is not None
            and entry[0] is definition.clauses
            and entry[1] == len(definition.clauses)
        ):
            return entry[2]
        from repro.objectlog.batch import compile_plan
        from repro.objectlog.optimize import order_body

        plans: Optional[List] = []
        try:
            for clause in definition.clauses:
                bound_vars = []
                for position in cols:
                    arg = clause.head.args[position]
                    if isinstance(arg, Variable) and arg not in bound_vars:
                        bound_vars.append(arg)
                ordered = order_body(clause.body, self.program, bound_vars)
                plans.append(
                    compile_plan(
                        HornClause(clause.head, tuple(ordered)),
                        self.program,
                        bound_vars,
                    )
                )
        except (UnsafeClauseError, ObjectLogError):
            plans = None
        self._derived_plans[key] = (
            definition.clauses,
            len(definition.clauses),
            plans,
        )
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
