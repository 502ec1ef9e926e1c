"""Set-at-a-time execution plans for compiled clause bodies.

Every clause body the system executes — partial differentials, the
naive recompute, derived sub-predicates, ``select`` — is compiled
once into a :class:`ClausePlan` and executed as often as it is needed
(the paper optimizes each differential "using traditional query
optimization techniques"; DBToaster makes the same point for delta and
recompute queries compiled to reusable set-at-a-time plans):

* the body, already in a safe static order
  (:func:`~repro.objectlog.optimize.order_body`), becomes a tuple of
  step closures with pre-resolved predicate definitions, pre-computed
  bound-column sets, and positional *register* accessors — no
  per-solve scheduling, no ``Variable`` hashing, no environment dicts;
* each step maps a **batch of environments** (plain register lists) to
  the next batch, so one pass over a literal extends every pending
  binding;
* a delta-set read is a relation read: the plus/minus side indexes
  itself (:meth:`~repro.algebra.delta.DeltaSet.side`), so keyed delta
  probes do not scan the whole side;
* derived sub-predicates are answered by the
  :class:`~repro.objectlog.evaluate.Evaluator` passed at run time —
  through its own compiled plans — so its memo table is shared with
  every other plan executed on it.

Plans are state-free: the same plan runs against the new or the old
database state depending on which evaluator executes it.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ObjectLogError, UnsafeClauseError
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import (
    _COMPARATORS,
    Assignment,
    Comparison,
    Literal,
    PredLiteral,
)
from repro.objectlog.program import (
    AggregatePredicate,
    BasePredicate,
    DerivedPredicate,
    ForeignPredicate,
    Program,
)
from repro.objectlog.terms import _OPS, Arith, Variable, ordered_variables
from repro.obs import metrics

Row = Tuple
Regs = List  # one register per variable of the clause
Step = Callable[["Evaluator", List[Regs]], List[Regs]]  # noqa: F821

__all__ = ["ClausePlan", "compile_plan"]


# -- register accessors -------------------------------------------------------


def _getter(slot_of: Dict[Variable, int], bound: Set[int], arg):
    """A ``regs -> value`` accessor for a bound argument (var or const)."""
    if isinstance(arg, Variable):
        slot = slot_of[arg]
        if slot not in bound:
            raise UnsafeClauseError(f"variable {arg!r} read before being bound")
        return lambda regs, _s=slot: regs[_s]
    return lambda regs, _v=arg: _v


def _compile_expr(expr, slot_of: Dict[Variable, int], bound: Set[int]):
    """Compile an arithmetic term to a ``regs -> value`` closure."""
    if isinstance(expr, Variable):
        return _getter(slot_of, bound, expr)
    if isinstance(expr, Arith):
        left = _compile_expr(expr.left, slot_of, bound)
        right = _compile_expr(expr.right, slot_of, bound)
        op = _OPS[expr.op]
        return lambda regs: op(left(regs), right(regs))
    return lambda regs, _v=expr: _v


def _make_binder(
    args: Tuple,
    slot_of: Dict[Variable, int],
    bound: Set[int],
    matched: Set[int],
):
    """A ``(regs, row, append)`` closure unifying ``row`` against ``args``.

    ``matched`` holds argument *positions* already guaranteed equal
    (because they were part of an index-probe key), so only constants,
    already-bound variables, and repeated occurrences outside that set
    need runtime checks.  Register lists are linear (each one is owned
    by exactly one batch entry), so the copy happens only on fan-out.
    """
    consts: List[Tuple[int, object]] = []
    checks: List[Tuple[int, int]] = []
    row_checks: List[Tuple[int, int]] = []  # repeated var WITHIN this row
    sets: List[Tuple[int, int]] = []
    seen = set(bound)
    first_pos: Dict[int, int] = {}
    for pos, arg in enumerate(args):
        if isinstance(arg, Variable):
            slot = slot_of[arg]
            if slot in seen:
                if pos not in matched:
                    if slot in first_pos:
                        # bound by an earlier position of THIS literal:
                        # the register is only written after the checks,
                        # so compare row positions directly
                        row_checks.append((pos, first_pos[slot]))
                    else:
                        checks.append((pos, slot))
            else:
                seen.add(slot)
                first_pos[slot] = pos
                sets.append((pos, slot))
        elif pos not in matched:
            consts.append((pos, arg))

    const_ops = tuple(consts)
    check_ops = tuple(checks)
    row_check_ops = tuple(row_checks)
    set_ops = tuple(sets)

    def bind(regs: Regs, row: Row, append) -> None:
        for pos, value in const_ops:
            if row[pos] != value:
                return
        for pos, slot in check_ops:
            if row[pos] != regs[slot]:
                return
        for pos, other in row_check_ops:
            if row[pos] != row[other]:
                return
        new = regs[:]
        for pos, slot in set_ops:
            new[slot] = row[pos]
        append(new)

    def bind_into(regs: Regs, row: Row) -> bool:
        """In-place variant for the LAST row matched against ``regs``:
        the register list is owned by one batch entry, so when no other
        row will extend it there is nothing to copy."""
        for pos, value in const_ops:
            if row[pos] != value:
                return False
        for pos, slot in check_ops:
            if row[pos] != regs[slot]:
                return False
        for pos, other in row_check_ops:
            if row[pos] != row[other]:
                return False
        for pos, slot in set_ops:
            regs[slot] = row[pos]
        return True

    return bind, bind_into, frozenset(slot for _, slot in set_ops)


def _key_spec(
    args: Tuple, slot_of: Dict[Variable, int], bound: Set[int]
) -> Tuple[Tuple[int, ...], Tuple]:
    """Bound argument positions and their ``(is_slot, value)`` parts."""
    cols: List[int] = []
    parts: List[Tuple[bool, object]] = []
    for pos, arg in enumerate(args):
        if isinstance(arg, Variable):
            slot = slot_of[arg]
            if slot in bound:
                cols.append(pos)
                parts.append((True, slot))
        else:
            cols.append(pos)
            parts.append((False, arg))
    return tuple(cols), tuple(parts)


def _make_key(parts: Tuple) -> Callable[[Regs], Tuple]:
    # specialized for the overwhelmingly common 1- and 2-column probe
    # keys: the generic generator-expression tuple build dominated the
    # hot loop when profiled
    if len(parts) == 1:
        (is_slot, value), = parts
        if is_slot:
            return lambda regs, _s=value: (regs[_s],)
        return lambda regs, _k=(value,): _k
    if len(parts) == 2:
        (s1, v1), (s2, v2) = parts
        if s1 and s2:
            return lambda regs, _a=v1, _b=v2: (regs[_a], regs[_b])
    return lambda regs: tuple(
        regs[value] if is_slot else value for is_slot, value in parts
    )


# -- step factories -----------------------------------------------------------


def _assign_step(literal: Assignment, slot_of, bound: Set[int]) -> Step:
    expr = _compile_expr(literal.expr, slot_of, bound)
    slot = slot_of[literal.var]
    if slot in bound:
        def step(evaluator, batch):
            return [regs for regs in batch if regs[slot] == expr(regs)]
    else:
        bound.add(slot)

        def step(evaluator, batch):
            for regs in batch:
                regs[slot] = expr(regs)
            return batch
    return step


def _compare_step(literal: Comparison, slot_of, bound: Set[int]) -> Step:
    op = _COMPARATORS[literal.op]
    left = _compile_expr(literal.left, slot_of, bound)
    right = _compile_expr(literal.right, slot_of, bound)

    def step(evaluator, batch):
        return [regs for regs in batch if op(left(regs), right(regs))]

    return step


def _base_step(literal: PredLiteral, slot_of, bound: Set[int]) -> Step:
    """A read of a stored relation or, for a delta literal, of one side
    of the influent's delta-set — the evaluator resolves which."""
    pred, sign = literal.pred, literal.delta
    cols, parts = _key_spec(literal.args, slot_of, bound)
    bind, bind_into, new_slots = _make_binder(
        literal.args, slot_of, bound, set(cols)
    )
    bound.update(new_slots)
    if cols:
        key_of = _make_key(parts)

        def step(evaluator, batch):
            # resolved per execution: the relation caches its probers
            # and drops them when it evicts the index behind them
            probe = evaluator.prober_of(pred, sign, cols)
            out: List[Regs] = []
            append = out.append
            for regs in batch:
                rows = probe(key_of(regs))
                if not rows:
                    continue
                if len(rows) == 1:
                    for row in rows:
                        if bind_into(regs, row):
                            append(regs)
                else:
                    for row in rows:
                        bind(regs, row, append)
            return out
    else:
        def step(evaluator, batch):
            rows = evaluator.rows_of(pred, sign)
            out: List[Regs] = []
            append = out.append
            for regs in batch:
                for row in rows:
                    bind(regs, row, append)
            return out
    return step


def _negation_step(
    literal: PredLiteral, definition, slot_of, bound: Set[int]
) -> Step:
    unbound = [
        arg
        for arg in literal.args
        if isinstance(arg, Variable) and slot_of[arg] not in bound
    ]
    if unbound:
        raise UnsafeClauseError(
            f"negated literal {literal!r} scheduled with unbound {unbound!r}"
        )
    getters = tuple(_getter(slot_of, bound, arg) for arg in literal.args)
    pred = literal.pred
    if isinstance(definition, BasePredicate):
        def step(evaluator, batch):
            contains = evaluator.view.contains
            return [
                regs
                for regs in batch
                if not contains(pred, tuple(g(regs) for g in getters))
            ]
    elif isinstance(definition, DerivedPredicate):
        positions = tuple(enumerate(getters))

        def step(evaluator, batch):
            derived_rows = evaluator.derived_rows
            return [
                regs
                for regs in batch
                if not derived_rows(
                    definition, tuple((pos, g(regs)) for pos, g in positions)
                )
            ]
    else:
        # foreign / aggregate negation: route through the evaluator's
        # generic literal machinery (rare; not worth a specialized step)
        variables = tuple(
            (var, slot_of[var]) for var in ordered_variables(literal.variables())
        )
        positive = PredLiteral(literal.pred, literal.args)

        def step(evaluator, batch):
            out: List[Regs] = []
            for regs in batch:
                env = {var: regs[slot] for var, slot in variables}
                for _ in evaluator._eval_literal(positive, env):
                    break
                else:
                    out.append(regs)
            return out
    return step


def _foreign_step(
    literal: PredLiteral, definition: ForeignPredicate, slot_of, bound: Set[int]
) -> Step:
    inputs = literal.args[: definition.n_in]
    for arg in inputs:
        if isinstance(arg, Variable) and slot_of[arg] not in bound:
            raise UnsafeClauseError(
                f"foreign predicate {definition.name!r} scheduled with "
                f"unbound input {arg!r}"
            )
    in_getters = tuple(_getter(slot_of, bound, arg) for arg in inputs)
    out_args = literal.args[definition.n_in :]
    fn = definition.fn
    if not out_args:
        def step(evaluator, batch):
            return [regs for regs in batch if fn(*[g(regs) for g in in_getters])]
        return step
    bind, _bind_into, new_slots = _make_binder(out_args, slot_of, bound, set())
    bound.update(new_slots)

    def step(evaluator, batch):
        out: List[Regs] = []
        append = out.append
        for regs in batch:
            result = fn(*[g(regs) for g in in_getters])
            if result is None:
                continue
            for item in result:
                row = item if isinstance(item, tuple) else (item,)
                bind(regs, row, append)
        return out

    return step


def _derived_step(
    literal: PredLiteral, definition: DerivedPredicate, slot_of, bound: Set[int]
) -> Step:
    cols, _parts = _key_spec(literal.args, slot_of, bound)
    bound_getters = tuple(
        (pos, _getter(slot_of, bound, literal.args[pos])) for pos in cols
    )
    bind, _bind_into, new_slots = _make_binder(
        literal.args, slot_of, bound, set(cols)
    )
    bound.update(new_slots)

    def step(evaluator, batch):
        derived_rows = evaluator.derived_rows
        out: List[Regs] = []
        append = out.append
        for regs in batch:
            rows = derived_rows(
                definition, tuple((pos, g(regs)) for pos, g in bound_getters)
            )
            for row in rows:
                bind(regs, row, append)
        return out

    return step


def _aggregate_step(
    literal: PredLiteral, definition: AggregatePredicate, slot_of, bound: Set[int]
) -> Step:
    n_group = definition.n_group
    cols, parts = _key_spec(literal.args[:n_group], slot_of, bound)
    group_getters = tuple(
        (pos, _getter(slot_of, bound, literal.args[pos])) for pos in cols
    )
    bind, _bind_into, new_slots = _make_binder(
        literal.args, slot_of, bound, set(cols)
    )
    bound.update(new_slots)

    def step(evaluator, batch):
        aggregate_rows = evaluator.aggregate_rows
        out: List[Regs] = []
        append = out.append
        for regs in batch:
            rows = aggregate_rows(
                definition, tuple((pos, g(regs)) for pos, g in group_getters)
            )
            for row in rows:
                bind(regs, row, append)
        return out

    return step


# -- the plan -----------------------------------------------------------------


class ClausePlan:
    """A compiled, set-at-a-time execution plan for one clause.

    The body must already be in a safe execution order (see
    :func:`repro.objectlog.optimize.order_body`); compilation verifies
    executability as it assigns registers and raises
    :class:`UnsafeClauseError` otherwise.
    """

    __slots__ = ("clause", "steps", "slot_of", "n_slots", "_emit", "fused")

    def __init__(
        self,
        clause: HornClause,
        steps: Tuple[Step, ...],
        slot_of: Dict[Variable, int],
        emit: Tuple,
        fused: int = 0,
    ) -> None:
        self.clause = clause
        self.steps = steps
        self.slot_of = dict(slot_of)
        self.n_slots = len(slot_of)
        self._emit = emit
        # number of base literals folded into a WCOJ kernel step
        # (0 = pure pairwise probe chain); read by last_check_stats()
        self.fused = fused

    def execute(self, evaluator, seeds: List[Regs]) -> List[Regs]:
        """Run every seed register list through all steps."""
        reg = metrics.ACTIVE
        if reg is not None:
            reg.counter("evaluate.batch_runs").inc()
            reg.counter("evaluate.batch_seed_envs").inc(len(seeds))
        batch = seeds
        for step in self.steps:
            if not batch:
                break
            batch = step(evaluator, batch)
        if reg is not None:
            reg.counter("evaluate.batch_solutions").inc(len(batch))
        return batch

    def rows(self, evaluator) -> List[Row]:
        """Head rows from an empty seed (one all-``None`` register list)."""
        batch = self.execute(evaluator, [[None] * self.n_slots])
        emit = self._emit
        return [
            tuple(regs[value] if is_slot else value for is_slot, value in emit)
            for regs in batch
        ]

    def emit_row(self, regs: Regs) -> Row:
        """The head row for one final register list (compiled derived
        sub-queries emit per seed, bypassing :meth:`rows`)."""
        return tuple(
            regs[value] if is_slot else value for is_slot, value in self._emit
        )

    def __repr__(self) -> str:
        return f"ClausePlan({self.clause!r}, steps={len(self.steps)})"


def _fusion_group(
    clause: HornClause, program: Program, bound_vars: Sequence[Variable]
) -> Tuple[int, Set[int]]:
    """Which body literals to fuse into one WCOJ kernel step.

    Returns ``(first_index, member_indexes)`` — the kernel replaces the
    candidate at ``first_index`` and absorbs every later member — or
    ``(-1, set())`` when the clause should stay on the pairwise chain.

    Eligible members are positive, non-delta reads of *base* predicates
    (tries mirror stored relations only) that still have free variables
    at the group's position and share at least one free variable with
    the rest of the group (the connected component of the first
    candidate).  The group itself must have >= 3 members: for a single
    join (two relations) the pairwise chain IS worst-case optimal —
    every intermediate binding it enumerates is an output row, so the
    AGM gap the kernel closes only opens at three or more relations,
    and fusing a pair would pay the kernel's per-level constants for
    nothing (measured: +23% on the inventory steady state).
    """
    body = clause.body
    relational = sum(
        1
        for lit in body
        if isinstance(lit, PredLiteral) and not lit.negated
    )
    if relational < 3:
        return -1, set()

    candidates: List[Tuple[int, frozenset]] = []
    bound_sim = set(bound_vars)
    for index, literal in enumerate(body):
        if (
            isinstance(literal, PredLiteral)
            and not literal.negated
            and literal.delta is None
            and isinstance(program.predicate(literal.pred), BasePredicate)
        ):
            candidates.append((index, literal.variables()))
        elif not candidates:
            # a safely ordered body binds every variable it has touched
            # by the time later literals need it, so everything before
            # the first candidate counts as bound for freeness purposes
            bound_sim |= literal.variables()
    if len(candidates) < 2:
        return -1, set()

    first = candidates[0][0]
    free_of = {
        index: frozenset(vars_ - bound_sim) for index, vars_ in candidates
    }
    pool = [index for index, _ in candidates if free_of[index]]
    if not pool or pool[0] != first:
        # the anchor candidate is a pure membership probe; hoisting
        # later literals over it buys nothing — stay pairwise
        return -1, set()
    members = {first}
    group_free = set(free_of[first])
    grew = True
    while grew:
        grew = False
        for index in pool:
            if index not in members and free_of[index] & group_free:
                members.add(index)
                group_free |= free_of[index]
                grew = True
    if len(members) < 3:
        return -1, set()
    return first, members


def compile_plan(
    clause: HornClause,
    program: Program,
    bound_vars: Sequence[Variable] = (),
    wcoj: bool = False,
) -> ClausePlan:
    """Compile ``clause`` (body pre-ordered) into a :class:`ClausePlan`.

    ``bound_vars`` are guaranteed bound before execution starts; their
    registers come first so callers can seed them (the evaluator's
    ``derivable`` seeds the head variables from each candidate row).

    With ``wcoj=True`` the compiler cost-selects between the pairwise
    probe chain and a fused worst-case-optimal kernel
    (:func:`repro.objectlog.join.compile_wcoj_step`): clauses with >= 3
    relational literals whose base reads share free join variables get
    the kernel; everything else (2-way joins, negative guards, bodies
    dominated by derived/foreign predicates) keeps the pairwise chain.
    Either state may pass ``wcoj=True``: the kernel resolves each trie
    through the evaluator's view, and an old-state view hands out the
    live trie patched by the delta
    (:meth:`repro.algebra.oldstate.RolledBack.trie_index`).
    """
    slot_of: Dict[Variable, int] = {}

    def slot(var: Variable) -> int:
        existing = slot_of.get(var)
        if existing is None:
            existing = slot_of[var] = len(slot_of)
        return existing

    bound: Set[int] = {slot(var) for var in bound_vars}
    for literal in clause.body:
        for var in ordered_variables(literal.variables()):
            slot(var)
    for arg in clause.head.args:
        if isinstance(arg, Variable) and arg not in slot_of:
            raise UnsafeClauseError(
                f"head variable {arg!r} of {clause!r} never occurs in the body"
            )

    fused_first, fused_members = (-1, set())
    if wcoj:
        fused_first, fused_members = _fusion_group(clause, program, bound_vars)

    steps: List[Step] = []
    fused = 0
    for index, literal in enumerate(clause.body):
        if index == fused_first:
            from repro.objectlog.join import compile_wcoj_step

            group = [clause.body[i] for i in sorted(fused_members)]
            steps.append(compile_wcoj_step(group, slot_of, bound))
            fused = len(group)
        elif index in fused_members:
            continue
        else:
            steps.append(_compile_literal(literal, program, slot_of, bound))

    reg = metrics.ACTIVE
    if reg is not None and wcoj:
        if fused:
            reg.counter("join.plans_wcoj").inc()
            reg.histogram("join.fused_literals").observe(fused)
        else:
            reg.counter("join.plans_pairwise").inc()

    emit = tuple(
        (True, slot_of[arg]) if isinstance(arg, Variable) else (False, arg)
        for arg in clause.head.args
    )
    for is_slot, value in emit:
        if is_slot and value not in bound:
            raise UnsafeClauseError(
                f"head variable of {clause!r} still unbound after the body"
            )
    return ClausePlan(clause, tuple(steps), slot_of, emit, fused)


def _compile_literal(
    literal: Literal, program: Program, slot_of, bound: Set[int]
) -> Step:
    if isinstance(literal, Assignment):
        return _assign_step(literal, slot_of, bound)
    if isinstance(literal, Comparison):
        return _compare_step(literal, slot_of, bound)
    if not isinstance(literal, PredLiteral):
        raise ObjectLogError(f"unknown literal type {type(literal).__name__}")
    if literal.delta is not None:
        return _base_step(literal, slot_of, bound)
    definition = program.predicate(literal.pred)
    if literal.negated:
        return _negation_step(literal, definition, slot_of, bound)
    if isinstance(definition, BasePredicate):
        return _base_step(literal, slot_of, bound)
    if isinstance(definition, ForeignPredicate):
        return _foreign_step(literal, definition, slot_of, bound)
    if isinstance(definition, DerivedPredicate):
        return _derived_step(literal, definition, slot_of, bound)
    if isinstance(definition, AggregatePredicate):
        return _aggregate_step(literal, definition, slot_of, bound)
    raise ObjectLogError(f"cannot compile literal {literal!r}")
