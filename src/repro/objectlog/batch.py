"""Set-at-a-time execution plans for compiled clause bodies.

Every clause body the system executes — partial differentials, the
naive recompute, derived sub-predicates, ``select`` — is compiled
once into a :class:`ClausePlan` and executed as often as it is needed
(the paper optimizes each differential "using traditional query
optimization techniques"; DBToaster makes the same point for delta and
recompute queries, and compiles them to code for the reason this
module does):

* the body, already in a safe static order
  (:func:`~repro.objectlog.optimize.order_body`), becomes the Python
  source of one function: nested ``for`` loops over probes and
  delta-set sides, registers held in locals, probe keys and equality
  checks written out inline, assignments and comparisons as plain
  Python expressions.  Constants and predicate names reach the code
  through its namespace (``K0``, ``K1``, ...), never through ``repr``,
  so plans that differ only in constants have the same source and
  share one code object (:attr:`ClausePlan.source` keeps the text);
* the function maps a **batch of environments** (register lists) to
  the solutions, or straight to head rows: one pass extends every
  pending binding through the whole body;
* a delta-set read is a relation read: the plus/minus side indexes
  itself (:meth:`~repro.algebra.delta.DeltaSet.side`), so keyed delta
  probes do not scan the whole side.  Each probe is resolved through
  the evaluator at most once per run, when the first row reaches it;
* derived, aggregate and negated literals call the
  :class:`~repro.objectlog.evaluate.Evaluator` passed at run time, so
  its memo table is shared with every other plan executed on it; a
  negated foreign or aggregate literal asks its fully bound goal plan
  (:meth:`~repro.objectlog.evaluate.Evaluator.rows`).  A foreign
  function is called inline.

A fused worst-case-optimal join (:mod:`repro.objectlog.join`) stays a
batch step of its own: such a plan runs generated code, the kernel,
then generated code.  Plans are state-free: the same plan runs against
the new or the old database state depending on which evaluator
executes it.
"""

from __future__ import annotations

import builtins
import types
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ObjectLogError, UnsafeClauseError
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Assignment, Comparison, PredLiteral
from repro.objectlog.program import (
    AggregatePredicate,
    BasePredicate,
    DerivedPredicate,
    ForeignPredicate,
    Program,
)
from repro.objectlog.terms import Arith, Variable, ordered_variables
from repro.obs import metrics

Row = Tuple
Regs = List  # one register per variable of the clause

__all__ = ["ClausePlan", "compile_plan"]

_PYTHON_COMPARATORS = {
    "<": "<", "<=": "<=", ">": ">", ">=": ">=", "=": "==", "!=": "!=",
}

#: generated source -> its compiled ``run`` code object.  Constants are
#: not in the text, so there is one entry per plan *shape*: a statement
#: repeated with other values (``select quantity(:i)``) compiles once.
#: The table is never pruned: it holds every shape compiled in the
#: process (a few KB each), as the OID intern table holds every OID.
#: Code objects are immutable, so threads share them freely; two that
#: compile the same new text at once store equal objects
_CODE: Dict[str, types.CodeType] = {}

#: loops one generated function nests at most.  CPython refuses more
#: than 20 statically nested blocks (``for regs in batch`` is one), so
#: a longer body continues in a further function over the register lists
_MAX_LOOPS = 16


def _items(parts) -> str:
    """``a, b`` / ``a,``: a tuple's items as Python text."""
    return ", ".join(parts) + ("," if len(parts) == 1 else "")


def _function(source: str, consts: List) -> types.FunctionType:
    """The ``run`` function of ``source`` over its constants ``K<n>``."""
    code = _CODE.get(source)
    if code is None:
        module = compile(source, "<clause plan>", "exec")
        code = next(c for c in module.co_consts if isinstance(c, types.CodeType))
        _CODE[source] = code
    namespace = {f"K{n}": value for n, value in enumerate(consts)}
    namespace["__builtins__"] = builtins
    return types.FunctionType(code, namespace, "run")


class _Segment:
    """The source of one generated step over a run of body literals.

    Walking the literals in order, every literal that yields rows
    opens a ``for`` loop and every filter becomes ``continue``; the
    innermost level appends a solution.  ``bound`` (register slots
    holding a value) is updated as literals bind.
    """

    __slots__ = (
        "program", "slot_of", "bound", "consts", "lines", "indent", "lazy", "methods",
        "loops",
    )

    def __init__(self, program: Program, slot_of: Dict[Variable, int], bound: Set[int]):
        self.program = program
        self.slot_of = slot_of
        self.bound = bound
        self.consts: List = []
        self.lines: List[str] = []
        self.indent = " " * 8  # inside ``def run`` and ``for regs in batch``
        self.lazy: List[str] = []  # probe locals resolved on first use
        self.methods: Dict[str, str] = {}  # evaluator method locals
        self.loops = 0  # ``for`` loops opened

    # -- text helpers --------------------------------------------------------

    def const(self, value) -> str:
        self.consts.append(value)
        return f"K{len(self.consts) - 1}"

    def read(self, arg) -> str:
        if isinstance(arg, Variable):
            slot = self.slot_of[arg]
            if slot not in self.bound:
                raise UnsafeClauseError(f"variable {arg!r} read before being bound")
            return f"r{slot}"
        return self.const(arg)

    def expr(self, term) -> str:
        if isinstance(term, Arith):
            return f"({self.expr(term.left)} {term.op} {self.expr(term.right)})"
        return self.read(term)

    def emit(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def bound_args(self, args: Tuple) -> Tuple[List[int], List[str]]:
        """Positions of constants and already-bound variables, and the
        text of their values."""
        slot_of, bound = self.slot_of, self.bound
        cols: List[int] = []
        values: List[str] = []
        for pos, arg in enumerate(args):
            if not isinstance(arg, Variable):
                cols.append(pos)
                values.append(self.const(arg))
            elif slot_of[arg] in bound:
                cols.append(pos)
                values.append(f"r{slot_of[arg]}")
        return cols, values

    def call(self, method: str, target, args: Tuple) -> Tuple[List[int], str]:
        """``method(target, ((pos, value), ...))`` over the bound
        ``args`` — a derived, aggregate or goal extension, restricted."""
        self.methods[method] = method
        cols, values = self.bound_args(args)
        pairs = _items([f"({pos}, {value})" for pos, value in zip(cols, values)])
        return cols, f"{method}({self.const(target)}, ({pairs}))"

    def loop(self, args: Tuple, matched: Set[int], source: str, width: int = 0) -> None:
        """Open ``for`` over ``source``'s rows, unifying each with ``args``.

        Positions in ``matched`` are already equal (they were part of a
        probe key) and are skipped; constants and bound variables
        elsewhere are checked, first occurrences of free variables are
        unpacked straight into their registers.  ``width`` > 0 reads
        foreign-function results, whose items may be bare values.
        """
        slot_of, bound = self.slot_of, self.bound
        names: List[str] = []
        checks: List[str] = []
        new: List[int] = []
        for pos, arg in enumerate(args):
            if pos in matched:
                names.append("_")
                continue
            if isinstance(arg, Variable):
                slot = slot_of[arg]
                if slot not in bound and slot not in new:
                    new.append(slot)
                    names.append(f"r{slot}")
                    continue
                checks.append(f"c{pos} != r{slot}")
            else:
                checks.append(f"c{pos} != {self.const(arg)}")
            names.append(f"c{pos}")
        target = "_" if not new and not checks else _items(names)
        self.loops += 1
        if width:
            item = f"t{len(self.lines)}"
            self.emit(f"for {item} in {source}:")
            self.indent += "    "
            self.emit(
                f"{target} = ({item} if isinstance({item}, tuple) "
                f"else ({item},))[:{width}]"
            )
        else:
            self.emit(f"for {target} in {source}:")
            self.indent += "    "
        if checks:
            self.emit(f"if {' or '.join(checks)}: continue")
        bound.update(new)

    # -- literals ------------------------------------------------------------

    def literal(self, literal) -> None:
        if isinstance(literal, PredLiteral):
            self.relational(literal)
        elif isinstance(literal, Assignment):
            value = self.expr(literal.expr)
            slot = self.slot_of[literal.var]
            if slot in self.bound:
                self.emit(f"if not (r{slot} == {value}): continue")
            else:
                self.emit(f"r{slot} = {value}")
                self.bound.add(slot)
        elif isinstance(literal, Comparison):
            op = _PYTHON_COMPARATORS[literal.op]
            left, right = self.expr(literal.left), self.expr(literal.right)
            self.emit(f"if not ({left} {op} {right}): continue")
        else:
            raise ObjectLogError(f"unknown literal type {type(literal).__name__}")

    def relational(self, literal: PredLiteral) -> None:
        if literal.delta is not None:
            self.stored(literal)
            return
        definition = self.program.predicate(literal.pred)
        if literal.negated:
            self.negation(literal, definition)
        elif isinstance(definition, BasePredicate):
            self.stored(literal)
        elif isinstance(definition, ForeignPredicate):
            self.foreign(literal, definition)
        elif isinstance(definition, DerivedPredicate):
            cols, source = self.call("derived_rows", definition, literal.args)
            self.loop(literal.args, set(cols), source)
        elif isinstance(definition, AggregatePredicate):
            group = literal.args[: definition.n_group]
            cols, source = self.call("aggregate_rows", definition, group)
            self.loop(literal.args, set(cols), source)
        else:
            raise ObjectLogError(f"cannot compile literal {literal!r}")

    def stored(self, literal: PredLiteral) -> None:
        """A read of a stored relation or, for a delta literal, of one
        side of the influent's delta-set — the evaluator resolves which,
        once per run, when the first row gets here."""
        args = literal.args
        probe = f"p{len(self.lazy)}"
        self.lazy.append(probe)
        pred, sign = self.const(literal.pred), literal.delta
        cols, key = self.bound_args(args)
        if cols:
            resolve = f"ev.prober_of({pred}, {sign!r}, {tuple(cols)!r})"
            source = f"{probe}(({_items(key)}))"
        else:
            resolve = f"ev.rows_of({pred}, {sign!r})"
            source = probe
        self.emit(f"if {probe} is None: {probe} = {resolve}")
        self.loop(args, set(cols), source)

    def negation(self, literal: PredLiteral, definition) -> None:
        unbound = [
            arg
            for arg in literal.args
            if isinstance(arg, Variable) and self.slot_of[arg] not in self.bound
        ]
        if unbound:
            raise UnsafeClauseError(
                f"negated literal {literal!r} scheduled with unbound {unbound!r}"
            )
        args = literal.args
        if isinstance(definition, BasePredicate):
            self.methods["contains"] = "view.contains"
            row = _items(self.bound_args(args)[1])
            test = f"contains({self.const(literal.pred)}, ({row}))"
        elif isinstance(definition, DerivedPredicate):
            test = self.call("derived_rows", definition, args)[1]
        else:
            # foreign / aggregate negation: the goal plan, fully bound
            test = self.call("rows", literal.pred, args)[1]
        self.emit(f"if {test}: continue")

    def foreign(self, literal: PredLiteral, definition: ForeignPredicate) -> None:
        inputs = literal.args[: definition.n_in]
        for arg in inputs:
            if isinstance(arg, Variable) and self.slot_of[arg] not in self.bound:
                raise UnsafeClauseError(
                    f"foreign predicate {definition.name!r} scheduled with "
                    f"unbound input {arg!r}"
                )
        call = f"{self.const(definition.fn)}({', '.join(map(self.read, inputs))})"
        outputs = literal.args[definition.n_in :]
        if not outputs:
            self.emit(f"if not {call}: continue")
            return
        result = f"f{len(self.lines)}"
        self.emit(f"{result} = {call}")
        self.emit(f"if {result} is None: continue")
        self.loop(outputs, set(), result, width=len(outputs))

    # -- the function ----------------------------------------------------------

    def finish(self, n_slots: int, head: Optional[str] = None) -> str:
        """The source of ``run(ev, batch)``: it appends ``head`` (a head
        row's text, for the plan's last segment) or else the full
        register list of every solution."""
        names = _items([f"r{slot}" for slot in range(n_slots)])
        if head is None:
            head = f"[{names.rstrip(',')}]"
        self.lines.append(f"{self.indent}append({head})")
        preamble = [
            f"    {name} = ev.{attribute}\n" for name, attribute in self.methods.items()
        ]
        if self.lazy:
            preamble.append(f"    {' = '.join(self.lazy)} = None\n")
        unpack = f"        {names} = regs\n" if n_slots else ""
        body = "\n".join(self.lines)
        return (
            "def run(ev, batch):\n    out = []\n    append = out.append\n"
            f"{''.join(preamble)}    for regs in batch:\n{unpack}{body}\n"
            "    return out\n"
        )


# -- the plan -----------------------------------------------------------------


class ClausePlan:
    """A compiled, set-at-a-time execution plan for one clause.

    The body must already be in a safe execution order (see
    :func:`repro.objectlog.optimize.order_body`); compilation verifies
    executability as it assigns registers and raises
    :class:`UnsafeClauseError` otherwise.  ``steps`` are the generated
    functions and, for a fused plan, the join kernel between them;
    ``source`` is the generated text.
    """

    __slots__ = ("clause", "steps", "slot_of", "n_slots", "fused", "source")

    def __init__(
        self,
        clause: HornClause,
        steps: Tuple,
        slot_of: Dict[Variable, int],
        source: str,
        fused: int = 0,
    ) -> None:
        self.clause = clause
        self.steps = steps
        self.slot_of = slot_of
        self.n_slots = len(slot_of)
        self.source = source
        # number of base literals folded into a WCOJ kernel step
        # (0 = pure pairwise probe chain); read by last_check_stats()
        self.fused = fused

    def rows(self, evaluator, seeds: List[Regs] = None) -> List[Row]:
        """Every solution's head row, from the seed register lists or
        else from one all-``None`` register list."""
        batch = seeds if seeds is not None else [[None] * self.n_slots]
        reg = metrics.ACTIVE
        if reg is not None:
            reg.counter("evaluate.batch_runs").inc()
            reg.counter("evaluate.batch_seed_envs").inc(len(batch))
        for step in self.steps:
            if not batch:
                break
            batch = step(evaluator, batch)
        if reg is not None:
            reg.counter("evaluate.batch_solutions").inc(len(batch))
        return batch

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
    for var in bound_vars:
        slot_of.setdefault(var, len(slot_of))
    bound: Set[int] = set(slot_of.values())
    for literal in clause.body:
        if isinstance(literal, PredLiteral):
            variables = [arg for arg in literal.args if isinstance(arg, Variable)]
        else:
            variables = ordered_variables(literal.variables())
        for var in variables:
            slot_of.setdefault(var, len(slot_of))
    for arg in clause.head.args:
        if isinstance(arg, Variable) and arg not in slot_of:
            raise UnsafeClauseError(
                f"head variable {arg!r} of {clause!r} never occurs in the body"
            )

    fused_first, fused_members = (-1, set())
    if wcoj:
        fused_first, fused_members = _fusion_group(clause, program, bound_vars)

    n_slots = len(slot_of)
    steps: List = []
    sources: List[str] = []
    segment = _Segment(program, slot_of, bound)
    fused = 0
    for index, literal in enumerate(clause.body):
        if index in fused_members and index != fused_first:
            continue
        if index == fused_first or segment.loops == _MAX_LOOPS:
            if segment.lines:
                sources.append(segment.finish(n_slots))
                steps.append(_function(sources[-1], segment.consts))
            segment = _Segment(program, slot_of, bound)
        if index == fused_first:
            from repro.objectlog.join import compile_wcoj_step

            group = [clause.body[i] for i in sorted(fused_members)]
            steps.append(compile_wcoj_step(group, slot_of, bound))
            fused = len(group)
        else:
            segment.literal(literal)

    for arg in clause.head.args:
        if isinstance(arg, Variable) and slot_of[arg] not in bound:
            raise UnsafeClauseError(
                f"head variable of {clause!r} still unbound after the body"
            )
    head = _items([segment.read(arg) for arg in clause.head.args])
    sources.append(segment.finish(n_slots, f"({head})"))
    steps.append(_function(sources[-1], segment.consts))

    reg = metrics.ACTIVE
    if reg is not None and wcoj:
        if fused:
            reg.counter("join.plans_wcoj").inc()
            reg.histogram("join.fused_literals").observe(fused)
        else:
            reg.counter("join.plans_pairwise").inc()
    return ClausePlan(clause, tuple(steps), slot_of, "\n".join(sources), fused)
