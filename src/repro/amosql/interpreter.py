"""The AMOSQL interpreter: executes parsed statements against AMOS.

:class:`AmosqlEngine` is the user-facing session object: it owns an
:class:`~repro.amos.database.AmosDatabase`, a set of interface
variables (``:item1``), and executes AMOSQL scripts statement by
statement — the whole running example of the paper (section 3.1) is an
executable script against this engine; see ``examples/quickstart.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.amos.database import AmosDatabase
from repro.amos.oid import OID
from repro.amosql import ast
from repro.amosql.compiler import QueryCompiler
from repro.amosql.parser import parse
from repro.errors import AmosError, CompileError
from repro.objectlog.batch import compile_plan
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.optimize import order_clause
from repro.objectlog.program import ProgramOverlay
from repro.objectlog.terms import _OPS
from repro.algebra.oldstate import NewStateView
from repro.storage.snapshot import SnapshotView

Row = Tuple

__all__ = ["AmosqlEngine", "register_print_procedures"]


def register_print_procedures(amos: AmosDatabase, out) -> None:
    """Give ``amos`` the shell's ``print_`` … ``print_4`` procedures
    (one per arity, writing to ``out``), so the rule actions of the
    example scripts work in the REPL, a served primary and a replica
    alike.  Names the bootstrap already defined are left alone."""

    def printer(*args):
        print(" ".join(repr(a) for a in args), file=out, flush=True)

    for arity in range(1, 5):
        name = "print_" if arity == 1 else f"print_{arity}"
        if name not in amos.procedures:
            amos.create_procedure(name, ("object",) * arity, printer)


class AmosqlEngine:
    """An AMOSQL session: parser + compiler + interpreter + database.

    Parameters are forwarded to :class:`AmosDatabase` (``mode``,
    ``shared_nodes``, ``explain``, ...).
    """

    def __init__(self, amos: Optional[AmosDatabase] = None, **amos_options) -> None:
        self.amos = amos if amos is not None else AmosDatabase(**amos_options)
        #: interface variables (``:item1`` ...), shared across statements
        self.iface: Dict[str, object] = {}

    # -- public API ---------------------------------------------------------------

    def execute(self, script: str) -> List[object]:
        """Execute a whole script; returns one result per statement.

        DDL and updates yield ``None``; ``select`` yields a sorted list
        of result tuples; ``create ... instances`` yields the new OIDs.
        """
        return [self.execute_statement(statement) for statement in parse(script)]

    def execute_statement(self, statement: ast.Statement) -> object:
        """Execute ONE already-parsed statement.

        This is the entry point the network server uses: it parses a
        session's script up front, buffers statements inside an explicit
        transaction, and replays them through here at commit.
        """
        return self._execute(statement)

    def query(self, select_text: str, snapshot=False, epoch=None) -> List[Row]:
        """Execute a single ``select`` and return its rows.

        With ``snapshot=True`` the query runs against the latest
        published database snapshot (publishing one first if committed
        state changed — safe because the caller *is* the writer);
        passing a :class:`~repro.storage.snapshot.DatabaseSnapshot`
        runs against exactly that version.  ``epoch`` pins a specific
        *already published* epoch from the bounded snapshot history
        ring (:meth:`~repro.storage.database.Database.snapshot_at`) —
        evicted or future epochs raise
        :class:`~repro.errors.SnapshotEpochError`.  Snapshot queries
        never read the live relations and never mutate the shared
        program.
        """
        statement = parse(select_text + ";")[0]
        if not isinstance(statement, ast.SelectStatement):
            raise AmosError("query() expects a select statement")
        if epoch is not None:
            if snapshot not in (False, None):
                raise AmosError("pass either snapshot or epoch, not both")
            snapshot = self.amos.storage.snapshot_at(epoch)
        if snapshot is False or snapshot is None:
            return self._execute(statement)
        if snapshot is True:
            snapshot = self.amos.snapshot()
        return self._select(statement.query, snapshot=snapshot)

    def execute_readonly(self, script: str, snapshot=None, epoch=None):
        """Execute a script of ``select`` statements against a snapshot.

        Returns ``(snapshot, results)`` with one sorted row list per
        statement.  Any non-``select`` statement is rejected with
        :class:`AmosError` before anything runs.  When ``snapshot`` is
        None the latest *already published* snapshot is used — a single
        reference read, so this path is lock-free and safe to call from
        reader threads while a writer commits (the network server's
        ``query_ro`` op).  ``epoch`` instead pins one specific epoch
        from the bounded history ring — also lock-free (the ring tuple
        is replaced, never mutated) — so a sequence of calls can read
        one consistent version across intervening commits; an evicted
        or unpublished epoch raises
        :class:`~repro.errors.SnapshotEpochError`.  Note: with
        ``Database.auto_publish`` off and no explicit
        :meth:`AmosDatabase.snapshot` call, the latest published
        snapshot may be the empty epoch-0 one.
        """
        if epoch is not None:
            if snapshot is not None:
                raise AmosError("pass either snapshot or epoch, not both")
            snapshot = self.amos.storage.snapshot_at(epoch)
        if snapshot is None:
            snapshot = self.amos.storage.snapshot()
        statements = parse(script)
        for statement in statements:
            if not isinstance(statement, ast.SelectStatement):
                raise AmosError(
                    "read-only execution accepts only select statements, "
                    f"got {type(statement).__name__}"
                )
        results = [
            self._select(statement.query, snapshot=snapshot)
            for statement in statements
        ]
        return snapshot, results

    def get(self, name: str) -> object:
        """Value of an interface variable (without the colon)."""
        try:
            return self.iface[name]
        except KeyError:
            raise AmosError(f"unbound interface variable :{name}") from None

    def explain_query(self, select_text: str) -> str:
        """The compiled ObjectLog plan of a select, human-readable.

        Shows the clause(s) the compiler produced (one per DNF
        conjunct), each body in the statically optimized execution
        order (delta reads first, probes before scans), plus the base
        relations the query depends on.
        """
        from repro.objectlog.optimize import order_body

        statement = parse(select_text + ";")[0]
        if not isinstance(statement, ast.SelectStatement):
            raise AmosError("explain_query() expects a select statement")
        program = ProgramOverlay(self.amos.program)
        compiler = QueryCompiler(self.amos, self.iface, program=program)
        compiled = compiler.compile_select(statement.query, "_query")
        lines = []
        for index, clause in enumerate(compiled.clauses):
            lines.append(f"clause {index}: {clause.head!r} <-")
            for literal in order_body(clause.body, program):
                lines.append(f"    {literal!r}")
        influents = set()
        for clause in compiled.clauses:
            for literal in clause.pred_literals():
                if program.predicate(literal.pred).kind == "base":
                    influents.add(literal.pred)
                else:
                    influents |= program.base_influents(literal.pred)
        lines.append(f"base influents: {sorted(influents)}")
        return "\n".join(lines)

    # -- dispatch ------------------------------------------------------------------

    def _execute(self, statement: ast.Statement) -> object:
        if isinstance(statement, ast.CreateType):
            self.amos.create_type(statement.name, statement.under)
            return None
        if isinstance(statement, ast.CreateFunction):
            return self._create_function(statement)
        if isinstance(statement, ast.CreateRule):
            return self._create_rule(statement)
        if isinstance(statement, ast.CreateInstances):
            return self._create_instances(statement)
        if isinstance(statement, ast.UpdateStatement):
            return self._update(statement)
        if isinstance(statement, ast.SelectStatement):
            return self._select(statement.query)
        if isinstance(statement, ast.ActivateRule):
            params = tuple(self._eval_runtime(arg, {}) for arg in statement.args)
            self.amos.activate(statement.name, params)
            return None
        if isinstance(statement, ast.DeactivateRule):
            params = tuple(self._eval_runtime(arg, {}) for arg in statement.args)
            self.amos.deactivate(statement.name, params)
            return None
        if isinstance(statement, ast.BeginTransaction):
            self.amos.begin()
            return None
        if isinstance(statement, ast.CommitTransaction):
            self.amos.commit()
            return None
        if isinstance(statement, ast.RollbackTransaction):
            self.amos.rollback()
            return None
        if isinstance(statement, ast.DropStatement):
            if statement.kind == "type":
                self.amos.drop_type(statement.name)
            elif statement.kind == "function":
                self.amos.drop_function(statement.name)
            else:
                self.amos.drop_rule(statement.name)
            return None
        if isinstance(statement, ast.CallStatement):
            args = [self._eval_runtime(a, {}) for a in statement.call.args]
            return self.amos.call_procedure(statement.call.name, args)
        raise AmosError(f"cannot execute statement {statement!r}")

    # -- DDL -----------------------------------------------------------------------

    AGGREGATE_FUNCS = frozenset({"count", "sum", "min", "max", "avg"})

    def _create_function(self, statement: ast.CreateFunction) -> None:
        arg_types = [param.type_name for param in statement.params]
        if statement.body is None:
            self.amos.create_stored_function(
                statement.name, arg_types, [statement.result_type]
            )
            return
        if len(statement.body.exprs) != 1:
            raise CompileError(
                f"derived function {statement.name!r} must select exactly "
                "one expression"
            )
        # derived function: parameters need variable names for the body
        params = []
        for index, param in enumerate(statement.params):
            var_name = param.var_name or f"_p{index}"
            params.append(ast.VarDecl(param.type_name, var_name))
        expr = statement.body.exprs[0]
        if (
            isinstance(expr, ast.FunCall)
            and expr.name in self.AGGREGATE_FUNCS
            and expr.name not in self.amos.functions
        ):
            self._create_aggregate(statement, params, expr)
            return
        compiler = QueryCompiler(self.amos, self.iface)
        compiled = compiler.compile_select(statement.body, statement.name, params)
        self.amos.create_derived_function(
            statement.name, arg_types, [statement.result_type], compiled.clauses
        )

    def _create_aggregate(
        self,
        statement: ast.CreateFunction,
        params: List[ast.VarDecl],
        call: ast.FunCall,
    ) -> None:
        """``create function f(g...) -> t as select sum(expr) for each ...``

        Compiles the inner query into an auxiliary source predicate
        whose rows are ``(group..., witnesses..., value)`` — the
        witnesses are the for-each variables, preserving multiplicity
        under set semantics — then declares the aggregate over it.
        """
        if len(call.args) != 1:
            raise CompileError(
                f"aggregate {call.name!r} takes exactly one expression"
            )
        body = statement.body
        witnesses = tuple(ast.VarRef(decl.var_name) for decl in body.decls)
        source_query = ast.SelectQuery(
            witnesses + (call.args[0],), body.decls, body.pred
        )
        source_name = f"_src_{statement.name}"
        compiler = QueryCompiler(self.amos, self.iface)
        compiled = compiler.compile_select(source_query, source_name, params)
        arity = len(params) + len(witnesses) + 1
        self.amos.program.declare_derived(source_name, arity)
        for clause in compiled.clauses:
            self.amos.program.add_clause(clause)
        self.amos.create_aggregate_function(
            statement.name,
            [param.type_name for param in statement.params],
            [statement.result_type],
            call.name,
            source_name,
        )

    def _create_rule(self, statement: ast.CreateRule) -> None:
        compiler = QueryCompiler(self.amos, self.iface)
        condition_name = f"cnd_{statement.name}"
        compiled = compiler.compile_condition(
            statement.condition, condition_name, statement.params
        )
        action = self._compile_actions(statement.actions, compiled.head_vars)
        self.amos.create_rule(
            statement.name,
            compiled.clauses,
            action,
            n_params=len(statement.params),
            priority=statement.priority,
            semantics=statement.semantics or "strict",
            condition_name=condition_name,
            events=statement.events,
            aux_predicates=compiled.aux_predicates,
        )

    def _create_instances(self, statement: ast.CreateInstances) -> List[OID]:
        oids = []
        for name in statement.names:
            oid = self.amos.create_object(statement.type_name)
            self.iface[name] = oid
            oids.append(oid)
        return oids

    # -- actions ----------------------------------------------------------------------

    def _compile_actions(
        self, actions: Sequence[object], head_vars: List[str]
    ) -> Callable[[Row], None]:
        """Turn parsed rule actions into a per-row callable.

        The callable receives one condition row; its columns are bound
        to the condition head variables (rule parameters then for-each
        variables) — this is how data flows from condition to action
        through shared query variables (section 1).
        """

        def run(row: Row) -> None:
            env = dict(zip(head_vars, row))
            for action in actions:
                if isinstance(action, ast.ProcedureCall):
                    args = [self._eval_runtime(a, env) for a in action.args]
                    self.amos.call_procedure(action.name, args)
                elif isinstance(action, ast.UpdateAction):
                    args = [self._eval_runtime(a, env) for a in action.args]
                    value = self._eval_runtime(action.value, env)
                    self._apply_update(action.kind, action.function, args, value)
                else:  # pragma: no cover - parser only yields the two kinds
                    raise AmosError(f"cannot execute action {action!r}")

        return run

    # -- updates -------------------------------------------------------------------------

    def _update(self, statement: ast.UpdateStatement) -> None:
        args = [self._eval_runtime(a, {}) for a in statement.args]
        value = self._eval_runtime(statement.value, {})
        self._apply_update(statement.kind, statement.function, args, value)

    def _apply_update(
        self, kind: str, function: str, args: Sequence, value: object
    ) -> None:
        if kind == "set":
            self.amos.set_value(function, args, value)
        elif kind == "add":
            self.amos.add_value(function, args, value)
        elif kind == "remove":
            self.amos.remove_value(function, args, value)
        else:  # pragma: no cover
            raise AmosError(f"unknown update kind {kind!r}")

    # -- queries --------------------------------------------------------------------------

    def _select(self, query: ast.SelectQuery, snapshot=None) -> List[Row]:
        # auxiliary NOT-predicates go into a local overlay that is
        # dropped with it, so the shared program is never touched —
        # whether the select succeeds or fails, on or off the lock
        program = ProgramOverlay(self.amos.program)
        if snapshot is None:
            view = NewStateView(self.amos.storage)
        else:
            view = SnapshotView(snapshot)
        compiler = QueryCompiler(self.amos, self.iface, program=program)
        compiled = compiler.compile_select(query, "_select")
        evaluator = Evaluator(program, view)
        rows = set()
        for clause in compiled.clauses:
            plan = compile_plan(order_clause(clause, program), program)
            rows.update(plan.rows(evaluator))
        return sorted(rows, key=repr)

    # -- runtime expression evaluation ------------------------------------------------------

    def _eval_runtime(self, expr: ast.Expr, env: Dict[str, object]) -> object:
        """Evaluate a ground expression against the current database."""
        if isinstance(expr, ast.NumberLit):
            return expr.value
        if isinstance(expr, ast.StringLit):
            return expr.value
        if isinstance(expr, ast.BoolLit):
            return expr.value
        if isinstance(expr, ast.IfaceVar):
            if expr.name not in self.iface:
                raise AmosError(f"unbound interface variable :{expr.name}")
            return self.iface[expr.name]
        if isinstance(expr, ast.VarRef):
            if expr.name not in env:
                raise AmosError(
                    f"unbound variable {expr.name!r} in a runtime expression"
                )
            return env[expr.name]
        if isinstance(expr, ast.FunCall):
            args = [self._eval_runtime(a, env) for a in expr.args]
            value = self.amos.value(expr.name, *args)
            if value is None:
                raise AmosError(
                    f"{expr.name}({', '.join(map(repr, args))}) is undefined"
                )
            return value
        if isinstance(expr, ast.BinOp):
            left = self._eval_runtime(expr.left, env)
            right = self._eval_runtime(expr.right, env)
            return _OPS[expr.op](left, right)
        if isinstance(expr, ast.UnaryMinus):
            return -self._eval_runtime(expr.operand, env)
        raise AmosError(f"cannot evaluate expression {expr!r}")
