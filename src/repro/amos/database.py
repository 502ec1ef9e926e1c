"""AmosDatabase: the object-relational facade (the paper's AMOS).

Ties together the storage engine, the ObjectLog program, the type
system, the function catalog, and the rule manager into the programmer
API that the AMOSQL interpreter (and any Python application) talks to:

* types and objects (``create type item`` / ``create item instances``),
* stored / derived / foreign functions and procedures,
* functional updates (``set quantity(:item1) = 5000``) that are
  logged, delta-accumulated, and rolled back exactly as section 4.1
  prescribes,
* CA rules with deferred, incrementally monitored conditions.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.amos.functions import FunctionDef, FunctionSignature, ProcedureDef
from repro.amos.oid import OID
from repro.amos.types import TypeDef, TypeSystem
from repro.algebra.oldstate import NewStateView
from repro.errors import AmosError, TransactionError, TypeCheckError, UnknownFunctionError
from repro.objectlog.clause import HornClause
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.program import Program
from repro.rules.manager import RuleManager
from repro.rules.rule import Rule
from repro.storage.database import Database

Row = Tuple

__all__ = ["AmosDatabase"]


class AmosDatabase:
    """An active object-relational database in the style of AMOS.

    Parameters
    ----------
    mode:
        Rule condition monitoring strategy: ``"incremental"``
        (partial differencing, the paper's algorithm) or ``"naive"``
        (full recomputation baseline).
    shared_nodes:
        Derived function names kept as shared intermediate nodes in the
        propagation network (section 7.1).
    explain:
        Record check-phase reports (see :mod:`repro.rules.explain`).
    observe:
        (via ``manager_options``) collect per-commit metrics and span
        traces; read them with :meth:`last_check_stats` and
        :meth:`last_check_trace` (see :mod:`repro.obs` and
        ``docs/OBSERVABILITY.md``).
    """

    def __init__(
        self,
        mode: str = "incremental",
        shared_nodes: FrozenSet[str] = frozenset(),
        explain: bool = False,
        **manager_options,
    ) -> None:
        self.storage = Database()
        self.program = Program()
        self.types = TypeSystem()
        self.functions: Dict[str, FunctionDef] = {}
        self.procedures: Dict[str, ProcedureDef] = {}
        self.rules = RuleManager(
            self.storage,
            self.program,
            mode=mode,
            shared_nodes=shared_nodes,
            explain=explain,
            **manager_options,
        )
        self._next_oid = 1
        #: per stored function: its resolved write checks (``_writer``)
        self._writers: Dict[str, _Writer] = {}
        #: per rule: (condition predicate, auxiliary NOT-predicates)
        self._rule_artifacts: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
        #: the attached write-ahead log (None = not durable); see
        #: :meth:`open_wal` / :meth:`attach_wal` and docs/DURABILITY.md
        self.wal = None
        self._wal_last_epoch = 0

    @property
    def shards(self) -> int:
        # frozen benchmark, dropped by the benchmark-only PR
        return 1

    def close(self) -> None:
        """Release long-lived resources: the attached WAL.

        Safe to call on a database that never attached one; the
        database itself stays usable afterwards.
        """
        self.detach_wal()

    # -- types and objects -------------------------------------------------------

    def create_type(self, name: str, under: Sequence[str] = ()) -> TypeDef:
        """``create type <name> [under <supertypes>]``."""
        if self.program.has(name):
            raise AmosError(f"name {name!r} is already in use")
        type_def = self.types.create(name, tuple(under))
        self.storage.create_relation(name, 1, column_names=("oid",))
        self.program.declare_base(name, 1)
        return type_def

    def create_object(self, type_name: str) -> OID:
        """Create a surrogate object and enter it into all its extents."""
        if not self.types.is_user_type(type_name):
            raise TypeCheckError(f"cannot instantiate non-user type {type_name!r}")
        oid = OID(self._next_oid, type_name)
        self._next_oid += 1
        with self.storage._implicit_transaction():
            for extent in sorted(self.types.supertype_closure(type_name)):
                self.storage.insert(extent, (oid,))
            self.rules.maybe_immediate_check()
        return oid

    def create_objects(self, type_name: str, count: int) -> List[OID]:
        return [self.create_object(type_name) for _ in range(count)]

    def delete_object(self, oid: OID) -> None:
        """Remove an object from its extents and all stored functions."""
        with self.storage._implicit_transaction():
            for extent in sorted(self.types.supertype_closure(oid.type_name)):
                self.storage.delete(extent, (oid,))
            for function in self.functions.values():
                if function.kind != "stored":
                    continue
                relation = self.storage.relation(function.name)
                doomed = [row for row in relation.rows() if oid in row]
                for row in doomed:
                    self.storage.delete(function.name, row)
            self.rules.maybe_immediate_check()

    def objects_of(self, type_name: str) -> FrozenSet[OID]:
        return frozenset(row[0] for row in self.storage.relation(type_name).rows())

    # -- functions ------------------------------------------------------------------

    def create_stored_function(
        self,
        name: str,
        arg_types: Sequence[str],
        result_types: Sequence[str] = ("integer",),
    ) -> FunctionDef:
        """``create function quantity(item) -> integer``."""
        signature = self._signature(name, arg_types, result_types)
        if signature.n_args == 0:
            raise AmosError(f"stored function {name!r} needs at least one argument")
        relation = self.storage.create_relation(name, signature.arity)
        relation.create_index(tuple(range(signature.n_args)))
        self.program.declare_base(name, signature.arity)
        function = FunctionDef(signature, "stored")
        self.functions[name] = function
        return function

    def create_derived_function(
        self,
        name: str,
        arg_types: Sequence[str],
        result_types: Sequence[str],
        clauses: Iterable[HornClause] = (),
    ) -> FunctionDef:
        """A derived function (relational view) from Horn clauses."""
        signature = self._signature(name, arg_types, result_types)
        self.program.declare_derived(name, signature.arity)
        for clause in clauses:
            self.program.add_clause(clause)
        function = FunctionDef(signature, "derived")
        self.functions[name] = function
        return function

    def add_clause(self, clause: HornClause) -> None:
        self.program.add_clause(clause)

    def create_foreign_function(
        self,
        name: str,
        arg_types: Sequence[str],
        result_types: Sequence[str],
        fn: Callable,
    ) -> FunctionDef:
        """A function computed in Python (the paper's Lisp/C foreign fns)."""
        signature = self._signature(name, arg_types, result_types)
        self.program.declare_foreign(name, signature.arity, signature.n_args, fn)
        function = FunctionDef(signature, "foreign")
        self.functions[name] = function
        return function

    def create_aggregate_function(
        self,
        name: str,
        arg_types: Sequence[str],
        result_types: Sequence[str],
        func: str,
        source: str,
    ) -> FunctionDef:
        """A grouped aggregate function (section-8 extension).

        ``source`` names an existing predicate of arity
        ``len(arg_types) + w + 1`` whose leading columns are the group
        (this function's arguments), the trailing column the value, and
        any columns between them witnesses that preserve multiplicity.
        ``func`` is one of count/sum/min/max/avg.
        """
        signature = self._signature(name, arg_types, result_types)
        self.program.declare_aggregate(name, source, signature.n_args, func)
        function = FunctionDef(signature, "aggregate")
        self.functions[name] = function
        return function

    def create_procedure(
        self, name: str, arg_types: Sequence[str], fn: Callable
    ) -> ProcedureDef:
        """A side-effecting procedure usable in rule actions."""
        if name in self.procedures:
            raise AmosError(f"procedure {name!r} already exists")
        procedure = ProcedureDef(name, tuple(arg_types), fn)
        self.procedures[name] = procedure
        return procedure

    def call_procedure(self, name: str, args: Sequence) -> object:
        try:
            procedure = self.procedures[name]
        except KeyError:
            raise UnknownFunctionError(name) from None
        if len(args) != procedure.n_args:
            raise AmosError(
                f"procedure {name!r} takes {procedure.n_args} argument(s), "
                f"got {len(args)}"
            )
        return procedure.fn(*args)

    def function(self, name: str) -> FunctionDef:
        try:
            return self.functions[name]
        except KeyError:
            raise UnknownFunctionError(name) from None

    def _signature(
        self, name: str, arg_types: Sequence[str], result_types: Sequence[str]
    ) -> FunctionSignature:
        if name in self.functions or self.program.has(name):
            raise AmosError(f"name {name!r} is already in use")
        for type_name in tuple(arg_types) + tuple(result_types):
            if not self.types.exists(type_name):
                raise TypeCheckError(f"unknown type {type_name!r} in {name!r}")
        return FunctionSignature(name, tuple(arg_types), tuple(result_types))

    # -- functional updates -------------------------------------------------------------

    # Each write below is one relation change and one Δ fold per row
    # (Database._apply).  Inside an open transaction it calls the
    # storage layer directly; only a write outside one opens (and
    # commits) an implicit transaction around itself.

    def set_value(self, name: str, args: Sequence, *results) -> None:
        """``set f(args) = value``: replace the mapping for ``args``.

        Produces the physical events the paper describes (section 4.1):
        first the removal of the old value tuple(s), then the insertion
        of the new one — so update/counter-update nets to nothing.
        """
        writer = self._writer(name)
        row = writer.row(args, results)
        if self.storage._in_transaction:
            self._replace(writer, row[: writer.n_args], row)
        else:
            with self.storage._implicit_transaction():
                self._replace(writer, row[: writer.n_args], row)

    def add_value(self, name: str, args: Sequence, *results) -> None:
        """``add f(args) = value``: add one mapping (multi-valued fns)."""
        self._write_row(name, args, results, True)

    def remove_value(self, name: str, args: Sequence, *results) -> None:
        """``remove f(args) = value``: remove one specific mapping."""
        self._write_row(name, args, results, False)

    def clear_value(self, name: str, args: Sequence) -> None:
        """Remove every mapping of ``f(args)``."""
        writer = self._writer(name)
        key = tuple(args)
        if self.storage._in_transaction:
            self._replace(writer, key, None)
        else:
            with self.storage._implicit_transaction():
                self._replace(writer, key, None)

    def _replace(self, writer: "_Writer", key: Row, row: Optional[Row]) -> None:
        """Delete every row of ``writer``'s function under ``key``, then
        insert ``row`` (none for ``clear_value``)."""
        storage = self.storage
        name = writer.name
        for existing in storage.relation(name).lookup(writer.key_columns, key):
            storage._apply(name, existing, False)
        if row is not None:
            storage._apply(name, row, True)
        self.rules.maybe_immediate_check()

    def _write_row(self, name: str, args: Sequence, results: Sequence, insert: bool) -> None:
        row = self._writer(name).row(args, results)
        storage = self.storage
        if storage._in_transaction:
            storage._apply(name, row, insert)
            self.rules.maybe_immediate_check()
        else:
            with storage._implicit_transaction():
                storage._apply(name, row, insert)
                self.rules.maybe_immediate_check()

    def _writer(self, name: str) -> "_Writer":
        """The resolved write checks of stored function ``name``, built
        on its first write (``drop_function`` forgets them)."""
        writer = self._writers.get(name)
        if writer is None:
            writer = self._writers[name] = _Writer(self._stored(name), self.types)
        return writer

    def _stored(self, name: str) -> FunctionDef:
        function = self.function(name)
        if function.kind != "stored":
            raise AmosError(f"{name!r} is not a stored function")
        return function

    # -- snapshots ------------------------------------------------------------------------

    @property
    def snapshot_epoch(self) -> int:
        """Epoch of the latest published snapshot (monotone counter)."""
        return self.storage.snapshot_epoch

    def snapshot(self):
        """Publish (if the state changed) and return the current snapshot.

        Must be called from the writer's side — outside any transaction
        and, in a threaded setting, while holding whatever lock guards
        commits.  Lock-free readers should instead pick up the latest
        *already published* snapshot via ``storage.snapshot()``, which
        is a single reference read.
        """
        return self.storage.publish_snapshot()

    # -- queries --------------------------------------------------------------------------

    def evaluator(self, snapshot=None) -> Evaluator:
        """A fresh evaluator over the current database state.

        Pass a :class:`~repro.storage.snapshot.DatabaseSnapshot` (or
        ``snapshot=True`` for the latest) to evaluate against frozen
        committed state instead of the live relations.
        """
        if snapshot is None or snapshot is False:
            return Evaluator(self.program, NewStateView(self.storage))
        from repro.storage.snapshot import SnapshotView

        if snapshot is True:
            snapshot = self.snapshot()
        return Evaluator(self.program, SnapshotView(snapshot))

    def get_values(self, name: str, args: Sequence) -> FrozenSet[Tuple]:
        """All result tuples of ``f(args)`` (any function kind)."""
        self.function(name)  # an unknown function raises AmosError
        n_args = len(args)
        return frozenset(
            row[n_args:] for row in self.evaluator().rows(name, enumerate(args))
        )

    def value(self, name: str, *args) -> Optional[object]:
        """The single result of ``f(args)``; None when undefined.

        Raises :class:`AmosError` when the function is multi-valued for
        these arguments — use :meth:`get_values` then.
        """
        values = self.get_values(name, args)
        if not values:
            return None
        if len(values) > 1:
            raise AmosError(
                f"{name}{tuple(args)!r} has {len(values)} values; "
                "use get_values()"
            )
        (row,) = values
        return row[0] if len(row) == 1 else row

    def extension(self, name: str, snapshot=None) -> FrozenSet[Row]:
        """The full extension of any predicate/function.

        ``snapshot`` as in :meth:`evaluator`: evaluate against frozen
        committed state instead of the live relations.
        """
        return self.evaluator(snapshot=snapshot).extension(name)

    # -- rules ------------------------------------------------------------------------------

    def create_rule(
        self,
        name: str,
        condition_clauses: Iterable[HornClause],
        action: Callable,
        n_params: int = 0,
        priority: int = 0,
        semantics: str = "strict",
        action_mode: str = "tuple",
        condition_name: Optional[str] = None,
        events=None,
        aux_predicates: Sequence[str] = (),
    ) -> Rule:
        """Register a CA rule from raw condition clauses.

        The condition clauses must all share one head predicate (the
        generated ``cnd_<rule>`` function); it is declared here.  Most
        users go through the AMOSQL front end instead
        (:mod:`repro.amosql`).
        """
        clauses = list(condition_clauses)
        if not clauses:
            raise AmosError(f"rule {name!r} needs at least one condition clause")
        condition = condition_name or f"cnd_{name}"
        heads = {clause.head.pred for clause in clauses}
        if heads != {condition}:
            raise AmosError(
                f"condition clauses of {name!r} must all have head "
                f"{condition!r}, got {sorted(heads)}"
            )
        arity = clauses[0].head.arity
        self.program.declare_derived(condition, arity)
        for clause in clauses:
            self.program.add_clause(clause)
        rule = Rule(
            name,
            condition,
            action,
            n_params=n_params,
            priority=priority,
            semantics=semantics,
            action_mode=action_mode,
            events=events,
        )
        created = self.rules.create_rule(rule)
        self._rule_artifacts[name] = (condition, tuple(aux_predicates))
        return created

    def drop_rule(self, name: str) -> None:
        """``drop rule <name>``: deactivate, unregister, and clean up the
        generated condition function and auxiliary NOT-predicates."""
        self.rules.drop_rule(name)
        condition, aux_predicates = self._rule_artifacts.pop(
            name, (f"cnd_{name}", ())
        )
        if self.program.has(condition):
            self.program.drop(condition)
        for aux in aux_predicates:
            if self.program.has(aux):
                self.program.drop(aux)

    def drop_function(self, name: str) -> None:
        """``drop function <name>``: rejected while anything refers to it."""
        function = self.function(name)
        for pred_name in self.program.names():
            if pred_name == name:
                continue
            definition = self.program.predicate(pred_name)
            if getattr(definition, "source", None) == name:
                raise AmosError(
                    f"cannot drop {name!r}: aggregate {pred_name!r} uses it"
                )
            for clause in self.program.clauses_of(pred_name):
                if name in clause.referenced_predicates():
                    raise AmosError(
                        f"cannot drop {name!r}: {pred_name!r} references it"
                    )
        self.program.drop(name)
        del self.functions[name]
        self._writers.pop(name, None)
        if function.kind == "stored":
            self.storage.drop_relation(name)

    def drop_type(self, name: str) -> None:
        """``drop type <name>``: rejected while instances or users exist."""
        if not self.types.is_user_type(name):
            raise AmosError(f"{name!r} is not a user type")
        if self.objects_of(name):
            raise AmosError(f"cannot drop type {name!r}: extent is not empty")
        for function in self.functions.values():
            signature = function.signature
            if name in signature.arg_types or name in signature.result_types:
                raise AmosError(
                    f"cannot drop type {name!r}: function "
                    f"{function.name!r} uses it"
                )
        for pred_name in self.program.names():
            for clause in self.program.clauses_of(pred_name):
                if name in clause.referenced_predicates():
                    raise AmosError(
                        f"cannot drop type {name!r}: {pred_name!r} "
                        "references its extent"
                    )
        self.types.drop(name)
        self.program.drop(name)
        self.storage.drop_relation(name)

    def activate(self, rule_name: str, params: Tuple = ()) -> None:
        self.rules.activate(rule_name, params)
        if self.wal is not None:
            self.wal.append_rule("activate", rule_name, params)

    def deactivate(self, rule_name: str, params: Tuple = ()) -> None:
        self.rules.deactivate(rule_name, params)
        if self.wal is not None:
            self.wal.append_rule("deactivate", rule_name, params)

    # -- durability (write-ahead Δ-log) ------------------------------------------------------

    def open_wal(self, directory: str, **wal_options):
        """Make this database durable: recover ``directory`` into it,
        then log every later commit there (see docs/DURABILITY.md).

        Call right after the schema bootstrap (types, functions, rules,
        procedures) — the log stores only data and monitor changes, the
        schema is code.  An empty/new directory starts a fresh log; an
        existing one is replayed first, so this is also the restart
        path.  Returns the :class:`~repro.storage.wal.RecoveryReport`.
        """
        from repro.storage import wal as wal_module

        wal_module.recover(directory, amos=self, **wal_options)
        return self.wal.last_recovery

    def attach_wal(self, wal) -> None:
        """Attach an open :class:`~repro.storage.wal.WriteAheadLog`.

        From here on every committed transaction appends one fsync'd
        commit record BEFORE ``commit()`` returns (= before the caller
        can ack), and rule activations/deactivations and relation
        create/drop append rule/catalog records.  Read-only commits
        (no physical events, no epoch movement) are not logged.
        """
        if self.wal is not None:
            raise AmosError("a write-ahead log is already attached")
        self.wal = wal
        self._wal_last_epoch = self.storage.snapshot_epoch
        self.storage.add_commit_listener(self._wal_on_commit)
        self.storage.add_catalog_listener(self._wal_on_catalog)

    def detach_wal(self) -> None:
        """Stop logging and close the attached log (tests, shutdown)."""
        if self.wal is None:
            return
        self.storage.remove_commit_listener(self._wal_on_commit)
        self.storage.remove_catalog_listener(self._wal_on_catalog)
        self.wal.close()
        self.wal = None

    def _wal_on_commit(self, committed) -> None:
        if not committed.events and committed.epoch <= self._wal_last_epoch:
            return  # read-only commit: nothing to make durable
        self.wal.append_commit(committed.epoch, committed.deltas)
        self._wal_last_epoch = committed.epoch

    def _wal_on_catalog(self, op: str, relation) -> None:
        self.wal.append_catalog(
            op, relation.name, relation.arity, relation.column_names
        )

    def reserve_oids(self, rows: Optional[Iterable[Row]] = None) -> None:
        """Allocate new OIDs strictly above every OID in ``rows``
        (default: every stored row).

        The one high-water scan: :meth:`load_data` runs it over the
        stored rows, log replay also over every Δ⁺ and Δ⁻ row it
        applies — an object created and later deleted leaves no row
        behind, but its OID must still never be issued again.
        """
        if rows is None:
            rows = (
                row
                for name in self.storage.relation_names()
                for row in self.storage.relation(name).rows()
            )
        for row in rows:
            for value in row:
                if isinstance(value, OID) and value.id >= self._next_oid:
                    self._next_oid = value.id + 1

    # -- persistence ------------------------------------------------------------------------

    def save_data(self, path: str) -> None:
        """Dump all stored data (extents + stored functions) to JSON.

        Schema and rules are code: re-create them through the API or an
        AMOSQL script, then :meth:`load_data`.
        """
        from repro.storage import persistence

        persistence.save(self.storage, path)

    def load_data(self, path: str) -> int:
        """Restore data saved by :meth:`save_data` into this schema.

        The file becomes one net Δ-map against the current state,
        applied beneath the rule machinery at the next epoch — logged
        first when a write-ahead log is attached, so a restart recovers
        the loaded state.  The monitoring engine is then re-baselined
        (nothing fires for the load itself) and the OID counter advances
        past the highest restored OID so new objects never collide with
        reloaded ones.  Returns the number of rows loaded.
        """
        from repro.storage import persistence

        if self.storage.in_transaction:
            raise TransactionError("load_data inside a transaction")
        snapshot = persistence.read(path)
        deltas = persistence.diff(self.storage, snapshot)
        epoch = self.storage.snapshot_epoch + 1
        if self.wal is not None:
            self.wal.append_commit(epoch, deltas)
            self._wal_last_epoch = epoch
        self.storage.apply_committed(deltas, epoch)
        self.rules.resync_engine()
        self.reserve_oids()
        return sum(len(payload["rows"]) for payload in snapshot["relations"].values())

    def snapshot_extensions(self) -> Dict[str, List[str]]:
        """A comparable fingerprint of every base relation's extension.

        Maps relation name to the sorted ``repr`` of each row — two
        databases built the same way have byte-identical snapshots, so
        equivalence tests (e.g. concurrent-server vs. sequential
        in-process, ``tests/server``) can compare whole states directly.
        """
        return {
            name: sorted(repr(row) for row in self.storage.relation(name).rows())
            for name in self.storage.relation_names()
        }

    # -- observability ----------------------------------------------------------------------

    def last_check_stats(self):
        """Metrics of the most recent commit's check phase.

        Requires ``AmosDatabase(observe=True)``; returns a dict with
        ``counters`` / ``gauges`` / ``histograms`` plus a ``derived``
        summary (edges fired, tuple flow, probe/scan ratio, wave-front
        peak), or None before the first observed check phase.
        """
        return self.rules.last_check_stats()

    def last_check_trace(self):
        """The ``check_phase`` span tree of the most recent commit.

        Requires ``observe=True`` (or an externally installed tracer);
        render it with :func:`repro.obs.render_trace`.
        """
        return self.rules.last_check_trace

    # -- transactions -----------------------------------------------------------------------

    def transaction(self):
        """``with amos.transaction(): ...`` — deferred rules run at commit."""
        return self.storage.transaction()

    def begin(self) -> None:
        self.storage.begin()

    def commit(self) -> None:
        self.storage.commit()

    def rollback(self) -> None:
        self.storage.rollback()

    def __repr__(self) -> str:
        return (
            f"AmosDatabase(types={len(self.types.user_types())}, "
            f"functions={len(self.functions)}, mode={self.rules.mode!r})"
        )


class _Writer:
    """A stored function's write checks, resolved once per signature:
    one :meth:`TypeSystem.checker` per argument and result column."""

    __slots__ = ("name", "n_args", "n_results", "key_columns", "_checks")

    def __init__(self, function: FunctionDef, types: TypeSystem) -> None:
        signature = function.signature
        self.name = signature.name
        self.n_args = signature.n_args
        self.n_results = signature.n_results
        self.key_columns = tuple(range(signature.n_args))
        self._checks = tuple(
            types.checker(type_name)
            for type_name in signature.arg_types + signature.result_types
        )

    def row(self, args: Sequence, results: Sequence) -> Row:
        """The stored row ``args + results``, arity- and type-checked."""
        if len(args) != self.n_args:
            raise AmosError(
                f"function {self.name!r} takes {self.n_args} "
                f"argument(s), got {len(args)}"
            )
        if len(results) != self.n_results:
            raise AmosError(
                f"function {self.name!r} yields {self.n_results} "
                f"result(s), got {len(results)}"
            )
        row = tuple(args) + tuple(results)
        for check, value in zip(self._checks, row):
            check(value)
        return row
