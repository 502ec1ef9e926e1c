"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
applications can catch library failures with a single ``except`` clause
while still being able to discriminate between subsystems.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class StorageError(ReproError):
    """Base class for storage-layer errors."""


class SchemaError(StorageError):
    """A relation, column, or index was declared or used inconsistently."""


class ArityError(SchemaError):
    """A tuple's arity does not match its relation's declared arity."""


class DuplicateRelationError(SchemaError):
    """A relation with the same name already exists in the database."""

    def __init__(self, name: str) -> None:
        super().__init__(f"relation {name!r} already exists")
        self.name = name


class UnknownRelationError(SchemaError):
    """A relation name was referenced but never declared."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown relation {name!r}")
        self.name = name


class TransactionError(StorageError):
    """Illegal use of the transaction API (nested begin, commit w/o begin...)."""


class WalError(StorageError):
    """Illegal use or unavailable state of the write-ahead log.

    Notably raised by every append after a previous append failed: the
    log is then *poisoned* (the in-memory state contains a commit that
    never became durable), and the only safe continuation is a restart
    with :func:`repro.storage.wal.recover`.
    """


class WalCorruptionError(WalError):
    """A WAL segment contains an invalid frame outside the torn tail.

    A torn final record (crash mid-append) is truncated silently; a bad
    magic number, checksum, or sequence anywhere else means the log
    cannot be trusted and recovery refuses to proceed.
    """


class SnapshotEpochError(StorageError):
    """A pinned snapshot epoch is not addressable.

    Raised by :meth:`~repro.storage.database.Database.snapshot_at` when
    the requested epoch was evicted from the bounded snapshot history
    ring (older than the last ``snapshot_history`` publications) or has
    not been published yet.
    """


class DeltaError(ReproError):
    """A delta-set invariant was violated."""


class ObjectLogError(ReproError):
    """Base class for ObjectLog (typed Datalog) errors."""


class UnsafeClauseError(ObjectLogError):
    """A clause cannot be evaluated safely.

    Raised when no literal ordering exists that binds every variable
    before it is needed by a builtin, a negated literal, or the head.
    """


class UnknownPredicateError(ObjectLogError):
    """A predicate was referenced but has neither facts nor clauses."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown predicate {name!r}")
        self.name = name


class RecursionNotSupportedError(ObjectLogError):
    """The dependency graph of a condition contains a cycle.

    The paper's propagation algorithm assumes a loop-free network
    (section 5, footnote 1); recursion is explicitly out of scope.
    """


class AmosError(ReproError):
    """Base class for data-model (types/functions/objects) errors."""


class UnknownTypeError(AmosError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown type {name!r}")
        self.name = name


class UnknownFunctionError(AmosError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown function {name!r}")
        self.name = name


class TypeCheckError(AmosError):
    """A value or object did not match a declared type signature."""


class AmosqlError(ReproError):
    """Base class for AMOSQL front-end errors."""


class LexError(AmosqlError):
    """The lexer hit a character sequence it cannot tokenize."""

    def __init__(self, message: str, position: int, line: int) -> None:
        super().__init__(f"{message} (line {line}, offset {position})")
        self.position = position
        self.line = line


class ParseError(AmosqlError):
    """The parser found a syntactically invalid statement."""


class CompileError(AmosqlError):
    """The AMOSQL-to-ObjectLog compiler rejected a semantically bad query."""


class ServerError(ReproError):
    """Base class for network-server (repro.server) errors."""


class ProtocolError(ServerError):
    """A wire frame was malformed, truncated, or oversized."""


class RemoteError(ServerError):
    """An error reported by the server for a client request.

    ``remote_type`` preserves the server-side exception class name so
    clients can discriminate (e.g. ``"TransactionError"``).
    """

    def __init__(self, message: str, remote_type: "str | None" = None) -> None:
        super().__init__(
            f"{remote_type}: {message}" if remote_type else message
        )
        self.remote_type = remote_type
        self.remote_message = message


class ReplicationError(ServerError):
    """Base class for replication (repro.replication) errors."""


class ReplicaReadOnlyError(ReplicationError):
    """A write/transactional op was sent to a read replica.

    The message names the primary's address so clients (and humans)
    know where writes go.
    """


class ReplicaLagError(ReplicationError):
    """A freshness-bounded read found every eligible replica lagging.

    Raised by ``AmosClient`` when ``min_epoch`` is not satisfied within
    the freshness timeout; carries the freshest epoch actually seen so
    callers can decide to retry, relax the bound, or fall back to the
    primary themselves.
    """

    def __init__(self, message: str, freshest_epoch: "int | None" = None) -> None:
        super().__init__(message)
        self.freshest_epoch = freshest_epoch


class RuleError(ReproError):
    """Base class for rule-system errors."""


class UnknownRuleError(RuleError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unknown rule {name!r}")
        self.name = name


class RuleActivationError(RuleError):
    """A rule was activated/deactivated inconsistently."""


class PropagationError(RuleError):
    """The propagation network was malformed or propagation failed."""

