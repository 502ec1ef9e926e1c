"""Storage substrate: relations, indexes, transactions recorded as one
net Δ-map each, versioned snapshots, JSON data persistence, and the
durable write-ahead Δ-log (``repro.storage.wal``)."""

from repro.storage import persistence, wal
from repro.storage.database import CommittedTransaction, Database
from repro.storage.index import HashIndex
from repro.storage.relation import BaseRelation
from repro.storage.snapshot import DatabaseSnapshot, SnapshotView
from repro.storage.wal import RecoveryReport, WalRecord, WriteAheadLog, recover

__all__ = [
    "persistence",
    "wal",
    "CommittedTransaction",
    "Database",
    "HashIndex",
    "BaseRelation",
    "DatabaseSnapshot",
    "SnapshotView",
    "WalRecord",
    "WriteAheadLog",
    "RecoveryReport",
    "recover",
]
