"""Epoch-consistent read replicas (docs/REPLICATION.md).

The write-ahead Δ-log (:mod:`repro.storage.wal`) is a complete,
DBSP-style representation of the primary's committed history: one
record per commit (net Δ-set + snapshot epoch + group boundary), plus
rule and catalog records.  Replication ships exactly that stream over
the wire:

* the primary's :class:`ReplicationHub` fans live WAL records out to N
  subscribers — each subscriber is served by its own
  :class:`~repro.storage.wal.WalTailer` reading sealed frames straight
  off disk, so streaming NEVER takes the engine lock;
* a :class:`ReplicaServer` appends every received record verbatim to
  its *own* WAL copy (log-then-apply), replays it through the same
  :func:`~repro.storage.wal.apply_record` crash recovery loops over,
  and so publishes a snapshot at exactly the primary's commit epoch —
  readers see whole epochs or nothing;
* the replica serves the existing lock-free ``query_ro`` protocol and
  refuses writes with a redirect to the primary;
* :class:`~repro.server.client.AmosClient` fans reads out across
  ``replicas=[...]`` with an optional ``min_epoch=`` freshness bound.

A replica killed mid-apply recovers from its own WAL copy and resumes
the stream from its last durable LSN (the handshake negotiates the
resume point), so replication inherits the crash-safety story of
``docs/DURABILITY.md`` wholesale.
"""

from repro.replication.hub import ReplicationHub
from repro.replication.replica import (
    REPLICA_FAULT_POINTS,
    ReplicaServer,
    serve_replica,
)

__all__ = [
    "ReplicationHub",
    "ReplicaServer",
    "REPLICA_FAULT_POINTS",
    "serve_replica",
]
