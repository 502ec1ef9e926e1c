"""The sharded monitoring engine: parallel per-shard propagation.

:class:`ShardedEngine` is an :class:`~repro.rules.engines.IncrementalEngine`
whose ``process`` can fan each check-phase wave out to N worker
processes (:mod:`repro.shard.worker`), each running the SAME compiled
batch propagation over one hash partition of the wave's Δ-map, and
folds the per-shard condition deltas back into one coherent result at
the merge barrier.

Why per-shard results merge exactly (docs/SHARDING.md has the long
form): every partial differential is *linear* in its Δ operand — the
Δ-restricted literal joins against full database state, which every
worker holds in its entirety (copy-on-write fork).  Splitting the base
Δ row-wise therefore splits every node's delta row-wise, and the §7.2
negative guard makes per-node plus/minus globally disjoint (a "+" row
is derivable in the new state, a guarded "−" row provably is not), so
no cross-shard delta-union cancellation can occur: the merge is a
plain union, independent of shard order, bit-identical to the serial
run.  Aggregate edges recompute touched groups exactly from full
state, so duplicated cross-shard group deltas merge idempotently.
This argument needs the §7.2 negative guard (engines always run it;
only a bare :class:`~repro.rules.propagation.Propagator` can switch it
off) and is pinned end to end by the sharded-≡-serial oracle
(``tests/oracle/test_shard_equivalence.py``).

**Opt-in.**  ``RuleManager`` builds this engine only for an explicit
integer ``shards=N > 1``; the default check phase is the plain
:class:`~repro.rules.engines.IncrementalEngine` (docs/SHARDING.md has
the measurements behind that).

**Persistent pool + replica sync.**  The worker pool forks once (at
the first fanned-out phase) and survives across commits.  The engine
registers a commit listener at construction — BEFORE any WAL attaches,
so it runs first — capturing every committed transaction's net
physical Δ (the WAL's canonical delta-set encoding) into a bounded
backlog; at the next fanned-out phase start the backlog ships to the
workers with an epoch handshake (:meth:`ShardPool.sync`).  A worker
that died between commits or mid-sync is respawned in place from the
leader's current memory and the commit proceeds.  The pool is
*discarded* (next phase re-forks) only when its replicas could be
wrong or the network changed: a mid-wave failure, waves applied for a
transaction that never committed (rollback after an immediate-mode
phase, an aborted check phase), a rule-set :meth:`rebuild`, a catalog
create/drop, or sync-backlog overflow.

**Adaptive serial-vs-fanout policy.**  ``policy="auto"`` (the default)
decides per transaction, at the phase's first wave, whether fanning
out can pay: the wave must carry at least ``auto_min_rows`` Δ rows AND
spread over ≥ 2 partitions.  Small/churn transactions — the paper's
Fig. 6 regime — take the serial path with zero pool traffic.  Pin with
``policy="fanout"`` (always fan out, the oracle/fault-test mode) or
``policy="serial"`` (never fan out).

``shards=1`` never forks and never partitions: it IS the serial engine
(``process`` delegates straight to the superclass), so that path stays
bit-for-bit the plain engine's behaviour.
"""

from __future__ import annotations

import os
import time
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.algebra.delta import DeltaSet, MutableDelta
from repro.errors import ShardError
from repro.obs import metrics
from repro.objectlog.program import Program
from repro.rules.engines import IncrementalEngine
from repro.rules.propagation import PropagationTrace
from repro.shard.partitioner import HashPartitioner
from repro.shard.worker import ShardPool
from repro.storage.database import Database

__all__ = ["ShardedEngine", "POLICIES"]

#: serial-vs-fanout routing policies (docs/SHARDING.md)
POLICIES = ("auto", "fanout", "serial")

#: auto policy: minimum Δ rows in the phase's first wave to fan out
DEFAULT_AUTO_MIN_ROWS = 1024

#: committed transactions the sync backlog holds before the pool is
#: discarded as cheaper to re-fork than to catch up
DEFAULT_SYNC_BACKLOG_LIMIT = 256


class ShardedEngine(IncrementalEngine):
    """Partial differencing fanned out over a persistent worker pool.

    Parameters beyond :class:`IncrementalEngine`'s:

    shards:
        Worker count.  1 = serial (no fork, the plain path bit-for-bit).
    policy:
        ``"auto"`` (default: per-transaction serial-vs-fanout from Δ
        size and partition spread), ``"fanout"`` (always fan out) or
        ``"serial"`` (never fan out — the pool never forks).
    auto_min_rows:
        The auto policy's fan-out floor: a phase whose first wave
        carries fewer Δ rows routes serial.
    key_columns:
        Optional ``{relation: columns}`` routing-key overrides for the
        :class:`~repro.shard.partitioner.HashPartitioner` (default:
        column 0, the subject OID).
    wave_timeout:
        Leader-side seconds to wait for a worker's sync ack or wave
        result before declaring it dead (None = wait forever).
    sync_backlog_limit:
        Committed transactions buffered for replica sync before the
        pool is discarded and re-forked instead.

    ``fault_hook`` is the ``tests/fault`` seam: a callable invoked as
    ``hook(point, context)`` at every :data:`SHARD_FAULT_POINTS` name
    during the sync handshake and each wave exchange.
    """

    def __init__(
        self,
        db: Database,
        program: Program,
        shards: int = 1,
        shared_nodes: FrozenSet[str] = frozenset(),
        negatives: bool = True,
        wcoj: bool = True,
        key_columns: Optional[Mapping] = None,
        wave_timeout: Optional[float] = 120.0,
        policy: str = "auto",
        auto_min_rows: int = DEFAULT_AUTO_MIN_ROWS,
        sync_backlog_limit: int = DEFAULT_SYNC_BACKLOG_LIMIT,
    ) -> None:
        if shards < 1:
            raise ShardError(f"need at least one shard, got {shards}")
        if shards > 1 and not hasattr(os, "fork"):
            raise ShardError(
                "sharded check phase needs os.fork (POSIX); "
                "use shards=1 on this platform"
            )
        if policy not in POLICIES:
            raise ShardError(
                f"unknown shard policy {policy!r}; expected one of {POLICIES}"
            )
        super().__init__(
            db, program, shared_nodes=shared_nodes, negatives=negatives, wcoj=wcoj
        )
        self.shards = int(shards)
        self.policy = policy
        self.auto_min_rows = int(auto_min_rows)
        self.sync_backlog_limit = int(sync_backlog_limit)
        self.wave_timeout = wave_timeout
        self.partitioner = HashPartitioner(self.shards, key_columns)
        self._key_overrides = dict(key_columns or {})
        #: tests/fault seam (see repro.shard.worker.SHARD_FAULT_POINTS)
        self.fault_hook = None
        self._pool: Optional[ShardPool] = None
        self._sharded_trace: Optional[PropagationTrace] = None
        #: engine-lifetime pool accounting, mirrored into shard.pool.*
        #: metrics whenever a registry is active (docs/OBSERVABILITY.md)
        self.pool_stats: Dict[str, int] = {
            "forks": 0,
            "respawns": 0,
            "resyncs": 0,
            "sync_bytes": 0,
            "sync_ms": 0.0,
            "reuse_hits": 0,
            "discards": 0,
            "auto_serial": 0,
            "auto_fanout": 0,
        }
        # -- replica-sync state (see module docstring) --
        #: monotone per-commit sequence number (the sync epoch)
        self._sync_seq = 0
        #: committed net Δs the live pool has not seen yet
        self._backlog: List[Tuple[int, Dict[str, DeltaSet]]] = []
        #: pooled waves applied for the currently-open transaction; a
        #: nonzero value at a NEW phase start means the previous
        #: transaction's waves were never confirmed by a commit (it
        #: rolled back) — the replicas hold phantom rows, discard them
        self._txn_waves = 0
        #: set by the catalog listener: relation create/drop changes
        #: the replicas' schema, re-fork at the next phase start
        self._pool_stale = False
        # -- phase state --
        self._in_phase = False
        self._phase_fanout = False
        if self.shards > 1:
            # registered at construction so it always runs BEFORE a
            # later-attached WAL listener: even when the WAL refuses an
            # ack, the in-memory commit stands and the replicas must
            # still hear about it
            db.add_commit_listener(self._on_commit)
            db.add_catalog_listener(self._on_catalog)

    # -- accounting --------------------------------------------------------

    def _pool_count(self, name: str, n=1) -> None:
        self.pool_stats[name] = self.pool_stats.get(name, 0) + n
        reg = metrics.ACTIVE
        if reg is not None:
            if name.startswith("auto_"):
                reg.counter(f"shard.auto.{name[5:]}").inc(n)
            else:
                reg.counter(f"shard.pool.{name}").inc(n)

    # -- replica-sync listeners --------------------------------------------

    def _on_commit(self, committed) -> None:
        """Capture one committed transaction's net physical Δ.

        The encoding is the WAL's canonical one
        (:class:`~repro.storage.database.CommittedTransaction.deltas`).
        Only buffered while a pool is live: a pool forked later
        inherits the leader's memory and needs no history.
        """
        self._sync_seq += 1
        self._txn_waves = 0
        if self._pool is None:
            return
        self._backlog.append((self._sync_seq, committed.deltas))
        if len(self._backlog) > self.sync_backlog_limit:
            # cheaper to re-fork from current memory than to replay
            self._discard_pool()

    def _on_catalog(self, kind: str, relation) -> None:
        if self._pool is not None:
            self._pool_stale = True

    # -- lifecycle ---------------------------------------------------------

    def rebuild(self, conditions: Mapping[str, FrozenSet[str]]) -> None:
        # a live pool inherited the OLD network; discard it — the next
        # fanned-out phase forks against the new network and the
        # current physical state, both of which the leader has
        self._discard_pool()
        self.finish_phase()
        super().rebuild(conditions)
        partitioner = HashPartitioner(self.shards, self._key_overrides)
        for influents in conditions.values():
            for name in influents:
                partitioner.register(
                    name, self.partitioner.key_columns_of(name)
                )
        self.partitioner = partitioner

    def resync(
        self, pending_deltas: Optional[Mapping[str, DeltaSet]] = None
    ) -> None:
        # called when the previous check phase failed: whatever the
        # replicas applied never committed
        self._discard_pool()
        self.finish_phase()
        super().resync(pending_deltas)

    def finish_phase(self) -> None:
        """End the current check phase.  The pool SURVIVES — it idles
        until the next fanned-out phase syncs it (or a discard
        condition re-forks it); see the module docstring."""
        self._in_phase = False
        self._phase_fanout = False

    def close_pool(self) -> None:
        """Tear the worker pool down explicitly (shutdown, tests)."""
        self._discard_pool()

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        self._backlog.clear()
        self._pool_stale = False
        self._txn_waves = 0
        if pool is not None:
            pool.close()
            self._pool_count("discards")

    @property
    def pool_pids(self) -> List[int]:
        """Live worker pids (empty until a phase fans out)."""
        return list(self._pool.pids) if self._pool is not None else []

    # -- the serial-vs-fanout policy ---------------------------------------

    def _route_fanout(self, wave: Mapping[str, DeltaSet]) -> bool:
        """Decide this phase's route; sticky for the whole phase."""
        if self.policy == "fanout":
            return True
        if self.policy == "serial":
            return False
        rows = sum(len(d.plus) + len(d.minus) for d in wave.values())
        if rows < self.auto_min_rows:
            return False
        return self.partitioner.spread(wave, limit=2) >= 2

    # -- the check phase ---------------------------------------------------

    def process(
        self, base_deltas: Mapping[str, DeltaSet], trace: bool = False
    ) -> Dict[str, DeltaSet]:
        if self.shards == 1:
            # bit-for-bit the serial engine: no fork, no partitioning
            return super().process(base_deltas, trace=trace)
        phase_start = not self._in_phase
        if not phase_start and not self._phase_fanout:
            # continuation wave of a serial-routed phase: bit-for-bit
            # (and microsecond-for-microsecond) the serial engine
            return self._propagator.run(base_deltas, trace=trace)
        if not base_deltas:
            return {}
        if phase_start:
            self._in_phase = True
            self._sharded_trace = None
            self._phase_fanout = self._route_fanout(base_deltas)
            name = "auto_fanout" if self._phase_fanout else "auto_serial"
            self.pool_stats[name] += 1
            reg = metrics.ACTIVE
            if reg is not None:
                reg.counter(f"shard.auto.{name[5:]}").inc()
            if not self._phase_fanout:
                # the serial path: the leader propagates alone, the
                # pool (if any) idles and catches up via the backlog.
                # This is the auto policy's small-transaction fast
                # path — straight to the propagator, no copies, no
                # dispatch — so a pooled engine's churn cost tracks
                # the serial engine's (the benchmark gates it within
                # 1.1x of serial, see docs/SHARDING.md)
                return self._propagator.run(base_deltas, trace=trace)
        wave = dict(base_deltas)
        try:
            pool = self._ensure_pool(phase_start)
            results, stats, executions, exchange_bytes = pool.run_wave(
                wave, trace, self.fault_hook
            )
            self._txn_waves += 1
        except Exception:
            # torn exchange: per-shard state is unrecoverable mid-wave —
            # discard the fleet; the commit path rolls the txn back
            self._discard_pool()
            raise
        self._record_wave(stats, exchange_bytes)
        if trace:
            merged_trace = PropagationTrace()
            for shard_executions in executions:
                merged_trace.executions.extend(shard_executions)
            self._sharded_trace = merged_trace
        return self._merge_barrier(results)

    def _ensure_pool(self, phase_start: bool) -> ShardPool:
        """The pool to run this wave on, forked or synced as needed."""
        if phase_start and self._pool is not None and (
            self._pool_stale or self._txn_waves
        ):
            # schema changed under the replicas, or they hold waves of
            # a transaction that never committed: re-fork
            self._discard_pool()
        pool = self._pool
        if pool is None:
            # fresh fleet forked mid-transaction: inherits the leader's
            # memory (incl. this txn's physical updates) copy-on-write,
            # so it is already at the current epoch — no sync needed
            pool = self._pool = ShardPool(
                self,
                self.shards,
                self.wave_timeout,
                seq=self._sync_seq,
                on_count=self._pool_count,
            )
            self._backlog.clear()
        elif phase_start:
            # reuse: ship missed commits + the epoch handshake; dead
            # workers respawn in place and the phase proceeds
            self._pool_count("reuse_hits")
            self._pool_count("resyncs")
            started = time.perf_counter()
            pool.sync(self._backlog, self._sync_seq, self.fault_hook)
            self._pool_count(
                "sync_ms", (time.perf_counter() - started) * 1000.0
            )
            self._backlog.clear()
        return pool

    def _merge_barrier(
        self, results: List[Dict[str, DeltaSet]]
    ) -> Dict[str, DeltaSet]:
        """Fold per-shard condition deltas, in shard order.

        Delta-union per condition; by the linearity + guard argument
        the per-shard pairs are cancellation-free, so this equals plain
        union and the order is immaterial — but any cancellation that
        DOES happen is a correctness bug, so it is counted loudly.
        """
        merged: Dict[str, MutableDelta] = {}
        cancelled = 0
        for shard_result in results:
            for name in sorted(shard_result):
                accumulator = merged.get(name)
                if accumulator is None:
                    accumulator = merged[name] = MutableDelta()
                cancelled += accumulator.merge(shard_result[name])
        if cancelled:
            reg = metrics.ACTIVE
            if reg is not None:
                reg.counter("shard.merge_cancellations").inc(cancelled)
        return {
            name: accumulator.freeze()
            for name, accumulator in merged.items()
            if accumulator
        }

    def _record_wave(self, stats: List[Dict], exchange_bytes: int) -> None:
        reg = metrics.ACTIVE
        if reg is None:
            return
        reg.counter("shard.waves").inc()
        reg.counter("shard.exchange_bytes").inc(exchange_bytes)
        for shard, shard_stats in enumerate(stats):
            reg.histogram(f"shard.{shard}.check_ms").observe(
                shard_stats.get("check_ms", 0.0)
            )
            # fold worker-side instruments into the leader's window so
            # last_check_stats() aggregates across the whole fleet
            for name, value in shard_stats.get("counters", {}).items():
                if value:
                    reg.counter(name).inc(value)
            for name, gauge in shard_stats.get("gauges", {}).items():
                reg.gauge(name).set_max(gauge.get("max", 0))

    @property
    def last_trace(self) -> Optional[PropagationTrace]:
        if self.shards == 1 or self._sharded_trace is None:
            return super().last_trace
        return self._sharded_trace

    def __repr__(self) -> str:
        return (
            f"ShardedEngine(shards={self.shards}, policy={self.policy!r}, "
            f"pool={'live' if self._pool is not None else 'idle'}, "
            f"seq={self._sync_seq})"
        )
