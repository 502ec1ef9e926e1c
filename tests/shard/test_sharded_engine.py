"""Integration tests for the sharded check phase (repro.shard.engine).

Covers the wiring the oracle ring does not: the persistent pool's
lifecycle (fork at the first fanned-out wave, survival across commits,
replica sync on reuse, explicit teardown), the adaptive
serial-vs-fanout policy, the pool being opt-in (the default and
shards=1 are the plain serial engine), mode validation, group commit syncing once and
partitioning the merged batch once, the WAL writing ONE commit record
regardless of shard count, a single snapshot epoch per commit, and the
fleet-wide observability counters.

Most helpers pin ``policy="fanout"``: the tiny deltas these directed
tests commit would route serial under the default auto policy, and the
point here is to exercise the pooled path.  ``TestAutoPolicy`` covers
the routing itself.
"""

import gc
import os
import pickle

import pytest

from repro.algebra.delta import DeltaSet
from repro.amos.database import AmosDatabase
from repro.amos.oid import OID
from repro.amosql.interpreter import AmosqlEngine
from repro.bench.workload import build_inventory
from repro.errors import RuleError, ShardError
from repro.rules.engines import IncrementalEngine
from repro.rules.manager import resolve_auto_shards
from repro.server import AmosServer
from repro.shard.engine import ShardedEngine


@pytest.fixture(autouse=True)
def _reap_pools():
    """Collect engine↔db listener cycles so pools left behind by a
    test are closed (ShardPool.__del__) before the next one runs."""
    yield
    gc.collect()


def sharded_inventory(n_items=6, shards=2, policy="fanout", **options):
    shard_options = dict(options.pop("shard_options", None) or {})
    shard_options.setdefault("policy", policy)
    workload = build_inventory(
        n_items, explain=True, shards=shards,
        shard_options=shard_options, **options,
    )
    workload.activate()
    return workload


class TestWiring:
    def test_shards_flag_reaches_the_engine(self):
        workload = sharded_inventory(shards=3)
        assert workload.amos.shards == 3
        engine = workload.amos.rules.engine
        assert isinstance(engine, ShardedEngine)
        assert engine.shards == 3
        assert engine.partitioner.shards == 3
        # the merge argument requires guarded negatives — always on
        assert engine._propagator.guard_negatives is True

    def test_shards_one_is_the_plain_serial_engine(self):
        workload = build_inventory(4, shards=1)
        engine = workload.amos.rules.engine
        assert isinstance(engine, IncrementalEngine)
        assert not isinstance(engine, ShardedEngine)

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(RuleError):
            build_inventory(2, shards=0)

    def test_sharding_requires_incremental_mode(self):
        with pytest.raises(RuleError):
            AmosqlEngine(mode="naive", shards=2)

    def test_amosql_engine_accepts_shards(self):
        engine = AmosqlEngine(shards=2)
        assert engine.amos.shards == 2


class TestSerialEquivalenceSmoke:
    """One directed spot check; the hypothesis ring is the real pin
    (tests/oracle/test_shard_equivalence.py)."""

    def test_orders_and_extensions_match_serial(self):
        serial = build_inventory(10, explain=True)
        serial.activate()
        sharded = sharded_inventory(10, shards=2)
        for workload in (serial, sharded):
            workload.touch_one_item(0, below=True)
            workload.touch_one_item(3, below=True)
            workload.massive_change(-60)
        assert [a for _, a in serial.orders] == [a for _, a in sharded.orders]
        assert (
            serial.amos.snapshot_extensions()
            == sharded.amos.snapshot_extensions()
        )

    def test_rollback_leaves_no_trace(self):
        workload = sharded_inventory()
        before = workload.amos.snapshot_extensions()
        workload.amos.begin()
        workload.set_quantity(workload.items[0], 1)
        workload.amos.rollback()
        assert workload.amos.snapshot_extensions() == before
        assert workload.orders == []
        # the engine is still live: a probe commit fires normally
        workload.touch_one_item(0, below=True)
        assert len(workload.orders) == 1


class TestPoolLifecycle:
    def test_pool_persists_across_commits(self):
        workload = sharded_inventory(shards=2)
        engine = workload.amos.rules.engine
        assert engine.pool_pids == []  # lazy: no fan-out yet
        workload.touch_one_item(0, below=True)
        first = engine.pool_pids
        assert len(first) == 2
        # SAME processes serve the next commit — no re-fork
        workload.touch_one_item(1, below=True)
        assert engine.pool_pids == first
        assert engine.pool_stats["forks"] == 2
        assert engine.pool_stats["reuse_hits"] == 1
        engine.close_pool()
        assert engine.pool_pids == []

    def test_pool_is_live_during_the_check_phase(self):
        workload = sharded_inventory(shards=2)
        engine = workload.amos.rules.engine
        seen_pids = []
        workload.amos.create_procedure(
            "snoop", ("item",), lambda item: seen_pids.append(engine.pool_pids)
        )
        AmosqlEngine(workload.amos).execute(
            """
            create rule snoop_rule() as
                when for each item i where quantity(i) < 0
                do snoop(i);
            activate snoop_rule();
            """
        )
        assert engine.pool_pids == []
        workload.set_quantity(workload.items[0], -1)
        # the action ran DURING the check phase: the pool was live then
        assert seen_pids and len(seen_pids[0]) == 2
        # ...and SURVIVES the phase's finally, idling for the next commit
        assert engine.pool_pids == seen_pids[0]
        engine.close_pool()

    def test_finish_phase_keeps_the_pool(self):
        workload = sharded_inventory()
        engine = workload.amos.rules.engine
        workload.touch_one_item(0, below=True)
        pids = engine.pool_pids
        engine.finish_phase()
        engine.finish_phase()  # idempotent, and the workers idle on
        assert engine.pool_pids == pids
        engine.close_pool()
        assert engine.pool_pids == []

    def test_rule_toggles_between_commits(self):
        workload = sharded_inventory()
        engine = workload.amos.rules.engine
        workload.touch_one_item(0, below=True)
        pooled = engine.pool_pids
        workload.deactivate()  # rebuild: the old network's pool dies
        assert engine.pool_pids == []
        workload.touch_one_item(1, below=True)  # unmonitored: no order
        workload.activate()
        workload.touch_one_item(2, below=True)
        assert len(workload.orders) == 2
        # a fresh fleet, not the pre-toggle one
        assert engine.pool_pids and engine.pool_pids != pooled
        engine.close_pool()

    def test_rollback_discards_the_pool_lazily(self):
        # immediate-processing-style phantom waves: simulate by running
        # a pooled phase inside an explicit txn and rolling it back
        workload = sharded_inventory(shards=2)
        engine = workload.amos.rules.engine
        workload.touch_one_item(0, below=True)
        pids = engine.pool_pids
        workload.amos.begin()
        workload.set_quantity(workload.items[1], 1)
        workload.amos.rollback()
        # deferred mode: no waves ran for the aborted txn, pool survives
        assert engine.pool_pids == pids
        # but phantom waves WOULD be caught: fake one and watch the
        # next phase re-fork
        engine._txn_waves = 1
        workload.touch_one_item(2, below=True)
        assert engine.pool_pids != pids
        assert engine.pool_stats["discards"] >= 1
        engine.close_pool()

    def test_catalog_change_re_forks_the_pool(self):
        workload = sharded_inventory(shards=2)
        engine = workload.amos.rules.engine
        workload.touch_one_item(0, below=True)
        pids = engine.pool_pids
        workload.amos.storage.create_relation("side_table", 2)
        assert engine._pool_stale
        workload.touch_one_item(1, below=True)
        assert engine.pool_pids != pids  # fresh fleet knows the relation
        engine.close_pool()


class TestGroupCommit:
    def test_group_commit_runs_one_sharded_check_phase(self, tmp_path):
        workload = sharded_inventory(shards=2, observe=True)
        workload.amos.open_wal(str(tmp_path))
        wal = workload.amos.wal
        before = wal.appended_records

        units = [
            (lambda i: (lambda: workload.set_quantity(workload.items[i], 1)))(i)
            for i in range(3)
        ]
        outcomes = workload.amos.apply_group(units)
        assert [o.ok for o in outcomes] == [True, True, True]
        # ONE wal record for the whole batch, carrying the boundary
        assert wal.appended_records == before + 1
        last = list(wal.records())[-1]
        assert last.kind == "commit"
        assert last.group == {"members": 3, "applied": 3}
        # the merged batch partitioned once: a single wave served it
        stats = workload.amos.rules.last_check_stats()
        assert stats["counters"]["shard.waves"] == 1
        assert len(workload.orders) == 3
        workload.amos.detach_wal()

    def test_group_commit_pays_one_sync_per_batch(self):
        workload = sharded_inventory(shards=2)
        engine = workload.amos.rules.engine
        workload.touch_one_item(0, below=True)  # fork the pool
        assert engine.pool_stats["resyncs"] == 0

        def unit(i):
            return lambda: workload.set_quantity(workload.items[i], 1)

        outcomes = workload.amos.apply_group([unit(i) for i in range(3)])
        assert all(o.ok for o in outcomes)
        # three members, ONE merged check phase, ONE replica sync
        assert engine.pool_stats["resyncs"] == 1
        assert engine.pool_stats["reuse_hits"] == 1
        # and the next batch reuses the same fleet again
        pids = engine.pool_pids
        outcomes = workload.amos.apply_group([unit(i) for i in range(3, 5)])
        assert all(o.ok for o in outcomes)
        assert engine.pool_pids == pids
        assert engine.pool_stats["resyncs"] == 2
        engine.close_pool()


class TestDurabilityAndEpochs:
    def test_one_wal_commit_record_regardless_of_shard_count(self, tmp_path):
        workload = sharded_inventory(shards=4)
        workload.amos.open_wal(str(tmp_path))
        wal = workload.amos.wal
        before = wal.appended_records
        with workload.amos.transaction():
            for item in workload.items[:4]:
                workload.set_quantity(item, 1)
        assert wal.appended_records == before + 1
        last = list(wal.records())[-1]
        assert last.kind == "commit"
        assert last.epoch == workload.amos.snapshot_epoch
        workload.amos.detach_wal()

    def test_one_epoch_per_sharded_commit(self):
        workload = sharded_inventory(shards=2)
        workload.amos.storage.auto_publish = True
        workload.amos.storage.publish_snapshot()
        epoch = workload.amos.snapshot_epoch
        workload.touch_one_item(0, below=True)
        assert workload.amos.snapshot_epoch == epoch + 1
        workload.touch_one_item(1, below=True)
        assert workload.amos.snapshot_epoch == epoch + 2

    def test_wal_recovery_replays_into_a_sharded_database(self, tmp_path):
        live = sharded_inventory(shards=2)
        live.amos.open_wal(str(tmp_path))
        live.touch_one_item(0, below=True)
        live.amos.detach_wal()

        restored = build_inventory(6, explain=True, shards=2)
        restored.activate()
        report = restored.amos.open_wal(str(tmp_path))
        assert report.rows_applied >= 1
        assert (
            restored.amos.snapshot_extensions()
            == live.amos.snapshot_extensions()
        )
        restored.amos.detach_wal()


class TestObservability:
    def test_fleet_wide_counters(self):
        workload = sharded_inventory(shards=2, observe=True)
        workload.touch_one_item(0, below=True)
        stats = workload.amos.rules.last_check_stats()
        counters = stats["counters"]
        assert counters["shard.waves"] >= 1
        assert counters["shard.exchange_bytes"] > 0
        # a cancellation at the merge barrier would be a correctness
        # bug — the counter must stay silent
        assert "shard.merge_cancellations" not in counters
        histograms = stats["histograms"]
        assert "shard.0.check_ms" in histograms
        assert "shard.1.check_ms" in histograms

    def test_trace_survives_sharding(self):
        workload = sharded_inventory(shards=2)
        workload.touch_one_item(0, below=True)
        report = workload.amos.rules.last_report
        assert report is not None
        trace = report.iterations[0].trace
        assert trace is not None and trace.executions


class TestPickleContract:
    """Shard workers ship these across process pipes; the frozen
    ``__setattr__`` broke pickle's default slot restore (regression)."""

    def test_delta_set_roundtrip(self):
        delta = DeltaSet([(1, "a")], [(2, "b")])
        clone = pickle.loads(pickle.dumps(delta))
        assert clone == delta
        assert clone.plus == delta.plus and clone.minus == delta.minus

    def test_oid_roundtrip(self):
        oid = OID(7, "item")
        clone = pickle.loads(pickle.dumps(oid))
        assert clone == oid and clone.type_name == "item"

    def test_delta_map_roundtrip(self):
        wave = {"quantity": DeltaSet([(OID(1, "item"), 5)], [(OID(1, "item"), 9)])}
        clone = pickle.loads(pickle.dumps(wave))
        assert clone == wave


class TestAutoPolicy:
    """The per-transaction serial-vs-fanout route (policy='auto')."""

    def test_small_transactions_route_serial(self):
        workload = sharded_inventory(shards=2, policy="auto")
        engine = workload.amos.rules.engine
        workload.touch_one_item(0, below=True)
        # a two-row Δ is far below auto_min_rows: no fork, no pool
        assert engine.pool_pids == []
        assert engine.pool_stats["auto_serial"] == 1
        assert engine.pool_stats["auto_fanout"] == 0
        assert len(workload.orders) == 1  # the serial path still fired

    def test_large_spread_transactions_fan_out(self):
        workload = sharded_inventory(
            8, shards=2, policy="auto",
            shard_options={"auto_min_rows": 4},
        )
        engine = workload.amos.rules.engine
        workload.massive_change(-1)  # touches every item: 16 Δ rows
        assert engine.pool_stats["auto_fanout"] == 1
        assert len(engine.pool_pids) == 2
        # ...and the next small commit routes serial on the idle pool
        workload.touch_one_item(0, below=True)
        assert engine.pool_stats["auto_serial"] == 1
        engine.close_pool()

    def test_route_is_sticky_for_the_whole_phase(self):
        # cascading waves of a serial-routed phase stay serial even if
        # a later wave is large: the decision is made once, at seeding
        workload = sharded_inventory(
            shards=2, policy="auto",
            shard_options={"auto_min_rows": 10**9},
        )
        engine = workload.amos.rules.engine
        workload.touch_one_item(0, below=True)  # order cascade: 2 waves
        assert engine.pool_stats["auto_serial"] == 1
        assert engine.pool_stats["auto_fanout"] == 0
        assert engine.pool_pids == []

    def test_policy_serial_never_forks(self):
        workload = sharded_inventory(8, shards=2, policy="serial")
        engine = workload.amos.rules.engine
        workload.massive_change(-1)
        assert engine.pool_pids == []
        assert engine.pool_stats["forks"] == 0


class TestPoolIsOptIn:
    """The default check phase is the plain IncrementalEngine; only an
    explicit integer shards=N > 1 builds the pool."""

    @pytest.mark.parametrize(
        "make_amos",
        [
            AmosDatabase,
            lambda: AmosqlEngine().amos,
            lambda: AmosServer().amos,
            lambda: AmosqlEngine(shards="auto").amos,
        ],
        ids=["AmosDatabase", "AmosqlEngine", "AmosServer", "auto-alias"],
    )
    def test_default_engine_is_exactly_the_incremental_engine(self, make_amos):
        amos = make_amos()
        assert type(amos.rules.engine) is IncrementalEngine
        assert amos.shards == 1

    @pytest.mark.parametrize("mode", ["incremental", "naive"])
    def test_auto_shards_resolution(self, mode):
        assert resolve_auto_shards(mode) == 1

    def test_default_massive_transaction_forks_nothing(self, monkeypatch):
        workload = build_inventory(5000)
        workload.activate()
        forks = []

        def no_fork():
            forks.append(1)
            raise OSError("the default check phase must not fork")

        monkeypatch.setattr(os, "fork", no_fork)
        workload.massive_change(-1)  # 15k Δ rows, far above auto_min_rows
        assert forks == []

    def test_explicit_shards_still_build_the_pool_engine(self):
        engine = AmosqlEngine(shards=2)
        assert type(engine.amos.rules.engine) is ShardedEngine


class TestReplicaSync:
    def test_backlog_drains_on_reuse(self):
        workload = sharded_inventory(shards=2)
        engine = workload.amos.rules.engine
        workload.touch_one_item(0, below=True)  # forks the pool
        # the pooled commit's own net Δ is buffered for the next sync
        assert len(engine._backlog) == 1
        workload.touch_one_item(1, below=True)  # ships it, buffers #2
        assert len(engine._backlog) == 1
        assert engine.pool_stats["sync_bytes"] > 0
        assert engine.pool_stats["resyncs"] == 1
        engine.close_pool()

    def test_backlog_overflow_discards_the_pool(self):
        workload = sharded_inventory(
            shards=2, shard_options={"sync_backlog_limit": 2},
        )
        engine = workload.amos.rules.engine
        workload.touch_one_item(0, below=True)  # forks the pool
        assert engine.pool_pids
        # route the pool around: serial commits pile up in the backlog
        engine.policy = "serial"
        for i in range(3):
            workload.set_quantity(workload.items[i], 200 + i)
        # ...until replaying beats re-forking and the pool is dropped
        assert engine.pool_pids == []
        assert engine.pool_stats["discards"] == 1
        # the next fanned-out phase forks a fresh, current fleet
        engine.policy = "fanout"
        workload.touch_one_item(0, below=True)
        assert len(workload.orders) == 2
        assert engine.pool_pids
        engine.close_pool()

    def test_sync_is_idempotent_under_set_semantics(self):
        # rows a worker already applied through waves re-arrive via the
        # backlog; set semantics make the overlap harmless
        workload = sharded_inventory(shards=2)
        serial = build_inventory(6, explain=True, shards=1)
        serial.activate()
        for w in (workload, serial):
            w.touch_one_item(0, below=True)
            w.touch_one_item(0, below=False)
            w.touch_one_item(0, below=True)
        assert (
            workload.amos.snapshot_extensions()
            == serial.amos.snapshot_extensions()
        )
        assert [a for _, a in workload.orders] == [a for _, a in serial.orders]
        workload.amos.rules.engine.close_pool()


class TestShardErrors:
    def test_engine_rejects_zero_shards(self):
        workload = build_inventory(2)
        with pytest.raises(ShardError):
            ShardedEngine(
                workload.amos.storage, workload.amos.program, shards=0
            )

    def test_engine_rejects_unknown_policy(self):
        workload = build_inventory(2)
        with pytest.raises(ShardError):
            ShardedEngine(
                workload.amos.storage, workload.amos.program,
                shards=2, policy="sometimes",
            )

    def test_manager_rejects_garbage_shard_strings(self):
        with pytest.raises(RuleError):
            build_inventory(2, shards="many")
