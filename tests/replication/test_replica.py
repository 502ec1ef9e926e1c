"""End-to-end ReplicaServer tests (ISSUE 7 tentpole).

Every test spins a real WAL-backed primary and at least one replica on
loopback sockets and drives them through the public surfaces: AMOSQL
over :class:`AmosClient`, the ``replicate`` stream underneath, and
``query_ro`` reads on the replica.  The load-bearing properties:

* the replica converges to the primary's exact state AND exact epoch,
* every epoch both sides have published names identical bytes
  (rollback-churn epochs the primary mints locally leave gaps in the
  replica's epoch sequence — never divergent states),
* replica reads never touch the primary's engine lock,
* writes are refused with a redirect naming the primary.
"""

import threading
import time

import pytest

from repro.errors import RemoteError, ReplicationError
from repro.obs import metrics
from repro.server.client import AmosClient
from repro.server.server import AmosServer
from repro.replication import ReplicaServer
from repro.storage.wal import WriteAheadLog

from .conftest import bootstrap_factory

CONVERGE_TIMEOUT = 20.0


def start_replica(primary, tmp_path, name="replica", **kwargs):
    replica = ReplicaServer(
        primary=primary.address,
        factory=bootstrap_factory,
        wal_dir=str(tmp_path / f"{name}-wal"),
        **kwargs,
    )
    replica.start()
    return replica


def converge(replica, primary, timeout=CONVERGE_TIMEOUT):
    target = primary.amos.storage.snapshot_epoch
    assert replica.wait_for_epoch(target, timeout=timeout), (
        replica.apply_error,
        replica.last_stream_error,
        replica.lag_epochs,
    )


def primary_client(primary):
    client = AmosClient(*primary.address)
    client.connect()
    workload = primary.workload
    for index, item in enumerate(workload.items):
        client.bind(f"i{index}", item)
    return client


class TestConvergence:
    def test_replica_reaches_primary_state_and_epoch(self, primary, tmp_path):
        replica = start_replica(primary, tmp_path)
        try:
            with primary_client(primary) as client:
                for quantity in (120, 90, 5000, 135):
                    client.execute(f"set quantity(:i0) = {quantity};")
                client.execute("set quantity(:i1) = 110;")
            converge(replica, primary)
            assert (
                replica.amos.storage.snapshot_epoch
                == primary.amos.storage.snapshot_epoch
            )
            assert (
                replica.amos.snapshot_extensions()
                == primary.amos.snapshot_extensions()
            )
            # rule machinery replicated too: same monitor set, no
            # re-fired actions (orders came through the commit records)
            assert (
                replica.amos.storage.monitored_relations()
                == primary.amos.storage.monitored_relations()
            )
            assert (
                replica.amos.rules.active_rules()
                == primary.amos.rules.active_rules()
            )
        finally:
            replica.stop()

    def test_shared_epochs_name_identical_snapshots(self, primary, tmp_path):
        replica = start_replica(primary, tmp_path)
        replica.amos.storage.snapshot_history = 64
        primary.amos.storage.snapshot_history = 64
        try:
            with primary_client(primary) as client:
                for step in range(6):
                    client.execute(f"set quantity(:i2) = {150 + step};")
            converge(replica, primary)
            shared = set(primary.amos.storage.snapshot_epochs()) & set(
                replica.amos.storage.snapshot_epochs()
            )
            assert len(shared) >= 6
            for epoch in shared:
                on_primary = primary.amos.storage.snapshot_at(epoch)
                on_replica = replica.amos.storage.snapshot_at(epoch)
                names = set(on_primary.relation_names())
                assert names == set(on_replica.relation_names())
                for name in names:
                    assert on_primary.rows(name) == on_replica.rows(name), (
                        epoch,
                        name,
                    )
        finally:
            replica.stop()

    def test_rollback_churn_leaves_epoch_gaps_not_divergence(
        self, primary, tmp_path
    ):
        replica = start_replica(primary, tmp_path)
        try:
            with primary_client(primary) as client:
                client.execute("set quantity(:i0) = 120;")
                # churn: an engine-level rollback publishes an epoch on
                # the primary (auto_publish) but appends nothing to the
                # WAL, so the replica never sees these epochs at all
                amos = primary.amos
                item = primary.workload.items[1]
                with primary._engine_lock:
                    for _ in range(3):
                        amos.begin()
                        amos.set_value("quantity", (item,), 1)
                        amos.rollback()
                client.execute("set quantity(:i0) = 5000;")
            converge(replica, primary)
            assert (
                replica.amos.storage.snapshot_epoch
                == primary.amos.storage.snapshot_epoch
            )
            assert (
                replica.amos.snapshot_extensions()
                == primary.amos.snapshot_extensions()
            )
            # the churn epochs are genuine gaps on the replica
            replicated = set(replica.amos.storage.snapshot_epochs())
            minted = set(primary.amos.storage.snapshot_epochs())
            assert replicated < minted
        finally:
            replica.stop()

    def test_concurrent_sessions_replicate(self, tmp_path):
        from .conftest import make_workload

        workload = make_workload()
        primary = AmosServer(amos=workload.amos, wal_dir=str(tmp_path / "p-wal"))
        primary.start()
        primary.workload = workload
        replica = start_replica(primary, tmp_path)
        try:
            barrier = threading.Barrier(4)
            failures = []

            def writer(index, quantity):
                try:
                    with AmosClient(*primary.address) as client:
                        client.bind("it", workload.items[index])
                        barrier.wait(timeout=10.0)
                        for step in range(5):
                            client.execute(
                                f"set quantity(:it) = {quantity + step};"
                            )
                except BaseException as exc:  # noqa: BLE001
                    failures.append(exc)

            threads = [
                threading.Thread(target=writer, args=(i, 120 + 40 * i))
                for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
            assert not failures, failures
            converge(replica, primary)
            assert (
                replica.amos.snapshot_extensions()
                == primary.amos.snapshot_extensions()
            )
        finally:
            replica.stop()
            primary.stop()

    def test_rule_activation_changes_flow_through_the_stream(
        self, primary, tmp_path
    ):
        replica = start_replica(primary, tmp_path)
        try:
            with primary_client(primary) as client:
                client.execute("set quantity(:i0) = 120;")
                converge(replica, primary)
                assert replica.amos.rules.is_active("monitor_items", ())

                with primary._engine_lock:
                    primary.amos.deactivate("monitor_items")
                client.execute("set quantity(:i1) = 120;")
                converge(replica, primary)
                assert not replica.amos.rules.is_active("monitor_items", ())
                assert (
                    replica.amos.storage.monitored_relations()
                    == primary.amos.storage.monitored_relations()
                )

                with primary._engine_lock:
                    primary.amos.activate("monitor_items")
                client.execute("set quantity(:i2) = 120;")
                converge(replica, primary)
                assert replica.amos.rules.is_active("monitor_items", ())
                assert (
                    replica.amos.snapshot_extensions()
                    == primary.amos.snapshot_extensions()
                )
        finally:
            replica.stop()


class TestReadPath:
    def test_query_ro_on_replica(self, primary, tmp_path):
        replica = start_replica(primary, tmp_path)
        try:
            with primary_client(primary) as client:
                client.execute("set quantity(:i0) = 777;")
            converge(replica, primary)
            with AmosClient(*replica.address) as reader:
                reader.bind("i0", primary.workload.items[0])
                rows = reader.query_ro("select quantity(:i0);")
                assert rows == [(777,)]
                assert (
                    reader.last_ro_epoch
                    == primary.amos.storage.snapshot_epoch
                )
                # epoch-pinned read resolves on the replica too
                pinned = reader.query_ro(
                    "select quantity(:i0);", epoch=reader.last_ro_epoch
                )
                assert pinned == [(777,)]
        finally:
            replica.stop()

    def test_replica_reads_never_take_the_primary_engine_lock(
        self, primary, tmp_path
    ):
        """ISSUE acceptance: hold the primary's engine lock — with a
        writer genuinely blocked mid-commit behind it — and a replica
        ``query_ro`` still completes."""
        replica = start_replica(primary, tmp_path)
        try:
            with primary_client(primary) as client:
                client.execute("set quantity(:i0) = 345;")
            converge(replica, primary)

            writer_done = threading.Event()

            def blocked_writer():
                with AmosClient(*primary.address) as client:
                    client.bind("i1", primary.workload.items[1])
                    client.execute("set quantity(:i1) = 99;")
                writer_done.set()

            assert primary._engine_lock.acquire(timeout=5.0)
            try:
                thread = threading.Thread(target=blocked_writer, daemon=True)
                thread.start()
                time.sleep(0.2)  # let the writer reach the lock
                assert not writer_done.is_set()

                with AmosClient(*replica.address, timeout=5.0) as reader:
                    reader.bind("i0", primary.workload.items[0])
                    start = time.monotonic()
                    rows = reader.query_ro("select quantity(:i0);")
                    elapsed = time.monotonic() - start
                assert rows == [(345,)]
                assert elapsed < 2.0
                # the primary-side writer is STILL stuck: the replica
                # read cannot have gone anywhere near that lock
                assert not writer_done.is_set()
            finally:
                primary._engine_lock.release()
            assert writer_done.wait(10.0)
            thread.join(timeout=10.0)
        finally:
            replica.stop()

    def test_writes_are_refused_with_a_redirect(self, primary, tmp_path):
        replica = start_replica(primary, tmp_path)
        try:
            host, port = primary.address
            with AmosClient(*replica.address) as client:
                with pytest.raises(RemoteError) as excinfo:
                    client.execute("set quantity(:i0) = 1;")
                assert excinfo.value.remote_type == "ReplicaReadOnlyError"
                assert f"{host}:{port}" in str(excinfo.value)
            assert (
                replica.stats()["counters"]["replica.refused_writes"] == 1
            )
        finally:
            replica.stop()

    def test_replicating_from_a_replica_is_refused(self, primary, tmp_path):
        replica = start_replica(primary, tmp_path)
        try:
            cascade = ReplicaServer(
                primary=replica.address,
                factory=bootstrap_factory,
                reconnect=False,
            )
            cascade.start()
            try:
                deadline = time.monotonic() + 10.0
                while (
                    cascade.last_stream_error is None
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                assert isinstance(cascade.last_stream_error, ReplicationError)
                assert "cascading" in str(cascade.last_stream_error)
            finally:
                cascade.stop()
        finally:
            replica.stop()


class TestStreamLifecycle:
    def test_restart_resumes_from_own_wal_copy(self, primary, tmp_path):
        replica = start_replica(primary, tmp_path)
        with primary_client(primary) as client:
            client.execute("set quantity(:i0) = 120;")
            client.execute("set quantity(:i1) = 130;")
            converge(replica, primary)
            applied_before = replica.last_applied_lsn
            replica.stop()

            # the replica is down; the primary keeps committing
            client.execute("set quantity(:i2) = 150;")
            client.execute("set quantity(:i0) = 5000;")

        restarted = start_replica(primary, tmp_path)  # same wal dir
        try:
            # recovery replayed the copy, the handshake resumed after it
            assert restarted.last_recovery.records == applied_before + 1
            converge(restarted, primary)
            assert (
                restarted.amos.snapshot_extensions()
                == primary.amos.snapshot_extensions()
            )
            assert (
                restarted.amos.storage.snapshot_epoch
                == primary.amos.storage.snapshot_epoch
            )
        finally:
            restarted.stop()

    def test_restart_opens_the_copy_once_and_counts_recovery_once(
        self, primary, tmp_path, monkeypatch
    ):
        replica = start_replica(primary, tmp_path)
        with primary_client(primary) as client:
            for quantity in (120, 130, 150):
                client.execute(f"set quantity(:i0) = {quantity};")
        converge(replica, primary)
        replica.stop()

        opened = []
        original = WriteAheadLog.__init__

        def counting(self, directory, *args, **kwargs):
            opened.append(directory)
            original(self, directory, *args, **kwargs)

        monkeypatch.setattr(WriteAheadLog, "__init__", counting)
        with metrics.collecting() as global_registry:
            restarted = start_replica(primary, tmp_path)
            restarted.stop()
        # one WriteAheadLog on the copy: replayed, then kept for appends
        assert opened == [str(tmp_path / "replica-wal")]
        records = restarted.last_recovery.records
        assert records >= 3
        for name in ("wal.recovered_records", "replica.recovered_records"):
            assert restarted.registry.counters()[name] == records
            assert global_registry.counters()[name] == records

    def test_replica_survives_primary_restart(self, tmp_path):
        from .conftest import make_workload

        workload = make_workload()
        wal_dir = str(tmp_path / "p-wal")
        primary = AmosServer(amos=workload.amos, wal_dir=wal_dir)
        primary.start()
        primary.workload = workload
        host, port = primary.address
        replica = start_replica(
            primary, tmp_path, reconnect_delay=0.02
        )
        try:
            with AmosClient(host, port) as client:
                client.bind("i0", workload.items[0])
                client.execute("set quantity(:i0) = 120;")
            converge(replica, primary)
            primary.stop()

            # bring the primary back on the SAME port from its own WAL
            from repro.storage.wal import recover

            amos2 = recover(wal_dir, amos=make_workload().amos)
            primary2 = AmosServer(amos=amos2, host=host, port=port)
            primary2.start()
            try:
                with AmosClient(host, port, connect_retries=40) as client:
                    client.bind("i0", workload.items[0])
                    client.execute("set quantity(:i0) = 130;")
                converge(replica, primary2)
                assert (
                    replica.amos.snapshot_extensions()
                    == amos2.snapshot_extensions()
                )
            finally:
                primary2.stop()
        finally:
            replica.stop()
            # primary already stopped; stopping twice is harmless
            primary.stop()

    def test_lag_and_stream_metrics_surface(self, primary, tmp_path):
        replica = start_replica(primary, tmp_path)
        try:
            with primary_client(primary) as client:
                client.execute("set quantity(:i0) = 120;")
            converge(replica, primary)

            stats = replica.stats()
            info = stats["replica"]
            assert info["primary"] == list(primary.address)
            assert info["connected"] is True
            assert info["lag_epochs"] == 0
            assert info["epoch"] == primary.amos.storage.snapshot_epoch
            assert info["apply_error"] is None
            assert info["last_applied_lsn"] >= 0
            assert stats["counters"]["replica.applied_records"] >= 1
            assert stats["gauges"]["replica.lag_epochs"]["value"] == 0
            assert "replica.apply_ms" in stats["histograms"]
            assert stats["wal"] is not None

            pstats = primary.stats()
            subscribers = pstats["replication"]
            assert subscribers and len(subscribers) == 1
            assert pstats["counters"]["wal.ship.records"] >= 1
            assert pstats["counters"]["server.replicate_streams"] == 1
        finally:
            replica.stop()

    def test_replicate_without_wal_is_refused(self):
        from .conftest import make_workload

        workload = make_workload()
        server = AmosServer(amos=workload.amos)  # no wal_dir
        server.start()
        try:
            replica = ReplicaServer(
                primary=server.address,
                factory=bootstrap_factory,
                reconnect=False,
            )
            replica.start()
            try:
                deadline = time.monotonic() + 10.0
                while (
                    replica.last_stream_error is None
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.02)
                assert isinstance(replica.last_stream_error, ReplicationError)
                assert "write-ahead log" in str(replica.last_stream_error)
            finally:
                replica.stop()
        finally:
            server.stop()
