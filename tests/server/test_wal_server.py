"""End-to-end durability through the server: commit, restart, recover.

The server owns the WAL lifecycle (``docs/SERVER.md``): with
``wal_dir`` set, ``start()`` recovers the log before accepting
connections and every acked commit is durable.  These tests drive the
full loop over real sockets, then boot a SECOND server over the same
directory from a fresh schema bootstrap and assert the recovered
database answers queries identically.
"""

import pytest

from repro.bench.workload import build_inventory
from repro.obs import metrics
from repro.server import AmosClient, AmosServer

SEED = 21
MAX_STOCK = 5000


def fresh_workload(n_items=3):
    workload = build_inventory(n_items, seed=SEED)
    workload.activate()
    return workload


def start_server(workload, wal_dir, **options):
    server = AmosServer(
        amos=workload.amos, wal_dir=str(wal_dir), **options
    )
    server.start()
    return server


class TestServerDurability:
    def test_commits_survive_a_server_restart(self, tmp_path):
        first = fresh_workload()
        server = start_server(first, tmp_path)
        host, port = server.address
        with AmosClient(host, port) as client:
            client.bind("i0", first.items[0])
            client.bind("i1", first.items[1])
            with client.transaction():
                client.execute("set quantity(:i0) = 120;")  # fires
            with client.transaction():
                client.execute("set quantity(:i1) = 450;")  # does not
        assert first.orders == [(first.items[0], MAX_STOCK - 120)]
        epoch = first.amos.storage.snapshot_epoch
        server.stop()  # detaches the wal

        # a "restart": same schema bootstrap (schema is code), same
        # wal directory, a brand-new process-worth of state
        second = fresh_workload()
        restarted = start_server(second, tmp_path)
        try:
            assert restarted.last_recovery is not None
            assert restarted.last_recovery.commits == 2
            assert (
                second.amos.snapshot_extensions()
                == first.amos.snapshot_extensions()
            )
            assert second.amos.storage.snapshot_epoch == epoch
            # the monitor set recovered too: the same query answers,
            # and a fresh wire commit still fires the rule
            host, port = restarted.address
            with AmosClient(host, port) as client:
                rows = dict(
                    client.query("select i, quantity(i) for each item i")
                )
                assert rows[second.items[0]] == 120
                assert rows[second.items[1]] == 450
                client.bind("i2", second.items[2])
                with client.transaction():
                    client.execute("set quantity(:i2) = 130;")
            assert second.orders == [(second.items[2], MAX_STOCK - 130)]
            stats = restarted.stats()
            assert stats["wal"] is not None
            assert stats["counters"]["wal.recovered_commits"] == 2
            assert stats["wal"]["appended_records"] >= 1  # the new commit
        finally:
            restarted.stop()

    def test_recovered_records_are_counted_once_per_registry(self, tmp_path):
        # recover() counts into the global registry and start() into the
        # server's own (which tees into the global): once each, not 2x
        first = fresh_workload()
        server = start_server(first, tmp_path)
        with AmosClient(*server.address) as client:
            client.bind("i0", first.items[0])
            for quantity in (120, 450, 130):
                client.execute(f"set quantity(:i0) = {quantity};")
        server.stop()

        with metrics.collecting() as global_registry:
            restarted = start_server(fresh_workload(), tmp_path)
            restarted.stop()
        records = restarted.last_recovery.records
        assert records >= 3
        assert restarted.registry.counters()["wal.recovered_records"] == records
        assert global_registry.counters()["wal.recovered_records"] == records

    def test_wal_server_refuses_a_corrupt_log(self, tmp_path):
        from repro.errors import WalCorruptionError

        first = fresh_workload()
        server = start_server(first, tmp_path)
        host, port = server.address
        with AmosClient(host, port) as client:
            client.bind("i0", first.items[0])
            with client.transaction():
                client.execute("set quantity(:i0) = 120;")
            with client.transaction():
                client.execute("set quantity(:i0) = 450;")
        server.stop()
        # flip a payload byte of the FIRST record: with a valid record
        # after it, this is mid-log corruption — NOT a torn tail, which
        # only the last record of the last segment can be
        from repro.storage.wal import HEADER_SIZE

        (segment,) = [p for p in tmp_path.iterdir() if p.suffix == ".log"]
        blob = bytearray(segment.read_bytes())
        blob[HEADER_SIZE + 2] ^= 0x01
        segment.write_bytes(bytes(blob))

        second = fresh_workload()
        broken = AmosServer(amos=second.amos, wal_dir=str(tmp_path))
        with pytest.raises(WalCorruptionError):
            broken.start()
