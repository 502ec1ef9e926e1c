"""The lock-free read path: ``query_ro`` over the wire.

The acceptance property of the whole snapshot-read design lives here:
a commit that is *blocked mid-check-phase while holding the engine
lock* must not delay a concurrent ``query_ro`` — the reader answers
from the last published epoch.  Synchronization is purely event-based
(a rule action that parks on a ``threading.Event``), no sleeps.
"""

import threading

import pytest

from repro.errors import RemoteError
from repro.server import AmosClient, AmosServer

SCHEMA = """
create type item;
create function quantity(item) -> integer;
create item instances :a, :b;
set quantity(:a) = 10;
set quantity(:b) = 50;
"""

QUERY = "select q for each item i, integer q where quantity(i) = q"


def start_server(**kwargs):
    """An unstarted server; ``with start_server() as s:`` starts it."""
    return AmosServer(port=0, **kwargs)


class TestQueryRo:
    def test_rows_match_live_query(self):
        with start_server() as server:
            host, port = server.address
            with AmosClient(host, port) as client:
                client.execute(SCHEMA)
                assert client.query_ro(QUERY) == client.query(QUERY)
                assert client.last_ro_epoch == server.amos.snapshot_epoch

    def test_epoch_advances_with_commits_not_reads(self):
        with start_server() as server:
            host, port = server.address
            with AmosClient(host, port) as client:
                client.execute(SCHEMA)
                client.query_ro(QUERY)
                first = client.last_ro_epoch
                client.query_ro(QUERY)
                assert client.last_ro_epoch == first  # reads don't publish
                with client.transaction():
                    client.execute("set quantity(:a) = 11;")
                client.query_ro(QUERY)
                assert client.last_ro_epoch > first

    def test_multi_select_script_sees_one_epoch(self):
        with start_server() as server:
            host, port = server.address
            with AmosClient(host, port) as client:
                client.execute(SCHEMA)
                epoch, results = client.execute_ro(
                    f"{QUERY};\n{QUERY} and q < 20;"
                )
                assert epoch == server.amos.snapshot_epoch
                assert sorted(results[0]) == [(10,), (50,)]
                assert sorted(results[1]) == [(10,)]

    def test_rejects_updates_and_ddl(self):
        with start_server() as server:
            host, port = server.address
            with AmosClient(host, port) as client:
                client.execute(SCHEMA)
                for script in (
                    "set quantity(:a) = 1;",
                    "create type gadget;",
                    "begin;",
                ):
                    with pytest.raises(RemoteError):
                        client.execute_ro(script)
                # the connection survives the rejection
                assert client.query_ro(QUERY)

    def test_does_not_see_uncommitted_buffered_state(self):
        with start_server() as server:
            host, port = server.address
            with AmosClient(host, port) as writer, AmosClient(
                host, port
            ) as reader:
                writer.execute(SCHEMA)
                writer.begin()
                writer.execute("set quantity(:a) = 1;")
                # buffered on the writer's session, not yet applied
                assert sorted(reader.query_ro(QUERY)) == [(10,), (50,)]
                writer.commit()
                assert sorted(reader.query_ro(QUERY)) == [(1,), (50,)]

    def test_counters_and_lag_metrics(self):
        with start_server() as server:
            host, port = server.address
            with AmosClient(host, port) as client:
                client.execute(SCHEMA)
                client.query_ro(QUERY)
                client.query_ro(QUERY)
                stats = client.stats()
        assert stats["counters"]["server.query_ro"] == 2
        assert stats["gauges"]["snapshot.epoch_lag"]["value"] == 0
        assert stats["histograms"]["snapshot.epoch_lag"]["count"] == 2
        assert stats["histograms"]["server.query_ro_ms"]["count"] == 2
        sessions = {**stats["sessions"], **{
            s["id"]: s for s in stats["closed_sessions"]
        }}
        assert any(
            s["counters"].get("queries_ro") == 2 for s in sessions.values()
        )


class TestEpochPinnedReads:
    """Protocol v3: ``query_ro(epoch=...)`` pins one historic snapshot
    from the server's bounded history ring (``db.snapshot_history``)."""

    def test_pin_holds_a_past_epoch_across_commits(self):
        with start_server() as server:
            host, port = server.address
            with AmosClient(host, port) as client:
                client.execute(SCHEMA)
                client.query_ro(QUERY)
                pinned = client.last_ro_epoch
                with client.transaction():
                    client.execute("set quantity(:a) = 11;")
                with client.transaction():
                    client.execute("set quantity(:a) = 12;")
                # the pinned epoch still serves its original rows
                assert sorted(client.query_ro(QUERY, epoch=pinned)) == [
                    (10,),
                    (50,),
                ]
                assert client.last_ro_epoch == pinned
                assert sorted(client.query_ro(QUERY)) == [(12,), (50,)]

    def test_read_your_own_commit_via_its_acked_epoch(self):
        with start_server() as server:
            host, port = server.address
            with AmosClient(host, port) as writer, AmosClient(
                host, port
            ) as reader:
                writer.execute(SCHEMA)
                with writer.transaction():
                    writer.execute("set quantity(:a) = 11;")
                committed = writer.last_commit_epoch
                assert committed == server.amos.snapshot_epoch
                rows = reader.query_ro(QUERY, epoch=committed)
                assert sorted(rows) == [(11,), (50,)]

    def test_evicted_epoch_fails_with_a_clear_error(self):
        with start_server() as server:
            server.amos.storage.snapshot_history = 2
            host, port = server.address
            with AmosClient(host, port) as client:
                client.execute(SCHEMA)
                client.query_ro(QUERY)
                ancient = client.last_ro_epoch
                for value in (11, 12, 13):
                    with client.transaction():
                        client.execute(f"set quantity(:a) = {value};")
                with pytest.raises(RemoteError) as excinfo:
                    client.query_ro(QUERY, epoch=ancient)
                assert excinfo.value.remote_type == "SnapshotEpochError"
                assert "evicted" in str(excinfo.value)
                # the connection survives; the live snapshot still works
                assert sorted(client.query_ro(QUERY)) == [(13,), (50,)]

    def test_future_epoch_rejected(self):
        with start_server() as server:
            host, port = server.address
            with AmosClient(host, port) as client:
                client.execute(SCHEMA)
                with pytest.raises(RemoteError) as excinfo:
                    client.query_ro(QUERY, epoch=10_000)
                assert excinfo.value.remote_type == "SnapshotEpochError"
                assert "not been published" in str(excinfo.value)

    def test_non_integer_epoch_is_a_protocol_error(self):
        with start_server() as server:
            host, port = server.address
            with AmosClient(host, port) as client:
                client.execute(SCHEMA)
                with pytest.raises(RemoteError) as excinfo:
                    client._call("query_ro", script=f"{QUERY};", epoch="new")
                assert excinfo.value.remote_type == "ProtocolError"


class TestReadsOffTheCommitLock:
    def test_query_ro_completes_while_commit_holds_the_engine_lock(self):
        """THE acceptance test: block a commit mid-check-phase (it holds
        the engine lock) and still serve a query_ro from another
        connection, with the pre-commit epoch and rows."""
        entered = threading.Event()
        release = threading.Event()

        server = start_server()
        gate_calls = []

        def gate(oid):
            gate_calls.append(oid)
            entered.set()
            assert release.wait(timeout=30.0), "test never released the commit"

        server.amos.create_procedure("gate", ("item",), gate)
        server.start()
        host, port = server.address
        try:
            with AmosClient(host, port) as setup:
                setup.execute(SCHEMA)
                setup.execute(
                    """
                    create rule watch_low() as
                        when for each item i where quantity(i) < 5
                        do gate(i);
                    activate watch_low();
                    """
                )
            epoch_before = server.amos.snapshot_epoch

            def writer():
                with AmosClient(host, port) as client:
                    # iface vars are per-session: look the item up first
                    (row,) = client.query(
                        "select i for each item i where quantity(i) = 10"
                    )
                    client.bind("a", row[0])
                    with client.transaction():
                        client.execute("set quantity(:a) = 1;")

            blocked = threading.Thread(target=writer)
            blocked.start()
            try:
                # the commit is now inside its check phase, holding the
                # engine lock, waiting on `release`
                assert entered.wait(timeout=30.0)
                with AmosClient(host, port) as reader:
                    rows = reader.query_ro(QUERY)
                    assert sorted(rows) == [(10,), (50,)]  # pre-commit state
                    assert reader.last_ro_epoch == epoch_before
            finally:
                release.set()
                blocked.join(timeout=30.0)
            assert not blocked.is_alive()
            assert gate_calls  # the rule really fired

            # after the commit finished, reads see the new epoch
            with AmosClient(host, port) as reader:
                assert sorted(reader.query_ro(QUERY)) == [(1,), (50,)]
                assert reader.last_ro_epoch > epoch_before
        finally:
            release.set()
            server.stop()
