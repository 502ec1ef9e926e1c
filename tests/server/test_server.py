"""Integration tests: a live server, real sockets, the blocking client.

Every test boots its own :class:`AmosServer` on an ephemeral port over
the paper's inventory example (``monitor_items`` active, threshold
140, ``max_stock`` 5000/7500).
"""

import threading

import pytest

from repro.amos.oid import OID
from repro.errors import ProtocolError, RemoteError, ServerError
from repro.server import AmosClient, AmosServer, BUFFERED
from tests.conftest import make_inventory_engine


@pytest.fixture()
def inventory_server():
    """(server, orders): started server over the active inventory rule."""
    engine, orders = make_inventory_engine(explain=True)
    engine.execute("activate monitor_items();")
    server = AmosServer(amos=engine.amos, observe=True)
    server.start()
    try:
        yield server, orders
    finally:
        server.stop()


def connect(server, **kwargs):
    """A client for ``server``, not yet connected (``with`` connects)."""
    host, port = server.address
    return AmosClient(host, port, timeout=10.0, **kwargs)


class TestHandshake:
    def test_hello_ping_and_close(self, inventory_server):
        server, _ = inventory_server
        with connect(server) as client:
            assert client.session_id == "s1"
            assert client.connected
            assert client.ping() >= 0.0
            assert "s1" in repr(client)
        assert not client.connected
        client.close()  # idempotent

    def test_each_connection_gets_its_own_session(self, inventory_server):
        server, _ = inventory_server
        with connect(server) as a, connect(server) as b:
            assert a.session_id != b.session_id
            assert len(server.sessions) == 2

    def test_connect_refused_after_retries(self):
        client = AmosClient("127.0.0.1", 1, connect_retries=1, retry_delay=0.0)
        with pytest.raises(ServerError, match="cannot connect"):
            client.connect()

    def test_double_connect_rejected(self, inventory_server):
        server, _ = inventory_server
        with connect(server) as client:
            with pytest.raises(ServerError, match="already connected"):
                client.connect()


class TestStatements:
    def test_query_returns_typed_rows(self, inventory_server):
        server, _ = inventory_server
        with connect(server) as client:
            rows = client.query("select i, quantity(i) for each item i")
            assert sorted(q for _, q in rows) == [5000, 7500]
            assert all(isinstance(i, OID) and i.type_name == "item" for i, _ in rows)

    def test_autocommit_update_fires_the_rule(self, inventory_server):
        server, orders = inventory_server
        with connect(server) as client:
            ((item, _),) = client.query(
                "select i, quantity(i) for each item i where quantity(i) = 5000"
            )
            client.bind("i", item)
            client.execute("set quantity(:i) = 100;")
        assert orders == [(item, 5000 - 100)]

    def test_query_rejects_multi_statement_scripts(self, inventory_server):
        server, _ = inventory_server
        with connect(server) as client:
            with pytest.raises(ServerError, match="exactly one select"):
                client.query("select i for each item i; select i for each item i;")

    def test_bind_round_trips_plain_values(self, inventory_server):
        server, _ = inventory_server
        with connect(server) as client:
            client.bind("q", 4999)
            ((item, _),) = client.query(
                "select i, quantity(i) for each item i where quantity(i) = 5000"
            )
            client.bind("i", item)
            client.execute("set quantity(:i) = :q;")
            rows = client.query("select quantity(:i)")
            assert rows == [(4999,)]


class TestTransactions:
    def _item(self, client, quantity=5000):
        ((item, _),) = client.query(
            "select i, quantity(i) for each item i "
            f"where quantity(i) = {quantity}"
        )
        client.bind("i", item)
        return item

    def test_buffered_until_commit_and_isolated(self, inventory_server):
        server, orders = inventory_server
        with connect(server) as writer, connect(server) as reader:
            item = self._item(writer)
            reader.bind("i", item)
            writer.begin()
            results = writer.execute("set quantity(:i) = 100;")
            assert results == [BUFFERED]
            # nothing applied yet: the other session still sees 5000
            assert reader.query("select quantity(:i)") == [(5000,)]
            assert orders == []
            committed = writer.commit()
            assert committed == [None]  # a set statement has no result
            assert reader.query("select quantity(:i)") == [(100,)]
        assert orders == [(item, 4900)]

    def test_deferred_netting_dip_below_then_recover(self, inventory_server):
        server, orders = inventory_server
        with connect(server) as client:
            self._item(client)
            with client.transaction():
                client.execute("set quantity(:i) = 10;")
                client.execute("set quantity(:i) = 4000;")
            # net change stayed above threshold: deferred check fires nothing
            assert orders == []
            assert client.query("select quantity(:i)") == [(4000,)]

    def test_rollback_discards_the_buffer(self, inventory_server):
        server, orders = inventory_server
        with connect(server) as client:
            self._item(client)
            client.begin()
            client.execute("set quantity(:i) = 100;")
            client.rollback()
            assert client.query("select quantity(:i)") == [(5000,)]
        assert orders == []

    def test_transaction_context_rolls_back_on_error(self, inventory_server):
        server, orders = inventory_server
        with connect(server) as client:
            self._item(client)
            with pytest.raises(RuntimeError, match="boom"):
                with client.transaction():
                    client.execute("set quantity(:i) = 100;")
                    raise RuntimeError("boom")
            assert client.query("select quantity(:i)") == [(5000,)]
        assert orders == []

    def test_failed_commit_rolls_back_whole_transaction(self, inventory_server):
        server, orders = inventory_server
        with connect(server) as client:
            self._item(client)
            client.begin()
            client.execute("set quantity(:i) = 100;")
            client.execute("set quantity(:missing) = 1;")  # fails at replay
            with pytest.raises(RemoteError):
                client.commit()
            # the first buffered statement was rolled back with the rest
            assert client.query("select quantity(:i)") == [(5000,)]
            # and the transaction scope is closed (no half-open buffer)
            with pytest.raises(RemoteError, match="commit without begin"):
                client.commit()
        assert orders == []

    def test_commit_without_begin_is_a_remote_error(self, inventory_server):
        server, _ = inventory_server
        with connect(server) as client:
            with pytest.raises(RemoteError, match="commit without begin") as info:
                client.commit()
            assert info.value.remote_type == "TransactionError"
            with pytest.raises(RemoteError, match="rollback without begin"):
                client.rollback()
            client.begin()
            with pytest.raises(RemoteError, match="already in progress"):
                client.begin()


class TestErrors:
    def test_errors_keep_the_connection_alive(self, inventory_server):
        server, _ = inventory_server
        with connect(server) as client:
            with pytest.raises(RemoteError):
                client.execute("select nonsense gibberish;")
            # the connection survived the request-level failure
            assert client.ping() >= 0.0
            assert client.query("select threshold(i) for each item i")

    def test_unknown_op_is_reported(self, inventory_server):
        server, _ = inventory_server
        with connect(server) as client:
            with pytest.raises(RemoteError, match="unknown op") as info:
                client._call("dance")
            assert info.value.remote_type == "ProtocolError"

    def test_execute_needs_a_string_script(self, inventory_server):
        server, _ = inventory_server
        with connect(server) as client:
            with pytest.raises(RemoteError, match="string 'script'"):
                client._call("execute", script=42)
            with pytest.raises(RemoteError, match="string 'name'"):
                client._call("bind", name="", value=1)

    def test_amos_options_conflict_with_existing_database(self):
        engine, _ = make_inventory_engine()
        with pytest.raises(ServerError, match="amos_options"):
            AmosServer(amos=engine.amos, mode="naive")

    def test_start_twice_rejected(self, inventory_server):
        server, _ = inventory_server
        with pytest.raises(ServerError, match="already started"):
            server.start()


class TestObservability:
    def test_stats_counters_and_sessions(self, inventory_server):
        server, _ = inventory_server
        session_closed = threading.Event()
        server.sessions.add_close_listener(lambda _s, _r: session_closed.set())
        with connect(server) as client:
            with client.transaction():
                client.execute(
                    "select i for each item i;"
                )  # buffered select, replayed at commit
            stats = client.stats()
            assert stats["counters"]["server.commits"] == 1
            assert stats["counters"]["server.statements_buffered"] == 1
            assert stats["gauges"]["server.connections"]["value"] == 1
            assert stats["address"] == list(server.address)
            session = stats["sessions"][client.session_id]
            assert session["counters"]["commits"] == 1
        # after disconnect the session moves to the closed history; the
        # close listener fires the moment the registry drops it
        assert session_closed.wait(timeout=5.0), "session close never signalled"
        closed = server.sessions.recent_closed()
        assert any(snap["id"] == "s1" for snap in closed)

    def test_commit_span_wraps_the_check_phase(self, inventory_server):
        server, _ = inventory_server
        with connect(server) as client:
            session_id = client.session_id
            with client.transaction():
                client.execute("select i for each item i;")
        trace = server.last_commit_trace
        assert trace is not None and trace.name == "server.commit"
        assert trace.attributes["session"] == session_id
        assert trace.attributes["statements"] == 1
        assert trace.find("check_phase"), "check_phase must nest under the commit"

    def test_unobserved_server_skips_spans(self):
        engine, _ = make_inventory_engine()
        with AmosServer(amos=engine.amos, observe=False) as server:
            with connect(server) as client:
                with client.transaction():
                    client.execute("select i for each item i;")
            assert server.last_commit_trace is None
            assert server.stats()["counters"]["server.commits"] == 1


class FakeClock:
    """A hand-advanced monotonic clock for deterministic reaping tests."""

    def __init__(self, start=1000.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestHandlerThreads:
    def test_finished_handlers_are_pruned_and_stop_is_prompt(self):
        import time

        engine, _ = make_inventory_engine()
        server = AmosServer(amos=engine.amos, idle_timeout=3600.0)
        server.start()
        try:
            with connect(server) as keeper:
                for _ in range(200):
                    with connect(server) as client:
                        client.ping()
                keeper.ping()
                # the last few handlers may still be winding down; all
                # but those are gone: the live connection, acceptor,
                # reaper and a small tail — not one thread per cycle
                assert len(server._threads) <= 3 + 8
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    with connect(server) as client:  # an accept prunes
                        client.ping()
                    if len(server._threads) <= 4:
                        break
                    time.sleep(0.01)
                # keeper + acceptor + reaper + the handler just accepted
                assert len(server._threads) <= 4
        finally:
            started = time.monotonic()
            server.stop()
            assert time.monotonic() - started < 2.0


class TestReaping:
    def test_idle_sessions_are_reaped(self):
        engine, _ = make_inventory_engine()
        clock = FakeClock()
        # reap_interval keeps the background reaper thread out of the
        # way; the test drives reaping by hand through the fake clock
        server = AmosServer(
            amos=engine.amos, idle_timeout=30.0, reap_interval=3600.0,
            clock=clock,
        )
        server.start()
        try:
            client = connect(server)
            client.connect()
            assert client.ping() >= 0.0
            assert server.reap_idle_sessions() == 0  # fresh: not idle yet
            clock.advance(31.0)
            assert server.reap_idle_sessions() == 1
            assert len(server.sessions) == 0, "idle session was not reaped"
            stats = server.stats()
            assert stats["counters"]["server.sessions_reaped"] >= 1
            assert any(
                snap["closed_reason"] == "reaped"
                for snap in stats["closed_sessions"]
            )
            with pytest.raises((ProtocolError, ServerError, OSError)):
                client.ping()
                client.ping()  # second call sees the dropped connection
        finally:
            server.stop()

    def test_busy_sessions_survive(self):
        engine, _ = make_inventory_engine()
        clock = FakeClock()
        server = AmosServer(
            amos=engine.amos, idle_timeout=30.0, reap_interval=3600.0,
            clock=clock,
        )
        server.start()
        try:
            with connect(server) as client:
                for _ in range(6):
                    clock.advance(20.0)
                    client.ping()  # keeps touching the session
                    assert server.reap_idle_sessions() == 0
                assert len(server.sessions) == 1
        finally:
            server.stop()
