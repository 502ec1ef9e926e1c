"""AmosServer: a concurrent AMOSQL network front end for one database.

The server hosts ONE :class:`~repro.amos.database.AmosDatabase` and
multiplexes many client sessions onto it:

* a threaded accept loop hands each connection to its own handler
  thread and session (:mod:`repro.server.session`);
* statements outside an explicit transaction execute immediately
  (autocommit, exactly like the in-process engine);
* inside ``begin; ... commit;`` statements **buffer in the session**
  and are replayed at commit under one global **engine lock** — the
  transaction apply *and* the deferred check phase run as a single
  critical section, so delta-sets from concurrent sessions never
  interleave.  The paper's deferred semantics are per-transaction;
  this lock is the correctness boundary, not a convenience.

With ``observe`` on, every commit is wrapped in a ``server.commit``
span whose children include the rule manager's existing
``check_phase`` span, and the server keeps its own always-on metrics
registry (``server.*`` counters, connection/inflight gauges) readable
via :meth:`AmosServer.stats` or the ``stats`` protocol op — see
``docs/SERVER.md`` and ``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from repro.amos.database import AmosDatabase
from repro.amosql import ast
from repro.amosql.interpreter import AmosqlEngine, register_print_procedures
from repro.amosql.parser import parse
from repro.errors import ProtocolError, ServerError, TransactionError
from repro.obs import metrics, tracing
from repro.server import codec, protocol
from repro.server.session import Session, SessionRegistry

__all__ = ["AmosServer", "serve", "parse_hostport"]


class AmosServer:
    """A TCP server multiplexing AMOSQL sessions onto one database.

    Parameters
    ----------
    amos:
        An existing database to serve; one is created from
        ``amos_options`` (``mode``, ``observe``, ...) when omitted.
    host / port:
        Bind address; ``port=0`` picks a free port (see ``address``).
    idle_timeout:
        Seconds after which an idle session's connection is reaped
        (None disables reaping).
    observe:
        Wrap commits in ``server.commit`` spans.  Defaults to the
        database's own ``observe`` setting.
    wal_dir:
        Directory of the durable write-ahead Δ-log.  On :meth:`start`
        the server first *recovers* — replays any committed records the
        directory holds (truncating a torn tail) — and only then binds
        and accepts connections; afterwards every commit is fsync'd to
        the log before its ack leaves the server.  None (the default)
        keeps the database memory-only.  See ``docs/DURABILITY.md``.
    """

    def __init__(
        self,
        amos: Optional[AmosDatabase] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout: Optional[float] = None,
        reap_interval: Optional[float] = None,
        max_frame: int = protocol.MAX_FRAME,
        observe: Optional[bool] = None,
        wal_dir: Optional[str] = None,
        clock=None,
        **amos_options,
    ) -> None:
        if amos is None:
            if observe is not None:
                amos_options.setdefault("observe", observe)
            amos = AmosDatabase(**amos_options)
        elif amos_options:
            raise ServerError(
                "amos_options are only valid when the server creates the "
                f"database, got {sorted(amos_options)}"
            )
        self.amos = amos
        # every commit under the engine lock publishes a fresh snapshot,
        # which is what the lock-free query_ro path reads
        self.amos.storage.auto_publish = True
        self.observe = (
            observe if observe is not None else getattr(amos.rules, "observe", False)
        )
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.sessions = (
            SessionRegistry(idle_timeout)
            if clock is None
            else SessionRegistry(idle_timeout, clock=clock)
        )
        self._reap_interval = reap_interval
        #: durable Δ-log directory (recovery happens in start())
        self.wal_dir = wal_dir
        self.last_recovery = None
        #: fans the WAL stream out to replicas (created in start() when
        #: a write-ahead log is attached; see repro.replication)
        self.replication_hub = None
        #: serializes every statement's apply + check phase (one writer)
        self._engine_lock = threading.RLock()
        self._stats_lock = threading.Lock()
        #: always-on server-local registry; global metrics.ACTIVE tees in
        self.registry = metrics.Registry()
        self.last_commit_trace = None
        self.address: Optional[Tuple[str, int]] = None
        self._listener: Optional[socket.socket] = None
        self._threads: List[threading.Thread] = []
        self._stop = threading.Event()

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "AmosServer":
        """Bind, listen, and spawn the accept (and reaper) threads."""
        if self._listener is not None:
            raise ServerError("server already started")
        # publish the boot-time state so the very first query_ro already
        # has a snapshot matching the (possibly script-bootstrapped) db
        with self._engine_lock:
            self.amos.storage.publish_snapshot()
            # recover the durable Δ-log BEFORE accepting connections:
            # no client may observe (or commit over) pre-replay state
            if self.wal_dir is not None and self.amos.wal is None:
                report = self.amos.open_wal(self.wal_dir)
                self.last_recovery = report
                # recover() already counted this one globally
                self.registry.counter("wal.recovered_records").inc(report.records)
                self._count("wal.recovered_commits", report.commits)
            if self.amos.wal is not None and self.replication_hub is None:
                # local import: repro.replication imports repro.server
                from repro.replication.hub import ReplicationHub

                self.replication_hub = ReplicationHub(
                    self.amos.wal,
                    epoch_of=lambda: self.amos.storage.snapshot_epoch,
                    registry=self.registry,
                    max_frame=self.max_frame,
                )
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self.address = listener.getsockname()[:2]
        self._listener = listener
        self._stop.clear()
        acceptor = threading.Thread(
            target=self._accept_loop, name="repro-server-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        if self.sessions.idle_timeout is not None:
            reaper = threading.Thread(
                target=self._reap_loop, name="repro-server-reaper", daemon=True
            )
            reaper.start()
            self._threads.append(reaper)
        return self

    def stop(self) -> None:
        """Close the listener and every live connection; join threads."""
        self._stop.set()
        if self.replication_hub is not None:
            self.replication_hub.close()
        listener, self._listener = self._listener, None
        if listener is not None:
            # shutdown() wakes a thread blocked in accept(); close()
            # alone leaves it stuck until the join timeout below
            try:
                listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                listener.close()
            except OSError:
                pass
        for session in self.sessions.active():
            self._close_connection(session)
        for thread in list(self._threads):
            if thread is not threading.current_thread():
                thread.join(timeout=5.0)
        self._threads = []
        # every acked commit is already on disk; just release the fd so
        # a restart (or another server) can reopen the same directory
        if self.wal_dir is not None:
            self.amos.detach_wal()

    def serve_forever(self) -> None:
        """Block until :meth:`stop` is called (start()s when needed)."""
        if self._listener is None:
            self.start()
        self._stop.wait()

    def __enter__(self) -> "AmosServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- threads ------------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stop.is_set():
            try:
                conn, addr = listener.accept()
            except OSError:
                break  # listener closed by stop()
            handler = threading.Thread(
                target=self._serve_connection,
                args=(conn, addr),
                name=f"repro-server-conn-{addr[1]}",
                daemon=True,
            )
            handler.start()
            # prune finished handlers as new ones arrive, so the list —
            # and what stop() has to join — stays bounded by the live
            # connections (in place: stop() iterates a copy)
            self._threads[:] = [t for t in self._threads if t.is_alive()]
            self._threads.append(handler)

    def _reap_loop(self) -> None:
        timeout = self.sessions.idle_timeout
        interval = self._reap_interval or max(timeout / 4.0, 0.05)
        while not self._stop.wait(interval):
            self.reap_idle_sessions()

    def reap_idle_sessions(self) -> int:
        """One reaping pass: close every session idle past the timeout.

        The reaper thread runs this periodically; tests with a fake
        clock call it directly for deterministic reaping.
        """
        reaped = self.sessions.reap()
        for session in reaped:
            self._count("server.sessions_reaped")
            self._close_connection(session)
        return len(reaped)

    def _close_connection(self, session: Session) -> None:
        conn = session.conn
        if conn is None:
            return
        try:
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            conn.close()
        except OSError:
            pass

    # -- connection handling ------------------------------------------------------

    def _serve_connection(self, conn: socket.socket, addr) -> None:
        session = self.sessions.open(
            engine=AmosqlEngine(self.amos), conn=conn, address=addr
        )
        self._count("server.sessions_opened")
        self._gauge("server.connections", +1)
        try:
            protocol.write_frame(
                conn,
                {
                    "ok": True,
                    "event": "hello",
                    "session": session.id,
                    "server": "repro",
                    "protocol": protocol.PROTOCOL_VERSION,
                },
                self.max_frame,
            )
            while not self._stop.is_set():
                try:
                    request = protocol.read_frame(conn, self.max_frame)
                except ProtocolError as exc:
                    # framing is broken; report once and hang up
                    self._count("server.protocol_errors")
                    self._try_send(conn, self._error_response(None, exc))
                    break
                if request is None:
                    break  # clean disconnect
                session.touch()
                response = self._dispatch(session, request)
                protocol.write_frame(conn, response, self.max_frame)
                if response.get("event") == "replicate":
                    # the connection switches to push mode: this thread
                    # now belongs to the replication hub until the
                    # subscriber hangs up (never touches the engine lock)
                    self._count("server.replicate_streams")
                    self.replication_hub.stream(
                        conn, response["resume_lsn"] - 1, peer=addr
                    )
                    break
                if response.get("event") == "bye":
                    break
        except OSError:
            pass  # peer vanished (or reaper closed us) mid-write
        finally:
            self.sessions.close(session.id)
            self._gauge("server.connections", -1)
            try:
                conn.close()
            except OSError:
                pass

    def _try_send(self, conn: socket.socket, payload: Dict) -> None:
        try:
            protocol.write_frame(conn, payload, self.max_frame)
        except OSError:
            pass

    # -- request dispatch ---------------------------------------------------------

    def _dispatch(self, session: Session, request: Dict) -> Dict:
        request_id = request.get("id")
        self._gauge("server.inflight", +1)
        try:
            op = request.get("op")
            if op == "execute":
                script = request.get("script")
                if not isinstance(script, str):
                    raise ProtocolError("execute needs a string 'script'")
                results = self._execute_script(session, script)
                return {"ok": True, "id": request_id, "results": results}
            if op == "query_ro":
                script = request.get("script")
                if not isinstance(script, str):
                    raise ProtocolError("query_ro needs a string 'script'")
                epoch = request.get("epoch")
                if epoch is not None and not isinstance(epoch, int):
                    raise ProtocolError("query_ro 'epoch' must be an integer")
                return self._query_readonly(session, request_id, script, epoch)
            if op == "bind":
                name, value = request.get("name"), request.get("value")
                if not isinstance(name, str) or not name:
                    raise ProtocolError("bind needs a string 'name'")
                session.engine.iface[name] = codec.decode_value(value)
                return {"ok": True, "id": request_id}
            if op == "replicate":
                if self.replication_hub is None:
                    raise ServerError(
                        "replication requires a write-ahead log — start "
                        "the primary with wal_dir= (--wal-dir)"
                    )
                return self.replication_hub.handshake(
                    request.get("last_lsn", -1), request_id
                )
            if op == "ping":
                return {"ok": True, "id": request_id, "pong": time.time()}
            if op == "stats":
                return {"ok": True, "id": request_id, "stats": self.stats()}
            if op == "close":
                return {"ok": True, "id": request_id, "event": "bye"}
            raise ProtocolError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 - any failure becomes a response
            self._count("server.errors")
            with self._stats_lock:
                session.counters["errors"] += 1
            return self._error_response(request_id, exc)
        finally:
            self._gauge("server.inflight", -1)

    @staticmethod
    def _error_response(request_id, exc: Exception) -> Dict:
        return {
            "ok": False,
            "id": request_id,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }

    # -- lock-free reads ----------------------------------------------------------

    def _query_readonly(
        self, session: Session, request_id, script: str, epoch=None
    ) -> Dict:
        """Serve a script of selects from the latest published snapshot.

        This path NEVER takes the engine lock: picking up the snapshot
        is a single reference read, the snapshot itself is immutable,
        and auxiliary NOT-predicates compile into a program overlay
        local to the query.  A commit may be mid-check-phase on another
        thread — the reader still answers, one epoch behind at most.
        With ``epoch`` (protocol v3) the read pins that specific epoch
        from the bounded snapshot history ring instead; evicted epochs
        fail with ``SnapshotEpochError``.
        """
        start = time.perf_counter()
        snapshot, raw = session.engine.execute_readonly(script, epoch=epoch)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        # how far the served epoch trails the latest published one;
        # both loads are racy but monotone, so lag is >= 0
        lag = max(0, self.amos.storage.snapshot_epoch - snapshot.epoch)
        self._count("server.query_ro")
        self._observe_histogram("server.query_ro_ms", elapsed_ms)
        self._observe_histogram("snapshot.epoch_lag", lag)
        with self._stats_lock:
            self.registry.gauge("snapshot.epoch_lag").set(lag)
            reg = metrics.ACTIVE
            if reg is not None:
                reg.gauge("snapshot.epoch_lag").set(lag)
            session.counters["queries_ro"] += 1
            session.last_ro_epoch = snapshot.epoch
        return {
            "ok": True,
            "id": request_id,
            "epoch": snapshot.epoch,
            "results": [
                {"kind": "rows", "rows": [codec.encode_row(row) for row in rows]}
                for rows in raw
            ],
        }

    # -- statement execution ------------------------------------------------------

    def _execute_script(self, session: Session, script: str) -> List[Dict]:
        return [
            self._execute_statement(session, statement)
            for statement in parse(script)
        ]

    def _execute_statement(self, session: Session, statement) -> Dict:
        if isinstance(statement, ast.BeginTransaction):
            if session.in_transaction:
                raise TransactionError("transaction already in progress")
            session.begin()
            return {"kind": "begun"}
        if isinstance(statement, ast.CommitTransaction):
            if not session.in_transaction:
                raise TransactionError("commit without begin")
            results, epoch = self._commit_session(session)
            return {"kind": "committed", "results": results, "epoch": epoch}
        if isinstance(statement, ast.RollbackTransaction):
            if not session.in_transaction:
                raise TransactionError("rollback without begin")
            session.abort()
            self._count("server.rollbacks")
            with self._stats_lock:
                session.counters["rollbacks"] += 1
            return {"kind": "rolledback"}
        if session.in_transaction:
            session.buffer.append(statement)
            self._count("server.statements_buffered")
            return {"kind": "buffered"}
        # autocommit: a single-statement transaction under the engine lock
        with self._engine_lock:
            result = session.engine.execute_statement(statement)
        self._count("server.statements")
        with self._stats_lock:
            session.counters["statements"] += 1
        return codec.encode_result(statement, result)

    def _commit_session(self, session: Session):
        """Replay the session's buffered statements as ONE transaction.

        Holds the engine lock for the whole apply-and-check critical
        section, so the check phase sees exactly this transaction's net
        Δ; a failure rolls the storage transaction back.  Returns
        ``(results, epoch)``: the encoded per-statement results and the
        snapshot epoch the commit published.  The session's transaction
        scope is closed either way — a failed commit never leaves half a
        buffer behind.
        """
        statements = session.take_buffer()
        amos = self.amos
        start = time.perf_counter()
        with self._engine_lock:
            own_tracer = None
            if self.observe and tracing.ACTIVE is None:
                own_tracer = tracing.Tracer()
                tracing.install(own_tracer)
            tracer = tracing.ACTIVE
            span = (
                tracer.begin(
                    "server.commit",
                    session=session.id,
                    statements=len(statements),
                )
                if tracer is not None
                else None
            )
            try:
                amos.begin()
                try:
                    raw = [
                        session.engine.execute_statement(statement)
                        for statement in statements
                    ]
                    amos.commit()
                except BaseException:
                    if amos.storage.in_transaction:
                        amos.rollback()
                    raise
            finally:
                if span is not None:
                    tracer.finish(span)
                    self.last_commit_trace = span
                    session.last_commit_trace = span
                if own_tracer is not None:
                    tracing.uninstall()
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._count("server.commits")
        self._count("server.statements", len(statements))
        self._observe_histogram("server.commit_ms", elapsed_ms)
        with self._stats_lock:
            session.counters["commits"] += 1
            session.counters["statements"] += len(statements)
        results = [
            codec.encode_result(statement, result)
            for statement, result in zip(statements, raw)
        ]
        return results, self.amos.storage.snapshot_epoch

    # -- metrics ------------------------------------------------------------------

    def _count(self, name: str, n: int = 1) -> None:
        with self._stats_lock:
            self.registry.counter(name).inc(n)
            reg = metrics.ACTIVE
            if reg is not None:
                reg.counter(name).inc(n)

    def _gauge(self, name: str, delta: int) -> None:
        with self._stats_lock:
            self.registry.gauge(name).inc(delta)
            reg = metrics.ACTIVE
            if reg is not None:
                reg.gauge(name).inc(delta)

    def _observe_histogram(self, name: str, value: float) -> None:
        with self._stats_lock:
            self.registry.histogram(name).observe(value)
            reg = metrics.ACTIVE
            if reg is not None:
                reg.histogram(name).observe(value)

    def stats(self) -> Dict[str, object]:
        """``last_check_stats()``-style export of the server's own view:
        ``server.*`` counters/gauges/histograms plus per-session
        counters for live and recently closed sessions."""
        with self._stats_lock:
            registry_dump = self.registry.as_dict()
        wal = self.amos.wal
        return {
            "counters": registry_dump["counters"],
            "gauges": registry_dump["gauges"],
            "histograms": registry_dump["histograms"],
            "sessions": {
                session.id: session.snapshot()
                for session in self.sessions.active()
            },
            "closed_sessions": self.sessions.recent_closed(),
            "address": list(self.address) if self.address else None,
            "wal": wal.stats() if wal is not None else None,
            "replication": (
                self.replication_hub.subscribers()
                if self.replication_hub is not None
                else None
            ),
        }

    def __repr__(self) -> str:
        return (
            f"AmosServer(address={self.address}, "
            f"sessions={len(self.sessions)}, observe={self.observe})"
        )


def parse_hostport(text: str, default_host: str = "127.0.0.1") -> Tuple[str, int]:
    """Parse ``HOST:PORT`` (also accepts ``:PORT`` and bare ``PORT``)."""
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = default_host, text
    host = host or default_host
    try:
        port = int(port_text)
    except ValueError:
        raise ServerError(f"invalid HOST:PORT {text!r}") from None
    return host, port


def serve(
    host: str,
    port: int,
    mode: str = "incremental",
    observe: bool = True,
    script: Optional[str] = None,
    idle_timeout: Optional[float] = None,
    wal_dir: Optional[str] = None,
    out=None,
) -> int:
    """Run a server until interrupted (the ``--serve`` entry point).

    Registers the shell's ``print_`` procedures (so rule actions in
    example scripts work over the wire) and optionally bootstraps the
    database from an AMOSQL ``script`` before accepting connections.
    With ``wal_dir``, the bootstrap script must be the SAME one the
    directory's log was recorded against: schema is code, the log
    stores only the committed changes made on top of it (replayed by
    ``start()`` before the listener opens; see docs/DURABILITY.md).
    """
    out = out or sys.stdout
    server = AmosServer(
        host=host,
        port=port,
        mode=mode,
        observe=observe,
        explain=True,
        idle_timeout=idle_timeout,
        wal_dir=wal_dir,
    )
    register_print_procedures(server.amos, out)
    if script:
        AmosqlEngine(server.amos).execute(script)
    server.start()
    if server.last_recovery is not None:
        report = server.last_recovery
        print(
            f"recovered {report.commits} commit(s) "
            f"({report.records} record(s), epoch {report.last_epoch}) "
            f"from {wal_dir}",
            file=out,
            flush=True,
        )
    print(
        f"repro server listening on {server.address[0]}:{server.address[1]} "
        f"(mode={mode}, idle_timeout={idle_timeout}, wal_dir={wal_dir})",
        file=out,
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=out, flush=True)
    finally:
        server.stop()
    return 0
