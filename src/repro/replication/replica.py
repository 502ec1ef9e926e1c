"""ReplicaServer: apply the primary's WAL stream, serve lock-free reads.

A replica is a :class:`~repro.server.server.AmosServer` whose database
is never written by clients: an apply thread subscribes to the
primary's replication stream (``replicate`` op, protocol v4) and plays
every record through the SAME function crash recovery loops over
(:func:`repro.storage.wal.apply_record`; docs/DURABILITY.md, "Applying
a committed record").  Each commit record is published at *exactly* the
primary's commit epoch: ``query_ro`` readers observe whole epochs or
nothing, and an epoch-pinned read means the same bytes here as on the
primary.

Durability is log-then-apply: every received record is appended
verbatim to the replica's own WAL copy (``wal_dir``) *before* it is
applied.  A replica killed mid-apply restarts, recovers from its own
copy (replaying the logged-but-unapplied record), and resumes the
stream from its last durable LSN via the handshake — the primary never
re-sends what the replica already holds.

Writes (``execute``) and cascading ``replicate`` requests are refused
with :class:`~repro.errors.ReplicaReadOnlyError` naming the primary.
"""

from __future__ import annotations

import socket
import sys
import threading
import time
from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

from repro.errors import ReplicaReadOnlyError, ReplicationError
from repro.obs import metrics
from repro.server import protocol
from repro.server.server import AmosServer, parse_hostport
from repro.storage import wal as wal_module
from repro.storage.wal import WalRecord, WriteAheadLog

__all__ = ["ReplicaServer", "REPLICA_FAULT_POINTS", "serve_replica"]

#: named kill points of the apply loop, in apply order (tests/fault):
#: pre_log   — record received, nothing durable yet (re-fetched on resume)
#: mid_apply — record logged to the replica's WAL copy, not yet applied
#:             (recovery replays it from the copy)
#: post_apply— record applied, waiters not yet notified
REPLICA_FAULT_POINTS = (
    "replica.apply.pre_log",
    "replica.apply.mid_apply",
    "replica.apply.post_apply",
)


class ReplicaServer(AmosServer):
    """A read-only follower of one primary's replication stream.

    Parameters
    ----------
    primary:
        The primary's address — ``(host, port)`` or ``"host:port"``.
    factory:
        Zero-argument callable building the schema bootstrap — the SAME
        types/functions/rules/procedures the primary was bootstrapped
        with (schema is code; the stream carries only data).  Mutually
        exclusive with ``amos``.
    wal_dir:
        Directory for the replica's own WAL copy.  Strongly
        recommended: without it a crash loses all replicated state and
        the stream restarts from LSN 0.
    reconnect:
        Keep retrying the primary with exponential backoff (default);
        ``False`` makes a broken stream terminal (tests).
    fault_hook:
        Fault-injection seam called at each :data:`REPLICA_FAULT_POINTS`
        step.  Production leaves it ``None``.
    ro_cache_size:
        Capacity of the epoch-keyed read cache (default 128 entries;
        0 disables it).  A replica is a read-optimized node: identical
        ``query_ro`` requests at the same published epoch return the
        same bytes by construction, so results are cached under
        ``(script, epoch, session binds)`` and every applied commit
        invalidates naturally by advancing the epoch.  The primary
        deliberately carries no such cache — it spends its cycles on
        check phases.

    Remaining keyword arguments go to :class:`AmosServer` (``host``,
    ``port``, ``observe``, ...).  A base-class ``wal_dir`` makes no
    sense here and is not accepted.
    """

    def __init__(
        self,
        primary: Union[str, Tuple[str, int]],
        factory=None,
        amos=None,
        wal_dir: Optional[str] = None,
        reconnect: bool = True,
        reconnect_delay: float = 0.05,
        max_reconnect_delay: float = 2.0,
        connect_timeout: float = 5.0,
        stream_timeout: float = 30.0,
        fault_hook=None,
        ro_cache_size: int = 128,
        **server_options,
    ) -> None:
        if amos is None and factory is not None:
            amos = factory()
        super().__init__(amos=amos, **server_options)
        self.primary = (
            parse_hostport(primary) if isinstance(primary, str) else tuple(primary)
        )
        #: the replica's own WAL copy (kept off the base class attribute
        #: so AmosServer never attaches it to the engine: records are
        #: appended verbatim by the apply loop, not by commit listeners)
        self.wal_copy_dir = wal_dir
        self.reconnect = reconnect
        self.reconnect_delay = reconnect_delay
        self.max_reconnect_delay = max_reconnect_delay
        self.connect_timeout = connect_timeout
        self.stream_timeout = stream_timeout
        self.fault_hook = fault_hook
        self._wal: Optional[WriteAheadLog] = None
        #: the next stream LSN this replica needs
        self.next_lsn = 0
        self.last_recovery = None
        #: epochs come ONLY from the stream (each commit record's) plus the one
        #: boot publish — a local auto-publish would mint epochs the
        #: primary never had and break epoch-pinned read equivalence
        self.amos.storage.auto_publish = False
        self.primary_epoch = 0
        self.last_applied_lsn = -1
        self.apply_error: Optional[BaseException] = None
        self.last_stream_error: Optional[Exception] = None
        self.connected = threading.Event()
        self._applied = threading.Condition()
        self._stop_apply = threading.Event()
        self._sock_lock = threading.Lock()
        self._primary_sock: Optional[socket.socket] = None
        self._apply_thread: Optional[threading.Thread] = None
        self.ro_cache_size = max(0, int(ro_cache_size))
        self._ro_cache: "OrderedDict[tuple, Dict]" = OrderedDict()
        self._ro_cache_lock = threading.Lock()

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> "ReplicaServer":
        """Recover the local WAL copy, bind, then chase the primary."""
        if self._listener is not None:
            raise ReplicationError("replica already started")
        if self.wal_copy_dir is not None:
            # replay the copy, then keep the log open for verbatim
            # appends — never attached: commit/catalog listeners would
            # double-log every record the apply loop replays
            self._wal = WriteAheadLog(self.wal_copy_dir)
            report = self.last_recovery = wal_module.replay(self._wal, self.amos)
            self.next_lsn = self._wal.next_lsn
            # replay() already counted wal.recovered_records globally
            self.registry.counter("wal.recovered_records").inc(report.records)
            self._count("replica.recovered_records", report.records)
        if self.amos.storage.snapshot_epoch == 0:
            # mirror the primary's single boot publish over the shared
            # bootstrap, so epoch 1 means the same state on both sides
            self.amos.storage.publish_snapshot()
        super().start()
        self._stop_apply.clear()
        self._apply_thread = threading.Thread(
            target=self._run_apply, name="repro-replica-apply", daemon=True
        )
        self._apply_thread.start()
        return self

    def stop(self) -> None:
        self._stop_apply.set()
        with self._sock_lock:
            sock = self._primary_sock
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass
        thread = self._apply_thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(timeout=5.0)
        self._apply_thread = None
        super().stop()
        if self._wal is not None:
            self._wal.close()
            self._wal = None

    # -- the apply loop -----------------------------------------------------------

    def _run_apply(self) -> None:
        try:
            self._apply_loop()
        except BaseException as exc:  # noqa: BLE001 - incl. InjectedCrash
            self.apply_error = exc
            self._count("replica.apply_crashes")
            with self._applied:
                self._applied.notify_all()

    def _apply_loop(self) -> None:
        delay = self.reconnect_delay
        while not self._stop_apply.is_set():
            try:
                self._stream_once()
                delay = self.reconnect_delay
            except Exception as exc:  # noqa: BLE001 - reconnect heals it
                if self._stop_apply.is_set():
                    return
                self.last_stream_error = exc
            if self._stop_apply.is_set() or not self.reconnect:
                return
            self._count("replica.reconnects")
            time.sleep(delay)
            delay = min(delay * 2, self.max_reconnect_delay)

    def _stream_once(self) -> None:
        """One connect → handshake → apply-until-disconnect cycle."""
        host, port = self.primary
        sock = socket.create_connection(
            (host, port), timeout=self.connect_timeout
        )
        try:
            sock.settimeout(self.stream_timeout)
            hello = protocol.read_frame(sock, self.max_frame)
            if hello is None or hello.get("event") != "hello":
                raise ReplicationError(
                    f"primary at {host}:{port} did not send a hello frame"
                )
            protocol.write_frame(
                sock,
                {"id": 0, "op": "replicate", "last_lsn": self.next_lsn - 1},
                self.max_frame,
            )
            ack = protocol.read_frame(sock, self.max_frame)
            if ack is None:
                raise ReplicationError(
                    f"primary at {host}:{port} closed during the "
                    "replicate handshake"
                )
            if not ack.get("ok"):
                error = ack.get("error") or {}
                raise ReplicationError(
                    f"primary at {host}:{port} refused replication: "
                    f"{error.get('type')}: {error.get('message')}"
                )
            self._note_primary_epoch(ack.get("epoch", 0))
            with self._sock_lock:
                self._primary_sock = sock
            self.connected.set()
            while not self._stop_apply.is_set():
                frame = protocol.read_frame(sock, self.max_frame)
                if frame is None:
                    return  # primary went away cleanly; reconnect
                event = frame.get("event")
                if event == "wal":
                    self._apply_batch(
                        [WalRecord.from_payload(p) for p in frame.get("records", ())]
                    )
                elif event == "heartbeat":
                    self._note_primary_epoch(frame.get("epoch", 0))
        finally:
            self.connected.clear()
            with self._sock_lock:
                self._primary_sock = None
            try:
                sock.close()
            except OSError:
                pass

    def _apply_batch(self, records) -> None:
        """Apply one ``wal`` frame's records, each under the engine lock."""
        try:
            for record in records:
                with self._engine_lock:
                    self._apply_record(record)
        finally:
            if "rule" in {record.kind for record in records}:
                # replay happens beneath the engine, so re-baseline the
                # freshly-(de)activated monitor set — once per batch
                with self._engine_lock:
                    self.amos.rules.resync_engine()

    def _apply_record(self, record: WalRecord) -> None:
        """Log-then-apply one stream record (runs on the apply thread)."""
        self._fault("replica.apply.pre_log", lsn=record.lsn, kind=record.kind)
        if record.lsn != self.next_lsn:
            raise ReplicationError(
                f"replication stream gap: got lsn {record.lsn}, "
                f"expected {self.next_lsn}"
            )
        if self._wal is not None:
            self._wal.append_record(record)
        self.next_lsn = record.lsn + 1
        self._fault("replica.apply.mid_apply", lsn=record.lsn, kind=record.kind)
        start = time.perf_counter()
        wal_module.apply_record(self.amos, record)
        self._note_primary_epoch(record.epoch)  # 0 (a no-op) off commits
        self._fault("replica.apply.post_apply", lsn=record.lsn, kind=record.kind)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        self._count("replica.applied_records")
        self._observe_histogram("replica.apply_ms", elapsed_ms)
        self._update_lag()
        with self._applied:
            self.last_applied_lsn = record.lsn
            self._applied.notify_all()

    def _fault(self, point: str, **context) -> None:
        hook = self.fault_hook
        if hook is not None:
            hook(point, context)

    # -- freshness ----------------------------------------------------------------

    def _note_primary_epoch(self, epoch) -> None:
        if isinstance(epoch, int) and epoch > self.primary_epoch:
            self.primary_epoch = epoch
        self._update_lag()

    def _update_lag(self) -> None:
        lag = max(0, self.primary_epoch - self.amos.storage.snapshot_epoch)
        with self._stats_lock:
            self.registry.gauge("replica.lag_epochs").set(lag)
            reg = metrics.ACTIVE
            if reg is not None:
                reg.gauge("replica.lag_epochs").set(lag)

    @property
    def lag_epochs(self) -> int:
        return max(0, self.primary_epoch - self.amos.storage.snapshot_epoch)

    def wait_for_lsn(self, lsn: int, timeout: float = 10.0) -> bool:
        """Block until the record at ``lsn`` has been applied."""
        return self._wait(lambda: self.last_applied_lsn >= lsn, timeout)

    def wait_for_epoch(self, epoch: int, timeout: float = 10.0) -> bool:
        """Block until the replica has published ``epoch`` (or later)."""
        return self._wait(
            lambda: self.amos.storage.snapshot_epoch >= epoch, timeout
        )

    def _wait(self, predicate, timeout: float) -> bool:
        deadline = time.monotonic() + timeout
        with self._applied:
            while not predicate():
                if self.apply_error is not None:
                    raise ReplicationError(
                        f"replica apply loop died: {self.apply_error!r}"
                    ) from self.apply_error
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._applied.wait(remaining)
        return True

    # -- the epoch-keyed read cache -----------------------------------------------

    def _query_readonly(
        self, session, request_id, script: str, epoch=None
    ) -> Dict:
        """Serve ``query_ro`` from the epoch-keyed result cache.

        Sound by the epoch discipline: a published epoch names one
        immutable snapshot, so ``(script, epoch, binds)`` determines the
        response bytes.  Applying a commit advances the epoch, which IS
        the invalidation — fresh state can never be served stale.
        """
        if self.ro_cache_size == 0:
            return super()._query_readonly(session, request_id, script, epoch)
        target = (
            epoch if epoch is not None else self.amos.storage.snapshot_epoch
        )
        binds = tuple(
            sorted(
                (name, repr(value))
                for name, value in session.engine.iface.items()
            )
        )
        key = (script, target, binds)
        with self._ro_cache_lock:
            hit = self._ro_cache.get(key)
            if hit is not None:
                self._ro_cache.move_to_end(key)
        if hit is not None:
            self._count("replica.cache_hits")
            self._count("server.query_ro")
            with self._stats_lock:
                session.counters["queries_ro"] += 1
                session.last_ro_epoch = target
            return dict(hit, id=request_id)
        self._count("replica.cache_misses")
        response = super()._query_readonly(session, request_id, script, epoch)
        if response.get("ok"):
            with self._ro_cache_lock:
                self._ro_cache[(script, response["epoch"], binds)] = dict(
                    response, id=None
                )
                while len(self._ro_cache) > self.ro_cache_size:
                    self._ro_cache.popitem(last=False)
        return response

    # -- request dispatch ---------------------------------------------------------

    def _dispatch(self, session, request: Dict) -> Dict:
        op = request.get("op")
        if op in ("execute", "replicate"):
            self._count("replica.refused_writes")
            host, port = self.primary
            if op == "execute":
                exc = ReplicaReadOnlyError(
                    "this server is a read-only replica; writes and "
                    f"transactions must go to the primary at {host}:{port}"
                )
            else:
                exc = ReplicaReadOnlyError(
                    "cascading replication is not supported; replicate "
                    f"from the primary at {host}:{port}"
                )
            return self._error_response(request.get("id"), exc)
        return super()._dispatch(session, request)

    def stats(self) -> Dict[str, object]:
        out = super().stats()
        out["replica"] = {
            "primary": list(self.primary),
            "connected": self.connected.is_set(),
            "last_applied_lsn": self.last_applied_lsn,
            "next_lsn": self.next_lsn,
            "epoch": self.amos.storage.snapshot_epoch,
            "primary_epoch": self.primary_epoch,
            "lag_epochs": self.lag_epochs,
            "apply_error": repr(self.apply_error) if self.apply_error else None,
            "ro_cache": {
                "size": len(self._ro_cache),
                "capacity": self.ro_cache_size,
            },
        }
        out["wal"] = self._wal.stats() if self._wal is not None else None
        return out

    def __repr__(self) -> str:
        return (
            f"ReplicaServer(address={self.address}, primary={self.primary}, "
            f"epoch={self.amos.storage.snapshot_epoch}, "
            f"lag={self.lag_epochs})"
        )


def serve_replica(
    host: str,
    port: int,
    primary: str,
    mode: str = "incremental",
    observe: bool = True,
    script: Optional[str] = None,
    idle_timeout: Optional[float] = None,
    wal_dir: Optional[str] = None,
    out=None,
) -> int:
    """Run a read replica until interrupted (``--replicate-from``).

    ``script`` must be the SAME bootstrap the primary was started with:
    schema is code, the stream carries only committed data.  The
    bootstrap is replayed with auto-publish on — exactly like the
    primary's own boot — so both sides mint identical epochs for the
    bootstrap states and every shared epoch means the same bytes.
    """
    from repro.amos.database import AmosDatabase
    from repro.amosql.interpreter import AmosqlEngine, register_print_procedures

    out = out or sys.stdout

    def factory():
        amos = AmosDatabase(mode=mode, observe=observe, explain=True)
        register_print_procedures(amos, out)
        if script:
            amos.storage.auto_publish = True
            AmosqlEngine(amos).execute(script)
            amos.storage.auto_publish = False
        return amos

    replica = ReplicaServer(
        primary=primary,
        factory=factory,
        wal_dir=wal_dir,
        host=host,
        port=port,
        observe=observe,
        idle_timeout=idle_timeout,
    )
    replica.start()
    if replica.last_recovery is not None:
        report = replica.last_recovery
        print(
            f"recovered {report.commits} commit(s) "
            f"({report.records} record(s), epoch {report.last_epoch}) "
            f"from {wal_dir}",
            file=out,
            flush=True,
        )
    print(
        f"repro replica listening on "
        f"{replica.address[0]}:{replica.address[1]} "
        f"(primary={replica.primary[0]}:{replica.primary[1]}, "
        f"mode={mode}, wal_dir={wal_dir})",
        file=out,
        flush=True,
    )
    try:
        replica.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=out, flush=True)
    finally:
        replica.stop()
    return 0
