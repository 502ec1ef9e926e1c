"""AmosClient: a blocking client for the AMOSQL network server.

Mirrors the in-process :class:`~repro.amosql.interpreter.AmosqlEngine`
API over the wire: ``execute`` runs a script and returns one decoded
result per statement (rows are real tuples, OIDs are real
:class:`~repro.amos.oid.OID` objects), ``query`` returns a select's
rows, and ``transaction()`` scopes a buffered server-side transaction::

    from repro.server import AmosClient

    with AmosClient("127.0.0.1", 4747) as client:
        rows = client.query("select i, quantity(i) for each item i")
        with client.transaction():
            client.execute("set quantity(:item1) = 120;")
        # <- the deferred check phase ran at commit, atomically

Connection handling is deliberately boring: blocking sockets, a
configurable connect timeout, and bounded connect retries with
exponential backoff on ``ConnectionRefusedError`` (the server may still
be booting; other socket errors fail fast).  Server-reported failures
raise :class:`~repro.errors.RemoteError` and leave the connection
usable; framing problems raise :class:`~repro.errors.ProtocolError`.

With ``replicas=[...]`` the client fans read-only queries out across
replica servers (:mod:`repro.replication`) round-robin, keeping writes
on the primary; ``min_epoch=`` bounds how stale a replica read may be
— the client retries lagging replicas until the freshness timeout,
then raises :class:`~repro.errors.ReplicaLagError`.
"""

from __future__ import annotations

import contextlib
import socket
import time
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.errors import (
    ProtocolError,
    RemoteError,
    ReplicaLagError,
    ServerError,
)
from repro.server import codec, protocol
from repro.server.codec import BUFFERED  # re-exported convenience

__all__ = ["AmosClient", "BUFFERED"]

Row = Tuple

#: connect() retries these (the server is booting or still binding);
#: any other OSError is immediately terminal
_RETRYABLE_CONNECT_ERRORS = (
    ConnectionRefusedError,
    ConnectionAbortedError,
    ConnectionResetError,
)


def _normalize_address(target) -> Tuple[str, int]:
    """``(host, port)`` from a tuple or a ``"host:port"`` string."""
    if isinstance(target, str):
        host, sep, port_text = target.rpartition(":")
        if not sep:
            raise ServerError(f"replica address needs HOST:PORT, got {target!r}")
        try:
            return host or "127.0.0.1", int(port_text)
        except ValueError:
            raise ServerError(f"invalid replica address {target!r}") from None
    host, port = target
    return host, int(port)


class AmosClient:
    """Blocking AMOSQL client with connect retries and typed results.

    ``timeout`` bounds request round trips; ``connect_timeout``
    (defaulting to ``timeout``) bounds each TCP connect attempt.  A
    refused connection is retried up to ``connect_retries`` times with
    exponential backoff: ``retry_delay`` doubling (``retry_backoff``)
    up to ``max_retry_delay`` per attempt.

    ``replicas`` is a list of ``(host, port)`` tuples or
    ``"host:port"`` strings of read replicas; see :meth:`execute_ro`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 4747,
        timeout: float = 30.0,
        connect_timeout: Optional[float] = None,
        connect_retries: int = 20,
        retry_delay: float = 0.05,
        retry_backoff: float = 2.0,
        max_retry_delay: float = 1.0,
        max_frame: int = protocol.MAX_FRAME,
        replicas: Optional[Sequence[Union[str, Tuple[str, int]]]] = None,
        freshness_timeout: float = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = (
            timeout if connect_timeout is None else connect_timeout
        )
        self.connect_retries = connect_retries
        self.retry_delay = retry_delay
        self.retry_backoff = retry_backoff
        self.max_retry_delay = max_retry_delay
        self.max_frame = max_frame
        #: read fan-out targets (normalized to (host, port) tuples)
        self.replicas: List[Tuple[str, int]] = [
            _normalize_address(target) for target in (replicas or ())
        ]
        #: how long a min_epoch read keeps retrying lagging replicas
        self.freshness_timeout = freshness_timeout
        self.session_id: Optional[str] = None
        #: snapshot epoch of the last query_ro/execute_ro response
        self.last_ro_epoch: Optional[int] = None
        #: epoch published by this client's last successful commit
        #: (protocol v3 servers; None before the first commit)
        self.last_commit_epoch: Optional[int] = None
        self._sock: Optional[socket.socket] = None
        self._seq = 0
        self._replica_pool: List[Optional["AmosClient"]] = [
            None for _ in self.replicas
        ]
        self._rr = 0

    # -- connection ---------------------------------------------------------------

    def connect(self) -> str:
        """Connect (with retries) and read the hello; returns the session id.

        A refused connection — the usual symptom of a server that is
        still booting — is retried with exponential backoff; any other
        socket error (unreachable host, reset mid-handshake, timeout)
        raises immediately.  Either way the raised
        :class:`~repro.errors.ServerError` names the target host:port.
        """
        if self._sock is not None:
            raise ServerError("client already connected")
        last_error: Optional[Exception] = None
        delay = self.retry_delay
        attempts = 0
        for attempt in range(max(self.connect_retries, 0) + 1):
            attempts = attempt + 1
            try:
                self._sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
                break
            except _RETRYABLE_CONNECT_ERRORS as exc:
                last_error = exc
                if attempt < self.connect_retries:
                    time.sleep(delay)
                    delay = min(delay * self.retry_backoff, self.max_retry_delay)
            except OSError as exc:
                last_error = exc
                break
        if self._sock is None:
            raise ServerError(
                f"cannot connect to {self.host}:{self.port} after "
                f"{attempts} attempt(s): {last_error}"
            )
        self._sock.settimeout(self.timeout)
        hello = protocol.read_frame(self._sock, self.max_frame)
        if hello is None or hello.get("event") != "hello":
            self._drop()
            raise ProtocolError(
                f"expected a hello frame from {self.host}:{self.port}, "
                f"got {hello!r}"
            )
        self.session_id = hello.get("session")
        return self.session_id

    @property
    def connected(self) -> bool:
        return self._sock is not None

    def close(self) -> None:
        """Politely end the session (idempotent); closes replica
        connections too."""
        for index, sub in enumerate(self._replica_pool):
            if sub is not None:
                sub.close()
                self._replica_pool[index] = None
        sock = self._sock
        if sock is None:
            return
        try:
            self._call("close")
        except (ProtocolError, RemoteError, OSError):
            pass
        self._drop()

    def _drop(self) -> None:
        sock, self._sock = self._sock, None
        self.session_id = None
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "AmosClient":
        if self._sock is None:
            self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request/response ---------------------------------------------------------

    def _call(self, op: str, **fields) -> Dict:
        if self._sock is None:
            raise ServerError("client is not connected")
        self._seq += 1
        request = {"id": self._seq, "op": op}
        request.update(fields)
        protocol.write_frame(self._sock, request, self.max_frame)
        response = protocol.read_frame(self._sock, self.max_frame)
        if response is None:
            self._drop()
            raise ProtocolError("server closed the connection")
        if response.get("id") not in (None, self._seq):
            self._drop()
            raise ProtocolError(
                f"response id {response.get('id')!r} does not match "
                f"request id {self._seq}"
            )
        if response.get("ok"):
            return response
        error = response.get("error") or {}
        raise RemoteError(
            error.get("message", "unknown server error"),
            remote_type=error.get("type"),
        )

    # -- the engine API, remoted --------------------------------------------------

    def execute(self, script: str) -> List[object]:
        """Execute a script; one decoded result per statement.

        Statements buffered inside an open transaction yield the
        :data:`BUFFERED` sentinel; their real results arrive with
        ``commit;`` (as that statement's result list).
        """
        response = self._call("execute", script=script)
        for result in response["results"]:
            if isinstance(result, dict) and result.get("kind") == "committed":
                self.last_commit_epoch = result.get("epoch")
        return [codec.decode_result(result) for result in response["results"]]

    def query(self, select_text: str) -> List[Row]:
        """Run a single ``select`` and return its rows."""
        script = select_text if select_text.rstrip().endswith(";") else select_text + ";"
        results = self.execute(script)
        if len(results) != 1 or not isinstance(results[0], list):
            raise ServerError("query() expects exactly one select statement")
        return results[0]

    def execute_ro(
        self,
        script: str,
        epoch: Optional[int] = None,
        min_epoch: Optional[int] = None,
        freshness_timeout: Optional[float] = None,
    ) -> Tuple[int, List[List[Row]]]:
        """Run a script of selects via ``query_ro``; lock-free on the server.

        Returns ``(epoch, results)``: the snapshot epoch the server
        read from, and one row list per select.  All selects in one
        call see the SAME snapshot.  Passing ``epoch`` (protocol v3)
        pins that exact epoch from the server's bounded snapshot
        history — e.g. ``client.last_ro_epoch`` from an earlier call,
        or ``client.last_commit_epoch`` to read your own writes —
        raising :class:`~repro.errors.RemoteError` (remote type
        ``SnapshotEpochError``) when it was evicted.  The served epoch
        is also kept in :attr:`last_ro_epoch`.

        With :attr:`replicas` configured the read goes to a replica,
        round-robin, falling over to the next replica (and finally the
        primary connection, when open) if one is unreachable.
        ``min_epoch`` bounds staleness: a response from an epoch below
        it is retried — against the lagging replica and its peers —
        until :attr:`freshness_timeout` (or ``freshness_timeout=``)
        runs out, then raises
        :class:`~repro.errors.ReplicaLagError` carrying the freshest
        epoch seen.  ``min_epoch=client.last_commit_epoch`` gives
        read-your-writes through replicas.
        """
        if self.replicas:
            return self._execute_ro_fanout(
                script, epoch, min_epoch, freshness_timeout
            )
        return self._execute_ro_bounded(
            self, script, epoch, min_epoch, freshness_timeout
        )

    def _execute_ro_direct(
        self, script: str, epoch: Optional[int]
    ) -> Tuple[int, List[List[Row]]]:
        """One ``query_ro`` round trip on THIS connection, no routing."""
        fields = {"script": script}
        if epoch is not None:
            fields["epoch"] = epoch
        response = self._call("query_ro", **fields)
        served = response.get("epoch")
        self.last_ro_epoch = served
        results = [codec.decode_result(result) for result in response["results"]]
        return served, results

    def _execute_ro_bounded(
        self,
        target: "AmosClient",
        script: str,
        epoch: Optional[int],
        min_epoch: Optional[int],
        freshness_timeout: Optional[float],
    ) -> Tuple[int, List[List[Row]]]:
        """``query_ro`` against one server, polling until ``min_epoch``."""
        timeout = (
            self.freshness_timeout
            if freshness_timeout is None
            else freshness_timeout
        )
        deadline = time.monotonic() + timeout
        freshest: Optional[int] = None
        while True:
            served, results = target._execute_ro_direct(script, epoch)
            if min_epoch is None or served >= min_epoch:
                self.last_ro_epoch = served
                return served, results
            freshest = served if freshest is None else max(freshest, served)
            if time.monotonic() >= deadline:
                raise ReplicaLagError(
                    f"{target.host}:{target.port} did not reach epoch "
                    f"{min_epoch} within {timeout}s "
                    f"(freshest epoch seen: {freshest})",
                    freshest_epoch=freshest,
                )
            time.sleep(0.005)

    def _replica_client(self, index: int) -> Optional["AmosClient"]:
        """The pooled connection to replica ``index`` (dial on demand)."""
        sub = self._replica_pool[index]
        if sub is not None and sub.connected:
            return sub
        host, port = self.replicas[index]
        sub = AmosClient(
            host,
            port,
            timeout=self.timeout,
            connect_timeout=self.connect_timeout,
            connect_retries=0,
            max_frame=self.max_frame,
        )
        try:
            sub.connect()
        except (ServerError, ProtocolError, OSError):
            self._replica_pool[index] = None
            return None
        self._replica_pool[index] = sub
        return sub

    def _drop_replica(self, index: int) -> None:
        sub, self._replica_pool[index] = self._replica_pool[index], None
        if sub is not None:
            sub._drop()

    def _execute_ro_fanout(
        self,
        script: str,
        epoch: Optional[int],
        min_epoch: Optional[int],
        freshness_timeout: Optional[float],
    ) -> Tuple[int, List[List[Row]]]:
        """Round-robin the read across replicas, bounded by freshness.

        A replica read lagging ``min_epoch`` — or a *pinned* ``epoch``
        the replica has not published yet — is retried against the
        rotation until the deadline; connection failures rotate to the
        next replica immediately.  When every replica is unreachable
        the primary connection (when open) serves the read.
        """
        timeout = (
            self.freshness_timeout
            if freshness_timeout is None
            else freshness_timeout
        )
        deadline = time.monotonic() + timeout
        freshest: Optional[int] = None
        last_error: Optional[Exception] = None
        while True:
            reachable = 0
            for _ in range(len(self.replicas)):
                index = self._rr % len(self.replicas)
                self._rr += 1
                sub = self._replica_client(index)
                if sub is None:
                    continue
                reachable += 1
                try:
                    served, results = sub._execute_ro_direct(script, epoch)
                except RemoteError as exc:
                    if (
                        exc.remote_type == "SnapshotEpochError"
                        and "not been published yet" in str(exc)
                    ):
                        # the pinned epoch exists on the primary but has
                        # not reached this replica: that's lag, keep going
                        last_error = exc
                        continue
                    raise
                except (ProtocolError, ServerError, OSError) as exc:
                    last_error = exc
                    self._drop_replica(index)
                    continue
                if min_epoch is None or served >= min_epoch:
                    self.last_ro_epoch = served
                    return served, results
                freshest = (
                    served if freshest is None else max(freshest, served)
                )
            if reachable == 0 and self.connected:
                # total replica outage: the primary always has the data
                return self._execute_ro_bounded(
                    self, script, epoch, min_epoch, freshness_timeout
                )
            if time.monotonic() >= deadline:
                if reachable == 0:
                    raise ServerError(
                        f"no replica of {len(self.replicas)} reachable "
                        f"and no primary connection open: {last_error}"
                    )
                raise ReplicaLagError(
                    f"no replica reached epoch {min_epoch} within "
                    f"{timeout}s (freshest epoch seen: {freshest}; "
                    f"last error: {last_error})",
                    freshest_epoch=freshest,
                )
            time.sleep(0.005)

    def query_ro(
        self,
        select_text: str,
        epoch: Optional[int] = None,
        min_epoch: Optional[int] = None,
        freshness_timeout: Optional[float] = None,
    ) -> List[Row]:
        """Run one ``select`` against the latest published snapshot.

        Unlike :meth:`query` this never waits on the server's engine
        lock: a commit in progress on another session cannot delay it.
        The rows are from the last *published* epoch — at most one
        commit behind the live state (see :attr:`last_ro_epoch`) — or,
        with ``epoch``, from exactly that pinned historic epoch.  With
        :attr:`replicas` the read fans out; ``min_epoch`` bounds
        staleness (see :meth:`execute_ro`).
        """
        script = (
            select_text
            if select_text.rstrip().endswith(";")
            else select_text + ";"
        )
        served, results = self.execute_ro(
            script,
            epoch=epoch,
            min_epoch=min_epoch,
            freshness_timeout=freshness_timeout,
        )
        if len(results) != 1:
            raise ServerError("query_ro() expects exactly one select statement")
        return results[0]

    def bind(self, name: str, value) -> None:
        """Bind a session interface variable (``:name``) to a value.

        Accepts any persistable value including OIDs — this is how a
        client addresses specific objects it learned from a query.
        """
        from repro.storage.persistence import encode_value

        self._call("bind", name=name, value=encode_value(value))

    def begin(self) -> None:
        self.execute("begin;")

    def commit(self) -> List[object]:
        """Commit the open transaction; returns the buffered results."""
        (results,) = self.execute("commit;")
        return results

    def rollback(self) -> None:
        self.execute("rollback;")

    @contextlib.contextmanager
    def transaction(self) -> Iterator["AmosClient"]:
        """Scope a server-side transaction: commit on success, roll
        back on error (the original exception is re-raised)."""
        self.begin()
        try:
            yield self
        except BaseException:
            try:
                self.rollback()
            except (RemoteError, ProtocolError, ServerError, OSError):
                pass
            raise
        else:
            self.commit()

    # -- service ops --------------------------------------------------------------

    def ping(self) -> float:
        """Round-trip one frame; returns the elapsed seconds."""
        start = time.perf_counter()
        self._call("ping")
        return time.perf_counter() - start

    def stats(self) -> Dict[str, object]:
        """The server's ``server.*`` counters and session table."""
        return self._call("stats")["stats"]

    def __repr__(self) -> str:
        state = f"session={self.session_id!r}" if self.connected else "disconnected"
        return f"AmosClient({self.host}:{self.port}, {state})"
