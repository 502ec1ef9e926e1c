"""Server sessions: per-client state plus an idle-reaping registry.

A :class:`Session` is the unit of transaction scope on the server: it
owns an :class:`~repro.amosql.interpreter.AmosqlEngine` sharing the
server's single database but with its **own interface variables**, a
statement buffer for the currently open transaction, and usage
counters.  The paper's deferred semantics are per-transaction, so
nothing a session buffers touches the database until its ``commit;``
replays the buffer under the server's engine lock.

The :class:`SessionRegistry` tracks live sessions, reaps the ones idle
past ``idle_timeout`` (their buffered statements are simply discarded —
they were never applied), and keeps a bounded history of closed-session
snapshots so ``server.stats()`` can still show what a finished session
did.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Optional

__all__ = ["Session", "SessionRegistry"]


class Session:
    """One client's state: engine (iface vars), txn buffer, counters."""

    __slots__ = (
        "id",
        "engine",
        "conn",
        "address",
        "created",
        "last_used",
        "in_transaction",
        "buffer",
        "counters",
        "last_commit_trace",
        "last_ro_epoch",
        "_clock",
    )

    def __init__(
        self,
        session_id: str,
        engine=None,
        conn=None,
        address=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.id = session_id
        self.engine = engine
        self.conn = conn
        self.address = address
        self._clock = clock
        self.created = clock()
        self.last_used = self.created
        self.in_transaction = False
        self.buffer: List[object] = []
        self.counters: Dict[str, int] = {
            "statements": 0,
            "commits": 0,
            "rollbacks": 0,
            "errors": 0,
            "queries_ro": 0,
        }
        #: the last ``server.commit`` span of this session (observed servers)
        self.last_commit_trace = None
        #: snapshot epoch served by this session's last ``query_ro``
        self.last_ro_epoch: Optional[int] = None

    # -- liveness -----------------------------------------------------------------

    def touch(self) -> None:
        self.last_used = self._clock()

    def idle_seconds(self, now: Optional[float] = None) -> float:
        return (now if now is not None else self._clock()) - self.last_used

    # -- transaction scope --------------------------------------------------------

    def begin(self) -> None:
        self.in_transaction = True
        self.buffer = []

    def take_buffer(self) -> List[object]:
        """Close the transaction scope and hand back its statements."""
        statements, self.buffer = self.buffer, []
        self.in_transaction = False
        return statements

    def abort(self) -> int:
        """Discard the open transaction; returns the statements dropped."""
        dropped = len(self.buffer)
        self.buffer = []
        self.in_transaction = False
        return dropped

    # -- reporting ----------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-shaped view for ``server.stats()`` exports."""
        now = self._clock()
        return {
            "id": self.id,
            "address": list(self.address) if self.address else None,
            "in_transaction": self.in_transaction,
            "buffered_statements": len(self.buffer),
            "age_seconds": now - self.created,
            "idle_seconds": self.idle_seconds(now),
            "counters": dict(self.counters),
            "last_ro_epoch": self.last_ro_epoch,
        }

    def __repr__(self) -> str:
        return (
            f"Session({self.id!r}, in_transaction={self.in_transaction}, "
            f"buffered={len(self.buffer)})"
        )


class SessionRegistry:
    """Thread-safe session table with idle-timeout reaping."""

    def __init__(
        self,
        idle_timeout: Optional[float] = None,
        keep_closed: int = 32,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.idle_timeout = idle_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._sessions: Dict[str, Session] = {}
        self._ids = itertools.count(1)
        self._closed: deque = deque(maxlen=keep_closed)
        self._close_listeners: List[Callable[[Session, str], None]] = []

    def open(self, engine=None, conn=None, address=None) -> Session:
        with self._lock:
            session = Session(
                f"s{next(self._ids)}",
                engine=engine,
                conn=conn,
                address=address,
                clock=self._clock,
            )
            self._sessions[session.id] = session
            return session

    def get(self, session_id: str) -> Optional[Session]:
        with self._lock:
            return self._sessions.get(session_id)

    def add_close_listener(
        self, listener: Callable[[Session, str], None]
    ) -> None:
        """Call ``listener(session, reason)`` whenever a session leaves
        the registry (closed or reaped).  Lets tests synchronize on
        session lifecycle events instead of sleep-polling ``stats()``.
        """
        with self._lock:
            self._close_listeners.append(listener)

    def _notify_closed(self, session: Session, reason: str) -> None:
        for listener in list(self._close_listeners):
            listener(session, reason)

    def close(self, session_id: str, reason: str = "closed") -> Optional[Session]:
        """Remove a session (idempotent); archives its final snapshot."""
        with self._lock:
            session = self._sessions.pop(session_id, None)
            if session is not None:
                self._archive(session, reason)
        if session is not None:
            self._notify_closed(session, reason)
        return session

    def reap(self, now: Optional[float] = None) -> List[Session]:
        """Remove and return every session idle past ``idle_timeout``."""
        if self.idle_timeout is None:
            return []
        now = now if now is not None else self._clock()
        with self._lock:
            doomed = [
                session
                for session in self._sessions.values()
                if session.idle_seconds(now) > self.idle_timeout
            ]
            for session in doomed:
                del self._sessions[session.id]
                self._archive(session, "reaped")
        for session in doomed:
            self._notify_closed(session, "reaped")
        return doomed

    def _archive(self, session: Session, reason: str) -> None:
        snapshot = session.snapshot()
        snapshot["closed_reason"] = reason
        self._closed.append(snapshot)

    def active(self) -> List[Session]:
        with self._lock:
            return list(self._sessions.values())

    def recent_closed(self) -> List[Dict[str, object]]:
        """Snapshots of recently closed sessions, oldest first."""
        with self._lock:
            return list(self._closed)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __repr__(self) -> str:
        return (
            f"SessionRegistry(active={len(self)}, "
            f"idle_timeout={self.idle_timeout})"
        )
