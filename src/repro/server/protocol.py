"""The wire protocol: length-prefixed JSON frames over a stream socket.

One frame is a 4-byte big-endian unsigned length followed by exactly
that many bytes of UTF-8 JSON.  Every frame carries one JSON object;
there is no streaming inside a frame, so framing errors are always
detectable (a truncated frame raises, it never desynchronizes into
garbage parses).

Conversation shape:

* on connect the server sends one unsolicited **hello** frame
  (``{"ok": true, "event": "hello", "session": "s1", ...}``);
* after that the client sends request frames
  (``{"id": n, "op": "execute", "script": "..."}``) and the server
  answers each with exactly one response frame echoing ``id`` —
  ``{"ok": true, ...}`` on success, ``{"ok": false, "error": {...}}``
  on failure (the connection survives request-level errors);
* ``{"id": n, "op": "query_ro", "script": "select ...;"}`` (protocol
  version 2) runs a script of **selects only** against the server's
  latest published snapshot, off the engine lock; the response carries
  ``"epoch"`` (the snapshot's commit epoch) and ``"results"`` (one
  ``{"kind": "rows", ...}`` entry per select, all from that one epoch);
* protocol version 3 adds an optional integer ``"epoch"`` field to
  ``query_ro``: the read pins that exact epoch from the server's
  bounded snapshot history ring (still off the engine lock), so a
  client can keep reading one consistent version across intervening
  commits; an evicted or unpublished epoch fails the request with a
  ``SnapshotEpochError``;
* protocol version 3 also extends the ``{"kind": "committed"}`` result
  of a ``commit;`` statement with ``"epoch"`` (the snapshot epoch the
  commit published).  Early v3 acks also carried the size of the
  group-commit batch the commit rode in; that field is retired with
  group commit, and clients that read it get None;
* protocol version 4 adds the **replication stream**
  (:mod:`repro.replication`): ``{"id": n, "op": "replicate",
  "last_lsn": L}`` asks a primary to push its WAL records after ``L``.
  The server acks with ``{"event": "replicate", "resume_lsn": L+1,
  "next_lsn": ..., "epoch": ...}`` and the connection then switches to
  **push mode**: the server sends unsolicited ``{"event": "wal",
  "records": [...], "next_lsn": ...}`` batches (each entry is one WAL
  record payload, canonical JSON) interleaved with ``{"event":
  "heartbeat", "next_lsn": ..., "epoch": ...}`` while idle; the
  subscriber sends nothing further and just closes to unsubscribe;
* either side may close; the server answers ``{"op": "close"}`` with a
  ``bye`` event before doing so.

Values inside results use the persistence encoding
(:mod:`repro.storage.persistence`), so OIDs survive the round trip;
see :mod:`repro.server.codec`.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Dict, Optional

from repro.errors import ProtocolError

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME",
    "read_frame",
    "write_frame",
    "recv_exact",
]

#: 2: query_ro snapshot reads; 3: epoch-pinned query_ro + commit acks
#: carrying the published epoch; 4: the replicate op + wal/heartbeat
#: push events
PROTOCOL_VERSION = 4

#: default upper bound on one frame's JSON body, in bytes
MAX_FRAME = 8 * 1024 * 1024

_HEADER = struct.Struct(">I")


def recv_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    """Read exactly ``n`` bytes from ``sock``.

    Returns None on a clean end-of-stream *before the first byte*;
    raises :class:`ProtocolError` when the peer disappears mid-read
    (a truncated frame is always a protocol violation).
    """
    chunks = []
    remaining = n
    while remaining:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({n - remaining} of {n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(
    sock: socket.socket, max_frame: int = MAX_FRAME
) -> Optional[Dict]:
    """Read one frame; None on clean end-of-stream."""
    header = recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte limit"
        )
    body = recv_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between header and body")
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ProtocolError(
            f"frame must carry a JSON object, got {type(payload).__name__}"
        )
    return payload


def write_frame(
    sock: socket.socket, payload: Dict, max_frame: int = MAX_FRAME
) -> int:
    """Serialize ``payload`` and send it as one frame.

    Returns the number of payload bytes written (excluding the 4-byte
    length header) — the replication hub feeds this into its
    ``wal.ship.bytes`` counter.
    """
    data = json.dumps(payload, separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(data) > max_frame:
        raise ProtocolError(
            f"refusing to send a {len(data)}-byte frame "
            f"(limit {max_frame} bytes)"
        )
    sock.sendall(_HEADER.pack(len(data)) + data)
    return len(data)
