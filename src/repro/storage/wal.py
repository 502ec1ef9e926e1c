"""Durable write-ahead Δ-log with crash recovery (docs/DURABILITY.md).

The paper's engine is main-memory: section 4.1 assumes a logical log of
physical events, but nothing survives a restart.  This module makes the
*committed* part of that log durable.  One framed, checksummed record is
appended — and fsync'd — per committed transaction, BEFORE the commit is
acknowledged to the caller:

* a **commit** record carries the transaction's net Δ-set per base
  relation (exactly the logical events of section 4.1, after
  cancellation) and the snapshot epoch the commit published;
* a **rule** record marks an ``activate``/``deactivate`` so recovery can
  rebuild the monitor set;
* a **catalog** record marks a base-relation create/drop so replay works
  even for relations created after the log was opened.

DBSP-style, the stream of committed deltas is a complete representation
of the database: :func:`recover` rebuilds a fresh
:class:`~repro.amos.database.AmosDatabase` by replaying committed
records over a schema bootstrap, re-activates the recorded rules,
re-baselines the monitoring engine, and truncates any torn tail record
a crash left behind.  ``tests/fault`` drives every named kill point and
pins recovery against naive re-execution.

Record frame (little parsing, strong checking)::

    MAGIC(2) | length(4, big-endian) | crc32(4, big-endian) | payload

The payload is canonical JSON (sorted keys, persistence value encoding
for rows).  Torn-tail rule: the first invalid frame in the LAST segment
truncates the log there (a crash mid-append looks exactly like that);
an invalid frame in any earlier segment is corruption and refuses to
load (:class:`~repro.errors.WalCorruptionError`).
"""

from __future__ import annotations

import json
import os
import struct
import threading
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.algebra.delta import DeltaSet
from repro.errors import WalCorruptionError, WalError
from repro.obs import metrics
from repro.storage.persistence import decode_value, encode_value

__all__ = [
    "WalRecord",
    "WriteAheadLog",
    "WalTailer",
    "RecoveryReport",
    "apply_record",
    "replay",
    "recover",
    "encode_frame",
    "iter_frames",
    "MAGIC",
    "FORMAT_VERSION",
]

#: bumped when the record payload schema changes incompatibly
FORMAT_VERSION = 1

MAGIC = b"\xadW"
_HEADER = struct.Struct(">2sII")  # magic, payload length, crc32(payload)
HEADER_SIZE = _HEADER.size

#: refuse absurd frame lengths (a torn header read as length would
#: otherwise make the scanner wait for gigabytes that never existed)
MAX_RECORD_BYTES = 64 * 1024 * 1024

DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"

#: named fault-injection points, in append order (tests/fault installs a
#: hook that crashes at one of these; production never sets a hook)
FAULT_POINTS = (
    "append.pre_write",
    "append.mid_record",
    "append.pre_fsync",
    "append.post_fsync",
    "rotate.pre",
    "rotate.mid",
    "rotate.post",
)


# -- record codec -----------------------------------------------------------------


def _encode_rows(rows) -> List[list]:
    return sorted(
        ([encode_value(value) for value in row] for row in rows),
        key=repr,
    )


def _decode_rows(rows) -> List[Tuple]:
    return [tuple(decode_value(value) for value in row) for row in rows]


def encode_delta_map(deltas: Mapping[str, DeltaSet]) -> Dict[str, Dict]:
    """JSON-encode a ``relation -> DeltaSet`` map (rows sorted by repr)."""
    return {
        name: {"+": _encode_rows(delta.plus), "-": _encode_rows(delta.minus)}
        for name, delta in sorted(deltas.items())
    }


def decode_delta_map(encoded: Mapping[str, Mapping]) -> Dict[str, DeltaSet]:
    """Inverse of :func:`encode_delta_map`."""
    return {
        name: DeltaSet(
            _decode_rows(payload.get("+", ())),
            _decode_rows(payload.get("-", ())),
        )
        for name, payload in encoded.items()
    }


@dataclass(frozen=True)
class WalRecord:
    """One committed record of the write-ahead log.

    ``kind`` is ``"commit"`` (epoch + net Δ-sets),
    ``"rule"`` (activate/deactivate) or ``"catalog"`` (relation
    create/drop).  ``lsn`` is the log sequence number, strictly
    increasing across segment boundaries.
    """

    kind: str
    lsn: int
    data: Dict = field(default_factory=dict)

    # -- typed accessors (commit records) ---------------------------------------

    @property
    def epoch(self) -> int:
        return self.data.get("epoch", 0)

    @property
    def deltas(self) -> Dict[str, DeltaSet]:
        return decode_delta_map(self.data.get("deltas", {}))

    def payload(self) -> Dict:
        """The JSON-ready payload dict this record frames to."""
        out = {"v": FORMAT_VERSION, "kind": self.kind, "lsn": self.lsn}
        out.update(self.data)
        return out

    @classmethod
    def from_payload(cls, payload: Mapping) -> "WalRecord":
        if payload.get("v") != FORMAT_VERSION:
            raise WalCorruptionError(
                f"unsupported WAL record version {payload.get('v')!r} "
                f"(expected {FORMAT_VERSION})"
            )
        kind = payload.get("kind")
        lsn = payload.get("lsn")
        if kind not in ("commit", "rule", "catalog") or not isinstance(lsn, int):
            raise WalCorruptionError(f"malformed WAL record payload {payload!r}")
        data = {
            key: value
            for key, value in payload.items()
            if key not in ("v", "kind", "lsn")
        }
        return cls(kind, lsn, data)


def encode_frame(payload: Mapping) -> bytes:
    """Frame one record payload: header (magic, length, crc) + JSON body."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(MAGIC, len(body), zlib.crc32(body)) + body


def iter_frames(data: bytes) -> Iterator[Tuple[int, Dict]]:
    """Yield ``(offset, payload)`` for every valid frame in ``data``.

    Stops with :class:`WalCorruptionError` at the first invalid frame;
    the error's ``offset`` attribute is where the valid prefix ends and
    ``torn`` says whether the invalid bytes look like a torn tail (an
    incomplete or final frame) rather than mid-log corruption.
    """
    offset = 0
    size = len(data)
    while offset < size:
        if size - offset < HEADER_SIZE:
            raise _invalid(offset, "incomplete frame header", torn=True)
        magic, length, crc = _HEADER.unpack_from(data, offset)
        if magic != MAGIC:
            raise _invalid(offset, f"bad frame magic {magic!r}", torn=False)
        if length > MAX_RECORD_BYTES:
            raise _invalid(offset, f"frame length {length} exceeds limit", torn=False)
        start = offset + HEADER_SIZE
        end = start + length
        if end > size:
            raise _invalid(offset, "incomplete frame payload", torn=True)
        body = data[start:end]
        if zlib.crc32(body) != crc:
            # a fully-framed record with a bad checksum at the very end
            # of the segment is indistinguishable from a crash while
            # (over)writing it; anywhere else it is corruption
            raise _invalid(offset, "frame checksum mismatch", torn=end == size)
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            raise _invalid(offset, "frame payload is not valid JSON", torn=end == size)
        yield offset, payload
        offset = end


def _invalid(offset: int, reason: str, torn: bool) -> WalCorruptionError:
    error = WalCorruptionError(f"invalid WAL frame at byte {offset}: {reason}")
    error.offset = offset
    error.torn = torn
    return error


# -- the log ----------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What :func:`recover` (or segment scanning) found and did."""

    records: int = 0
    commits: int = 0
    rule_ops: int = 0
    catalog_ops: int = 0
    rows_applied: int = 0
    truncated_bytes: int = 0
    truncated_segment: Optional[str] = None
    last_epoch: Optional[int] = None
    last_lsn: Optional[int] = None


class WriteAheadLog:
    """An fsync'd, segmented, checksummed log of committed records.

    Opening the log scans every existing segment, verifies framing and
    checksums, truncates a torn tail record in the last segment, and
    positions appends after the last valid record.  Appends are framed,
    written unbuffered, and fsync'd (``fsync=False`` trades durability
    for speed — benchmarks).

    A failed append *poisons* the log: the in-memory commit that was
    being logged is not durable, so every later append raises
    :class:`~repro.errors.WalError` rather than let the durable stream
    silently diverge from memory (the PostgreSQL fsync-failure rule).

    ``fault_hook`` is the fault-injection seam used by ``tests/fault``:
    a callable invoked with a point name from :data:`FAULT_POINTS` at
    every append/rotation step.  Production leaves it ``None``.
    """

    def __init__(
        self,
        directory: str,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: bool = True,
        fault_hook: Optional[Callable[[str, Dict], None]] = None,
    ) -> None:
        self.directory = os.path.abspath(directory)
        self.segment_bytes = int(segment_bytes)
        self.fsync_enabled = fsync
        self.fault_hook = fault_hook
        self._lock = threading.Lock()
        #: notified after every durable append; WalTailer blocks on it
        self._watch = threading.Condition()
        self._fd: Optional[int] = None
        self._failed = False
        self._closed = False
        #: simple local accounting, mirrored into metrics.ACTIVE when set
        self.appended_records = 0
        self.appended_bytes = 0
        self.rotations = 0
        #: set by :func:`recover` after replaying this log
        self.last_recovery: Optional[RecoveryReport] = None
        os.makedirs(self.directory, exist_ok=True)
        self._scan_report = RecoveryReport()
        self._next_lsn = 0
        self._open_for_append()

    # -- segments ---------------------------------------------------------------

    def segment_paths(self) -> List[str]:
        names = sorted(
            name
            for name in os.listdir(self.directory)
            if name.startswith(_SEGMENT_PREFIX) and name.endswith(_SEGMENT_SUFFIX)
        )
        return [os.path.join(self.directory, name) for name in names]

    def _segment_path(self, index: int) -> str:
        return os.path.join(
            self.directory, f"{_SEGMENT_PREFIX}{index:08d}{_SEGMENT_SUFFIX}"
        )

    def _open_for_append(self) -> None:
        """Scan all segments, truncate a torn tail, open the last one."""
        paths = self.segment_paths()
        report = self._scan_report
        for position, path in enumerate(paths):
            is_last = position == len(paths) - 1
            with open(path, "rb") as handle:
                data = handle.read()
            try:
                for _offset, payload in iter_frames(data):
                    record = WalRecord.from_payload(payload)
                    if record.lsn < self._next_lsn:
                        raise WalCorruptionError(
                            f"WAL sequence went backwards in {path!r}: "
                            f"lsn {record.lsn} after {self._next_lsn - 1}"
                        )
                    self._next_lsn = record.lsn + 1
                    report.records += 1
                    report.last_lsn = record.lsn
                    # only commit records carry an epoch
                    report.last_epoch = record.data.get("epoch", report.last_epoch)
            except WalCorruptionError as error:
                offset = getattr(error, "offset", None)
                if not is_last or offset is None or not getattr(error, "torn", False):
                    raise
                # a crash mid-append left a torn tail: cut it off
                with open(path, "r+b") as handle:
                    handle.truncate(offset)
                    handle.flush()
                    os.fsync(handle.fileno())
                report.truncated_bytes = len(data) - offset
                report.truncated_segment = os.path.basename(path)
                reg = metrics.ACTIVE
                if reg is not None:
                    reg.counter("wal.torn_tail_truncations").inc()
                    reg.counter("wal.truncated_bytes").inc(report.truncated_bytes)
        if paths:
            path = paths[-1]
        else:
            path = self._segment_path(1)
            self._sync_directory()
        self._fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._segment_index = self._index_of(path)
        self._segment_size = os.fstat(self._fd).st_size
        if not paths:
            self._sync_directory()
        self._update_segment_gauge()

    def _update_segment_gauge(self) -> None:
        reg = metrics.ACTIVE
        if reg is not None:
            reg.gauge("wal.segment_count").set(len(self.segment_paths()))

    @staticmethod
    def _index_of(path: str) -> int:
        name = os.path.basename(path)
        return int(name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])

    def _sync_directory(self) -> None:
        """Best-effort fsync of the directory entry (new segment files)."""
        try:
            dir_fd = os.open(self.directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)

    # -- reading ----------------------------------------------------------------

    def records(self) -> Iterator[WalRecord]:
        """Every valid record, rescanned from disk, in lsn order."""
        for path in self.segment_paths():
            with open(path, "rb") as handle:
                data = handle.read()
            for _offset, payload in iter_frames(data):
                yield WalRecord.from_payload(payload)

    @property
    def scan_report(self) -> RecoveryReport:
        """What the opening scan saw (records, torn-tail truncation)."""
        return self._scan_report

    @property
    def next_lsn(self) -> int:
        return self._next_lsn

    # -- appending --------------------------------------------------------------

    def append_commit(self, epoch: int, deltas: Mapping[str, DeltaSet]) -> WalRecord:
        """One committed transaction: net Δ-sets + epoch."""
        return self._append(
            "commit", {"epoch": epoch, "deltas": encode_delta_map(deltas)}
        )

    def append_rule(self, op: str, rule: str, params: Sequence = ()) -> WalRecord:
        """A rule ``activate``/``deactivate`` (monitor-set recovery)."""
        if op not in ("activate", "deactivate"):
            raise WalError(f"unknown rule op {op!r}")
        return self._append(
            "rule",
            {"op": op, "rule": rule, "params": [encode_value(p) for p in params]},
        )

    def append_catalog(
        self,
        op: str,
        relation: str,
        arity: Optional[int] = None,
        columns: Optional[Sequence[str]] = None,
    ) -> WalRecord:
        """A base-relation ``create``/``drop`` (storage-level replay)."""
        if op not in ("create", "drop"):
            raise WalError(f"unknown catalog op {op!r}")
        data: Dict = {"op": op, "relation": relation}
        if arity is not None:
            data["arity"] = arity
        if columns is not None:
            data["columns"] = list(columns)
        return self._append("catalog", data)

    def append_record(self, record: WalRecord) -> WalRecord:
        """Append an already-sequenced record verbatim (replication).

        The replica apply loop uses this to persist records exactly as
        the primary framed them, so the replica's own log copy is a
        byte-faithful continuation it can recover from after a crash.
        The record's lsn must be exactly :attr:`next_lsn` — a gap means
        the stream lost records and the copy would be unrecoverable.
        """
        with self._lock:
            if record.lsn != self._next_lsn:
                raise WalError(
                    f"cannot append record with lsn {record.lsn}: "
                    f"the log expects lsn {self._next_lsn} (gapless)"
                )
            return self._append_locked(record)

    def _append(self, kind: str, data: Dict) -> WalRecord:
        with self._lock:
            return self._append_locked(WalRecord(kind, self._next_lsn, data))

    def _append_locked(self, record: WalRecord) -> WalRecord:
        if self._closed:
            raise WalError("write-ahead log is closed")
        if self._failed:
            raise WalError(
                "write-ahead log is offline after a failed append; "
                "the database is no longer durable — restart and recover"
            )
        kind = record.kind
        frame = encode_frame(record.payload())
        try:
            if (
                self._segment_size > 0
                and self._segment_size + len(frame) > self.segment_bytes
            ):
                self._rotate()
            self._fault("append.pre_write", kind=kind, lsn=record.lsn)
            self._write(frame[:HEADER_SIZE])
            self._fault("append.mid_record", kind=kind, lsn=record.lsn)
            self._write(frame[HEADER_SIZE:])
            self._fault("append.pre_fsync", kind=kind, lsn=record.lsn)
            self._fsync()
            self._fault("append.post_fsync", kind=kind, lsn=record.lsn)
        except BaseException:
            self._failed = True
            raise
        self._next_lsn = record.lsn + 1
        self._segment_size += len(frame)
        self.appended_records += 1
        self.appended_bytes += len(frame)
        reg = metrics.ACTIVE
        if reg is not None:
            reg.counter("wal.appends").inc()
            reg.counter("wal.bytes").inc(len(frame))
        with self._watch:
            self._watch.notify_all()
        return record

    def _write(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            written = os.write(self._fd, view)
            view = view[written:]

    def _fsync(self) -> None:
        if not self.fsync_enabled:
            return
        start = time.perf_counter()
        os.fsync(self._fd)
        elapsed_ms = (time.perf_counter() - start) * 1000.0
        reg = metrics.ACTIVE
        if reg is not None:
            reg.histogram("wal.fsync_ms").observe(elapsed_ms)

    def _rotate(self) -> None:
        """Seal the current segment and switch appends to a fresh one."""
        self._fault("rotate.pre", segment=self._segment_index)
        self._fsync()
        path = self._segment_path(self._segment_index + 1)
        new_fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            self._fault("rotate.mid", segment=self._segment_index + 1)
        except BaseException:
            os.close(new_fd)
            raise
        self._sync_directory()
        os.close(self._fd)
        self._fd = new_fd
        self._segment_index += 1
        self._segment_size = 0
        self.rotations += 1
        reg = metrics.ACTIVE
        if reg is not None:
            reg.counter("wal.rotations").inc()
        self._update_segment_gauge()
        self._fault("rotate.post", segment=self._segment_index)

    def _fault(self, point: str, **context) -> None:
        hook = self.fault_hook
        if hook is not None:
            hook(point, context)

    # -- lifecycle --------------------------------------------------------------

    def sync(self) -> None:
        """Force an fsync of the current segment."""
        with self._lock:
            if self._fd is not None:
                self._fsync()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            if self._fd is not None:
                try:
                    os.close(self._fd)
                finally:
                    self._fd = None
        # wake any tailer blocked in wait_for_lsn so it can observe
        # the closed flag instead of sleeping out its full timeout
        with self._watch:
            self._watch.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed

    def wait_for_lsn(self, lsn: int, timeout: Optional[float] = None) -> bool:
        """Block until the record with ``lsn`` is durably appended.

        Returns True when ``next_lsn > lsn`` (the record exists on
        disk), False on timeout or when the log is closed first.  This
        is the blocking half of the follow API: a
        :class:`WalTailer` that drained everything waits here for the
        next commit instead of polling the directory.
        """
        with self._watch:
            return self._watch.wait_for(
                lambda: self._next_lsn > lsn or self._closed, timeout
            ) and self._next_lsn > lsn

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def stats(self) -> Dict[str, int]:
        return {
            "appended_records": self.appended_records,
            "appended_bytes": self.appended_bytes,
            "rotations": self.rotations,
            "next_lsn": self._next_lsn,
            "segments": len(self.segment_paths()),
        }

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.directory!r}, next_lsn={self._next_lsn}, "
            f"segment={getattr(self, '_segment_index', '?')}, "
            f"fsync={self.fsync_enabled})"
        )


# -- following (the replication read side) ----------------------------------------


class WalTailer:
    """Follow a live :class:`WriteAheadLog`: committed records in lsn
    order, blocking for new ones across segment rotations.

    The tailer reads the segment files directly — never the appender's
    in-memory state — so it observes exactly what is durable, and
    reading takes no lock the appender (or the engine) holds.  The
    race with an in-flight append is benign: a partially written tail
    frame parses as torn, the tailer stops in front of it, and the
    appender's post-fsync notification wakes it to re-read once the
    frame is whole.  Because the appender only ever *appends* within a
    segment and rotates to a brand-new file, a consumed ``(segment,
    offset)`` position is never invalidated.

    ``start_lsn`` skips everything below it, which is how a replica
    resumes mid-stream after reconnecting: records already applied are
    filtered out without re-reading cost beyond the scan.

    One tailer is single-consumer; the primary's ReplicationHub makes
    one per subscriber.
    """

    def __init__(self, wal: WriteAheadLog, start_lsn: int = 0) -> None:
        self.wal = wal
        self.start_lsn = int(start_lsn)
        #: lsn of the last record handed out (start_lsn - 1 initially)
        self.last_lsn = self.start_lsn - 1
        self._segment_pos = 0  # index into the sorted segment list
        self._offset = 0  # byte offset within the current segment
        self._stopped = False

    def stop(self) -> None:
        """Make a blocked :meth:`next_batch` return promptly."""
        self._stopped = True
        with self.wal._watch:
            self.wal._watch.notify_all()

    def poll(self, max_records: int = 512) -> List[WalRecord]:
        """Every new complete record on disk, without blocking."""
        records: List[WalRecord] = []
        while len(records) < max_records:
            paths = self.wal.segment_paths()
            if self._segment_pos >= len(paths):
                break
            path = paths[self._segment_pos]
            with open(path, "rb") as handle:
                handle.seek(self._offset)
                data = handle.read()
            consumed = 0
            try:
                for offset, payload in iter_frames(data):
                    record = WalRecord.from_payload(payload)
                    consumed = offset + _frame_length(data, offset)
                    if record.lsn > self.last_lsn:
                        records.append(record)
                        self.last_lsn = record.lsn
                    if len(records) >= max_records:
                        break
            except WalCorruptionError as error:
                if not getattr(error, "torn", False):
                    raise
                # an append (or the final, crashed record) in flight:
                # stop in front of it and resume from here next poll
                consumed = getattr(error, "offset", consumed)
            self._offset += consumed
            if len(records) >= max_records:
                break
            # advance to the next segment only once this one is fully
            # consumed AND a newer one exists (rotation seals segments
            # with complete frames, so a clean parse to EOF is the
            # hand-off point)
            if (
                self._segment_pos < len(paths) - 1
                and consumed == len(data)
            ):
                self._segment_pos += 1
                self._offset = 0
                continue
            break
        return records

    def next_batch(
        self,
        timeout: Optional[float] = None,
        max_records: int = 512,
    ) -> List[WalRecord]:
        """New records, blocking up to ``timeout`` for the first one.

        Returns an empty list on timeout, on :meth:`stop`, or when the
        log was closed with nothing left to read — callers distinguish
        idleness via :attr:`closed`/:attr:`stopped` if they need to.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            records = self.poll(max_records)
            if records or self._stopped or self.wal.closed:
                return records
            remaining = (
                None if deadline is None else deadline - time.monotonic()
            )
            if remaining is not None and remaining <= 0:
                return records
            target = self.last_lsn
            with self.wal._watch:
                # the predicate is re-checked under the watch lock, so a
                # record (or stop/close) landing between the poll above
                # and this wait can never be missed
                self.wal._watch.wait_for(
                    lambda: (
                        self.wal._next_lsn > target + 1
                        or self.wal._closed
                        or self._stopped
                    ),
                    remaining,
                )

    def __iter__(self) -> Iterator[WalRecord]:
        """Blocking record iterator; ends on :meth:`stop` / log close."""
        while True:
            batch = self.next_batch(timeout=0.5)
            if batch:
                for record in batch:
                    yield record
            elif self._stopped or self.wal.closed:
                return

    def __repr__(self) -> str:
        return (
            f"WalTailer(last_lsn={self.last_lsn}, "
            f"segment_pos={self._segment_pos}, offset={self._offset})"
        )


def _frame_length(data: bytes, offset: int) -> int:
    """Total byte length of the frame starting at ``offset``."""
    _magic, length, _crc = _HEADER.unpack_from(data, offset)
    return HEADER_SIZE + length


# -- applying and recovery --------------------------------------------------------


def apply_record(amos, record: WalRecord) -> int:
    """Apply one committed record to ``amos``; return the rows applied.

    The one dispatch over record kinds (docs/DURABILITY.md, "Applying a
    committed record"): crash recovery and the replica apply loop both
    replay the log through here, so a replica converges to exactly the
    state a post-crash recovery would.  Everything happens *beneath*
    the rule machinery — no check phases run and no actions re-fire;
    their effects are already part of the logged deltas.  Rule ops
    leave the engine's baselines stale: the caller decides when to
    ``amos.rules.resync_engine()``.
    """
    data = record.data
    if record.kind == "commit":
        deltas = record.deltas
        # Δ⁻ rows too: the OID of an object deleted later must never
        # be issued again, and no surviving row still carries it
        amos.reserve_oids(
            chain.from_iterable(
                side for delta in deltas.values() for side in (delta.plus, delta.minus)
            )
        )
        return amos.storage.apply_committed(deltas, record.epoch)
    if record.kind == "catalog":
        storage, name = amos.storage, data["relation"]
        if data["op"] == "create":
            if not storage.has_relation(name):
                storage.create_relation(name, data["arity"], data.get("columns"))
        elif storage.has_relation(name):
            storage.drop_relation(name)
    else:
        # idempotent: only the net activation set matters — every
        # action side effect is already inside the commit Δs
        rules, name = amos.rules, data["rule"]
        params = tuple(decode_value(p) for p in data.get("params", ()))
        if data["op"] == "activate":
            if not rules.is_active(name, params):
                rules.activate(name, params)
        elif rules.is_active(name, params):
            rules.deactivate(name, params)
    return 0


def replay(wal: WriteAheadLog, amos) -> RecoveryReport:
    """Replay every record of an open log into ``amos`` (no attach).

    The body of :func:`recover`; the replica calls it directly because
    it keeps the log open for verbatim appends instead of attaching it.
    """
    if getattr(amos, "wal", None) is not None:
        raise WalError("database already has a write-ahead log attached")
    if amos.storage.in_transaction:
        raise WalError("cannot recover into a database mid-transaction")
    # records / last lsn / last epoch / torn tail: the opening scan's
    report = replace(wal.scan_report)
    kinds: Dict[str, int] = Counter()
    for record in wal.records():
        kinds[record.kind] += 1
        report.rows_applied += apply_record(amos, record)
    report.commits = kinds["commit"]
    report.rule_ops = kinds["rule"]
    report.catalog_ops = kinds["catalog"]
    # the engine's materialized baselines predate the replay
    amos.rules.resync_engine()
    amos.reserve_oids()
    reg = metrics.ACTIVE
    if reg is not None:
        reg.counter("wal.recovered_records").inc(report.records)
        reg.counter("wal.recovered_rows").inc(report.rows_applied)
    wal.last_recovery = report
    return report


def recover(
    directory: str,
    amos=None,
    factory: Optional[Callable[[], object]] = None,
    attach: bool = True,
    **wal_options,
):
    """Rebuild a database from its schema bootstrap plus the Δ-log.

    ``amos`` (or ``factory()``) must provide the same schema — types,
    functions, rules, procedures — the original process had when its
    log was opened: schema is code (see :mod:`repro.storage.persistence`),
    the log holds data.  Recovery then:

    1. opens the log (truncating any torn tail record),
    2. replays every record, in log order, through
       :func:`apply_record` — each commit restoring its snapshot epoch
       on the way — so exactly the recorded state and monitor set come
       back,
    3. re-baselines the monitoring engine against the recovered state,
    4. advances the OID counter past every OID the log mentions, and
    5. attaches the log to the database so new commits append after the
       replayed records (``attach=False`` for read-only inspection).

    Returns the recovered database; the report is available as
    ``amos.wal.last_recovery``.
    """
    from repro.amos.database import AmosDatabase

    wal = WriteAheadLog(directory, **wal_options)
    try:
        if amos is None:
            amos = factory() if factory is not None else AmosDatabase()
        replay(wal, amos)
        if attach:
            amos.attach_wal(wal)
        else:
            wal.close()
        return amos
    except BaseException:
        wal.close()
        raise
