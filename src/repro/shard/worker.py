"""Persistent shard workers and the leader-side exchange protocol.

One :class:`ShardPool` = N forked worker processes that **survive
across commits**.  Forking (not spawning) is still the load-bearing
choice:

* the child inherits the parent's entire heap copy-on-write — the full
  database state, the compiled propagation network with its per-edge
  :class:`~repro.objectlog.batch.ClausePlan` s, foreign-function
  callables, everything — with zero serialization;
* a worker forked *mid-transaction* (pool creation, or a respawn after
  a kill) starts bit-identical to the leader's current state, so it
  needs no history at all: its first wave arrives with ``apply=False``
  (the wave's rows are already in its inherited memory) and its sync
  sequence number is set to the leader's current one.

Between check phases the workers idle on their pipes.  What keeps a
*reused* worker consistent is the **replica-sync protocol**: the
leader's engine captures every committed transaction's net physical Δ
(the same canonical delta-set encoding the WAL ships) into a backlog,
and at the start of the next pooled check phase ships the backlog over
the same length-prefixed pickle pipes the waves use.  The handshake is
an explicit epoch check: the worker replies with the sequence number
it reached, and a worker whose reply is missing, late, or wrong (it
died, or it somehow diverged) is **respawned in place** — a fresh fork
of the leader's current memory — instead of silently propagating
against stale state.  Backlog entries and waves are applied with
:meth:`~repro.storage.database.Database.apply_committed` — the same
function WAL recovery and the read replicas replay a commit through —
which is idempotent, so re-applying rows a worker already saw through
waves is harmless.

Per check-loop iteration (a *wave*) the leader broadcasts one pickled
payload — the iteration's merged Δ-map plus an ``apply`` flag — to
every worker.  Each worker

1. applies the FULL wave Δ to its replica when ``apply`` is set (a
   fresh fork inherited the first wave's changes and gets
   ``apply=False`` exactly once) — this is how Δ-sets produced on one
   shard's rows cross shard boundaries between waves;
2. seeds its propagation network with only its hash partition of the
   wave, rolls the whole wave back for old-state reads
   (``Propagator.run(partition, old_deltas=wave)``), and
3. ships its root condition deltas, per-shard counters, and (when
   explaining) its differential executions back through the barrier.

The leader collects results in shard order — the merge barrier — and
:mod:`repro.shard.engine` folds them into one coherent result.

Fault points ``sync.pre`` / ``sync.mid`` / ``sync.post`` bracket the
sync handshake and ``exchange.pre`` / ``exchange.mid`` /
``exchange.post`` bracket one wave exchange; the ``tests/fault``
harness arms them to SIGKILL workers at the worst moments.  A kill
during the sync handshake is *survivable* (the victim respawns and the
commit proceeds); a kill mid-wave still aborts the phase cleanly (the
pool is discarded and the transaction rolls back, see
docs/TESTING.md).
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.algebra.delta import DeltaSet
from repro.errors import ShardWorkerError
from repro.obs import metrics, tracing

__all__ = ["ShardPool", "SHARD_FAULT_POINTS"]

#: leader-side fault seams: the sync handshake then one wave exchange
SHARD_FAULT_POINTS = (
    "sync.pre",
    "sync.mid",
    "sync.post",
    "exchange.pre",
    "exchange.mid",
    "exchange.post",
)

_LENGTH = struct.Struct(">I")


# -- pipe framing (length-prefixed pickles over raw fds) -------------------


def _write_frame(fd: int, payload: bytes) -> None:
    data = _LENGTH.pack(len(payload)) + payload
    view = memoryview(data)
    while view:
        written = os.write(fd, view)
        view = view[written:]


def _read_exact(fd: int, n: int, deadline: Optional[float]) -> bytes:
    chunks: List[bytes] = []
    remaining = n
    while remaining:
        if deadline is not None:
            timeout = deadline - time.monotonic()
            if timeout <= 0 or not select.select([fd], [], [], timeout)[0]:
                raise TimeoutError(f"no data for {n} byte frame")
        chunk = os.read(fd, remaining)
        if not chunk:
            raise EOFError("pipe closed")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _read_frame(fd: int, deadline: Optional[float] = None) -> bytes:
    (length,) = _LENGTH.unpack(_read_exact(fd, _LENGTH.size, deadline))
    return _read_exact(fd, length, deadline)


# -- the worker side -------------------------------------------------------


def _worker_main(engine, shard: int, seq: int, read_fd: int, write_fd: int) -> None:
    """The forked child's loop; never returns (``os._exit`` always).

    ``engine`` is the parent's ShardedEngine, inherited copy-on-write:
    ``engine.db`` is this worker's private replica, and
    ``engine._propagator`` already holds the compiled network.  ``seq``
    is the replica-sync sequence number the inherited memory
    corresponds to; it advances with every ``sync`` message.
    """
    # the child must not report into inherited observability sinks: it
    # collects its own per-wave registry and ships it back instead
    metrics.install(None)
    tracing.uninstall()
    try:
        while True:
            message = pickle.loads(_read_frame(read_fd))
            kind = message[0]
            if kind == "sync":
                # replica sync: committed net Δs this worker missed,
                # then the epoch handshake (echo the sequence reached)
                _, records, target_seq = message
                for record_seq, deltas in records:
                    if record_seq > seq:
                        engine.db.apply_committed(deltas)
                seq = max(seq, target_seq)
                _write_frame(
                    write_fd,
                    pickle.dumps(("synced", seq), pickle.HIGHEST_PROTOCOL),
                )
            elif kind == "wave":
                _, wave, want_trace, apply_wave = message
                registry = metrics.Registry()
                metrics.install(registry)
                started = time.perf_counter()
                try:
                    if apply_wave:
                        # boundary exchange: other shards' Δ rows enter
                        # this replica here (a fresh fork already
                        # inherited its first wave and gets apply=False)
                        engine.db.apply_committed(wave)
                    partition = engine.partitioner.partition_map(wave, shard)
                    results = engine._propagator.run(
                        partition, trace=want_trace, old_deltas=wave
                    )
                finally:
                    metrics.install(None)
                elapsed_ms = (time.perf_counter() - started) * 1000.0
                executions = (
                    list(engine._propagator.last_trace.executions)
                    if want_trace and engine._propagator.last_trace is not None
                    else []
                )
                stats = {
                    "check_ms": elapsed_ms,
                    "counters": registry.counters(),
                    "gauges": registry.gauges(),
                    "seeded": sum(
                        len(d.plus) + len(d.minus)
                        for d in partition.values()
                    ),
                }
                _write_frame(
                    write_fd,
                    pickle.dumps(
                        ("ok", results, stats, executions),
                        pickle.HIGHEST_PROTOCOL,
                    ),
                )
            else:  # "close" or anything unknown: exit cleanly
                os._exit(0)
    except BaseException as exc:  # noqa: BLE001 - a worker never re-raises
        try:
            _write_frame(
                write_fd,
                pickle.dumps(
                    (
                        "error",
                        f"{type(exc).__name__}: {exc}",
                        traceback.format_exc(),
                    ),
                    pickle.HIGHEST_PROTOCOL,
                ),
            )
        except BaseException:
            pass
        os._exit(1)


# -- the leader side -------------------------------------------------------


class _Worker:
    """Leader-side record of one live worker process."""

    __slots__ = ("pid", "read_fd", "write_fd", "seq", "skip_next_apply")

    def __init__(self, pid: int, read_fd: int, write_fd: int, seq: int) -> None:
        self.pid = pid
        self.read_fd = read_fd
        self.write_fd = write_fd
        #: last sync sequence number this worker's replica reflects
        self.seq = seq
        #: True for a fresh fork: its next wave arrives with apply=False
        #: because the wave's rows are already in its inherited memory
        self.skip_next_apply = True


class ShardPool:
    """N forked propagation workers + the leader's exchange protocol.

    The pool persists across check phases; :mod:`repro.shard.engine`
    owns its lifetime (creation at the first fanned-out phase, sync at
    every later phase start, discard on failure/rebuild/staleness).

    ``on_count`` is the engine's accounting callback — called as
    ``on_count(name, n)`` for ``forks`` / ``respawns`` / ``sync_bytes``
    so pool-internal events land in ``shard.pool.*`` metrics.
    """

    def __init__(
        self,
        engine,
        shards: int,
        wave_timeout: Optional[float],
        seq: int = 0,
        on_count: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self.wave_timeout = wave_timeout
        self.waves = 0
        #: the sync sequence number the whole fleet is consistent with
        self.seq = seq
        self._engine = engine
        self._on_count = on_count
        self._workers: List[_Worker] = []
        for shard in range(shards):
            self._workers.append(self._fork(shard, seq))

    def _count(self, name: str, n: int = 1) -> None:
        if self._on_count is not None:
            self._on_count(name, n)

    def _fork(self, shard: int, seq: int) -> _Worker:
        """Fork one worker inheriting the leader's CURRENT memory."""
        to_child_r, to_child_w = os.pipe()
        to_parent_r, to_parent_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(to_child_w)
            os.close(to_parent_r)
            # drop inherited leader-side fds of the other workers so
            # every pipe has exactly one reader and one writer
            for sibling in self._workers:
                if sibling is not None:
                    os.close(sibling.read_fd)
                    os.close(sibling.write_fd)
            _worker_main(self._engine, shard, seq, to_child_r, to_parent_w)
            os._exit(0)  # unreachable: _worker_main never returns
        os.close(to_child_r)
        os.close(to_parent_w)
        self._count("forks")
        return _Worker(pid, to_parent_r, to_child_w, seq)

    def _respawn(self, shard: int, seq: int) -> None:
        """Replace one dead/diverged worker with a fresh fork, in place.

        The fresh fork inherits the leader's current memory — which
        during a phase start already includes the open transaction's
        physical updates — so it needs neither the backlog nor the
        first wave (``skip_next_apply``), exactly like a worker forked
        at pool creation.
        """
        old = self._workers[shard]
        # null the slot BEFORE forking: the replacement's os.pipe()
        # calls reuse the fd numbers freed below, and the child's
        # close-the-siblings loop must not close its own fresh pipes
        self._workers[shard] = None
        if old is not None:
            for fd in (old.read_fd, old.write_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass
            try:
                os.kill(old.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
            try:
                os.waitpid(old.pid, 0)
            except (ChildProcessError, OSError):
                pass
        self._workers[shard] = self._fork(shard, seq)
        self._count("respawns")

    @property
    def pids(self) -> List[int]:
        return [worker.pid for worker in self._workers]

    def __len__(self) -> int:
        return len(self._workers)

    # -- replica sync ------------------------------------------------------

    def sync(
        self,
        records: Sequence[Tuple[int, Dict[str, DeltaSet]]],
        target_seq: int,
        fault_hook=None,
    ) -> int:
        """Phase-start handshake: ship missed commits, verify the epoch.

        Every reused worker gets the backlog ``records`` (committed net
        Δs with sequence numbers above its own) and must ack with
        ``target_seq`` — the epoch handshake.  A worker that cannot be
        reached or whose ack is wrong is respawned in place from the
        leader's current memory; the phase proceeds either way, so a
        worker SIGKILLed between commits or mid-sync costs a respawn,
        never the transaction.  Returns the bytes shipped.
        """
        context = {"records": len(records), "seq": target_seq}
        if fault_hook is not None:
            fault_hook("sync.pre", context)
        payload = pickle.dumps(
            ("sync", list(records), target_seq), pickle.HIGHEST_PROTOCOL
        )
        sync_bytes = 0
        pending: List[int] = []
        for shard, worker in enumerate(self._workers):
            try:
                _write_frame(worker.write_fd, payload)
                sync_bytes += len(payload)
                pending.append(shard)
            except OSError:
                self._respawn(shard, target_seq)
        if fault_hook is not None:
            fault_hook("sync.mid", context)
        deadline = (
            time.monotonic() + self.wave_timeout
            if self.wave_timeout is not None
            else None
        )
        for shard in pending:
            worker = self._workers[shard]
            acked = False
            try:
                frame = _read_frame(worker.read_fd, deadline)
                sync_bytes += len(frame)
                message = pickle.loads(frame)
                acked = message[0] == "synced" and message[1] == target_seq
            except (OSError, EOFError, TimeoutError):
                acked = False
            if acked:
                # the ack can outlive its author (pipe buffer): a worker
                # SIGKILLed right after replying still reads as synced,
                # so verify it is actually alive before trusting it
                try:
                    acked = os.waitpid(worker.pid, os.WNOHANG) == (0, 0)
                except (ChildProcessError, OSError):
                    acked = False
            if acked:
                worker.seq = target_seq
                worker.skip_next_apply = False
            else:
                self._respawn(shard, target_seq)
        self.seq = target_seq
        if fault_hook is not None:
            fault_hook("sync.post", context)
        self._count("sync_bytes", sync_bytes)
        return sync_bytes

    # -- the wave exchange -------------------------------------------------

    def run_wave(
        self,
        wave: Dict[str, DeltaSet],
        trace: bool,
        fault_hook=None,
    ) -> Tuple[List[Dict[str, DeltaSet]], List[Dict], List[List], int]:
        """One exchange: broadcast ``wave``, collect at the barrier.

        Returns per-shard ``(condition_deltas, stats, executions)``
        lists in shard order plus the bytes moved through the pipes.
        Any worker death, hang, or reported failure raises
        :class:`ShardWorkerError` — an ordinary Exception, so the
        commit path rolls the transaction back (and the engine discards
        the whole pool: mid-wave state is torn beyond repair).
        """
        self.waves += 1
        context = {"wave": self.waves}
        payloads = {
            apply_wave: pickle.dumps(
                ("wave", wave, trace, apply_wave), pickle.HIGHEST_PROTOCOL
            )
            for apply_wave in (True, False)
        }
        exchange_bytes = 0
        if fault_hook is not None:
            fault_hook("exchange.pre", context)
        for shard, worker in enumerate(self._workers):
            payload = payloads[not worker.skip_next_apply]
            worker.skip_next_apply = False
            exchange_bytes += len(payload)
            try:
                _write_frame(worker.write_fd, payload)
            except OSError as exc:
                raise ShardWorkerError(
                    f"shard worker {shard} (pid {worker.pid}) is gone at "
                    f"wave {self.waves} broadcast: {exc}"
                ) from exc
        if fault_hook is not None:
            fault_hook("exchange.mid", context)
        deadline = (
            time.monotonic() + self.wave_timeout
            if self.wave_timeout is not None
            else None
        )
        results: List[Dict[str, DeltaSet]] = []
        stats: List[Dict] = []
        executions: List[List] = []
        for shard, worker in enumerate(self._workers):
            try:
                frame = _read_frame(worker.read_fd, deadline)
            except (OSError, EOFError, TimeoutError) as exc:
                raise ShardWorkerError(
                    f"shard worker {shard} (pid {worker.pid}) died or "
                    f"stalled at wave {self.waves} barrier: {exc}"
                ) from exc
            exchange_bytes += len(frame)
            message = pickle.loads(frame)
            if message[0] != "ok":
                raise ShardWorkerError(
                    f"shard worker {shard} (pid {worker.pid}) failed at "
                    f"wave {self.waves}: {message[1]}\n{message[2]}"
                )
            results.append(message[1])
            stats.append(message[2])
            executions.append(message[3])
        if fault_hook is not None:
            fault_hook("exchange.post", context)
        return results, stats, executions, exchange_bytes

    def close(self) -> None:
        """Kill and reap every worker; idempotent, never raises."""
        workers, self._workers = self._workers, []
        for worker in workers:
            for fd in (worker.read_fd, worker.write_fd):
                try:
                    os.close(fd)
                except OSError:
                    pass
            try:
                os.kill(worker.pid, signal.SIGKILL)
            except (OSError, ProcessLookupError):
                pass
        for worker in workers:
            try:
                os.waitpid(worker.pid, 0)
            except (ChildProcessError, OSError):
                pass

    def __del__(self) -> None:  # pragma: no cover - gc safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"ShardPool(workers={len(self._workers)}, waves={self.waves}, "
            f"seq={self.seq})"
        )
