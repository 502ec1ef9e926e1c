"""The two served workloads: AMOSQL sessions against a durable primary
(and a replica) running in their own processes, default configuration.

* ``served_commit``    — two writer sessions over disjoint hot ranges;
  wire, parse, WAL fsync, snapshot publish and ack dominate.
* ``served_readwrite`` — one writer beside one reader on a replica;
  the only workload where the replication path carries load.

All loops are closed: a session sends its next request when the
previous one is acknowledged.  The traced counterpart replays the same
scripts in this process, one layer call at a time (``replay``).
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from typing import Dict, List, Optional, Tuple

from repro.amos.oid import OID
from repro.amosql import ast
from repro.amosql.compiler import QueryCompiler
from repro.amosql.interpreter import AmosqlEngine
from repro.amosql.parser import parse
from repro.errors import ReproError
from repro.obs import collecting
from repro.server import AmosClient, codec, protocol
from repro.storage import wal as wal_module

import inputs
import layers
from harness import HERE, WARM_SHARE, Window, WorkDir, default_inventory, quantile
from spans import CommitTracer, Recorder, traced_call

N_ITEMS = 5000
#: items bound per session; the hot set fits every cache
HOT = 50
ALL_QUANTITIES = "select i, quantity(i) for each item i;"

#: input caps per second of window (a session that exhausts its
#: scripts ends its window early)
TXN_RATE_CAP = 1500.0
#: the reader's think time between reads.  A replica read beside a
#: writer costs ~40 ms of replica CPU; read back to back, the replica,
#: the primary and the generator want more than this box's two cores
#: and the writer's latency measures the scheduler.  At 0.1 s the
#: replica spends about a third of a core on reads.
READ_THINK_S = 0.1
READ_RATE_CAP = 1.0 / READ_THINK_S


class ServerProc:
    """Parent side of ``serverproc.py``: one JSON line per exchange."""

    def __init__(self, role: str, config: Dict[str, object]) -> None:
        self.role = role
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serverproc.py"), role, json.dumps(config)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.ready = self._read()
        except BaseException:
            self.kill()
            raise
        self.address = tuple(self.ready["address"])

    def _read(self) -> Dict[str, object]:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"{self.role} process ended early (exit {self.proc.wait()})"
            )
        return json.loads(line)

    def ask(self, command: str) -> Dict[str, object]:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._read()

    def stop(self) -> Dict[str, object]:
        """Stop the server, wait for the process, return its report."""
        try:
            final = self.ask("stop")
            self.proc.wait(timeout=30.0)
            return final
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


class System:
    """One set-up: the server processes and the connected sessions."""

    def __init__(self) -> None:
        self.primary: Optional[ServerProc] = None
        self.replica: Optional[ServerProc] = None
        self.writers: List[AmosClient] = []
        self.reader: Optional[AmosClient] = None
        self.items: List[OID] = []
        self.wal_dir = ""

    def hang_up(self) -> None:
        for client in self.writers + ([self.reader] if self.reader else []):
            with contextlib.suppress(ReproError, OSError):
                client.close()
        self.writers, self.reader = [], None

    def close(self) -> None:
        """Hang up and end every process (idempotent; the normal path
        goes through ``Served.finish``, which keeps the reports)."""
        self.hang_up()
        for proc in (self.replica, self.primary):
            if proc is not None:
                proc.kill()
        self.primary = self.replica = None


class Served:
    name = ""
    n_writers = 1
    has_reader = False

    def __init__(self, seed: int, scale: float, seconds: float) -> None:
        self.seed = seed
        self.n_items = max(2 * HOT, int(N_ITEMS * scale))
        rng = random.Random(seed)
        self.initial = inputs.initial_quantities(self.n_items, seed)
        quantities = list(self.initial)
        count = int(50 + seconds * TXN_RATE_CAP)
        self.txns = [
            inputs.small_txns(rng, count, s * HOT, (s + 1) * HOT, quantities, pair=True)
            for s in range(self.n_writers)
        ]
        self.scripts = [
            [inputs.small_script(txns[4 * t : 4 * t + 4], s * HOT) for t in range(count)]
            for s, txns in enumerate(self.txns)
        ]
        self.reads = (
            inputs.reads(rng, int(50 + seconds * READ_RATE_CAP), HOT)
            if self.has_reader
            else []
        )
        self.read_scripts = [inputs.read_script(kind, k) for kind, k in self.reads]

    def config(self, **extra) -> Dict[str, object]:
        return dict(n_items=self.n_items, seed=self.seed, **extra)

    # -- set-up -------------------------------------------------------------------

    def setup(self, work: WorkDir, tag: str) -> System:
        """Start the processes, connect and bind every session."""
        system = System()
        try:
            system.wal_dir = work.sub(f"wal-{tag}")
            # a primary and its replica run on hosts of their own: here
            # each gets a core of its own (the generator floats), which
            # halved the writer's run-to-run spread against letting the
            # scheduler move three processes over two cores
            cpus = sorted(os.sched_getaffinity(0))
            primary_cpu, replica_cpu = (
                cpus[:2] if self.has_reader and len(cpus) >= 2 else (None, None)
            )
            system.primary = ServerProc(
                "primary", self.config(wal_dir=system.wal_dir, cpu=primary_cpu)
            )
            system.items = [OID(i, "item") for i in system.primary.ready["items"]]
            for s in range(self.n_writers):
                system.writers.append(self._session(system.primary, system.items, s))
            if self.has_reader:
                system.replica = ServerProc(
                    "replica",
                    self.config(primary=list(system.primary.address), cpu=replica_cpu),
                )
                # a direct replica session: AmosClient(replicas=[...])
                # dials its replica connections itself and cannot carry
                # the session binds these point reads need
                system.reader = self._session(system.replica, system.items, 0)
        except BaseException:
            system.close()
            raise
        return system

    @staticmethod
    def _session(proc: ServerProc, items: List[OID], s: int) -> AmosClient:
        client = AmosClient(*proc.address)
        client.connect()
        for k in range(HOT):
            client.bind(f"i{k}", items[s * HOT + k])
        return client

    # -- the run ------------------------------------------------------------------

    def run(self, system: System, seconds: float) -> Dict[str, object]:
        """Warm up, then one timed window; every session runs until the
        window closes (the reader until the writers are done)."""
        now = time.perf_counter
        opens = now() + seconds * WARM_SHARE
        closes = opens + seconds
        acked: List[List[Tuple[int, float, float, int]]] = [[] for _ in system.writers]
        failures: List[str] = []
        read_log: List[Tuple] = []
        writers_done = threading.Event()
        last_ack = [0]

        def write(s: int) -> None:
            client, out = system.writers[s], acked[s]
            for t, script in enumerate(self.scripts[s]):
                begun = now()
                if begun >= closes:
                    return
                try:
                    with client.transaction():
                        client.execute(script)
                except (ReproError, OSError) as exc:
                    failures.append(f"session {s} transaction {t}: {exc!r}")
                    if not client.connected:
                        return
                    continue
                out.append((t, begun, now(), client.last_commit_epoch))
                last_ack[0] = client.last_commit_epoch

        def read() -> None:
            client = system.reader
            for (kind, k), script in zip(self.reads, self.read_scripts):
                if writers_done.is_set():
                    return
                known = last_ack[0]
                begun = now()
                try:
                    served, results = client.execute_ro(script)
                except (ReproError, OSError) as exc:
                    failures.append(f"read {kind}/{k}: {exc!r}")
                    if not client.connected:
                        return
                    continue
                read_log.append((kind, k, begun, now(), served, known, results[0]))
                if writers_done.wait(READ_THINK_S):
                    return

        threads = [
            threading.Thread(target=write, args=(s,)) for s in range(len(system.writers))
        ]
        reader = threading.Thread(target=read) if system.reader else None
        for thread in threads + ([reader] if reader else []):
            thread.start()
        for thread in threads:
            thread.join()
        writers_done.set()
        final_epoch = max((out[-1][3] for out in acked if out), default=0)
        drain_ms = 0.0
        if system.replica is not None:
            last_acked_at = max(out[-1][2] for out in acked if out)
            reply = system.replica.ask(f"wait_epoch {final_epoch}")
            drain_ms = max(0.0, now() - last_acked_at) * 1000.0
            if not reply.get("reached"):
                failures.append(f"replica never reached epoch {final_epoch}")
        if reader:
            reader.join()
        # both sessions' samples, merged into completion order
        timed = sorted(
            (row for out in acked for row in out if row[1] >= opens),
            key=lambda row: row[2],
        )
        timed_reads = [row for row in read_log if row[2] >= opens]
        return {
            "acked": acked,
            "failures": failures,
            "final_epoch": final_epoch,
            "drain_ms": drain_ms,
            "window": Window(opens, [r[2] for r in timed], [r[2] - r[1] for r in timed]),
            "read_log": read_log,
            "read_window": Window(
                opens, [r[3] for r in timed_reads], [r[3] - r[2] for r in timed_reads]
            ),
            "attempted": sum(len(out) for out in acked) + len(read_log) + len(failures),
        }

    # -- checks and tear-down -----------------------------------------------------

    def finish(self, system: System, run: Dict[str, object], pings: int) -> Dict[str, object]:
        """Read the servers' view, stop them, and check every output."""
        failures: List[str] = list(run["failures"])
        acked = run["acked"]
        final_epoch = run["final_epoch"]
        quantities = list(self.initial)
        orders: Counter = Counter()
        for s, out in enumerate(acked):
            # a refused transaction changed nothing: replay only acked ones
            for t, _b, _e, _epoch in out:
                inputs.replay_small(self.txns[s][4 * t : 4 * t + 4], 1, quantities, orders)
            epochs = [row[3] for row in out]
            if any(b <= a for a, b in zip(epochs, epochs[1:])):
                failures.append(f"session {s}: ack epochs not strictly increasing")
        expected = sorted((system.items[x], q) for x, q in enumerate(quantities))

        writer = system.writers[0]
        ping_us = (
            statistics.median(writer.ping() for _ in range(pings)) * 1e6 if pings else 0.0
        )
        primary_stats = writer.stats()
        primary_rows = writer.execute_ro(ALL_QUANTITIES, epoch=final_epoch)[1][0]
        if sorted(primary_rows) != expected:
            failures.append("primary quantity extension differs from the model")
        replica_stats = None
        if system.reader is not None:
            replica_stats = system.reader.stats()
            replica_rows = system.reader.execute_ro(ALL_QUANTITIES, epoch=final_epoch)[1][0]
            if replica_rows != primary_rows:
                failures.append(f"replica differs from primary at epoch {final_epoch}")
            failures += self._check_reads(system, acked[0], run["read_log"])
        system.hang_up()
        reports = {}
        for role in ("replica", "primary"):
            proc = getattr(system, role)
            if proc is not None:
                reports[role] = proc.stop()
        system.primary = system.replica = None
        got = Counter((item, amount) for item, amount in reports["primary"]["orders"])
        want = Counter({(system.items[x].id, amount): n for (x, amount), n in orders.items()})
        if got != want:
            failures.append("orders differ from the model")
        return {
            "failures": failures,
            "ping_us": ping_us,
            "primary_stats": primary_stats,
            "replica_stats": replica_stats,
            "rss_mb": sum(report["rss_mb"] for report in reports.values()),
            "expected": expected,
            "commits": sum(len(out) for out in acked),
        }

    def _check_reads(self, system: System, writes, read_log) -> List[str]:
        """Every read must show exactly the state the writer had
        committed by the epoch the replica served it at."""
        history = inputs.EpochHistory(self.initial)
        for t, _b, _e, epoch in writes:
            i, v, j, w = self.txns[0][4 * t : 4 * t + 4]
            history.record(epoch, i, v)
            history.record(epoch, j, w)
        wrong = 0
        index = {item: x for x, item in enumerate(system.items)}
        for kind, k, _b, _e, served, _known, rows in read_log:
            if kind == inputs.POINT_QUANTITY:
                ok = rows == [(history.quantity(k, served),)]
            elif kind == inputs.POINT_THRESHOLD:
                ok = rows == [(inputs.THRESHOLD,)]
            else:
                ok = {index[row[0]] for row in rows} == history.scan(served)
            wrong += not ok
        return [f"{wrong} reads returned a wrong result"] if wrong else []

    def recover(self, wal_dir: str, work: WorkDir, tag: str, expected, commits: int):
        """Time ``recover()`` on a copy of the log; check what it rebuilds."""
        copy = os.path.join(work.path, f"recover-{tag}")
        shutil.copytree(wal_dir, copy)
        system = default_inventory(self.n_items, self.seed)
        try:
            begun = time.perf_counter()
            wal_module.recover(copy, amos=system.amos)
            seconds = time.perf_counter() - begun
            report = system.amos.wal.last_recovery
            failures = []
            if report.commits != commits:
                failures.append(
                    f"recovery replayed {report.commits} commits, {commits} were acked"
                )
            if sorted(system.amos.extension("quantity")) != expected:
                failures.append("recovered quantity extension differs from the model")
        finally:
            system.amos.close()
        return seconds, failures

    # -- the traced counterpart ---------------------------------------------------

    def replay(
        self,
        work: WorkDir,
        mode: str,
        read_every: int,
        count: Optional[int] = None,
        seconds: Optional[float] = None,
    ) -> Dict[str, object]:
        """Session 0's scripts (and the reads) in this process, single
        threaded, one layer call after another in the server's commit
        order: frame → parse → buffer → execute → commit (check phase)
        → publish → WAL append → encode → frame.

        Frames cross a real socketpair.  ``mode`` as in
        ``embedded.measure``: ``"plain"`` runs the same code bare — the
        untraced side of ``trace.overhead_share``.  One read follows
        every ``read_every`` transactions, the ratio the served run saw.
        """
        rec = Recorder() if mode == "spans" else None
        counting = mode == "counters"
        with contextlib.ExitStack() as scopes:
            whole = scopes.enter_context(collecting()) if counting else None
            system = default_inventory(self.n_items, self.seed)
            scopes.callback(system.amos.close)
            amos, storage = system.amos, system.amos.storage
            engine = AmosqlEngine(amos)
            for k in range(HOT):
                engine.iface[f"i{k}"] = system.items[k]
            log = scopes.enter_context(
                wal_module.WriteAheadLog(work.sub(f"replay-{mode}"))
            )
            client_end, server_end = socket.socketpair()
            scopes.callback(client_end.close)
            scopes.callback(server_end.close)
            tracer = CommitTracer(rec, amos, capture=True)
            scopes.callback(tracer.close)
            if rec is not None:
                rec.wrap(wal_module, "encode_delta_map", "storage.wal.encode")
                rec.wrap(wal_module, "encode_frame", "storage.wal.encode")
                rec.wrap(os, "fsync", "storage.wal.fsync")
                rec.wrap(QueryCompiler, "compile_select", "amosql.compile_select")
            steady = scopes.enter_context(collecting()) if counting else None
            transaction, read = self._replay_steps(
                rec, amos, engine, log, tracer, client_end, server_end
            )
            storage.publish_snapshot()  # the server's boot publish
            begun = time.perf_counter()
            until = begun + seconds if seconds is not None else float("inf")
            limit = min(len(self.scripts[0]), count if count is not None else 1 << 62)
            done = 0
            while done < limit and time.perf_counter() < until:
                transaction(done)
                done += 1
                if self.reads and done % read_every == 0:
                    read(done // read_every % len(self.reads))
            wall = time.perf_counter() - begun
            quantities = list(self.initial)
            inputs.replay_small(self.txns[0], done, quantities, Counter())
            failures = []
            if sorted(amos.extension("quantity")) != sorted(
                (system.items[x], q) for x, q in enumerate(quantities)
            ):
                failures.append("replay quantity extension differs from the model")
            counted = layers.counted(amos, whole, steady, done) if counting else {}
        return {
            "done": done,
            "wall": wall,
            "failures": failures,
            "recorder": rec,
            "counted": counted,
        }

    def _replay_steps(self, rec, amos, engine, log, tracer, client_end, server_end):
        """``transaction(t)`` and ``read(r)`` of :meth:`replay`."""
        storage = amos.storage

        def send(source, sink, payload):
            protocol.write_frame(source, payload)
            return protocol.read_frame(sink)

        def decode(response):
            return [codec.decode_result(result) for result in response["results"]]

        def commit(buffer):
            def execute():
                amos.begin()
                return [engine.execute_statement(statement) for statement in buffer]

            raw = traced_call(rec, "amosql.execute", execute)
            tracer.commit()
            published = traced_call(
                rec, "storage.snapshot.publish", storage.publish_snapshot
            )
            traced_call(
                rec, "storage.wal.append",
                log.append_commit, published.epoch, tracer.committed.deltas,
            )
            results = traced_call(
                rec, "server.codec.result",
                lambda: [codec.encode_result(s, r) for s, r in zip(buffer, raw)],
            )
            return {
                "kind": "committed",
                "results": results,
                "epoch": published.epoch,
                "coalesced": 1,
            }

        def transaction(t: int) -> None:
            root = rec.root("txn", t) if rec is not None else None
            buffer: List[object] = []
            for n, text in enumerate(("begin;", self.scripts[0][t], "commit;")):
                request = traced_call(
                    rec, "server.protocol.frame", send, client_end, server_end,
                    {"id": 3 * t + n, "op": "execute", "script": text},
                )
                results = []
                for statement in traced_call(rec, "amosql.parse", parse, request["script"]):
                    if isinstance(statement, ast.BeginTransaction):
                        results.append({"kind": "begun"})
                    elif isinstance(statement, ast.CommitTransaction):
                        results.append(commit(buffer))
                    else:
                        buffer.append(statement)
                        results.append({"kind": "buffered"})
                response = traced_call(
                    rec, "server.protocol.frame", send, server_end, client_end,
                    {"ok": True, "id": request["id"], "results": results},
                )
                traced_call(rec, "server.codec.result", decode, response)
            if root is not None:
                rec.end(root)

        def read(r: int) -> None:
            root = rec.root("read", r) if rec is not None else None
            request = traced_call(
                rec, "server.protocol.frame", send, client_end, server_end,
                {"id": r, "op": "query_ro", "script": self.read_scripts[r]},
            )
            scan = self.reads[r][0] == inputs.SCAN
            snapshot, raw = traced_call(
                rec,
                "amosql.readonly_scan" if scan else "amosql.readonly_point",
                engine.execute_readonly,
                request["script"],
            )
            results = traced_call(
                rec, "server.codec.result",
                lambda: [
                    {"kind": "rows", "rows": [codec.encode_row(row) for row in rows]}
                    for rows in raw
                ],
            )
            response = traced_call(
                rec, "server.protocol.frame", send, server_end, client_end,
                {"ok": True, "id": r, "epoch": snapshot.epoch, "results": results},
            )
            traced_call(rec, "server.codec.result", decode, response)
            if root is not None:
                rec.end(root)

        return transaction, read


class ServedCommit(Served):
    name = "served_commit"
    n_writers = 2


class ServedReadWrite(Served):
    name = "served_readwrite"
    has_reader = True


WORKLOADS = {cls.name: cls for cls in (ServedCommit, ServedReadWrite)}


def staleness_p95(read_log) -> float:
    """p95 of (writer's last acked epoch when the read was sent) minus
    (epoch the replica served it at), floored at zero."""
    lags = sorted(max(0, known - served) for *_rest, served, known, _rows in read_log)
    return float(quantile(lags, 0.95))
