"""Server throughput smoke — commits/sec at 1, 4, and 16 sessions.

CI-sized: each cell drives concurrent client sessions over disjoint
item ranges (so the workload is interleaving-independent, exactly like
``tests/server/test_concurrency.py``) and times the full
connect → begin/set/commit × N → close cycle per session.  Commits are
serialized by the engine lock, so throughput should stay in the same
ballpark as sessions grow — the smoke asserts only sanity bounds, and
persists ``BENCH_server_throughput.json`` for trend tracking.

Run:  pytest benchmarks/test_bench_server_throughput.py -s
"""

import json
import os
import platform
import threading
import time

import pytest

from repro.bench.harness import Measurement, Sweep
from repro.bench.workload import build_inventory
from repro.server import AmosClient, AmosServer

SESSION_COUNTS = [1, 4, 16]
COMMITS_PER_SESSION = 8
ITEMS_PER_SESSION = 2


def hardware():
    """The host the cells were measured on (the artifact's meta)."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def drive_sessions(n_sessions):
    """Time ``n_sessions`` clients each committing COMMITS_PER_SESSION
    transactions concurrently; returns (seconds, total_commits, server)."""
    workload = build_inventory(n_sessions * ITEMS_PER_SESSION, seed=11)
    workload.activate()
    server = AmosServer(amos=workload.amos, observe=False)
    server.start()
    host, port = server.address
    barrier = threading.Barrier(n_sessions + 1)  # workers + the timer
    failures = []

    def worker(worker_index):
        try:
            base = worker_index * ITEMS_PER_SESSION
            with AmosClient(host, port, timeout=60.0) as client:
                for offset in range(ITEMS_PER_SESSION):
                    client.bind(f"i{offset}", workload.items[base + offset])
                barrier.wait(timeout=60.0)
                for step in range(COMMITS_PER_SESSION):
                    quantity = 5000 - step if step % 4 else 120 + step
                    with client.transaction():
                        client.execute(
                            f"set quantity(:i{step % ITEMS_PER_SESSION}) "
                            f"= {quantity};"
                        )
        except BaseException as exc:  # noqa: BLE001 - reported to the timer
            failures.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(n_sessions)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60.0)  # every session is connected and bound
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120.0)
    elapsed = time.perf_counter() - start
    server.stop()
    assert not failures, failures
    return elapsed, n_sessions * COMMITS_PER_SESSION, server


@pytest.fixture(scope="module")
def throughput():
    sweep = Sweep(
        "server throughput — commits/sec by concurrent sessions",
        x_label="sessions",
    )
    rates = {}
    latencies = {}
    for n_sessions in SESSION_COUNTS:
        seconds, commits, server = drive_sessions(n_sessions)
        sweep.add(Measurement("server", n_sessions, seconds, commits))
        rates[n_sessions] = commits / seconds
        stats = server.stats()
        assert stats["counters"]["server.commits"] == commits
        # per-commit latency distribution (server-side, ms): recorded
        # into the server's own registry on every commit
        histogram = server.registry.histogram("server.commit_ms")
        latencies[n_sessions] = {
            "p50_ms": histogram.quantile(0.5),
            "p95_ms": histogram.quantile(0.95),
        }
    print()
    print(sweep.format_table())
    print(
        "  commits/sec: "
        + "  ".join(f"{n}s={rates[n]:.0f}" for n in SESSION_COUNTS)
    )
    print(
        "  commit p50/p95 ms: "
        + "  ".join(
            f"{n}s={latencies[n]['p50_ms']:.1f}/{latencies[n]['p95_ms']:.1f}"
            for n in SESSION_COUNTS
        )
    )
    return sweep, rates, latencies


class TestServerThroughput:
    def test_every_cell_made_progress(self, throughput):
        sweep, rates, _ = throughput
        for n_sessions in SESSION_COUNTS:
            cell = sweep.cell("server", n_sessions)
            assert cell is not None
            assert cell.transactions == n_sessions * COMMITS_PER_SESSION
            assert cell.transactions_per_second > 1.0, (
                n_sessions,
                cell.transactions_per_second,
            )

    def test_contention_does_not_collapse_throughput(self, throughput):
        _, rates, _ = throughput
        # commits serialize on the engine lock; adding sessions must not
        # collapse the aggregate rate (generous: CI machines are noisy)
        assert rates[16] > rates[1] / 20.0, rates

    def test_commit_latency_quantiles_recorded(self, throughput):
        _, _, latencies = throughput
        for n_sessions in SESSION_COUNTS:
            p50 = latencies[n_sessions]["p50_ms"]
            p95 = latencies[n_sessions]["p95_ms"]
            # power-of-two bucket edges: sub-millisecond commits land in
            # the 0-edge bucket, so 0 is a legitimate (fast!) p50
            assert p50 is not None and p50 >= 0
            assert p95 is not None and p95 >= p50

    def test_persists_artifact(self, throughput):
        sweep, rates, latencies = throughput
        path = sweep.persist(
            "server_throughput",
            meta={
                "commits_per_session": COMMITS_PER_SESSION,
                "items_per_session": ITEMS_PER_SESSION,
                "commits_per_second": {str(n): rates[n] for n in rates},
                "commit_latency_ms": {
                    str(n): latencies[n] for n in latencies
                },
                "hardware": hardware(),
            },
        )
        assert os.path.basename(path) == "BENCH_server_throughput.json"
        with open(path) as handle:
            on_disk = json.load(handle)
        assert on_disk["x_label"] == "sessions"
        assert len(on_disk["rows"]) == len(SESSION_COUNTS)
        assert on_disk["meta"]["commits_per_second"]
        assert on_disk["meta"]["commit_latency_ms"]
