"""Replication under load: replica lag + the scale-out read path.

Two phases, one artifact (``BENCH_replication.json``):

**Phase A — lag under a commit storm (in-process).**  16 sessions
hammer a WAL-backed primary while one replica follows the WAL
stream.  A sampler thread records ``replica.lag_epochs`` through the
storm; afterwards we time the drain back to lag 0.  The acceptance
property is *bounded* lag: the replica must return to the primary's
epoch promptly once the storm ends, having applied every record
exactly once.

**Phase B — read scale-out (subprocess).**  A writable primary (CLI
``--serve``, rule-dense bootstrap) takes a continuous wide-delta write
storm: every commit touches the whole catalog, so the primary pays a
full partial-differencing check phase per commit while replicas replay
the same commits beneath the rules for near-zero cost.  Reader
*processes* measure aggregate ``query_ro`` throughput of a derived-join
query (a) all against the primary, (b) fanned out over two CLI replicas
(``--replicate-from``).  The replicas are read-optimized nodes: their
epoch-keyed result cache serves repeated reads of a published epoch
without re-evaluating the join, and every applied commit invalidates by
advancing the epoch.  The bar: ≥ 2× aggregate reads/sec with two
replicas.

Run:  pytest benchmarks/test_bench_replication.py -s
"""

import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time

import pytest

from repro.bench.harness import Measurement, Sweep
from repro.bench.workload import build_inventory
from repro.server import AmosClient, AmosServer
from repro.replication import ReplicaServer

N_SESSIONS = 16
COMMITS_PER_SESSION = 12
SWITCH_INTERVAL = 0.0005
DRAIN_BAR_SECONDS = 15.0

N_READERS = 4
N_WRITERS = 8
READ_SECONDS = 4.0
N_RULES = 10
N_CATALOG = 24
SCALEOUT_BAR = 2.0
REPEATS = 2

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# -- Phase A: replica lag under a 16-session commit storm (in-process) --------


def bootstrap_factory():
    workload = build_inventory(N_SESSIONS, seed=11)
    workload.activate()
    return workload


def drive_lag_storm():
    workload = bootstrap_factory()
    primary_dir = tempfile.mkdtemp(prefix="bench-repl-primary-")
    replica_dir = tempfile.mkdtemp(prefix="bench-repl-replica-")
    primary = AmosServer(
        amos=workload.amos,
        observe=False,
        wal_dir=primary_dir,
    )
    primary.start()
    replica = ReplicaServer(
        primary=primary.address,
        factory=lambda: bootstrap_factory().amos,
        wal_dir=replica_dir,
        observe=False,
    )
    replica.start()

    lag_samples = []
    sampling = threading.Event()
    sampling.set()

    def sample():
        while sampling.is_set():
            lag_samples.append(replica.lag_epochs)
            time.sleep(0.005)

    sampler = threading.Thread(target=sample, daemon=True)
    sampler.start()

    host, port = primary.address
    barrier = threading.Barrier(N_SESSIONS + 1)
    failures = []

    def worker(worker_index):
        try:
            with AmosClient(host, port, timeout=60.0) as client:
                for offset in range(2):
                    client.bind(f"i{offset}", workload.items[offset])
                barrier.wait(timeout=60.0)
                for step in range(COMMITS_PER_SESSION):
                    quantity = 5000 - step - worker_index
                    client.execute(
                        f"begin;\n"
                        f"set quantity(:i{step % 2}) = {quantity};\n"
                        f"commit;"
                    )
        except BaseException as exc:  # noqa: BLE001 - reported to the timer
            failures.append(exc)

    threads = [
        threading.Thread(target=worker, args=(index,))
        for index in range(N_SESSIONS)
    ]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60.0)
    start = time.perf_counter()
    for thread in threads:
        thread.join(timeout=120.0)
    storm_seconds = time.perf_counter() - start
    assert not failures, failures

    drain_start = time.perf_counter()
    target = primary.amos.storage.snapshot_epoch
    converged = replica.wait_for_epoch(target, timeout=60.0)
    drain_seconds = time.perf_counter() - drain_start
    final_lag = replica.lag_epochs
    sampling.clear()
    sampler.join(timeout=5.0)

    stats = replica.stats()
    apply_hist = stats["histograms"].get("replica.apply_ms") or {}
    records = stats["counters"].get("replica.applied_records", 0)
    # the exactly-once check is against the primary's record count
    wal_records = primary.amos.wal.next_lsn
    equal_state = (
        replica.amos.snapshot_extensions()
        == primary.amos.snapshot_extensions()
    )
    replica.stop()
    primary.stop()
    return {
        "storm_seconds": storm_seconds,
        "commits": N_SESSIONS * COMMITS_PER_SESSION,
        "converged": converged,
        "equal_state": equal_state,
        "drain_seconds": drain_seconds,
        "final_lag": final_lag,
        "max_lag": max(lag_samples) if lag_samples else 0,
        "records": records,
        "wal_records": wal_records,
        "apply_ms": apply_hist,
        "apply_seconds": (apply_hist.get("sum") or 0.0) / 1000.0,
    }


# -- Phase B: aggregate read throughput, primary-only vs two replicas --------

def build_bootstrap():
    """Catalog of N_CATALOG items/suppliers plus N_RULES watch rules.

    The catalog is deliberately wide: the reader query evaluates the
    derived ``threshold`` function (a join against suppliers) for every
    item, so a single read costs real evaluator CPU and aggregate read
    throughput is bounded by server capacity, not client round-trips.
    """
    lines = [
        "create type item;",
        "create type supplier;",
        "create function quantity(item) -> integer;",
        "create function max_stock(item) -> integer;",
        "create function min_stock(item) -> integer;",
        "create function consume_freq(item) -> integer;",
        "create function supplies(supplier) -> item;",
        "create function delivery_time(item, supplier) -> integer;",
        "create function threshold(item i) -> integer as",
        "    select consume_freq(i) * delivery_time(i, s) + min_stock(i)",
        "    for each supplier s where supplies(s) = i;",
        "create item instances "
        + ", ".join(f":i{k}" for k in range(N_CATALOG))
        + ";",
        "create supplier instances "
        + ", ".join(f":s{k}" for k in range(N_CATALOG))
        + ";",
    ]
    for k in range(N_CATALOG):
        lines += [
            f"set supplies(:s{k}) = :i{k};",
            f"set delivery_time(:i{k}, :s{k}) = 2;",
            f"set min_stock(:i{k}) = 100;",
            f"set consume_freq(:i{k}) = 20;",
            f"set max_stock(:i{k}) = 5000;",
            f"set quantity(:i{k}) = 5000;",
        ]
    for index in range(N_RULES):
        lines += [
            f"create rule watch_{index}() as",
            f"    when for each item i "
            f"where quantity(i) < threshold(i) + {index}",
            "    do print_2(i, quantity(i));",
            f"activate watch_{index}();",
        ]
    return "\n".join(lines) + "\n"


BOOTSTRAP = build_bootstrap()

#: the measured read: evaluates the supplier join for every item
RO_QUERY = "select i, threshold(i) for each item i;"

READER = """
import sys, time
sys.path.insert(0, {src!r})
from repro.server.client import AmosClient

primary = (sys.argv[1], int(sys.argv[2]))
replicas = []
for spec in sys.argv[3].split(","):
    if spec:
        host, _, port = spec.rpartition(":")
        replicas.append((host, int(port)))
seconds = float(sys.argv[4])
query = sys.argv[5]

client = AmosClient(*primary, replicas=replicas, connect_retries=40)
client.connect()
client.query_ro(query)  # warm the route (dials replicas lazily)
count = 0
deadline = time.monotonic() + seconds
while time.monotonic() < deadline:
    client.query_ro(query)
    count += 1
client.close()
print(count, flush=True)
"""

WRITER = """
import sys, time
sys.path.insert(0, {src!r})
from repro.server.client import AmosClient

primary = (sys.argv[1], int(sys.argv[2]))
client = AmosClient(*primary, timeout=120.0, connect_retries=40)
client.connect()
rows = client.query("select i, quantity(i) for each item i")
for index, (item, _) in enumerate(rows):
    client.bind("w%d" % index, item)
step = 0
while True:  # runs until the benchmark terminates the process
    # one wide transaction per commit: every item changes, so the
    # primary's check phase differences the whole catalog against
    # every watch rule while the replica replays the same commit
    # beneath the rules for near-zero cost
    updates = "".join(
        "set quantity(:w%d) = %d;" % (index, 4990 + (step + index) % 9)
        for index in range(len(rows))
    )
    client.execute("begin;" + updates + "commit;")
    step += 1
"""

LISTENING = re.compile(r"listening on ([0-9.]+):(\d+)")


def spawn_server(script_path, *extra_args):
    """Start a CLI server/replica subprocess; return (proc, (host, port))."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "--serve",
            "127.0.0.1:0",
            *extra_args,
            script_path,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    deadline = time.monotonic() + 60.0
    for line in proc.stdout:
        match = LISTENING.search(line)
        if match:
            # keep draining stdout: a full pipe would block the server
            # the moment a rule action prints
            drain = threading.Thread(
                target=lambda: any(False for _ in proc.stdout), daemon=True
            )
            drain.start()
            return proc, (match.group(1), int(match.group(2)))
        if time.monotonic() > deadline:
            break
    proc.kill()
    raise AssertionError("server subprocess never reported its port")


def stop_proc(proc):
    proc.terminate()
    try:
        proc.wait(timeout=10.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10.0)


def measure_reads(primary_addr, replica_addrs):
    """Aggregate reads/sec of N_READERS processes over READ_SECONDS,
    while N_WRITERS writer *processes* load the primary.

    Writers are processes (not bench threads) so write issuance is not
    GIL-limited: the primary genuinely saturates on check phases, which
    is the regime where offloading reads to replicas matters."""
    writer_script = WRITER.format(src=os.path.join(REPO_ROOT, "src"))
    writers = [
        subprocess.Popen(
            [
                sys.executable,
                "-c",
                writer_script,
                primary_addr[0],
                str(primary_addr[1]),
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        for _ in range(N_WRITERS)
    ]
    try:
        time.sleep(1.5)  # the storm reaches steady state

        reader_script = READER.format(src=os.path.join(REPO_ROOT, "src"))
        spec = ",".join(f"{host}:{port}" for host, port in replica_addrs)
        readers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    reader_script,
                    primary_addr[0],
                    str(primary_addr[1]),
                    spec,
                    str(READ_SECONDS),
                    RO_QUERY,
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(N_READERS)
        ]
        total = 0
        for reader in readers:
            out, err = reader.communicate(timeout=READ_SECONDS * 40 + 120)
            assert reader.returncode == 0, err
            total += int(out.strip())
    finally:
        for writer in writers:
            writer.kill()
        for writer in writers:
            writer.wait(timeout=10.0)
    return total / READ_SECONDS


def drive_read_scaleout():
    script_path = os.path.join(
        tempfile.mkdtemp(prefix="bench-repl-boot-"), "bootstrap.amosql"
    )
    with open(script_path, "w") as handle:
        handle.write(BOOTSTRAP)

    wal_dir = tempfile.mkdtemp(prefix="bench-repl-pwal-")
    primary_proc, primary_addr = spawn_server(
        script_path, "--wal-dir", wal_dir
    )
    replicas = []
    try:
        baseline = max(
            measure_reads(primary_addr, []) for _ in range(REPEATS)
        )
        for index in range(2):
            rdir = tempfile.mkdtemp(prefix=f"bench-repl-rwal{index}-")
            replicas.append(
                spawn_server(
                    script_path,
                    "--replicate-from",
                    f"{primary_addr[0]}:{primary_addr[1]}",
                    "--wal-dir",
                    rdir,
                )
            )
        replica_addrs = [addr for _, addr in replicas]
        scaleout = max(
            measure_reads(primary_addr, replica_addrs)
            for _ in range(REPEATS)
        )
    finally:
        for proc, _ in replicas:
            stop_proc(proc)
        stop_proc(primary_proc)
    return baseline, scaleout


# -- the sweep ----------------------------------------------------------------


@pytest.fixture(scope="module")
def replication_bench():
    sweep = Sweep(
        "replication — lag under commit storm + read scale-out",
        x_label="nodes",
    )
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL)
    try:
        lag = drive_lag_storm()
    finally:
        sys.setswitchinterval(old_interval)
    sweep.add(
        Measurement("commits", 1, lag["storm_seconds"], lag["commits"])
    )
    if lag["records"] and lag["apply_seconds"]:
        sweep.add(
            Measurement("apply", 1, lag["apply_seconds"], lag["records"])
        )

    baseline, scaleout = drive_read_scaleout()
    sweep.add(Measurement("reads", 1, READ_SECONDS, int(baseline * READ_SECONDS)))
    sweep.add(Measurement("reads", 2, READ_SECONDS, int(scaleout * READ_SECONDS)))
    ratio = scaleout / baseline if baseline else float("inf")

    print()
    print(sweep.format_table())
    print(
        f"  lag: max={lag['max_lag']} epochs over the storm, "
        f"drain={lag['drain_seconds']:.2f}s, final={lag['final_lag']}"
    )
    print(
        f"  reads/sec: primary-only={baseline:.0f} "
        f"2 replicas={scaleout:.0f}  scale-out={ratio:.2f}x"
    )
    return sweep, lag, baseline, scaleout, ratio


class TestReplicationBench:
    def test_replica_lag_is_bounded(self, replication_bench):
        _sweep, lag, *_ = replication_bench
        assert lag["converged"], "replica never drained the storm backlog"
        assert lag["equal_state"], "replica diverged from the primary"
        assert lag["final_lag"] == 0
        assert lag["drain_seconds"] < DRAIN_BAR_SECONDS
        # every WAL record was applied exactly once
        assert lag["records"] == lag["wal_records"]
        assert lag["records"] > 0

    def test_reads_scale_out_across_replicas(self, replication_bench):
        _sweep, _lag, baseline, scaleout, ratio = replication_bench
        assert ratio >= SCALEOUT_BAR, (
            f"2-replica aggregate {scaleout:.0f} reads/s vs primary-only "
            f"{baseline:.0f} reads/s = {ratio:.2f}x (bar {SCALEOUT_BAR}x)"
        )

    def test_persists_artifact(self, replication_bench):
        sweep, lag, baseline, scaleout, ratio = replication_bench
        path = sweep.persist(
            "replication",
            meta={
                "storm_sessions": N_SESSIONS,
                "commits_per_session": COMMITS_PER_SESSION,
                "max_lag_epochs": lag["max_lag"],
                "drain_seconds": lag["drain_seconds"],
                "apply_ms": lag["apply_ms"],
                "readers": N_READERS,
                "read_writers": N_WRITERS,
                "read_seconds": READ_SECONDS,
                "reads_per_second": {
                    "primary_only": baseline,
                    "two_replicas": scaleout,
                },
                "read_scaleout": ratio,
            },
        )
        assert os.path.basename(path) == "BENCH_replication.json"
        with open(path) as handle:
            on_disk = json.load(handle)
        assert on_disk["x_label"] == "nodes"
        assert {row["series"] for row in on_disk["rows"]} >= {
            "commits",
            "reads",
        }
        assert on_disk["meta"]["read_scaleout"] >= SCALEOUT_BAR
