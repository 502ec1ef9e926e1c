"""Write-ahead log: commit overhead with WAL on/off, recovery rate.

Two questions with machine-independent answers (docs/DURABILITY.md):

* **Commit overhead** — the WAL appends one framed record and fsyncs
  before the ack.  Against a rule-dense check phase (the paper's
  deferred condition monitoring is the dominant commit cost) the
  durable path must stay within ``OVERHEAD_BUDGET`` (25%) of the
  in-memory baseline; the acceptance bar of ISSUE 6 and the gated cell
  of ``benchmarks/compare.py``.
* **Recovery rate** — replaying committed Δ-sets beneath the rule
  machinery is raw set arithmetic, so recovering 10k commits must run
  orders of magnitude faster than executing them did.

The overhead is the median of ``REPEATS`` paired on/off ratios.  Each
repeat builds both sides and interleaves them in blocks of ``BLOCK``
commits, alternating which side runs first, so host drift lands on
both sides alike and no single lucky run decides the gate (a best-of
per series compares two different moments of the host).  The cells
report each side's median.  The recovery log is
produced with ``fsync=False`` — recovery time does not depend on how
durably the log was written, and 10k synchronous appends would just
slow the benchmark down.

Run:  pytest benchmarks/test_bench_wal.py -s
"""

import json
import os
import shutil
import statistics
import tempfile

import pytest

from repro.amosql.interpreter import AmosqlEngine
from repro.bench.harness import Measurement, Sweep, measure
from repro.bench.workload import build_inventory
from repro.storage.wal import recover

N_ITEMS = 24
N_RULES = 20  # extra activated rules: the check phase dominates commits
N_COMMITS = 60
UPDATES_PER_COMMIT = 6
REPEATS = 5
BLOCK = 6  # commits per side before the other side runs
OVERHEAD_BUDGET = 0.25  # WAL-on ms/commit <= 1.25x WAL-off

RECOVERY_COMMITS = 10_000
RECOVERY_ITEMS = 64


def build_rule_dense_workload():
    workload = build_inventory(N_ITEMS, seed=17)
    engine = AmosqlEngine(workload.amos)
    for index in range(N_RULES):
        engine.execute(
            f"""
            create rule wal_watch_{index}() as
                when for each item i
                where quantity(i) < threshold(i) + {index}
                do order(i, max_stock(i) - quantity(i));
            activate wal_watch_{index}();
            """
        )
    workload.activate()
    workload.amos.storage.auto_publish = True
    workload.amos.storage.publish_snapshot()
    return workload


def run_commits(workload, steps=range(N_COMMITS)):
    amos = workload.amos
    for step in steps:
        with amos.transaction():
            for offset in range(UPDATES_PER_COMMIT):
                index = (step + offset) % N_ITEMS
                quantity = 120 + step if step % 3 else 5000 - step
                amos.set_value("quantity", (workload.items[index],), quantity)


def drive_pair(wal_dir, repeat):
    """One paired run: a WAL-off and a WAL-on database, built alike,
    commit the same ``N_COMMITS`` transactions in alternating blocks of
    ``BLOCK`` commits (the side that goes first alternates per block
    and per repeat).  Returns ``({series: seconds}, wal stats)``."""
    import time

    workloads = {
        "wal_off": build_rule_dense_workload(),
        "wal_on": build_rule_dense_workload(),
    }
    workloads["wal_on"].amos.open_wal(wal_dir, fsync=True)
    elapsed = {"wal_off": 0.0, "wal_on": 0.0}
    for block, first in enumerate(range(0, N_COMMITS, BLOCK)):
        steps = range(first, min(first + BLOCK, N_COMMITS))
        order = ("wal_off", "wal_on") if (block + repeat) % 2 == 0 else ("wal_on", "wal_off")
        for series in order:
            start = time.perf_counter()
            run_commits(workloads[series], steps)
            elapsed[series] += time.perf_counter() - start
    stats = workloads["wal_on"].amos.wal.stats()
    workloads["wal_on"].amos.detach_wal()
    return elapsed, stats


@pytest.fixture(scope="module")
def overhead():
    sweep = Sweep(
        "write-ahead log — commit overhead and recovery", x_label="commits"
    )
    runs = {"wal_off": [], "wal_on": []}
    ratios = []
    wal_stats = None
    for repeat in range(REPEATS):
        wal_dir = tempfile.mkdtemp(prefix="repro-wal-bench-")
        try:
            elapsed, wal_stats = drive_pair(wal_dir, repeat)
        finally:
            shutil.rmtree(wal_dir, ignore_errors=True)
        for series, seconds in elapsed.items():
            runs[series].append(seconds)
        ratios.append(elapsed["wal_on"] / elapsed["wal_off"])
    median = {series: statistics.median(times) for series, times in runs.items()}
    for series in ("wal_on", "wal_off"):
        sweep.add(Measurement(series, N_COMMITS, median[series], N_COMMITS))
    ratio = statistics.median(ratios)
    print()
    print(sweep.format_table())
    print(
        f"  wal_off={median['wal_off'] / N_COMMITS * 1000:.3f} ms/commit  "
        f"wal_on={median['wal_on'] / N_COMMITS * 1000:.3f} ms/commit  "
        f"overhead={100 * (ratio - 1):.1f}% (median of paired ratios "
        f"{', '.join(f'{r:.3f}' for r in ratios)})"
    )
    return sweep, median, ratio, ratios, wal_stats


@pytest.fixture(scope="module")
def recovery():
    """Write RECOVERY_COMMITS commits, then time ``recover()``."""
    import time

    from repro.amos.database import AmosDatabase

    def bootstrap():
        amos = AmosDatabase()
        amos.create_type("item")
        amos.create_stored_function("quantity", ("item",), ("integer",))
        amos.storage.auto_publish = True
        amos.storage.publish_snapshot()
        return amos

    wal_dir = tempfile.mkdtemp(prefix="repro-wal-recovery-")
    try:
        amos = bootstrap()
        amos.open_wal(wal_dir, fsync=False)
        with amos.transaction():
            items = amos.create_objects("item", RECOVERY_ITEMS)
        write_start = time.perf_counter()
        for step in range(RECOVERY_COMMITS):
            with amos.transaction():
                amos.set_value(
                    "quantity", (items[step % RECOVERY_ITEMS],), step
                )
        write_seconds = time.perf_counter() - write_start
        amos.detach_wal()

        recover_start = time.perf_counter()
        recovered = recover(wal_dir, factory=bootstrap)
        recover_seconds = time.perf_counter() - recover_start
        report = recovered.wal.last_recovery
        recovered.detach_wal()
        assert report.commits == RECOVERY_COMMITS + 1  # + create_objects
        return write_seconds, recover_seconds, report
    finally:
        shutil.rmtree(wal_dir, ignore_errors=True)


class TestWalOverhead:
    def test_both_series_made_progress(self, overhead):
        sweep, _median, _ratio, _ratios, _stats = overhead
        for series in ("wal_off", "wal_on"):
            cell = sweep.cell(series, N_COMMITS)
            assert cell is not None
            assert cell.transactions == N_COMMITS
            assert cell.transactions_per_second > 1.0

    def test_every_commit_was_logged_and_synced(self, overhead):
        _sweep, _median, _ratio, _ratios, stats = overhead
        assert stats is not None
        assert stats["appended_records"] == N_COMMITS
        assert stats["appended_bytes"] > 0

    def test_wal_overhead_within_budget(self, overhead):
        _sweep, median, ratio, ratios, _stats = overhead
        assert ratio <= 1.0 + OVERHEAD_BUDGET, (
            f"WAL-on {median['wal_on'] / N_COMMITS * 1000:.3f} ms/commit vs "
            f"WAL-off {median['wal_off'] / N_COMMITS * 1000:.3f} ms/commit; "
            f"median paired ratio {ratio:.3f} of {ratios} = "
            f"{100 * (ratio - 1):.1f}% overhead "
            f"(budget {100 * OVERHEAD_BUDGET:.0f}%)"
        )


class TestWalRecovery:
    def test_recovery_is_much_faster_than_execution(self, recovery):
        write_seconds, recover_seconds, _report = recovery
        # replay skips the check phase entirely: raw set arithmetic
        assert recover_seconds < write_seconds

    def test_recovery_rate_at_ten_thousand_commits(self, recovery):
        _write, recover_seconds, report = recovery
        rate = report.commits / recover_seconds
        print(
            f"\n  recovered {report.commits} commits "
            f"({report.rows_applied} rows) in {recover_seconds:.3f}s "
            f"= {rate:.0f} commits/sec"
        )
        assert rate > 100  # generous floor; typical is thousands/sec


class TestArtifact:
    def test_persists_artifact_with_overhead_and_recovery(
        self, overhead, recovery
    ):
        sweep, _median, ratio, ratios, wal_stats = overhead
        write_seconds, recover_seconds, report = recovery
        sweep.add(
            Measurement(
                "recover", RECOVERY_COMMITS, recover_seconds, report.commits
            )
        )
        path = sweep.persist(
            "wal",
            meta={
                "items": N_ITEMS,
                "rules_active": N_RULES + 1,
                "updates_per_commit": UPDATES_PER_COMMIT,
                "repeats_paired": REPEATS,
                "overhead_ratio": ratio,
                "paired_ratios": ratios,
                "overhead_budget": OVERHEAD_BUDGET,
                "wal_bytes": wal_stats["appended_bytes"],
                "wal_segments": wal_stats["segments"],
                "recovery": {
                    "commits": report.commits,
                    "rows_applied": report.rows_applied,
                    "write_seconds": write_seconds,
                    "recover_seconds": recover_seconds,
                    "commits_per_second": report.commits / recover_seconds,
                },
            },
        )
        assert os.path.basename(path) == "BENCH_wal.json"
        with open(path) as handle:
            on_disk = json.load(handle)
        assert {row["series"] for row in on_disk["rows"]} == {
            "wal_off",
            "wal_on",
            "recover",
        }
        assert on_disk["meta"]["overhead_ratio"] <= 1.0 + OVERHEAD_BUDGET
