"""Sharded vs serial check phase: shards ∈ {1, 2, 4} at 5000 items.

The ISSUE-8 tentpole benchmark, re-shaped for the ISSUE-10 persistent
worker pool and the adaptive ``policy="auto"`` default.  All cells run
the DEFAULT policy — what a user gets from ``shards=N`` today — so the
series measure the adaptive router end to end:

* **massive** — Fig. 7's transaction updating 3 functions of ALL
  items: a size-O(n) delta that fans out (30 000 Δ rows clear the auto
  floor).  Acceptance: ``shards4-massive`` ≥ 1.5x the check-phase
  throughput of ``shards1-massive`` — asserted ONLY on hosts with ≥ 4
  CPUs (CI's runners); on narrower hosts the measurement still runs
  and lands in the artifact, where a speedup below 1 honestly shows
  the exchange overhead with no parallel propagation to pay for it.
* **churn** — threshold-crossing single-item transactions.  Tiny
  deltas route SERIAL under auto, so the sharded engine's cost must
  track the serial engine's: within ``SMALL_TXN_BAR`` (1.1x) at any
  shard count, on any host.  This is the ISSUE-10 small-transaction
  regression fix — under the old fork-per-phase design this cell paid
  ~9.6 ms/txn at shards=4 against 0.044 ms serial (the committed
  pre-pool baseline, recorded in the meta as the "before").
* **steady** — single-item updates that never cross the threshold (no
  rule fires, no cascade): the pure monitoring overhead floor, gated
  like churn.
* **churn-fanout** (shards=4, ``policy="fanout"`` pinned) —
  informational: what a small transaction costs when forced through
  the persistent pool (sync handshake + 2 wave exchanges, but NO
  per-commit fork).  The before/after against the fork-per-phase
  baseline shows what pool reuse alone bought.

Timing wraps the engine's ``process`` attribute
(:class:`benchmarks.conftest.CheckPhaseTimer`), so the sharded series
honestly include pool forking, replica sync, and both exchange
directions.

Persists ``BENCH_shardedcheck.json`` — the committed copy at the repo
root is the baseline CI's bench-regression job compares against
(``benchmarks/compare.py``; the ``shards1`` series gate
on regression, the speedup bar gates on ≥ 4-CPU hosts, and the
churn/steady small-transaction bars gate everywhere).

Run:  pytest benchmarks/test_bench_shardedcheck.py -s
"""

import json
import os
import time

import pytest

from benchmarks.conftest import CheckPhaseTimer, best_of

from repro.bench.harness import Measurement, Sweep
from repro.bench.workload import build_inventory

SIZE = 5000
SHARD_COUNTS = [1, 2, 4]
MASSIVE_TRIALS = 3
CHURN_TXNS = 60
#: small cells are noise-sensitive (tens of µs/txn): many interleaved
#: trials, best-of per rig (see SmallRig)
SMALL_TRIALS = 9
#: the parallel-speedup acceptance bar (ISSUE 8) and its host width
SPEEDUP_BAR = 1.5
MIN_CPUS_FOR_BAR = 4
#: the small-transaction acceptance bar (ISSUE 10): an auto-policy
#: sharded engine must cost within this factor of serial on tiny
#: commits, because they route serial and skip the pool entirely
SMALL_TXN_BAR = 1.1
#: the committed pre-pool (fork-per-check-phase) baseline for
#: shards4-churn, ms/txn — the "before" the pool + auto policy fix
FORK_PER_PHASE_CHURN_MS = 9.57


def build(shards, policy=None):
    options = {"shard_options": {"policy": policy}} if policy else {}
    workload = build_inventory(
        SIZE, mode="incremental", shards=shards, **options
    )
    workload.activate()
    return workload


def massive_cell(shards):
    workload = build(shards)
    workload.massive_change()  # warm indexes, plan caches, fork pool
    timer = CheckPhaseTimer(workload.amos.rules)

    def trial():
        timer.seconds = 0.0
        start = time.perf_counter()
        workload.massive_change()
        return timer.seconds, time.perf_counter() - start

    check, total = best_of(MASSIVE_TRIALS, trial)
    workload.amos.rules.engine.close_pool()
    return Measurement(f"shards{shards}-massive", SIZE, check, 1), total


class SmallRig:
    """One engine under small-transaction load, re-runnable per trial.

    The gated comparisons (shardsN vs shards1 at tens of µs/txn) are
    dominated by ambient host noise if each cell is measured in its own
    window — so :func:`small_cells` interleaves trials ACROSS rigs and
    each rig keeps the best of its own trials."""

    def __init__(self, series, shards, shape, policy=None):
        self.series = series
        self.shards = shards
        self.shape = shape
        self.workload = build(shards, policy=policy)
        for step in range(10):
            self.workload.touch_one_item(
                step, below=(shape == "churn" and step % 2 == 0)
            )
        self.timer = CheckPhaseTimer(self.workload.amos.rules)
        self.counter = 10
        self.best_check = self.best_total = float("inf")

    def trial(self):
        self.timer.seconds = 0.0
        start = time.perf_counter()
        for _ in range(CHURN_TXNS):
            below = self.shape == "churn" and self.counter % 2 == 0
            self.workload.touch_one_item(self.counter, below=below)
            self.counter += 1
        self.best_total = min(self.best_total, time.perf_counter() - start)
        self.best_check = min(self.best_check, self.timer.seconds)

    def finish(self):
        if self.shape == "churn":
            assert self.workload.orders, "churn must actually fire the rule"
        engine = self.workload.amos.rules.engine
        routing = None
        if self.shards > 1:
            routing = {
                "auto_serial": engine.pool_stats["auto_serial"],
                "auto_fanout": engine.pool_stats["auto_fanout"],
                "forks": engine.pool_stats["forks"],
                "reuse_hits": engine.pool_stats["reuse_hits"],
            }
            engine.close_pool()
        return (
            Measurement(self.series, SIZE, self.best_check, CHURN_TXNS),
            self.best_total / CHURN_TXNS,
            routing,
        )


def small_cells():
    """All churn/steady cells, trials interleaved across engines."""
    rigs = [
        SmallRig(f"shards{n}-{shape}", n, shape)
        for shape in ("churn", "steady")
        for n in SHARD_COUNTS
    ]
    rigs.append(SmallRig("shards4-churn-fanout", 4, "churn", policy="fanout"))
    for _ in range(SMALL_TRIALS):
        for rig in rigs:
            rig.trial()
    return [rig.finish() for rig in rigs]


@pytest.fixture(scope="module")
def sweep():
    result = Sweep(
        "check phase — serial (shards1) vs adaptive sharded, ms/transaction"
    )
    full_txn_ms = {}
    routing_meta = {}
    for shards in SHARD_COUNTS:
        cell, full = massive_cell(shards)
        result.add(cell)
        full_txn_ms[f"shards{shards}-massive@{SIZE}"] = full * 1000
    # churn/steady cells (incl. the pinned-fanout informational cell),
    # trials interleaved across the engines to cancel ambient noise
    for cell, full, routing in small_cells():
        result.add(cell)
        full_txn_ms[f"{cell.series}@{SIZE}"] = full * 1000
        if routing is not None:
            routing_meta[cell.series] = routing

    print()
    print(result.format_table())
    speedup = result.ratio("shards1-massive", "shards4-massive", SIZE)
    churn_ratio = result.ratio("shards4-churn", "shards1-churn", SIZE)
    steady_ratio = result.ratio("shards4-steady", "shards1-steady", SIZE)
    pooled_churn = result.cell("shards4-churn-fanout", SIZE)
    cpus = os.cpu_count() or 1
    print(
        f"  massive-change speedup shards4 over shards1 at {SIZE} items: "
        f"{speedup:.2f}x on {cpus} cpu(s)"
    )
    print(
        f"  small-txn overhead shards4/shards1: churn {churn_ratio:.2f}x, "
        f"steady {steady_ratio:.2f}x (bar {SMALL_TXN_BAR}x)"
    )
    print(
        f"  pooled (pinned-fanout) churn: "
        f"{pooled_churn.seconds_per_transaction * 1000:.3f} ms/txn vs "
        f"{FORK_PER_PHASE_CHURN_MS} ms/txn fork-per-phase before"
    )
    artifact = result.persist(
        "shardedcheck",
        meta={
            "cpus": cpus,
            "massive_trials": MASSIVE_TRIALS,
            "small_trials": SMALL_TRIALS,
            "churn_transactions": CHURN_TXNS,
            "full_transaction_ms": full_txn_ms,
            "speedup_shards4_massive": speedup,
            "speedup_bar": SPEEDUP_BAR,
            "speedup_bar_min_cpus": MIN_CPUS_FOR_BAR,
            "small_txn_bar": SMALL_TXN_BAR,
            "small_txn_ratio_churn": churn_ratio,
            "small_txn_ratio_steady": steady_ratio,
            "auto_routing": routing_meta,
            # the ISSUE-10 before/after record: fork-per-phase churn
            # (the committed pre-pool baseline) vs the persistent pool
            "churn_ms_before_fork_per_phase": FORK_PER_PHASE_CHURN_MS,
            "churn_ms_after_pooled_fanout": pooled_churn.seconds_per_transaction * 1000,
            "churn_ms_after_auto": result.cell(
                "shards4-churn", SIZE
            ).seconds_per_transaction * 1000,
        },
    )
    print(f"wrote {artifact}")
    return result


class TestShardedCheckPhase:
    def test_shards4_speedup_on_wide_hosts(self, sweep):
        """The acceptance cell: ≥ 1.5x massive-change check-phase
        throughput at 4 shards — only meaningful with ≥ 4 CPUs to
        propagate on (CI's runners); narrower hosts measure and record
        but cannot assert parallel speedup they physically lack."""
        ratio = sweep.ratio("shards1-massive", "shards4-massive", SIZE)
        assert ratio is not None and ratio > 0
        if (os.cpu_count() or 1) >= MIN_CPUS_FOR_BAR:
            assert ratio >= SPEEDUP_BAR, ratio

    def test_every_cell_measured(self, sweep):
        names = {m.series for m in sweep.measurements}
        expected = {
            f"shards{n}-{shape}"
            for n in SHARD_COUNTS
            for shape in ("massive", "churn", "steady")
        }
        expected.add("shards4-churn-fanout")
        assert names == expected

    @pytest.mark.parametrize("shape", ["churn", "steady"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_small_transactions_stay_within_the_bar(self, sweep, shards, shape):
        """The ISSUE-10 regression fix: tiny commits route serial
        under the auto policy, so a sharded engine costs within 1.1x
        of serial — on ANY host, because no parallelism is involved.
        (Under fork-per-phase this ratio was >200x at shards=4.)"""
        ratio = sweep.ratio(f"shards{shards}-{shape}", f"shards1-{shape}", SIZE)
        assert ratio is not None
        assert ratio <= SMALL_TXN_BAR, (
            f"shards{shards}-{shape} is {ratio:.2f}x serial "
            f"(bar {SMALL_TXN_BAR}x)"
        )

    def test_auto_routed_every_small_commit_serial(self, sweep):
        """The routing accounting proves the ratio above is the auto
        policy at work, not luck: every churn/steady phase at shards>1
        was routed serial and the pool never forked."""
        # sweep.meta isn't exposed; re-read the artifact
        path = os.path.join(
            os.environ.get(
                "REPRO_BENCH_DIR",
                os.path.join(os.path.dirname(__file__), ".."),
            ),
            "BENCH_shardedcheck.json",
        )
        with open(path) as handle:
            meta = json.load(handle)["meta"]
        for series, routing in meta["auto_routing"].items():
            if series.endswith("-fanout"):
                assert routing["auto_fanout"] > 0, series
                assert routing["forks"] > 0, series
            else:
                assert routing["auto_fanout"] == 0, series
                assert routing["forks"] == 0, series

    def test_pooled_churn_beats_fork_per_phase(self, sweep):
        """Pool reuse alone (before the auto policy even helps): a
        small commit forced through the pool must still beat the old
        fork-per-check-phase cost, which paid ~two forks per commit."""
        cell = sweep.cell("shards4-churn-fanout", SIZE)
        assert cell.seconds_per_transaction * 1000 < FORK_PER_PHASE_CHURN_MS, cell

    def test_persists_artifact(self, sweep):
        path = os.path.join(
            os.environ.get(
                "REPRO_BENCH_DIR",
                os.path.join(os.path.dirname(__file__), ".."),
            ),
            "BENCH_shardedcheck.json",
        )
        assert os.path.exists(path)
        with open(path) as handle:
            on_disk = json.load(handle)
        assert on_disk["meta"]["cpus"] >= 1
        assert on_disk["meta"]["small_txn_bar"] == SMALL_TXN_BAR
        series = {row["series"] for row in on_disk["rows"]}
        assert {
            "shards1-massive", "shards4-massive", "shards1-churn",
            "shards4-churn", "shards4-steady", "shards4-churn-fanout",
        } <= series
