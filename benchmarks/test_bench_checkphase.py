"""Check phase cost of the set-at-a-time engine.

Every partial differential executes as a compiled
:class:`ClausePlan` against two shared evaluators per run, with a
batched semi-join negative guard.  Three workload shapes:

* **steady** — Fig. 6's few-changes transaction (one quantity update,
  rule stays untriggered), the monitoring steady state where per-check
  constant cost is everything;
* **churn** — quantities flip below/above the threshold, so negative
  differentials produce deletion candidates and the guard actually
  runs;
* **massive** — Fig. 7's one transaction updating 3 functions of ALL
  items, where per-tuple overhead is multiplied by the delta size.

Only the *check phase* is timed: the monitoring engine's ``process``
entry point is wrapped with a perf_counter accumulator, so update
logging, transaction bookkeeping, and rule actions are excluded.  Each
cell takes the minimum over several trials (robust against scheduler
noise).  Full-transaction times land in the artifact ``meta`` for
context.

Persists ``BENCH_checkphase.json`` — the committed copy at the repo
root is the baseline CI's bench-regression job compares against
(see ``benchmarks/compare.py``).

Run:  pytest benchmarks/test_bench_checkphase.py -s
"""

import json
import os
import time

import pytest

from benchmarks.conftest import CheckPhaseTimer, best_of

from repro.bench.harness import Measurement, Sweep
from repro.bench.workload import build_inventory

SIZES = [100, 1000, 5000]
WARMUP = 50
STEADY_TXNS = 400
STEADY_TRIALS = 7
CHURN_TXNS = 150
CHURN_TRIALS = 5
CHURN_SIZE = 1000
MASSIVE_SIZE = 300
MASSIVE_TRIALS = 5


def build(n_items):
    workload = build_inventory(n_items, mode="incremental")
    workload.activate()
    return workload


def steady_cell(n_items):
    workload = build(n_items)
    for step in range(WARMUP):
        workload.touch_one_item(step)
    timer = CheckPhaseTimer(workload.amos.rules)
    counter = [WARMUP]

    def trial():
        timer.seconds = 0.0
        start = time.perf_counter()
        for _ in range(STEADY_TXNS):
            workload.touch_one_item(counter[0])
            counter[0] += 1
        return timer.seconds, time.perf_counter() - start

    check, total = best_of(STEADY_TRIALS, trial)
    return Measurement("batch", n_items, check, STEADY_TXNS), total / STEADY_TXNS


def churn_cell():
    """Threshold-crossing workload: every other transaction drives one
    item below its threshold (rule fires), the next restores it (a
    negative root delta — the guard path)."""
    workload = build(CHURN_SIZE)
    for step in range(10):
        workload.touch_one_item(step, below=(step % 2 == 0))
    timer = CheckPhaseTimer(workload.amos.rules)
    counter = [0]

    def trial():
        timer.seconds = 0.0
        start = time.perf_counter()
        for _ in range(CHURN_TXNS):
            step = counter[0]
            workload.touch_one_item(step, below=(step % 2 == 0))
            counter[0] += 1
        return timer.seconds, time.perf_counter() - start

    check, total = best_of(CHURN_TRIALS, trial)
    assert workload.orders, "churn workload must actually fire the rule"
    return (
        Measurement("batch-churn", CHURN_SIZE, check, CHURN_TXNS),
        total / CHURN_TXNS,
    )


def massive_cell():
    """Fig. 7's massive-update transaction (3 changed functions x all
    items) — one check phase driven by a size-O(n) delta."""
    workload = build(MASSIVE_SIZE)
    workload.massive_change()  # warm indexes and plan caches
    timer = CheckPhaseTimer(workload.amos.rules)

    def trial():
        timer.seconds = 0.0
        start = time.perf_counter()
        workload.massive_change()
        return timer.seconds, time.perf_counter() - start

    check, total = best_of(MASSIVE_TRIALS, trial)
    return Measurement("batch-massive", MASSIVE_SIZE, check, 1), total


@pytest.fixture(scope="module")
def sweep():
    result = Sweep("check phase — batch (compiled plans), ms/transaction")
    full_txn_ms = {}
    for n_items in SIZES:
        cell, full = steady_cell(n_items)
        result.add(cell)
        full_txn_ms[f"batch@{n_items}"] = full * 1000
    cell, full = churn_cell()
    result.add(cell)
    full_txn_ms[f"batch-churn@{CHURN_SIZE}"] = full * 1000
    cell, full = massive_cell()
    result.add(cell)
    full_txn_ms[f"batch-massive@{MASSIVE_SIZE}"] = full * 1000
    print()
    print(result.format_table())
    artifact = result.persist(
        "checkphase",
        meta={
            "warmup_transactions": WARMUP,
            "steady_transactions": STEADY_TXNS,
            "steady_trials": STEADY_TRIALS,
            "churn_transactions": CHURN_TXNS,
            "massive_items": MASSIVE_SIZE,
            "full_transaction_ms": full_txn_ms,
        },
    )
    print(f"wrote {artifact}")
    return result


class TestCheckPhase:
    def test_batch_stays_flat_in_database_size(self, sweep):
        """Fig. 6's claim must survive the batch engine: steady-state
        check cost independent of the database size."""
        costs = [cost for _, cost in sweep.series("batch")]
        assert max(costs) < 12 * min(costs), costs

    def test_persists_artifact(self, sweep):
        path = os.path.join(
            os.environ.get("REPRO_BENCH_DIR", os.path.join(os.path.dirname(__file__), "..")),
            "BENCH_checkphase.json",
        )
        assert os.path.exists(path)
        with open(path) as handle:
            on_disk = json.load(handle)
        series = {row["series"] for row in on_disk["rows"]}
        assert {"batch", "batch-churn", "batch-massive"} <= series
