"""Join kernels: WCOJ (leapfrog over tries) vs the pairwise probe chain.

The ISSUE-9 tentpole benchmark.  Both engines run identical partial
differencing with compiled batch plans; the A/B flips only the plan
compiler's ``wcoj`` cost selection (and with it the trie indexes the
kernel reads).  The workload is the intermediate-result blowup the
kernel exists for (see :class:`repro.bench.workload.MultiwayWorkload`):

    r(x, y) ∧ big(y, z) ∧ small(x, z) ∧ val(z) < 0

* **massive** — one transaction inserts ``SLICE_SIZE`` fresh ``r`` rows
  (a previously untouched source slice, so deltas are plus-only and
  previously unseen).  The pairwise
  chain enumerates ``fanout(big)`` intermediate bindings per delta row;
  the kernel intersects ``big(y,·) ∩ small(x,·) ∩ val`` per level.
* **churn** — the same slice's rows toggled in and out, wave after
  wave: plus waves re-run the new-state join, minus waves the
  old-state one over tries patched by the wave's delta (kernel vs
  chain both ways).  The gate: a churn wave costs at most
  ``CHURN_BOUND`` x a massive insert wave at the same size.

Only the check phase is timed (``CheckPhaseTimer``); each cell is the
minimum over trials.  Persists ``BENCH_joinkernel.json`` — the
committed copy at the repo root is CI's baseline
(``benchmarks/compare.py``).

Run:  pytest benchmarks/test_bench_joinkernel.py -s
"""

import json
import os
import time

import pytest

from benchmarks.conftest import CheckPhaseTimer, best_of

from repro.bench.harness import Measurement, Sweep
from repro.bench.workload import build_multiway

SIZES = [1000, 5000]
ASSERT_SIZE = 5000  # the acceptance cell: >= 2x at 5000 spokes
SLICE_SIZE = 100  # delta rows per massive transaction
MASSIVE_WARMUP_SLICES = 1
MASSIVE_TRIALS = 5
CHURN_SIZE = 5000
CHURN_WAVES = 6  # toggle rounds per trial (half plus, half minus)
CHURN_TRIALS = 3
CHURN_BOUND = 3.0  # wcoj-churn may cost at most 3x wcoj at CHURN_SIZE

ENGINES = {"pairwise": False, "wcoj": True}


def build(n_spokes, n_slices, wcoj):
    workload = build_multiway(
        n_spokes, n_slices, SLICE_SIZE, mode="incremental", wcoj=wcoj
    )
    workload.activate()
    return workload


def massive_cell(series, n_spokes, wcoj):
    """Fresh-slice insert transactions: every trial's delta rows are
    previously unseen, so no cache masks the join on either side."""
    n_slices = MASSIVE_WARMUP_SLICES + MASSIVE_TRIALS
    workload = build(n_spokes, n_slices, wcoj)
    for warm in range(MASSIVE_WARMUP_SLICES):
        workload.massive_join_txn(warm)  # build tries, warm plan caches
    timer = CheckPhaseTimer(workload.amos.rules)
    cursor = [MASSIVE_WARMUP_SLICES]

    def trial():
        timer.seconds = 0.0
        start = time.perf_counter()
        workload.massive_join_txn(cursor[0])
        cursor[0] += 1
        return timer.seconds, time.perf_counter() - start

    check, total = best_of(MASSIVE_TRIALS, trial)
    assert not workload.flagged, "the monitored rule must never fire"
    return Measurement(series, n_spokes, check, 1), total


def churn_cell(series, wcoj):
    """Slice 0 toggled out and back in, CHURN_WAVES transactions per
    trial — the re-join/old-state-guard steady state."""
    workload = build(CHURN_SIZE, 1, wcoj)
    workload.massive_join_txn(0)
    workload.churn_txn(0, present=False)
    workload.churn_txn(0, present=True)  # warm both wave directions
    timer = CheckPhaseTimer(workload.amos.rules)

    def trial():
        timer.seconds = 0.0
        start = time.perf_counter()
        for wave in range(CHURN_WAVES):
            workload.churn_txn(0, present=(wave % 2 == 0))
        return timer.seconds, time.perf_counter() - start

    check, total = best_of(CHURN_TRIALS, trial)
    assert not workload.flagged
    return (
        Measurement(f"{series}-churn", CHURN_SIZE, check, CHURN_WAVES),
        total / CHURN_WAVES,
    )


@pytest.fixture(scope="module")
def sweep():
    result = Sweep(
        "join kernels — pairwise probe chain vs WCOJ trie kernel, "
        "ms/check-phase"
    )
    full_txn_ms = {}
    for series, wcoj in ENGINES.items():
        for n_spokes in SIZES:
            cell, full = massive_cell(series, n_spokes, wcoj)
            result.add(cell)
            full_txn_ms[f"{series}@{n_spokes}"] = full * 1000
        cell, full = churn_cell(series, wcoj)
        result.add(cell)
        full_txn_ms[f"{series}-churn@{CHURN_SIZE}"] = full * 1000
    print()
    print(result.format_table())
    speedup = result.ratio("pairwise", "wcoj", ASSERT_SIZE)
    print(f"  massive-join speedup at {ASSERT_SIZE} spokes: {speedup:.2f}x")
    artifact = result.persist(
        "joinkernel",
        meta={
            "slice_size": SLICE_SIZE,
            "massive_trials": MASSIVE_TRIALS,
            "churn_waves": CHURN_WAVES,
            "full_transaction_ms": full_txn_ms,
            "speedup_at_%d" % ASSERT_SIZE: speedup,
        },
    )
    print(f"wrote {artifact}")
    return result


class TestJoinKernel:
    def test_wcoj_is_at_least_2x_at_5000(self, sweep):
        """The acceptance cell: the kernel must at least halve the
        multi-way massive check phase at 5000 spokes (measured far
        higher — the pairwise chain's intermediates scale with the big
        fan-out, the kernel's with the small one)."""
        ratio = sweep.ratio("pairwise", "wcoj", ASSERT_SIZE)
        assert ratio is not None and ratio >= 2.0, ratio

    def test_wcoj_wins_at_every_size(self, sweep):
        for n_spokes in SIZES:
            ratio = sweep.ratio("pairwise", "wcoj", n_spokes)
            assert ratio is not None and ratio > 1.0, (n_spokes, ratio)

    def test_kernel_cost_tracks_small_side(self, sweep):
        """The kernel's per-check cost must stay roughly flat as spokes
        (and with them the big fan-out) grow: its work is bounded by
        the small side of each intersection."""
        costs = [cost for _, cost in sweep.series("wcoj")]
        assert max(costs) < 12 * min(costs), costs

    def test_churn_parity(self, sweep):
        """Retracting a slice costs about what inserting one does: the
        old-state kernel reads the live tries patched on the delta's
        paths, so churn stays within ``CHURN_BOUND`` of the massive
        insert cell rather than falling back to the pairwise chain."""
        churn = sweep.cell("wcoj-churn", CHURN_SIZE).seconds_per_transaction
        massive = sweep.cell("wcoj", CHURN_SIZE).seconds_per_transaction
        assert churn <= CHURN_BOUND * massive, (churn, massive)

    def test_persists_artifact(self, sweep):
        path = os.path.join(
            os.environ.get(
                "REPRO_BENCH_DIR",
                os.path.join(os.path.dirname(__file__), ".."),
            ),
            "BENCH_joinkernel.json",
        )
        assert os.path.exists(path)
        with open(path) as handle:
            on_disk = json.load(handle)
        assert on_disk["meta"]["speedup_at_%d" % ASSERT_SIZE] >= 2.0
        series = {row["series"] for row in on_disk["rows"]}
        assert {"wcoj", "pairwise", "wcoj-churn", "pairwise-churn"} <= series
