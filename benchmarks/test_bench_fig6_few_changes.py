"""Fig. 6 — few changes to one partial differential (paper section 6.1).

The paper's headline experiment: 100 transactions, each changing the
quantity of ONE item, over databases of 1..10000 items.  Expected
shape:

* **incremental** (partial differencing): per-transaction cost
  independent of the database size — only
  ``delta(cnd_monitor_items)/delta(quantity)`` executes, driven by a
  one-tuple delta-set through index probes;
* **naive**: per-transaction cost linear in the database size — the
  whole condition is recomputed, scanning every item.

We run the same workload (scaled to 20 transactions per cell to keep
wall-clock sane on CPython) and assert the shape: the naive cost grows
by orders of magnitude across the sweep while the incremental cost
stays within a small constant band.

Both engines run compiled plans, so a naive recompute costs a fixed
transaction (≈ 45 µs) plus well under a microsecond per item.  The
gates are therefore stated where they measure the algorithm, not that
fixed cost: growth and the at-scale ratio at 5000 items, and the
crossover between 1 item (naive wins) and 100 items (naive loses).

Run:  pytest benchmarks/test_bench_fig6_few_changes.py --benchmark-only -s
"""

import pytest

from repro.bench.harness import Sweep, fit_linear, measure
from repro.bench.workload import build_inventory

TRANSACTIONS = 20
SIZES_BOTH = [1, 10, 100, 1000, 5000]
SIZES_INCREMENTAL_ONLY = [10000]


def run_transactions(workload, transactions=TRANSACTIONS):
    for step in range(transactions):
        workload.touch_one_item(step)


def one_cell(mode, n_items):
    workload = build_inventory(n_items, mode=mode)
    workload.activate()
    run_transactions(workload, 2)  # warm caches/indexes
    return workload


@pytest.fixture(scope="module")
def sweep():
    """Measure the full figure once; individual tests assert on it."""
    result = Sweep("Fig. 6 — 100 txns, 1 quantity change each (ms/transaction)")
    for n_items in SIZES_BOTH + SIZES_INCREMENTAL_ONLY:
        workload = one_cell("incremental", n_items)
        result.add(
            measure(
                "incremental",
                n_items,
                lambda w=workload: run_transactions(w),
                transactions=TRANSACTIONS,
            )
        )
    for n_items in SIZES_BOTH:
        workload = one_cell("naive", n_items)
        result.add(
            measure(
                "naive",
                n_items,
                lambda w=workload: run_transactions(w),
                transactions=TRANSACTIONS,
            )
        )
    print()
    print(result.format_table())
    artifact = result.persist(
        "fig6", meta={"transactions_per_cell": TRANSACTIONS}
    )
    print(f"wrote {artifact}")
    return result


class TestFig6Shape:
    def test_naive_is_linear_in_database_size(self, sweep, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        naive = sweep.series("naive")
        slope, _ = fit_linear(naive)
        assert slope > 0, "naive cost must grow with the database"
        # growing 1 -> 5000 items must cost at least 20x per transaction
        first, last = naive[0][1], naive[-1][1]
        assert last > 20 * first, (first, last)

    def test_incremental_is_flat_in_database_size(self, sweep, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        incremental = sweep.series("incremental")
        costs = [cost for _, cost in incremental]
        # 1 item .. 10000 items: within a small constant band (the paper:
        # "independent of the size of the database in most cases")
        assert max(costs) < 12 * min(costs), costs

    def test_incremental_beats_naive_at_scale(self, sweep, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        ratio = sweep.ratio("naive", "incremental", 5000)
        assert ratio is not None and ratio > 20, ratio

    def test_crossover_is_at_tiny_databases(self, sweep, benchmark):
        """Naive can only compete when the database is about as small as
        the delta itself: the crossover lies between 1 and 100 items."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        ratio = sweep.ratio("naive", "incremental", 100)
        assert ratio is not None and ratio > 1, ratio


class TestFig6Timings:
    """pytest-benchmark entries for the two headline cells."""

    @pytest.mark.parametrize("mode", ["incremental", "naive"])
    def test_single_transaction_at_1000_items(self, benchmark, mode):
        workload = one_cell(mode, 1000)
        counter = [0]

        def one_transaction():
            workload.touch_one_item(counter[0])
            counter[0] += 1

        benchmark.pedantic(one_transaction, rounds=10, iterations=1)

    def test_incremental_single_transaction_at_10000_items(self, benchmark):
        workload = one_cell("incremental", 10000)
        counter = [0]

        def one_transaction():
            workload.touch_one_item(counter[0])
            counter[0] += 1

        benchmark.pedantic(one_transaction, rounds=10, iterations=1)
