"""Space — the wave-front claim (paper sections 1, 4, 5).

    "Space optimization is achieved since the calculus and the
    algorithm does not presuppose materialization of monitored
    conditions to find its previous state ... The algorithm reduces
    memory utilization by only temporarily saving the intermediate
    changes appearing during the propagation."

We read the propagator's own metrics and count resident tuples:

* **incremental**: the peak number of delta-set tuples alive at any
  point of a check phase (the wave front, the
  ``propagation.wavefront_peak`` gauge), the rows discarded once the
  wave front passed (``propagation.discarded_rows``), plus what
  survives between transactions (must be zero);
* **naive baseline**: the materialized previous condition results it
  must keep *permanently* between transactions.

For single-item transactions over n items the wave front is O(1)
while the naive monitor's materialization grows with the number of
currently-true condition rows; and after every check phase the
incremental engine retains nothing.

Run:  pytest benchmarks/test_bench_space_wavefront.py --benchmark-only -s
"""

import pytest

from repro.bench.workload import build_inventory
from repro.obs import metrics

SIZES = [100, 1000]


def wavefront_peak(workload, transactions=10):
    """Max delta tuples resident across the network during commits, and
    the rows discarded behind the wave front, from the metrics
    registry the propagator reports into."""
    with metrics.collecting() as registry:
        for step in range(transactions):
            # drive items below threshold so condition rows exist
            workload.touch_one_item(step, below=(step % 2 == 0))
    peak = registry.gauges()["propagation.wavefront_peak"]["max"]
    return peak, registry.value("propagation.discarded_rows")


def naive_materialization(workload, transactions=10):
    """Tuples the naive engine keeps materialized between transactions."""
    engine = workload.amos.rules.engine
    for step in range(transactions):
        workload.touch_one_item(step, below=(step % 2 == 0))
    return sum(len(rows) for rows in engine._previous.values())


@pytest.fixture(scope="module")
def measurements():
    out = {}
    for n_items in SIZES:
        incremental = build_inventory(n_items, mode="incremental")
        incremental.activate()
        naive = build_inventory(n_items, mode="naive")
        naive.activate()
        transactions = min(n_items, 10)
        peak, discarded = wavefront_peak(incremental, transactions)
        out[n_items] = {
            "wavefront_peak": peak,
            "discarded": discarded,
            "retained_after": sum(
                len(node.delta.plus) + len(node.delta.minus)
                for node in incremental.amos.rules.engine.network.nodes.values()
            ),
            "naive_materialized": naive_materialization(naive, transactions),
        }
    print("\nSpace — wave-front vs materialization (resident tuples)")
    print(f"{'items':>8} {'wavefront peak':>15} {'discarded':>10} "
          f"{'retained after':>15} {'naive materialized':>19}")
    for n_items, cells in out.items():
        print(f"{n_items:>8} {cells['wavefront_peak']:>15} "
              f"{cells['discarded']:>10} {cells['retained_after']:>15} "
              f"{cells['naive_materialized']:>19}")
    return out


class TestSpaceClaims:
    def test_wavefront_is_constant_in_database_size(self, measurements, benchmark):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        peaks = [cells["wavefront_peak"] for cells in measurements.values()]
        assert max(peaks) <= 8, peaks  # a handful of tuples, any size

    def test_nothing_retained_between_transactions(self, measurements, benchmark):
        """The Δ-sets are discarded as the propagation proceeds upwards."""
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for cells in measurements.values():
            assert cells["retained_after"] == 0

    def test_naive_materialization_exists_and_grows_with_truth_set(
        self, measurements, benchmark
    ):
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        sizes = [cells["naive_materialized"] for cells in measurements.values()]
        assert all(size > 0 for size in sizes), sizes
