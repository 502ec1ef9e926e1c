"""Integration: the incremental and naive monitors are
observationally equivalent — same rule firings on the same transaction
streams.  This is the correctness claim behind the paper's performance
comparison: both implementations monitor the same semantics.
"""

import random

import pytest

from repro.bench.workload import build_inventory


def run_stream(mode: str, seed: int, n_items: int = 12, steps: int = 30):
    """Drive a random but reproducible transaction stream; return the
    observable history: ordered (amount) list + final quantities."""
    workload = build_inventory(n_items, mode=mode, seed=999)
    workload.activate()
    amos = workload.amos
    rng = random.Random(seed)
    for _ in range(steps):
        action = rng.randrange(4)
        item = workload.items[rng.randrange(n_items)]
        supplier = workload.suppliers[workload.items.index(item)]
        if action == 0:
            amos.set_value("quantity", (item,), rng.randrange(0, 400))
        elif action == 1:
            amos.set_value("consume_freq", (item,), rng.randrange(1, 60))
        elif action == 2:
            amos.set_value("delivery_time", (item, supplier), rng.randrange(1, 8))
        else:
            with amos.transaction():
                for other in rng.sample(workload.items, k=3):
                    amos.set_value("quantity", (other,), rng.randrange(0, 6000))
    quantities = sorted(
        (item.id, amos.value("quantity", item)) for item in workload.items
    )
    orders = [(item.id, amount) for item, amount in workload.orders]
    return orders, quantities


class TestObservationalEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_incremental_equals_naive(self, seed):
        assert run_stream("incremental", seed) == run_stream("naive", seed)


class TestSharedNetworkEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_node_sharing_gives_same_firings(self, seed):
        """Section 7.1: the bushy network (threshold kept as a shared
        node) must monitor exactly the same semantics as the flat one."""

        def run(shared):
            options = (
                {"shared_nodes": frozenset({"threshold"})} if shared else {}
            )
            workload = build_inventory(10, mode="incremental", seed=7, **options)
            workload.activate()
            rng = random.Random(seed)
            for _ in range(25):
                item = workload.items[rng.randrange(10)]
                supplier = workload.suppliers[workload.items.index(item)]
                if rng.random() < 0.5:
                    workload.amos.set_value(
                        "quantity", (item,), rng.randrange(0, 400)
                    )
                else:
                    workload.amos.set_value(
                        "delivery_time", (item, supplier), rng.randrange(1, 9)
                    )
            return [(item.id, amount) for item, amount in workload.orders]

        assert run(shared=True) == run(shared=False)

    def test_shared_network_has_intermediate_node(self):
        workload = build_inventory(
            3, mode="incremental", shared_nodes=frozenset({"threshold"})
        )
        workload.activate()
        network = workload.amos.rules.engine.network
        assert "threshold" in network.nodes
        assert network.node("threshold").level == 1
        assert network.node("cnd_monitor_items").level == 2
