"""Workload generators for the paper's performance study (section 6).

The benchmarks monitor the ``monitor_items`` rule over an inventory
database of ``n`` items, each with one supplier — exactly the schema of
the running example.  For benchmark speed the database is built through
the programmatic AMOS API (the AMOSQL path is exercised by tests and
examples); the resulting catalog is identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.amos.database import AmosDatabase
from repro.amos.oid import OID
from repro.amosql.interpreter import AmosqlEngine

__all__ = [
    "InventoryWorkload",
    "build_inventory",
    "INVENTORY_SCHEMA_AMOSQL",
    "MultiwayWorkload",
    "build_multiway",
]

#: the paper's schema, as an executable AMOSQL script (used by examples)
INVENTORY_SCHEMA_AMOSQL = """
create type item;
create type supplier;
create function quantity(item) -> integer;
create function max_stock(item) -> integer;
create function min_stock(item) -> integer;
create function consume_freq(item) -> integer;
create function supplies(supplier) -> item;
create function delivery_time(item, supplier) -> integer;
create function threshold(item i) -> integer as
    select consume_freq(i) * delivery_time(i, s) + min_stock(i)
    for each supplier s where supplies(s) = i;
create rule monitor_items() as
    when for each item i where quantity(i) < threshold(i)
    do order(i, max_stock(i) - quantity(i));
"""


@dataclass
class InventoryWorkload:
    """A populated inventory database with the ``monitor_items`` rule.

    Attributes
    ----------
    amos:
        The database (rule already created, NOT yet activated).
    items / suppliers:
        The created objects, index-aligned (supplier ``k`` supplies
        item ``k``).
    orders:
        Every ``order(item, amount)`` the rule action performed.
    """

    amos: AmosDatabase
    items: List[OID]
    suppliers: List[OID]
    orders: List[Tuple[OID, int]] = field(default_factory=list)

    def activate(self) -> None:
        self.amos.activate("monitor_items")

    def deactivate(self) -> None:
        self.amos.deactivate("monitor_items")

    # -- update helpers (one transaction each) ----------------------------------

    def set_quantity(self, item: OID, value: int) -> None:
        self.amos.set_value("quantity", (item,), value)

    def threshold_of(self, item: OID) -> int:
        value = self.amos.value("threshold", item)
        assert value is not None
        return value

    def touch_one_item(self, index: int, below: bool = False) -> None:
        """The Fig. 6 transaction: change the quantity of ONE item.

        With ``below=False`` the new quantity stays above the threshold
        (the rule stays untriggered, matching a monitoring steady
        state); ``below=True`` drives it under and fires the rule.
        """
        item = self.items[index % len(self.items)]
        threshold = 100 + 20 * 2  # constant by construction (see build)
        current = self.amos.value("quantity", item)
        if below:
            new_value = threshold - 1
        else:
            # alternate between two above-threshold values so the update
            # is never a no-op
            new_value = 5000 if current != 5000 else 4999
        self.set_quantity(item, new_value)

    def massive_change(self, quantity_delta: int = -1) -> None:
        """The Fig. 7 transaction: one transaction changing the
        quantity, the delivery time, and the consume frequency of ALL
        items (3 of the 5 partial differentials)."""
        with self.amos.transaction():
            for index, item in enumerate(self.items):
                supplier = self.suppliers[index]
                quantity = self.amos.value("quantity", item)
                delivery = self.amos.value("delivery_time", item, supplier)
                frequency = self.amos.value("consume_freq", item)
                self.amos.set_value("quantity", (item,), quantity + quantity_delta)
                self.amos.set_value(
                    "delivery_time", (item, supplier), delivery % 5 + 1
                )
                self.amos.set_value("consume_freq", (item,), frequency % 40 + 1)


@dataclass
class MultiwayWorkload:
    """A hub-skewed multi-way-join database for the WCOJ benchmark.

    The monitored condition is the classic intermediate-result blowup:

        r(x, y) ∧ big(y, z) ∧ small(x, z) ∧ val(z) < 0

    ``big`` fans every hub ``y`` out to hundreds of spokes ``z``;
    ``small`` gives every source ``x`` just a couple of spokes.  A
    transaction inserting ``r(x, y)`` rows therefore hands the pairwise
    chain |Δr| x fanout(big) intermediate bindings, while the WCOJ
    kernel intersects ``big(y,·) ∩ small(x,·)`` per seed — O(min), i.e.
    O(|small(x,·)|).  ``val(z)`` is always non-negative, so the rule
    never fires and the timing stays pure check phase.

    Sources are pre-created in disjoint *slices*: each massive
    transaction touches a fresh slice, so every delta row is plus-only
    and previously unseen (no cache helps either side of the A/B — the
    measured difference is the kernel).
    """

    amos: AmosDatabase
    hubs: List[OID]
    spokes: List[OID]
    slices: List[List[Tuple[OID, OID]]]  # per slice: (source, its hub)
    fanout_big: int
    fanout_small: int
    flagged: List[OID] = field(default_factory=list)

    def activate(self) -> None:
        self.amos.activate("monitor_multiway")

    def deactivate(self) -> None:
        self.amos.deactivate("monitor_multiway")

    def massive_join_txn(self, slice_index: int) -> None:
        """One transaction inserting r(x, hub) for a whole fresh slice."""
        with self.amos.transaction():
            for source, hub in self.slices[slice_index]:
                self.amos.set_value("r", (source, hub), 1)

    def churn_txn(self, slice_index: int, present: bool) -> None:
        """Toggle the slice's r rows: re-assert or retract them all."""
        with self.amos.transaction():
            for source, hub in self.slices[slice_index]:
                if present:
                    self.amos.set_value("r", (source, hub), 1)
                else:
                    self.amos.clear_value("r", (source, hub))


def build_multiway(
    n_spokes: int,
    n_slices: int,
    slice_size: int,
    fanout_big: int = 250,
    fanout_small: int = 2,
    mode: str = "incremental",
    seed: int = 42,
    **amos_options,
) -> MultiwayWorkload:
    """Build the multi-way-join database at ``n_spokes`` scale.

    ``n_spokes`` spoke nodes carry ``val``; hubs (one per ``fanout_big``
    spokes) fan out through ``big``; ``n_slices * slice_size`` source
    nodes each get ``fanout_small`` random ``small`` edges.  The rule is
    created but NOT activated.
    """
    amos = AmosDatabase(mode=mode, **amos_options)
    flagged: List[OID] = []
    amos.create_type("node")
    amos.create_stored_function("r", ["node", "node"], ["integer"])
    amos.create_stored_function("big", ["node", "node"], ["integer"])
    amos.create_stored_function("small", ["node", "node"], ["integer"])
    amos.create_stored_function("val", ["node"], ["integer"])
    amos.create_procedure("flag", ("node",), flagged.append)

    engine = AmosqlEngine(amos)
    engine.execute(
        """
        create rule monitor_multiway() as
            when for each node x, node y, node z
            where r(x, y) = 1 and big(y, z) = 1 and small(x, z) = 1
                  and val(z) < 0
            do flag(x);
        """
    )

    rng = random.Random(seed)
    n_hubs = max(1, n_spokes // fanout_big)
    hubs: List[OID] = []
    spokes: List[OID] = []
    slices: List[List[Tuple[OID, OID]]] = []
    with amos.transaction():
        for _ in range(n_spokes):
            spoke = amos.create_object("node")
            amos.set_value("val", (spoke,), 1)
            spokes.append(spoke)
        for hub_index in range(n_hubs):
            hub = amos.create_object("node")
            hubs.append(hub)
            # hub h covers a contiguous window of spokes (full coverage,
            # evenly skewed: every hub has ~fanout_big big-edges)
            start = (hub_index * n_spokes) // n_hubs
            stop = ((hub_index + 1) * n_spokes) // n_hubs
            for spoke in spokes[start:stop]:
                amos.set_value("big", (hub, spoke), 1)
        for _ in range(n_slices):
            chunk: List[Tuple[OID, OID]] = []
            for _ in range(slice_size):
                source = amos.create_object("node")
                for spoke in rng.sample(spokes, fanout_small):
                    amos.set_value("small", (source, spoke), 1)
                chunk.append((source, rng.choice(hubs)))
            slices.append(chunk)

    return MultiwayWorkload(
        amos, hubs, spokes, slices, fanout_big, fanout_small, flagged
    )


def build_inventory(
    n_items: int,
    mode: str = "incremental",
    seed: int = 42,
    quantity: int = 5000,
    explain: bool = False,
    **amos_options,
) -> InventoryWorkload:
    """Build the paper's inventory database with ``n_items`` items.

    Every item gets ``min_stock=100``, ``consume_freq=20``, one supplier
    with ``delivery_time=2`` — so every threshold is 140 (as for the
    paper's ``:item1``) and triggering is fully controllable.  Initial
    quantities sit well above the threshold.
    """
    amos = AmosDatabase(mode=mode, explain=explain, **amos_options)
    workload_orders: List[Tuple[OID, int]] = []
    amos.create_type("item")
    amos.create_type("supplier")
    amos.create_stored_function("quantity", ["item"], ["integer"])
    amos.create_stored_function("max_stock", ["item"], ["integer"])
    amos.create_stored_function("min_stock", ["item"], ["integer"])
    amos.create_stored_function("consume_freq", ["item"], ["integer"])
    amos.create_stored_function("supplies", ["supplier"], ["item"])
    amos.create_stored_function("delivery_time", ["item", "supplier"], ["integer"])
    amos.create_procedure(
        "order",
        ("item", "integer"),
        lambda item, amount: workload_orders.append((item, amount)),
    )

    engine = AmosqlEngine(amos)
    engine.execute(
        """
        create function threshold(item i) -> integer as
            select consume_freq(i) * delivery_time(i, s) + min_stock(i)
            for each supplier s where supplies(s) = i;
        create rule monitor_items() as
            when for each item i where quantity(i) < threshold(i)
            do order(i, max_stock(i) - quantity(i));
        """
    )

    rng = random.Random(seed)
    items = []
    suppliers = []
    with amos.transaction():
        for _ in range(n_items):
            item = amos.create_object("item")
            supplier = amos.create_object("supplier")
            amos.set_value("quantity", (item,), quantity + rng.randrange(0, 100))
            amos.set_value("max_stock", (item,), 5000)
            amos.set_value("min_stock", (item,), 100)
            amos.set_value("consume_freq", (item,), 20)
            amos.set_value("supplies", (supplier,), item)
            amos.set_value("delivery_time", (item, supplier), 2)
            items.append(item)
            suppliers.append(supplier)

    return InventoryWorkload(amos, items, suppliers, workload_orders)
