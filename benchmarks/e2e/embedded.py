"""The three embedded workloads: the engine called through its Python
API from the benchmark's own process, default configuration.

* ``fig6_small``     — the paper's Fig. 6: one-item transactions over
  all items, so Δ rows outnumber every prober / memo budget.
* ``fig7_massive``   — the paper's Fig. 7: every transaction changes
  three functions of all items.
* ``multiway_slide`` — a sliding window over the 4-way join of
  ``build_multiway``: each transaction retracts one slice and inserts
  the next.
"""

from __future__ import annotations

import contextlib
import random
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.bench.workload import build_multiway
from repro.obs import collecting

import inputs
import layers
from harness import closed_loop, default_inventory, peak_rss_mb, system_pids
from spans import CommitTracer, Recorder

#: full-scale sizes (``--scale`` multiplies them)
N_ITEMS = 5000
N_SPOKES = 5000
SLICE_ROWS = 200
#: more slices than HO_BUDGET / SLICE_ROWS, so a slice's memo entries
#: are evicted before the window comes round to it again
N_SLICES = 64

#: the naive twin: naive recomputation costs ~440 ms per transaction at
#: 5000 items, so incremental ≡ naive is checked on a 1/25-scale copy
#: fed the first transactions of the same generator
TWIN_SCALE = 0.04
TWIN_TXNS = {"fig6_small": 50, "fig7_massive": 3, "multiway_slide": 6}


class Embedded:
    """One embedded workload: inputs, the system, and its checks."""

    name = ""
    #: operations that must run before the window opens (fig7's first
    #: massive transaction forks the shard pool)
    min_warm = 1
    condition = ""
    #: inputs generated per second of window at full scale (a faster
    #: host that exhausts them ends its window early)
    rate_cap = 1e9

    @classmethod
    def input_count(cls, seconds: float, scale: float) -> int:
        return int(8 + seconds * cls.rate_cap)

    def __init__(self, seed: int, scale: float, count: int) -> None:
        self.seed = seed
        self.scale = scale
        self.available = count
        self.failures: List[str] = []

    def build(self, mode: str = "incremental"):
        raise NotImplementedError

    def applier(self, system, rec: Optional[Recorder], tracer: Optional[CommitTracer]):
        """``apply(t)``: run transaction ``t`` against ``system``."""
        body = self.body(system)
        amos = system.amos
        commit = tracer.commit if tracer is not None else amos.commit
        failures = self.failures

        def apply(t: int) -> None:
            root = rec.root("txn", t) if rec is not None else None
            try:
                amos.begin()
                body(t)
                commit()
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                if amos.storage.in_transaction:
                    amos.rollback()
                failures.append(f"transaction {t} failed: {exc!r}")
            if root is not None:
                rec.end(root)

        return apply

    def body(self, system) -> Callable[[int], None]:
        raise NotImplementedError

    def verify(self, system, done: int) -> List[str]:
        raise NotImplementedError

    def outputs(self, system) -> Tuple:
        """What incremental and naive must agree on."""
        amos = system.amos
        return (
            list(self.actions(system)),
            amos.extension(self.condition),
        )

    def actions(self, system) -> List:
        raise NotImplementedError


def _compare(label: str, actual, expected) -> List[str]:
    if actual == expected:
        return []
    return [f"{label}: system and model differ"]


class InventoryWorkload(Embedded):
    condition = "cnd_monitor_items"

    def __init__(self, seed: int, scale: float, count: int) -> None:
        super().__init__(seed, scale, count)
        self.n_items = max(10, int(N_ITEMS * scale))

    def build(self, mode: str = "incremental"):
        return default_inventory(self.n_items, self.seed, mode)

    def actions(self, system) -> List:
        return system.orders

    def replay(self, model: inputs.InventoryModel, done: int) -> None:
        raise NotImplementedError

    def verify(self, system, done: int) -> List[str]:
        model = inputs.InventoryModel(self.n_items, self.seed)
        self.replay(model, done)
        items = system.items
        amos = system.amos
        expected_orders = Counter(
            {(items[x], amount): n for (x, amount), n in model.orders.items()}
        )
        return (
            _compare(
                "quantity extension",
                amos.extension("quantity"),
                frozenset((items[x], q) for x, q in enumerate(model.quantity)),
            )
            + _compare(
                "condition extension",
                amos.extension(self.condition),
                frozenset((items[x],) for x in model.below()),
            )
            + _compare("orders", Counter(system.orders), expected_orders)
            + _compare(
                "rule-fire count", len(system.orders), sum(model.orders.values())
            )
        )


class Fig6Small(InventoryWorkload):
    name = "fig6_small"
    rate_cap = 30000.0

    def __init__(self, seed: int, scale: float, count: int) -> None:
        super().__init__(seed, scale, count)
        self.txns = inputs.small_txns(
            random.Random(seed),
            count,
            0,
            self.n_items,
            inputs.initial_quantities(self.n_items, seed),
            pair=False,
        )

    def body(self, system):
        txns, items, amos = self.txns, system.items, system.amos

        def body(t: int) -> None:
            i, v, j, w = txns[4 * t : 4 * t + 4]
            amos.set_value("quantity", (items[i],), v)
            if j >= 0:
                amos.set_value("quantity", (items[j],), w)

        return body

    def replay(self, model, done):
        model.replay_small(self.txns, done)


class Fig7Massive(InventoryWorkload):
    name = "fig7_massive"
    min_warm = 2
    rate_cap = 2.0

    @classmethod
    def input_count(cls, seconds: float, scale: float) -> int:
        # cost is per row: a smaller database runs more transactions
        return int(8 + seconds * cls.rate_cap / scale)

    def __init__(self, seed: int, scale: float, count: int) -> None:
        super().__init__(seed, scale, count)
        self.txns = inputs.massive_txns(random.Random(seed), count, self.n_items)

    def body(self, system):
        txns, items, suppliers, amos = (
            self.txns, system.items, system.suppliers, system.amos
        )

        def body(t: int) -> None:
            quantity, delivery, freq = txns[t]
            for x, item in enumerate(items):
                amos.set_value("quantity", (item,), quantity[x])
                amos.set_value("delivery_time", (item, suppliers[x]), delivery[x])
                amos.set_value("consume_freq", (item,), freq[x])

        return body

    def replay(self, model, done):
        model.replay_massive(self.txns[:done])


class MultiwaySlide(Embedded):
    name = "multiway_slide"
    condition = "cnd_monitor_multiway"

    def __init__(self, seed: int, scale: float, count: int) -> None:
        # the slide is cyclic: any number of transactions is available
        super().__init__(seed, scale, count)
        self.n_spokes = max(50, int(N_SPOKES * scale))
        self.slice_rows = max(4, int(SLICE_ROWS * scale))
        # fanout_big must stay below the spoke count at small scales
        self.fanout_big = min(250, max(2, self.n_spokes // 4))

    def build(self, mode: str = "incremental"):
        system = build_multiway(
            self.n_spokes,
            N_SLICES,
            self.slice_rows,
            fanout_big=self.fanout_big,
            mode=mode,
            seed=self.seed,
        )
        system.activate()
        system.massive_join_txn(0)  # the window starts on slice 0
        return system

    def body(self, system):
        slices, amos = system.slices, system.amos

        def body(t: int) -> None:
            for source, hub in slices[t % N_SLICES]:
                amos.clear_value("r", (source, hub))
            for source, hub in slices[(t + 1) % N_SLICES]:
                amos.set_value("r", (source, hub), 1)

        return body

    def actions(self, system) -> List:
        return system.flagged

    def verify(self, system, done: int) -> List[str]:
        present = system.slices[done % N_SLICES]
        return (
            _compare(
                "r extension",
                system.amos.extension("r"),
                frozenset((source, hub, 1) for source, hub in present),
            )
            # val(z) is never negative: the rule must never fire
            + _compare("rule-fire count", len(system.flagged), 0)
            + _compare(
                "condition extension",
                system.amos.extension(self.condition),
                frozenset(),
            )
        )


WORKLOADS = {cls.name: cls for cls in (Fig6Small, Fig7Massive, MultiwaySlide)}

def make(name: str, seed: int, scale: float, seconds: float) -> Embedded:
    cls = WORKLOADS[name]
    return cls(seed, scale, cls.input_count(seconds, scale))


def twin_check(name: str, seed: int) -> List[str]:
    """Incremental ≡ naive (action sequence and condition extension)
    on a small twin fed the generator's first transactions."""
    count = TWIN_TXNS[name]
    outputs = []
    for mode in ("incremental", "naive"):
        workload = WORKLOADS[name](seed, TWIN_SCALE, count)
        system = workload.build(mode)
        apply = workload.applier(system, None, None)
        for t in range(count):
            apply(t)
        outputs.append((workload.outputs(system), workload.failures))
        system.amos.close()
    (incremental, failed_a), (naive, failed_b) = outputs
    return failed_a + failed_b + _compare("incremental vs naive twin", incremental, naive)


def measure(workload: Embedded, seconds: float, mode: str = "plain") -> Dict[str, object]:
    """Set up once, warm up, run one timed window, check the outputs.

    ``mode`` is ``"plain"`` (nothing installed: the end-to-end numbers),
    ``"spans"`` (every layer call bracketed by a span) or ``"counters"``
    (the engine's own counters collected: ``whole`` from set-up on, for
    plan and fork counts; ``steady`` over the run only, for
    per-transaction counts).  Spans and counters run apart because the
    counters' cost, tens of sites per transaction, would inflate the
    span times of the layers that count most.
    """
    workload.failures.clear()
    rec = Recorder() if mode == "spans" else None
    counting = mode == "counters"
    with contextlib.ExitStack() as scopes:
        whole = scopes.enter_context(collecting()) if counting else None
        started = time.perf_counter()
        system = workload.build()
        setup_s = time.perf_counter() - started
        try:
            tracer = CommitTracer(rec, system.amos) if rec is not None else None
            apply = workload.applier(system, rec, tracer)
            steady = scopes.enter_context(collecting()) if counting else None
            done, window = closed_loop(
                apply, workload.available, seconds, workload.min_warm
            )
            rss = peak_rss_mb(system_pids(system.amos))
            if tracer is not None:
                tracer.close()
            failures = workload.failures + workload.verify(system, done)
            counted = layers.counted(system.amos, whole, steady, done) if counting else {}
        finally:
            system.amos.close()
    return {
        "setup_s": setup_s,
        "done": done,
        "window": window,
        "rss_mb": rss,
        "failures": failures,
        "recorder": rec,
        "counted": counted,
    }


def setup_only(workload: Embedded) -> float:
    """One more timed set-up, torn down at once (``setup_s`` is the
    median of several)."""
    started = time.perf_counter()
    system = workload.build()
    elapsed = time.perf_counter() - started
    system.amos.close()
    return elapsed
