"""Seeded inputs and the plain dict models they are checked against.

Everything the system under test receives is generated here, up front,
from ``--seed``; the models replay the same inputs with dicts and lists
only, so they share no code with the engine they check.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from collections import Counter
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: build_inventory's schema constants (src/repro/bench/workload.py)
MAX_STOCK = 5000
MIN_STOCK = 100
INITIAL_FREQ = 20
INITIAL_DELIVERY = 2
THRESHOLD = INITIAL_FREQ * INITIAL_DELIVERY + MIN_STOCK  # 140

#: the 80 / 10 / 10 mix of the small-transaction workloads
ABOVE_SHARE = 0.8
BELOW_SHARE = 0.1

#: the range scan of served_readwrite: ``quantity(i) < SCAN_BOUND``
#: matches the ~1 % of untouched items built at exactly 5000 plus the
#: writer's hot items
SCAN_BOUND = 5001


def initial_quantities(n_items: int, seed: int) -> List[int]:
    """The quantities ``build_inventory(n_items, seed=seed)`` assigns.

    Mirrors its one use of the seeded generator; a drift between the
    two shows up as a final-extension mismatch on untouched items.
    """
    rng = random.Random(seed)
    return [MAX_STOCK + rng.randrange(0, 100) for _ in range(n_items)]


# -- small transactions (fig6_small, served_*) ------------------------------------


def small_txns(
    rng: random.Random,
    count: int,
    lo: int,
    hi: int,
    quantities: List[int],
    pair: bool,
) -> array:
    """``count`` transactions over items ``lo..hi-1`` as a flat int
    array of ``(i, v, j, w)``: ``set quantity(i) = v`` then, when
    ``j >= 0``, ``set quantity(j) = w``.

    80 % move quantities above the threshold, 10 % drop one item below
    it (the rule fires if it was above), 10 % drop an item and reset it
    to its previous value in the same transaction (the Δ-union cancels
    to nothing).  With ``pair`` every transaction has two updates, as
    the served workloads send them.  ``quantities`` is the model state
    the generator advances, so a reset knows the value to restore.

    A flat array keeps 100k+ transactions in a few megabytes: the
    embedded workloads run in this process and their peak RSS is an
    end-to-end metric.
    """
    out = array("i")
    span = hi - lo
    for _ in range(count):
        draw = rng.random()
        i = lo + rng.randrange(span)
        if draw < ABOVE_SHARE:
            v = 1000 + rng.randrange(4000)
            j, w = (lo + rng.randrange(span), 1000 + rng.randrange(4000)) if pair else (-1, 0)
        elif draw < ABOVE_SHARE + BELOW_SHARE:
            v = rng.randrange(THRESHOLD)
            j, w = (lo + rng.randrange(span), 1000 + rng.randrange(4000)) if pair else (-1, 0)
        else:
            v = rng.randrange(THRESHOLD)
            j, w = i, quantities[i]
        quantities[i] = v
        if j >= 0:
            quantities[j] = w
        out.extend((i, v, j, w))
    return out


def replay_small(
    txns: array, count: int, quantities: List[int], orders: Counter
) -> None:
    """Advance ``quantities`` by the first ``count`` transactions and
    add the expected ``order(item, amount)`` calls to ``orders``.

    Strict semantics: the rule fires for an item when its condition
    ``quantity < threshold`` is false before the transaction and true
    after it; the action orders ``max_stock - quantity``.
    """
    for t in range(count):
        i, v, j, w = txns[4 * t : 4 * t + 4]
        touched = (i,) if j < 0 or j == i else (i, j)
        before = [quantities[x] < THRESHOLD for x in touched]
        quantities[i] = v
        if j >= 0:
            quantities[j] = w
        for x, was_below in zip(touched, before):
            if not was_below and quantities[x] < THRESHOLD:
                orders[(x, MAX_STOCK - quantities[x])] += 1


def small_script(txn: Sequence[int], lo: int) -> str:
    """The AMOSQL a served session sends for one transaction (items
    are bound as ``:i0 ..`` relative to the session's range)."""
    i, v, j, w = txn
    return f"set quantity(:i{i - lo}) = {v}; set quantity(:i{j - lo}) = {w};"


# -- massive transactions (fig7_massive) ------------------------------------------

#: share of items a massive transaction drops below every threshold, so
#: the action path is exercised and checked, not only the propagation
MASSIVE_BELOW_SHARE = 0.005

MassiveTxn = Tuple[array, array, array]  # quantity, delivery_time, consume_freq


def massive_txns(rng: random.Random, count: int, n_items: int) -> List[MassiveTxn]:
    """Transactions that each change quantity, delivery_time and
    consume_freq of ALL items (3 of the 5 partial differentials)."""
    txns = []
    for _ in range(count):
        quantity = array("i", (1000 + rng.randrange(4000) for _ in range(n_items)))
        for _ in range(max(1, int(n_items * MASSIVE_BELOW_SHARE))):
            quantity[rng.randrange(n_items)] = rng.randrange(MIN_STOCK)
        delivery = array("i", (1 + rng.randrange(5) for _ in range(n_items)))
        freq = array("i", (1 + rng.randrange(40) for _ in range(n_items)))
        txns.append((quantity, delivery, freq))
    return txns


class InventoryModel:
    """Dict-and-list model of the inventory's monitored state."""

    def __init__(self, n_items: int, seed: int) -> None:
        self.quantity = initial_quantities(n_items, seed)
        self.delivery = [INITIAL_DELIVERY] * n_items
        self.freq = [INITIAL_FREQ] * n_items
        self.orders: Counter = Counter()

    def threshold(self, x: int) -> int:
        return self.freq[x] * self.delivery[x] + MIN_STOCK

    def below(self) -> Set[int]:
        """The condition's extension: items under their threshold."""
        return {
            x for x, q in enumerate(self.quantity) if q < self.threshold(x)
        }

    def replay_small(self, txns: array, count: int) -> None:
        replay_small(txns, count, self.quantity, self.orders)

    def replay_massive(self, txns: Sequence[MassiveTxn]) -> None:
        for quantity, delivery, freq in txns:
            before = self.below()
            self.quantity = list(quantity)
            self.delivery = list(delivery)
            self.freq = list(freq)
            for x in self.below() - before:
                self.orders[(x, MAX_STOCK - self.quantity[x])] += 1


# -- reads (served_readwrite) -----------------------------------------------------

POINT_QUANTITY, POINT_THRESHOLD, SCAN = 0, 1, 2


def reads(rng: random.Random, count: int, span: int) -> List[Tuple[int, int]]:
    """``(kind, k)`` reads over the reader's ``span`` bound items:
    70 % quantity point reads, 20 % threshold point reads, 10 % range
    scans — so the median sits in the point class and p95 in the scan
    class."""
    out = []
    for _ in range(count):
        draw = rng.random()
        kind = POINT_QUANTITY if draw < 0.7 else POINT_THRESHOLD if draw < 0.9 else SCAN
        out.append((kind, rng.randrange(span)))
    return out


def read_script(kind: int, k: int) -> str:
    if kind == POINT_QUANTITY:
        return f"select quantity(:i{k});"
    if kind == POINT_THRESHOLD:
        return f"select threshold(:i{k});"
    return f"select i for each item i where quantity(i) < {SCAN_BOUND};"


class EpochHistory:
    """Quantity of every written item at every acknowledged epoch, so a
    read served at epoch ``e`` can be checked against the state the
    writer had committed by ``e`` and nothing later."""

    def __init__(self, quantities: Sequence[int]) -> None:
        self.initial = list(quantities)
        self.changes: Dict[int, Tuple[List[int], List[int]]] = {}
        self._untouched_hits: Optional[Set[int]] = None

    def record(self, epoch: int, item: int, value: int) -> None:
        epochs, values = self.changes.setdefault(item, ([], []))
        epochs.append(epoch)
        values.append(value)

    def quantity(self, item: int, epoch: int) -> int:
        if item not in self.changes:
            return self.initial[item]
        epochs, values = self.changes[item]
        at = bisect_right(epochs, epoch)
        return values[at - 1] if at else self.initial[item]

    def scan(self, epoch: int) -> Set[int]:
        """Items with ``quantity < SCAN_BOUND`` at ``epoch`` (call only
        once every write is recorded: the untouched part is cached)."""
        if self._untouched_hits is None:
            self._untouched_hits = {
                x
                for x, q in enumerate(self.initial)
                if q < SCAN_BOUND and x not in self.changes
            }
        hit = set(self._untouched_hits)
        hit.update(
            x for x in self.changes if self.quantity(x, epoch) < SCAN_BOUND
        )
        return hit
