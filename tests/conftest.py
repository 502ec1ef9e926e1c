"""Shared fixtures for the test suite."""

import os
import sys

import pytest

# belt and suspenders: make `import repro` work even without installation
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.amosql import AmosqlEngine  # noqa: E402
from repro.bench.workload import INVENTORY_SCHEMA_AMOSQL  # noqa: E402

INVENTORY_POPULATION = """
create item instances :item1, :item2;
set max_stock(:item1) = 5000;
set max_stock(:item2) = 7500;
set min_stock(:item1) = 100;
set min_stock(:item2) = 200;
set consume_freq(:item1) = 20;
set consume_freq(:item2) = 30;
create supplier instances :sup1, :sup2;
set supplies(:sup1) = :item1;
set supplies(:sup2) = :item2;
set delivery_time(:item1, :sup1) = 2;
set delivery_time(:item2, :sup2) = 3;
set quantity(:item1) = 5000;
set quantity(:item2) = 7500;
"""


def make_inventory_engine(mode: str = "incremental", **options):
    """The paper's running example: schema + rule + population.

    Returns ``(engine, orders)`` where ``orders`` collects every
    ``order(item, amount)`` call the rule performs.
    """
    engine = AmosqlEngine(mode=mode, **options)
    orders = []
    engine.amos.create_procedure(
        "order", ("item", "integer"), lambda item, amount: orders.append((item, amount))
    )
    engine.execute(INVENTORY_SCHEMA_AMOSQL)
    engine.execute(INVENTORY_POPULATION)
    return engine, orders


def make_scripted_repl(lines=()):
    """An in-memory AMOSQL repl fed the given input lines.

    Returns ``(repl, out)`` where ``out`` is the ``StringIO`` the repl
    printed into — the shared builder for repl-level tests (dot
    commands, save/load, network dumps) so each suite doesn't rebuild
    its own schema boilerplate.
    """
    import io

    from repro.amosql.repl import Repl

    out = io.StringIO()
    repl = Repl(out=out)
    for line in lines:
        repl.handle_line(line + "\n")
    return repl, out


@pytest.fixture
def inventory():
    """Incremental-mode inventory engine with the rule NOT yet active."""
    return make_inventory_engine()


@pytest.fixture
def inventory_active():
    """Incremental-mode inventory engine with monitor_items active."""
    engine, orders = make_inventory_engine(explain=True)
    engine.execute("activate monitor_items();")
    return engine, orders


def assert_indexes_agree_with_scans(storage):
    """Every maintained index of every relation agrees with a full scan
    (the first few keys per index)."""
    for name in storage.relation_names():
        relation = storage.relation(name)
        for columns, index in relation.indexes.items():
            assert len(index) == len(relation), (name, columns)
            for key in list(index.keys())[:5]:
                by_index = index.probe(key)
                by_scan = frozenset(
                    row
                    for row in relation.rows()
                    if tuple(row[c] for c in columns) == key
                )
                assert by_index == by_scan, (name, columns, key)
