"""One committed Δ-record, two consumers, one end state.

A seeded primary produces one record stream — plain commits, churn that
nets to nothing, a multi-item transaction, relation create/drop, rule
flips, object create + delete — and every consumer of a committed
record replays it:

* ``recover()`` into a fresh schema bootstrap (the whole log),
* a live :class:`ReplicaServer` (the whole stream).

Both go through ``Database.apply_committed`` and must end at the
primary's ``snapshot_extensions()`` and at its epoch.
"""

import random

from repro.amosql.interpreter import AmosqlEngine
from repro.replication import ReplicaServer
from repro.server.server import AmosServer
from repro.storage.wal import recover

from .test_replica import converge

SEED = 19

SCHEMA = """
create type node;
create function f(node) -> integer;
create function g(node) -> integer;
create rule ra() as
    when for each node n where f(n) > 0
    do bump(n);
activate ra();
create node instances :a, :b, :c, :d;
"""


def bootstrap():
    """The shared schema bootstrap (schema is code, the stream is data)."""
    engine = AmosqlEngine(mode="incremental", explain=True)
    amos = engine.amos
    amos.create_procedure(
        "bump", ("node",), lambda n: amos.set_value("g", (n,), 1)
    )
    engine.execute(SCHEMA)
    return engine


def drive(engine):
    """The seeded stream; returns once the final commit is in."""
    amos = engine.amos
    rng = random.Random(SEED)
    nodes = [engine.get(name) for name in "abcd"]

    amos.set_value("f", (nodes[0],), 5)  # fires ra: bump sets g
    engine.execute("create function h(node) -> integer;")  # catalog create
    engine.execute("create function k(node) -> integer;")
    amos.set_value("h", (nodes[0],), 3)
    amos.set_value("k", (nodes[1],), 9)
    amos.drop_function("h")  # catalog drop, rows and all
    amos.deactivate("ra")  # rule flips
    amos.set_value("f", (nodes[1],), 5)  # unmonitored while inactive
    amos.activate("ra")
    amos.set_value("f", (nodes[2],), 5)  # two waves: Δf, then bump's Δg
    for _ in range(6):  # plain commits
        amos.set_value("f", (rng.choice(nodes),), rng.randint(-5, 9))
    with amos.transaction():  # churn: nets to nothing, still an epoch
        before = amos.value("f", nodes[2])
        amos.set_value("f", (nodes[2],), 77)
        amos.set_value("f", (nodes[2],), before)
    with amos.transaction():  # one multi-item commit record
        for node in nodes[:3]:
            amos.set_value("f", (node,), rng.randint(1, 9))
    doomed = amos.create_object("node")  # object create + delete
    amos.set_value("f", (doomed,), 4)
    amos.delete_object(doomed)
    kept = amos.create_object("node")
    amos.set_value("f", (kept,), 2)
    for node in nodes:  # no check phase: unmonitored relation
        amos.set_value("k", (node,), rng.randint(0, 99))
    with amos.transaction():  # every node leaves the condition at once
        for node in nodes + [kept]:
            amos.set_value("f", (node,), -1)
    return kept


def test_recovery_and_replica_end_at_the_primary_state(tmp_path):
    engine = bootstrap()
    primary = AmosServer(amos=engine.amos, wal_dir=str(tmp_path / "p-wal"))
    primary.start()
    replica = ReplicaServer(
        primary=primary.address,
        factory=lambda: bootstrap().amos,
        wal_dir=str(tmp_path / "r-wal"),
    )
    replica.start()
    try:
        with primary._engine_lock:
            kept = drive(engine)
        expected = primary.amos.snapshot_extensions()
        epoch = primary.amos.snapshot_epoch
        assert "k" in expected and "h" not in expected
        kinds = {record.kind for record in primary.amos.wal.records()}
        assert kinds == {"catalog", "commit", "rule"}

        # consumer 1: the live replica
        converge(replica, primary)
        assert replica.amos.snapshot_extensions() == expected
        assert replica.amos.snapshot_epoch == epoch
        assert replica.amos.rules.active_rules() == [("ra", ())]
    finally:
        replica.stop()
        primary.stop()
        engine.amos.close()

    # consumer 2: crash recovery of the primary's log into a fresh bootstrap
    recovered = recover(str(tmp_path / "p-wal"), amos=bootstrap().amos)
    try:
        assert recovered.snapshot_extensions() == expected
        assert recovered.snapshot_epoch == epoch
        assert recovered.rules.active_rules() == [("ra", ())]
        # and none of them would re-issue an OID the stream has used
        assert recovered.create_object("node").id == kept.id + 1
    finally:
        recovered.detach_wal()
