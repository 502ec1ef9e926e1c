"""One committed Δ-record, three consumers, one end state (ISSUE 19).

A seeded primary produces one record stream — plain commits, churn that
nets to nothing, an ``apply_group`` batch, relation create/drop, rule
flips, object create + delete — and every consumer of a committed
record replays it:

* ``recover()`` into a fresh schema bootstrap (the whole log),
* a live :class:`ReplicaServer` (the whole stream),
* the primary's own ``shards=2, policy="fanout"`` workers (every commit
  after the fork, through waves and the phase-start ``sync`` backlog).

All three go through ``Database.apply_committed`` and must end at the
primary's ``snapshot_extensions()``; recovery and the replica also at
its epoch.  A worker's replica lives in another process, so the schema's
foreign function ``probe`` dumps the state of whatever worker evaluates
it — the final transaction makes every partition evaluate it.
"""

import json
import os
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
    when for each node n where probe(f(n)) > 0
    do bump(n);
activate ra();
create node instances :a, :b, :c, :d;
"""


def bootstrap(dump_dir=None, **options):
    """The shared schema bootstrap (schema is code, the stream is data)."""
    engine = AmosqlEngine(mode="incremental", explain=True, **options)
    amos = engine.amos
    leader = os.getpid()

    def probe(value):
        if dump_dir is not None and os.getpid() != leader:
            # inside a forked shard worker: amos.storage IS its replica
            path = os.path.join(dump_dir, f"{os.getpid()}.json")
            with open(path, "w") as handle:
                json.dump(amos.snapshot_extensions(), handle)
        return [(value,)]

    amos.create_foreign_function("probe", ["integer"], ["integer"], probe)
    amos.create_procedure(
        "bump", ("node",), lambda n: amos.set_value("g", (n,), 1)
    )
    engine.execute(SCHEMA)
    return engine


def drive(engine, dump_dir):
    """The seeded stream; returns once the final probe commit is in."""
    amos = engine.amos
    sharded = amos.rules.engine
    rng = random.Random(SEED)
    nodes = [engine.get(name) for name in "abcd"]

    # -- before the fork: everything that re-forks the pool anyway ---------
    amos.set_value("f", (nodes[0],), 5)  # fires ra: bump sets g
    engine.execute("create function h(node) -> integer;")  # catalog create
    engine.execute("create function k(node) -> integer;")
    amos.set_value("h", (nodes[0],), 3)
    amos.set_value("k", (nodes[1],), 9)
    amos.drop_function("h")  # catalog drop, rows and all
    amos.deactivate("ra")  # rule flips
    amos.set_value("f", (nodes[1],), 5)  # unmonitored while inactive
    amos.activate("ra")

    # -- the fork, then commits the SAME workers must keep up with ---------
    amos.set_value("f", (nodes[2],), 5)  # two waves: Δf, then bump's Δg
    pids = sharded.pool_pids
    assert len(pids) == 2
    for _ in range(6):  # plain commits
        amos.set_value("f", (rng.choice(nodes),), rng.randint(-5, 9))
    with amos.transaction():  # churn: nets to nothing, still an epoch
        before = amos.value("f", nodes[2])
        amos.set_value("f", (nodes[2],), 77)
        amos.set_value("f", (nodes[2],), before)
    outcomes = amos.apply_group(  # one merged commit record
        [
            (lambda n, v: lambda: amos.set_value("f", (n,), v))(
                node, rng.randint(1, 9)
            )
            for node in nodes[:3]
        ]
    )
    assert all(outcome.ok for outcome in outcomes)
    doomed = amos.create_object("node")  # object create + delete
    amos.set_value("f", (doomed,), 4)
    amos.delete_object(doomed)
    kept = amos.create_object("node")
    amos.set_value("f", (kept,), 2)
    for node in nodes:  # no check phase: reaches workers only via sync
        amos.set_value("k", (node,), rng.randint(0, 99))

    # -- the probe commit: every partition evaluates probe, nothing fires --
    for name in os.listdir(dump_dir):
        os.unlink(os.path.join(dump_dir, name))
    with amos.transaction():
        for node in nodes + [kept]:
            amos.set_value("f", (node,), -1)
    # the workers that dumped are the ones forked above, kept current by
    # apply_committed alone: never respawned, synced at every phase start
    assert sharded.pool_pids == pids
    assert sharded.pool_stats.get("respawns", 0) == 0
    assert sharded.pool_stats["resyncs"] >= 8
    return kept


def test_recovery_replica_and_shard_worker_end_at_the_primary_state(tmp_path):
    dump_dir = tmp_path / "worker-dumps"
    dump_dir.mkdir()
    engine = bootstrap(
        str(dump_dir), shards=2, shard_options={"policy": "fanout"}
    )
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
            kept = drive(engine, str(dump_dir))
        expected = primary.amos.snapshot_extensions()
        epoch = primary.amos.snapshot_epoch
        assert "k" in expected and "h" not in expected
        kinds = {record.kind for record in primary.amos.wal.records()}
        assert kinds == {"catalog", "commit", "rule"}

        # consumer 1: the shard workers (read before the pool goes away)
        dumps = [
            json.loads((dump_dir / name).read_text())
            for name in os.listdir(dump_dir)
        ]
        assert dumps and all(dump == expected for dump in dumps)

        # consumer 2: the live replica
        converge(replica, primary)
        assert replica.amos.snapshot_extensions() == expected
        assert replica.amos.snapshot_epoch == epoch
        assert replica.amos.rules.active_rules() == [("ra", ())]
    finally:
        replica.stop()
        primary.stop()
        engine.amos.close()

    # consumer 3: crash recovery of the primary's log into a fresh bootstrap
    recovered = recover(str(tmp_path / "p-wal"), amos=bootstrap().amos)
    try:
        assert recovered.snapshot_extensions() == expected
        assert recovered.snapshot_epoch == epoch
        assert recovered.rules.active_rules() == [("ra", ())]
        # and none of them would re-issue an OID the stream has used
        assert recovered.create_object("node").id == kept.id + 1
    finally:
        recovered.detach_wal()
