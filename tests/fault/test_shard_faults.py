"""Worker-death fault injection for the sharded check phase.

A shard worker is an ordinary process; production must assume it can be
SIGKILLed at any moment.  The harness's :class:`KillWorkerAt` really
kills one at each seam (see docs/SHARDING.md) and these tests pin the
blast radius, which differs by seam now that the pool persists across
commits:

* **exchange.pre / mid / post** — a death mid-wave tears the phase: it
  aborts with :class:`ShardWorkerError` (an ordinary Exception, so
  ``Database.commit`` rolls the transaction back), the database is
  bit-identical to its pre-transaction state, the pool is discarded,
  and a probe commit forks a fresh fleet and fires rules normally.
* **sync.pre / sync.mid** — a death during the phase-start replica-sync
  handshake (or any time between commits) is SURVIVABLE: the victim is
  respawned in place from the leader's current memory, the commit
  proceeds, and the result is bit-identical to serial.
* **sync.post** — the handshake finished but the victim dies before
  wave 1: the wave exchange hits the corpse and the phase aborts
  cleanly like any mid-wave death.

``exchange.post`` needs a CASCADING workload: after wave 1's barrier
the results are complete, so a death there can only hurt the NEXT
wave.  Rule ``ra``'s action updates a monitored function that rule
``rb`` watches, so the check loop always runs two waves and wave 2's
broadcast hits the corpse.

The sync seams only exist on a REUSED pool (a fresh fork needs no
handshake), so those tests run a priming commit first.
"""

import gc
import os
import signal

import pytest

from tests.fault.harness import SHARD_FAULT_POINTS, FaultPoint, KillWorkerAt

from repro.amosql.interpreter import AmosqlEngine
from repro.errors import ShardWorkerError

pytestmark = pytest.mark.fault

EXCHANGE_POINTS = tuple(p for p in SHARD_FAULT_POINTS if p.startswith("exchange."))
SYNC_POINTS = tuple(p for p in SHARD_FAULT_POINTS if p.startswith("sync."))

SCHEMA = """
create type node;
create function f(node) -> integer;
create function g(node) -> integer;
create rule ra() as
    when for each node n where f(n) > 0
    do bump(n);
create rule rb() as
    when for each node n where g(n) = 1
    do log_g(n);
activate ra();
activate rb();
create node instances :a, :b, :c, :d;
"""


@pytest.fixture(autouse=True)
def _reap_pools():
    """Close pools earlier tests left behind (via ShardPool.__del__)
    so the no-zombie-children assertions below see only their own."""
    yield
    gc.collect()


def build_cascading(shards=2):
    """Two rules, two waves: ``ra`` fires on f and its action sets g,
    which ``rb`` monitors — every triggering commit runs wave 1 (Δf)
    and wave 2 (Δg).  ``policy="fanout"`` pins the pooled path: these
    tiny deltas would route serial under the default auto policy."""
    engine = AmosqlEngine(
        mode="incremental", explain=True, shards=shards,
        shard_options={"policy": "fanout"},
    )
    amos = engine.amos
    logged = []
    amos.create_procedure(
        "bump", ("node",), lambda n: amos.set_value("g", (n,), 1)
    )
    amos.create_procedure("log_g", ("node",), lambda n: logged.append(n))
    engine.execute(SCHEMA)
    nodes = {name: engine.get(name) for name in "abcd"}
    return engine, nodes, logged


class TestExchangeFaultPoints:
    def test_cascade_really_takes_two_waves(self):
        engine, nodes, logged = build_cascading()
        observer = FaultPoint(None)  # record, never crash
        engine.amos.rules.engine.fault_hook = observer
        engine.amos.set_value("f", (nodes["a"],), 5)
        assert logged == [nodes["a"]]
        # a FRESH pool needs no handshake: two exchanges, each
        # pre -> mid -> post in order, and no sync points at all
        assert observer.sequence() == [
            "exchange.pre", "exchange.mid", "exchange.post",
        ] * 2
        # ...but the REUSED pool on the next commit syncs first
        engine.amos.set_value("f", (nodes["b"],), 5)
        assert observer.sequence()[6:9] == [
            "sync.pre", "sync.mid", "sync.post",
        ]
        engine.amos.rules.engine.close_pool()

    @pytest.mark.parametrize("point", EXCHANGE_POINTS)
    def test_worker_death_mid_wave_aborts_cleanly(self, point):
        engine, nodes, logged = build_cascading()
        amos = engine.amos
        sharded = amos.rules.engine
        before = amos.snapshot_extensions()

        killer = KillWorkerAt(sharded, point)
        sharded.fault_hook = killer
        amos.begin()
        amos.set_value("f", (nodes["a"],), 5)
        with pytest.raises(ShardWorkerError):
            amos.commit()

        assert killer.killed is not None
        # the transaction rolled back wholesale: base updates AND any
        # wave-1 rule-action updates (bump's set of g) are gone
        assert amos.snapshot_extensions() == before
        assert logged == []
        # no torn per-shard state: the mid-wave death cost the fleet
        assert sharded.pool_pids == []
        assert sharded.pool_stats["discards"] == 1
        assert amos.storage.in_transaction is False

        # the engine is still live — a probe commit forks a fresh pool
        # and runs the full two-wave cascade
        sharded.fault_hook = None
        amos.set_value("f", (nodes["b"],), 7)
        assert logged == [nodes["b"]]
        assert amos.value("g", nodes["b"]) == 1
        # ...and that pool now PERSISTS for the commits after it
        assert len(sharded.pool_pids) == 2
        sharded.close_pool()

    @pytest.mark.parametrize("point", EXCHANGE_POINTS)
    def test_survivor_workers_are_reaped_too(self, point):
        """The kill takes ONE worker; close() must reap the rest."""
        engine, nodes, _ = build_cascading(shards=3)
        amos = engine.amos
        sharded = amos.rules.engine
        killer = KillWorkerAt(sharded, point, victim=1)
        sharded.fault_hook = killer
        amos.begin()
        amos.set_value("f", (nodes["c"],), 5)
        with pytest.raises(ShardWorkerError):
            amos.commit()
        assert killer.killed is not None
        # every worker of the dead pool was reaped, not just the
        # victim: no zombie children remain in this process
        assert sharded.pool_pids == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestSyncFaultPoints:
    """Deaths at the replica-sync handshake are survivable."""

    @pytest.mark.parametrize("point", ("sync.pre", "sync.mid"))
    def test_kill_during_handshake_respawns_and_commits(self, point):
        engine, nodes, logged = build_cascading()
        amos = engine.amos
        sharded = amos.rules.engine
        amos.set_value("f", (nodes["a"],), 5)  # priming commit: forks
        pids = sharded.pool_pids
        assert len(pids) == 2

        killer = KillWorkerAt(sharded, point)
        sharded.fault_hook = killer
        amos.set_value("f", (nodes["b"],), 7)  # reuse: handshake runs
        assert killer.killed in pids
        # the commit SUCCEEDED — both waves fired on the healed fleet
        assert logged == [nodes["a"], nodes["b"]]
        assert amos.value("g", nodes["b"]) == 1
        # the victim was respawned in place; the survivor kept its pid
        assert sharded.pool_stats["respawns"] == 1
        healed = sharded.pool_pids
        assert len(healed) == 2
        assert killer.killed not in healed
        assert pids[1] in healed
        sharded.close_pool()

    def test_kill_between_commits_respawns_and_commits(self):
        """No seam at all: the worker just dies while the pool idles.
        The next phase's handshake notices (broken pipe / missing ack)
        and respawns it; the commit is bit-identical to serial."""
        engine, nodes, logged = build_cascading()
        amos = engine.amos
        sharded = amos.rules.engine
        amos.set_value("f", (nodes["a"],), 5)
        pids = sharded.pool_pids
        os.kill(pids[0], signal.SIGKILL)

        amos.set_value("f", (nodes["b"],), 7)
        assert logged == [nodes["a"], nodes["b"]]
        assert amos.value("g", nodes["b"]) == 1
        assert sharded.pool_stats["respawns"] == 1
        assert pids[0] not in sharded.pool_pids
        sharded.close_pool()

    def test_kill_after_handshake_aborts_cleanly(self):
        """sync.post: the fleet just agreed on the epoch, then the
        victim dies before wave 1 — the exchange hits the corpse, so
        this degrades to the mid-wave abort path."""
        engine, nodes, logged = build_cascading()
        amos = engine.amos
        sharded = amos.rules.engine
        amos.set_value("f", (nodes["a"],), 5)
        before = amos.snapshot_extensions()

        killer = KillWorkerAt(sharded, "sync.post")
        sharded.fault_hook = killer
        amos.begin()
        amos.set_value("f", (nodes["b"],), 7)
        with pytest.raises(ShardWorkerError):
            amos.commit()
        assert killer.killed is not None
        assert amos.snapshot_extensions() == before
        assert logged == [nodes["a"]]
        assert sharded.pool_pids == []

        # probe: fresh fleet, normal cascade
        sharded.fault_hook = None
        amos.set_value("f", (nodes["c"],), 3)
        assert logged == [nodes["a"], nodes["c"]]
        sharded.close_pool()

    def test_no_refork_between_commits(self):
        """The whole point of the pool: consecutive commits reuse the
        SAME worker processes instead of forking per check phase."""
        engine, nodes, logged = build_cascading()
        sharded = engine.amos.rules.engine
        engine.amos.set_value("f", (nodes["a"],), 5)
        pids = sharded.pool_pids
        for name, value in (("b", 7), ("c", 3), ("d", 9)):
            engine.amos.set_value("f", (nodes[name],), value)
            assert sharded.pool_pids == pids
        assert sharded.pool_stats["forks"] == 2
        assert sharded.pool_stats["respawns"] == 0
        assert sharded.pool_stats["reuse_hits"] == 3
        assert len(logged) == 4
        sharded.close_pool()


class TestFaultHookOffByDefault:
    def test_no_hook_no_overhead_path(self):
        engine, nodes, logged = build_cascading()
        assert engine.amos.rules.engine.fault_hook is None
        engine.amos.set_value("f", (nodes["d"],), 3)
        assert logged == [nodes["d"]]
        engine.amos.rules.engine.close_pool()
