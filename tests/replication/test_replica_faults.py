"""Kill the replica's apply loop at every fault point; restart; converge.

The apply discipline is log-then-apply: a record is appended to the
replica's own WAL copy BEFORE it is applied to the engine.  A crash at
any of the three :data:`REPLICA_FAULT_POINTS` therefore loses nothing:

* ``pre_log``   — the record is not durable on the replica; the resume
  handshake re-requests it from the primary.
* ``mid_apply`` — the record IS durable but was never applied; restart
  recovery replays it from the copy, then resumes after it.
* ``post_apply``— applied and durable; restart must not apply it twice.

The matrix also varies WHICH record dies (first, middle, last) via the
harness's ``after=`` counter.
"""

import time

import pytest

from repro.server.client import AmosClient
from repro.replication import REPLICA_FAULT_POINTS, ReplicaServer
from tests.fault.harness import FaultPoint, InjectedCrash

from .conftest import bootstrap_factory
from .test_replica import converge

pytestmark = pytest.mark.fault


def commit_quantities(primary, quantities):
    with AmosClient(*primary.address) as client:
        client.bind("i0", primary.workload.items[0])
        client.bind("i1", primary.workload.items[1])
        for index, quantity in enumerate(quantities):
            target = "i0" if index % 2 == 0 else "i1"
            client.execute(f"set quantity(:{target}) = {quantity};")


def crashed_replica(primary, tmp_path, point, after):
    """Run a replica armed to die at ``point`` until it does."""
    fault = FaultPoint(point=point, after=after)
    replica = ReplicaServer(
        primary=primary.address,
        factory=bootstrap_factory,
        wal_dir=str(tmp_path / "replica-wal"),
        fault_hook=fault,
        reconnect=False,
    )
    replica.start()
    try:
        deadline = time.monotonic() + 15.0
        while replica.apply_error is None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert isinstance(replica.apply_error, InjectedCrash), (
            replica.apply_error,
            replica.last_stream_error,
        )
        assert fault.fired
        survived_lsn = replica.last_applied_lsn
    finally:
        replica.stop()
    return survived_lsn


@pytest.mark.parametrize("point", REPLICA_FAULT_POINTS)
@pytest.mark.parametrize("after", [0, 2, 5])
def test_crash_at_every_point_recovers_and_converges(
    primary, tmp_path, point, after
):
    commit_quantities(primary, [120, 130, 150, 90, 5000, 135])
    survived_lsn = crashed_replica(primary, tmp_path, point, after)

    # the primary moves on while the replica is down
    commit_quantities(primary, [111, 222])

    restarted = ReplicaServer(
        primary=primary.address,
        factory=bootstrap_factory,
        wal_dir=str(tmp_path / "replica-wal"),
    )
    restarted.start()
    try:
        converge(restarted, primary)
        assert (
            restarted.amos.snapshot_extensions()
            == primary.amos.snapshot_extensions()
        )
        assert (
            restarted.amos.storage.snapshot_epoch
            == primary.amos.storage.snapshot_epoch
        )
        # exactly-once overall: the stream LSNs are contiguous through
        # the crash (recovered records + streamed remainder, no dupes)
        assert restarted.next_lsn == primary.amos.wal.next_lsn
        assert restarted.last_recovery.records >= max(survived_lsn, 0)
    finally:
        restarted.stop()


def test_crash_counter_and_stats_surface_the_death(primary, tmp_path):
    commit_quantities(primary, [120])
    fault = FaultPoint(point="replica.apply.mid_apply")
    replica = ReplicaServer(
        primary=primary.address,
        factory=bootstrap_factory,
        wal_dir=str(tmp_path / "replica-wal"),
        fault_hook=fault,
        reconnect=False,
    )
    replica.start()
    try:
        deadline = time.monotonic() + 15.0
        while replica.apply_error is None and time.monotonic() < deadline:
            time.sleep(0.01)
        stats = replica.stats()
        assert stats["counters"]["replica.apply_crashes"] == 1
        assert stats["replica"]["apply_error"] is not None
        # waiters are told, not left hanging
        from repro.errors import ReplicationError

        with pytest.raises(ReplicationError, match="apply loop died"):
            replica.wait_for_epoch(10_000, timeout=5.0)
    finally:
        replica.stop()
