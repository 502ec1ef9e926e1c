"""Property-based replica-equivalence oracle (ISSUE 7 tentpole).

The property: **every epoch the replica publishes names exactly the
state the primary published under that epoch** — and after convergence
the replica IS the primary (extensions, epoch, monitor set, active
rules).  Hypothesis drives a random interleaving of:

* committed transactions (single- and multi-update),
* rollback churn (epochs the primary mints that never reach the WAL —
  the replica's epoch sequence must simply skip them),
* rule deactivate/activate (rule records on the stream),
* replica kill + restart (resume from its own WAL copy).

Runs at ``ORACLE_EXAMPLES`` examples (default 10 locally — every
example boots two real servers — 200+ in CI, seed logged by pytest).
"""

import os

from hypothesis import given, settings, strategies as st

from repro.server.client import AmosClient
from repro.server.server import AmosServer
from repro.replication import ReplicaServer

from .conftest import N_ITEMS, bootstrap_factory, make_workload
from .test_replica import converge

MAX_EXAMPLES = int(os.environ.get("ORACLE_EXAMPLES", "10"))
HISTORY = 64  # keep every epoch addressable on both sides

# quantities straddle the rule threshold (140) so actions genuinely
# fire on the primary (and must NOT re-fire on the replica)
quantity_st = st.integers(100, 180)
index_st = st.integers(0, N_ITEMS - 1)

op_st = st.one_of(
    st.tuples(st.just("txn"), index_st, quantity_st),
    st.tuples(
        st.just("multi"),
        st.lists(st.tuples(index_st, quantity_st), min_size=2, max_size=3),
    ),
    st.tuples(st.just("churn"), index_st, quantity_st),
    st.tuples(st.just("rule"), st.booleans()),
    st.tuples(st.just("kill")),
)

ops_st = st.lists(op_st, min_size=1, max_size=12)


def fingerprint(snapshot):
    """snapshot_extensions()-compatible view of a historic snapshot."""
    return {
        name: sorted(repr(row) for row in snapshot.rows(name))
        for name in snapshot.relation_names()
    }


def apply_op(workload, op):
    """One oracle op on the primary engine; returns True if it can have
    published a WAL-visible epoch."""
    amos = workload.amos
    kind = op[0]
    if kind == "txn":
        _, index, quantity = op
        amos.begin()
        amos.set_value("quantity", (workload.items[index],), quantity)
        amos.commit()
    elif kind == "multi":
        amos.begin()
        for index, quantity in op[1]:
            amos.set_value("quantity", (workload.items[index],), quantity)
        amos.commit()
    elif kind == "churn":
        _, index, quantity = op
        amos.begin()
        amos.set_value("quantity", (workload.items[index],), quantity)
        amos.rollback()
        return False  # epoch minted (maybe), but nothing hits the WAL
    elif kind == "rule":
        active = amos.rules.is_active("monitor_items", ())
        if op[1] and not active:
            amos.activate("monitor_items")
        elif not op[1] and active:
            amos.deactivate("monitor_items")
    return True


@settings(max_examples=MAX_EXAMPLES, deadline=None)
@given(ops=ops_st)
def test_replica_equals_primary_at_every_shared_epoch(tmp_path_factory, ops):
    tmp_path = tmp_path_factory.mktemp("oracle")
    workload = make_workload()
    workload.amos.storage.snapshot_history = HISTORY
    primary = AmosServer(
        amos=workload.amos, wal_dir=str(tmp_path / "primary-wal")
    )
    primary.start()
    primary.workload = workload
    replica_dir = str(tmp_path / "replica-wal")

    def fresh_replica():
        replica = ReplicaServer(
            primary=primary.address,
            factory=bootstrap_factory,
            wal_dir=replica_dir,
        )
        replica.amos.storage.snapshot_history = HISTORY
        replica.start()
        return replica

    replica = fresh_replica()
    published = {}  # epoch -> snapshot_extensions() on the primary
    try:
        for op in ops:
            if op[0] == "kill":
                replica.stop()
                replica = fresh_replica()
                continue
            # the engine lock stands in for the server's commit path:
            # same serialization, same auto_publish, same WAL listeners
            with primary._engine_lock:
                wal_visible = apply_op(workload, op)
                epoch = workload.amos.storage.snapshot_epoch
                if wal_visible:
                    published[epoch] = workload.amos.snapshot_extensions()
        # one final commit so convergence has a definite target even if
        # the tail of the sequence was pure churn
        with primary._engine_lock:
            apply_op(workload, ("txn", 0, 180))
            final_epoch = workload.amos.storage.snapshot_epoch
            published[final_epoch] = workload.amos.snapshot_extensions()

        converge(replica, primary)

        amos_r = replica.amos
        assert amos_r.storage.snapshot_epoch == final_epoch
        assert amos_r.snapshot_extensions() == published[final_epoch]
        assert (
            amos_r.storage.monitored_relations()
            == workload.amos.storage.monitored_relations()
        )
        assert (
            amos_r.rules.active_rules() == workload.amos.rules.active_rules()
        )

        # every epoch the replica ever published must be one the
        # primary published with a WAL-visible commit, bit-for-bit
        replica_epochs = [
            epoch for epoch in amos_r.storage.snapshot_epochs() if epoch > 1
        ]
        assert replica_epochs, "replica published no post-bootstrap epochs"
        for epoch in replica_epochs:
            assert epoch in published, (
                f"replica published epoch {epoch} the primary never "
                f"shipped (WAL-visible epochs: {sorted(published)})"
            )
            assert fingerprint(amos_r.storage.snapshot_at(epoch)) == (
                published[epoch]
            ), f"state divergence at shared epoch {epoch}"

        # the replica read path serves the converged state
        with AmosClient(*replica.address) as reader:
            rows = reader.query_ro(
                "select q for each item i, integer q where quantity(i) = q"
            )
            assert rows
            assert reader.last_ro_epoch == final_epoch
    finally:
        replica.stop()
        primary.stop()
