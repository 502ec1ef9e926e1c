"""``Database.apply_committed`` ≡ executing the transaction (ISSUE 19).

The net Δ-map a commit listener sees (``CommittedTransaction.deltas`` —
what the WAL logs, the stream ships and the pool backlog holds) is a
complete description of the commit: applying it to a copy beneath the
transaction / rule machinery reproduces the state, rule-action effects
included, at the same epoch; applying it again changes nothing.  A
transaction that rolls back, or aborts in its check phase, is one that
never ran: no listener fires and the copy, which applies nothing, still
equals the live database.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.delta import DeltaSet
from repro.amosql.interpreter import AmosqlEngine
from repro.errors import SnapshotEpochError
from repro.storage.database import Database
from tests.conftest import assert_indexes_agree_with_scans

SCHEMA = """
create type node;
create function f(node) -> integer;
create function g(node) -> integer;
create function h(node) -> integer;
create rule ra() as
    when for each node n where f(n) > 0
    do bump(n);
activate ra();
create rule rb() as
    when for each node n where h(n) > 0
    do boom(n);
activate rb();
create node instances :a, :b, :c;
"""


def build():
    engine = AmosqlEngine(mode="incremental")
    amos = engine.amos
    amos.create_procedure(
        "bump", ("node",), lambda n: amos.set_value("g", (n,), amos.value("f", n))
    )
    amos.create_procedure("boom", ("node",), boom)
    engine.execute(SCHEMA)
    amos.storage.auto_publish = True
    amos.storage.publish_snapshot()
    return amos


OPS = st.one_of(
    st.tuples(st.just("set"), st.integers(0, 9), st.integers(-3, 6)),
    st.tuples(st.just("clear"), st.integers(0, 9)),
    st.tuples(st.just("create")),
    st.tuples(st.just("delete"), st.integers(0, 9)),
)


class Boom(Exception):
    pass


def boom(node):
    raise Boom(node)


def execute(amos, op):
    nodes = sorted(amos.objects_of("node"), key=lambda oid: oid.id)
    if op[0] == "create":
        amos.create_object("node")
    elif nodes:
        node = nodes[op[1] % len(nodes)]
        if op[0] == "set":
            amos.set_value("f", (node,), op[2])
        elif op[0] == "clear":
            amos.clear_value("f", (node,))
        else:
            amos.delete_object(node)


ENDINGS = st.sampled_from(["commit", "rollback", "abort"])


@settings(max_examples=60, deadline=None)
@given(
    transactions=st.lists(
        st.tuples(st.lists(OPS, max_size=6), ENDINGS), min_size=1, max_size=6
    )
)
def test_applying_the_committed_deltas_is_executing_the_transaction(transactions):
    live, copy = build(), build()
    committed = []
    live.storage.add_commit_listener(committed.append)
    for ops, ending in transactions:
        live.begin()
        for op in ops:
            execute(live, op)
        if ending == "rollback":
            live.rollback()
        elif ending == "abort":
            # a fresh node entering rb's condition: its action raises
            live.set_value("h", (live.create_object("node"),), 1)
            with pytest.raises(Boom):
                live.commit()
        else:
            live.commit()
        if ending != "commit":
            assert committed == []
            assert copy.snapshot_extensions() == live.snapshot_extensions()
            assert_indexes_agree_with_scans(live.storage)
            continue
        (commit,) = committed
        committed.clear()
        net_rows = sum(len(d.plus) + len(d.minus) for d in commit.deltas.values())
        assert copy.storage.apply_committed(commit.deltas, commit.epoch) == net_rows
        assert copy.snapshot_extensions() == live.snapshot_extensions()
        assert copy.snapshot_epoch == live.snapshot_epoch
        # idempotent under set semantics: a second application is a no-op
        assert copy.storage.apply_committed(commit.deltas, commit.epoch) == 0
        assert copy.snapshot_extensions() == live.snapshot_extensions()
        assert copy.snapshot_epoch == live.snapshot_epoch


class TestApplyCommittedEdges:
    def test_minus_before_plus_and_missing_relations(self):
        db = Database()
        db.create_relation("p", 2).insert((1, 10))
        applied = db.apply_committed(
            {
                "p": DeltaSet([(1, 20)], [(1, 10)]),
                "fresh": DeltaSet([("x",)], []),  # not in the bootstrap
                "empty": DeltaSet(),  # nothing to size a relation from
            }
        )
        assert applied == 3
        assert set(db.relation("p").rows()) == {(1, 20)}
        assert set(db.relation("fresh").rows()) == {("x",)}
        assert not db.has_relation("empty")
        assert db.snapshot_epoch == 0  # no epoch given: nothing published

    def test_missing_relation_under_auto_publish_mints_no_epoch_of_its_own(self):
        db = Database()
        db.auto_publish = True
        db.create_relation("p", 1)
        ring = db.snapshot_epochs()
        seen = []
        db.add_catalog_listener(
            lambda kind, relation: seen.append((kind, relation.name, db.snapshot_epoch))
        )
        db.apply_committed({"fresh": DeltaSet([("x",), ("y",)], [])}, epoch=7)
        # exactly one new ring entry, at the record's epoch, rows present
        assert db.snapshot_epochs() == ring + (7,)
        assert db.snapshot().rows("fresh") == frozenset({("x",), ("y",)})
        assert not db.snapshot_at(ring[-1]).has_relation("fresh")
        # the relation was created through the catalog, unpublished
        assert seen == [("create", "fresh", ring[-1])]
        assert db.auto_publish is True

    def test_explicit_epoch_publishes_exactly_there_and_only_forward(self):
        db = Database()
        db.create_relation("p", 1)
        db.apply_committed({"p": DeltaSet([(1,)], [])}, epoch=7)
        assert db.snapshot_epoch == 7
        assert db.snapshot().rows("p") == frozenset({(1,)})
        # a churn commit moves the epoch although no row changed
        db.apply_committed({}, epoch=9)
        assert db.snapshot_epochs()[-2:] == (7, 9)
        # a record at or behind the published epoch applies, never republishes
        db.apply_committed({"p": DeltaSet([(2,)], [])}, epoch=9)
        assert db.snapshot_epoch == 9
        assert db.snapshot().rows("p") == frozenset({(1,)})
        # the plain publisher continues from the restored epoch
        assert db.publish_snapshot().epoch == 10
        with pytest.raises(SnapshotEpochError):
            db.restore_epoch(10)
