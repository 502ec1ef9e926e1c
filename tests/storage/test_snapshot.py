"""Unit tests for versioned snapshots: COW sharing, epochs, publication."""

import pytest

from repro.algebra.delta import RowSet
from repro.errors import SnapshotEpochError, UnknownRelationError
from repro.obs import metrics
from repro.storage import Database, DatabaseSnapshot, SnapshotView


def make_db(auto_publish=False):
    db = Database()
    db.auto_publish = auto_publish
    db.create_relation("a", 2)
    db.create_relation("b", 1)
    return db


class TestRelationFreeze:
    def test_freeze_is_cached_until_mutation(self):
        db = make_db()
        relation = db.relation("a")
        db.insert("a", (1, 2))
        first = relation.freeze()
        assert first.rows() == frozenset({(1, 2)})
        assert relation.freeze() is first  # cached, no copy
        assert relation.rows() is first.rows()
        assert relation.has_fresh_snapshot
        db.insert("a", (3, 4))
        assert not relation.has_fresh_snapshot
        second = relation.freeze()
        assert second.rows() == frozenset({(1, 2), (3, 4)})
        assert second is not first
        assert first.rows() == frozenset({(1, 2)})  # old table untouched

    def test_version_bumps_on_real_changes_only(self):
        db = make_db()
        relation = db.relation("a")
        v0 = relation.version
        db.insert("a", (1, 2))
        assert relation.version == v0 + 1
        # duplicate insert is a set-semantics no-op: no version bump
        relation.insert((1, 2))
        assert relation.version == v0 + 1
        relation.delete((9, 9))  # absent: no-op
        assert relation.version == v0 + 1
        db.delete("a", (1, 2))
        assert relation.version == v0 + 2

    def test_clear_on_empty_relation_keeps_version(self):
        db = make_db()
        relation = db.relation("a")
        v0 = relation.version
        relation.clear()
        assert relation.version == v0


class TestPublishSnapshot:
    def test_epoch_advances_only_when_state_changed(self):
        db = make_db()
        first = db.publish_snapshot()
        assert first.epoch == 1
        again = db.publish_snapshot()
        assert again is first  # nothing changed: same object, same epoch
        db.insert("a", (1, 2))
        second = db.publish_snapshot()
        assert second.epoch == 2
        assert second.rows("a") == frozenset({(1, 2)})

    def test_unchanged_relations_share_frozensets_across_epochs(self):
        db = make_db()
        db.insert("a", (1, 2))
        db.insert("b", (7,))
        first = db.publish_snapshot()
        db.insert("a", (3, 4))
        second = db.publish_snapshot()
        # copy-on-write: only the dirty relation was refrozen
        assert second.rows("b") is first.rows("b")
        assert second.rows("a") is not first.rows("a")
        assert first.rows("a") == frozenset({(1, 2)})

    def test_clean_relation_carries_its_indexes_across_epochs(self):
        db = Database()
        db.create_relation("min_stock", 2).bulk_insert(
            [(item, 100 + item) for item in range(50)]
        )
        db.create_relation("quantity", 2).bulk_insert(
            [(item, 500) for item in range(50)]
        )
        before = db.publish_snapshot()
        with metrics.collecting() as reg:
            view = SnapshotView(before)
            assert view.lookup("min_stock", (0,), (7,)) == {(7, 107)}
            assert view.lookup("quantity", (0,), (7,)) == {(7, 500)}
            assert reg.value("rowset.indexes_built") == 2
            # a commit that touches quantity only
            db.begin()
            db.delete("quantity", (7, 500))
            db.insert("quantity", (7, 120))
            db.commit()
            after = db.publish_snapshot()
            assert after.epoch == before.epoch + 1
            # the clean relation's table is the SAME object, so the
            # index the first reader built answers the next epoch's
            assert after.table("min_stock") is before.table("min_stock")
            view = SnapshotView(after)
            assert view.lookup("min_stock", (0,), (7,)) == {(7, 107)}
            assert reg.value("rowset.indexes_built") == 2
            # the dirty relation's table is new and indexes itself again
            assert after.table("quantity") is not before.table("quantity")
            assert view.lookup("quantity", (0,), (7,)) == {(7, 120)}
            assert reg.value("rowset.indexes_built") == 3
        assert SnapshotView(before).lookup("quantity", (0,), (7,)) == {(7, 500)}

    def test_no_publication_inside_a_transaction(self):
        db = make_db()
        before = db.publish_snapshot()
        db.begin()
        db.insert("a", (1, 2))
        # a mid-transaction publish returns the last published snapshot
        assert db.publish_snapshot() is before
        assert db.snapshot() is before
        db.commit()
        after = db.publish_snapshot()
        assert after.epoch == before.epoch + 1
        assert after.rows("a") == frozenset({(1, 2)})

    def test_auto_publish_on_commit_and_rollback(self):
        db = make_db(auto_publish=True)
        db.begin()
        db.insert("a", (1, 2))
        db.commit()
        committed = db.snapshot()
        assert committed.rows("a") == frozenset({(1, 2)})
        db.begin()
        db.insert("a", (3, 4))
        db.rollback()
        rolled = db.snapshot()
        # rollback restored the state; content equals the committed one
        assert rolled.rows("a") == frozenset({(1, 2)})

    def test_auto_publish_on_ddl(self):
        db = Database()
        db.auto_publish = True
        db.create_relation("t", 1)
        assert db.snapshot().has_relation("t")
        db.drop_relation("t")
        assert not db.snapshot().has_relation("t")

    def test_rolled_back_creation_does_not_leak_into_snapshot(self):
        db = make_db(auto_publish=True)
        db.insert("a", (1, 2))
        epoch = db.snapshot_epoch
        db.begin()
        db.insert("a", (5, 6))
        db.insert("b", (9,))
        db.rollback()
        snap = db.snapshot()
        assert snap.rows("a") == frozenset({(1, 2)})
        assert snap.rows("b") == frozenset()
        assert snap.epoch >= epoch

    def test_publish_metrics(self):
        db = make_db()
        db.insert("a", (1, 2))
        with metrics.collecting() as reg:
            snap = db.publish_snapshot()
            db.publish_snapshot()  # no-op: nothing changed
        assert reg.value("snapshot.publishes") == 1
        assert reg.gauges()["snapshot.epoch"]["value"] == snap.epoch


class TestDatabaseSnapshot:
    def test_reads(self):
        # the constructor wraps plain row sets into self-indexing tables
        snap = DatabaseSnapshot(
            3, {"a": frozenset({(1, 2), (1, 3)}), "b": frozenset()}
        )
        assert snap.epoch == 3
        assert snap.relation_names() == ["a", "b"]
        table = snap.table("a")
        assert isinstance(table, RowSet)
        assert len(table) == 2
        assert (1, 2) in table
        assert (9, 9) not in table
        assert snap.rows("a") is table.rows()
        assert snap.total_rows() == 2
        # a table handed in as a RowSet is kept, not copied
        assert DatabaseSnapshot(4, {"a": table}).table("a") is table
        with pytest.raises(UnknownRelationError):
            snap.rows("missing")
        with pytest.raises(UnknownRelationError):
            snap.table("missing")

    def test_lookup_builds_and_reuses_an_index(self):
        snap = DatabaseSnapshot(
            1, {"a": frozenset({(1, 2), (1, 3), (2, 2)})}
        )
        view = SnapshotView(snap)
        with metrics.collecting() as reg:
            assert view.lookup("a", (0,), (1,)) == frozenset({(1, 2), (1, 3)})
            assert view.lookup("a", (0,), (5,)) == frozenset()
            assert view.lookup("a", (1,), (2,)) == frozenset({(1, 2), (2, 2)})
            assert view.lookup("a", (1,), (3,)) == frozenset({(1, 3)})
        # built once per column set, owned by the table itself
        assert reg.value("rowset.indexes_built") == 2
        table = snap.table("a")
        assert table.prober((0,)) is table.prober((0,))
        assert table.prober((0,)) is not table.prober((1,))

    def test_snapshot_view_is_a_state_view(self):
        db = make_db()
        db.relation("a").bulk_insert([(k, k % 3) for k in range(20)])
        view = SnapshotView(db.publish_snapshot())
        assert view.state == "new"
        assert view.relation("a") is view.snapshot.table("a")
        assert view.rows("a") == frozenset((k, k % 3) for k in range(20))
        assert view.contains("a", (1, 1))
        assert len(view.relation("a")) == 20
        assert view.lookup("a", (0,), (4,)) == frozenset({(4, 1)})
        assert set(view.prober("a", (1,))((0,))) == {
            (k, 0) for k in range(0, 20, 3)
        }
        # reads of a snapshot never touch the live relation: no index
        # was built on it, and it may change freely underneath
        assert db.relation("a").indexes == {}
        db.delete("a", (4, 1))
        assert view.lookup("a", (0,), (4,)) == frozenset({(4, 1)})
        assert view.contains("a", (4, 1))

    def test_snapshot_is_isolated_from_later_writes(self):
        db = make_db()
        db.insert("a", (1, 2))
        snap = db.publish_snapshot()
        db.insert("a", (3, 4))
        db.delete("a", (1, 2))
        assert snap.rows("a") == frozenset({(1, 2)})


class TestSnapshotHistory:
    """The bounded epoch ring behind ``query_ro(epoch=...)``."""

    def publish_epochs(self, db, n):
        """Publish ``n`` distinct epochs; returns the published list."""
        published = []
        for value in range(n):
            db.insert("a", (value, value))
            published.append(db.publish_snapshot())
        return published

    def test_defaults(self):
        db = make_db()
        assert db.snapshot_history == 8

    def test_ring_keeps_the_last_k_epochs_addressable(self):
        db = make_db()
        db.snapshot_history = 3
        published = self.publish_epochs(db, 5)
        assert db.snapshot_epochs() == (3, 4, 5)
        for snap in published[-3:]:
            assert db.snapshot_at(snap.epoch) is snap

    def test_evicted_epoch_raises_with_the_addressable_window(self):
        db = make_db()
        db.snapshot_history = 2
        self.publish_epochs(db, 4)
        with pytest.raises(SnapshotEpochError, match="evicted"):
            db.snapshot_at(1)
        with pytest.raises(SnapshotEpochError, match="3..4"):
            db.snapshot_at(2)

    def test_future_epoch_raises_not_yet_published(self):
        db = make_db()
        self.publish_epochs(db, 2)
        with pytest.raises(SnapshotEpochError, match="not been published"):
            db.snapshot_at(99)

    def test_history_of_one_keeps_only_the_latest(self):
        db = make_db()
        db.snapshot_history = 1
        published = self.publish_epochs(db, 3)
        assert db.snapshot_epochs() == (3,)
        assert db.snapshot_at(3) is published[-1]
        with pytest.raises(SnapshotEpochError):
            db.snapshot_at(2)

    def test_noop_publish_does_not_grow_the_ring(self):
        db = make_db()
        self.publish_epochs(db, 2)
        before = db.snapshot_epochs()
        db.publish_snapshot()  # nothing changed: same snapshot object
        assert db.snapshot_epochs() == before

    def test_pinned_snapshot_survives_eviction(self):
        # the ring bounds ADDRESSABILITY, not lifetime: a reader that
        # already holds a snapshot keeps reading it lock-free
        db = make_db()
        db.snapshot_history = 1
        (first, *_rest) = self.publish_epochs(db, 3)
        with pytest.raises(SnapshotEpochError):
            db.snapshot_at(first.epoch)
        assert first.rows("a") == frozenset({(0, 0)})


class TestSnapshotHistoryBoundaries:
    """Satellite coverage: the exact edges of the addressable window."""

    def publish_epochs(self, db, n):
        published = []
        for value in range(n):
            db.insert("a", (value, value))
            published.append(db.publish_snapshot())
        return published

    def test_epoch_exactly_at_the_window_edge_is_addressable(self):
        db = make_db()
        db.snapshot_history = 4
        self.publish_epochs(db, 10)
        oldest = db.snapshot_epochs()[0]
        assert oldest == 7  # epochs 7..10 addressable with history 4
        assert db.snapshot_at(oldest).epoch == oldest  # edge: succeeds
        with pytest.raises(SnapshotEpochError):
            db.snapshot_at(oldest - 1)  # one past the edge: evicted
        latest = db.snapshot_epochs()[-1]
        assert db.snapshot_at(latest).epoch == latest
        with pytest.raises(SnapshotEpochError):
            db.snapshot_at(latest + 1)  # one past the other edge

    def test_eviction_error_names_the_exact_addressable_window(self):
        db = make_db()
        db.snapshot_history = 3
        self.publish_epochs(db, 6)
        with pytest.raises(SnapshotEpochError) as info:
            db.snapshot_at(2)
        message = str(info.value)
        assert "4..6" in message  # the window, precisely
        assert "history size 3" in message

    def test_future_error_names_the_latest_epoch(self):
        db = make_db()
        self.publish_epochs(db, 3)
        with pytest.raises(SnapshotEpochError) as info:
            db.snapshot_at(50)
        assert "latest is 3" in str(info.value)

    def test_pinned_reads_across_a_history_evicting_commit_storm(self):
        # a reader pins one epoch, then a storm of commits evicts it
        # from the ring; the PINNED OBJECT keeps answering consistently
        # even though snapshot_at() for its epoch now fails
        db = make_db()
        db.snapshot_history = 2
        db.insert("a", (0, 0))
        pinned = db.publish_snapshot()
        pinned_rows = pinned.rows("a")
        for value in range(1, 40):  # storm: 39 evicting publications
            db.insert("a", (value, value))
            db.publish_snapshot()
        assert pinned.epoch not in db.snapshot_epochs()
        with pytest.raises(SnapshotEpochError, match="evicted"):
            db.snapshot_at(pinned.epoch)
        # the pinned snapshot is frozen at its epoch: same object, same
        # content, no torn reads, regardless of 39 later commits
        assert pinned.rows("a") is pinned_rows
        assert pinned.rows("a") == frozenset({(0, 0)})
        assert db.snapshot().rows("a") != pinned_rows

    def test_shrinking_history_trims_on_next_publication(self):
        db = make_db()
        db.snapshot_history = 8
        self.publish_epochs(db, 6)
        assert db.snapshot_epochs() == (0, 1, 2, 3, 4, 5, 6)
        db.snapshot_history = 2
        db.insert("a", (99, 99))
        db.publish_snapshot()
        assert db.snapshot_epochs() == (6, 7)

    def test_restore_epoch_refuses_to_move_backwards(self):
        db = make_db()
        self.publish_epochs(db, 3)
        with pytest.raises(SnapshotEpochError, match="only move forward"):
            db.restore_epoch(2)
        db.restore_epoch(9)
        assert db.snapshot_epoch == 9
        assert db.snapshot_epochs()[-1] == 9
