"""Unit tests for the Database: transactions, rollback, delta accumulation."""

import pytest

from repro.algebra.delta import DeltaSet
from repro.amos.database import AmosDatabase
from repro.errors import (
    DuplicateRelationError,
    TransactionError,
    UnknownRelationError,
)
from repro.storage.database import Database


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", 2)
    return database


class TestCatalog:
    def test_create_and_fetch(self, db):
        assert db.relation("r").arity == 2
        assert db.has_relation("r")
        assert not db.has_relation("s")

    def test_duplicate_rejected(self, db):
        with pytest.raises(DuplicateRelationError):
            db.create_relation("r", 3)

    def test_unknown_rejected(self, db):
        with pytest.raises(UnknownRelationError):
            db.relation("nope")

    def test_drop(self, db):
        db.drop_relation("r")
        assert not db.has_relation("r")
        with pytest.raises(UnknownRelationError):
            db.drop_relation("r")


class TestImplicitTransactions:
    def test_insert_outside_transaction_commits(self, db):
        assert db.insert("r", (1, 2)) is True
        assert (1, 2) in db.relation("r")
        assert not db.in_transaction

    def test_duplicate_insert_reports_no_change(self, db):
        db.insert("r", (1, 2))
        assert db.insert("r", (1, 2)) is False

    def test_delete_missing_reports_no_change(self, db):
        assert db.delete("r", (9, 9)) is False


class TestExplicitTransactions:
    def test_commit_keeps_changes(self, db):
        db.begin()
        db.insert("r", (1, 2))
        db.commit()
        assert (1, 2) in db.relation("r")

    def test_rollback_undoes_changes(self, db):
        db.insert("r", (0, 0))
        db.begin()
        db.insert("r", (1, 2))
        db.delete("r", (0, 0))
        db.rollback()
        assert (0, 0) in db.relation("r")
        assert (1, 2) not in db.relation("r")

    def test_rollback_restores_exact_state_after_mixed_ops(self, db):
        db.insert("r", (1, 1))
        before = db.relation("r").rows()
        db.begin()
        db.insert("r", (2, 2))
        db.delete("r", (2, 2))
        db.delete("r", (1, 1))
        db.insert("r", (1, 1))
        db.insert("r", (3, 3))
        db.rollback()
        assert db.relation("r").rows() == before

    def test_nested_begin_rejected(self, db):
        db.begin()
        with pytest.raises(TransactionError):
            db.begin()
        db.rollback()

    def test_commit_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.commit()

    def test_rollback_without_begin_rejected(self, db):
        with pytest.raises(TransactionError):
            db.rollback()

    def test_context_manager_commits(self, db):
        with db.transaction():
            db.insert("r", (1, 2))
        assert (1, 2) in db.relation("r")

    def test_context_manager_rolls_back_on_error(self, db):
        with pytest.raises(ValueError):
            with db.transaction():
                db.insert("r", (1, 2))
                raise ValueError("boom")
        assert (1, 2) not in db.relation("r")

    def test_log_truncated_after_commit(self, db):
        committed = []
        db.add_commit_listener(committed.append)
        with db.transaction():
            db.insert("r", (1, 2))
        with db.transaction():
            db.insert("r", (3, 4))
            db.insert("r", (5, 6))
            db.delete("r", (5, 6))
        first, second = committed
        assert first.deltas == {"r": DeltaSet([(1, 2)])}
        # only the second transaction's net rows; its raw events counted
        assert second.deltas == {"r": DeltaSet([(3, 4)])}
        assert second.events == 3


class TestDeltaAccumulation:
    def test_unmonitored_relation_accumulates_nothing(self, db):
        db.begin()
        db.insert("r", (1, 2))
        assert db.peek_deltas() == {}
        db.commit()

    def test_monitored_insert_and_delete(self, db):
        db.monitor("r")
        db.begin()
        db.insert("r", (1, 2))
        delta = db.delta_of("r")
        assert delta.plus == {(1, 2)}
        db.delete("r", (1, 2))
        assert db.delta_of("r").empty  # logical cancellation
        db.commit()

    def test_paper_min_stock_update_counter_update(self, db):
        """Section 4.1: set twice back to the original value -> empty delta."""
        db.monitor("r")
        db.insert("r", ("item1", 100))
        db.begin()
        # set min_stock(:item1) = 150
        db.delete("r", ("item1", 100))
        db.insert("r", ("item1", 150))
        assert db.delta_of("r").plus == {("item1", 150)}
        assert db.delta_of("r").minus == {("item1", 100)}
        # set min_stock(:item1) = 100
        db.delete("r", ("item1", 150))
        db.insert("r", ("item1", 100))
        assert db.delta_of("r").empty
        db.commit()

    def test_take_deltas_clears(self, db):
        db.monitor("r")
        db.begin()
        db.insert("r", (1, 2))
        taken = db.take_deltas()
        assert taken["r"].plus == {(1, 2)}
        assert db.peek_deltas() == {}
        db.commit()

    def test_rollback_clears_deltas(self, db):
        db.monitor("r")
        db.begin()
        db.insert("r", (1, 2))
        db.rollback()
        assert db.peek_deltas() == {}

    def test_monitor_is_reference_counted(self, db):
        db.monitor("r")
        db.monitor("r")
        db.unmonitor("r")
        assert db.is_monitored("r")
        db.unmonitor("r")
        assert not db.is_monitored("r")


class TestCheckHooks:
    def test_hook_runs_before_commit_completes(self, db):
        seen = []
        db.add_check_hook(lambda database: seen.append(database.peek_deltas()))
        db.monitor("r")
        with db.transaction():
            db.insert("r", (1, 2))
        assert seen and seen[0]["r"].plus == {(1, 2)}

    def test_failing_hook_rolls_back(self, db):
        def hook(database):
            raise RuntimeError("condition check failed")

        db.add_check_hook(hook)
        db.begin()
        db.insert("r", (1, 2))
        with pytest.raises(RuntimeError):
            db.commit()
        assert (1, 2) not in db.relation("r")
        assert not db.in_transaction

    def test_remove_hook(self, db):
        seen = []
        hook = lambda database: seen.append(1)  # noqa: E731
        db.add_check_hook(hook)
        db.remove_check_hook(hook)
        with db.transaction():
            db.insert("r", (1, 2))
        assert seen == []

    def test_statistics(self, db):
        with db.transaction():
            db.insert("r", (1, 2))
        stats = db.statistics
        assert stats["transactions"] == 1
        assert stats["events"] == 1


class TestDropInsideTransaction:
    """Dropping a relation discards its share of the transaction Δ."""

    @staticmethod
    def make_amos():
        amos = AmosDatabase()
        amos.create_type("node")
        amos.create_stored_function("f", ("node",), ("integer",))
        return amos

    def test_recovery_does_not_resurrect_a_relation_dropped_in_the_commit(
        self, tmp_path
    ):
        live = self.make_amos()
        live.open_wal(str(tmp_path))
        node = live.create_object("node")
        live.begin()
        live.set_value("f", (node,), 5)
        live.drop_function("f")
        live.commit()
        live.detach_wal()
        recovered = self.make_amos()
        recovered.open_wal(str(tmp_path))
        recovered.detach_wal()
        assert recovered.snapshot_extensions() == live.snapshot_extensions()
        assert not recovered.storage.has_relation("f")

    def test_rollback_after_dropping_a_written_relation(self):
        amos = self.make_amos()
        node = amos.create_object("node")
        amos.begin()
        amos.set_value("f", (node,), 5)
        amos.drop_function("f")
        amos.rollback()
        assert not amos.storage.in_transaction
        assert not amos.storage.has_relation("f")
        assert amos.objects_of("node") == {node}
