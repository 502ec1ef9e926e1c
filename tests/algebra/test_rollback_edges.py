"""Logical-rollback edge cases at the transaction level.

Two corners of the paper's ``S_old = (S_new ∪ Δ-S) − Δ+S`` formula are
easy to get wrong and are pinned down here:

* **delta-union cancellation** — the same tuple inserted *and* deleted
  within one transaction must net to no logical event at all, so the
  check phase sees no change and ``S_old`` equals ``S_new``;
* **empty-at-start relations** — a relation that held no rows when the
  transaction began must reconstruct to the *empty* old state however
  many rows the transaction inserted, including through patched index
  lookups.
"""

import pytest

from repro.algebra.delta import DeltaSet, rollback_delta
from repro.algebra.oldstate import OldStateView
from repro.storage.database import Database


@pytest.fixture
def db():
    database = Database()
    database.create_relation("r", 2)
    database.monitor("r")
    return database


class TestSameTupleInsertedAndDeleted:
    def test_insert_then_delete_nets_to_nothing(self, db):
        db.begin()
        db.insert("r", (1, 1))
        db.delete("r", (1, 1))
        assert db.delta_of("r").empty
        assert not db.has_pending_changes()
        assert db.peek_deltas() == {}
        # S_old computed from the (empty) delta equals S_new
        old = OldStateView(db, db.peek_deltas())
        assert old.rows("r") == db.relation("r").rows() == frozenset()
        db.commit()

    def test_delete_then_reinsert_of_existing_row_nets_to_nothing(self, db):
        db.insert("r", (1, 1))
        db.begin()
        db.delete("r", (1, 1))
        db.insert("r", (1, 1))
        assert db.delta_of("r").empty
        old = OldStateView(db, db.peek_deltas())
        assert old.rows("r") == frozenset({(1, 1)})
        db.commit()

    def test_insert_delete_insert_nets_to_one_insertion(self, db):
        db.begin()
        db.insert("r", (1, 1))
        db.delete("r", (1, 1))
        db.insert("r", (1, 1))
        assert db.delta_of("r") == DeltaSet({(1, 1)}, set())
        old = OldStateView(db, db.peek_deltas())
        assert old.rows("r") == frozenset()
        db.commit()

    def test_check_phase_hook_sees_cancelled_transaction_as_quiet(self, db):
        seen = []
        db.add_check_hook(lambda d: seen.append(d.peek_deltas()))
        db.begin()
        db.insert("r", (5, 5))
        db.delete("r", (5, 5))
        db.commit()
        assert seen == [{}]

    def test_cancellation_is_per_tuple_not_per_transaction(self, db):
        db.begin()
        db.insert("r", (1, 1))
        db.insert("r", (2, 2))
        db.delete("r", (1, 1))
        assert db.delta_of("r") == DeltaSet({(2, 2)}, set())
        db.commit()


class TestEmptyAtTransactionStart:
    def test_s_old_is_empty_after_inserts(self, db):
        db.begin()
        db.insert("r", (1, 1))
        db.insert("r", (2, 2))
        old = OldStateView(db, db.peek_deltas())
        assert old.rows("r") == frozenset()
        assert len(old.relation("r")) == 0
        assert not old.contains("r", (1, 1))
        assert db.relation("r").rows() == frozenset({(1, 1), (2, 2)})
        db.commit()

    def test_s_old_lookup_patches_index_to_empty(self, db):
        db.relation("r").create_index([0])
        db.begin()
        db.insert("r", (1, 1))
        old = OldStateView(db, db.peek_deltas())
        # the live index finds the row; the old view must hide it
        assert old.lookup("r", (0,), (1,)) == frozenset()
        db.commit()

    def test_insert_then_delete_in_empty_relation(self, db):
        db.begin()
        db.insert("r", (1, 1))
        db.delete("r", (1, 1))
        old = OldStateView(db, db.peek_deltas())
        assert old.rows("r") == frozenset()
        assert db.relation("r").rows() == frozenset()
        db.commit()

    def test_physical_rollback_restores_the_empty_state(self, db):
        db.begin()
        db.insert("r", (1, 1))
        db.insert("r", (2, 2))
        db.rollback()
        assert db.relation("r").rows() == frozenset()
        assert db.delta_of("r").empty  # accumulators discarded too

    def test_rollback_delta_formula_on_empty_old_state(self):
        new_state = frozenset({(1, 1), (2, 2)})
        delta = DeltaSet({(1, 1), (2, 2)}, set())
        assert rollback_delta(new_state, delta) == frozenset()
