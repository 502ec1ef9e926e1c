"""Tests for logical-rollback state views."""

import pytest

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView, OldStateView, RolledBack
from repro.storage.database import Database


@pytest.fixture
def db():
    database = Database()
    r = database.create_relation("r", 2)
    r.bulk_insert([(1, 1), (2, 2), (3, 3)])
    return database


class TestNewStateView:
    def test_rows_and_contains(self, db):
        view = NewStateView(db)
        assert view.rows("r") == {(1, 1), (2, 2), (3, 3)}
        assert view.contains("r", (1, 1))
        assert not view.contains("r", (9, 9))

    def test_lookup(self, db):
        view = NewStateView(db)
        assert view.lookup("r", (0,), (2,)) == {(2, 2)}

    def test_auto_index_creation(self, db):
        relation = db.relation("r")
        relation.bulk_insert([(i, i) for i in range(4, 20)])
        view = NewStateView(db)
        assert relation.index_on((1,)) is None
        view.lookup("r", (1,), (5,))
        assert relation.index_on((1,)) is not None

    def test_cardinality(self, db):
        view = NewStateView(db)
        assert len(view.relation("r")) == 3
        # the new state of a relation IS the live relation
        assert view.relation("r") is db.relation("r")


class TestOldStateView:
    def test_rollback_semantics(self, db):
        # transaction: +(4,4), -(1,1)
        db.relation("r").insert((4, 4))
        db.relation("r").delete((1, 1))
        old = OldStateView(db, {"r": DeltaSet({(4, 4)}, {(1, 1)})})
        assert old.rows("r") == {(1, 1), (2, 2), (3, 3)}

    def test_contains(self, db):
        db.relation("r").insert((4, 4))
        db.relation("r").delete((1, 1))
        old = OldStateView(db, {"r": DeltaSet({(4, 4)}, {(1, 1)})})
        assert old.contains("r", (1, 1))  # deleted now, present before
        assert not old.contains("r", (4, 4))  # inserted now, absent before
        assert old.contains("r", (2, 2))

    def test_lookup_patches_index_result(self, db):
        db.relation("r").create_index([0])
        db.relation("r").insert((4, 4))
        db.relation("r").delete((1, 1))
        old = OldStateView(db, {"r": DeltaSet({(4, 4)}, {(1, 1)})})
        assert old.lookup("r", (0,), (1,)) == {(1, 1)}
        assert old.lookup("r", (0,), (4,)) == frozenset()
        assert old.lookup("r", (0,), (2,)) == {(2, 2)}

    def test_unchanged_relation_passthrough(self, db):
        old = OldStateView(db, {})
        assert old.rows("r") == NewStateView(db).rows("r")
        # untouched by the delta map: the old state IS the live relation
        assert old.relation("r") is db.relation("r")
        assert OldStateView(db, {"r": DeltaSet()}).relation("r") is db.relation("r")

    def test_rows_cached(self, db):
        db.relation("r").delete((1, 1))
        old = OldStateView(db, {"r": DeltaSet(set(), {(1, 1)})})
        first = old.rows("r")
        assert old.rows("r") is first

    def test_cardinality_under_change(self, db):
        db.relation("r").insert((4, 4))
        old = OldStateView(db, {"r": DeltaSet({(4, 4)}, frozenset())})
        rolled = old.relation("r")
        assert isinstance(rolled, RolledBack)
        assert old.relation("r") is rolled  # one object per view and relation
        assert len(rolled) == 3
        assert len(NewStateView(db).relation("r")) == 4
