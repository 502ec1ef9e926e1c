"""Tests for data persistence."""

import pytest

from repro.amos.oid import OID
from repro.errors import StorageError, TransactionError
from repro.storage import persistence
from repro.storage.database import Database


class TestStoragePersistence:
    def make_db(self):
        db = Database()
        db.create_relation("q", 2, ["key", "value"])
        db.create_relation("tagged", 2)
        db.insert("q", (1, "one"))
        db.insert("q", (2, "two"))
        db.insert("tagged", (OID(3, "item"), True))
        return db

    def test_dump_restore_roundtrip(self):
        source = self.make_db()
        snapshot = persistence.dump(source)
        target = Database()
        target.create_relation("q", 2, ["key", "value"])
        target.create_relation("tagged", 2)
        loaded = persistence.restore(target, snapshot)
        assert loaded == 3
        assert target.relation("q").rows() == source.relation("q").rows()
        assert target.relation("tagged").rows() == source.relation("tagged").rows()

    def test_oids_preserved(self):
        snapshot = persistence.dump(self.make_db())
        target = Database()
        target.create_relation("q", 2)
        target.create_relation("tagged", 2)
        persistence.restore(target, snapshot)
        (row,) = target.relation("tagged").rows()
        assert isinstance(row[0], OID)
        assert row[0].id == 3 and row[0].type_name == "item"

    def test_restore_replaces_existing_rows(self):
        snapshot = persistence.dump(self.make_db())
        target = self.make_db()
        target.insert("q", (99, "stale"))
        persistence.restore(target, snapshot)
        assert (99, "stale") not in target.relation("q")

    def test_unknown_relation_rejected_unless_created(self):
        snapshot = persistence.dump(self.make_db())
        target = Database()
        with pytest.raises(StorageError):
            persistence.restore(target, snapshot)
        persistence.restore(target, snapshot, create_missing=True)
        assert target.relation("q").column_names == ("key", "value")

    def test_arity_mismatch_rejected(self):
        snapshot = persistence.dump(self.make_db())
        target = Database()
        target.create_relation("q", 3)
        target.create_relation("tagged", 2)
        with pytest.raises(StorageError):
            persistence.restore(target, snapshot)

    def test_unsupported_value_rejected(self):
        db = Database()
        db.create_relation("r", 1)
        db.insert("r", (object(),))
        with pytest.raises(StorageError):
            persistence.dump(db)

    def test_unsupported_value_error_names_relation_and_column(self):
        db = Database()
        db.create_relation("readings", 3)
        db.insert("readings", (1, "fine", frozenset({3})))
        with pytest.raises(StorageError) as info:
            persistence.dump(db)
        message = str(info.value)
        assert "relation 'readings'" in message
        assert "at column 2" in message
        assert "frozenset" in message

    def test_oid_shared_across_relations_round_trips(self):
        """One OID referenced from several relations stays ONE identity."""
        shared = OID(7, "item")
        db = Database()
        db.create_relation("quantity", 2)
        db.create_relation("max_stock", 2)
        db.create_relation("supplies", 2)
        db.insert("quantity", (shared, 120))
        db.insert("max_stock", (shared, 5000))
        db.insert("supplies", (OID(8, "supplier"), shared))

        target = Database()
        persistence.restore(target, persistence.dump(db), create_missing=True)
        ((q_oid, q),) = target.relation("quantity").rows()
        ((m_oid, m),) = target.relation("max_stock").rows()
        ((s_oid, supplied),) = target.relation("supplies").rows()
        assert (q, m) == (120, 5000)
        assert q_oid == m_oid == supplied == shared
        assert q_oid.type_name == supplied.type_name == "item"
        assert s_oid == OID(8, "supplier")

    def test_bad_format_version_rejected(self):
        target = Database()
        with pytest.raises(StorageError):
            persistence.restore(target, {"format": 99, "relations": {}})

    def test_file_roundtrip(self, tmp_path):
        source = self.make_db()
        path = str(tmp_path / "dump.json")
        persistence.save(source, path)
        target = Database()
        loaded = persistence.load(target, path, create_missing=True)
        assert loaded == 3
        assert target.relation("q").rows() == source.relation("q").rows()


class TestAmosPersistence:
    def test_save_load_with_schema_recreation(self, tmp_path):
        from tests.conftest import make_inventory_engine

        engine, _ = make_inventory_engine()
        engine.execute("set quantity(:item1) = 777;")
        path = str(tmp_path / "inventory.json")
        engine.amos.save_data(path)

        fresh, orders = make_inventory_engine()
        fresh.amos.load_data(path)
        item1 = engine.get("item1")
        assert fresh.amos.value("quantity", item1) == 777
        assert fresh.amos.value("threshold", item1) == 140

    def test_oid_counter_advances_past_loaded(self, tmp_path):
        from tests.conftest import make_inventory_engine

        engine, _ = make_inventory_engine()
        path = str(tmp_path / "inventory.json")
        engine.amos.save_data(path)

        fresh, _ = make_inventory_engine()
        fresh.amos.load_data(path)
        loaded_max = max(oid.id for oid in fresh.amos.objects_of("item"))
        new_object = fresh.amos.create_object("item")
        assert new_object.id > loaded_max

    def test_rules_fire_on_reloaded_data(self, tmp_path):
        from tests.conftest import make_inventory_engine

        engine, _ = make_inventory_engine()
        path = str(tmp_path / "inventory.json")
        engine.amos.save_data(path)

        fresh, orders = make_inventory_engine()
        fresh.amos.load_data(path)
        fresh.execute("activate monitor_items();")
        item1 = engine.get("item1")
        fresh.amos.set_value("quantity", (item1,), 100)
        assert orders == [(item1, 4900)]

    def test_load_under_a_wal_survives_a_restart(self, tmp_path):
        """The load is one logged commit: recovery reads what the live
        database reads, at the same epoch."""
        from tests.conftest import make_inventory_engine

        wal_dir = str(tmp_path / "wal")
        engine, _ = make_inventory_engine()
        engine.amos.open_wal(wal_dir)
        item1 = engine.get("item1")
        engine.amos.set_value("quantity", (item1,), 77)
        path = str(tmp_path / "inventory.json")
        engine.amos.save_data(path)
        engine.amos.set_value("quantity", (item1,), 88)
        engine.amos.load_data(path)
        assert engine.amos.value("quantity", item1) == 77
        engine.amos.close()

        recovered, _ = make_inventory_engine()
        recovered.amos.open_wal(wal_dir)
        assert recovered.amos.value("quantity", item1) == 77
        assert recovered.amos.snapshot_extensions() == engine.amos.snapshot_extensions()
        assert recovered.amos.snapshot_epoch == engine.amos.snapshot_epoch
        recovered.amos.close()

    @pytest.mark.parametrize("mode", ["incremental", "naive"])
    def test_load_rebaselines_the_monitoring_engine(self, tmp_path, mode):
        """The next check phase differences against the loaded state: a
        nervous rule does not fire for a row the load put in its
        condition when an unrelated item changes."""
        from tests.conftest import make_inventory_engine

        engine, _ = make_inventory_engine(mode)
        item1, item2 = engine.get("item1"), engine.get("item2")
        engine.amos.set_value("quantity", (item1,), 100)
        path = str(tmp_path / "inventory.json")
        engine.amos.save_data(path)

        fresh, orders = make_inventory_engine(mode)
        fresh.execute(
            """
            create rule watch_low() as
                when for each item i where quantity(i) < threshold(i)
                nervous do order(i, max_stock(i) - quantity(i));
            activate watch_low();
            """
        )
        fresh.amos.load_data(path)
        fresh.amos.set_value("quantity", (item2,), 4000)
        assert orders == []
        fresh.amos.set_value("quantity", (item1,), 5000)
        fresh.amos.set_value("quantity", (item1,), 100)
        assert orders == [(item1, 4900)]

    def test_load_inside_a_transaction_is_rejected(self, tmp_path):
        from tests.conftest import make_inventory_engine

        engine, _ = make_inventory_engine()
        path = str(tmp_path / "inventory.json")
        engine.amos.save_data(path)
        engine.amos.begin()
        with pytest.raises(TransactionError):
            engine.amos.load_data(path)
        engine.amos.rollback()

    def test_load_rejects_relations_the_schema_does_not_know(self, tmp_path):
        from tests.conftest import make_inventory_engine

        engine, _ = make_inventory_engine()
        engine.amos.storage.create_relation("extra", 1)
        path = str(tmp_path / "inventory.json")
        engine.amos.save_data(path)

        fresh, _ = make_inventory_engine()
        epoch = fresh.amos.snapshot_epoch
        with pytest.raises(StorageError):
            fresh.amos.load_data(path)
        assert not fresh.amos.storage.has_relation("extra")
        assert fresh.amos.snapshot_epoch == epoch
