"""The OID contract: one interned instance per (type name, id).

Equality and hashing are object identity, so every path that turns
bytes back into an OID — pickle, the persistence value encoding, the
WAL record codec and the wire codec — must hand back THE instance the
process already holds.  Two databases in one process whose ids clash
across types keep their own type names and type checks.
"""

import json
import pickle
import threading

import pytest

from repro.amos.database import AmosDatabase
from repro.amos.oid import OID
from repro.amosql import ast
from repro.algebra.delta import DeltaSet
from repro.errors import TypeCheckError
from repro.server.codec import decode_result, decode_row, encode_result, encode_row
from repro.storage.persistence import decode_value, encode_value
from repro.storage.wal import decode_delta_map, encode_delta_map, encode_frame, iter_frames


def wire(payload):
    """Through JSON text, as every codec ships it."""
    return json.loads(json.dumps(payload))


class TestDecodersReintern:
    def test_pickle(self):
        oid = OID(41, "item")
        assert pickle.loads(pickle.dumps(oid)) is oid
        rows = pickle.loads(pickle.dumps({(oid, 5)}))
        assert next(iter(rows))[0] is oid

    def test_persistence_value(self):
        oid = OID(42, "item")
        assert decode_value(wire(encode_value(oid))) is oid

    def test_persistence_file(self, tmp_path):
        amos = AmosDatabase()
        amos.create_type("item")
        amos.create_stored_function("quantity", ("item",), ("integer",))
        (oid,) = amos.create_objects("item", 1)
        amos.set_value("quantity", (oid,), 7)
        path = str(tmp_path / "data.json")
        amos.save_data(path)
        again = AmosDatabase()
        again.create_type("item")
        again.create_stored_function("quantity", ("item",), ("integer",))
        again.load_data(path)
        (row,) = again.storage.relation("quantity").rows()
        assert row[0] is oid

    def test_wal_codec(self):
        oid = OID(43, "item")
        deltas = {"quantity": DeltaSet({(oid, 1)}, {(oid, 0)})}
        frame = encode_frame({"deltas": encode_delta_map(deltas)})
        ((_offset, payload),) = iter_frames(frame)
        decoded = decode_delta_map(payload["deltas"])
        assert decoded == deltas
        (plus,) = decoded["quantity"].plus
        (minus,) = decoded["quantity"].minus
        assert plus[0] is oid and minus[0] is oid

    def test_protocol_codec(self):
        oid = OID(44, "item")
        assert decode_row(wire(encode_row((oid, 3))))[0] is oid
        statement = ast.CreateInstances("item", ("a",))
        (decoded,) = decode_result(wire(encode_result(statement, [oid])))
        assert decoded is oid


class TestTwoDatabases:
    """Ids restart at 1 in every database, so two databases in one
    process with the same schema hand out the same ids under different
    types."""

    @staticmethod
    def make(type_name):
        amos = AmosDatabase()
        for name in ("item", "person"):
            amos.create_type(name)
            amos.create_stored_function(f"{name}_size", (name,), ("integer",))
        return amos, amos.create_objects(type_name, 3)

    def test_clashing_ids_keep_their_types(self):
        items_db, items = self.make("item")
        people_db, people = self.make("person")
        assert [oid.id for oid in items] == [oid.id for oid in people]
        for item, person in zip(items, people):
            assert item is not person and item != person
            assert item.type_name == "item" and person.type_name == "person"
        assert items_db.objects_of("item") == frozenset(items)
        assert items_db.objects_of("person") == frozenset()
        assert people_db.objects_of("person") == frozenset(people)

    def test_clashing_ids_keep_their_type_checks(self):
        items_db, items = self.make("item")
        people_db, people = self.make("person")
        items_db.set_value("item_size", (items[0],), 1)
        people_db.set_value("person_size", (people[0],), 2)
        with pytest.raises(TypeCheckError, match="is not of type 'item'"):
            items_db.set_value("item_size", (people[0],), 3)
        with pytest.raises(TypeCheckError, match="is not of type 'person'"):
            people_db.set_value("person_size", (items[0],), 3)
        assert items_db.value("item_size", items[0]) == 1
        assert items_db.value("item_size", people[0]) is None
        assert people_db.value("person_size", people[0]) == 2


def test_concurrent_constructors_get_one_instance():
    threads, barrier, seen = 8, threading.Barrier(8), []

    def construct():
        barrier.wait()
        seen.extend(OID(9000 + n, "concurrent_oid") for n in range(200))

    workers = [threading.Thread(target=construct) for _ in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    for n in range(200):
        instances = {id(oid) for oid in seen if oid.id == 9000 + n}
        assert len(instances) == 1
        assert OID(9000 + n, "concurrent_oid") in seen
