"""Unit tests for the write-ahead Δ-log (repro.storage.wal).

The fault-point and oracle coverage lives in ``tests/fault``; these
tests pin the log's own mechanics — record kinds, lsn monotonicity,
segment handling, corruption classification — and the AmosDatabase
wiring (rule/catalog records, legacy group boundaries, read-only
commits).
"""

import os

import pytest

from repro.algebra.delta import DeltaSet
from repro.amos.database import AmosDatabase
from repro.bench.workload import build_inventory
from repro.errors import WalCorruptionError, WalError
from repro.storage.wal import WalRecord, WriteAheadLog, recover


def make_amos():
    amos = AmosDatabase(explain=True)
    amos.create_type("item")
    amos.create_stored_function("quantity", ("item",), ("integer",))
    return amos


def walled(tmp_path, **options):
    amos = make_amos()
    amos.storage.auto_publish = True
    amos.storage.publish_snapshot()
    amos.open_wal(str(tmp_path), **options)
    return amos


class TestLogMechanics:
    def test_lsn_is_monotone_across_segments_and_reopens(self, tmp_path):
        with WriteAheadLog(str(tmp_path), segment_bytes=128) as wal:
            for epoch in range(6):
                wal.append_commit(epoch + 1, {})
            assert wal.rotations > 0
            assert wal.next_lsn == 6
        with WriteAheadLog(str(tmp_path), segment_bytes=128) as wal:
            assert wal.next_lsn == 6
            record = wal.append_commit(7, {})
            assert record.lsn == 6
            lsns = [r.lsn for r in wal.records()]
            assert lsns == list(range(7))

    def test_records_survive_in_order_with_kinds(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append_catalog("create", "orders", 2, ("item", "amount"))
            wal.append_commit(1, {"orders": DeltaSet([(1, 2)], [])})
            wal.append_rule("activate", "monitor", (5,))
        with WriteAheadLog(str(tmp_path)) as wal:
            kinds = [r.kind for r in wal.records()]
            assert kinds == ["catalog", "commit", "rule"]
            catalog, commit, rule = wal.records()
            assert catalog.data == {
                "op": "create",
                "relation": "orders",
                "arity": 2,
                "columns": ["item", "amount"],
            }
            assert commit.epoch == 1
            assert commit.deltas["orders"].plus == frozenset({(1, 2)})
            assert rule.data["op"] == "activate"
            assert rule.data["rule"] == "monitor"

    def test_unknown_ops_are_rejected(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            with pytest.raises(WalError):
                wal.append_rule("toggle", "r")
            with pytest.raises(WalError):
                wal.append_catalog("rename", "r")

    def test_closed_log_refuses_appends(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path))
        wal.close()
        with pytest.raises(WalError, match="closed"):
            wal.append_commit(1, {})

    def test_corruption_in_non_last_segment_refuses_to_open(self, tmp_path):
        with WriteAheadLog(str(tmp_path), segment_bytes=128) as wal:
            for epoch in range(6):
                wal.append_commit(epoch + 1, {})
            segments = wal.segment_paths()
            assert len(segments) > 1
        # flip one payload byte in the FIRST (sealed) segment
        first = segments[0]
        blob = bytearray(open(first, "rb").read())
        blob[-2] ^= 0x01
        with open(first, "wb") as handle:
            handle.write(blob)
        with pytest.raises(WalCorruptionError):
            WriteAheadLog(str(tmp_path), segment_bytes=128)

    def test_torn_tail_in_last_segment_is_truncated_on_open(self, tmp_path):
        with WriteAheadLog(str(tmp_path)) as wal:
            wal.append_commit(1, {})
            wal.append_commit(2, {})
            (segment,) = wal.segment_paths()
        whole = os.path.getsize(segment)
        with open(segment, "ab") as handle:
            handle.write(b"\xadW\x00\x00")  # torn header
        with WriteAheadLog(str(tmp_path)) as wal:
            assert wal.scan_report.truncated_bytes == 4
            assert wal.scan_report.records == 2
        assert os.path.getsize(segment) == whole

    def test_sequence_regression_is_corruption(self, tmp_path):
        from repro.storage.wal import encode_frame

        path = os.path.join(str(tmp_path), "wal-00000001.log")
        with open(path, "wb") as handle:
            handle.write(encode_frame(WalRecord("commit", 5, {"epoch": 1}).payload()))
            handle.write(encode_frame(WalRecord("commit", 3, {"epoch": 2}).payload()))
        with pytest.raises(WalCorruptionError, match="backwards"):
            WriteAheadLog(str(tmp_path))

    def test_fsync_off_still_appends(self, tmp_path):
        with WriteAheadLog(str(tmp_path), fsync=False) as wal:
            wal.append_commit(1, {})
        with WriteAheadLog(str(tmp_path)) as wal:
            assert wal.scan_report.records == 1


class TestDatabaseWiring:
    def test_read_only_commits_are_not_logged(self, tmp_path):
        amos = walled(tmp_path)
        with amos.transaction():
            pass  # no physical events, no epoch movement
        assert amos.wal.appended_records == 0
        amos.detach_wal()

    def test_churn_commit_logs_an_empty_delta_with_its_epoch(self, tmp_path):
        amos = walled(tmp_path)
        item = amos.create_object("item")
        amos.set_value("quantity", (item,), 10)
        before = amos.wal.appended_records
        with amos.transaction():
            amos.set_value("quantity", (item,), 99)
            amos.set_value("quantity", (item,), 10)  # counter-update
        assert amos.wal.appended_records == before + 1
        last = list(amos.wal.records())[-1]
        assert last.kind == "commit"
        assert last.deltas == {}
        assert last.epoch == amos.snapshot_epoch
        amos.detach_wal()

    def test_legacy_group_commit_frames_still_replay(self, tmp_path):
        """Older logs carry a ``group`` key in some commit records (the
        batch boundary of a since-removed group commit).  It stays in
        ``record.data``; recovery and a live replica ignore it."""
        from repro.amos.oid import OID
        from repro.replication import ReplicaServer
        from repro.server.server import AmosServer
        from repro.storage.wal import encode_delta_map

        a, b = OID(1, "item"), OID(2, "item")
        grouped = {
            "item": DeltaSet({(a,), (b,)}),
            "quantity": DeltaSet({(a, 1), (b, 2)}),
        }
        later = {"quantity": DeltaSet({(a, 7)}, {(a, 1)})}
        log_dir = str(tmp_path / "legacy")
        with WriteAheadLog(log_dir) as wal:
            wal.append_record(
                WalRecord(
                    "commit",
                    0,
                    {
                        "epoch": 3,
                        "deltas": encode_delta_map(grouped),
                        "group": {"members": 3, "applied": 2},
                    },
                )
            )
            wal.append_commit(4, later)
        expected = {(a, 7), (b, 2)}

        recovered = recover(log_dir, amos=make_amos(), attach=False)
        assert recovered.storage.relation("quantity").rows() == expected
        assert recovered.snapshot_epoch == 4
        assert recovered.create_object("item").id == 3

        primary = AmosServer(amos=make_amos(), wal_dir=log_dir).start()
        replica = ReplicaServer(
            primary=primary.address,
            factory=make_amos,
            wal_dir=str(tmp_path / "replica"),
        ).start()
        try:
            assert replica.wait_for_epoch(4, timeout=30.0), replica.apply_error
            assert replica.amos.storage.relation("quantity").rows() == expected
            assert replica.amos.snapshot_epoch == 4
        finally:
            replica.stop()
            primary.stop()
        # the replica's own copy keeps the frame verbatim, key and all
        with WriteAheadLog(str(tmp_path / "replica")) as copy:
            first = next(copy.records())
        assert first.data["group"] == {"members": 3, "applied": 2}

    def test_rule_toggles_recover_the_monitor_set(self, tmp_path):
        live = build_inventory(3, seed=5, explain=True)
        live.amos.storage.auto_publish = True
        live.amos.storage.publish_snapshot()
        live.amos.open_wal(str(tmp_path))
        # activation AFTER the wal attached → logged as a rule record
        live.activate()
        assert live.amos.storage.monitored_relations()
        live.amos.detach_wal()

        restored = build_inventory(3, seed=5, explain=True)
        restored.amos.storage.auto_publish = True
        restored.amos.storage.publish_snapshot()
        report = restored.amos.open_wal(str(tmp_path))
        assert report.rule_ops == 1
        assert restored.amos.rules.is_active("monitor_items")
        assert (
            restored.amos.storage.monitored_relations()
            == live.amos.storage.monitored_relations()
        )
        restored.amos.detach_wal()

    def test_catalog_records_replay_post_bootstrap_ddl(self, tmp_path):
        amos = walled(tmp_path)
        # storage-level DDL after the WAL attached
        amos.storage.create_relation("audit", 2)
        amos.storage.insert("audit", ("x", 1))
        amos.detach_wal()

        restored = make_amos()
        restored.storage.auto_publish = True
        restored.storage.publish_snapshot()
        report = restored.open_wal(str(tmp_path))
        assert report.catalog_ops == 1
        assert restored.storage.has_relation("audit")
        assert ("x", 1) in restored.storage.relation("audit")
        restored.detach_wal()

    def test_rollback_epoch_gaps_are_reproduced(self, tmp_path):
        amos = walled(tmp_path)
        item = amos.create_object("item")
        amos.set_value("quantity", (item,), 10)
        # a rolled-back transaction publishes a churn epoch that no
        # commit record carries — recovery must still land on the same
        # final epoch numbering
        try:
            with amos.transaction():
                amos.set_value("quantity", (item,), 55)
                raise RuntimeError("abort")
        except RuntimeError:
            pass
        amos.set_value("quantity", (item,), 77)
        final_epoch = amos.snapshot_epoch
        amos.detach_wal()

        restored = make_amos()
        restored.storage.auto_publish = True
        restored.storage.publish_snapshot()
        restored.open_wal(str(tmp_path))
        assert restored.snapshot_epoch == final_epoch
        assert restored.snapshot_extensions() == amos.snapshot_extensions()
        restored.detach_wal()

    def test_oid_counter_advances_past_recovered_oids(self, tmp_path):
        amos = walled(tmp_path)
        items = amos.create_objects("item", 3)
        amos.detach_wal()

        restored = make_amos()
        restored.open_wal(str(tmp_path))
        fresh = restored.create_object("item")
        assert fresh.id > max(item.id for item in items)
        restored.detach_wal()

    def test_oid_of_a_deleted_object_is_not_reissued(self, tmp_path):
        # the deleted object leaves no row behind: the high-water mark
        # must come from the Δ rows the replay touches, not a final scan
        amos = walled(tmp_path)
        amos.create_object("item")
        doomed = amos.create_object("item")
        amos.delete_object(doomed)
        uninterrupted = amos.create_object("item")
        amos.delete_object(uninterrupted)
        amos.detach_wal()

        restored = make_amos()
        restored.open_wal(str(tmp_path))
        fresh = restored.create_object("item")
        assert fresh.id > uninterrupted.id > doomed.id
        restored.detach_wal()

    def test_double_attach_is_rejected(self, tmp_path):
        amos = walled(tmp_path)
        with pytest.raises(Exception, match="already attached"):
            amos.attach_wal(object())
        amos.detach_wal()

    def test_recover_refuses_mid_transaction(self, tmp_path):
        amos = make_amos()
        amos.begin()
        with pytest.raises(WalError, match="mid-transaction"):
            recover(str(tmp_path), amos=amos)
        amos.rollback()

    def test_recover_factory_builds_the_database(self, tmp_path):
        amos = walled(tmp_path)
        item = amos.create_object("item")
        amos.set_value("quantity", (item,), 41)
        amos.detach_wal()

        restored = recover(str(tmp_path), factory=make_amos, attach=False)
        assert restored.get_values("quantity", (item,)) == frozenset({(41,)})
