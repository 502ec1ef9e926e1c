"""Unit tests for base relations and hash indexes."""

import pytest

from repro.errors import ArityError, SchemaError
from repro.storage.index import HashIndex
from repro.storage.relation import BaseRelation


class TestBaseRelation:
    def test_insert_returns_true_on_change(self):
        relation = BaseRelation("r", 2)
        assert relation.insert((1, 2)) is True
        assert relation.insert((1, 2)) is False  # set semantics: no-op
        assert len(relation) == 1

    def test_delete_returns_true_on_change(self):
        relation = BaseRelation("r", 2)
        relation.insert((1, 2))
        assert relation.delete((1, 2)) is True
        assert relation.delete((1, 2)) is False
        assert len(relation) == 0

    def test_contains_and_iter(self):
        relation = BaseRelation("r", 1)
        relation.insert((5,))
        assert (5,) in relation
        assert (6,) not in relation
        assert sorted(relation) == [(5,)]

    def test_arity_enforced(self):
        relation = BaseRelation("r", 2)
        with pytest.raises(ArityError):
            relation.insert((1,))
        with pytest.raises(ArityError):
            relation.delete((1, 2, 3))

    def test_arity_must_be_positive(self):
        with pytest.raises(SchemaError):
            BaseRelation("r", 0)

    def test_column_names_default_and_custom(self):
        assert BaseRelation("r", 2).column_names == ("c0", "c1")
        named = BaseRelation("r", 2, ["item", "qty"])
        assert named.column_names == ("item", "qty")
        with pytest.raises(SchemaError):
            BaseRelation("r", 2, ["only_one"])

    def test_rows_snapshot_is_independent(self):
        relation = BaseRelation("r", 1)
        relation.insert((1,))
        snapshot = relation.rows()
        relation.insert((2,))
        assert snapshot == frozenset({(1,)})

    def test_lookup_without_index_scans(self):
        relation = BaseRelation("r", 2)
        relation.insert((1, "a"))
        relation.insert((1, "b"))
        relation.insert((2, "a"))
        assert relation.lookup([0], (1,)) == {(1, "a"), (1, "b")}
        assert relation.lookup([1], ("a",)) == {(1, "a"), (2, "a")}
        assert relation.lookup([0, 1], (2, "a")) == {(2, "a")}
        assert relation.lookup([0], (9,)) == frozenset()

    def test_lookup_with_index_matches_scan(self):
        relation = BaseRelation("r", 2)
        rows = [(i % 5, i) for i in range(50)]
        relation.bulk_insert(rows)
        scan = relation.lookup([0], (3,))
        relation.create_index([0])
        assert relation.lookup([0], (3,)) == scan

    def test_index_maintained_across_updates(self):
        relation = BaseRelation("r", 2)
        relation.create_index([0])
        relation.insert((1, 10))
        relation.insert((1, 20))
        relation.delete((1, 10))
        assert relation.lookup([0], (1,)) == {(1, 20)}

    def test_create_index_is_idempotent(self):
        relation = BaseRelation("r", 2)
        first = relation.create_index([0])
        second = relation.create_index([0])
        assert first is second

    def test_index_column_out_of_range(self):
        relation = BaseRelation("r", 2)
        with pytest.raises(SchemaError):
            relation.create_index([2])

    def test_clear_empties_rows_and_indexes(self):
        relation = BaseRelation("r", 2)
        relation.create_index([0])
        relation.insert((1, 2))
        relation.clear()
        assert len(relation) == 0
        assert relation.lookup([0], (1,)) == frozenset()

    def test_bulk_insert_counts_new_rows(self):
        relation = BaseRelation("r", 1)
        assert relation.bulk_insert([(1,), (2,), (1,)]) == 2


class TestHashIndex:
    def test_probe_and_remove(self):
        index = HashIndex((0,))
        index.add((1, "a"))
        index.add((1, "b"))
        assert index.probe((1,)) == {(1, "a"), (1, "b")}
        index.remove((1, "a"))
        assert index.probe((1,)) == {(1, "b")}
        index.remove((1, "b"))
        assert index.probe((1,)) == frozenset()
        assert list(index.keys()) == []

    def test_remove_missing_is_noop(self):
        index = HashIndex((0,))
        index.remove((1, "a"))  # must not raise
        assert len(index) == 0

    def test_multi_column_key(self):
        index = HashIndex((0, 2))
        index.add((1, "x", 9))
        assert index.probe((1, 9)) == {(1, "x", 9)}
        assert index.probe((1, 8)) == frozenset()

    def test_needs_columns(self):
        with pytest.raises(SchemaError):
            HashIndex(())
        with pytest.raises(SchemaError):
            HashIndex((0, 0))

    def test_len_counts_rows(self):
        index = HashIndex((0,))
        index.bulk_load([(1, 2), (1, 3), (2, 4)])
        assert len(index) == 3


class TestAutoIndexBudget:
    """The per-relation cap on automatically created indexes (the state
    views index any probed column set on demand; ad-hoc query mixes
    must not accumulate an unbounded set of maintained indexes)."""

    def wide_relation(self, arity=12, rows=30):
        relation = BaseRelation("wide", arity)
        relation.bulk_insert(
            [tuple(i * arity + c for c in range(arity)) for i in range(rows)]
        )
        return relation

    def test_budget_caps_auto_indexes(self):
        relation = self.wide_relation()
        for col in range(relation.AUTO_INDEX_BUDGET + 3):
            relation.create_index((col,), auto=True)
        assert len(relation.indexes) == relation.AUTO_INDEX_BUDGET

    def test_least_recently_probed_is_evicted(self):
        relation = self.wide_relation()
        for col in range(relation.AUTO_INDEX_BUDGET):
            relation.create_index((col,), auto=True)
        relation.lookup((0,), (0,))  # touch column 0: now most recent
        relation.create_index((relation.AUTO_INDEX_BUDGET,), auto=True)
        assert (0,) in relation.indexes  # survived
        assert (1,) not in relation.indexes  # the LRU victim

    def test_pinned_indexes_never_evicted(self):
        relation = self.wide_relation()
        relation.create_index((0,))  # explicit => pinned
        for col in range(1, relation.AUTO_INDEX_BUDGET + 4):
            relation.create_index((col,), auto=True)
        assert (0,) in relation.indexes
        assert len(relation.indexes) == relation.AUTO_INDEX_BUDGET + 1

    def test_explicit_create_promotes_auto_to_pinned(self):
        relation = self.wide_relation()
        relation.create_index((0,), auto=True)
        relation.create_index((0,))  # promote
        for col in range(1, relation.AUTO_INDEX_BUDGET + 4):
            relation.create_index((col,), auto=True)
        assert (0,) in relation.indexes

    def test_eviction_counter(self):
        from repro.obs import metrics

        relation = self.wide_relation()
        with metrics.collecting() as registry:
            for col in range(relation.AUTO_INDEX_BUDGET + 2):
                relation.create_index((col,), auto=True)
        assert registry.value("index.evictions") == 2

    def test_evicted_prober_is_not_served_stale(self):
        relation = self.wide_relation()
        probe0 = relation.prober((0,))
        assert probe0((0,))  # row 0 matches on column 0
        # churn enough other auto indexes to evict column 0's
        for col in range(1, relation.AUTO_INDEX_BUDGET + 2):
            relation.create_index((col,), auto=True)
        assert (0,) not in relation.indexes
        # a fresh prober must fall back to scan/recreate, not a dead index
        fresh = relation.prober((0,))
        # a prober returns an iterable of rows (a one-row bucket is a
        # 1-tuple), so compare as sets
        assert set(fresh((0,))) == relation.lookup((0,), (0,))

    def test_prober_matches_lookup_with_and_without_metrics(self):
        from repro.obs import metrics

        relation = self.wide_relation()
        relation.create_index((1,))
        raw = relation.prober((1,))
        key = (1 + 0 * 12,)
        expected = relation.lookup((1,), key)
        assert set(raw(key)) == expected
        with metrics.collecting() as registry:
            counted = relation.prober((1,))
            assert counted(key) == expected
        assert registry.value("index.probes") >= 1
