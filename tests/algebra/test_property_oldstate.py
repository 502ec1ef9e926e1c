"""Property: OldStateView answers everything as of the old state.

The keyed-probe path of a rolled-back relation patches a probe of the
new state with the delta's own minus side grouped by key; this test
pins its correctness against the brute-force rollback for random
relations, random consistent deltas, and every lookup pattern of a
binary relation — the old-state trie a join kernel reads against a
trie bulk-loaded from the same rollback, and the self-indexing
``RowSet`` (a frozen relation, a delta side) against a plain frozenset.
"""

import copy
import itertools
import threading

from hypothesis import example, given, settings, strategies as st

from repro.algebra.delta import DeltaSet, RowSet, rollback_delta
from repro.algebra.oldstate import OldStateView, RolledBack
from repro.objectlog.join import TrieIndex
from repro.obs import metrics
from repro.storage.database import Database


def rows_of(arity):
    return st.frozensets(st.tuples(*[st.integers(0, 4)] * arity), max_size=10)


rows = rows_of(2)


@st.composite
def cases(draw, arity=2):
    old = draw(rows_of(arity))
    plus = draw(rows_of(arity)) - old
    minus = frozenset(draw(st.lists(st.sampled_from(sorted(old)), max_size=5))) if old else frozenset()
    return old, DeltaSet(plus, minus)


PATTERNS = [(0,), (1,), (0, 1), (1, 0)]


def matching(rows, columns, key):
    return {row for row in rows if tuple(row[c] for c in columns) == key}


def build(old, delta, index_columns=None, arity=2):
    db = Database()
    relation = db.create_relation("r", arity)
    relation.bulk_insert((old | delta.plus) - delta.minus)
    if index_columns is not None:
        relation.create_index(index_columns)
    return OldStateView(db, {"r": delta})


class TestOldStateProperty:
    @settings(max_examples=80, deadline=None)
    @given(case=cases())
    def test_rows_match_brute_force(self, case):
        old, delta = case
        view = build(old, delta)
        new_rows = (frozenset(old) | delta.plus) - delta.minus
        assert view.rows("r") == rollback_delta(new_rows, delta) == frozenset(old)

    @settings(max_examples=80, deadline=None)
    @given(case=cases(), indexed=st.booleans())
    def test_every_lookup_pattern_matches_old_state(self, case, indexed):
        old, delta = case
        view = build(old, delta, index_columns=(0,) if indexed else None)
        for columns in [(0,), (1,), (0, 1)]:
            keys = {tuple(row[c] for c in columns) for row in old} | {(9,) * len(columns)}
            for key in keys:
                expected = frozenset(
                    row for row in old
                    if tuple(row[c] for c in columns) == key
                )
                assert view.lookup("r", columns, key) == expected, (columns, key)

    @settings(max_examples=80, deadline=None)
    @given(case=cases())
    def test_membership_matches_old_state(self, case):
        old, delta = case
        view = build(old, delta)
        universe = set(old) | set(delta.plus) | {(9, 9)}
        for row in universe:
            assert view.contains("r", row) == (row in old), row

    @settings(max_examples=80, deadline=None)
    @given(case=cases(), frozen=st.booleans())
    def test_rolled_back_relation_answers_like_the_materialised_rollback(
        self, case, frozen
    ):
        """Every question of the read interface, asked of ``RolledBack``
        over the live relation or over a frozen table, against the same
        question asked of ``rollback_delta``'s materialised set."""
        old, delta = case
        view = build(old, delta)
        live = view._db.relation("r")
        rolled = RolledBack(live.freeze() if frozen else live, delta)
        expected = rollback_delta(live.rows(), delta)
        assert expected == old
        assert rolled.rows() == expected
        assert rolled.rows() is rolled.rows()
        assert len(rolled) == len(expected)
        universe = set(old) | set(delta.plus) | {(9, 9)}
        for row in universe:
            assert (row in rolled) == (row in expected), row
        for columns in PATTERNS:
            probe = rolled.prober(columns)
            # hit, restored (deleted rows' keys), hidden (inserted
            # rows' keys) and miss
            keys = {tuple(row[c] for c in columns) for row in universe}
            for key in keys:
                assert set(probe(key)) == matching(expected, columns, key), (
                    columns,
                    key,
                )
        if not frozen and delta:
            assert view.relation("r").rows() == expected

    @settings(max_examples=80, deadline=None)
    @given(case=cases(arity=3))
    # empty delta: the live trie itself
    @example(case=(frozenset({(0, 0, 0)}), DeltaSet(frozenset(), frozenset())))
    # the inserted row shares only the root key: its branch must be pruned
    @example(
        case=(
            frozenset({(0, 0, 0)}),
            DeltaSet(frozenset({(0, 1, 1)}), frozenset()),
        )
    )
    def test_rolled_back_trie_is_the_rollback_bulk_loaded(self, case):
        """The old-state trie — the live trie patched on the delta's
        paths — equals a fresh trie over the materialised rollback,
        pruned alike, for every column order; the live trie is left
        untouched and warm tries are not rebuilt."""
        old, delta = case
        live = build(old, delta, arity=3)._db.relation("r")
        rolled = RolledBack(live, delta)
        expected = rollback_delta(live.rows(), delta)

        def no_empty_interior(node, depth):
            return depth == 2 or all(
                child and no_empty_interior(child, depth + 1)
                for child in node.values()
            )

        for order in itertools.permutations(range(3)):
            warm = live.trie_index(order)
            before = copy.deepcopy(warm.root)
            with metrics.collecting() as reg:
                trie = rolled.trie_index(order)
                assert reg.value("join.trie_builds") == 0
            fresh = TrieIndex(order)
            fresh.bulk_load(expected)
            assert trie.root == fresh.root, order
            assert no_empty_interior(trie.root, 0), order
            assert warm.root == before, order
            assert live.trie_index(order) is warm
            if not delta:
                assert trie is warm

    @settings(max_examples=60, deadline=None)
    @given(content=rows)
    def test_row_set_answers_like_a_plain_frozenset(self, content):
        table = RowSet(content)
        assert table.rows() == content
        assert len(table) == len(content)
        for row in set(content) | {(9, 9)}:
            assert (row in table) == (row in content)
        for columns in PATTERNS:
            with metrics.collecting() as reg:
                probe = table.prober(columns)
                assert reg.value("rowset.indexes_built") == 1
                # a second resolution builds nothing
                assert table.prober(columns) is probe
                assert reg.value("rowset.indexes_built") == 1
            keys = {tuple(row[c] for c in columns) for row in content}
            for key in keys | {(9,) * len(columns)}:
                assert set(probe(key)) == matching(content, columns, key)
                assert len(probe(key)) == len(matching(content, columns, key))
        # concurrent first probes race benignly: whichever build wins,
        # every thread's prober answers alike
        fresh = RowSet(content)
        barrier = threading.Barrier(4)
        probers = []

        def resolve():
            barrier.wait(timeout=10)
            probers.append(fresh.prober((0,)))

        threads = [threading.Thread(target=resolve) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert len(probers) == 4
        for key in {(row[0],) for row in content} | {(9,)}:
            for probe in probers + [fresh.prober((0,))]:
                assert set(probe(key)) == matching(content, (0,), key)
