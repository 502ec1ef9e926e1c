"""Property tests for the delta-union algebra behind every Δ accumulator.

A transaction's delta-sets fold its physical events in occurrence order
(:class:`MutableDelta`), and the check phase folds each wave's condition
Δ into a rule's pending change the same way.  Both are left folds of
:meth:`DeltaSet.union`; their correctness rests on the algebraic facts
pinned here:

* **disjointness** — ``plus & minus == ∅`` survives every operation;
* **cancellation** — an insert followed by a delete of the row nets out;
* **commutativity** — the *formula* is symmetric in its operands;
* **associativity on sequentially compatible chains** — changes that
  each apply to the state their predecessors produced fold the same way
  however you group the fold;
* **non-associativity in general** — the documented counterexample:
  arbitrary disjoint pairs do NOT associate, which is why every fold
  runs in occurrence order.
"""

from functools import reduce

from hypothesis import given, strategies as st

from repro.algebra.delta import DeltaSet, MutableDelta, apply_delta, delta_union

rows = st.frozensets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=5)


@st.composite
def delta_sets(draw):
    plus = draw(rows)
    minus = draw(rows) - plus
    return DeltaSet(plus, minus)


@st.composite
def compatible_chain(draw, min_size=2, max_size=5):
    """A start state plus a sequence of *sequentially compatible* deltas.

    Each delta is applicable to the state produced by its predecessors:
    its insertions are absent from that state and its deletions present
    in it — the shape every chain of consecutive committed transactions
    has (a transaction cannot re-insert a present row or delete an
    absent one).
    """
    state = draw(rows)
    start = state
    chain = []
    for _ in range(draw(st.integers(min_size, max_size))):
        universe = st.tuples(st.integers(0, 5), st.integers(0, 5))
        plus = draw(st.frozensets(universe, max_size=4)) - state
        minus = (
            draw(st.frozensets(st.sampled_from(sorted(state)), max_size=4))
            if state
            else frozenset()
        )
        delta = DeltaSet(plus, minus)
        chain.append(delta)
        state = apply_delta(state, delta)
    return start, chain


def fold(chain):
    """Left fold of :meth:`DeltaSet.union` in occurrence order."""
    return reduce(DeltaSet.union, chain, DeltaSet())


@given(delta_sets(), delta_sets())
def test_union_preserves_disjointness(a, b):
    merged = delta_union(a, b)
    assert not (merged.plus & merged.minus)


@given(delta_sets(), delta_sets())
def test_union_formula_is_commutative(a, b):
    assert delta_union(a, b) == delta_union(b, a)


@given(rows)
def test_cancellation_nets_to_nothing(universe):
    """+row followed by -row leaves no trace."""
    inserts = DeltaSet(plus=universe)
    deletes = DeltaSet(minus=universe)
    assert delta_union(inserts, deletes).empty
    assert fold([inserts, deletes]).empty


@given(compatible_chain())
def test_fold_equals_state_difference(start_and_chain):
    """The fold IS the net logical change of the whole chain."""
    start, chain = start_and_chain
    merged = fold(chain)
    final = start
    for delta in chain:
        final = apply_delta(final, delta)
    assert apply_delta(start, merged) == final
    # and it is a *minimal* description: no phantom events
    assert merged.plus == final - start
    assert merged.minus == start - final


@given(compatible_chain(min_size=3, max_size=5))
def test_associative_on_compatible_chains(start_and_chain):
    """Any grouping of a sequentially compatible fold agrees."""
    _, chain = start_and_chain
    left = fold(chain)
    # right-to-left grouping: a ∪ (b ∪ (c ∪ ...))
    right = chain[-1]
    for delta in reversed(chain[:-1]):
        right = delta_union(delta, right)
    # split at every point: (prefix fold) ∪ (suffix fold)
    for cut in range(1, len(chain)):
        split = delta_union(fold(chain[:cut]), fold(chain[cut:]))
        assert split == left
    assert right == left


def test_not_associative_in_general():
    """The documented counterexample: arbitrary pairs don't associate.

    ``b`` deletes a row ``a`` just inserted (fine — they cancel), but
    ``c`` deletes it AGAIN — no sequential state admits that, and the
    grouping changes the answer.  This is why every Δ accumulator
    folds in occurrence order.
    """
    x = (1, 1)
    a = DeltaSet(plus={x})
    b = DeltaSet(minus={x})
    c = DeltaSet(minus={x})
    left = delta_union(delta_union(a, b), c)
    right = delta_union(a, delta_union(b, c))
    assert left == DeltaSet(minus={x})
    assert right == DeltaSet()
    assert left != right


@given(delta_sets(), delta_sets())
def test_mutable_merge_matches_union(a, b):
    accumulator = MutableDelta()
    accumulator.merge(a)
    cancelled = accumulator.merge(b)
    assert accumulator.freeze() == delta_union(a, b)
    assert cancelled == len(a.plus & b.minus) + len(a.minus & b.plus)
