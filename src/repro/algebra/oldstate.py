"""State views: reading the database in its NEW or OLD state.

The calculus evaluates positive partial differentials in the *new*
database state (the current content of the base relations) and negative
partial differentials in the *old* state — the state at transaction
start, when the deleted tuples were still present.  The paper's key
space optimization (section 4, Fig. 3) is that the old state is never
materialized; it is reconstructed on demand by a *logical rollback*::

    S_old = (S_new | delta_minus(S)) - delta_plus(S)

:class:`NewStateView` reads relations directly (index-accelerated);
:class:`OldStateView` wraps the same database plus a snapshot of the
per-relation delta-sets and answers scans, membership tests, and keyed
lookups *as of the old state* — also index-accelerated, because an old
lookup is a new lookup patched with the (tiny) delta.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Sequence, Tuple

from repro.algebra.delta import DeltaSet, rollback_delta

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.storage.database import Database

Row = Tuple

_EMPTY_DELTA = DeltaSet()


class StateView:
    """Read-only access to base relations in a particular state."""

    #: Which state this view exposes: ``"new"`` or ``"old"``.
    state: str = "new"

    def rows(self, name: str) -> FrozenSet[Row]:
        raise NotImplementedError

    def contains(self, name: str, row: Row) -> bool:
        raise NotImplementedError

    def lookup(self, name: str, columns: Sequence[int], key: Sequence) -> FrozenSet[Row]:
        raise NotImplementedError

    def prober(self, name: str, columns: Sequence[int]):
        """A ``key -> rows`` callable with relation/index resolution
        hoisted out of the per-key loop (used by batched plans, which
        probe the same (relation, columns) once per pending binding)."""
        cols = tuple(columns)
        return lambda key: self.lookup(name, cols, key)

    def cardinality(self, name: str) -> int:
        return len(self.rows(name))


class NewStateView(StateView):
    """The current (post-update) content of the database."""

    state = "new"

    __slots__ = ("_db",)

    def __init__(self, db: "Database") -> None:
        self._db = db

    def rows(self, name: str) -> FrozenSet[Row]:
        return self._db.relation(name).rows()

    def contains(self, name: str, row: Row) -> bool:
        return tuple(row) in self._db.relation(name)

    def lookup(self, name: str, columns: Sequence[int], key: Sequence) -> FrozenSet[Row]:
        # copied: the unmetered prober hands out the live index bucket,
        # and interpretive callers iterate lookups lazily
        return frozenset(self.prober(name, columns)(tuple(key)))

    def prober(self, name: str, columns: Sequence[int]):
        return self._db.relation(name).prober(columns, auto=True)

    def trie(self, name: str, order: Sequence[int]):
        """The relation's trie index over ``order`` (WCOJ kernels).

        Only the new state serves tries: they mirror the live stored
        relations, maintained eagerly from every insert/delete — the
        old state would need them patched by the rollback delta.
        """
        return self._db.relation(name).trie_index(order, auto=True)

    def cardinality(self, name: str) -> int:
        return len(self._db.relation(name))


class OldStateView(StateView):
    """The pre-transaction state, reconstructed by logical rollback.

    ``deltas`` maps relation names to the delta-set accumulated since the
    old state; relations absent from the mapping are unchanged and are
    served straight from the live database.
    """

    state = "old"

    __slots__ = ("_new", "_deltas", "_cache", "_minus_index")

    def __init__(self, db: "Database", deltas: Mapping[str, DeltaSet]) -> None:
        self._new = NewStateView(db)
        self._deltas = dict(deltas)
        self._cache: Dict[str, FrozenSet[Row]] = {}
        # per (relation, columns): deleted rows grouped by key, so keyed
        # lookups stay O(probe) even when the transaction deleted many
        # tuples (Fig. 7's massive-update case)
        self._minus_index: Dict[tuple, Dict[tuple, list]] = {}

    def reset(self, deltas: Mapping[str, DeltaSet]) -> None:
        """Re-point this view at a new transaction's delta snapshot,
        dropping everything derived from the previous one (lets a
        propagator reuse one view object per run)."""
        self._deltas = dict(deltas)
        self._cache.clear()
        self._minus_index.clear()

    def delta_of(self, name: str) -> DeltaSet:
        return self._deltas.get(name, _EMPTY_DELTA)

    def rows(self, name: str) -> FrozenSet[Row]:
        delta = self._deltas.get(name)
        if delta is None or delta.empty:
            return self._new.rows(name)
        cached = self._cache.get(name)
        if cached is None:
            cached = rollback_delta(self._new.rows(name), delta)
            self._cache[name] = cached
        return cached

    def contains(self, name: str, row: Row) -> bool:
        row = tuple(row)
        delta = self._deltas.get(name)
        if delta is None or delta.empty:
            return self._new.contains(name, row)
        if row in delta.plus:
            return False
        if row in delta.minus:
            return True
        return self._new.contains(name, row)

    def lookup(self, name: str, columns: Sequence[int], key: Sequence) -> FrozenSet[Row]:
        delta = self._deltas.get(name)
        current = self._new.lookup(name, columns, key)
        if delta is None or delta.empty:
            return current
        key = tuple(key)
        cols = tuple(columns)
        index_key = (name, cols)
        index = self._minus_index.get(index_key)
        if index is None:
            index = {}
            for row in delta.minus:
                index.setdefault(tuple(row[c] for c in cols), []).append(row)
            self._minus_index[index_key] = index
        restored = index.get(key)
        if restored:
            return (current | frozenset(restored)) - delta.plus
        if delta.plus & current:
            return current - delta.plus
        return current

    def prober(self, name: str, columns: Sequence[int]):
        delta = self._deltas.get(name)
        if delta is None or delta.empty:
            # unchanged relation: the old state IS the new state
            return self._new.prober(name, columns)
        cols = tuple(columns)
        return lambda key: self.lookup(name, cols, key)

    def cardinality(self, name: str) -> int:
        delta = self._deltas.get(name)
        if delta is None or delta.empty:
            return self._new.cardinality(name)
        return len(self.rows(name))
