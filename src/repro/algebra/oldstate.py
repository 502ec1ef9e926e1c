"""State views: reading the database in its NEW or OLD state.

The calculus evaluates positive partial differentials in the *new*
database state (the current content of the base relations) and negative
partial differentials in the *old* state — the state at transaction
start, when the deleted tuples were still present.  The paper's key
space optimization (section 4, Fig. 3) is that the old state is never
materialized; it is reconstructed on demand by a *logical rollback*::

    S_old = (S_new | delta_minus(S)) - delta_plus(S)

A relation in a state is one object with one read interface —
``rows()``, ``row in r``, ``len(r)``, ``prober(columns)`` — and three
implementations: the live :class:`~repro.storage.relation.BaseRelation`,
the frozen :class:`~repro.algebra.delta.RowSet`, and
:class:`RolledBack`, the formula above over either.  A
:class:`StateView` only resolves names to such objects.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, FrozenSet, Mapping, Optional, Sequence, Tuple

from repro.algebra.delta import DeltaSet, rollback_delta

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a circular import
    from repro.storage.database import Database

Row = Tuple


class RolledBack:
    """``relation`` as it was before ``delta``: ``(S_new | minus) - plus``.

    Nothing is materialized for membership tests and keyed probes — a
    probe of the old state is a probe of the new one patched with the
    (tiny) delta, the deleted rows grouped by key in the delta's own
    minus side, so it stays O(probe) even when the transaction deleted
    many tuples (Fig. 7's massive-update case).  Probers read the live
    relation, so resolve them per use, not across transactions.
    """

    __slots__ = ("_new", "_delta", "_rows")

    def __init__(self, relation, delta: DeltaSet) -> None:
        self._new = relation
        self._delta = delta
        self._rows: Optional[FrozenSet[Row]] = None

    def rows(self) -> FrozenSet[Row]:
        if self._rows is None:
            self._rows = rollback_delta(self._new.rows(), self._delta)
        return self._rows

    def __contains__(self, row: Row) -> bool:
        delta = self._delta
        if row in delta.plus:
            return False
        return row in delta.minus or row in self._new

    def __len__(self) -> int:
        return len(self.rows())

    def prober(self, columns: Sequence[int]):
        current = self._new.prober(columns)
        restored = self._delta.side("-").prober(columns)
        plus = self._delta.plus

        def probe(key):
            rows = current(key)
            back = restored(key)
            if back:
                return frozenset(rows).union(back) - plus
            if plus and not plus.isdisjoint(rows):
                return frozenset(rows) - plus
            return rows

        return probe

    def trie_index(self, order: Sequence[int], auto: bool = False):
        """The old-state trie over ``order``: the live trie patched by
        the delta on the delta's paths only.

        Every dict on the path to a delta row is copied once, then the
        minus rows are inserted and the plus rows removed, emptied
        nodes pruned as :meth:`TrieIndex.remove` does.  All other nodes
        stay shared with the live trie, which is never written — so
        the patch costs O(|delta| x depth), not a rebuild.  Like a
        prober it reads the live relation: resolve it per use.
        """
        live = self._new.trie_index(order, auto=auto)
        delta = self._delta
        if not delta:
            return live
        trie = type(live)(live.order)
        trie.root = dict(live.root)
        owned = {id(trie.root)}
        front, last = live.order[:-1], live.order[-1]

        def descend(row, create: bool):
            # the row's leaf dict and the (parent, key) path to it, every
            # node on the way made a private copy before it is written
            node, path = trie.root, []
            for col in front:
                value = row[col]
                child = node.get(value)
                if child is None and not create:
                    return None, path
                if child is None or id(child) not in owned:
                    child = node[value] = {} if child is None else dict(child)
                    owned.add(id(child))
                path.append((node, value))
                node = child
            return node, path

        for row in delta.minus:
            descend(row, True)[0][row[last]] = True
        for row in delta.plus:
            node, path = descend(row, False)
            if node is None or node.pop(row[last], None) is None:
                continue
            while not node and path:
                node, value = path.pop()
                del node[value]
        return trie


class StateView:
    """Read-only access to base relations in a particular state."""

    #: Which state this view exposes: ``"new"`` or ``"old"``.
    state: str = "new"

    def relation(self, name: str):
        """The relation ``name`` as it is in this state."""
        raise NotImplementedError

    def rows(self, name: str) -> FrozenSet[Row]:
        return self.relation(name).rows()

    def contains(self, name: str, row: Row) -> bool:
        return tuple(row) in self.relation(name)

    def prober(self, name: str, columns: Sequence[int]):
        """A ``key -> rows`` callable with relation/index resolution
        hoisted out of the per-key loop (used by batched plans, which
        probe the same (relation, columns) once per pending binding)."""
        return self.relation(name).prober(columns)

    def lookup(self, name: str, columns: Sequence[int], key: Sequence) -> FrozenSet[Row]:
        # copied: a prober may hand out a live index bucket, and
        # callers may iterate the result lazily
        return frozenset(self.prober(name, columns)(tuple(key)))


class NewStateView(StateView):
    """The current (post-update) content of the database."""

    state = "new"

    def __init__(self, db: "Database") -> None:
        # the resolver IS the catalog's: bound here so a plan step's
        # per-execution resolution adds no frame of ours
        self.relation = db.relation


class OldStateView(StateView):
    """The pre-transaction state, reconstructed by logical rollback.

    ``deltas`` maps relation names to the delta-set accumulated since the
    old state; relations absent from the mapping are unchanged and are
    served straight from the live database.
    """

    state = "old"

    def __init__(self, db: "Database", deltas: Mapping[str, DeltaSet]) -> None:
        self._db = db
        self._deltas = dict(deltas)
        self._rolled: Dict[str, RolledBack] = {}

    def reset(self, deltas: Mapping[str, DeltaSet]) -> None:
        """Re-point this view at a new transaction's delta snapshot,
        dropping everything derived from the previous one (lets a
        propagator reuse one view object per run)."""
        self._deltas = dict(deltas)
        self._rolled.clear()

    def relation(self, name: str):
        rolled = self._rolled.get(name)
        if rolled is None:
            live = self._db.relation(name)
            delta = self._deltas.get(name)
            if not delta:
                # unchanged relation: the old state IS the new state
                return live
            rolled = self._rolled[name] = RolledBack(live, delta)
        return rolled
