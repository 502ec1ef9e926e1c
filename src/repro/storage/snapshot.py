"""Versioned database snapshots: immutable, epoch-tagged, lock-free to read.

A :class:`DatabaseSnapshot` is the unit of the snapshot-read protocol:
the committed state of every base relation, captured as copy-on-write
:class:`~repro.algebra.delta.RowSet` tables (:meth:`BaseRelation.freeze`)
and tagged with a monotone *commit epoch*.  Publication happens on the
writer's side — at the end of a commit, a rollback, or a catalog change
— so a snapshot never contains uncommitted or torn transaction state.
Reading one requires no lock at all: the snapshot object is immutable,
and picking up the latest published snapshot is a single reference read.

:class:`SnapshotView` adapts a snapshot to the
:class:`~repro.algebra.oldstate.StateView` protocol, so the ObjectLog
evaluator runs read-only queries against frozen state exactly as it
runs them against the live database.  Keyed lookups use the hash
indexes each table builds lazily on itself; a relation unchanged since
the previous epoch shares its table — rows *and* indexes — with it.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

from repro.algebra.delta import RowSet
from repro.algebra.oldstate import StateView
from repro.errors import UnknownRelationError

Row = Tuple

__all__ = ["DatabaseSnapshot", "SnapshotView"]


class DatabaseSnapshot:
    """One published, immutable version of the whole database.

    Parameters
    ----------
    epoch:
        Monotone publication counter: snapshot ``N+1`` reflects at
        least one committed change (or catalog change) after ``N``.
    tables:
        Relation name -> :class:`RowSet` (a plain set of rows is
        wrapped).  Unchanged relations share their table with the
        previous snapshot (copy-on-write).
    """

    __slots__ = ("epoch", "_tables")

    def __init__(self, epoch: int, tables: Mapping[str, Iterable[Row]]) -> None:
        self.epoch = epoch
        self._tables: Dict[str, RowSet] = {
            name: rows if isinstance(rows, RowSet) else RowSet(rows)
            for name, rows in tables.items()
        }

    # -- access ----------------------------------------------------------------

    def relation_names(self) -> List[str]:
        return sorted(self._tables)

    def has_relation(self, name: str) -> bool:
        return name in self._tables

    def table(self, name: str) -> RowSet:
        try:
            return self._tables[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def rows(self, name: str) -> FrozenSet[Row]:
        return self.table(name).rows()

    def total_rows(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def __repr__(self) -> str:
        return (
            f"DatabaseSnapshot(epoch={self.epoch}, "
            f"relations={len(self._tables)}, rows={self.total_rows()})"
        )


class SnapshotView(StateView):
    """A :class:`StateView` over one immutable snapshot.

    Evaluating against this view never touches the live database, so
    read-only queries run entirely off the commit lock.
    """

    state = "new"

    def __init__(self, snapshot: DatabaseSnapshot) -> None:
        self.snapshot = snapshot
        self.relation = snapshot.table
