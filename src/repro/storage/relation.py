"""Base relations: named sets of fixed-arity tuples with hash indexes.

A :class:`BaseRelation` is the storage-level realization of a *stored
function* in the paper's data model (section 3): the stored function
``quantity(item) -> integer`` becomes the binary base relation
``quantity(item, integer)``.  Set semantics apply throughout —
inserting a tuple that is already present is a no-op, and the relation
reports whether a physical change actually happened so the transaction
layer only logs *real* physical events.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Sequence, Tuple

from repro.algebra.delta import RowSet
from repro.errors import ArityError, SchemaError
from repro.obs import metrics
from repro.storage.index import HashIndex

Row = Tuple


class BaseRelation:
    """A named, fixed-arity set of tuples.

    Parameters
    ----------
    name:
        Unique relation name within a database.
    arity:
        Number of columns; every stored row must match.
    column_names:
        Optional descriptive names (defaults to ``c0..c{arity-1}``).
    """

    __slots__ = (
        "name",
        "arity",
        "column_names",
        "_rows",
        "_indexes",
        "_auto_indexes",
        "_probers",
        "_tries",
        "_auto_tries",
        "_frozen",
        "version",
    )

    #: per-relation cap on *automatically* created indexes (the state
    #: views index any probed column set on demand; ad-hoc query mixes
    #: must not accumulate an unbounded set of maintained indexes).
    #: Explicitly created indexes are pinned and never counted/evicted.
    AUTO_INDEX_BUDGET = 8

    #: per-relation cap on automatically created trie indexes (the WCOJ
    #: kernels request one trie per literal column order; same LRU
    #: discipline as the hash indexes, separate budget because a trie
    #: is heavier to maintain than a bucket dict)
    TRIE_INDEX_BUDGET = 4

    def __init__(
        self,
        name: str,
        arity: int,
        column_names: Optional[Sequence[str]] = None,
    ) -> None:
        if arity < 1:
            raise SchemaError(f"relation {name!r}: arity must be >= 1, got {arity}")
        if column_names is not None and len(column_names) != arity:
            raise SchemaError(
                f"relation {name!r}: {len(column_names)} column names for "
                f"arity {arity}"
            )
        self.name = name
        self.arity = arity
        self.column_names = (
            tuple(column_names)
            if column_names is not None
            else tuple(f"c{i}" for i in range(arity))
        )
        self._rows: set = set()
        self._indexes: Dict[Tuple[int, ...], HashIndex] = {}
        #: auto-created index keys in least-recently-probed-first order
        self._auto_indexes: "OrderedDict[Tuple[int, ...], None]" = OrderedDict()
        #: resolved direct-probe callables per column set (index-backed
        #: only; dropped when the backing index is evicted)
        self._probers: Dict[Tuple[int, ...], object] = {}
        #: trie indexes per column order (WCOJ kernels), maintained
        #: eagerly alongside the hash indexes; empty for the vast
        #: majority of relations, so mutation paths guard on truthiness
        self._tries: Dict[Tuple[int, ...], object] = {}
        #: auto-created trie orders in least-recently-used-first order
        self._auto_tries: "OrderedDict[Tuple[int, ...], None]" = OrderedDict()
        #: copy-on-write cache: the table handed to snapshots; None
        #: while the relation has changed since it was last frozen
        self._frozen: Optional[RowSet] = RowSet()
        #: bumped on every physical change (snapshot staleness checks)
        self.version = 0

    # -- mutation -------------------------------------------------------------

    def _check(self, row: Row) -> Row:
        row = tuple(row)
        if len(row) != self.arity:
            raise ArityError(
                f"relation {self.name!r}: tuple {row!r} has arity {len(row)}, "
                f"expected {self.arity}"
            )
        return row

    def insert(self, row: Row) -> bool:
        """Insert ``row``; return True iff the relation actually changed."""
        if type(row) is not tuple or len(row) != self.arity:
            row = self._check(row)
        if row in self._rows:
            return False
        self._rows.add(row)
        self._frozen = None
        self.version += 1
        for index in self._indexes.values():
            index.add(row)
        if self._tries:
            for trie in self._tries.values():
                trie.add(row)
        return True

    def delete(self, row: Row) -> bool:
        """Delete ``row``; return True iff the relation actually changed."""
        if type(row) is not tuple or len(row) != self.arity:
            row = self._check(row)
        if row not in self._rows:
            return False
        self._rows.discard(row)
        self._frozen = None
        self.version += 1
        for index in self._indexes.values():
            index.remove(row)
        if self._tries:
            for trie in self._tries.values():
                trie.remove(row)
        return True

    def clear(self) -> None:
        if self._rows:
            self._frozen = None
            self.version += 1
        self._rows.clear()
        for index in self._indexes.values():
            index.clear()
        if self._tries:
            for trie in self._tries.values():
                trie.clear()

    # -- indexes ----------------------------------------------------------------

    def create_index(self, columns: Sequence[int], auto: bool = False) -> HashIndex:
        """Create (or return the existing) hash index on ``columns``.

        ``auto=True`` marks the index as automatically created: it
        counts against :attr:`AUTO_INDEX_BUDGET` and the least recently
        probed auto index is evicted when the budget overflows.  An
        explicit ``create_index`` call pins the index — including an
        index that was first created automatically.
        """
        key = tuple(columns)
        for col in key:
            if not 0 <= col < self.arity:
                raise SchemaError(
                    f"relation {self.name!r}: index column {col} out of range"
                )
        existing = self._indexes.get(key)
        if existing is not None:
            if not auto:
                self._auto_indexes.pop(key, None)  # promote to pinned
            return existing
        index = HashIndex(key)
        index.bulk_load(self._rows)
        self._indexes[key] = index
        if auto:
            self._auto_indexes[key] = None
            while len(self._auto_indexes) > self.AUTO_INDEX_BUDGET:
                victim, _ = self._auto_indexes.popitem(last=False)
                del self._indexes[victim]
                self._probers.pop(victim, None)
                reg = metrics.ACTIVE
                if reg is not None:
                    reg.counter("index.evictions").inc()
        return index

    def trie_index(self, order: Sequence[int], auto: bool = False):
        """Create (or return the existing) trie index over ``order``.

        ``order`` must be a permutation of all columns (the trie nests
        one level per column).  ``auto=True`` marks the trie as
        kernel-requested: it counts against :attr:`TRIE_INDEX_BUDGET`
        and the least recently used auto trie is evicted on overflow —
        the same discipline :meth:`create_index` applies under
        :attr:`AUTO_INDEX_BUDGET`.  Kernels re-resolve their tries per
        run, so an evicted trie is simply rebuilt on next use.
        """
        # imported here: repro.objectlog.join imports repro.obs only,
        # but the storage layer must not import objectlog at module
        # scope (objectlog sits above storage in the layering)
        from repro.objectlog.join import TrieIndex

        key = tuple(order)
        existing = self._tries.get(key)
        if existing is not None:
            if auto:
                if key in self._auto_tries:
                    self._auto_tries.move_to_end(key)
            else:
                self._auto_tries.pop(key, None)  # promote to pinned
            return existing
        if sorted(key) != list(range(self.arity)):
            raise SchemaError(
                f"relation {self.name!r}: trie order {key!r} is not a "
                f"permutation of its {self.arity} columns"
            )
        trie = TrieIndex(key)
        trie.bulk_load(self._rows)
        self._tries[key] = trie
        reg = metrics.ACTIVE
        if reg is not None:
            reg.counter("join.trie_builds").inc()
            reg.counter("join.trie_build_rows").inc(len(self._rows))
            reg.histogram("join.trie_build_size").observe(len(self._rows))
        if auto:
            self._auto_tries[key] = None
            while len(self._auto_tries) > self.TRIE_INDEX_BUDGET:
                victim, _ = self._auto_tries.popitem(last=False)
                del self._tries[victim]
                if reg is not None:
                    reg.counter("join.trie_evictions").inc()
        return trie

    @property
    def tries(self) -> Dict[Tuple[int, ...], object]:
        return dict(self._tries)

    def index_on(self, columns: Sequence[int]) -> Optional[HashIndex]:
        key = tuple(columns)
        index = self._indexes.get(key)
        if index is not None and key in self._auto_indexes:
            self._auto_indexes.move_to_end(key)
        return index

    def prober(self, columns: Sequence[int]):
        """A ``key -> rows`` callable with index resolution done once.

        Creates a budgeted auto index once the relation has more than
        8 rows — the on-demand indexing policy (small sets are
        scanned, larger ones indexed); keyed lookups of the state
        views and compiled plan steps both resolve through here, and a
        scan prober handed out below the threshold is not cached, so
        the next resolution sees the growth.  With no metrics registry
        installed the prober reads index buckets directly (cached per
        column set until the index is evicted); with one installed it
        goes through :meth:`HashIndex.probe` so probe accounting stays
        exact.
        """
        cols = tuple(columns)
        fn = self._probers.get(cols)
        if fn is not None and metrics.ACTIVE is None:
            return fn
        index = self._indexes.get(cols)
        if index is None and len(self._rows) > 8:
            index = self.create_index(cols, auto=True)
        if index is not None:
            if cols in self._auto_indexes:
                self._auto_indexes.move_to_end(cols)
            if metrics.ACTIVE is not None:
                return index.probe
            fn = self._probers[cols] = (
                lambda key, _b=index._buckets, _e=frozenset(): _b.get(key, _e)
            )
            return fn
        return lambda key: self.lookup(cols, key)

    @property
    def indexes(self) -> Dict[Tuple[int, ...], HashIndex]:
        return dict(self._indexes)

    # -- access -------------------------------------------------------------------

    def __contains__(self, row: Row) -> bool:
        return tuple(row) in self._rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def rows(self) -> FrozenSet[Row]:
        """A snapshot of the current content."""
        reg = metrics.ACTIVE
        if reg is not None:
            reg.counter("relation.snapshots").inc()
            reg.counter("relation.rows_touched").inc(len(self._rows))
        return self.freeze().rows()

    def freeze(self) -> RowSet:
        """The current content as a cached, immutable :class:`RowSet`.

        Copy-on-write: the table is rebuilt only after a physical
        change invalidated it, so consecutive snapshots of an unchanged
        relation share one object, rows and the indexes readers built
        on it — this is what makes publishing a whole-database snapshot
        (:meth:`Database.publish_snapshot`) O(changed relations), not
        O(database).
        """
        frozen = self._frozen
        if frozen is None:
            frozen = self._frozen = RowSet(self._rows)
        return frozen

    @property
    def has_fresh_snapshot(self) -> bool:
        """True while :meth:`freeze` can answer without copying."""
        return self._frozen is not None

    def lookup(self, columns: Sequence[int], key: Sequence) -> FrozenSet[Row]:
        """All rows whose ``columns`` equal ``key``.

        Uses a matching hash index when one exists, otherwise scans.
        Benchmark-relevant: the naive monitor scans, the incremental
        monitor probes — that asymmetry *is* Fig. 6.
        """
        cols = tuple(columns)
        index = self._indexes.get(cols)
        if index is not None:
            if cols in self._auto_indexes:
                self._auto_indexes.move_to_end(cols)
            return index.probe(tuple(key))
        key = tuple(key)
        reg = metrics.ACTIVE
        if reg is not None:
            reg.counter("relation.scans").inc()
            reg.counter("relation.rows_touched").inc(len(self._rows))
            reg.histogram("relation.scan_size").observe(len(self._rows))
        return frozenset(
            row for row in self._rows if tuple(row[c] for c in cols) == key
        )

    def bulk_insert(self, rows: Iterable[Row]) -> int:
        """Insert many rows (no logging); return how many were new."""
        count = 0
        for row in rows:
            if self.insert(row):
                count += 1
        return count

    def __repr__(self) -> str:
        return f"BaseRelation({self.name!r}, arity={self.arity}, rows={len(self)})"
