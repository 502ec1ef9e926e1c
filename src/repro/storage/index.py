"""Hash indexes over base relations.

A :class:`HashIndex` maps the values of a fixed subset of columns to the
set of rows carrying those values.  Indexes are what make incremental
monitoring cheap: a partial differential such as
``delta(cnd)/delta_plus(quantity)`` joins a (tiny) delta-set against the
other influents through index probes instead of full scans, which is why
the incremental curve in the paper's Fig. 6 is flat in database size.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Set, Tuple, Union

from repro.errors import SchemaError
from repro.obs import metrics

Row = Tuple


class HashIndex:
    """An unordered index on ``columns`` (0-based positions) of a relation."""

    __slots__ = ("columns", "_buckets", "key_of")

    def __init__(self, columns: Tuple[int, ...]) -> None:
        if not columns:
            raise SchemaError("an index needs at least one column")
        if len(set(columns)) != len(columns):
            raise SchemaError(f"duplicate columns in index spec {columns!r}")
        self.columns = tuple(columns)
        self._buckets: Dict[Tuple, Union[Tuple[Row], Set[Row]]] = {}
        #: ``row -> key tuple``, built once per index: ``itemgetter``
        #: already returns a tuple for two or more columns
        self.key_of: Callable[[Row], Tuple] = (
            itemgetter(*self.columns)
            if len(self.columns) > 1
            else (lambda row, _c=self.columns[0]: (row[_c],))
        )

    # A bucket of one row is the 1-tuple ``(row,)``, promoted to a set
    # at its second row and back to a 1-tuple when one row is left: most
    # keys of a functional relation hold one row, and a 1-tuple takes a
    # fraction of an empty set's memory.  Probers hand out either form.

    def add(self, row: Row) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = (row,)
        elif type(bucket) is tuple:
            if bucket[0] != row:
                self._buckets[key] = {bucket[0], row}
        else:
            bucket.add(row)

    def remove(self, row: Row) -> None:
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            return
        if type(bucket) is tuple:
            if bucket[0] == row:
                del self._buckets[key]
            return
        bucket.discard(row)
        if len(bucket) == 1:
            self._buckets[key] = tuple(bucket)

    def probe(self, key: Tuple) -> FrozenSet[Row]:
        """All rows whose indexed columns equal ``key`` (possibly empty)."""
        result = frozenset(self._buckets.get(tuple(key), ()))
        reg = metrics.ACTIVE
        if reg is not None:
            reg.counter("index.probes").inc()
            reg.counter("index.rows_touched").inc(len(result))
            reg.histogram("index.bucket_size").observe(len(result))
        return result

    def keys(self) -> Iterator[Tuple]:
        return iter(self._buckets)

    def bulk_load(self, rows: Iterable[Row]) -> None:
        for row in rows:
            self.add(row)

    def clear(self) -> None:
        self._buckets.clear()

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._buckets.values())

    def __repr__(self) -> str:
        return f"HashIndex(columns={self.columns!r}, keys={len(self._buckets)})"
