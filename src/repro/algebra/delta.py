"""Delta-sets and the delta-union operator (paper section 4.1 / 4.5).

A *delta-set* for a set-valued relation ``S`` is the disjoint pair
``<delta_plus(S), delta_minus(S)>`` of tuples added to and removed from
``S`` over a period of time (typically: since the start of the current
transaction).  The central invariant is **disjointness**::

    delta_plus & delta_minus == set()

which makes a delta-set a representation of *logical* (net) change: a
tuple inserted and later deleted in the same transaction must leave no
trace.  The :func:`delta_union` operator combines two delta-sets while
cancelling matching insertions and deletions, exactly as the paper
defines the operator (section 4.1)::

    dB1 UNION_d dB2 = < (d+B1 - d-B2) | (d+B2 - d-B1),
                        (d-B1 - d+B2) | (d-B2 - d+B1) >

Three classes are provided:

* :class:`RowSet` — an immutable set of rows that indexes itself; a
  frozen relation (snapshot table) and a delta-set side are both one.
* :class:`DeltaSet` — immutable value object used throughout the
  differencing calculus and in query results.
* :class:`MutableDelta` — an accumulator used by the transaction layer
  and the propagation algorithm; it applies single physical events or
  whole delta-sets in place and can be frozen into a :class:`DeltaSet`.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Sequence, Tuple

from repro.errors import DeltaError
from repro.obs import metrics

Row = Tuple
Rows = FrozenSet[Row]


class RowSet:
    """An immutable set of rows read like a relation: ``rows()``,
    ``row in r``, ``len(r)``, ``prober(columns)``.

    Key indexes are built on first probe of a column set and live and
    die with the object, so nothing is ever invalidated.  Concurrent
    builders race benignly: both compute the same index and the last
    assignment wins.  ``counter`` names the metrics counter a build
    increments.
    """

    __slots__ = ("_rows", "_probers", "_counter")

    def __init__(
        self, rows: Iterable[Row] = (), counter: str = "rowset.indexes_built"
    ) -> None:
        self._rows: Rows = rows if type(rows) is frozenset else frozenset(rows)
        self._probers: Dict[Tuple[int, ...], Callable] = {}
        self._counter = counter

    def rows(self) -> Rows:
        return self._rows

    def __contains__(self, row: Row) -> bool:
        return row in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def prober(self, columns: Sequence[int]) -> Callable:
        """A ``key -> rows`` callable over the rows grouped by ``columns``."""
        cols = tuple(columns)
        probe = self._probers.get(cols)
        if probe is None:
            index: Dict[Tuple, list] = {}
            for row in self._rows:
                index.setdefault(tuple(row[c] for c in cols), []).append(row)
            probe = self._probers[cols] = (
                lambda key, _get=index.get, _none=(): _get(key, _none)
            )
            reg = metrics.ACTIVE
            if reg is not None:
                reg.counter(self._counter).inc()
        return probe

    def __repr__(self) -> str:
        return f"RowSet(rows={len(self._rows)}, indexed={sorted(self._probers)!r})"


class DeltaSet:
    """An immutable ``<plus, minus>`` pair of disjoint tuple sets.

    Attributes
    ----------
    plus:
        Tuples inserted (``delta-plus``).
    minus:
        Tuples deleted (``delta-minus``).
    """

    __slots__ = ("plus", "minus", "_plus_side", "_minus_side")

    def __init__(self, plus: Iterable[Row] = (), minus: Iterable[Row] = ()) -> None:
        plus_set = frozenset(plus)
        minus_set = frozenset(minus)
        if plus_set & minus_set:
            raise DeltaError(
                "delta-set invariant violated: plus and minus overlap on "
                f"{sorted(plus_set & minus_set)!r}"
            )
        object.__setattr__(self, "plus", plus_set)
        object.__setattr__(self, "minus", minus_set)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("DeltaSet is immutable")

    def __reduce__(self):
        # the frozen __setattr__ breaks pickle's default slot-state
        # restore; rebuild through __init__ instead
        return (DeltaSet, (self.plus, self.minus))

    def side(self, sign: str) -> RowSet:
        """The plus (``"+"``) or minus side as a relation (section 4.1:
        a delta-set is a pair of ordinary relations), built on first
        use — a delta literal is then a read like any other."""
        slot = "_plus_side" if sign == "+" else "_minus_side"
        side = getattr(self, slot, None)
        if side is None:
            # counted under the name the per-layer benchmark reads
            side = RowSet(
                self.plus if sign == "+" else self.minus,
                "evaluate.delta_indexes_built",
            )
            object.__setattr__(self, slot, side)
        return side

    # -- algebra ----------------------------------------------------------

    def union(self, other: "DeltaSet") -> "DeltaSet":
        """The paper's delta-union: combine with cancellation.

        ``self`` is the *earlier* change, ``other`` the *later* one.  The
        operator is not commutative under set semantics (paper section
        7.2), so callers must apply changes in the order they occurred.
        """
        return DeltaSet(
            (self.plus - other.minus) | (other.plus - self.minus),
            (self.minus - other.plus) | (other.minus - self.plus),
        )

    def inverse(self) -> "DeltaSet":
        """Swap plus and minus — the delta of the inverse update.

        This is also the differencing rule for complement (section 4.5):
        ``delta(~Q) = <delta_minus(Q), delta_plus(Q)>``.
        """
        return DeltaSet(self.minus, self.plus)

    # -- predicates --------------------------------------------------------

    @property
    def empty(self) -> bool:
        """True when there is no net change at all."""
        return not self.plus and not self.minus

    def __bool__(self) -> bool:
        return not self.empty

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DeltaSet):
            return NotImplemented
        return self.plus == other.plus and self.minus == other.minus

    def __hash__(self) -> int:
        return hash((self.plus, self.minus))

    def __repr__(self) -> str:
        return f"DeltaSet(plus={sorted(self.plus)!r}, minus={sorted(self.minus)!r})"


EMPTY_DELTA = DeltaSet()


def delta_union(first: DeltaSet, second: DeltaSet) -> DeltaSet:
    """Function form of :meth:`DeltaSet.union` (earlier, later)."""
    return first.union(second)


def apply_delta(rows: Iterable[Row], delta: DeltaSet) -> Rows:
    """Roll a set of rows *forward*: ``S_new = (S_old - minus) | plus``."""
    return (frozenset(rows) - delta.minus) | delta.plus


def rollback_delta(rows: Iterable[Row], delta: DeltaSet) -> Rows:
    """Roll a set of rows *backward* (logical rollback, section 4):

    ``S_old = (S_new | minus) - plus``.
    """
    return (frozenset(rows) | delta.minus) - delta.plus


class MutableDelta:
    """In-place delta-set accumulator.

    The transaction layer feeds single physical events into it
    (:meth:`add_insert` / :meth:`add_delete`), cancelling as it goes so
    the content always reflects the *logical* events so far — the paper's
    running ``min_stock`` example (section 4.1) nets out to an empty
    delta after update + counter-update.  The propagation algorithm uses
    :meth:`merge` to accumulate partial-differential results with the
    delta-union operator.
    """

    __slots__ = ("_plus", "_minus")

    def __init__(self) -> None:
        self._plus: set = set()
        self._minus: set = set()

    # -- event accumulation -------------------------------------------------

    def add_insert(self, row: Row) -> bool:
        """Record physical event ``+row``; True iff it cancelled a pending
        deletion (the insert/delete pair nets to nothing)."""
        if row in self._minus:
            self._minus.discard(row)
            return True
        self._plus.add(row)
        return False

    def add_delete(self, row: Row) -> bool:
        """Record physical event ``-row``; True iff it cancelled a pending
        insertion."""
        if row in self._plus:
            self._plus.discard(row)
            return True
        self._minus.add(row)
        return False

    def merge(self, later: DeltaSet) -> int:
        """Delta-union a later change into this accumulator, in place.

        Returns the number of cancelled insert/delete pairs — the rows
        delta-union removed from both sides.  The observability layer
        reports this as ``propagation.cancellations``; callers that do
        not care may ignore the return value.
        """
        cancelled = len(self._plus & later.minus) + len(self._minus & later.plus)
        new_plus = (self._plus - later.minus) | (later.plus - self._minus)
        new_minus = (self._minus - later.plus) | (later.minus - self._plus)
        self._plus = set(new_plus)
        self._minus = set(new_minus)
        return cancelled

    # -- views ---------------------------------------------------------------

    @property
    def plus(self) -> FrozenSet[Row]:
        return frozenset(self._plus)

    @property
    def minus(self) -> FrozenSet[Row]:
        return frozenset(self._minus)

    @property
    def empty(self) -> bool:
        return not self._plus and not self._minus

    def __bool__(self) -> bool:
        return not self.empty

    def __len__(self) -> int:
        """Total live rows (plus + minus) — the accumulator's footprint."""
        return len(self._plus) + len(self._minus)

    def freeze(self) -> DeltaSet:
        """Snapshot the current content as an immutable :class:`DeltaSet`."""
        return DeltaSet(self._plus, self._minus)

    def clear(self) -> None:
        """Discard all accumulated change (the paper's wave-front discard)."""
        self._plus.clear()
        self._minus.clear()

    def __repr__(self) -> str:
        return (
            f"MutableDelta(plus={sorted(self._plus)!r}, "
            f"minus={sorted(self._minus)!r})"
        )
