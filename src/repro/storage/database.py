"""The database: catalog of base relations, transactions, deltas.

This module glues the storage substrate together and implements the
paper's update-time behaviour (section 4.1):

* every physical change is folded into the open transaction's net
  Δ-set for the relation — one :class:`MutableDelta` per touched
  relation, monitored or not — so a transaction is always described by
  its logical (net) change;
* the check phase consumes the **wave Δ** of each monitored relation
  (an influent of some activated rule condition): its net change since
  the previous wave was taken.  Until the transaction's first
  :meth:`Database.take_deltas` the wave Δ *is* the transaction Δ, so a
  write folds once; only later waves (rule actions, immediate
  processing) and relations that became monitored after they were
  written fold into a second, per-wave accumulator;
* unmonitored relations pay nothing beyond the transaction Δ — "no
  overhead is placed on database operations that do not affect any
  rules".

Commit runs the registered *check-phase* hooks (the rule manager
installs one) before the transaction's changes become permanent;
rollback applies the inverse of the transaction Δ through
:meth:`Database.apply_committed` (section 4:
``S_old = (S_new ∪ Δ⁻) − Δ⁺``) and discards the delta-sets.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.algebra.delta import DeltaSet, MutableDelta
from repro.errors import (
    DuplicateRelationError,
    SnapshotEpochError,
    TransactionError,
    UnknownRelationError,
)
from repro.obs import metrics, tracing
from repro.storage.relation import BaseRelation
from repro.storage.snapshot import DatabaseSnapshot

Row = Tuple
CheckHook = Callable[["Database"], None]


@dataclasses.dataclass(frozen=True)
class CommittedTransaction:
    """What a commit listener sees, after the commit is in memory.

    ``deltas`` is the transaction's NET physical change per relation —
    every relation, not just monitored ones, and including the effects
    of rule actions fired during the check phase (the listener runs
    after the check hooks).  ``epoch`` is the snapshot epoch in force
    when the listener runs (the one this commit published under
    ``auto_publish``).  ``events`` counts the raw physical events, so a
    churn transaction that nets to nothing is distinguishable from a
    read-only one.
    """

    epoch: int
    deltas: Dict[str, DeltaSet]
    events: int


CommitListener = Callable[[CommittedTransaction], None]
CatalogListener = Callable[[str, BaseRelation], None]


class Database:
    """A catalog of named base relations with transactional updates."""

    def __init__(self) -> None:
        self._relations: Dict[str, BaseRelation] = {}
        self._monitored: Dict[str, int] = {}
        #: per-wave accumulators of monitored relations whose wave Δ is
        #: no longer their transaction Δ: every monitored relation after
        #: the transaction's first take, and one monitored after it was
        #: written; every other monitored relation's wave Δ is its
        #: ``_txn`` entry (see :meth:`_wave`)
        self._deltas: Dict[str, MutableDelta] = {}
        #: the open transaction's net Δ per touched relation — its only
        #: record of writes: commit freezes it, rollback applies its
        #: inverse
        self._txn: Dict[str, MutableDelta] = {}
        self._txn_events = 0
        self._in_transaction = False
        self._check_hooks: List[CheckHook] = []
        self._statistics = {"transactions": 0, "rollbacks": 0, "events": 0}
        #: publish a fresh snapshot at every transaction boundary and
        #: catalog change (the network server turns this on; in-process
        #: users publish on demand via :meth:`publish_snapshot`)
        self.auto_publish = False
        self._snapshot = DatabaseSnapshot(0, {})
        #: how many published epochs stay addressable via
        #: :meth:`snapshot_at` (the bounded snapshot history ring)
        self.snapshot_history = 8
        #: the ring itself: an immutable tuple replaced wholesale on
        #: publication, so lock-free readers iterating it never observe
        #: a mutation (same discipline as ``_snapshot``)
        self._snapshot_ring: Tuple[DatabaseSnapshot, ...] = (self._snapshot,)
        #: per-relation versions captured by the last publication, used
        #: to detect staleness without instrumenting every mutation path
        self._snapshot_versions: Dict[str, int] = {}
        #: durability seam: commit listeners run inside :meth:`commit`
        #: AFTER the check phase and snapshot publication but BEFORE
        #: commit returns — i.e. before the caller can acknowledge the
        #: transaction.  A listener that raises aborts the ack (the
        #: in-memory commit stands; the WAL uses this to refuse acks
        #: for commits it could not make durable).
        self._commit_listeners: List[CommitListener] = []
        #: catalog listeners observe committed create/drop of relations
        self._catalog_listeners: List[CatalogListener] = []

    # -- catalog ---------------------------------------------------------------

    def create_relation(
        self,
        name: str,
        arity: int,
        column_names: Optional[Sequence[str]] = None,
    ) -> BaseRelation:
        if name in self._relations:
            raise DuplicateRelationError(name)
        relation = BaseRelation(name, arity, column_names)
        self._relations[name] = relation
        if self.auto_publish and not self._in_transaction:
            self.publish_snapshot()
        for listener in self._catalog_listeners:
            listener("create", relation)
        return relation

    def relation(self, name: str) -> BaseRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def has_relation(self, name: str) -> bool:
        return name in self._relations

    def relation_names(self) -> List[str]:
        return sorted(self._relations)

    def drop_relation(self, name: str) -> None:
        if name not in self._relations:
            raise UnknownRelationError(name)
        relation = self._relations.pop(name)
        self._monitored.pop(name, None)
        self._deltas.pop(name, None)
        self._txn.pop(name, None)
        if self.auto_publish and not self._in_transaction:
            self.publish_snapshot()
        for listener in self._catalog_listeners:
            listener("drop", relation)

    # -- monitoring --------------------------------------------------------------

    def monitor(self, name: str) -> None:
        """Mark ``name`` as an influent of some activated rule.

        Monitoring is reference-counted so independent rules can share
        influents; only monitored relations accumulate delta-sets.
        """
        self.relation(name)  # existence check
        self._monitored[name] = self._monitored.get(name, 0) + 1
        if self._txn.get(name) and name not in self._deltas:
            # written earlier in this transaction: the rule must see
            # only the writes from its activation on
            self._deltas[name] = MutableDelta()

    def unmonitor(self, name: str) -> None:
        count = self._monitored.get(name, 0)
        if count <= 1:
            self._monitored.pop(name, None)
            self._deltas.pop(name, None)
        else:
            self._monitored[name] = count - 1

    def is_monitored(self, name: str) -> bool:
        return name in self._monitored

    def monitored_relations(self) -> FrozenSet[str]:
        return frozenset(self._monitored)

    # -- deltas -------------------------------------------------------------------

    def _wave(self, name: str) -> Optional[MutableDelta]:
        """The wave Δ of monitored relation ``name``: its per-wave
        accumulator when it has one, else its transaction Δ."""
        wave = self._deltas.get(name)
        return wave if wave is not None else self._txn.get(name)

    def delta_of(self, name: str) -> DeltaSet:
        """Current accumulated logical change of a monitored relation."""
        wave = self._wave(name) if name in self._monitored else None
        if wave is None:
            return DeltaSet()
        return wave.freeze()

    def take_deltas(self) -> Dict[str, DeltaSet]:
        """Consume all non-empty wave Δs: the next wave starts empty."""
        taken: Dict[str, DeltaSet] = {}
        for name in self._monitored:
            wave = self._wave(name)
            if wave:
                taken[name] = wave.freeze()
        if self._in_transaction:
            # from here on the transaction Δ spans more than one wave
            self._deltas = {name: MutableDelta() for name in self._monitored}
        reg = metrics.ACTIVE
        if reg is not None and taken:
            net = sum(len(d.plus) + len(d.minus) for d in taken.values())
            reg.counter("delta.takes").inc()
            reg.counter("delta.net_rows").inc(net)
        return taken

    def peek_deltas(self) -> Dict[str, DeltaSet]:
        """Non-empty wave Δs without consuming them."""
        peeked: Dict[str, DeltaSet] = {}
        for name in self._monitored:
            wave = self._wave(name)
            if wave:
                peeked[name] = wave.freeze()
        return peeked

    def has_pending_changes(self) -> bool:
        return any(self._wave(name) for name in self._monitored)

    # -- updates -------------------------------------------------------------------

    def insert(self, name: str, row: Row) -> bool:
        """Insert ``row`` into relation ``name`` (implicit txn if needed)."""
        if self._in_transaction:
            return self._apply(name, tuple(row), True)
        with self._implicit_transaction():
            return self._apply(name, tuple(row), True)

    def delete(self, name: str, row: Row) -> bool:
        """Delete ``row`` from relation ``name`` (implicit txn if needed)."""
        if self._in_transaction:
            return self._apply(name, tuple(row), False)
        with self._implicit_transaction():
            return self._apply(name, tuple(row), False)

    def _apply(self, name: str, row: Row, insert: bool) -> bool:
        """One physical event inside the open transaction: change the
        relation, fold the row into the transaction Δ and — for a
        monitored relation with a per-wave accumulator — into that."""
        relation = self._relations.get(name)
        if relation is None:
            raise UnknownRelationError(name)
        if not (relation.insert(row) if insert else relation.delete(row)):
            return False
        self._txn_events += 1
        txn = self._txn.get(name)
        if txn is None:
            txn = self._txn[name] = MutableDelta()
        cancelled = txn.add_insert(row) if insert else txn.add_delete(row)
        wave = self._deltas.get(name)
        if wave is not None:
            cancelled = wave.add_insert(row) if insert else wave.add_delete(row)
        reg = metrics.ACTIVE
        if reg is not None:
            if name in self._monitored:
                reg.counter("delta.raw_plus" if insert else "delta.raw_minus").inc()
                if cancelled:
                    reg.counter("delta.cancellations").inc()
            reg.counter("storage.events").inc()
        return True

    # -- transactions ---------------------------------------------------------------

    @property
    def in_transaction(self) -> bool:
        return self._in_transaction

    def begin(self) -> None:
        if self._in_transaction:
            raise TransactionError("transaction already in progress")
        self._in_transaction = True

    def commit(self) -> None:
        """Run the deferred check phase, then make the changes permanent.

        With commit listeners registered (the WAL), the transaction's
        net Δ-map is frozen *after* the check phase — so rule-action
        updates are part of it — and the listeners run before commit
        returns.  A listener exception propagates to the caller: the
        in-memory commit stands, but it was never acknowledged (and
        never became durable).
        """
        if not self._in_transaction:
            raise TransactionError("commit without begin")
        try:
            for hook in self._check_hooks:
                hook(self)
        except Exception:
            self._abort()
            raise
        txn, events = self._txn, self._txn_events
        self._end()
        self._statistics["transactions"] += 1
        if self.auto_publish:
            self.publish_snapshot()
        if self._commit_listeners:
            deltas = {name: delta.freeze() for name, delta in txn.items() if delta}
            committed = CommittedTransaction(self._snapshot.epoch, deltas, events)
            for listener in self._commit_listeners:
                listener(committed)

    def rollback(self) -> None:
        if not self._in_transaction:
            raise TransactionError("rollback without begin")
        self._abort()
        self._statistics["rollbacks"] += 1
        if self.auto_publish:
            self.publish_snapshot()

    def _abort(self) -> None:
        """Undo the open transaction by applying its inverse Δ."""
        txn = self._txn
        self._end()
        self.apply_committed(
            {name: delta.freeze().inverse() for name, delta in txn.items()}
        )

    def _end(self) -> None:
        """Close the transaction: drop its Δ-map and the wave Δs."""
        reg = metrics.ACTIVE
        if reg is not None:
            dropped = 0
            for name in self._monitored:
                wave = self._wave(name)
                if wave:
                    dropped += len(wave)
            if dropped:
                reg.counter("delta.dropped_rows").inc(dropped)
        self._in_transaction = False
        self._statistics["events"] += self._txn_events
        self._txn = {}
        self._txn_events = 0
        self._deltas = {}

    @contextlib.contextmanager
    def transaction(self) -> Iterator["Database"]:
        """``with db.transaction(): ...`` — commit on success, roll back on error."""
        self.begin()
        try:
            yield self
        except Exception:
            if self._in_transaction:
                self.rollback()
            raise
        else:
            if self._in_transaction:
                self.commit()

    @contextlib.contextmanager
    def _implicit_transaction(self) -> Iterator[None]:
        if self._in_transaction:
            yield
        else:
            self.begin()
            try:
                yield
            except Exception:
                if self._in_transaction:
                    self.rollback()
                raise
            else:
                if self._in_transaction:
                    self.commit()

    # -- snapshots -------------------------------------------------------------------

    @property
    def snapshot_epoch(self) -> int:
        """Epoch of the latest published snapshot (monotone)."""
        return self._snapshot.epoch

    def snapshot(self) -> DatabaseSnapshot:
        """The latest published snapshot — a single reference read.

        Never rebuilds anything, so it is safe from any thread at any
        time, including while a writer holds a commit mid-check-phase:
        readers simply see the last fully-committed epoch.
        """
        return self._snapshot

    def snapshot_at(self, epoch: int) -> DatabaseSnapshot:
        """The published snapshot of exactly ``epoch``, from the ring.

        Lock-free like :meth:`snapshot`: one reference read of the ring
        tuple, then a scan of at most ``snapshot_history`` entries.
        Raises :class:`SnapshotEpochError` when the epoch was evicted
        (too old) or not yet published, naming the addressable window
        so callers can re-pin.
        """
        ring = self._snapshot_ring
        for snapshot in reversed(ring):
            if snapshot.epoch == epoch:
                return snapshot
        latest = ring[-1].epoch
        if epoch > latest:
            raise SnapshotEpochError(
                f"epoch {epoch} has not been published yet "
                f"(latest is {latest})"
            )
        raise SnapshotEpochError(
            f"epoch {epoch} was evicted from the snapshot history "
            f"(addressable epochs: {ring[0].epoch}..{latest}, "
            f"history size {len(ring)})"
        )

    def snapshot_epochs(self) -> Tuple[int, ...]:
        """Epochs currently addressable via :meth:`snapshot_at`."""
        return tuple(snapshot.epoch for snapshot in self._snapshot_ring)

    def publish_snapshot(self) -> DatabaseSnapshot:
        """Capture and publish the current committed state (writer-side).

        Must only be called from the thread that serializes updates
        (the server calls it at every transaction boundary under the
        engine lock; ``auto_publish`` automates that).  During an open
        transaction the last published snapshot is returned unchanged —
        uncommitted state is never published.  Publication is
        copy-on-write: relations unchanged since the previous epoch
        share their frozenset with it, so the cost is proportional to
        what the transaction actually touched.
        """
        if self._in_transaction:
            return self._snapshot
        versions = {
            name: relation.version for name, relation in self._relations.items()
        }
        if versions == self._snapshot_versions:
            return self._snapshot  # nothing changed: keep the epoch stable
        return self._publish(self._snapshot.epoch + 1, versions)

    def restore_epoch(self, epoch: int) -> DatabaseSnapshot:
        """Publish the current state under an *explicit* epoch.

        The explicit-epoch arm of :meth:`publish_snapshot`, reached
        through :meth:`apply_committed`: replaying a committed record
        reproduces the exact epoch sequence the original process
        published — including gaps left by rollback churn — so
        epoch-pinned readers see the same numbering after a crash and
        on a replica.  Only moves forward, and publishes even when no
        relation changed (the original did).
        """
        if self._in_transaction:
            raise TransactionError("restore_epoch inside a transaction")
        if epoch <= self._snapshot.epoch:
            raise SnapshotEpochError(
                f"cannot restore epoch {epoch}: already at "
                f"{self._snapshot.epoch} (epochs only move forward)"
            )
        return self._publish(
            epoch,
            {name: relation.version for name, relation in self._relations.items()},
        )

    def _publish(self, epoch: int, versions: Dict[str, int]) -> DatabaseSnapshot:
        """The one publisher: freeze, swap the reference, extend the ring."""
        dirty = sum(
            1
            for relation in self._relations.values()
            if not relation.has_fresh_snapshot
        )
        tracer = tracing.ACTIVE
        span = (
            tracer.begin("snapshot.publish", dirty_relations=dirty)
            if tracer is not None
            else None
        )
        try:
            tables = {
                name: relation.freeze()
                for name, relation in self._relations.items()
            }
            published = DatabaseSnapshot(epoch, tables)
        finally:
            if span is not None:
                tracer.finish(span)
        self._snapshot_versions = versions
        # single reference assignment: readers switch epochs atomically
        self._snapshot = published
        # the history ring is likewise replaced, never mutated: readers
        # holding the old tuple still see a consistent (older) window
        limit = max(1, int(self.snapshot_history))
        self._snapshot_ring = (self._snapshot_ring + (published,))[-limit:]
        reg = metrics.ACTIVE
        if reg is not None:
            reg.counter("snapshot.publishes").inc()
            reg.gauge("snapshot.epoch").set(published.epoch)
            reg.histogram("snapshot.dirty_relations").observe(dirty)
        return published

    def apply_committed(
        self, deltas: Dict[str, DeltaSet], epoch: Optional[int] = None
    ) -> int:
        """Apply a committed transaction's net Δ-map; return rows applied.

        The one writer beneath the transaction / rule machinery — no
        delta accumulation, no check phase, no listeners — that WAL
        recovery and the replica apply loop both replay a commit
        through, and that rollback applies a transaction's inverse Δ
        through (docs/DURABILITY.md, "Applying a committed record").
        Minus before plus; deltas are net state differences, so plain
        set operations suffice and re-applying rows already held is a
        no-op.  A relation the schema bootstrap did not create is
        created from the rows' arity — without the publication
        ``auto_publish`` would add, which would show lock-free readers
        the relation empty at an epoch the original never had.  With
        ``epoch`` the resulting state is published once, after the
        rows, at exactly that epoch (when it is ahead of the current
        one).
        """
        applied = 0
        for name, delta in deltas.items():
            relation = self._relations.get(name)
            if relation is None:
                rows = delta.plus or delta.minus
                if not rows:
                    continue
                # not create_relation(): it would auto-publish here
                relation = BaseRelation(name, len(next(iter(rows))))
                self._relations[name] = relation
                for listener in self._catalog_listeners:
                    listener("create", relation)
            before = len(relation)
            for row in delta.minus:
                relation.delete(row)
            kept = len(relation)
            for row in delta.plus:
                relation.insert(row)
            applied += (before - kept) + (len(relation) - kept)
        if epoch is not None and epoch > self._snapshot.epoch:
            self.restore_epoch(epoch)
        return applied

    # -- hooks ---------------------------------------------------------------------

    def add_check_hook(self, hook: CheckHook) -> None:
        """Register a commit-time (check phase) hook; order = registration."""
        self._check_hooks.append(hook)

    def remove_check_hook(self, hook: CheckHook) -> None:
        self._check_hooks.remove(hook)

    def add_commit_listener(self, listener: CommitListener) -> None:
        """Register a post-check, pre-ack commit listener (the WAL)."""
        self._commit_listeners.append(listener)

    def remove_commit_listener(self, listener: CommitListener) -> None:
        self._commit_listeners.remove(listener)

    def add_catalog_listener(self, listener: CatalogListener) -> None:
        """Register a listener for relation create/drop."""
        self._catalog_listeners.append(listener)

    def remove_catalog_listener(self, listener: CatalogListener) -> None:
        self._catalog_listeners.remove(listener)

    # -- introspection ----------------------------------------------------------------

    @property
    def statistics(self) -> Dict[str, int]:
        stats = dict(self._statistics)
        stats["events"] += self._txn_events  # the open transaction's
        return stats

    def __repr__(self) -> str:
        return (
            f"Database(relations={len(self._relations)}, "
            f"monitored={len(self._monitored)}, "
            f"in_transaction={self._in_transaction})"
        )
