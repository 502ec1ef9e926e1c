"""Probe resolution belongs to the relation.

A compiled plan step asks its evaluator's view for a ``key -> rows``
probe once per execution.  The only caches behind that call are
``BaseRelation._probers`` — index-backed bucket readers, dropped when
the relation evicts the index behind them — and the indexes an
immutable ``RowSet`` builds on itself, so nothing above the relation
can serve a stale probe: not across ``reset()``, not across a
relation becoming touched by the rollback delta, not across metrics
being switched on.
"""

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView, OldStateView
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.program import Program
from repro.obs import metrics
from repro.storage.database import Database


def make_evaluator(names=("rel0",), rows=((1, 2), (3, 4)), old=False):
    db = Database()
    program = Program()
    for name in names:
        program.declare_base(name, 2)
        db.create_relation(name, 2).bulk_insert(rows)
    view = OldStateView(db, {}) if old else NewStateView(db)
    return db, Evaluator(program, view)


def twenty_rows():
    return [(k, k + 1) for k in range(20)]


class TestProberCache:
    def test_probers_actually_probe(self):
        _, evaluator = make_evaluator()
        probe = evaluator.view.prober("rel0", (0,))
        assert set(probe((1,))) == {(1, 2)}

    def test_reset_keeps_live_view_probers(self):
        """New-state probers read live, incrementally maintained
        structures: the relation hands the same closure out check phase
        after check phase."""
        db, evaluator = make_evaluator(rows=twenty_rows())
        probe = evaluator.view.prober("rel0", (0,))
        evaluator.reset()
        assert evaluator.view.prober("rel0", (0,)) is probe
        # a probe resolved with metrics off reads buckets directly; a
        # metered phase must resolve to HashIndex.probe so probe
        # accounting stays exact
        with metrics.collecting() as reg:
            metered = evaluator.view.prober("rel0", (0,))
            assert set(metered((3,))) == {(3, 4)}
        assert metered is not probe
        assert reg.counters()["index.probes"] == 1

    def test_reset_clears_snapshot_view_probers(self):
        """An old-state prober over a touched relation belongs to that
        transaction's ``RolledBack``; ``reset()`` drops it, so the next
        resolution answers for the new transaction's old state, never
        the previous one's.  The deleted rows' key index is the
        delta-set's own minus side — the very object the old-state
        evaluator's delta literal reads."""
        db, evaluator = make_evaluator(rows=twenty_rows(), old=True)
        view = evaluator.view
        relation = db.relation("rel0")
        relation.delete((5, 6))
        first = DeltaSet(minus=[(5, 6)])
        view.reset({"rel0": first})
        before = view.prober("rel0", (0,))
        assert set(before((5,))) == {(5, 6)}
        evaluator.set_delta("rel0", first)
        with metrics.collecting() as reg:
            delta_probe = evaluator.prober_of("rel0", "-", (0,))
            assert delta_probe is first.side("-").prober((0,))
            assert delta_probe((5,)) == [(5, 6)]
        assert reg.value("evaluate.delta_indexes_built") == 0  # the view built it
        # the deletion commits; the next transaction deletes (7, 8)
        relation.delete((7, 8))
        view.reset({"rel0": DeltaSet(minus=[(7, 8)])})
        evaluator.reset()
        probe = view.prober("rel0", (0,))
        assert probe is not before
        assert set(probe((5,))) == set()
        assert set(probe((7,))) == {(7, 8)}

    def test_untouched_relation_old_probers_survive_reset(self):
        """An old-state prober for a relation the rollback delta does
        not touch IS the live relation's (the old state is the new
        state there) — the monitoring steady state."""
        db, evaluator = make_evaluator(
            names=("touched", "untouched"), rows=twenty_rows(), old=True
        )
        view = evaluator.view
        view.reset({"touched": DeltaSet(plus=[(0, 1)])})
        stable = view.prober("untouched", (0,))
        assert stable is db.relation("untouched").prober((0,))
        view.reset({"touched": DeltaSet(plus=[(2, 3)])})
        evaluator.reset()
        assert view.prober("untouched", (0,)) is stable
        assert set(stable((3,))) == {(3, 4)}

    def test_old_prober_invalidated_when_relation_becomes_touched(self):
        """Once a transaction DOES change the relation, the live probe
        would read the new state: after the view's ``reset()`` makes the
        relation touched, resolution must go through the rollback
        reconstruction."""
        db, evaluator = make_evaluator(rows=twenty_rows(), old=True)
        view = evaluator.view
        relation = db.relation("rel0")
        live = view.prober("rel0", (0,))
        view.reset({"rel0": DeltaSet(plus=[(5, 99)])})
        evaluator.reset()
        relation.insert((5, 99))
        rollback = view.prober("rel0", (0,))
        assert rollback is not live
        # the old state never contained the inserted row
        assert set(rollback((5,))) == {(5, 6)}
        assert set(live((5,))) == {(5, 6), (5, 99)}

    def test_index_eviction_drops_the_cached_prober(self):
        """A cached probe closes over its index's buckets; once the
        auto-index budget evicts that index the buckets are orphaned,
        so the relation forgets the probe with it."""
        db, evaluator = make_evaluator()
        wide = db.create_relation("wide", 12)
        evaluator.program.declare_base("wide", 12)
        wide.bulk_insert([tuple(i * 12 + c for c in range(12)) for i in range(30)])
        view = evaluator.view
        stale = view.prober("wide", (0,))
        for col in range(1, wide.AUTO_INDEX_BUDGET + 1):
            view.prober("wide", (col,))
        assert wide.index_on((0,)) is None
        wide.insert(tuple(range(1000, 1012)))
        fresh = view.prober("wide", (0,))
        assert fresh is not stale
        assert set(fresh((1000,))) == {tuple(range(1000, 1012))}
        assert not stale((1000,))  # the orphaned buckets never saw it

    def test_scan_probe_rechecks_after_growth(self):
        """A probe resolved while the relation was small is a scan and
        is not cached; once the relation outgrows the auto-index
        threshold the next resolution builds the index."""
        db, evaluator = make_evaluator()
        relation = db.relation("rel0")
        evaluator.view.prober("rel0", (0,))  # 2 rows: scan fallback
        assert relation.index_on((0,)) is None
        relation.bulk_insert([(k, k) for k in range(10, 30)])
        probe = evaluator.view.prober("rel0", (0,))  # builds the index
        assert relation.index_on((0,)) is not None
        assert set(probe((1,))) == {(1, 2)}

    def test_zero_overhead_when_metrics_off(self):
        """Unmetered, resolving twice is two dict reads: the same
        closure, nothing allocated per resolution."""
        db, evaluator = make_evaluator(rows=twenty_rows())
        assert metrics.ACTIVE is None
        first = evaluator.view.prober("rel0", (0,))
        assert evaluator.view.prober("rel0", (0,)) is first
        assert len(db.relation("rel0")._probers) == 1
