"""Tests for the breadth-first bottom-up propagation algorithm (section 5)."""

import pytest

from repro.algebra.delta import DeltaSet
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable
from repro.rules.network import PropagationNetwork
from repro.rules.propagation import Propagator
from repro.storage.database import Database

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def clause(head, *body):
    return HornClause(head, list(body))


def make_setup(shared=False):
    """p <- q join r, optionally with mid = q kept as a shared node."""
    db = Database()
    db.create_relation("q", 2).bulk_insert([(1, 1), (2, 2)])
    db.create_relation("r", 2).bulk_insert([(1, 10), (2, 20)])
    program = Program()
    program.declare_base("q", 2)
    program.declare_base("r", 2)
    program.declare_derived("mid", 2)
    program.add_clause(clause(PredLiteral("mid", (X, Y)), PredLiteral("q", (X, Y))))
    program.declare_derived("p", 2)
    program.add_clause(clause(
        PredLiteral("p", (X, Z)),
        PredLiteral("mid", (X, Y)),
        PredLiteral("r", (Y, Z)),
    ))
    network = PropagationNetwork(program)
    keep = frozenset({"mid"}) if shared else frozenset()
    network.add_condition("p", keep=keep)
    propagator = Propagator(program, db, network)
    return db, program, network, propagator


def apply(db, name, delta):
    relation = db.relation(name)
    for row in delta.plus:
        relation.insert(row)
    for row in delta.minus:
        relation.delete(row)


def make_guard_setup():
    """p derivable through q AND q2 (the section-7.2 guard scenario)."""
    db = Database()
    db.create_relation("q", 2).bulk_insert([(1, 1)])
    db.create_relation("q2", 2).bulk_insert([(1, 1)])
    db.create_relation("r", 2).bulk_insert([(1, 10)])
    program = Program()
    for name in ("q", "q2", "r"):
        program.declare_base(name, 2)
    program.declare_derived("p", 2)
    program.add_clause(clause(
        PredLiteral("p", (X, Z)), PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))
    ))
    program.add_clause(clause(
        PredLiteral("p", (X, Z)), PredLiteral("q2", (X, Y)), PredLiteral("r", (Y, Z))
    ))
    network = PropagationNetwork(program)
    network.add_condition("p")
    return db, Propagator(program, db, network)


class TestFlatPropagation:
    def test_insert_propagates(self):
        db, _, _, propagator = make_setup()
        delta = DeltaSet({(3, 1)}, set())
        apply(db, "q", delta)
        results = propagator.run({"q": delta})
        assert results == {"p": DeltaSet({(3, 10)}, set())}

    def test_delete_propagates_via_old_state(self):
        db, _, _, propagator = make_setup()
        delta = DeltaSet(set(), {(1, 1)})
        apply(db, "q", delta)
        results = propagator.run({"q": delta})
        assert results == {"p": DeltaSet(set(), {(1, 10)})}

    def test_unrelated_delta_produces_nothing(self):
        db, program, network, propagator = make_setup()
        db.create_relation("other", 1)
        results = propagator.run({"other": DeltaSet({(1,)}, set())})
        assert results == {}

    def test_empty_delta_runs_nothing(self):
        _, _, _, propagator = make_setup()
        assert propagator.run({}) == {}

    def test_mixed_insert_and_delete(self):
        db, _, _, propagator = make_setup()
        delta_q = DeltaSet({(3, 2)}, {(1, 1)})
        apply(db, "q", delta_q)
        results = propagator.run({"q": delta_q})
        assert results["p"] == DeltaSet({(3, 20)}, {(1, 10)})


class TestGuardedNegatives:
    def test_overlapping_deletion_still_derivable_is_guarded(self):
        """q(1,1) deleted but q'(1,1) derivable via a second clause: the
        deletion of p(1,10) must be suppressed (section 7.2)."""
        db = Database()
        db.create_relation("q", 2).bulk_insert([(1, 1)])
        db.create_relation("q2", 2).bulk_insert([(1, 1)])
        db.create_relation("r", 2).bulk_insert([(1, 10)])
        program = Program()
        program.declare_base("q", 2)
        program.declare_base("q2", 2)
        program.declare_base("r", 2)
        program.declare_derived("p", 2)
        # p has two derivations of the same tuple
        program.add_clause(clause(
            PredLiteral("p", (X, Z)),
            PredLiteral("q", (X, Y)),
            PredLiteral("r", (Y, Z)),
        ))
        program.add_clause(clause(
            PredLiteral("p", (X, Z)),
            PredLiteral("q2", (X, Y)),
            PredLiteral("r", (Y, Z)),
        ))
        network = PropagationNetwork(program)
        network.add_condition("p")
        propagator = Propagator(program, db, network)
        delta = DeltaSet(set(), {(1, 1)})
        apply(db, "q", delta)
        results = propagator.run({"q": delta}, trace=True)
        assert results == {}  # p(1,10) still derivable through q2
        trace = propagator.last_trace
        guarded = [e for e in trace.executions if e.guarded_away]
        # the raw over-propagated candidate, dropped by the guard
        assert guarded and guarded[0].guarded_away == {(1, 10)}


class TestSharedNodePropagation:
    def test_two_level_propagation(self):
        db, _, network, propagator = make_setup(shared=True)
        assert network.node("mid").level == 1
        delta = DeltaSet({(3, 1)}, set())
        apply(db, "q", delta)
        results = propagator.run({"q": delta}, trace=True)
        assert results == {"p": DeltaSet({(3, 10)}, set())}
        labels = propagator.last_trace.executed_labels()
        assert "Δmid/Δ+q" in labels
        assert "Δp/Δ+mid" in labels

    def test_wave_front_cleared_after_run(self):
        db, _, network, propagator = make_setup(shared=True)
        delta = DeltaSet({(3, 1)}, set())
        apply(db, "q", delta)
        propagator.run({"q": delta})
        for node in network.nodes.values():
            assert node.delta.empty, f"{node.name} kept its wave front"

    def test_deletion_through_shared_node(self):
        db, _, _, propagator = make_setup(shared=True)
        delta = DeltaSet(set(), {(2, 2)})
        apply(db, "q", delta)
        results = propagator.run({"q": delta})
        assert results["p"] == DeltaSet(set(), {(2, 20)})


class TestOnlyApplicableDifferentialsExecute:
    def test_insert_only_runs_positive_differentials(self):
        db, _, _, propagator = make_setup()
        delta = DeltaSet({(3, 1)}, set())
        apply(db, "q", delta)
        propagator.run({"q": delta}, trace=True)
        signs = {e.input_sign for e in propagator.last_trace.executions}
        assert signs == {"+"}

    def test_untouched_influent_executes_nothing(self):
        db, _, _, propagator = make_setup()
        delta = DeltaSet({(5, 50)}, set())
        apply(db, "r", delta)
        propagator.run({"r": delta}, trace=True)
        influents = {e.influent for e in propagator.last_trace.executions}
        assert influents == {"r"}


class TestTraceContents:
    def test_contributors_of(self):
        db, _, _, propagator = make_setup()
        delta = DeltaSet({(3, 1)}, set())
        apply(db, "q", delta)
        propagator.run({"q": delta}, trace=True)
        contributors = propagator.last_trace.contributors_of("p", (3, 10))
        assert len(contributors) == 1
        assert contributors[0].influent == "q"
        assert propagator.last_trace.contributors_of("p", (9, 9)) == []

    def test_for_target(self):
        db, _, _, propagator = make_setup(shared=True)
        delta = DeltaSet({(3, 1)}, set())
        apply(db, "q", delta)
        propagator.run({"q": delta}, trace=True)
        targets = {e.target for e in propagator.last_trace.executions}
        assert targets == {"mid", "p"}
        assert all(
            e.target == "p" for e in propagator.last_trace.for_target("p")
        )


class TestSetAtATimeExecution:
    """Compiled plans, the two shared run evaluators, batched guards."""

    def test_batched_guard_counter(self):
        from repro.obs import metrics

        db, propagator = make_guard_setup()
        delta = DeltaSet(set(), {(1, 1)})
        apply(db, "q", delta)
        with metrics.collecting() as registry:
            results = propagator.run({"q": delta})
        assert results == {}
        assert registry.value("propagation.guard_batched") >= 1
        assert registry.value("propagation.tuples_guarded") == 1

    def test_wavefront_gauge_counts_live_rows_incrementally(self):
        from repro.obs import metrics

        db, _, _, propagator = make_setup(shared=True)
        delta = DeltaSet({(3, 1), (4, 2)}, set())
        apply(db, "q", delta)
        with metrics.collecting() as registry:
            propagator.run({"q": delta})
        peak = registry.gauge("propagation.wavefront_peak").max_value
        # at the peak both q's delta (2 rows) and what it produced
        # upward are materialized simultaneously
        assert peak >= 2
        # every delta-set was discarded as the wave front passed
        assert propagator._live == 0
        for node in propagator.network.nodes.values():
            assert node.delta.empty

    def test_consecutive_runs_share_no_stale_state(self):
        """The two persistent run evaluators must be fully reset between
        runs: memos, delta indexes, and probers from run 1 must not
        leak into run 2."""
        db, _, _, propagator = make_setup(shared=True)
        first = DeltaSet({(3, 1)}, set())
        apply(db, "q", first)
        assert propagator.run({"q": first}) == {"p": DeltaSet({(3, 10)}, set())}
        second = DeltaSet(set(), {(3, 1)})
        apply(db, "q", second)
        assert propagator.run({"q": second}) == {"p": DeltaSet(set(), {(3, 10)})}
        third = DeltaSet({(5, 2)}, set())
        apply(db, "q", third)
        assert propagator.run({"q": third}) == {"p": DeltaSet({(5, 20)}, set())}
