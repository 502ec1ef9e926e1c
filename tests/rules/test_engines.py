"""Tests for the three monitoring engines and their agreement."""

import pytest

from repro.algebra.delta import DeltaSet
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable
from repro.rules.engines import IncrementalEngine, NaiveEngine
from repro.storage.database import Database

X, Y = Variable("X"), Variable("Y")


def make_setup():
    db = Database()
    db.create_relation("value", 2)
    program = Program()
    program.declare_base("value", 2)
    program.declare_derived("low", 1)
    program.add_clause(HornClause(
        PredLiteral("low", (X,)),
        [PredLiteral("value", (X, Y)), Comparison("<", Y, 10)],
    ))
    conditions = {"low": frozenset({"value"})}
    return db, program, conditions


def apply_and_delta(db, plus=(), minus=()):
    for row in minus:
        db.relation("value").delete(row)
    for row in plus:
        db.relation("value").insert(row)
    return {"value": DeltaSet(frozenset(plus), frozenset(minus))}


class TestIncrementalEngine:
    def test_process(self):
        db, program, conditions = make_setup()
        engine = IncrementalEngine(db, program)
        engine.rebuild(conditions)
        deltas = apply_and_delta(db, plus=[("a", 5)])
        assert engine.process(deltas) == {"low": DeltaSet({("a",)}, set())}

    def test_trace_available(self):
        db, program, conditions = make_setup()
        engine = IncrementalEngine(db, program)
        engine.rebuild(conditions)
        deltas = apply_and_delta(db, plus=[("a", 5)])
        engine.process(deltas, trace=True)
        assert engine.last_trace is not None
        assert engine.last_trace.executed_labels() == ["Δlow/Δ+value"]

    def test_rebuild_replaces_network(self):
        db, program, conditions = make_setup()
        engine = IncrementalEngine(db, program)
        engine.rebuild(conditions)
        engine.rebuild({})
        deltas = apply_and_delta(db, plus=[("a", 5)])
        assert engine.process(deltas) == {}


class TestNaiveEngine:
    def test_process_diffs_against_materialized_previous(self):
        db, program, conditions = make_setup()
        db.relation("value").insert(("old", 1))
        engine = NaiveEngine(db, program)
        engine.rebuild(conditions)  # previous = {old}
        deltas = apply_and_delta(db, plus=[("a", 5)], minus=[("old", 1)])
        result = engine.process(deltas)
        assert result == {"low": DeltaSet({("a",)}, {("old",)})}

    def test_untouched_condition_not_recomputed(self):
        db, program, conditions = make_setup()
        db.create_relation("other", 1)
        engine = NaiveEngine(db, program)
        engine.rebuild(conditions)
        db.relation("other").insert((1,))
        result = engine.process({"other": DeltaSet({(1,)}, set())})
        assert result == {}

    def test_no_change_yields_nothing(self):
        db, program, conditions = make_setup()
        engine = NaiveEngine(db, program)
        engine.rebuild(conditions)
        deltas = apply_and_delta(db, plus=[("a", 99)])  # not low
        assert engine.process(deltas) == {}

    def test_aggregate_condition_is_recomputed(self):
        """A condition that is not a derived predicate (here a grouped
        aggregate) has no clauses to expand; it is recomputed as one
        goal literal."""
        db, program, _ = make_setup()
        program.declare_aggregate("total", "value", 1, "sum")
        db.relation("value").insert(("a", 5))
        engine = NaiveEngine(db, program)
        engine.rebuild({"total": frozenset({"value"})})
        deltas = apply_and_delta(db, plus=[("a", 7)], minus=[("a", 5)])
        assert engine.process(deltas) == {
            "total": DeltaSet({("a", 7)}, {("a", 5)})
        }

    def test_resync_with_pending_deltas_restores_old_view(self):
        db, program, conditions = make_setup()
        engine = NaiveEngine(db, program)
        engine.rebuild(conditions)
        # simulate: a transaction inserted ("a",5) and the engine state
        # got stale; resync must rebuild previous WITHOUT ("a",5)
        deltas = apply_and_delta(db, plus=[("a", 5)])
        engine.resync(deltas)
        assert engine.process(deltas) == {"low": DeltaSet({("a",)}, set())}


class TestEngineAgreement:
    @pytest.mark.parametrize("step", range(5))
    def test_incremental_and_naive_agree(self, step):
        """Randomized-ish update batches give identical condition deltas."""
        import random

        rng = random.Random(step)
        base = [(f"k{i}", rng.randrange(0, 20)) for i in range(10)]
        plus = [(f"p{step}{i}", rng.randrange(0, 20)) for i in range(3)]
        minus = [base[rng.randrange(0, len(base))]]

        def fresh(engine_cls):
            db, program, conditions = make_setup()
            db.relation("value").bulk_insert(base)
            engine = engine_cls(db, program)
            engine.rebuild(conditions)
            deltas = apply_and_delta(db, plus=plus, minus=minus)
            return engine.process(deltas)

        assert fresh(IncrementalEngine) == fresh(NaiveEngine)
