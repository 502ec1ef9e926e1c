"""Tests for aggregate predicates (the section-8 extension)."""

import pytest

from repro.errors import ObjectLogError
from repro.objectlog.clause import HornClause
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.literals import PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable
from repro.algebra.oldstate import NewStateView
from repro.rules.network import PropagationNetwork
from repro.storage.database import Database

X, V = Variable("X"), Variable("V")


@pytest.fixture
def setup():
    """sales(region, order_id, amount) — order_id is the witness."""
    db = Database()
    sales = db.create_relation("sales", 3)
    sales.bulk_insert([
        ("north", 1, 100),
        ("north", 2, 100),  # same amount, distinct witness
        ("north", 3, 50),
        ("south", 4, 70),
    ])
    program = Program()
    program.declare_base("sales", 3)
    return db, program


def extension(db, program, name):
    return Evaluator(program, NewStateView(db)).extension(name)


class TestDeclaration:
    def test_all_functions(self, setup):
        db, program = setup
        for func in ("count", "sum", "min", "max", "avg"):
            program.declare_aggregate(f"{func}_by_region", "sales", 1, func)
        assert program.predicate("sum_by_region").kind == "aggregate"
        assert program.predicate("sum_by_region").arity == 2

    def test_unknown_function_rejected(self, setup):
        _, program = setup
        with pytest.raises(ObjectLogError):
            program.declare_aggregate("median_x", "sales", 1, "median")

    def test_source_arity_validated(self, setup):
        _, program = setup
        with pytest.raises(ObjectLogError):
            program.declare_aggregate("bad", "sales", 3, "sum")

    def test_direct_influents(self, setup):
        _, program = setup
        program.declare_aggregate("total", "sales", 1, "sum")
        assert program.direct_influents("total") == {"sales"}
        assert program.base_influents("total") == {"sales"}
        network = PropagationNetwork(program)
        network.add_condition("total")
        assert network.node("total").level == 1


class TestEvaluation:
    def test_sum_with_witnesses(self, setup):
        db, program = setup
        program.declare_aggregate("total", "sales", 1, "sum")
        assert extension(db, program, "total") == {
            ("north", 250),  # 100 + 100 + 50: duplicates kept by witness
            ("south", 70),
        }

    def test_count(self, setup):
        db, program = setup
        program.declare_aggregate("n_orders", "sales", 1, "count")
        assert extension(db, program, "n_orders") == {
            ("north", 3),
            ("south", 1),
        }

    def test_min_max_avg(self, setup):
        db, program = setup
        program.declare_aggregate("lo", "sales", 1, "min")
        program.declare_aggregate("hi", "sales", 1, "max")
        program.declare_aggregate("mean", "sales", 1, "avg")
        assert ("north", 50) in extension(db, program, "lo")
        assert ("north", 100) in extension(db, program, "hi")
        assert ("south", 70.0) in extension(db, program, "mean")

    def test_bound_group_probes_one_group(self, setup):
        db, program = setup
        program.declare_aggregate("total", "sales", 1, "sum")
        evaluator = Evaluator(program, NewStateView(db))
        rows = evaluator.rows("total", ((0, "south"),))
        assert [row[1] for row in rows] == [70]

    def test_empty_group_is_undefined(self, setup):
        db, program = setup
        program.declare_aggregate("total", "sales", 1, "sum")
        evaluator = Evaluator(program, NewStateView(db))
        assert list(evaluator.rows("total", ((0, "west"),))) == []

    def test_zero_group_aggregate(self, setup):
        """A 0-ary group: one global aggregate row."""
        db, program = setup
        program.declare_aggregate("grand_total", "sales", 0, "sum")
        # value column is the LAST source column
        assert extension(db, program, "grand_total") == {(320,)}

    def test_aggregate_over_derived_source(self, setup):
        db, program = setup
        program.declare_derived("big_sales", 3)
        A, O = Variable("A"), Variable("O")
        from repro.objectlog.literals import Comparison

        program.add_clause(HornClause(
            PredLiteral("big_sales", (X, O, A)),
            [PredLiteral("sales", (X, O, A)), Comparison(">=", A, 100)],
        ))
        program.declare_aggregate("big_total", "big_sales", 1, "sum")
        assert extension(db, program, "big_total") == {("north", 200)}

    def test_aggregate_usable_in_clause_bodies(self, setup):
        db, program = setup
        program.declare_aggregate("total", "sales", 1, "sum")
        program.declare_derived("busy_region", 1)
        from repro.objectlog.literals import Comparison

        program.add_clause(HornClause(
            PredLiteral("busy_region", (X,)),
            [PredLiteral("total", (X, V)), Comparison(">", V, 100)],
        ))
        assert extension(db, program, "busy_region") == {("north",)}
