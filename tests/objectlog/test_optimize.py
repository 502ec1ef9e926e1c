"""Tests for static clause-body ordering (the differential optimizer)."""

import pytest

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView
from repro.errors import UnsafeClauseError
from repro.objectlog.batch import compile_plan
from repro.objectlog.clause import HornClause
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.literals import Assignment, Comparison, PredLiteral
from repro.objectlog.optimize import order_body, order_clause
from repro.objectlog.program import Program
from repro.objectlog.terms import Arith, Variable
from repro.storage.database import Database
from tests.objectlog.bruteforce import BruteForce

X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")


@pytest.fixture
def program():
    p = Program()
    p.declare_base("q", 2)
    p.declare_base("r", 2)
    p.declare_derived("d", 2)
    p.add_clause(HornClause(PredLiteral("d", (X, Y)), [PredLiteral("q", (X, Y))]))
    p.declare_foreign("f", 2, 1, lambda x: [(x,)])
    return p


class TestOrderBody:
    def test_delta_literal_first(self, program):
        body = [
            PredLiteral("r", (Y, Z)),
            Comparison("<", Y, Z),
            PredLiteral("q", (X, Y), delta="+"),
        ]
        ordered = order_body(body, program)
        assert ordered[0].delta == "+"

    def test_ready_builtins_run_as_soon_as_bound(self, program):
        body = [
            PredLiteral("q", (X, Y)),
            PredLiteral("r", (Y, Z)),
            Comparison("<", X, Y),
        ]
        ordered = order_body(body, program)
        # the comparison must come right after q binds X and Y,
        # before the r read fans out
        assert isinstance(ordered[1], Comparison)

    def test_probes_before_scans(self, program):
        """After the delta binds Y, the r literal (probe on Y) should
        beat the q literal (full scan)."""
        body = [
            PredLiteral("q", (W, Z)),
            PredLiteral("r", (Y, Z)),
            PredLiteral("q", (X, Y), delta="+"),
        ]
        ordered = order_body(body, program)
        assert ordered[0].delta == "+"
        assert ordered[1].pred == "r"  # Y bound: probe
        assert ordered[2].pred == "q"  # scan last

    def test_base_preferred_over_derived_on_ties(self, program):
        body = [PredLiteral("d", (X, Y)), PredLiteral("q", (X, Y))]
        ordered = order_body(body, program)
        assert ordered[0].pred == "q"

    def test_negation_waits_for_bindings(self, program):
        body = [
            PredLiteral("q", (X, Y), negated=True),
            PredLiteral("r", (X, Y)),
        ]
        ordered = order_body(body, program)
        assert ordered[0].pred == "r"
        assert ordered[1].negated

    def test_foreign_waits_for_inputs(self, program):
        body = [PredLiteral("f", (Y, Z)), PredLiteral("q", (X, Y))]
        ordered = order_body(body, program)
        assert ordered[0].pred == "q"

    def test_assignment_chain(self, program):
        body = [
            Comparison("<", Z, 100),
            Assignment(Z, Arith("*", Y, 2)),
            PredLiteral("q", (X, Y)),
        ]
        ordered = order_body(body, program)
        assert [type(l).__name__ for l in ordered] == [
            "PredLiteral",
            "Assignment",
            "Comparison",
        ]

    def test_bound_vars_seed_the_order(self, program):
        body = [PredLiteral("q", (X, Y), negated=True)]
        with pytest.raises(UnsafeClauseError):
            order_body(body, program)
        ordered = order_body(body, program, bound_vars=(X, Y))
        assert ordered[0].negated

    def test_unsafe_body_rejected(self, program):
        with pytest.raises(UnsafeClauseError):
            order_body([Comparison("<", X, Y)], program)

    def test_equal_ranks_keep_first_occurrence_order(self, program):
        """Ties resolve to textual order — reordering must be a pure
        function of the body, never of iteration incidentals."""
        body = [PredLiteral("r", (X, Y)), PredLiteral("q", (X, Y))]
        ordered = order_body(body, program)
        assert [l.pred for l in ordered] == ["r", "q"]
        flipped = order_body(list(reversed(body)), program)
        assert [l.pred for l in flipped] == ["q", "r"]

    def test_delta_ties_broken_by_bound_count(self, program):
        """Two delta reads: the one probing already-bound variables
        leads (its delta rows filter hardest)."""
        body = [
            PredLiteral("q", (Z, W), delta="+"),
            PredLiteral("r", (X, Y), delta="+"),
        ]
        ordered = order_body(body, program, bound_vars=(X, Y))
        assert ordered[0].pred == "r"

    def test_foreign_with_partial_inputs_waits(self, program):
        """f's input is Y; a body binding Y only through the relation
        read must schedule the read first even though the foreign call
        has a lower cost class."""
        body = [
            PredLiteral("f", (Y, Z)),
            PredLiteral("q", (X, Y)),
            Comparison("<", X, 5),
        ]
        ordered = order_body(body, program, bound_vars=(X,))
        preds = [getattr(l, "pred", type(l).__name__) for l in ordered]
        assert preds.index("q") < preds.index("f")

    def test_order_clause_preserves_head_and_literals(self, program):
        clause = HornClause(
            PredLiteral("out", (X, Z)),
            [
                Comparison("<", X, 2),
                PredLiteral("r", (Y, Z)),
                PredLiteral("q", (X, Y)),
            ],
        )
        ordered = order_clause(clause, program)
        assert ordered.head == clause.head
        assert sorted(map(repr, ordered.body)) == sorted(map(repr, clause.body))

    def test_bound_negation_runs_before_fanout(self, program):
        """Once its variables are bound, negation is a cheap filter and
        must precede any further relation read."""
        body = [
            PredLiteral("r", (Y, Z)),
            PredLiteral("q", (X, Y), negated=True),
        ]
        ordered = order_body(body, program, bound_vars=(X, Y))
        assert ordered[0].negated
        assert ordered[1].pred == "r"


class TestOrderedEvaluation:
    def test_static_and_dynamic_agree(self, program):
        db = Database()
        db.create_relation("q", 2).bulk_insert([(1, 1), (1, 2), (2, 3)])
        db.create_relation("r", 2).bulk_insert([(1, 10), (2, 20), (3, 30)])
        clause = HornClause(
            PredLiteral("p", (X, Z)),
            [
                Comparison("<", X, 2),
                PredLiteral("r", (Y, Z)),
                PredLiteral("q", (X, Y)),
            ],
        )
        ordered = order_clause(clause, program)
        view = NewStateView(db)
        reference = BruteForce(program, view).clause_rows(clause)
        evaluator = Evaluator(program, view)
        static = set(compile_plan(ordered, program).rows(evaluator))
        assert reference == static == {(1, 10), (1, 20)}

    def test_network_marks_differentials_static(self, program):
        """Every differential on a network edge is statically ordered
        and compiled at activation."""
        from repro.rules.network import PropagationNetwork

        program.declare_derived("cond", 2)
        program.add_clause(HornClause(
            PredLiteral("cond", (X, Z)),
            [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))],
        ))
        network = PropagationNetwork(program)
        network.add_condition("cond")
        for edge in network.edges():
            for differential in edge.differentials():
                assert differential.plan.clause is differential.clause
                # the delta read leads the ordered body
                assert differential.clause.body[0].delta is not None
