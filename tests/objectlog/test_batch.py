"""Tests for the compiled set-at-a-time clause plans (repro.objectlog.batch)."""

import pytest

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView
from repro.errors import UnsafeClauseError
from repro.objectlog.batch import ClausePlan, compile_plan
from repro.objectlog.clause import HornClause
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.literals import Assignment, Comparison, PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Arith, Variable
from repro.obs import metrics
from repro.storage.database import Database

X, Y, Z, W = Variable("X"), Variable("Y"), Variable("Z"), Variable("W")


@pytest.fixture
def setup():
    db = Database()
    q = db.create_relation("q", 2)
    r = db.create_relation("r", 2)
    q.bulk_insert([(1, 1), (1, 2), (2, 3)])
    r.bulk_insert([(1, 10), (2, 20), (3, 30)])
    program = Program()
    program.declare_base("q", 2)
    program.declare_base("r", 2)
    return db, program


def evaluator(db, program, deltas=None):
    return Evaluator(program, NewStateView(db), deltas=deltas)


def plan_for(program, head_args, body, bound_vars=()):
    clause = HornClause(PredLiteral("out", tuple(head_args)), list(body))
    return compile_plan(clause, program, bound_vars=bound_vars)


class TestPlanExecution:
    def test_scan_then_join(self, setup):
        db, program = setup
        plan = plan_for(
            program,
            (X, Y, Z),
            [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))],
        )
        rows = set(plan.rows(evaluator(db, program)))
        assert rows == {(1, 1, 10), (1, 2, 20), (2, 3, 30)}

    def test_constant_probe(self, setup):
        db, program = setup
        plan = plan_for(program, (Y,), [PredLiteral("q", (1, Y))])
        assert set(plan.rows(evaluator(db, program))) == {(1,), (2,)}

    def test_repeated_variable_checks(self, setup):
        db, program = setup
        plan = plan_for(program, (X,), [PredLiteral("q", (X, X))])
        assert set(plan.rows(evaluator(db, program))) == {(1,)}

    def test_constant_in_emitted_head(self, setup):
        db, program = setup
        plan = plan_for(program, (X, 99), [PredLiteral("q", (X, 3))])
        assert set(plan.rows(evaluator(db, program))) == {(2, 99)}

    def test_fan_out_does_not_alias_registers(self, setup):
        """One seed register list matching several rows must fan out
        into independent solutions."""
        db, program = setup
        plan = plan_for(
            program,
            (X, Y, Z, W),
            [PredLiteral("r", (X, Y)), PredLiteral("q", (Z, W))],
        )
        rows = set(plan.rows(evaluator(db, program)))
        assert len(rows) == 9  # 3 r-rows x 3 q-rows, all distinct

    def test_comparison_filters(self, setup):
        db, program = setup
        plan = plan_for(
            program,
            (X, Y),
            [PredLiteral("r", (X, Y)), Comparison("<", Y, 25)],
        )
        assert set(plan.rows(evaluator(db, program))) == {(1, 10), (2, 20)}

    def test_assignment_binds(self, setup):
        db, program = setup
        plan = plan_for(
            program,
            (X, Z),
            [PredLiteral("r", (X, Y)), Assignment(Z, Arith("*", Y, 2))],
        )
        assert set(plan.rows(evaluator(db, program))) == {
            (1, 20), (2, 40), (3, 60),
        }

    def test_negation_filters(self, setup):
        db, program = setup
        plan = plan_for(
            program,
            (X, Y),
            [PredLiteral("r", (X, Y)), PredLiteral("q", (X, X), negated=True)],
        )
        assert set(plan.rows(evaluator(db, program))) == {(2, 20), (3, 30)}

    def test_derived_subgoal_uses_evaluator_memo(self, setup):
        db, program = setup
        program.declare_derived("big", 1)
        program.add_clause(
            HornClause(PredLiteral("big", (X,)), [PredLiteral("r", (X, Y)), Comparison(">", Y, 15)])
        )
        plan = plan_for(
            program,
            (X, Y),
            [PredLiteral("q", (X, Y)), PredLiteral("big", (Y,))],
        )
        assert set(plan.rows(evaluator(db, program))) == {(1, 2), (2, 3)}

    def test_delta_literal_reads_delta_side(self, setup):
        db, program = setup
        deltas = {"q": DeltaSet(frozenset({(7, 8)}), frozenset({(1, 1)}))}
        plus_plan = plan_for(
            program, (X, Y), [PredLiteral("q", (X, Y), delta="+")]
        )
        minus_plan = plan_for(
            program, (X, Y), [PredLiteral("q", (X, Y), delta="-")]
        )
        assert set(plus_plan.rows(evaluator(db, program, deltas))) == {(7, 8)}
        assert set(minus_plan.rows(evaluator(db, program, deltas))) == {(1, 1)}

    def test_delta_literal_keyed_probe(self, setup):
        db, program = setup
        deltas = {
            "q": DeltaSet(frozenset({(7, 8), (7, 9), (5, 6)}), frozenset())
        }
        plan = plan_for(program, (Y,), [PredLiteral("q", (7, Y), delta="+")])
        assert set(plan.rows(evaluator(db, program, deltas))) == {(8,), (9,)}

    def test_join_through_delta(self, setup):
        """The shape of a partial differential: delta-read joined
        against the stored state."""
        db, program = setup
        deltas = {"q": DeltaSet(frozenset({(9, 2)}), frozenset())}
        plan = plan_for(
            program,
            (X, Z),
            [PredLiteral("q", (X, Y), delta="+"), PredLiteral("r", (Y, Z))],
        )
        assert set(plan.rows(evaluator(db, program, deltas))) == {(9, 20)}


class TestGeneratedLiterals:
    """One case per kind of literal the generator writes out."""

    def test_variable_repeated_within_a_delta_row(self, setup):
        db, program = setup
        deltas = {"q": DeltaSet(frozenset({(4, 4), (4, 5)}), frozenset())}
        plan = plan_for(program, (X,), [PredLiteral("q", (X, X), delta="+")])
        assert plan.rows(evaluator(db, program, deltas)) == [(4,)]

    def test_constant_in_a_delta_literal(self, setup):
        db, program = setup
        deltas = {"q": DeltaSet(frozenset({(4, 8), (5, 8), (6, 9)}), frozenset())}
        plan = plan_for(
            program,
            (X, Z),
            [PredLiteral("q", (X, 8), delta="+"), PredLiteral("r", (Y, Z)),
             Comparison("=", Y, 1)],
        )
        assert "K" in plan.source and "8" not in plan.source
        assert set(plan.rows(evaluator(db, program, deltas))) == {(4, 10), (5, 10)}

    def test_assignment_to_a_bound_variable_filters(self, setup):
        db, program = setup
        plan = plan_for(
            program,
            (X, Y),
            [PredLiteral("r", (X, Y)), Assignment(Y, Arith("*", X, 10))],
        )
        assert "if not (r" in plan.source
        assert set(plan.rows(evaluator(db, program))) == {(1, 10), (2, 20), (3, 30)}
        plan = plan_for(
            program,
            (X,),
            [PredLiteral("q", (X, Y)), Assignment(Y, Arith("+", X, 1))],
        )
        assert set(plan.rows(evaluator(db, program))) == {(1,), (2,)}

    def test_negation_of_each_predicate_kind(self, setup):
        db, program = setup
        program.declare_derived("big", 1)
        program.add_clause(
            HornClause(
                PredLiteral("big", (X,)),
                [PredLiteral("r", (X, Y)), Comparison(">", Y, 15)],
            )
        )
        program.declare_foreign("odd", 1, 1, lambda x: x % 2 == 1)
        program.declare_aggregate("total", "q", 1, "sum")
        body = [PredLiteral("r", (X, Y))]
        cases = {
            "q": (PredLiteral("q", (X, X), negated=True), {2, 3}),
            "big": (PredLiteral("big", (X,), negated=True), {1}),
            "odd": (PredLiteral("odd", (X,), negated=True), {2}),
            # total(1) = 3, total(2) = 3: only X = 3 has no group
            "total": (PredLiteral("total", (X, 3), negated=True), {3}),
        }
        for pred, (literal, want) in cases.items():
            plan = plan_for(program, (X,), body + [literal])
            got = {row[0] for row in plan.rows(evaluator(db, program))}
            assert got == want, pred

    def test_foreign_literal_with_outputs(self, setup):
        db, program = setup
        # a None result yields nothing
        program.declare_foreign(
            "halves", 3, 1, lambda x: None if x == 3 else [(x, x / 2), (x, x)],
        )
        # one output: items may be bare values
        program.declare_foreign("triple", 2, 1, lambda x: [x * 3, (x,)])
        plan = plan_for(
            program,
            (X, Z, W),
            [PredLiteral("r", (X, Y)), PredLiteral("halves", (X, Z, W))],
        )
        assert set(plan.rows(evaluator(db, program))) == {
            (1, 1, 0.5), (1, 1, 1), (2, 2, 1.0), (2, 2, 2),
        }
        plan = plan_for(
            program,
            (X, W),
            [PredLiteral("r", (X, Y)), PredLiteral("halves", (X, X, W)),
             Comparison("<", W, X)],
        )
        assert set(plan.rows(evaluator(db, program))) == {(1, 0.5), (2, 1.0)}
        plan = plan_for(
            program,
            (X, Z),
            [PredLiteral("r", (X, Y)), PredLiteral("triple", (X, Z))],
        )
        assert set(plan.rows(evaluator(db, program))) == {
            (1, 3), (1, 1), (2, 6), (2, 2), (3, 9), (3, 3),
        }

    def test_aggregate_subgoal(self, setup):
        db, program = setup
        program.declare_aggregate("total", "q", 1, "sum")
        plan = plan_for(
            program,
            (X, Z),
            [PredLiteral("r", (X, Y)), PredLiteral("total", (X, Z))],
        )
        assert set(plan.rows(evaluator(db, program))) == {(1, 3), (2, 3)}
        plan = plan_for(program, (X,), [PredLiteral("total", (X, 3))])
        assert set(plan.rows(evaluator(db, program))) == {(1,), (2,)}

    def test_wcoj_group_with_literals_after_it(self, setup):
        db, program = setup
        program.declare_base("s", 2)
        db.create_relation("s", 2).bulk_insert([(1, 1), (2, 3), (1, 2)])
        body = [
            PredLiteral("q", (X, Y)),
            PredLiteral("s", (X, Y)),
            PredLiteral("r", (X, Z)),
            Comparison(">", Z, 10),
            PredLiteral("q", (Y, X), negated=True),
        ]
        clause = HornClause(PredLiteral("out", (X, Y, Z)), body)
        fused = compile_plan(clause, program, wcoj=True)
        plain = compile_plan(clause, program)
        assert fused.fused == 3
        assert [getattr(step, "wcoj", None) for step in fused.steps][0] is not None
        assert len(fused.steps) == 2  # the kernel, then generated code
        ev = evaluator(db, program)
        assert set(fused.rows(ev)) == set(plain.rows(ev)) == {(2, 3, 20)}

    def test_long_chain_continues_in_a_further_function(self, setup):
        """CPython nests at most 20 blocks in one function: a 25-literal
        chain compiles to several generated functions over the register
        lists, and still joins end to end."""
        db, program = setup
        program.declare_base("e", 2)
        db.create_relation("e", 2).bulk_insert([(n, n + 1) for n in range(30)])
        chain = [Variable(f"V{n}") for n in range(26)]
        body = [PredLiteral("e", (a, b)) for a, b in zip(chain, chain[1:])]
        plan = plan_for(program, (chain[0], chain[-1]), body)
        assert len(plan.steps) == 2
        assert plan.source.count("def run(") == 2
        rows = plan.rows(evaluator(db, program))
        assert sorted(rows) == [(n, n + 25) for n in range(6)]


class TestGeneratedCounts:
    def test_nothing_reached_builds_nothing(self, setup):
        """Probes are resolved when the first row reaches them: a first
        literal that matches nothing builds no delta-side or auto index,
        and the probe count is one per row that reaches a probe."""
        db, program = setup
        for row in range(20):
            db.relation("r").insert((100 + row, row))
        plan = plan_for(
            program,
            (X, Z),
            [PredLiteral("q", (X, 99), delta="+"), PredLiteral("r", (X, Z))],
        )
        deltas = {"q": DeltaSet(frozenset({(1, 5), (2, 6)}), frozenset())}
        with metrics.collecting() as reg:
            assert plan.rows(evaluator(db, program, deltas)) == []
        counters = reg.counters()
        assert counters.get("evaluate.delta_indexes_built", 0) == 1
        assert counters.get("index.probes", 0) == 0
        assert (0,) not in db.relation("r").indexes
        deltas = {"q": DeltaSet(frozenset({(1, 99), (2, 99), (3, 7)}), frozenset())}
        with metrics.collecting() as reg:
            rows = plan.rows(evaluator(db, program, deltas))
        assert set(rows) == {(1, 10), (2, 20)}
        counters = reg.counters()
        # one probe of r's new auto index per delta row with a 99
        assert counters["index.probes"] == 2
        assert counters["evaluate.batch_runs"] == 1


class TestBoundSeeds:
    def test_bound_vars_take_first_slots(self, setup):
        db, program = setup
        plan = plan_for(
            program, (X, Y), [PredLiteral("q", (X, Y))], bound_vars=(X,)
        )
        assert plan.slot_of[X] == 0

    def test_seeded_execution_restricts_results(self, setup):
        db, program = setup
        plan = plan_for(
            program, (X, Y), [PredLiteral("q", (X, Y))], bound_vars=(X,)
        )
        seeds = [[1] + [None] * (plan.n_slots - 1)]
        assert set(plan.rows(evaluator(db, program), seeds)) == {(1, 1), (1, 2)}


class TestPlanSafety:
    def test_unbound_negation_rejected(self, setup):
        _, program = setup
        with pytest.raises(UnsafeClauseError):
            plan_for(
                program,
                (X,),
                [PredLiteral("q", (X, X), negated=True), PredLiteral("r", (X, Y))],
            )

    def test_unbound_comparison_rejected(self, setup):
        _, program = setup
        with pytest.raises(UnsafeClauseError):
            plan_for(program, (X,), [Comparison("<", X, 5), PredLiteral("q", (X, Y))])

    def test_head_variable_missing_from_body_rejected(self, setup):
        _, program = setup
        with pytest.raises(UnsafeClauseError):
            plan_for(program, (X, W), [PredLiteral("q", (X, Y))])

    def test_plan_is_reusable_across_runs(self, setup):
        db, program = setup
        plan = plan_for(program, (X, Y), [PredLiteral("q", (X, Y))])
        first = set(plan.rows(evaluator(db, program)))
        db.relation("q").insert((4, 4))
        second = set(plan.rows(evaluator(db, program)))
        assert second == first | {(4, 4)}

    def test_repr_mentions_steps(self, setup):
        _, program = setup
        plan = plan_for(program, (X, Y), [PredLiteral("q", (X, Y))])
        assert isinstance(plan, ClausePlan)
        assert "steps=1" in repr(plan)
