"""Tests for the ObjectLog evaluation engine.

Clause bodies run the one way the product runs them: statically
ordered and compiled to a :class:`~repro.objectlog.batch.ClausePlan`
(:func:`solve`); a single goal is the same: :meth:`Evaluator.rows`
seeds the predicate's goal plan.
"""

import pytest

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView, OldStateView
from repro.errors import (
    RecursionNotSupportedError,
    UnknownPredicateError,
    UnsafeClauseError,
)
from repro.objectlog.batch import compile_plan
from repro.objectlog.clause import HornClause
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.literals import Assignment, Comparison, PredLiteral
from repro.objectlog.optimize import order_clause
from repro.objectlog.program import Program
from repro.objectlog.terms import Arith, Variable, ordered_variables
from repro.storage.database import Database
from tests.objectlog.bruteforce import BruteForce

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


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


def run_clause(ev, clause):
    """Head rows of ``clause``: ordered, compiled, executed on ``ev``."""
    return compile_plan(order_clause(clause, ev.program), ev.program).rows(ev)


def solve(ev, body):
    """Every environment satisfying the conjunction ``body``."""
    variables = tuple(
        ordered_variables(set().union(*(lit.variables() for lit in body)))
    )
    rows = run_clause(ev, HornClause(PredLiteral("_goal", variables), body))
    return [dict(zip(variables, row)) for row in rows]


class TestBaseEvaluation:
    def test_full_scan(self, setup):
        db, program = setup
        rows = set(evaluator(db, program).rows("q"))
        assert rows == {(1, 1), (1, 2), (2, 3)}

    def test_bound_argument_probes(self, setup):
        db, program = setup
        rows = evaluator(db, program).rows("q", ((0, 1),))
        assert {row[1] for row in rows} == {1, 2}

    def test_constant_mismatch_fails(self, setup):
        db, program = setup
        assert list(evaluator(db, program).rows("q", ((0, 9),))) == []

    def test_join_via_shared_variable(self, setup):
        db, program = setup
        body = [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))]
        solutions = {
            (env[X], env[Y], env[Z])
            for env in solve(evaluator(db, program), body)
        }
        assert solutions == {(1, 1, 10), (1, 2, 20), (2, 3, 30)}

    def test_repeated_variable_is_selection(self, setup):
        db, program = setup
        envs = solve(evaluator(db, program), [PredLiteral("q", (X, X))])
        assert [env[X] for env in envs] == [1]


class TestBuiltins:
    def test_comparison_filters(self, setup):
        db, program = setup
        body = [PredLiteral("q", (X, Y)), Comparison("<", X, Y)]
        solutions = {(env[X], env[Y])
                     for env in solve(evaluator(db, program), body)}
        assert solutions == {(1, 2), (2, 3)}

    def test_assignment_binds(self, setup):
        db, program = setup
        body = [
            PredLiteral("q", (X, Y)),
            Assignment(Z, Arith("*", Y, 10)),
            Comparison(">", Z, 15),
        ]
        solutions = {(env[X], env[Z])
                     for env in solve(evaluator(db, program), body)}
        assert solutions == {(1, 20), (2, 30)}

    def test_assignment_checks_when_bound(self, setup):
        db, program = setup
        body = [PredLiteral("q", (X, Y)), Assignment(Y, Arith("+", X, 1))]
        solutions = {(env[X], env[Y])
                     for env in solve(evaluator(db, program), body)}
        assert solutions == {(1, 2), (2, 3)}

    def test_builtins_scheduled_after_binding(self, setup):
        """Comparison written FIRST still runs once its inputs are bound."""
        db, program = setup
        body = [Comparison("<", X, Y), PredLiteral("q", (X, Y))]
        solutions = {(env[X], env[Y])
                     for env in solve(evaluator(db, program), body)}
        assert solutions == {(1, 2), (2, 3)}

    def test_unbindable_comparison_is_unsafe(self, setup):
        db, program = setup
        with pytest.raises(UnsafeClauseError):
            list(solve(evaluator(db, program), [Comparison("<", X, Y)]))


class TestNegation:
    def test_negation_as_absence(self, setup):
        db, program = setup
        body = [PredLiteral("r", (X, Y)), PredLiteral("q", (X, X), negated=True)]
        solutions = {env[X] for env in solve(evaluator(db, program), body)}
        assert solutions == {2, 3}  # q(1,1) exists, q(2,2)/q(3,3) don't

    def test_negation_waits_for_bindings(self, setup):
        db, program = setup
        body = [PredLiteral("q", (X, X), negated=True), PredLiteral("r", (X, Y))]
        solutions = {env[X] for env in solve(evaluator(db, program), body)}
        assert solutions == {2, 3}

    def test_unbound_negation_is_unsafe(self, setup):
        db, program = setup
        with pytest.raises(UnsafeClauseError):
            list(
                solve(
                    evaluator(db, program),
                    [PredLiteral("q", (X, Y), negated=True)],
                )
            )


class TestDerived:
    def test_derived_predicate(self, setup):
        db, program = setup
        program.declare_derived("p", 2)
        program.add_clause(
            HornClause(
                PredLiteral("p", (X, Z)),
                [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))],
            )
        )
        assert evaluator(db, program).extension("p") == {
            (1, 10),
            (1, 20),
            (2, 30),
        }

    def test_derived_with_bound_argument(self, setup):
        db, program = setup
        program.declare_derived("p", 2)
        program.add_clause(
            HornClause(
                PredLiteral("p", (X, Z)),
                [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))],
            )
        )
        rows = evaluator(db, program).rows("p", ((0, 2),))
        assert [row[1] for row in rows] == [30]

    def test_multiple_clauses_union(self, setup):
        db, program = setup
        program.declare_derived("u", 1)
        program.add_clause(HornClause(PredLiteral("u", (X,)), [PredLiteral("q", (X, X))]))
        program.add_clause(HornClause(PredLiteral("u", (X,)), [PredLiteral("r", (X, 30))]))
        assert evaluator(db, program).extension("u") == {(1,), (3,)}

    def test_set_semantics_dedup_across_clauses(self, setup):
        db, program = setup
        program.declare_derived("d", 1)
        # both clauses derive (1,)
        program.add_clause(HornClause(PredLiteral("d", (X,)), [PredLiteral("q", (X, 1))]))
        program.add_clause(HornClause(PredLiteral("d", (X,)), [PredLiteral("q", (X, 2))]))
        rows = evaluator(db, program).rows("d")
        assert [row[0] for row in rows] == [1]

    def test_recursion_detected(self, setup):
        db, program = setup
        program.declare_derived("t", 2)
        program.add_clause(HornClause(PredLiteral("t", (X, Y)), [PredLiteral("q", (X, Y))]))
        program.add_clause(
            HornClause(
                PredLiteral("t", (X, Z)),
                [PredLiteral("q", (X, Y)), PredLiteral("t", (Y, Z))],
            )
        )
        with pytest.raises(RecursionNotSupportedError):
            evaluator(db, program).extension("t")

    def test_holds_membership(self, setup):
        db, program = setup
        program.declare_derived("p", 2)
        program.add_clause(
            HornClause(
                PredLiteral("p", (X, Z)),
                [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))],
            )
        )
        ev = evaluator(db, program)
        assert ev.derivable("p", [(1, 10)]) == {(1, 10)}
        assert not ev.derivable("p", [(1, 30)])

    def test_memoization_caches_extensions(self, setup):
        db, program = setup
        program.declare_derived("p", 1)
        program.add_clause(HornClause(PredLiteral("p", (X,)), [PredLiteral("q", (X, X))]))
        ev = evaluator(db, program)
        first = ev.extension("p")
        db.relation("q").insert((5, 5))  # memo must NOT see this
        assert ev.extension("p") == first

    def test_unknown_predicate(self, setup):
        db, program = setup
        with pytest.raises(UnknownPredicateError):
            list(evaluator(db, program).rows("nope"))


class TestForeign:
    def test_foreign_function(self, setup):
        db, program = setup
        program.declare_foreign("double", 2, 1, lambda x: [(x * 2,)])
        body = [PredLiteral("q", (X, Y)), PredLiteral("double", (Y, Z))]
        solutions = {(env[Y], env[Z])
                     for env in solve(evaluator(db, program), body)}
        assert solutions == {(1, 2), (2, 4), (3, 6)}

    def test_foreign_scalar_results(self, setup):
        db, program = setup
        program.declare_foreign("inc", 2, 1, lambda x: [x + 1])
        rows = evaluator(db, program).rows("inc", ((0, 4),))
        assert [row[1] for row in rows] == [5]

    def test_foreign_test_only(self, setup):
        db, program = setup
        program.declare_foreign("is_even", 1, 1, lambda x: x % 2 == 0)
        body = [PredLiteral("q", (X, Y)), PredLiteral("is_even", (Y,))]
        solutions = {env[Y] for env in solve(evaluator(db, program), body)}
        assert solutions == {2}

    def test_foreign_waits_for_inputs(self, setup):
        db, program = setup
        program.declare_foreign("double", 2, 1, lambda x: [(x * 2,)])
        body = [PredLiteral("double", (Y, Z)), PredLiteral("q", (X, Y))]
        solutions = {env[Z] for env in solve(evaluator(db, program), body)}
        assert solutions == {2, 4, 6}

    def test_foreign_unbound_inputs_unsafe(self, setup):
        db, program = setup
        program.declare_foreign("double", 2, 1, lambda x: [(x * 2,)])
        with pytest.raises(UnsafeClauseError):
            list(solve(evaluator(db, program), [PredLiteral("double", (Y, Z))]))


class TestDeltaLiterals:
    def test_delta_literal_reads_delta_env(self, setup):
        db, program = setup
        deltas = {"q": DeltaSet({(7, 8)}, {(1, 1)})}
        ev = evaluator(db, program, deltas=deltas)
        plus = {(env[X], env[Y])
                for env in solve(ev, [PredLiteral("q", (X, Y), delta="+")])}
        minus = {(env[X], env[Y])
                 for env in solve(ev, [PredLiteral("q", (X, Y), delta="-")])}
        assert plus == {(7, 8)}
        assert minus == {(1, 1)}

    def test_missing_delta_is_empty(self, setup):
        db, program = setup
        ev = evaluator(db, program)
        assert list(solve(ev, [PredLiteral("q", (X, Y), delta="+")])) == []

    def test_delta_literal_scheduled_first(self, setup):
        """The delta read must drive the join (it is the small side)."""
        db, program = setup
        deltas = {"q": DeltaSet({(1, 2)}, set())}
        ev = evaluator(db, program, deltas=deltas)
        body = [PredLiteral("r", (Y, Z)), PredLiteral("q", (X, Y), delta="+")]
        solutions = {(env[X], env[Z]) for env in solve(ev, body)}
        assert solutions == {(1, 20)}


class TestOldStateEvaluation:
    def test_same_engine_evaluates_old_state(self, setup):
        db, program = setup
        db.relation("q").insert((9, 9))
        db.relation("q").delete((1, 1))
        deltas = {"q": DeltaSet({(9, 9)}, {(1, 1)})}
        old_ev = Evaluator(program, OldStateView(db, deltas))
        rows = set(old_ev.rows("q"))
        assert rows == {(1, 1), (1, 2), (2, 3)}

    def test_compiled_clause_yields_head_rows(self, setup):
        db, program = setup
        clause = HornClause(
            PredLiteral("p", (X, Z)),
            [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))],
        )
        rows = set(run_clause(evaluator(db, program), clause))
        assert rows == {(1, 10), (1, 20), (2, 30)}


class TestDeltaIndex:
    """Keyed probes into delta-sets (the Fig. 7 massive-update path): a
    delta literal reads one side of the influent's delta-set as a
    relation, and that side indexes itself — built once per column set,
    owned by the (immutable) delta-set, never invalidated."""

    def big_delta(self, n=20):
        return DeltaSet(frozenset((i, i * 10) for i in range(n)), frozenset())

    def test_large_delta_probe_is_indexed(self, setup):
        from repro.obs import metrics

        db, program = setup
        ev = evaluator(db, program, deltas={"q": self.big_delta()})
        # the probe touches only the matching row: a read of the whole
        # delta side fails the test
        ev.rows_of = lambda pred, sign=None: pytest.fail(f"scanned {pred}")
        with metrics.collecting() as registry:
            envs = list(solve(ev, [PredLiteral("q", (7, Y), delta="+")]))
        assert [env[Y] for env in envs] == [70]
        assert registry.value("evaluate.delta_indexes_built") == 1

    def test_index_cached_per_column_set(self, setup):
        db, program = setup
        delta = self.big_delta()
        ev = evaluator(db, program, deltas={"q": delta})
        # a whole-side read needs no index and builds no table
        assert ev.rows_of("q", "+") is delta.plus
        assert not hasattr(delta, "_plus_side")
        first = ev.prober_of("q", "+", (0,))
        assert first is delta.side("+").prober((0,))
        assert ev.prober_of("q", "+", (0,)) is first
        assert ev.prober_of("q", "+", (1,)) is not first
        assert first((7,)) == [(7, 70)]
        # only the side that was asked for exists
        assert not hasattr(delta, "_minus_side")
        assert ev.rows_of("absent", "-") == frozenset()
        assert ev.prober_of("absent", "-", (0,))((7,)) == ()

    def test_set_delta_same_object_keeps_index_warm(self, setup):
        from repro.obs import metrics

        db, program = setup
        delta = self.big_delta()
        ev = evaluator(db, program, deltas={"q": delta})
        goal = [PredLiteral("q", (7, Y), delta="+")]
        with metrics.collecting() as registry:
            list(solve(ev, goal))
            ev.set_delta("q", delta)
            list(solve(ev, goal))
            # another evaluator (the other state's) reading the same
            # delta-set shares the index too
            other = evaluator(db, program, deltas={"q": delta})
            assert [env[Y] for env in solve(other, goal)] == [70]
        assert registry.value("evaluate.delta_indexes_built") == 1

    def test_set_delta_new_object_invalidates_index(self, setup):
        db, program = setup
        ev = evaluator(db, program, deltas={"q": self.big_delta()})
        stale = ev.prober_of("q", "+", (0,))
        replacement = DeltaSet(frozenset({(99, 1)}), frozenset())
        ev.set_delta("q", replacement)
        fresh = ev.prober_of("q", "+", (0,))
        assert fresh is not stale
        assert fresh((99,)) == [(99, 1)]
        assert fresh((7,)) == ()
        assert stale((7,)) == [(7, 70)]  # the old delta-set is untouched


class TestCompiledDerived:
    """Derived probes are answered through compiled ClausePlans, one
    set per (predicate, bound head positions); results must equal the
    brute-force reference's extension restricted to the bound values."""

    def build(self):
        db = Database()
        q = db.create_relation("q", 2)
        r = db.create_relation("r", 2)
        q.bulk_insert([(1, 1), (1, 2), (2, 3)])
        r.bulk_insert([(1, 10), (2, 20), (3, 30)])
        program = Program()
        program.declare_base("q", 2)
        program.declare_base("r", 2)
        program.declare_derived("p", 2)
        program.add_clause(
            HornClause(
                PredLiteral("p", (X, Z)),
                [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))],
            )
        )
        return db, program

    @staticmethod
    def reference(program, view, pred, bound):
        return {
            row
            for row in BruteForce(program, view).extension(pred)
            if all(row[position] == value for position, value in bound)
        }

    def test_matches_interpretive_path(self):
        db, program = self.build()
        view = NewStateView(db)
        compiled = Evaluator(program, view)
        definition = program.predicate("p")
        for bound in [
            (),
            ((0, 1),),
            ((1, 10),),
            ((0, 1), (1, 10)),
            ((0, 9),),
            ((1, 99),),
        ]:
            assert compiled.derived_rows(definition, bound) == self.reference(
                program, view, "p", bound
            )

    def test_plans_compiled_once_per_bound_shape(self):
        db, program = self.build()
        compiled = Evaluator(program, NewStateView(db))
        definition = program.predicate("p")
        compiled.derived_rows(definition, ((0, 1),))
        entry = program.derived_plans()[("p", (0,))]
        compiled.reset()
        compiled.derived_rows(definition, ((0, 2),))
        assert program.derived_plans()[("p", (0,))] is entry

    def test_redefinition_invalidates_plans(self):
        db, program = self.build()
        compiled = Evaluator(program, NewStateView(db))
        definition = program.predicate("p")
        assert compiled.derived_rows(definition, ((0, 9),)) == frozenset()
        program.add_clause(
            HornClause(PredLiteral("p", (X, Y)), [PredLiteral("r", (X, Y))])
        )
        # clauses changed: stale plans must not answer the new shape
        assert ("p", (0,)) not in program.derived_plans()
        compiled.reset()  # memo, not plans, held the old answer
        assert compiled.derived_rows(definition, ((0, 3),)) == {(3, 30)}

    def test_constant_head_positions(self):
        db, program = self.build()
        program.declare_derived("fixed", 2)
        program.add_clause(
            HornClause(
                PredLiteral("fixed", (1, Y)), [PredLiteral("q", (1, Y))]
            )
        )
        view = NewStateView(db)
        compiled = Evaluator(program, view)
        definition = program.predicate("fixed")
        for bound in [(), ((0, 1),), ((0, 2),), ((0, 1), (1, 2))]:
            assert compiled.derived_rows(definition, bound) == self.reference(
                program, view, "fixed", bound
            )

    def test_old_state_evaluator_compiles_too(self):
        db, program = self.build()
        view = OldStateView(db, {"q": DeltaSet(plus=frozenset({(2, 3)}))})
        compiled = Evaluator(program, view)
        definition = program.predicate("p")
        rows = compiled.derived_rows(definition, ())
        assert rows == self.reference(program, view, "p", ())
        assert ("p", ()) in program.derived_plans()
        assert (2, 30) not in rows  # (2,3) was inserted this txn


#: one predicate of each kind, all of arity 2, and a row each one holds
GOAL_SAMPLES = {"q": (1, 2), "p": (1, 10), "pairs": (1, 2), "total": (1, 3)}

#: ``(position, value)`` bindings built from a kind's sample row
GOAL_BINDINGS = {
    "none": lambda row: (),
    "partial": lambda row: ((1, row[1]),),
    "full": lambda row: ((0, row[0]), (1, row[1])),
    "constant_mismatch": lambda row: ((0, 99),),
    "repeated_variable": lambda row: ((0, row[0]), (0, row[0])),
    "repeated_conflict": lambda row: ((0, row[0]), (0, 99)),
}


class TestGoalPath:
    """Every single-predicate goal is a seeded compiled plan: whatever
    the predicate kind and whichever positions are bound, ``rows()`` is
    the matching part of ``extension()`` and, where brute force
    reaches, of the reference."""

    @staticmethod
    def build():
        db = Database()
        db.create_relation("q", 2).bulk_insert([(1, 1), (1, 2), (2, 3)])
        db.create_relation("r", 2).bulk_insert([(1, 10), (2, 20), (3, 30)])
        program = Program()
        program.declare_base("q", 2)
        program.declare_base("r", 2)
        program.declare_derived("p", 2)
        program.add_clause(
            HornClause(
                PredLiteral("p", (X, Z)),
                [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))],
            )
        )
        # a repeated head variable and a constant head position
        program.add_clause(
            HornClause(PredLiteral("p", (X, X)), [PredLiteral("q", (X, X))])
        )
        program.add_clause(
            HornClause(PredLiteral("p", (3, Y)), [PredLiteral("r", (Y, 30))])
        )
        program.declare_foreign("pairs", 2, 0, lambda: [(1, 2), (1, 3), (2, 2)])
        program.declare_aggregate("total", "q", 1, "sum")
        return db, program

    @pytest.mark.parametrize("binding", sorted(GOAL_BINDINGS))
    @pytest.mark.parametrize("kind", sorted(GOAL_SAMPLES))
    def test_rows_is_the_matching_part_of_the_extension(self, kind, binding):
        db, program = self.build()
        view = NewStateView(db)
        extension = Evaluator(program, view).extension(kind)
        assert GOAL_SAMPLES[kind] in extension
        bound = GOAL_BINDINGS[binding](GOAL_SAMPLES[kind])

        def matching(rows):
            return {
                row
                for row in rows
                if all(row[position] == value for position, value in bound)
            }

        rows = Evaluator(program, view).rows(kind, bound)
        # sorted lists, so a duplicate row shows too
        assert sorted(rows) == sorted(matching(extension))
        if kind in ("q", "p"):
            reference = BruteForce(program, view).extension(kind)
            assert matching(rows) == matching(reference)

    @pytest.mark.parametrize("kind", sorted(GOAL_SAMPLES))
    def test_derivable_is_membership_for_every_kind(self, kind):
        db, program = self.build()
        ev = Evaluator(program, NewStateView(db))
        extension = ev.extension(kind)
        candidates = set(extension) | {(99, 99), (1, 99)}
        assert ev.derivable(kind, candidates) == extension

    def test_goal_plans_are_cached_per_bound_shape(self):
        db, program = self.build()
        ev = Evaluator(program, NewStateView(db))
        ev.rows("q", ((0, 1),))
        entry = program.derived_plans()[("q", (0,))]
        ev.rows("q", ((0, 2),))
        assert program.derived_plans()[("q", (0,))] is entry
