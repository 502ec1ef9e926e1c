"""Property: static ordering never changes query results.

Hypothesis generates random conjunctive bodies (relation reads, delta
reads, comparisons, negation) over random data and asserts that the
statically ordered body, compiled to a plan, evaluates to exactly the
same solutions as the dynamically scheduled one — the optimizer is a
pure performance transformation.
"""

from hypothesis import assume, given, settings, strategies as st

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView
from repro.errors import UnsafeClauseError
from repro.objectlog.batch import compile_plan
from repro.objectlog.clause import HornClause
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.optimize import order_body
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable, ordered_variables
from repro.storage.database import Database

VARS = [Variable(name) for name in "ABCD"]

relation_contents = st.frozensets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8
)


@st.composite
def bodies(draw):
    """A random body over q/2, r/2, plus builtins and delta reads."""
    literals = []
    n_reads = draw(st.integers(1, 3))
    for _ in range(n_reads):
        pred = draw(st.sampled_from(["q", "r"]))
        args = tuple(draw(st.sampled_from(VARS)) for _ in range(2))
        delta = draw(st.sampled_from([None, None, None, "+", "-"]))
        literals.append(PredLiteral(pred, args, delta=delta))
    bound_vars = set()
    for literal in literals:
        bound_vars |= literal.variables()
    if bound_vars and draw(st.booleans()):
        left = draw(st.sampled_from(sorted(bound_vars, key=repr)))
        right = draw(st.one_of(
            st.integers(0, 3),
            st.sampled_from(sorted(bound_vars, key=repr)),
        ))
        op = draw(st.sampled_from(["<", "<=", "=", "!="]))
        literals.append(Comparison(op, left, right))
    if bound_vars and draw(st.booleans()):
        args = tuple(
            draw(st.sampled_from(sorted(bound_vars, key=repr)))
            for _ in range(2)
        )
        literals.append(PredLiteral(draw(st.sampled_from(["q", "r"])), args,
                                    negated=True))
    return draw(st.permutations(literals))


class TestOptimizerProperty:
    @settings(max_examples=80, deadline=None)
    @given(
        body=bodies(),
        q_rows=relation_contents,
        r_rows=relation_contents,
        delta_plus=relation_contents,
        delta_minus=relation_contents,
    )
    def test_static_order_preserves_solutions(
        self, body, q_rows, r_rows, delta_plus, delta_minus
    ):
        db = Database()
        db.create_relation("q", 2).bulk_insert(q_rows)
        db.create_relation("r", 2).bulk_insert(r_rows)
        program = Program()
        program.declare_base("q", 2)
        program.declare_base("r", 2)
        deltas = {
            "q": DeltaSet(delta_plus - delta_minus, delta_minus - delta_plus),
            "r": DeltaSet(delta_plus - delta_minus, delta_minus - delta_plus),
        }
        try:
            ordered = order_body(body, program)
        except UnsafeClauseError:
            assume(False)  # no safe order: nothing to compare
            return
        head = PredLiteral(
            "out",
            tuple(ordered_variables(set().union(*(l.variables() for l in body)))),
        )
        evaluator = Evaluator(program, NewStateView(db), deltas=deltas)
        try:
            dynamic = set(evaluator.solve_clause(HornClause(head, body)))
        except UnsafeClauseError:
            assume(False)
            return
        plan = compile_plan(HornClause(head, ordered), program)
        assert set(plan.rows(evaluator)) == dynamic

    @settings(max_examples=80, deadline=None)
    @given(
        body=bodies(),
        q_rows=relation_contents,
        r_rows=relation_contents,
        delta_plus=relation_contents,
        delta_minus=relation_contents,
    )
    def test_compiled_plans_preserve_solutions(
        self, body, q_rows, r_rows, delta_plus, delta_minus
    ):
        """The same property with the join kernel enabled: where the
        body fuses, the WCOJ kernel computes the dynamic scheduler's
        solutions exactly (the pairwise chain is the test above)."""
        db = Database()
        db.create_relation("q", 2).bulk_insert(q_rows)
        db.create_relation("r", 2).bulk_insert(r_rows)
        program = Program()
        program.declare_base("q", 2)
        program.declare_base("r", 2)
        deltas = {
            "q": DeltaSet(delta_plus - delta_minus, delta_minus - delta_plus),
            "r": DeltaSet(delta_plus - delta_minus, delta_minus - delta_plus),
        }
        try:
            ordered = order_body(body, program)
        except UnsafeClauseError:
            assume(False)
            return
        head_vars = tuple(
            ordered_variables(set().union(*(l.variables() for l in body)))
        )
        clause = HornClause(PredLiteral("out", head_vars), ordered)
        evaluator = Evaluator(program, NewStateView(db), deltas=deltas)
        try:
            expected = {
                tuple(env[v] for v in head_vars)
                for env in evaluator.solve_body(body)
            }
        except UnsafeClauseError:
            assume(False)
            return
        plan = compile_plan(clause, program, wcoj=True)
        assert set(plan.rows(evaluator)) == expected
