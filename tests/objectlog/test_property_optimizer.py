"""Property: static ordering never changes query results.

Hypothesis generates random conjunctive bodies (relation reads, delta
reads, a derived sub-predicate, comparisons, negation) over random
data and asserts that the statically ordered body, compiled to a plan,
evaluates to exactly the solutions of the brute-force reference
(:mod:`tests.objectlog.bruteforce`) — the optimizer is a pure
performance transformation, and a derived literal inside a plan is
answered by the evaluator's compiled ``derived_rows``.
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
from tests.objectlog.bruteforce import BruteForce

VARS = [Variable(name) for name in "ABCD"]
X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

relation_contents = st.frozensets(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=8
)


@st.composite
def bodies(draw):
    """A random body over q/2, r/2 and the derived p/2, plus builtins
    and delta reads."""
    literals = []
    n_reads = draw(st.integers(1, 3))
    for _ in range(n_reads):
        pred = draw(st.sampled_from(["q", "r", "p"]))
        args = tuple(draw(st.sampled_from(VARS)) for _ in range(2))
        delta = None
        if pred != "p":
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
        literals.append(PredLiteral(draw(st.sampled_from(["q", "r", "p"])),
                                    args, negated=True))
    return draw(st.permutations(literals))


def make_state(q_rows, r_rows, delta_plus, delta_minus):
    """The database, the program (q, r and ``p(X, Z) <- q(X, Y) &
    r(Y, Z)``) and the delta-sets one property example runs against."""
    db = Database()
    db.create_relation("q", 2).bulk_insert(q_rows)
    db.create_relation("r", 2).bulk_insert(r_rows)
    program = Program()
    program.declare_base("q", 2)
    program.declare_base("r", 2)
    program.declare_derived("p", 2)
    program.add_clause(HornClause(
        PredLiteral("p", (X, Z)),
        [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))],
    ))
    delta = DeltaSet(delta_plus - delta_minus, delta_minus - delta_plus)
    return db, program, {"q": delta, "r": delta}


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
        db, program, deltas = make_state(q_rows, r_rows, delta_plus, delta_minus)
        try:
            ordered = order_body(body, program)
        except UnsafeClauseError:
            assume(False)  # no safe order: nothing to compare
            return
        head = PredLiteral(
            "out",
            tuple(ordered_variables(set().union(*(l.variables() for l in body)))),
        )
        view = NewStateView(db)
        expected = BruteForce(program, view, deltas).clause_rows(
            HornClause(head, body)
        )
        evaluator = Evaluator(program, view, deltas=deltas)
        plan = compile_plan(HornClause(head, ordered), program)
        assert set(plan.rows(evaluator)) == expected

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
        body fuses, the WCOJ kernel computes the reference's solutions
        exactly (the pairwise chain is the test above)."""
        db, program, deltas = make_state(q_rows, r_rows, delta_plus, delta_minus)
        try:
            ordered = order_body(body, program)
        except UnsafeClauseError:
            assume(False)
            return
        head_vars = tuple(
            ordered_variables(set().union(*(l.variables() for l in body)))
        )
        clause = HornClause(PredLiteral("out", head_vars), ordered)
        view = NewStateView(db)
        expected = BruteForce(program, view, deltas).clause_rows(clause)
        evaluator = Evaluator(program, view, deltas=deltas)
        plan = compile_plan(clause, program, wcoj=True)
        assert set(plan.rows(evaluator)) == expected
