"""Property-based integration: incremental == naive on arbitrary programs.

Hypothesis drives random transaction streams over a join + negation
program and asserts that the incremental monitor (partial differencing,
logical rollback, guarded negatives) reports exactly the same condition
transitions as the naive recompute-and-diff monitor.  This is the
strongest correctness statement in the suite: it covers insertions,
deletions, cancellation, negation, and multi-influent interaction in
one property.
"""

from hypothesis import given, settings, strategies as st

from repro.objectlog.clause import HornClause
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable
from repro.rules.manager import RuleManager
from repro.rules.rule import Rule
from repro.storage.database import Database

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")


def build(mode):
    """watch(X,Z) <- q(X,Y) & r(Y,Z) & Y < 4 & ~s(X)"""
    db = Database()
    db.create_relation("q", 2)
    db.create_relation("r", 2)
    db.create_relation("s", 1)
    program = Program()
    program.declare_base("q", 2)
    program.declare_base("r", 2)
    program.declare_base("s", 1)
    program.declare_derived("watch", 2)
    program.add_clause(HornClause(
        PredLiteral("watch", (X, Z)),
        [
            PredLiteral("q", (X, Y)),
            PredLiteral("r", (Y, Z)),
            Comparison("<", Y, 4),
            PredLiteral("s", (X,), negated=True),
        ],
    ))
    manager = RuleManager(db, program, mode=mode)
    fired = []
    manager.create_rule(Rule("w", "watch", fired.append))
    manager.activate("w")
    return db, fired


# one operation: (relation, row, is_insert)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("q"), st.tuples(st.integers(0, 3), st.integers(0, 5)),
                  st.booleans()),
        st.tuples(st.just("r"), st.tuples(st.integers(0, 5), st.integers(0, 3)),
                  st.booleans()),
        st.tuples(st.just("s"), st.tuples(st.integers(0, 3)), st.booleans()),
    ),
    min_size=1,
    max_size=25,
)

# how the operations are cut into transactions
cuts = st.lists(st.integers(1, 5), min_size=1, max_size=10)


def drive(mode, ops, sizes):
    db, fired = build(mode)
    index = 0
    for size in sizes:
        batch = ops[index : index + size]
        index += size
        if not batch:
            break
        with db.transaction():
            for relation, row, is_insert in batch:
                if is_insert:
                    db.insert(relation, row)
                else:
                    db.delete(relation, row)
    return sorted(fired)


class TestPropertyEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(ops=operations, sizes=cuts)
    def test_incremental_equals_naive(self, ops, sizes):
        assert drive("incremental", ops, sizes) == drive("naive", ops, sizes)
