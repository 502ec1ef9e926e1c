"""Property-based: node-shared networks == flat networks, always.

Section 7.1 presents node sharing as a pure execution-strategy choice;
it must never change what a rule observes.  Hypothesis drives random
transaction streams over a two-level program (a shared ``mid`` view
between the bases and the condition) and compares the firing histories
of the flat and the bushy configuration.
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


def build(shared: bool):
    """cond(X,Z) <- mid(X,Y) & r(Y,Z);  mid(X,Y) <- q(X,Y) & Y < 4."""
    db = Database()
    db.create_relation("q", 2)
    db.create_relation("r", 2)
    program = Program()
    program.declare_base("q", 2)
    program.declare_base("r", 2)
    program.declare_derived("mid", 2)
    program.add_clause(HornClause(
        PredLiteral("mid", (X, Y)),
        [PredLiteral("q", (X, Y)), Comparison("<", Y, 4)],
    ))
    program.declare_derived("cond", 2)
    program.add_clause(HornClause(
        PredLiteral("cond", (X, Z)),
        [PredLiteral("mid", (X, Y)), PredLiteral("r", (Y, Z))],
    ))
    manager = RuleManager(
        db,
        program,
        mode="incremental",
        shared_nodes=frozenset({"mid"}) if shared else frozenset(),
    )
    fired = []
    manager.create_rule(Rule("w", "cond", fired.append))
    manager.activate("w")
    return db, fired


operations = st.lists(
    st.tuples(
        st.sampled_from(["q", "r"]),
        st.tuples(st.integers(0, 4), st.integers(0, 5)),
        st.booleans(),
    ),
    min_size=1,
    max_size=20,
)
cuts = st.lists(st.integers(1, 4), min_size=1, max_size=8)


def drive(db, fired, ops, sizes):
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


class TestSharingProperty:
    @settings(max_examples=50, deadline=None)
    @given(ops=operations, sizes=cuts)
    def test_shared_equals_flat(self, ops, sizes):
        db_flat, fired_flat = build(shared=False)
        db_shared, fired_shared = build(shared=True)
        assert drive(db_flat, fired_flat, ops, sizes) == drive(
            db_shared, fired_shared, ops, sizes
        )
