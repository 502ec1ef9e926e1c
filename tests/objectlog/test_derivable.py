"""Property: ``Evaluator.derivable`` is membership, set-at-a-time.

The negative guard (new state) and the strict-semantics filter (old
state) both ask "which of these rows are in P?" through
``derivable``: one batched semi-join per defining clause of a derived
predicate, one ``holds()`` per row for any other.  The answer is the
candidates in the brute-force reference's extension of P.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView, OldStateView
from repro.objectlog.clause import HornClause
from repro.objectlog.evaluate import Evaluator
from repro.objectlog.literals import Comparison, PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable
from repro.storage.database import Database
from tests.objectlog.bruteforce import BruteForce

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

pairs = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=10)

#: derived targets: a union (a row may be derivable through either
#: disjunct, or both), a head constant, a repeated head variable, and a
#: body over a derived sub-predicate with a comparison and a negation
DERIVED = ("union", "fixed", "diag", "above")


def make_program():
    program = Program()
    for name in ("q", "q2", "r"):
        program.declare_base(name, 2)
    for name in DERIVED:
        program.declare_derived(name, 2)
    for source in ("q", "q2"):
        program.add_clause(HornClause(
            PredLiteral("union", (X, Z)),
            [PredLiteral(source, (X, Y)), PredLiteral("r", (Y, Z))],
        ))
    program.add_clause(HornClause(
        PredLiteral("fixed", (1, Y)), [PredLiteral("q", (1, Y))]
    ))
    program.add_clause(HornClause(
        PredLiteral("diag", (X, X)),
        [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, X))],
    ))
    program.add_clause(HornClause(
        PredLiteral("above", (X, Z)),
        [
            PredLiteral("union", (X, Z)),
            Comparison("<", X, Z),
            PredLiteral("q2", (Z, X), negated=True),
        ],
    ))
    return program


@settings(max_examples=60, deadline=None)
@given(
    q_old=pairs, q_new=pairs, q2_rows=pairs, r_old=pairs, r_new=pairs,
    candidates=pairs,
)
@pytest.mark.parametrize("state", ["new", "old"])
# compiling is the only mode left; the parameter keeps the test ids
@pytest.mark.parametrize("compiled", [True])
def test_derivable_is_holds_per_row(
    state, compiled, q_old, q_new, q2_rows, r_old, r_new, candidates
):
    db = Database()
    db.create_relation("q", 2).bulk_insert(q_new)
    db.create_relation("q2", 2).bulk_insert(q2_rows)
    db.create_relation("r", 2).bulk_insert(r_new)
    program = make_program()
    if state == "new":
        view = NewStateView(db)
    else:
        view = OldStateView(db, {
            "q": DeltaSet(q_new - q_old, q_old - q_new),
            "r": DeltaSet(r_new - r_old, r_old - r_new),
        })
    evaluator = Evaluator(program, view)
    reference = BruteForce(program, view)
    for target in DERIVED + ("q",):  # a base target: per-row holds()
        expected = candidates & reference.extension(target)
        assert evaluator.derivable(target, candidates) == expected, target
        if target in DERIVED:
            # answered from all-heads-bound plans
            assert (target, (0, 1)) in program.derived_plans()
