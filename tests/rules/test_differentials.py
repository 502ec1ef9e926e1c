"""Tests for partial differential generation — incl. the paper's worked examples."""

import pytest

from repro.algebra.delta import DeltaSet
from repro.algebra.oldstate import NewStateView, OldStateView
from repro.objectlog.clause import HornClause
from repro.objectlog.literals import PredLiteral
from repro.objectlog.program import Program
from repro.objectlog.terms import Variable
from repro.rules.differentials import generate_differentials
from repro.storage.database import Database
from tests.objectlog.bruteforce import BruteForce

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")

P_CLAUSE = HornClause(
    PredLiteral("p", (X, Z)),
    [PredLiteral("q", (X, Y)), PredLiteral("r", (Y, Z))],
)


def make_program():
    program = Program()
    program.declare_base("q", 2)
    program.declare_base("r", 2)
    program.declare_derived("p", 2)
    program.add_clause(P_CLAUSE)
    return program


def evaluate(differential, db, program, deltas):
    view = (
        NewStateView(db)
        if differential.state == "new"
        else OldStateView(db, deltas)
    )
    return BruteForce(program, view, deltas).clause_rows(differential.clause)


class TestGeneration:
    def test_one_pair_per_occurrence(self):
        differentials = generate_differentials(
            "p", [P_CLAUSE], frozenset({"q", "r"})
        )
        labels = sorted(d.label() + d.output_sign for d in differentials)
        assert labels == ["Δp/Δ+q+", "Δp/Δ+r+", "Δp/Δ-q-", "Δp/Δ-r-"]

    def test_substitution_structure(self):
        """dP/d+q replaces exactly the q occurrence with a delta read."""
        differentials = generate_differentials("p", [P_CLAUSE], frozenset({"q"}))
        positive = next(d for d in differentials if d.input_sign == "+")
        delta_literals = [
            l for l in positive.clause.pred_literals() if l.delta is not None
        ]
        assert len(delta_literals) == 1
        assert delta_literals[0].pred == "q"
        assert delta_literals[0].delta == "+"
        # the r literal is untouched
        assert PredLiteral("r", (Y, Z)) in positive.clause.body

    def test_states(self):
        differentials = generate_differentials("p", [P_CLAUSE], frozenset({"q"}))
        assert {(d.input_sign, d.state) for d in differentials} == {
            ("+", "new"),
            ("-", "old"),
        }

    def test_self_join_gets_two_occurrences(self):
        clause = HornClause(
            PredLiteral("pp", (X, Z)),
            [PredLiteral("q", (X, Y)), PredLiteral("q", (Y, Z))],
        )
        differentials = generate_differentials("pp", [clause], frozenset({"q"}))
        positive = [d for d in differentials if d.input_sign == "+"]
        assert len(positive) == 2
        assert {d.occurrence for d in positive} == {0, 1}

    def test_only_listed_influents_get_differentials(self):
        differentials = generate_differentials("p", [P_CLAUSE], frozenset({"q"}))
        assert {d.influent for d in differentials} == {"q"}


class TestPaperSection43:
    """The positive-changes example: DB_old = q(1,1), r(1,2), r(2,3);
    transaction asserts q(1,2) and r(1,4)."""

    def setup_case(self):
        program = make_program()
        db = Database()
        db.create_relation("q", 2).bulk_insert([(1, 1), (1, 2)])
        db.create_relation("r", 2).bulk_insert([(1, 2), (1, 4), (2, 3)])
        deltas = {
            "q": DeltaSet({(1, 2)}, set()),
            "r": DeltaSet({(1, 4)}, set()),
        }
        return program, db, deltas

    def test_delta_p_via_q(self):
        program, db, deltas = self.setup_case()
        differentials = generate_differentials(
            "p", [P_CLAUSE], frozenset({"q", "r"})
        )
        via_q = next(
            d for d in differentials if d.influent == "q" and d.input_sign == "+"
        )
        assert evaluate(via_q, db, program, deltas) == {(1, 3)}

    def test_delta_p_via_r(self):
        program, db, deltas = self.setup_case()
        differentials = generate_differentials(
            "p", [P_CLAUSE], frozenset({"q", "r"})
        )
        via_r = next(
            d for d in differentials if d.influent == "r" and d.input_sign == "+"
        )
        assert evaluate(via_r, db, program, deltas) == {(1, 4)}

    def test_combined_delta_matches_paper(self):
        """joining with delta-union gives dp = <{(1,3),(1,4)}, {}>."""
        program, db, deltas = self.setup_case()
        differentials = generate_differentials(
            "p", [P_CLAUSE], frozenset({"q", "r"})
        )
        plus = set()
        for differential in differentials:
            if differential.input_sign == "+":
                plus |= evaluate(differential, db, program, deltas)
        assert plus == {(1, 3), (1, 4)}


class TestPaperSection44:
    """The deletions example: DB_old = q(1,1), r(1,2), r(2,3); transaction
    asserts q(1,2), r(1,4) and retracts r(1,2), r(2,3)."""

    def setup_case(self):
        program = make_program()
        db = Database()
        db.create_relation("q", 2).bulk_insert([(1, 1), (1, 2)])
        db.create_relation("r", 2).bulk_insert([(1, 4)])
        deltas = {
            "q": DeltaSet({(1, 2)}, set()),
            "r": DeltaSet({(1, 4)}, {(1, 2), (2, 3)}),
        }
        return program, db, deltas

    def differentials(self):
        return generate_differentials("p", [P_CLAUSE], frozenset({"q", "r"}))

    def pick(self, influent, sign):
        return next(
            d
            for d in self.differentials()
            if d.influent == influent and d.input_sign == sign
        )

    def test_positive_via_q_is_empty(self):
        """dp/d+q = <{},{}> — q(1,2) joins r(2,Z) but r(2,3) is retracted."""
        program, db, deltas = self.setup_case()
        assert evaluate(self.pick("q", "+"), db, program, deltas) == frozenset()

    def test_positive_via_r(self):
        program, db, deltas = self.setup_case()
        assert evaluate(self.pick("r", "+"), db, program, deltas) == {(1, 4)}

    def test_negative_via_r_uses_old_q(self):
        """dp/d-r = <{},{(1,2)}> — NOT {(1,2),(1,3)}: q_old lacks (1,2)."""
        program, db, deltas = self.setup_case()
        assert evaluate(self.pick("r", "-"), db, program, deltas) == {(1, 2)}

    def test_wrong_answer_without_logical_rollback(self):
        """Evaluating dp/d-r in the NEW state gives the paper's 'clearly
        wrong' result {(1,2),(1,3)} — q(1,2) is new and must not join."""
        program, db, deltas = self.setup_case()
        negative = self.pick("r", "-")
        wrong = BruteForce(program, NewStateView(db), deltas).clause_rows(
            negative.clause
        )
        assert wrong == {(1, 2), (1, 3)}

    def test_net_delta_matches_paper(self):
        """dp = <{(1,4)}, {(1,2)}>."""
        program, db, deltas = self.setup_case()
        plus, minus = set(), set()
        for differential in self.differentials():
            rows = evaluate(differential, db, program, deltas)
            (plus if differential.output_sign == "+" else minus).update(rows)
        assert (plus - minus, minus - plus) == ({(1, 4)}, {(1, 2)})


class TestNegatedOccurrences:
    def test_signs_flip_under_negation(self):
        clause = HornClause(
            PredLiteral("p", (X,)),
            [PredLiteral("q", (X, X)), PredLiteral("r", (X, X), negated=True)],
        )
        differentials = generate_differentials(
            "p", [clause], frozenset({"q", "r"})
        )
        negated = [d for d in differentials if d.influent == "r"]
        assert {(d.input_sign, d.output_sign) for d in negated} == {
            ("-", "+"),  # r loses a tuple -> p may gain
            ("+", "-"),  # r gains a tuple -> p may lose
        }

    def test_guard_literal_added(self):
        clause = HornClause(
            PredLiteral("p", (X,)),
            [PredLiteral("q", (X, X)), PredLiteral("r", (X, X), negated=True)],
        )
        differentials = generate_differentials("p", [clause], frozenset({"r"}))
        for differential in differentials:
            negated_literals = [
                l for l in differential.clause.pred_literals() if l.negated
            ]
            assert [l.pred for l in negated_literals] == ["r"]
